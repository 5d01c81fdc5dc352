"""Suite-wide test settings.

Hypothesis runs derandomized and without its example database, so every run
of the suite draws the same examples. Every test must leave no child process
behind, not even one waiting to be reaped: ``run_cohort`` forks its workers
in this process, and must reap each of them.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

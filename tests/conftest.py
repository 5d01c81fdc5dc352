"""Suite-wide test settings.

Hypothesis runs derandomized and without its example database, so every run
of the suite draws the same examples. Every test must leave no child process
behind, not even one waiting to be reaped: ``run_cohort`` forks its workers
in this process, and must reap each of them. Nor may a test leave the
interpreter's int/str digit limit changed: the limit is restored after every
test, and a test that changed it fails.
"""

import os
import sys

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def int_digit_limit_restored():
    if not hasattr(sys, "get_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    left = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    assert left == limit, f"test left the int/str digit limit at {left}, not {limit}"

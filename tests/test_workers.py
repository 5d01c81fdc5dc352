"""``run_cohort``'s tasks in worker processes: order, errors, and no process left.

``pipeline._run_tasks`` runs a list of tasks in a pool of forked worker
processes, or in this process with one worker. These tests force the worker
count through the private ``pipeline._workers``, so the pool runs whatever
the CPU count of the machine, and check after every test that no child
process is left, not even one waiting to be reaped.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from ubnin import pipeline
from ubnin.stats import PermutationWorkspace

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that hangs for 60 s, or that leaves a child process behind."""
    def hung(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    def force(count):
        monkeypatch.setattr(pipeline, "_workers", lambda tasks: min(count, tasks))
    return force


def pid_and_workspace(index):
    return lambda workspace: (index, os.getpid(), id(workspace))


def test_results_in_task_order_from_worker_processes(workers):
    workers(3)
    results = pipeline._run_tasks([pid_and_workspace(i) for i in range(12)])
    assert [index for index, _, _ in results] == list(range(12))
    pids = {pid for _, pid, _ in results}
    assert os.getpid() not in pids and 1 <= len(pids) <= 3
    # one workspace per worker process
    assert len({(pid, ws) for _, pid, ws in results}) == len(pids)


def test_each_worker_pinned_to_its_own_usable_cpu(workers):
    usable = os.sched_getaffinity(0)
    workers(2)
    results = pipeline._run_tasks([lambda ws: (os.getpid(), os.sched_getaffinity(0))] * 8)
    pinned = dict(results)
    assert all(len(cpus) == 1 and cpus <= usable for cpus in pinned.values())
    assert len(set().union(*pinned.values())) == min(len(pinned), len(usable))
    assert os.sched_getaffinity(0) == usable


def test_one_worker_runs_here_on_one_workspace(workers):
    workers(1)
    results = pipeline._run_tasks([pid_and_workspace(i) for i in range(4)])
    assert [index for index, _, _ in results] == list(range(4))
    assert {pid for _, pid, _ in results} == {os.getpid()}
    assert len({ws for _, _, ws in results}) == 1


def test_worker_count_is_the_usable_cpus_and_at_most_one_per_task():
    cpus = len(os.sched_getaffinity(0))
    assert pipeline._workers(1000) == cpus
    assert pipeline._workers(1) == 1


@pytest.mark.parametrize("count", [1, 3])
def test_exception_propagates_with_its_type(workers, count):
    def broken(workspace):
        raise TypeError("broken task")

    workers(count)
    tasks = [pid_and_workspace(0), broken] + [pid_and_workspace(i) for i in range(2, 8)]
    with pytest.raises(TypeError, match="broken task"):
        pipeline._run_tasks(tasks)


def test_first_failing_task_in_order_raises(workers):
    def fail(message):
        def task(workspace):
            raise ValueError(message)
        return task

    workers(3)
    with pytest.raises(ValueError, match="task 1"):
        pipeline._run_tasks([pid_and_workspace(0), fail("task 1"), fail("task 2")])


def test_dead_worker_raises_in_the_parent(workers):
    def die(workspace):
        os._exit(3)

    workers(2)
    with pytest.raises(BrokenProcessPool):
        pipeline._run_tasks([pid_and_workspace(0), die] + [pid_and_workspace(i) for i in range(6)])


def test_workspace_is_a_permutation_workspace(workers):
    workers(2)
    kinds = pipeline._run_tasks([lambda ws: type(ws).__name__] * 3)
    assert kinds == [PermutationWorkspace.__name__] * 3


def test_import_loads_no_process_pool():
    code = ("import sys, ubnin, ubnin.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

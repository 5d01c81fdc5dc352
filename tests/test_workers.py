"""``run_cohort``'s tasks in worker processes: order, errors, and no process left.

``pipeline._run_tasks`` runs a list of tasks in forked worker processes, or
in this process with one worker. These tests force the worker count through
the private ``pipeline._workers``, so the workers run whatever the CPU count
of the machine. ``conftest.py`` checks after every test that no child process
is left, not even one waiting to be reaped.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import pytest

from ubnin import pipeline, stats
from ubnin.pipeline import RunConfig, run_cohort
from synth import make_null_pair, subjects_csv_text

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_hang():
    """Fail a test that hangs for 60 s."""
    def hung(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def workers(monkeypatch):
    def force(count):
        monkeypatch.setattr(pipeline, "_workers", lambda tasks: min(count, tasks))
    return force


def pid_of(index):
    return lambda: (index, os.getpid())


def buffers_after_a_test(seed):
    """A task: run a small permutation test, then give this process's id and
    the address of each work buffer of this thread."""
    a, b = make_null_pair(seed, n_subjects=8, n_regions=30)
    stats.permutation_test(a, b, (0.3, 0.6), iterations=5, seed=seed)
    return os.getpid(), {name: buffer.ctypes.data
                         for name, buffer in vars(stats._thread).items()}


def test_results_in_task_order_from_worker_processes(workers):
    workers(3)
    results = pipeline._run_tasks([pid_of(i) for i in range(12)])
    assert [index for index, _ in results] == list(range(12))
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and 1 <= len(pids) <= 3


def test_each_worker_reuses_its_own_buffers(workers):
    workers(2)
    results = pipeline._run_tasks([partial(buffers_after_a_test, seed) for seed in range(8)])
    by_pid = {}
    for pid, addresses in results:
        by_pid.setdefault(pid, []).append(addresses)
    assert os.getpid() not in by_pid
    for kept in by_pid.values():
        assert len(kept[0]) == 7 and kept == [kept[0]] * len(kept)


def test_pooled_run_leaves_no_buffers_here(tmp_path, monkeypatch, workers):
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(60, 12, 3))
    config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"), sweep_start=0.3,
                       sweep_stop=0.6, sweep_step=0.3, iterations=5, n_rand=1)
    for count, held in ((2, False), (1, True)):
        monkeypatch.setattr(stats, "_thread", threading.local())
        workers(count)
        run_cohort(config)
        assert bool(vars(stats._thread)) is held


def test_each_worker_pinned_to_its_own_usable_cpu(workers):
    usable = os.sched_getaffinity(0)
    workers(2)
    results = pipeline._run_tasks([lambda: (os.getpid(), os.sched_getaffinity(0))] * 8)
    pinned = dict(results)
    assert all(len(cpus) == 1 and cpus <= usable for cpus in pinned.values())
    assert len(set().union(*pinned.values())) == min(len(pinned), len(usable))
    assert os.sched_getaffinity(0) == usable


def test_one_worker_runs_here_and_reuses_this_threads_buffers(workers):
    workers(1)
    assert pipeline._run_tasks([pid_of(i) for i in range(4)]) == \
        [(i, os.getpid()) for i in range(4)]
    results = pipeline._run_tasks([partial(buffers_after_a_test, seed) for seed in range(4)])
    assert {pid for pid, _ in results} == {os.getpid()}
    assert len(results[0][1]) == 7 and [addresses for _, addresses in results] == \
        [results[0][1]] * 4


def test_worker_count_is_the_usable_cpus_and_at_most_one_per_task():
    cpus = len(os.sched_getaffinity(0))
    assert pipeline._workers(1000) == cpus
    assert pipeline._workers(1) == 1


@pytest.mark.parametrize("count", [1, 3])
def test_exception_propagates_with_its_type(workers, count):
    def broken():
        raise TypeError("broken task")

    workers(count)
    tasks = [pid_of(0), broken] + [pid_of(i) for i in range(2, 8)]
    with pytest.raises(TypeError, match="broken task"):
        pipeline._run_tasks(tasks)


def test_first_failing_task_in_order_raises(workers):
    def fail(message):
        def task():
            raise ValueError(message)
        return task

    workers(3)
    with pytest.raises(ValueError, match="task 1"):
        pipeline._run_tasks([pid_of(0), fail("task 1"), fail("task 2")])


def test_dead_worker_raises_in_the_parent(workers):
    def die():
        os._exit(3)

    workers(2)
    with pytest.raises(BrokenProcessPool):
        pipeline._run_tasks([pid_of(0), die] + [pid_of(i) for i in range(6)])


def test_import_loads_no_process_pool():
    code = ("import sys, ubnin, ubnin.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_more_tasks_than_the_index_pipe_holds_come_back_in_order(workers):
    # 80,000 bytes of indices: more than a 64 KiB pipe holds. Sent all at
    # once, they would fill the index pipe while the results of the first
    # few thousand fill the result pipes, and nothing would move.
    workers(2)
    count = 20_000
    results = pipeline._run_tasks([partial(format, i, "0100") for i in range(count)])
    assert list(map(int, results)) == list(range(count))


def test_result_bigger_than_a_pipe_buffer_comes_back_whole(workers):
    big = bytes(range(256)) * 4096  # 1 MiB
    workers(2)
    assert pipeline._run_tasks([lambda: big, partial(int, 1), lambda: big]) == [big, 1, big]


def test_worker_killed_mid_run_raises_in_the_parent(workers):
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    workers(2)
    with pytest.raises(BrokenProcessPool):
        pipeline._run_tasks([pid_of(i) for i in range(4)] + [killed]
                            + [pid_of(i) for i in range(5, 12)])


def test_result_that_does_not_pickle_raises_the_pickling_error(workers):
    with pytest.raises(Exception) as expected:
        pickle.dumps(threading.Lock())
    workers(2)
    with pytest.raises(expected.type, match="pickle"):
        pipeline._run_tasks([pid_of(0), threading.Lock, pid_of(2), pid_of(3)])


def test_pooled_run_starts_no_thread_and_loads_no_process_pool():
    code = ("import os, sys, threading; from ubnin import pipeline; "
            "pipeline._workers = lambda tasks: min(2, tasks); "
            "pids = pipeline._run_tasks([os.getpid] * 8); "
            "assert os.getpid() not in pids, pids; "
            "print(threading.active_count(), sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1 []"

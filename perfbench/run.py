"""Benchmark of ubnin: one workload, timed in rounds, then checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cohort-smallworld --seed 1 --seconds 35 --trace 0

Set-up imports ``ubnin`` from ``src/`` and writes the workload's seeded input
CSV. Untraced runs also set up in four child processes, one after the other,
and report as ``setup_s`` the median of the five set-up times. The timed part
repeats one round (a pipeline run on that input) until the next round would
end after ``--seconds``, and times the reference computation of
``calibration.py`` before the first round and after each round. With
``--trace 0`` the run reports the end-to-end metrics, the round times scaled
to the reference speed; with ``--trace 1`` it installs the wrappers of
``tracing.py`` and reports per-layer metrics instead. Either way the first round's outputs are
checked against independent computations, and every later round must
reproduce them byte for byte. The last line of standard output is one JSON
object; the exit code is 1 when a check fails.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"
SETUP_REPEATS = 5
# One BLAS thread: a second one only spins on the program's small matrix
# products. Rounds take the same wall time with one thread, and cpu_s then
# counts work rather than spinning.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once, print the set-up time and exit: the child runs of setup_s
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_in_children(args, count: int) -> list[float]:
    """Set-up times of ``count`` child runs of this script, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ubnin" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} holds no src/ubnin or tests/oracles.py; "
              "run from the root of a ubnin checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import ubnin

    if Path(ubnin.__file__).resolve().parent != (src / "ubnin").resolve():
        print(f"perfbench: imported ubnin from {ubnin.__file__}, not {src}", file=sys.stderr)
        return 2
    import calibration
    from inputs import write_subjects_csv
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-{args.seed}-{'setup' if args.setup_only else args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    input_csv = run_dir / "subjects.csv"
    if args.setup_only:
        write_subjects_csv(workload.subjects(args.seed), input_csv)
        print(time.perf_counter() - START)
        shutil.rmtree(run_dir)
        return 0

    setup_s = [] if args.trace else setup_in_children(args, SETUP_REPEATS - 1)
    t = time.perf_counter()
    subjects = workload.subjects(args.seed)
    write_subjects_csv(subjects, input_csv)
    setup_s.append(import_s + time.perf_counter() - t)

    tracer = Tracer() if args.trace else None
    first, walls, cpus, refs, digests = None, [], [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    refs.append(calibration.measure())
    with tracer or nullcontext():
        while True:
            gc.collect()
            t, c = time.perf_counter(), time.process_time()
            r = workload.run_round(args.seed, subjects, input_csv, run_dir / "out")
            walls.append(time.perf_counter() - t)
            cpus.append(time.process_time() - c)
            refs.append(calibration.measure())
            digests.append(r.digest())
            attempted += r.attempted
            failed += r.failed
            if first is None:
                first = r
            if time.perf_counter() - loop_start + statistics.median(walls) > args.seconds:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(args.seed, subjects, first)
    if len(set(digests)) > 1:
        errors.append(f"rounds differ: {len(set(digests))} distinct outputs in {len(digests)} rounds")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    n = len(walls)
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"set-ups {' '.join(f'{t:.4f}' for t in setup_s)} s", file=sys.stderr)
    print(f"rounds wall {' '.join(f'{t:.4f}' for t in walls)} s", file=sys.stderr)
    print(f"rounds cpu {' '.join(f'{t:.4f}' for t in cpus)} s", file=sys.stderr)
    print(f"reference {' '.join(f'{t:.4f}' for t in refs)} s", file=sys.stderr)
    print(f"median round: wall {statistics.median(walls):.4f} s, cpu {statistics.median(cpus):.4f} s",
          file=sys.stderr)
    if tracer:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in tracer.per_round(n).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_ref_s": {"value": statistics.median(
                calibration.scale(t, *refs[i:i + 2]) for i, t in enumerate(walls)), "unit": "s"},
            "cpu_ref_s": {"value": statistics.median(
                calibration.scale(t, *refs[i:i + 2]) for i, t in enumerate(cpus)), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if not errors:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:  # another run's outputs are still there
            pass
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

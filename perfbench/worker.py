"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (import and build the inputs, then stop), ``pass`` (run
every job with only the oracle timer bound) or ``trace`` (run every job
with all spans bound).  Each step prints one JSON line on stdout as soon as
it is done, so a parent that kills a pass still knows which jobs finished.
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here: import + inputs

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "pass", "trace"],
                        required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cayleykit
    import cayleykit.cli
    import cayleykit.repro
    if not Path(cayleykit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cayleykit was imported from {cayleykit.__file__}, "
                         f"not from {SRC}")
    import tracing
    import workloads

    oracle = tracing.OracleTimer()
    tracer = tracing.Tracer() if args.mode == "trace" else None
    tracing.install(cayleykit, oracle, tracer)
    jobs = workloads.BUILDERS[args.workload](cayleykit, args.seed)
    emit({"setup_s": time.perf_counter() - STARTED,
          "jobs": [name for name, _ in jobs]})
    if args.mode == "setup":
        return 0

    start = time.perf_counter()
    for name, job in jobs:
        oracle_before = oracle.total
        job_start = time.perf_counter()
        try:
            answer, ok = job()
        except Exception as exc:  # a failed job is counted, never dropped
            answer, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
        emit({"job": name, "s": time.perf_counter() - job_start,
              "oracle_s": oracle.total - oracle_before,
              "ok": bool(ok), "answer": answer})
    wall = time.perf_counter() - start
    done = {"wall_s": wall, "oracle_s": oracle.total,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done["layers"] = tracer.metrics()
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

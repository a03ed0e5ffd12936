"""The cayleykit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from ``src/``.
Each timed pass runs in a fresh child process (``worker.py``), one after
another, never two at once.  The second-to-last line of stdout is a JSON
record of the whole run: the seed, the machine, every pass, all seven
end-to-end metrics (with ``oracle_s`` and ``failed_frac``) and a digest of
the answers.  The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, taken as medians
over untraced passes.  With ``--trace 1`` one untraced and one traced pass
run on the same inputs, and the metrics are the per-layer ones.

Exit status is 0 when a result was printed, 2 when the package is missing
or cannot even set up a workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the run record only.  oracle_s and failed_frac read 0 on most
# workloads.  lib_s and max_job_s sum or pick jobs of a second or two, whose
# times on a shared 2-CPU machine spread by 20-45% from run to run, too
# much for a gate; on chain, closure and conjugacy lib_s equals wall_s.
RECORD_ONLY = {"lib_s": "s", "max_job_s": "s", "oracle_s": "s",
               "failed_frac": "ratio"}

# One pass's wall time on the reference machine.  A run makes
# round(seconds / this) passes, at least one, so its inputs depend only on
# the seed and --seconds, never on how fast the machine is.
REFERENCE_PASS_S = {"reproduce": 28.0, "chain": 5.0, "closure": 5.0,
                    "conjugacy": 19.0}
SETUP_RUNS = 5  # set-up-only children per run, besides each pass's own
RUN_LIMIT_S = 170.0  # the whole run, so it always exits within 180 s
PASS_LIMIT_S = 150.0
# Pass i of seed s builds its inputs from s + i * stride, so each pass adds
# fresh relabelings and pass 0 uses s itself.
PASS_SEED_STRIDE = 1_000_003


class Broken(Exception):
    """The package is missing or cannot set a workload up."""


def pass_seed(seed, index):
    return seed + PASS_SEED_STRIDE * index


def run_child(workload, seed, mode, deadline):
    """Run worker.py once; return its records, whether it was cut off,
    and how long it ran."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    # Fixed hashing keeps the traced counts exact from run to run; no
    # bytecode cache keeps set-up the same on every run and in any checkout.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    limit = min(PASS_LIMIT_S, deadline - time.monotonic())
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(limit, 1.0))
        cut = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        cut = True
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut short by the kill
            pass
    if not records or "setup_s" not in records[0]:
        if cut:
            raise Broken(f"{workload} setup did not finish in {limit:.0f} s")
        raise Broken(f"{workload} setup failed (exit {proc.returncode})")
    return records, cut, time.monotonic() - started


def summarize(records, cut, elapsed):
    """One pass: its jobs, times, failures and memory."""
    head = records[0]
    jobs = [r for r in records if "job" in r]
    tail = records[-1] if "wall_s" in records[-1] else None
    failed = sum(not j["ok"] for j in jobs) + len(head["jobs"]) - len(jobs)
    answers = [[j["job"], j["answer"], j["ok"]] for j in jobs]
    digest = hashlib.sha256(
        json.dumps(answers, sort_keys=True).encode()).hexdigest()
    wall = tail["wall_s"] if tail else elapsed - head["setup_s"]
    oracle = tail["oracle_s"] if tail else sum(j["oracle_s"] for j in jobs)
    return {"setup_s": head["setup_s"], "wall_s": wall, "oracle_s": oracle,
            "rss_mb": tail["rss_mb"] if tail else None,
            "attempted": len(head["jobs"]), "failed": failed, "cut": cut,
            "answers_sha256": digest,
            "jobs": {j["job"]: j["s"] for j in jobs},
            "layers": tail.get("layers") if tail else None}


def end_to_end(passes, setups):
    med = statistics.median
    rss = [p["rss_mb"] for p in passes if p["rss_mb"] is not None]
    attempted = sum(p["attempted"] for p in passes)
    return {
        "wall_s": med(p["wall_s"] for p in passes),
        "lib_s": med(p["wall_s"] - p["oracle_s"] for p in passes),
        # the slowest job, each job taken as its median over passes
        "max_job_s": max((med(p["jobs"][name] for p in passes
                              if name in p["jobs"])
                          for name in {n for p in passes for n in p["jobs"]}),
                         default=0.0),
        "setup_s": med(setups),
        "peak_rss_mb": med(rss) if rss else 0.0,
        "oracle_s": med(p["oracle_s"] for p in passes),
        "failed_frac": sum(p["failed"] for p in passes) / attempted,
    }


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_child(workload, seed, "setup", deadline)[0][0]["setup_s"]
              for _ in range(SETUP_RUNS)]
    if trace:
        plan = [(seed, "pass"), (seed, "trace")]
    else:
        count = max(1, round(seconds / REFERENCE_PASS_S[workload]))
        plan = [(pass_seed(seed, i), "pass") for i in range(count)]
    passes = []
    for pseed, mode in plan:
        if time.monotonic() >= deadline:
            break
        p = summarize(*run_child(workload, pseed, mode, deadline))
        p["seed"], p["mode"] = pseed, mode
        passes.append(p)
        setups.append(p["setup_s"])
    untraced = [p for p in passes if p["mode"] == "pass"]
    e2e = end_to_end(untraced, setups)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        layers = passes[-1]["layers"] or {}
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in tracing.per_layer_metrics().items()}
        metrics["oracle_s"]["value"] = passes[-1]["oracle_s"]
        metrics["trace.overhead_s"]["value"] = (passes[-1]["wall_s"]
                                                - untraced[0]["wall_s"])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "end_to_end": {name: {"value": e2e[name], "unit": unit}
                       for name, unit in {**END_TO_END,
                                          **RECORD_ONLY}.items()},
        "answers_sha256": passes[0]["answers_sha256"],
        "passes": [{k: v for k, v in p.items() if k != "layers"}
                   for p in passes],
    }
    result = {"correct": failed == 0 and len(passes) == len(plan),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cayleykit" / "__init__.py").is_file():
        print(f"no cayleykit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except Broken as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

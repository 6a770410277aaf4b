"""logloss-lab benchmark: one closed-loop workload in this process.

    python3 perfbench/run.py --workload games --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One client runs one task at a time, in whole rounds, for about
``--seconds``; every output is checked against invariants and against the
reference outputs stored in ``perfbench/reference/``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from spans
recorded around each call into the library.  A detailed result (provenance,
every failed task, the tail percentile used) and, when traced, the spans
are written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

# One worker thread: pin the BLAS pools and the CLI's verify workers before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "LOGLOSS_LAB_WORKERS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("games", "rates")
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    """Import numpy and the package from this checkout; returns seconds taken."""
    if not (SRC / "logloss_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no logloss_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import logloss_lab

    import harness  # noqa: F401
    import workloads  # noqa: F401

    took = time.perf_counter() - t0
    if Path(logloss_lab.__file__).resolve().parent != SRC / "logloss_lab":
        raise SystemExit(f"error: imported logloss_lab from {logloss_lab.__file__}")
    return took


def load_reference(groups):
    """The stored reference outputs of the given task groups, in one dict."""
    outputs = {}
    for group in groups:
        with open(HERE / "reference" / f"{group}.json") as f:
            outputs.update(json.load(f)["outputs"])
    return outputs


def provenance(**run):
    """Versions, machine and commit, plus the run's own settings."""
    import platform

    import numpy as np

    text = (ROOT / "pyproject.toml").read_text() if (ROOT / "pyproject.toml").is_file() else ""
    m = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
    return {
        "package_version": m.group(1) if m else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT / ".git"),
        **run,
    }


def git_commit(git_dir):
    """HEAD's commit read from the .git directory (no git process), or None."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def os_threads():
    """Threads of this process as the kernel counts them (None off Linux)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def curve_eval_cost_s(n=20000):
    """Extra wall time per call that the traced run's counting curve adds."""
    from logloss_lab.cover import EntropyCurve
    from workloads.common import CountingCurve

    plain, counting = EntropyCurve.power(1.0, 2.0), CountingCurve(kind="power", C=1.0, p=2.0)
    t0 = time.perf_counter()
    for _ in range(n):
        plain.value(0.5)
    t1 = time.perf_counter()
    for _ in range(n):
        counting.value(0.5)
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()

    from harness import end_to_end, round_plan, run_closed_loop
    from metrics import END_TO_END, PER_LAYER, per_layer
    from tracing import NULL_TRACER, Tracer, span_cost_s
    from workloads import WORKLOADS as MODULES

    workload = MODULES[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        # Set-up is repeated and its median kept; imports happen once.
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            strata = workload.setup(work)
            reference = load_reference(workload.groups)
            round_plan(strata, args.seed, 0)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer() if args.trace else NULL_TRACER
        t_run = time.perf_counter()
        records, rounds, wall_s = run_closed_loop(
            strata, args.seed, args.seconds, tracer, reference
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = {"python": threading.active_count(), "os": os_threads()}
    single_thread = threads["python"] == 1 and threads["os"] in (1, None)
    e2e = end_to_end(records, wall_s, setup_s, peak_rss_mb, workload.tail_percentile)
    failed = [r for r in records if r.status == "failed"]
    known = [r for r in records if r.status == "known"]

    result = {
        "provenance": provenance(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        ),
        "rounds": rounds,
        "wall_s": wall_s,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "threads": threads,
        "tail_percentile": workload.tail_percentile,
        "tail_samples": e2e.tail_samples,
        "tail_beyond": e2e.tail_beyond,
        "end_to_end": e2e.values,
        "failed_tasks": [vars(r) for r in failed],
        "known_failures": [vars(r) for r in known],
        "tasks": [[r.key, r.latency_s, r.status] for r in records],
    }
    if args.trace:
        agg = tracer.aggregate()
        evals = sum(a.get("curve_evals", 0) for a in agg.values())
        overhead_s = len(tracer.spans) * span_cost_s() + evals * curve_eval_cost_s()
        layer = per_layer(agg, rounds, overhead_s)
        result["per_layer"] = layer
        result["spans"] = dict(sorted(agg.items()))
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", t_run)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            name: {"value": e2e.values[name], "unit": unit} for name, unit, _, _ in END_TO_END
        }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, default=str)
        f.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{rounds} rounds, {len(records)} tasks in {wall_s:.2f} s; detail in {out_path}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print(f"tail: p{workload.tail_percentile:g} of {e2e.tail_samples} successful tasks, "
          f"{e2e.tail_beyond} beyond it")
    for (key, sig), n in sorted(Counter((r.key.split("/")[0], r.signature) for r in known).items()):
        reason = next(r.reason for r in known if r.key.startswith(key + "/"))
        print(f"known failure x{n}: {key}: {sig}: {reason}")
    for r in failed:
        print(f"FAILED {r.key}: {r.signature}: {r.detail}")
    if not single_thread:
        print(f"FAILED benchmark check: more than one thread ran {threads}")
    line = {
        "correct": not failed and single_thread,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

- BENCHMARK.json lists exactly the workloads and metrics defined here;
- the same seed gives an identical task list, another seed a different one;
- the stored references cover every task that has no documented defect;
- a task that raises or returns a wrong answer is counted as failed and the
  run goes on;
- one traced round of each workload has no failed task, uses one process
  and one thread, and every per-layer metric is nonzero on some workload
  (a name no span produces would read 0 everywhere).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading

import run

PROBLEMS = []
# failure and optimiser-edge counts, and overhead (not measured here), may
# read 0 on every workload
MAY_BE_ZERO = {"bounds.truncation_bound.at_bracket_floor", "trace.overhead_s"}


def expect(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        PROBLEMS.append(msg)


def check_benchmark_json():
    from metrics import END_TO_END, PER_LAYER

    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    expect(spec["command"] == ["python3", "perfbench/run.py"], "BENCHMARK.json command")
    expect(spec["paths"] == ["perfbench"], "BENCHMARK.json paths")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    expect(e2e == END_TO_END, "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layer == PER_LAYER, "BENCHMARK.json per_layer matches metrics.PER_LAYER")


def check_plans(modules, work):
    from harness import round_plan

    for name, wl in modules.items():
        strata = wl.setup(work)
        plan = lambda seed: [round_plan(strata, seed, r) for r in range(12)]
        expect(plan(3) == plan(3), f"{name}: same seed, same task list")
        expect(plan(3) != plan(4), f"{name}: other seed, other task list")
        reference = run.load_reference(wl.groups)
        missing = [
            f"{s}/{v}"
            for s, st in strata.items()
            for v in range(st.variants)
            if st.known is None and f"{s}/{v}" not in reference
        ]
        expect(not missing, f"{name}: reference covers every task {missing[:3]}")


def _fake_strata():
    """Four tasks: correct, raising, wrong answer, documented defect."""
    from harness import Known, Stratum

    def raises(tr, v):
        raise RuntimeError("boom")

    def known(tr, v):
        raise KeyError("documented")

    return {
        "good": Stratum(1, lambda tr, v: {"x": 1.0}),
        "raises": Stratum(1, raises),
        "wrong": Stratum(1, lambda tr, v: {"x": 2.0}),
        "known": Stratum(1, known, Known("KeyError", "a documented defect")),
    }


def check_failure_accounting():
    from harness import end_to_end, run_closed_loop
    from tracing import NULL_TRACER

    reference = {"good/0": {"x": 1.0}, "raises/0": {"x": 1.0}, "wrong/0": {"x": 1.0}}
    records, rounds, wall = run_closed_loop(_fake_strata(), 0, 0.05, NULL_TRACER, reference)
    status = {r.key: r.status for r in records}
    expect(len(records) == 4 * rounds, "every task ran in every round after failures")
    expect(status == {"good/0": "ok", "raises/0": "failed", "wrong/0": "failed",
                      "known/0": "known"}, f"task statuses {status}")
    e2e = end_to_end(records, wall, 0.0, 0.0, 90)
    expect(abs(e2e.values["ok_frac"] - 0.25) < 1e-12, "ok_frac counts only checked-correct tasks")


def _children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def check_single_process(modules, work):
    from harness import run_closed_loop
    from metrics import PER_LAYER, per_layer
    from tracing import Tracer

    nonzero = set()
    for name, wl in modules.items():
        tracer = Tracer()
        records, rounds, _ = run_closed_loop(
            wl.setup(work), 0, 0.0, tracer, run.load_reference(wl.groups)
        )
        layer = per_layer(tracer.aggregate(), rounds, 0.0)
        nonzero |= {k for k, v in layer.items() if v}
        failed = [r.key for r in records if r.status == "failed"]
        expect(not failed, f"{name}: one round, no failed task {failed[:3]}")
        expect(threading.active_count() == 1 and run.os_threads() in (1, None),
               f"{name}: one thread (os threads {run.os_threads()})")
        if os.path.isdir("/proc"):
            expect(not _children(os.getpid()), f"{name}: no child process")
    # a per-layer metric that no workload moves names a span that does not exist
    silent = [n for n, _, _ in PER_LAYER if n not in nonzero and n not in MAY_BE_ZERO and not n.endswith(".failed")]
    expect(not silent, f"every per-layer metric is nonzero on some workload {silent}")


def main():
    run.import_library()
    from workloads import WORKLOADS

    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        check_benchmark_json()
        check_plans(WORKLOADS, work)
        check_failure_accounting()
        check_single_process(WORKLOADS, work)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

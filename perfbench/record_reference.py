"""Record the reference outputs the benchmark checks every task against.

    python3 perfbench/record_reference.py [GROUP ...]

Runs every variant of every stratum of a task group once (no timing) and
writes ``perfbench/reference/<group>.json``.  Strata with a documented defect
(harness.Known) have no reference.  Re-record only when the benchmark's
inputs change; a library change must match the stored outputs instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

import run


def record(name, modules):
    from harness import plain
    from tracing import NULL_TRACER

    group = modules[name]
    outputs = {}
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        for stratum_name, stratum in group.setup(work).items():
            if stratum.known is None:
                for v in range(stratum.variants):
                    outputs[f"{stratum_name}/{v}"] = plain(stratum.run(NULL_TRACER, v))
    prov = run.provenance()
    recorded_with = {k: prov[k] for k in ("package_version", "numpy", "python", "git_commit")}
    path = run.HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"recorded_with": recorded_with, "outputs": outputs}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"{name}: {len(outputs)} reference outputs in {time.perf_counter() - t0:.1f} s -> {path}")


def main(argv):
    run.import_library()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    from workloads import GROUPS

    for name in argv or list(GROUPS):
        record(name, GROUPS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Helpers shared by the task groups."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import zlib

import numpy as np

from harness import TaskError
from logloss_lab import cli
from logloss_lab.cover import EntropyCurve

__all__ = [
    "CORPUS_SEED",
    "CountingCurve",
    "expert_table",
    "instance_rng",
    "run_cli",
    "traced_curve",
    "write_class_files",
]

CORPUS_SEED = 20201


def instance_rng(stratum, variant):
    return np.random.default_rng([CORPUS_SEED, zlib.crc32(stratum.encode()), variant])


def run_cli(tracer, workdir, argv):
    """Run ``logloss-lab <argv> --out FILE`` in-process; return its report.

    Any exit code other than 0 raises TaskError.  An exception escaping
    ``cli.main`` would end a real process with exit code 1, so it is
    reported as exit 1 with the exception's type.
    """
    out = os.path.join(workdir, f"cli-{argv[0]}.out")
    sink = io.StringIO()
    with tracer.span(f"cli.{argv[0]}") as sp:
        escaped = ""
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(argv) + ["--out", out])
        except Exception as exc:  # what the interpreter would turn into exit 1
            code, escaped = 1, type(exc).__name__
            sink.write(f"{escaped}: {exc}")
        if code != 0:
            sp.count("failed")
    if code != 0:
        sig = f"exit {code}" + (f" ({escaped})" if escaped else "")
        raise TaskError(sig, sink.getvalue().strip()[-200:])
    with open(out) as f:
        return json.load(f)


def expert_table(rng, n_contexts):
    """|F| in 2..8 experts over n_contexts contexts, uniform in (0, 1).

    About one table in five has some entries set to exactly 0 or 1.  Row 0
    stays strictly inside (0, 1), so some expert's likelihood is positive on
    every history and no game value is -inf.
    """
    n_experts = int(rng.integers(2, 9))
    table = rng.uniform(size=(n_experts, n_contexts))
    if rng.uniform() < 0.2:
        hit = rng.uniform(size=(n_experts - 1, n_contexts)) < 0.25
        ends = rng.integers(0, 2, size=hit.shape).astype(float)
        table[1:] = np.where(hit, ends, table[1:])
    return table


def write_class_files(workdir, stratum, variants):
    """One single-context class file per variant, for a CLI task; returns
    the paths and the class sizes."""
    paths, sizes = [], []
    for v in range(variants):
        table = expert_table(instance_rng(stratum, v), 1)
        path = os.path.join(workdir, f"{stratum}-{v}.json")
        with open(path, "w") as f:
            json.dump({"contexts": [0], "experts": table.tolist()}, f)
        paths.append(path)
        sizes.append(table.shape[0])
    return paths, sizes


class CountingCurve(EntropyCurve):
    """An EntropyCurve that counts its value and integral calls.

    Used only in the traced run, to measure how many curve evaluations a
    bound optimiser spends.
    """

    evals = 0

    def value(self, gamma):
        self.evals += 1
        return super().value(gamma)

    def integral(self, alpha, gamma):
        self.evals += 1
        return super().integral(alpha, gamma)

    def integral_sqrt(self, alpha, gamma):
        self.evals += 1
        return super().integral_sqrt(alpha, gamma)


def traced_curve(tr, curve):
    """The curve itself, or a counting copy of it when tracing is on."""
    if not tr.enabled:
        return curve
    return CountingCurve(**{f.name: getattr(curve, f.name) for f in dataclasses.fields(curve)})

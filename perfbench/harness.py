"""Closed-loop task runner, output checks and end-to-end metrics.

One client runs one task at a time and starts the next only when the last
has completed.  Tasks are grouped in rounds: a round holds one task per
stratum of the workload's task groups, so every round has the same mix of
sizes and only the seeded inputs differ.  The loop runs whole rounds, so
every run measures the same mix, and stops at the round boundary nearest
to the requested number of seconds.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckFailed",
    "TaskError",
    "Known",
    "Stratum",
    "Record",
    "check",
    "compare",
    "round_plan",
    "run_closed_loop",
    "end_to_end",
    "plain",
]

# Absolute-or-relative tolerance against the stored reference outputs.
REF_TOL = 1e-9


class CheckFailed(Exception):
    """An output broke an invariant or differs from its reference."""


class TaskError(Exception):
    """A failure that is not a Python exception, such as a CLI exit code."""

    def __init__(self, signature, detail=""):
        super().__init__(f"{signature}: {detail}" if detail else signature)
        self.signature = signature


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Known:
    """A documented defect: the task is expected to fail with `signature`."""

    signature: str
    reason: str


@dataclass
class Stratum:
    """One size class of a workload: its inputs come in `variants` variants.

    ``run(tracer, variant)`` does the work of one task, checks invariants and
    returns the outputs compared with the reference stored under the key
    ``"<stratum name>/<variant>"``.
    """

    variants: int
    run: object
    known: Known | None = None


@dataclass
class Record:
    key: str
    latency_s: float
    status: str  # "ok", "known" (failed as documented) or "failed"
    signature: str = ""
    detail: str = ""
    reason: str = ""


def _signature(exc):
    if isinstance(exc, TaskError):
        return exc.signature
    if isinstance(exc, CheckFailed):
        return "check"
    return type(exc).__name__


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REF_TOL or abs(a - b) <= REF_TOL * max(abs(a), abs(b))


def compare(out, ref, path="out"):
    """List of mismatches between an output and its stored reference."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in compare(out[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        out = list(out) if isinstance(out, (list, tuple, np.ndarray)) else out
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (o, r) in enumerate(zip(out, ref))
                for m in compare(o, r, f"{path}[{i}]")]
    if out is None or ref is None:
        return [] if out is None and ref is None else [f"{path}: {out!r} != {ref!r}"]
    return [] if _close(out, ref) else [f"{path}: {out!r} != {ref!r}"]


def execute(key, stratum, variant, tracer, reference):
    """Run one task, check its output, and record how it ended."""
    tracer.task_id = key
    t0 = time.perf_counter()
    rec = Record(key, 0.0, "ok")
    known = stratum.known
    with tracer.span("task"):
        try:
            out = stratum.run(tracer, variant)
            if known is None:
                ref = reference.get(key)
                check(ref is not None, "no reference output for this task")
                bad = compare(plain(out), ref)
                check(not bad, "reference: " + "; ".join(bad[:3]))
        except Exception as exc:  # a failed task is counted and the run goes on
            rec.signature = _signature(exc)
            rec.detail = str(exc)[:300]
            if known is not None and rec.signature == known.signature:
                rec.status, rec.reason = "known", known.reason
            else:
                rec.status = "failed"
    rec.latency_s = time.perf_counter() - t0
    tracer.task_id = None
    return rec


def plain(obj):
    """Outputs as JSON-ready Python values (what the reference stores)."""
    return json.loads(json.dumps(obj, default=_json_default))


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"cannot store {type(o).__name__} in a reference")


def round_plan(strata, seed, r):
    """(stratum name, variant) pairs of round r, in the order they run.

    `strata` maps names to Stratum.  Each stratum walks through its variants
    in a seeded order without repeats until all have been used, then starts
    a fresh order.
    """
    picks = []
    for i, (name, stratum) in enumerate(strata.items()):
        cycle, pos = divmod(r, stratum.variants)
        order = np.random.default_rng([seed, cycle, i]).permutation(stratum.variants)
        picks.append((name, int(order[pos])))
    shuffle = np.random.default_rng([seed, r, len(strata)]).permutation(len(picks))
    return [picks[j] for j in shuffle]


def run_closed_loop(strata, seed, seconds, tracer, reference):
    """Whole rounds, ending at the round boundary nearest to `seconds`
    (at least one round); returns (records, rounds, wall seconds from the
    first task's start to the last task's end)."""
    records = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for name, variant in round_plan(strata, seed, rounds):
            key = f"{name}/{variant}"
            records.append(execute(key, strata[name], variant, tracer, reference))
        rounds += 1
        elapsed = time.perf_counter() - t_start
        # another round would end further from `seconds` than this boundary
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return records, rounds, time.perf_counter() - t_start


@dataclass
class EndToEnd:
    values: dict = field(default_factory=dict)
    tail_samples: int = 0  # successful tasks
    tail_beyond: int = 0  # successful tasks slower than the tail value


def end_to_end(records, wall_s, setup_s, peak_rss_mb, tail_percentile):
    """The end-to-end metrics of one run.

    The tail is the workload's fixed percentile (see
    ``workloads.Workload.tail_percentile``), taken as the nearest rank.
    """
    ok = sorted(r.latency_s for r in records if r.status == "ok")
    res = EndToEnd()
    n = len(ok)
    rank = min(n - 1, max(0, math.ceil(tail_percentile / 100.0 * n) - 1))
    tail = ok[rank] if ok else float("nan")
    res.tail_samples = n
    res.tail_beyond = n - 1 - rank
    res.values = {
        "tasks_per_s": n / wall_s,
        "task_p50_ms": statistics.median(ok) * 1e3 if ok else float("nan"),
        "task_tail_ms": tail * 1e3,
        "ok_frac": n / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return res

"""The benchmark's workloads and the task groups they are made of.

A task group is a module that provides ``setup(workdir)``, which builds the
input corpus (and any files the CLI reads) and returns a dict that maps
each stratum name to a ``harness.Stratum``.  A workload runs the strata of
its groups; a round runs one task per stratum.

Inputs come from a fixed corpus: variant ``v`` of stratum ``s`` is generated
from ``instance_rng(s, v)``, so its reference output can be stored, one
file per group.  The workload seed only chooses which variants each round
runs, and in which order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import assouad_cover, bounds_verify, game_certify, game_solve

__all__ = ["GROUPS", "WORKLOADS", "Workload"]

# group name (its reference file) -> module
GROUPS = {
    "game-solve": game_solve,
    "game-certify": game_certify,
    "assouad-cover": assouad_cover,
    "bounds-verify": bounds_verify,
}


@dataclass(frozen=True)
class Workload:
    groups: tuple
    # A fixed percentile in the middle of one size class of the round's mix,
    # so it stays in that class however many rounds a run completes, with
    # more than ten successful tasks beyond it in a run.
    tail_percentile: float

    def setup(self, workdir):
        strata = {}
        for group in self.groups:
            for name, stratum in GROUPS[group].setup(workdir).items():
                assert name not in strata, f"stratum {name} in two groups"
                strata[name] = stratum
        return strata


WORKLOADS = {
    # tail: the k=1 n=9, k=1 n=11 and k=2 n=6 solves (the 10-25% slowest)
    "games": Workload(("game-solve", "game-certify"), tail_percentile=85),
    # tail: the rate fits, power-curve sweeps and other 0.2-0.35 s tasks
    # (the 4-11% slowest)
    "rates": Workload(("assouad-cover", "bounds-verify"), tail_percentile=95),
}

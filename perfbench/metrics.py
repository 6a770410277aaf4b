"""Metric definitions: the single source of BENCHMARK.json's metric lists.

End-to-end metrics come from the untraced run.  Per-layer metrics come from
the traced run; a per-layer name is ``<span>.<stat>`` where the span wraps
one call from the benchmark into the library, and totals are divided by
the number of rounds run, so they compare across commits that complete a
different number of rounds in the same time.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "per_layer"]

# (name, unit, better, bound).  On a shared 2-CPU machine the speed of one
# thread drifts by 20-40% over minutes, so the timing bounds are wide;
# set-up time gets the widest.
END_TO_END = [
    ("tasks_per_s", "1/s", "higher", 0.24),
    ("task_p50_ms", "ms", "lower", 0.24),
    ("task_tail_ms", "ms", "lower", 0.24),
    ("ok_frac", "frac", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

CHECK_IDS = (
    "PHI_LIPSCHITZ",
    "SC_POINTWISE",
    "SC_EDGE",
    "NESTEROV",
    "SELF_CONCORDANT",
    "CLIPPING",
    "KL_EPS",
    "ETA_IDENTITY",
    "ESTIMATION",
)

_KERNELS = ("log_loss", "eta", "phi", "psi", "kl_bernoulli")


def _spans():
    """(span, stats) for the metrics read straight off the spans."""
    rows = [
        ("game.exact_minimax.static", ("calls", "busy_s", "histories")),
        ("game.exact_minimax.prev_outcomes", ("calls", "busy_s", "histories")),
        ("game.optimal_prediction", ("calls", "busy_s")),
        ("game.run_strategy.minimax_optimal", ("calls", "busy_s")),
        ("game.run_strategy.maximin_bayes", ("calls", "busy_s", "leaves")),
        ("game.dual_value", ("calls", "busy_s", "paths")),
        ("game.random_dual_strategy", ("calls", "busy_s")),
        ("cover.entropy_curve_estimate", ("calls", "busy_s")),
    ]
    rows += [
        (f"cover.{fn}", ("busy_s",))
        for fn in (
            "restrict",
            "sequential_cover_greedy",
            "sequential_cover_exact",
            "cover_verify",
            "empirical_entropy_lower",
        )
    ]
    rows += [
        ("assouad.scaling_experiment.bayes", ("busy_s", "rounds")),
        ("assouad.scaling_experiment.empirical", ("busy_s", "rounds")),
        ("assouad.online_to_batch", ("calls", "busy_s", "table_cells")),
        ("assouad.build_assouad_class", ("busy_s",)),
        ("assouad.sample_dataset", ("busy_s",)),
        ("assouad.kl_risk", ("busy_s",)),
        ("bounds.self_concordance_bound", ("calls", "busy_s", "curve_evals")),
    ]
    rows += [
        (f"bounds.truncation_bound.{kind}", ("calls", "busy_s", "curve_evals", "failed"))
        for kind in ("power", "log", "tabulated")
    ]
    rows.append(("bounds.fit_rate_exponent", ("calls", "busy_s")))
    rows += [(f"verify.run_check.{cid}", ("busy_s",)) for cid in CHECK_IDS]
    rows += [
        ("verify.sup_psi", ("busy_s",)),
        ("verify.lambda_threshold_scan", ("busy_s",)),
    ]
    rows += [
        (f"cli.{cmd}", ("busy_s", "failed"))
        for cmd in ("minimax", "dual", "assouad", "cover", "bounds", "verify")
    ]
    return rows


def _unit(stat):
    return "s/round" if stat.endswith("_s") else "1/round"


# (name, unit, better)
PER_LAYER = (
    [(f"core.{k}.ns_per_elem", "ns", "lower") for k in _KERNELS]
    + [("core.log_loss.scalar_us_per_call", "us", "lower")]
    + [(f"{span}.{stat}", _unit(stat), "lower") for span, stats in _spans() for stat in stats]
    + [
        ("cover.sequential_cover.demands", "1/round", "lower"),
        ("cover.greedy_over_exact", "ratio", "lower"),
        ("bounds.truncation_bound.at_bracket_floor", "1/round", "lower"),
        ("bench.self_s", "s/round", "lower"),
        ("trace.overhead_s", "s/round", "lower"),
    ]
)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(agg, rounds, overhead_s):
    """Every PER_LAYER value from aggregated spans (0 for a layer the
    workload does not call)."""

    def total(span, stat):
        return agg.get(span, {}).get(stat, 0)

    out = {}
    for k in _KERNELS:
        out[f"core.{k}.ns_per_elem"] = _ratio(
            total(f"core.{k}", "busy_s"), total(f"core.{k}", "elems"), 1e9
        )
    out["core.log_loss.scalar_us_per_call"] = _ratio(
        total("core.log_loss.scalar", "busy_s"),
        total("core.log_loss.scalar", "scalar_calls"),
        1e6,
    )
    for span, stats in _spans():
        for stat in stats:
            out[f"{span}.{stat}"] = total(span, stat) / rounds
    out["cover.sequential_cover.demands"] = (
        total("cover.sequential_cover_greedy", "demands") / rounds
    )
    out["cover.greedy_over_exact"] = _ratio(
        total("cover.sequential_cover_greedy", "size"),
        total("cover.sequential_cover_exact", "size"),
    )
    out["bounds.truncation_bound.at_bracket_floor"] = (
        sum(total(f"bounds.truncation_bound.{k}", "at_bracket_floor")
            for k in ("power", "log", "tabulated"))
        / rounds
    )
    out["bench.self_s"] = total("task", "self_s") / rounds
    out["trace.overhead_s"] = overhead_s / rounds
    return out

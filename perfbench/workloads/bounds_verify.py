"""bounds-verify: bound optimisers, lemma checks and the core kernels.

Three groups of tasks, with no games and no enumeration:

- bounds: self_concordance_bound and truncation_bound at n=2^10..2^20 for
  power curves with p in {0.5, 1.5, 2, 3} (one task per curve); the
  single-scale bound of a log curve (d=2) and of a tabulated curve at every
  n (one task per curve and n); fit_rate_exponent for both bounds at the
  four p;
- lemma checks: the nine verify.run_check ids at their criterion-2
  resolutions, sup_psi and lambda_threshold_scan;
- core kernels: log_loss, eta, phi, psi and kl_bernoulli on 2*10^6-element
  grids, and 2*10^4 scalar log_loss calls.

Three documented defects stay in the mix as known failures (see KNOWN).
"""

from __future__ import annotations

import math

import numpy as np

from harness import Known, Stratum, check
from logloss_lab import core
from logloss_lab.bounds import fit_rate_exponent, self_concordance_bound, truncation_bound
from logloss_lab.cover import EntropyCurve
from logloss_lab.verify import lambda_threshold_scan, run_check, sup_psi

from .common import instance_rng, run_cli, traced_curve

VARIANTS = 8
POWERS = (0.5, 1.5, 2.0, 3.0)
NS = [2**k for k in range(10, 21)]
TRUNCATION_N = 2**16
GRID = 2_000_000
SCALAR_CALLS = 20_000
# resolutions of acceptance criterion 2; ETA_IDENTITY and ESTIMATION take a seed
RESOLUTIONS = {
    "PHI_LIPSCHITZ": 0.1,
    "SC_POINTWISE": 1e-3,
    "SC_EDGE": 1e-6,
    "NESTEROV": 1e-3,
    "SELF_CONCORDANT": 1e-6,
    "CLIPPING": 1e-3,
    "KL_EPS": 5e-4,
    "ETA_IDENTITY": 1e-3,
    "ESTIMATION": 1e-3,
}
SEEDED_CHECKS = ("ETA_IDENTITY", "ESTIMATION")
# the optimiser's fixed bracket floor for delta and alpha
BRACKET_FLOOR = 1e-12

_TRAPZ = "EntropyCurve._integrate reads np.trapz, which numpy 2.x removed"
KNOWN = {
    "truncation.log": Known("AttributeError", _TRAPZ),
    "truncation.tabulated": Known("AttributeError", _TRAPZ),
    "cli.bounds.log": Known(
        "exit 1 (AttributeError)",
        _TRAPZ + "; the CLI does not catch it, so the process ends with exit 1",
    ),
    "cli.verify": Known(
        "exit 2",
        "verify --all runs PHI_LIPSCHITZ at the default resolution 1e-3, "
        "whose grid is too large",
    ),
}


def _curves():
    gammas = 2.0 ** -np.arange(0, 21)
    return {
        "log": EntropyCurve.log_form(2.0),
        "tabulated": EntropyCurve.tabulated(gammas, 0.5 / gammas, 1.0 / gammas),
    }


def _self_concordance(tr, H, n):
    H = traced_curve(tr, H)
    with tr.span("bounds.self_concordance_bound") as sp:
        value, gamma = self_concordance_bound(H, n)
        sp.count("curve_evals", getattr(H, "evals", 0))
    check(math.isfinite(value) and value > 0 and gamma > 0, f"single-scale bound {value}")
    return [value, gamma]


def _truncation(tr, kind, H, n, seed):
    H = traced_curve(tr, H)
    with tr.span(f"bounds.truncation_bound.{kind}") as sp:
        try:
            value, params = truncation_bound(H, n, seed=seed)
        finally:
            sp.count("curve_evals", getattr(H, "evals", 0))
        floor = BRACKET_FLOOR * (1 + 1e-6)
        sp.count("at_bracket_floor", int(params.delta <= floor or params.alpha <= floor))
    check(math.isfinite(value) and value > 0, f"truncation bound {value}")
    return [value, params.gamma, params.delta, params.alpha]


def _power_task(p):
    def run(tr, variant):
        H = EntropyCurve.power(1.0, p)
        return {
            "self_concordance": [_self_concordance(tr, H, n) for n in NS],
            "truncation": [_truncation(tr, "power", H, n, seed=variant) for n in NS],
        }

    return run


def _fit_task(bound, p):
    def run(tr, variant):
        with tr.span("bounds.fit_rate_exponent"):
            slope = fit_rate_exponent(bound, 1.0, p, NS)
        check(math.isfinite(slope), f"fitted slope {slope}")
        return {"slope": slope}

    return run


def _check_task(check_id):
    def run(tr, variant):
        with tr.span(f"verify.run_check.{check_id}"):
            r = run_check(check_id, resolution=RESOLUTIONS[check_id], seed=variant)
        check(r.passed, f"{check_id} worst slack {r.worst_slack}")
        return {"worst_slack": r.worst_slack}

    return run


def _sup_psi(tr, variant):
    with tr.span("verify.sup_psi"):
        sup, _ = sup_psi(core.LAMBDA_STAR, resolution=1e-3)
    check(sup <= 1.0 + 1e-9, f"sup psi = {sup}")
    return {"sup": sup}


def _lambda_scan(tr, variant):
    with tr.span("verify.lambda_threshold_scan"):
        scan = lambda_threshold_scan(1e-3)
    check(abs(scan - core.LAMBDA_STAR) <= 1e-3, f"lambda scan {scan}")
    return {"scan": scan}


def _kernel_inputs(name, variant):
    rng = instance_rng(f"kernel.{name}", variant)
    p = rng.uniform(size=GRID)
    if name in ("log_loss", "eta"):
        return p, rng.integers(0, 2, size=GRID)
    if name == "phi":
        return (20.0 * p - 10.0,)
    if name == "psi":
        return p, core.LAMBDA_STAR, p - rng.uniform(size=GRID)
    return p, rng.uniform(size=GRID)


# kernel -> invariant on its outputs and inputs
_KERNEL_CHECKS = {
    "log_loss": lambda out, *a: np.all(out >= 0),
    "eta": lambda out, *a: np.all(np.abs(out) >= 1),
    "phi": lambda out, z: np.all(out <= z),
    "psi": lambda out, *a: np.all(out <= 1.0 + 1e-9),  # the psi lemma at lambda*
    "kl_bernoulli": lambda out, *a: np.all(out >= -1e-12),
}


def _kernel_task(name):
    fn = getattr(core, name)

    def run(tr, variant):
        args = _kernel_inputs(name, variant)
        with tr.span(f"core.{name}") as sp:
            out = fn(*args)
            sp.count("elems", GRID)
        check(_KERNEL_CHECKS[name](out, *args), f"{name} invariant")
        finite = np.isfinite(out)
        return {"sum": float(out[finite].sum()), "non_finite": int(GRID - finite.sum())}

    return run


def _scalar_log_loss(tr, variant):
    rng = instance_rng("kernel.log_loss.scalar", variant)
    ps = rng.uniform(size=SCALAR_CALLS).tolist()
    ys = rng.integers(0, 2, size=SCALAR_CALLS).tolist()
    log_loss = core.log_loss
    with tr.span("core.log_loss.scalar") as sp:
        total = 0.0
        for p, y in zip(ps, ys):
            total += log_loss(p, y)
        sp.count("scalar_calls", SCALAR_CALLS)
    check(math.isfinite(total) and total > 0, f"scalar log loss sum {total}")
    return {"sum": total}


def _cli_bounds_power(workdir, tr, variant):
    argv = ["bounds", "--entropy", "pow:p=2,C=1", "--n-grid", "2^10..2^20", "--fit",
            "--seed", str(variant)]
    report = run_cli(tr, workdir, argv)
    sweep = [[r["self_concordance"], r["truncation"]] for r in report["sweep"]]
    check(all(math.isfinite(v) and v > 0 for row in sweep for v in row), "CLI bound values")
    return {"sweep": sweep, "fit": report["fit"]}


def _cli_bounds_log(workdir, tr, variant):
    report = run_cli(tr, workdir, ["bounds", "--entropy", "log:d=2", "--n-grid", "2^10..2^12"])
    vals = [v for r in report["sweep"] for v in (r["self_concordance"], r["truncation"])]
    check(all(math.isfinite(v) and v > 0 for v in vals), "CLI bound values")
    return {"sweep": vals}


def _cli_verify(workdir, tr, variant):
    report = run_cli(tr, workdir, ["verify", "--all"])
    check(all(c["pass"] for c in report["checks"]), "CLI verify check failed")
    return {"checks": [c["worst_slack"] for c in report["checks"]]}


def setup(workdir):
    runs = {}
    for p in POWERS:
        runs[f"power.p{p}"] = (VARIANTS, _power_task(p))
    for kind, H in _curves().items():
        for n in NS:
            runs[f"{kind}.n{n}"] = (1, lambda tr, v, H=H, n=n: {
                "self_concordance": _self_concordance(tr, H, n)})
        runs[f"truncation.{kind}"] = (1, lambda tr, v, H=H, kind=kind: {
            "truncation": _truncation(tr, kind, H, TRUNCATION_N, seed=v)})
    for bound in ("self_concordance", "truncation"):
        for p in POWERS:
            runs[f"fit.{bound}.p{p}"] = (1, _fit_task(bound, p))
    for check_id in RESOLUTIONS:
        runs[f"check.{check_id}"] = (
            VARIANTS if check_id in SEEDED_CHECKS else 1, _check_task(check_id))
    runs["sup_psi"] = (1, _sup_psi)
    runs["lambda_scan"] = (1, _lambda_scan)
    for name in _KERNEL_CHECKS:
        runs[f"kernel.{name}"] = (VARIANTS, _kernel_task(name))
    runs["kernel.log_loss.scalar"] = (VARIANTS, _scalar_log_loss)
    runs["cli.bounds.power"] = (VARIANTS, lambda tr, v: _cli_bounds_power(workdir, tr, v))
    runs["cli.bounds.log"] = (1, lambda tr, v: _cli_bounds_log(workdir, tr, v))
    runs["cli.verify"] = (1, lambda tr, v: _cli_verify(workdir, tr, v))
    return {name: Stratum(n, run, KNOWN.get(name)) for name, (n, run) in runs.items()}

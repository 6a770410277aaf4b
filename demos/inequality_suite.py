"""Run every analytic inequality check and the lambda threshold scan.

Each check reports its worst (most negative) slack over a deterministic
grid; a nonnegative worst slack (up to 1e-9) means the inequality held
everywhere we looked.
"""

from logloss_lab.core import ESTIMATION_CONSTANT, LAMBDA_STAR
from logloss_lab.verify import (
    CHECK_IDS,
    lambda_threshold_scan,
    run_check,
    sup_psi,
)


def main():
    print(f"c = {ESTIMATION_CONSTANT:.10f}, lambda* = 1/c = {LAMBDA_STAR:.10f}")
    print()

    # the one-dimensional sweeps afford a finer step
    resolutions = {"SC_EDGE": 1e-6, "SELF_CONCORDANT": 1e-6}
    for cid in CHECK_IDS:
        r = run_check(cid, resolution=resolutions.get(cid, 1e-3))
        status = "ok" if r.passed else "VIOLATED"
        print(f"  {cid:16s} worst slack {r.worst_slack:+.3e} "
              f"at {r.worst_point}  [{status}]")

    print()
    print("=== sup psi as lambda grows ===")
    # lambda* marks where the per-point ratio condition behind the moment
    # bound first fails; the raw sup of psi leaves 1 only somewhat later
    # (around 0.5), so the scan is the sharp quantity to track
    for lam in (0.2, 0.3, LAMBDA_STAR, 0.5, 0.7, 1.0):
        sup, (p, v) = sup_psi(lam, resolution=2e-3)
        mark = "<= 1" if sup <= 1 + 1e-9 else "> 1 "
        print(f"  lambda = {lam:.6f}: sup psi = {sup:.8f} {mark} "
              f"(attained near p = {p:.3f}, v = {v:+.3f})")

    scan = lambda_threshold_scan(1e-3)
    print()
    print(f"ratio scan: largest lambda passing the pointwise condition = "
          f"{scan:.6f} (closed form {LAMBDA_STAR:.6f})")


if __name__ == "__main__":
    main()

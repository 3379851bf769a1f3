#!/usr/bin/env python3
"""Wave comparator study: corrected splitting versus the plain one.

Runs both schemes on identical rough data (theta = 1 displacement, theta = 0
velocity) and prints the fitted orders side by side with the gap.  The
corrected scheme should sit near two, the plain one near one.  Trailing
arguments are forwarded to both runs:

    python3 scripts/wave_order_study.py --nonlinearity sine --seed 3
"""

import sys

from lowreg.study_cli import StudyConfig, parse_taus, run_convergence_study


def run(extra):
    settings = dict(
        equation="wave",
        tau_list=parse_taus("2^-4..2^-10"),
        nonlinearity="quadratic",
        theta=1.0,
        seed=1,
        amplitude=0.5,
        n_modes=1024,
        t_end=1.0,
        cross_val_tol=1e-4,
        spatial_check=False,
    )
    it = iter(extra)
    for flag in it:
        key = flag.lstrip("-").replace("-", "_")
        if key == "taus":
            settings["tau_list"] = parse_taus(next(it))
        elif key == "modes":
            settings["n_modes"] = int(next(it))
        elif key in ("seed", "ref_factor"):
            settings[key] = int(next(it))
        elif key == "nonlinearity":
            settings[key] = next(it)
        else:
            settings[key] = float(next(it))

    reports = {}
    for scheme in ("corrected_lie", "lie"):
        cfg = StudyConfig(scheme=scheme, **settings)
        reports[scheme] = run_convergence_study(cfg)
        rep = reports[scheme]
        if rep.fitted_order is None:  # fewer than 4 usable errors
            print(f"{scheme}: order n/a")
        else:
            print(f"{scheme}: order {rep.fitted_order:.3f} (r2 {rep.r_squared:.4f})")
        for tau, err in zip(rep.taus, rep.errors):
            print(f"  tau {tau:.6e}  error {err:.6e}")
    corrected, plain = (reports[s].fitted_order for s in ("corrected_lie", "lie"))
    if corrected is not None and plain is not None:
        print(f"order gap {corrected - plain:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))

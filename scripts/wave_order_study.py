#!/usr/bin/env python3
"""Wave comparator study: corrected splitting versus the plain one.

Runs both schemes on identical rough data (theta = 1 displacement, theta = 0
velocity) and prints the fitted orders side by side with the gap.  The
corrected scheme should sit near two, the plain one near one.  The settings
are those of ``lowreg wave-converge --cross-val-tol 1e-4 --no-spatial-check``,
and any ``wave-converge`` flag given here overrides them for both runs
(``--scheme`` excepted; ``--out`` stems get a ``-<scheme>`` suffix):

    python3 scripts/wave_order_study.py --nonlinearity sine --seed 3

Bad input ends with the CLI's exit codes and one line on stderr.
"""

import dataclasses
import sys

from lowreg.study_cli import (
    _exit_code,
    _input_errors,
    _report_files,
    _require_out_dir,
    _study_config_from_args,
    build_parser,
    run_convergence_study,
)


def run(argv):
    """Run both schemes and print their orders; returns the reports by scheme."""
    args = build_parser().parse_args(
        ["wave-converge", "--cross-val-tol", "1e-4", "--no-spatial-check", *argv]
    )
    with _input_errors():
        config = _study_config_from_args(args, "wave")
        outs = {scheme: config.output_path and f"{config.output_path}-{scheme}"
                for scheme in ("corrected_lie", "lie")}
        _require_out_dir(*(path for out in outs.values() for path in _report_files(out)))
    reports = {}
    for scheme, out in outs.items():
        rep = reports[scheme] = run_convergence_study(
            dataclasses.replace(config, scheme=scheme, output_path=out)
        )
        if rep.fitted_order is None:  # fewer than 4 usable errors
            print(f"{scheme}: order n/a")
        else:
            print(f"{scheme}: order {rep.fitted_order:.3f} (r2 {rep.r_squared:.4f})")
        for tau, err in zip(rep.taus, rep.errors):
            print(f"  tau {tau:.6e}  error {err:.6e}")
    corrected, plain = (reports[s].fitted_order for s in ("corrected_lie", "lie"))
    if corrected is not None and plain is not None:
        print(f"order gap {corrected - plain:.3f}")
    return reports


if __name__ == "__main__":
    sys.exit(_exit_code(lambda: run(sys.argv[1:])))

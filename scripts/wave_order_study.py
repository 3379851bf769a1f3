#!/usr/bin/env python3
"""Wave comparator study: corrected splitting versus the plain one.

Runs the ``wave-converge`` subcommand on both schemes with one shared
reference pass, on the rough data of the acceptance suite (theta = 1
displacement, theta = 0 velocity).  It prints each scheme's report and then
the order gap, corrected less plain; the corrected scheme should sit near
two, the plain one near one.  Any trailing arguments are forwarded, so
defaults can be overridden or extended; ``--out`` stems get a ``-<scheme>``
suffix:

    python3 scripts/wave_order_study.py --nonlinearity sine --seed 3
"""

import sys

from lowreg.study_cli import main

DEFAULTS = [
    "wave-converge",
    "--scheme", "corrected_lie,lie",
    "--cross-val-tol", "1e-4",
    "--no-spatial-check",
]

if __name__ == "__main__":
    sys.exit(main(DEFAULTS + sys.argv[1:]))

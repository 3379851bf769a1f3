"""Report-bytes regression: pins the SHA-256 of the CSV and JSON reports.

The study reports are byte-deterministic, so a change that leaves the
numerics alone must leave these hashes alone too.  A change that does move
report bytes (a different transform, a reordered sum) must update the hashes
here and say where and why the bytes moved.
"""

import hashlib

import pytest

from lowreg import StudyConfig, emit_report, run_convergence_study

CONFIGS = {
    "nls": dict(
        equation="nls",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        n_modes=32,
        seed=5,
        ref_factor=16,
        cross_val_tol=1.0,
        spatial_check=True,
    ),
    "wave": dict(
        equation="wave",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        n_modes=64,
        seed=4,
        ref_factor=16,
        cross_val_tol=0.1,
        spatial_check=True,
    ),
}

EXPECTED = {
    ("nls", "csv"): "f3961f374d293431ccb2059710272791fe9899938019c1b02fe72045198a801b",
    ("nls", "json"): "9fd31dac522a9f08a812d2906f3a82fd727ead1a560dc3132fb5d5ef363e2bce",
    ("wave", "csv"): "223f30cdf194043bc4f4af62538a9e6ed5d5b32be206b2e756f376257de85081",
    ("wave", "json"): "6e7ded8522c0e94fc00774cb3f8bc5a9d60eb2f8e5b010dd36ecd0af965a5f7c",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_are_pinned(name, tmp_path):
    report = run_convergence_study(StudyConfig(output_path=None, **CONFIGS[name]))
    for fmt in ("csv", "json"):
        path = emit_report(report, fmt, str(tmp_path / f"{name}.{fmt}"))
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == EXPECTED[name, fmt], f"{name} {fmt} report bytes changed"

"""Report-bytes regression: pins the SHA-256 of the CSV and JSON reports.

The study reports are byte-deterministic, so a change that leaves the
numerics alone must leave these hashes alone too.  A change that does move
report bytes (a different transform, a reordered sum) must update the hashes
here and say where and why the bytes moved.
"""

import hashlib

import pytest

from lowreg import StudyConfig, emit_report, run_convergence_study, study_cli

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
    # tau_max / 256 = tau_ref = 2^-10: the spatial check reuses the reference.
    "nls_reuse": dict(
        equation="nls",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6),
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
    ("nls_reuse", "csv"): "35556eb0b65ddd09569b14c04b8d3f85aa445699f4b2abb7a91644eb6e0c2a18",
    ("nls_reuse", "json"): "8b5057d88948d11ba3d28710cbe4d3c8527efaa6799dc1df48a40e8805ac67f3",
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


def test_spatial_check_reuses_the_reference_run(monkeypatch):
    run_nls, runs = study_cli.run_nls, []

    def counting_run_nls(u0, tau, n_steps, *args, **kwargs):
        runs.append((u0.grid.n_modes, tau))
        return run_nls(u0, tau, n_steps, *args, **kwargs)

    monkeypatch.setattr(study_cli, "run_nls", counting_run_nls)
    run_convergence_study(StudyConfig(output_path=None, **CONFIGS["nls_reuse"]))
    assert runs.count((32, 2.0**-10)) == 1  # the reference; no N-grid mini-reference
    assert runs.count((64, 2.0**-10)) == 1  # the 2N mini-reference still runs

"""Batch driver: study configuration, convergence runs, rate fits, reports, CLI.

A convergence study builds seeded rough data, computes a cross-validated
fine-step reference, sweeps the configured step sizes, measures terminal
errors in the study norm, fits the order by least squares on the log-log
cloud, and emits deterministic CSV/JSON reports.

Exit codes of the command-line driver: 0 success, 2 reference validation
failure, 3 blow-up, 4 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
import tempfile
import time
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    nls_local_error_oracle,
    nullform_norm,
    strichartz_l4,
    trajectory_of,
    wave_local_error_oracle,
)
from .nls_integrators import (
    NlsProblem,
    NlsStepperKind,
    free_flow,
    nls_reference_solve,
    run_nls,
)
from .torus_spectral import (
    V_SEED_OFFSET,  # re-exported: scripts and tests draw wave data with it
    BlowUpError,
    RoughDataSpec,
    TorusGrid,
    difference,
    random_rough_field,
    regrid,
    rough_wave_state,
    sobolev_norm,
    steps_for,
)
from .wave_integrators import (
    Nonlinearity,
    WaveProblem,
    run_wave,
    wave_flow,
    wave_reference_solve,
    wave_state_norm,
)

FIT_FLOOR = 1e-11
FIT_CEILING = 1.0

_NLS_SCHEMES = ("lri", "lie")
_WAVE_SCHEMES = ("corrected_lie", "lie")


class ConfigError(ValueError):
    """Invalid study configuration or command line."""


class ValidationError(RuntimeError):
    """Two-scheme reference cross-validation exceeded its tolerance."""

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record or {}


def _is_pow2(n: int) -> bool:
    return n >= 8 and n & (n - 1) == 0


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study needs; validated on construction."""

    equation: str
    tau_list: tuple[float, ...]
    scheme: str = ""
    mu: int = 1
    nonlinearity: str = "quadratic"
    theta: float = 1.0
    delta: float = 0.01
    seed: int = 1
    amplitude: float = 0.5
    n_modes: int = 1024
    t_end: float = 1.0
    error_norm: str = ""
    norm_r: float = 0.75
    ref_factor: int = 64
    cross_val_tol: float = 1e-6
    output_path: str | None = None
    max_over_steps: bool = False
    spatial_check: bool = True

    def __post_init__(self) -> None:
        if self.equation not in ("nls", "wave"):
            raise ConfigError(f"equation must be 'nls' or 'wave', got {self.equation!r}")
        if not self.scheme:
            object.__setattr__(
                self, "scheme", "lri" if self.equation == "nls" else "corrected_lie"
            )
        allowed = _NLS_SCHEMES if self.equation == "nls" else _WAVE_SCHEMES
        if self.scheme not in allowed:
            raise ConfigError(f"scheme for {self.equation} must be one of {allowed}")
        if not self.error_norm:
            object.__setattr__(
                self, "error_norm", "L2" if self.equation == "nls" else "H1xL2"
            )
        norms = ("L2", "Hr") if self.equation == "nls" else ("H1xL2",)
        if self.error_norm not in norms:
            raise ConfigError(
                f"error_norm for {self.equation} must be one of {norms}, "
                f"got {self.error_norm!r}"
            )
        if self.mu not in (-1, 1):
            raise ConfigError("mu must be +1 or -1")
        if self.nonlinearity and self.equation == "wave":
            Nonlinearity.preset(self.nonlinearity)
        if self.theta < 0 or self.delta <= 0 or self.amplitude <= 0:
            raise ConfigError("theta >= 0, delta > 0 and amplitude > 0 are required")
        if not _is_pow2(self.n_modes):
            raise ConfigError("n_modes must be a power of two >= 8")
        if self.t_end <= 0:
            raise ConfigError("t_end must be > 0")
        taus = tuple(float(t) for t in self.tau_list)
        if not taus:
            raise ConfigError("tau_list must not be empty")
        if any(t <= 0 for t in taus):
            raise ConfigError("all step sizes must be > 0")
        if any(a <= b for a, b in zip(taus, taus[1:])):
            raise ConfigError("tau_list must be strictly decreasing")
        # The sweep, the reference and the max-over-steps strides need these.
        try:
            for t in taus:
                steps_for(self.t_end, t)
                if self.max_over_steps:
                    steps_for(t, taus[-1])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "tau_list", taus)
        if self.ref_factor < 16:
            raise ConfigError("ref_factor must be >= 16")
        if self.cross_val_tol <= 0:
            raise ConfigError("cross_val_tol must be > 0")

    @property
    def norm_label(self) -> str:
        if self.error_norm == "Hr":
            return f"H{self.norm_r:g}"
        return self.error_norm


@dataclasses.dataclass
class ConvergenceReport:
    """Per-step-size errors plus the fitted order and full provenance."""

    equation: str
    scheme: str
    seed: int
    norm_label: str
    taus: list[float]
    errors: list[float]
    fitted_order: float | None
    r_squared: float | None
    validation: dict
    config: dict
    version: str = __version__
    spatially_resolved: bool | None = None
    spatial_change: float | None = None
    wall_time: float | None = dataclasses.field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "equation": self.equation,
            "scheme": self.scheme,
            "seed": self.seed,
            "norm": self.norm_label,
            "taus": list(self.taus),
            "errors": list(self.errors),
            "fitted_order": self.fitted_order,
            "r_squared": self.r_squared,
            "validation": self.validation,
            "spatially_resolved": self.spatially_resolved,
            "spatial_change": self.spatial_change,
            "config": self.config,
        }

    @staticmethod
    def from_dict(data: dict) -> "ConvergenceReport":
        return ConvergenceReport(
            equation=data["equation"],
            scheme=data["scheme"],
            seed=data["seed"],
            norm_label=data["norm"],
            taus=list(data["taus"]),
            errors=list(data["errors"]),
            fitted_order=data["fitted_order"],
            r_squared=data["r_squared"],
            validation=data["validation"],
            config=data["config"],
            version=data["version"],
            spatially_resolved=data["spatially_resolved"],
            spatial_change=data["spatial_change"],
        )


def fit_rate(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(error) against log(tau).

    Errors outside the window [1e-11, 1] are dropped before fitting, which
    strips the roundoff floor and the pre-asymptotic ceiling.
    """
    usable = [(t, e) for t, e in pairs if FIT_FLOOR <= e <= FIT_CEILING]
    if len(usable) < 2:
        raise ValueError("fewer than 2 usable (tau, error) pairs after filtering")
    x = np.log([t for t, _ in usable])
    y = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-28 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(r_squared)


def _count_usable(pairs) -> int:
    return sum(1 for _, e in pairs if FIT_FLOOR <= e <= FIT_CEILING)


def smooth_data_spec(seed: int, delta: float = 0.01, amplitude: float = 1.0,
                     real_valued: bool = False) -> RoughDataSpec:
    """Spec whose coefficient magnitudes decay like (1+|k|)^-6 exactly."""
    return RoughDataSpec(
        theta=5.5 - delta, seed=seed, delta=delta,
        real_valued=real_valued, amplitude=amplitude,
    )


def _initial_state(config: StudyConfig, grid: TorusGrid):
    spec = RoughDataSpec(
        theta=config.theta, seed=config.seed, delta=config.delta,
        real_valued=config.equation == "wave", amplitude=config.amplitude,
    )
    if config.equation == "nls":
        return random_rough_field(spec, grid)
    return rough_wave_state(spec, grid)


def _norm_fn(equation: str, r: float = 0.0) -> Callable:
    if equation == "nls":
        return lambda f: sobolev_norm(f, r)
    return wave_state_norm


def _run_scheme(phase, initial, equation, scheme, nl, mu, tau, n_steps,
                record_every=None):
    """Run one scheme; a blow-up names the study phase and the scheme.

    ``strang`` is the ``lie`` run conjugated by half a linear flow,
    F(-tau/2) (F(tau) K)^n F(tau/2): second-order Strang splitting with no
    stepper of its own.  Its snapshots after the first get the -tau/2 flow
    too; the first is ``initial`` itself.
    """
    strang = scheme == "strang"
    flow = free_flow if equation == "nls" else wave_flow
    start = flow(initial, 0.5 * tau) if strang else initial
    kind = "lie" if strang else scheme
    try:
        if equation == "nls":
            states = run_nls(
                start, tau, n_steps, mu, NlsStepperKind(kind), record_every=record_every
            )
        else:
            states = run_wave(
                start, tau, n_steps, nl,
                corrected=(kind != "lie"), record_every=record_every,
            )
    except BlowUpError as exc:
        raise BlowUpError(f"{phase} run ({scheme}): {exc}") from exc
    if strang:
        first = [initial] if record_every else []
        states = first + [flow(s, -0.5 * tau) for s in states[len(first):]]
    return states


def cross_validate_reference(problem, tau_ref: float, *, norm_fn=None, tol: float | None = None) -> dict:
    """Run the designated reference scheme at tau_ref and check it against
    the Strang comparator (see ``_reference_run``).

    Returns a validation record with the terminal-state distance; raises
    ``ValidationError`` if the distance exceeds ``tol`` (an absolute
    tolerance; the caller usually supplies rel_tol * initial_norm).
    """
    if tau_ref <= 0:
        raise ConfigError("tau_ref must be > 0")
    if isinstance(problem, NlsProblem):
        equation, nl, mu, initial = "nls", None, problem.mu, problem.u0
    else:
        equation, nl, mu, initial = "wave", problem.nonlinearity, 1, problem.initial
    norm_fn = norm_fn or _norm_fn(equation)
    if tol is None:
        tol = 1e-6 * norm_fn(initial)
    return _reference_run(
        equation, initial, nl, mu, problem.t_end, tau_ref, norm_fn, tol
    )[1]


def _reference_run(equation, initial, nl, mu, t_end, tau_ref, norm_fn, tol, record_every=None):
    """Reference run at tau_ref, cross-validated against Strang splitting.

    The comparator is second order and shares neither the phi1 filter nor
    the phi2 correction with the reference, so it runs at factor * tau_ref
    with factor = gcd(n_steps, 4): a quarter of the reference's steps
    whenever 4 divides them.  Returns the reference snapshots and the
    validation record; raises ``ValidationError`` if the terminal distance
    exceeds the absolute ``tol``.
    """
    canonical = (_NLS_SCHEMES if equation == "nls" else _WAVE_SCHEMES)[0]
    n_steps = steps_for(t_end, tau_ref)
    ref_states = _run_scheme(
        "reference", initial, equation, canonical, nl, mu, tau_ref, n_steps,
        record_every=record_every,
    )
    factor = math.gcd(n_steps, 4)
    comp = _run_scheme(
        "comparator", initial, equation, "strang", nl, mu, factor * tau_ref,
        n_steps // factor,
    )[-1]
    distance = norm_fn(difference(ref_states[-1], comp))
    record = {
        "tau_ref": tau_ref,
        "reference_scheme": canonical,
        "comparator_scheme": "strang",
        "comparator_tau": factor * tau_ref,
        "distance": distance,
        "initial_norm": norm_fn(initial),
        "tolerance": tol,
        "passed": bool(distance <= tol),
    }
    if distance > tol:
        raise ValidationError(
            f"reference cross-validation failed: two-scheme distance "
            f"{distance:.3e} exceeds tolerance {tol:.3e} at tau_ref={tau_ref:g}",
            record,
        )
    return ref_states, record


def _sweep_errors(config: StudyConfig, initial, nl, ref_states, norm_fn):
    errors = []
    for tau in config.tau_list:
        n_steps = steps_for(config.t_end, tau)
        states = _run_scheme(
            f"sweep tau={tau:g}", initial, config.equation, config.scheme, nl,
            config.mu, tau, n_steps, record_every=1 if config.max_over_steps else None,
        )
        if config.max_over_steps:
            stride = steps_for(tau, config.tau_list[-1])
            err = 0.0
            for j in range(1, n_steps + 1):
                err = max(err, norm_fn(difference(states[j], ref_states[j * stride])))
        else:
            err = norm_fn(difference(states[-1], ref_states[-1]))
        errors.append(float(err))
    return errors


def _spatial_check(config: StudyConfig, initial, nl, norm_fn):
    """Error at the largest step, recomputed at N and 2N from the same datum.

    Both errors use a dedicated mini-reference at tau_max/max(ref_factor, 256)
    so the comparison isolates the spatial layer.  Returns (resolved, change).
    """
    tau_c = config.tau_list[0]
    factor = max(config.ref_factor, 256)
    tau_mini = tau_c / factor
    canonical = _NLS_SCHEMES[0] if config.equation == "nls" else _WAVE_SCHEMES[0]

    def error_on(state0):
        n_steps = steps_for(config.t_end, tau_c)
        coarse = _run_scheme(
            "spatial check", state0, config.equation, config.scheme, nl,
            config.mu, tau_c, n_steps,
        )[-1]
        fine = _run_scheme(
            "spatial check", state0, config.equation, canonical, nl, config.mu,
            tau_mini, n_steps * factor,
        )[-1]
        return norm_fn(difference(coarse, fine))

    e_base = error_on(initial)
    e_fine = error_on(regrid(initial, TorusGrid(2 * config.n_modes)))
    change = abs(e_fine - e_base) / max(e_base, 1e-300)
    return bool(change < 0.01), float(change)


def run_convergence_study(config: StudyConfig) -> ConvergenceReport:
    """Execute one full study; see the module docstring for the pipeline."""
    started = time.perf_counter()
    grid = TorusGrid(config.n_modes)
    initial = _initial_state(config, grid)
    nl = Nonlinearity.preset(config.nonlinearity) if config.equation == "wave" else None
    norm_fn = _norm_fn(config.equation, config.norm_r if config.error_norm == "Hr" else 0.0)
    tau_ref = config.tau_list[-1] / config.ref_factor

    ref_states, validation = _reference_run(
        config.equation, initial, nl, config.mu, config.t_end, tau_ref, norm_fn,
        config.cross_val_tol * norm_fn(initial),
        config.ref_factor if config.max_over_steps else None,
    )
    errors = _sweep_errors(config, initial, nl, ref_states, norm_fn)
    distance = validation["distance"]
    validation["certification_margin"] = min(errors) / distance if distance else None

    pairs = list(zip(config.tau_list, errors))
    fitted_order = r_squared = None
    if _count_usable(pairs) >= 4:
        fitted_order, r_squared = fit_rate(pairs)

    resolved = change = None
    if config.spatial_check:
        resolved, change = _spatial_check(config, initial, nl, norm_fn)

    config_echo = dataclasses.asdict(config)
    config_echo["tau_list"] = list(config.tau_list)
    report = ConvergenceReport(
        equation=config.equation,
        scheme=config.scheme,
        seed=config.seed,
        norm_label=config.norm_label,
        taus=list(config.tau_list),
        errors=errors,
        fitted_order=fitted_order,
        r_squared=r_squared,
        validation=validation,
        config=config_echo,
        spatially_resolved=resolved,
        spatial_change=change,
        wall_time=time.perf_counter() - started,
    )
    if config.output_path:
        emit_report(report, "csv", config.output_path + ".csv")
        emit_report(report, "json", config.output_path + ".json")
    return report


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(report: ConvergenceReport, format: str, path: str) -> str:
    """Write one report file atomically; bytes depend only on the report."""
    if not report.errors:
        raise ValueError("reports are never empty")
    if format == "csv":
        lines = ["tau,error,norm,scheme,seed"]
        for tau, err in zip(report.taus, report.errors):
            lines.append(
                f"{tau!r},{err!r},{report.norm_label},{report.scheme},{report.seed}"
            )
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    _atomic_write(path, payload)
    return path


def report_from_json(path: str) -> ConvergenceReport:
    with open(path, encoding="ascii") as fh:
        return ConvergenceReport.from_dict(json.load(fh))


# Command-line interface ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 4
        raise ConfigError(message)


@contextlib.contextmanager
def _input_errors():
    """Report a TypeError or ValueError raised while inputs are built from the
    command line as the ConfigError it is (exit 4)."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _require_out_dir(path: str | None) -> None:
    """Refuse an output path whose directory is missing before any solve runs."""
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"output directory of {path} does not exist")


def parse_step(text: str) -> float:
    """Parse one step size, '2^-6' or a float; it must be finite and > 0."""
    text = text.strip()
    m = re.fullmatch(r"2\^(-?\d+)", text)
    try:
        tau = 2.0 ** int(m.group(1)) if m else float(text)
    except OverflowError:
        raise ValueError(f"step size {text} overflows a float") from None
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"step size {text} is not finite and > 0")
    return tau


def parse_taus(text: str) -> tuple[float, ...]:
    """Parse '2^-4..2^-10', a single '2^-6', or a comma list of step sizes."""
    text = text.strip()
    m = re.fullmatch(r"2\^(-?\d+)\.\.2\^(-?\d+)", text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        # Check both endpoints before the range is built, so that an exponent
        # that overflows or underflows never expands into a huge span.
        parse_step(f"2^{a}")
        parse_step(f"2^{b}")
        step = -1 if b < a else 1
        return tuple(2.0**e for e in range(a, b + step, step))
    return tuple(parse_step(token) for token in text.split(","))


def parse_norm(text: str) -> tuple[str, float | None]:
    if text.startswith("Hr:"):
        return "Hr", float(text.partition(":")[2])
    return text, None


_CONFIG_KEYS = {
    "scheme": str,
    "mu": int,
    "nonlinearity": str,
    "theta": float,
    "delta": float,
    "seed": int,
    "amplitude": float,
    "modes": int,
    "t_end": float,
    "taus": parse_taus,
    "norm": str,
    "ref_factor": int,
    "cross_val_tol": float,
    "out": str,
    "max_over_steps": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "spatial_check": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def read_config_file(path: str) -> dict:
    """Plain-text key/value study settings; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except (ValueError, AttributeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def _add_study_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="plain-text key/value file; flags override it")
    p.add_argument("--scheme", help="integrator under study")
    p.add_argument("--theta", type=float, help="data regularity exponent")
    p.add_argument("--delta", type=float, help="extra coefficient decay margin")
    p.add_argument("--seed", type=int, help="64-bit data seed")
    p.add_argument("--amplitude", type=float, help="data amplitude scale")
    p.add_argument("--modes", type=int, help="number of Fourier modes")
    p.add_argument("--t-end", type=float, help="final time")
    p.add_argument("--taus", help="step sizes, e.g. 2^-4..2^-10 or 0.1,0.05")
    p.add_argument("--norm", help="error norm: L2, H1xL2, or Hr:<r>")
    p.add_argument("--ref-factor", type=int, help="tau_min / tau_ref ratio")
    p.add_argument("--cross-val-tol", type=float,
                   help="relative two-scheme agreement tolerance")
    p.add_argument("--out", help="output path stem; writes <out>.csv and <out>.json")
    p.add_argument("--max-over-steps", action="store_true", default=None,
                   help="measure the maximum error over all steps, not just the end")
    p.add_argument("--no-spatial-check", action="store_true", default=None,
                   help="skip the 2N spatial-resolution certification")


def _study_config_from_args(args, equation: str) -> StudyConfig:
    file_values = read_config_file(args.config) if args.config else {}

    def pick(cli_value, key, fallback):
        if cli_value is not None:
            return cli_value
        if key in file_values:
            return file_values[key]
        return fallback

    norm_text = pick(args.norm, "norm", None)
    error_norm, norm_r = ("", None) if norm_text is None else parse_norm(norm_text)
    taus = args.taus
    if taus is not None:
        taus = parse_taus(taus)
    taus = pick(taus, "taus", parse_taus("2^-4..2^-10"))
    kwargs = dict(
        equation=equation,
        tau_list=taus,
        scheme=pick(args.scheme, "scheme", ""),
        theta=pick(args.theta, "theta", 1.0),
        delta=pick(args.delta, "delta", 0.01),
        seed=pick(args.seed, "seed", 1),
        amplitude=pick(args.amplitude, "amplitude", 0.5),
        n_modes=pick(args.modes, "modes", 1024),
        t_end=pick(getattr(args, "t_end"), "t_end", 1.0),
        error_norm=error_norm,
        ref_factor=pick(args.ref_factor, "ref_factor", 64),
        cross_val_tol=pick(args.cross_val_tol, "cross_val_tol", 1e-6),
        output_path=pick(args.out, "out", None),
        max_over_steps=bool(pick(args.max_over_steps, "max_over_steps", False)),
        spatial_check=(
            False
            if args.no_spatial_check
            else bool(file_values.get("spatial_check", True))
        ),
    )
    if norm_r is not None:
        kwargs["norm_r"] = norm_r
    if equation == "nls":
        kwargs["mu"] = pick(getattr(args, "mu", None), "mu", 1)
    else:
        kwargs["nonlinearity"] = pick(
            getattr(args, "nonlinearity", None), "nonlinearity", "quadratic"
        )
    return StudyConfig(**kwargs)


def _print_report(report: ConvergenceReport) -> None:
    for tau, err in zip(report.taus, report.errors):
        print(f"tau {tau!r} error {err!r}")
    print(f"fitted_order {report.fitted_order}")
    print(f"r_squared {report.r_squared}")
    print(f"cross_validation_distance {report.validation['distance']!r}")
    print(f"certification_margin {report.validation['certification_margin']!r}")
    if report.spatially_resolved is not None:
        label = "yes" if report.spatially_resolved else "NO (spatially under-resolved)"
        print(f"spatially_resolved {label} (change {report.spatial_change:.3e})")
    if report.config.get("output_path"):
        print(f"wrote {report.config['output_path']}.csv")
        print(f"wrote {report.config['output_path']}.json")


def _cmd_converge(args, equation: str) -> int:
    with _input_errors():
        config = _study_config_from_args(args, equation)
        _require_out_dir(config.output_path)
    report = run_convergence_study(config)
    _print_report(report)
    return 0


def _cmd_diagnose(args, functional: str) -> int:
    """Strichartz or null-form functional on a reference trajectory."""
    seed, modes, t_end, samples = args.seed, args.modes, args.t_end, args.samples
    tau_ref = args.tau_ref if args.tau_ref is not None else t_end / 4096
    results = {"functional": functional, "seed": seed, "modes": modes,
               "t_end": t_end, "samples": samples}
    with _input_errors():
        _require_out_dir(args.out)
        if t_end <= 0:
            raise ConfigError("--t-end must be > 0")
        if samples < 2:
            raise ConfigError("--samples must be >= 2")
        steps_for(t_end / (2 * samples if args.refine else samples), tau_ref)
        if functional == "strichartz_l4":
            spec = RoughDataSpec(theta=args.theta, seed=seed, real_valued=False,
                                 amplitude=args.amplitude)
            datum = random_rough_field(spec, TorusGrid(modes))

            def value_on(state, n_out, step):
                states = nls_reference_solve(NlsProblem(args.mu, state, t_end), n_out, step)
                return strichartz_l4(trajectory_of(states, 0.0, t_end, scheme="lri",
                                                   tau_ref=step, seed=seed))
        else:
            nl = Nonlinearity.preset(args.nonlinearity or "quadratic")
            results["nonlinearity"] = nl.tag
            spec = RoughDataSpec(theta=args.theta, seed=seed, amplitude=args.amplitude)
            datum = rough_wave_state(spec, TorusGrid(modes))

            def value_on(state, n_out, step):
                states = wave_reference_solve(WaveProblem(nl, state, t_end), n_out, step)
                return nullform_norm(trajectory_of(states, 0.0, t_end,
                                                   scheme="corrected_lie",
                                                   tau_ref=step, seed=seed))

    value = value_on(datum, samples, tau_ref)
    print(f"{functional} {value!r}")
    results["value"] = value
    if args.refine:
        refined = value_on(regrid(datum, TorusGrid(2 * modes)), 2 * samples, tau_ref)
        change = abs(refined - value) / max(value, 1e-300)
        print(f"{functional}_refined {refined!r}")
        print(f"relative_change {change!r}")
        results.update({"refined_value": refined, "relative_change": change})
    if args.out:
        _atomic_write(args.out, json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_local_error_check(args) -> int:
    equation, tau, quad_order = args.equation, args.tau, args.quad_order
    with _input_errors():
        _require_out_dir(args.out)
        if quad_order < 2:
            raise ConfigError("--quad-order must be >= 2")
        grid = TorusGrid(args.modes)
        if equation == "nls":
            datum = random_rough_field(
                smooth_data_spec(args.seed, amplitude=args.amplitude), grid
            )
        else:
            nl = Nonlinearity.preset(args.nonlinearity or "quadratic")
            spec = smooth_data_spec(args.seed, amplitude=args.amplitude, real_valued=True)
            datum = rough_wave_state(spec, grid, v_theta=spec.theta)
    n_out = 4 * quad_order
    # The micro step must leave the reference far more accurate than either
    # quadrature so the refined discrepancy is not floored by reference error.
    micro_per = 256 if equation == "nls" else 16
    tau_micro = tau / (micro_per * n_out)

    if equation == "nls":
        # Second-order Strang: the first-order LRI error floored the discrepancy.
        states = _run_scheme("local-error reference", datum, "nls", "strang", None, 1,
                             tau_micro, n_out * micro_per, record_every=micro_per)
        oracle = functools.partial(nls_local_error_oracle, tau=tau, mu=1)
    else:
        states = wave_reference_solve(WaveProblem(nl, datum, tau), n_out, tau_micro)
        oracle = functools.partial(wave_local_error_oracle, tau=tau, nl=nl)
    traj = trajectory_of(states, 0.0, tau)
    pairs = [oracle(traj, quad_order=q) for q in (quad_order, 4 * quad_order)]
    norm_fn = _norm_fn(equation)
    scale = norm_fn(pairs[0][0])
    discrepancies = [
        norm_fn(difference(direct, integral)) / max(scale, 1e-300)
        for direct, integral in pairs
    ]

    improvement = discrepancies[0] / max(discrepancies[1], 1e-300)
    print(f"relative_discrepancy {discrepancies[0]!r}")
    print(f"relative_discrepancy_refined {discrepancies[1]!r}")
    print(f"improvement_factor {improvement!r}")
    if args.out:
        _atomic_write(args.out, json.dumps({
            "check": "local_error", "equation": equation, "tau": tau,
            "quad_order": quad_order,
            "relative_discrepancy": discrepancies[0],
            "relative_discrepancy_refined": discrepancies[1],
            "improvement_factor": improvement,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowreg",
        description="Convergence studies and diagnostics for two low-regularity "
                    "time integrators on the periodic line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nls-converge", parents=[], help="Schrödinger convergence study")
    _add_study_flags(p)
    p.add_argument("--mu", type=int, choices=(-1, 1), help="nonlinearity sign")
    p.set_defaults(handler=lambda a: _cmd_converge(a, "nls"))

    p = sub.add_parser("wave-converge", help="wave convergence study")
    _add_study_flags(p)
    p.add_argument("--nonlinearity", help="preset: quadratic, cubic_minus, sine")
    p.set_defaults(handler=lambda a: _cmd_converge(a, "wave"))

    def add_diag_flags(p):
        p.add_argument("--theta", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--amplitude", type=float, default=0.5)
        p.add_argument("--modes", type=int, default=512)
        p.add_argument("--t-end", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=128, help="trajectory snapshot count")
        p.add_argument("--tau-ref", type=parse_step, help="reference step size")
        p.add_argument("--refine", action="store_true",
                       help="also report the value after doubling N and samples")
        p.add_argument("--out", help="write a JSON record here")

    p = sub.add_parser("diagnose-strichartz",
                       help="space-time L4 functional on a Schrödinger trajectory")
    add_diag_flags(p)
    p.add_argument("--mu", type=int, choices=(-1, 1), default=1)
    p.set_defaults(handler=lambda a: _cmd_diagnose(a, "strichartz_l4"))

    p = sub.add_parser("diagnose-nullform",
                       help="space-time L2 null-form functional on a wave trajectory")
    add_diag_flags(p)
    p.add_argument("--nonlinearity")
    p.set_defaults(handler=lambda a: _cmd_diagnose(a, "nullform_norm"))

    p = sub.add_parser("local-error-check",
                       help="compare a one-step error against its integral representation")
    p.add_argument("--equation", choices=("nls", "wave"), required=True)
    p.add_argument("--modes", type=int, default=128)
    p.add_argument("--tau", type=parse_step, default=2.0**-6)
    p.add_argument("--quad-order", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--nonlinearity")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_local_error_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

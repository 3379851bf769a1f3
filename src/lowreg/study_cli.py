"""Batch driver: study configuration, convergence runs, rate fits, reports, CLI.

A convergence study builds seeded rough data, computes a cross-validated
fine-step reference, sweeps the configured step sizes, measures terminal
or max-over-steps errors in the study norm, fits the order by least squares
on the log-log cloud, and emits deterministic CSV/JSON reports.  Studies
of several schemes on one datum share one reference pass.

Exit codes of the command-line driver: 0 success, 2 reference validation
failure, 3 blow-up, 4 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    nls_local_error_oracle,
    null_form_field,
    trajectory_of,
    wave_local_error_oracle,
)
from .nls_integrators import (
    NlsStepperKind,
    _nls_snapshots,
    free_flow,
)
from .torus_spectral import (
    V_SEED_OFFSET,  # re-exported: the benchmark and tests draw wave data with it
    BlowUpError,
    RoughDataSpec,
    TorusGrid,
    WaveState,
    _solve,
    derivative,
    difference,
    random_rough_field,
    regrid,
    rough_wave_state,
    sobolev_norm,
    spacetime_norm,
    steps_for,
)
from .wave_integrators import (
    Nonlinearity,
    _wave_snapshots,
    wave_flow,
    wave_state_norm,
)

FIT_FLOOR = 1e-11
FIT_CEILING = 1.0

# Per equation: its schemes, the first of which computes the references; its
# error norms, the first the default; and the config key of the other
# equation, which a shared config file may set and the study ignores.
_EQUATIONS = {
    "nls": (("lri", "lie"), ("L2", "Hr"), "nonlinearity"),
    "wave": (("corrected_lie", "lie"), ("H1xL2",), "mu"),
}


class ConfigError(ValueError):
    """Invalid study configuration or command line."""


class ValidationError(RuntimeError):
    """Two-scheme reference cross-validation exceeded its tolerance."""

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record or {}


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study needs; validated on construction."""

    equation: str
    tau_list: tuple[float, ...]
    scheme: str | None = None
    mu: int = 1
    nonlinearity: str = "quadratic"
    theta: float = 1.0
    delta: float = 0.01
    seed: int = 1
    amplitude: float = 0.5
    n_modes: int = 1024
    t_end: float = 1.0
    error_norm: str | None = None
    norm_r: float = 0.75
    ref_factor: int = 64
    cross_val_tol: float = 1e-6
    output_path: str | None = None
    max_over_steps: bool = False
    spatial_check: bool = True

    def __post_init__(self) -> None:
        if self.equation not in _EQUATIONS:
            raise ConfigError(f"equation must be 'nls' or 'wave', got {self.equation!r}")
        schemes, norms, _ = _EQUATIONS[self.equation]
        # None picks the equation's first name; any other unknown name is refused.
        for key, names in (("scheme", schemes), ("error_norm", norms)):
            value = names[0] if getattr(self, key) is None else getattr(self, key)
            if value not in names:
                raise ConfigError(f"{key} for {self.equation} must be one of {names}, "
                                  f"got {value!r}")
            object.__setattr__(self, key, value)
        if self.mu not in (-1, 1):
            raise ConfigError("mu must be +1 or -1")
        if not all(map(math.isfinite, (self.t_end, self.cross_val_tol, self.norm_r))):
            raise ConfigError("t_end, cross_val_tol and norm_r must be finite")
        # Validate the grid, the datum and the nonlinearity by building them.
        try:
            TorusGrid(self.n_modes)
            RoughDataSpec(theta=self.theta, seed=self.seed, delta=self.delta,
                          amplitude=self.amplitude)
            if self.equation == "wave":
                Nonlinearity.preset(self.nonlinearity)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.t_end <= 0:
            raise ConfigError("t_end must be > 0")
        taus = tuple(float(t) for t in self.tau_list)
        if not taus:
            raise ConfigError("tau_list must not be empty")
        if any(t <= 0 for t in taus):
            raise ConfigError("all step sizes must be > 0")
        if any(a <= b for a, b in zip(taus, taus[1:])):
            raise ConfigError("tau_list must be strictly decreasing")
        if self.ref_factor < 16:
            raise ConfigError("ref_factor must be >= 16")
        # The sweep, the max-over-steps strides and the reference need these.
        try:
            for t in taus:
                steps_for(self.t_end, t)
                if self.max_over_steps:
                    steps_for(t, taus[-1])
            steps_for(self.t_end, taus[-1] / self.ref_factor)
        except OverflowError:
            raise ConfigError("ref_factor is too large: tau_list[-1] / ref_factor "
                              "is below every float") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "tau_list", taus)
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

    def to_dict(self) -> dict:
        """Every field, with ``norm_label`` as ``norm``."""
        data = dataclasses.asdict(self)
        data["norm"] = data.pop("norm_label")
        return data

    @staticmethod
    def from_dict(data: dict) -> "ConvergenceReport":
        fields = dict(data)
        fields["norm_label"] = fields.pop("norm")
        return ConvergenceReport(**fields)


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


def smooth_data_spec(seed: int, delta: float = 0.01, amplitude: float = 1.0) -> RoughDataSpec:
    """Complex-field spec whose coefficient magnitudes decay like (1+|k|)^-6
    exactly; ``rough_wave_state`` draws real fields from it."""
    return RoughDataSpec(
        theta=5.5 - delta, seed=seed, delta=delta, real_valued=False, amplitude=amplitude,
    )


def _datum(equation: str, grid: TorusGrid, spec: RoughDataSpec,
           v_theta: float | None = None):
    """Seeded datum drawn from ``spec``: a complex field for NLS, a real
    ``rough_wave_state`` with velocity exponent ``v_theta`` for the wave
    equation.  The equation decides ``spec.real_valued``."""
    if equation == "nls":
        return random_rough_field(dataclasses.replace(spec, real_valued=False), grid)
    return rough_wave_state(spec, grid, v_theta)


def _norm_fn(initial, r: float = 0.0) -> Callable:
    if isinstance(initial, WaveState):
        return wave_state_norm
    return lambda f: sobolev_norm(f, r)


def _reference_scheme(initial) -> str:
    return _EQUATIONS["wave" if isinstance(initial, WaveState) else "nls"][0][0]


def _run_scheme(phase, initial, scheme, term, tau, t_end, n_out=1):
    """One scheme run at step tau: the generator of its n_out + 1 equispaced
    ``(j, state)`` snapshots on [0, t_end], stepping only when asked for the
    next.  A blow-up names the phase and the scheme.  ``term`` is the
    nonlinear term: the sign mu for NLS, the ``Nonlinearity`` for waves.

    ``strang`` is the ``lie`` run conjugated by half a linear flow,
    F(-tau/2) (F(tau) K)^n F(tau/2): second-order Strang splitting with no
    stepper of its own.  Its snapshots after the first get the -tau/2 flow
    too; the first is ``initial`` itself.
    """
    wave = isinstance(initial, WaveState)
    strang = scheme == "strang"
    flow = wave_flow if wave else free_flow
    kind = "lie" if strang else scheme
    if wave:
        run, args = _wave_snapshots, (term, kind != "lie")
    else:
        run, args = _nls_snapshots, (term, NlsStepperKind(kind))
    start = flow(initial, 0.5 * tau) if strang else initial
    try:
        for j, state in _solve(run, start, t_end, n_out, tau, *args):
            if strang:
                state = flow(state, -0.5 * tau) if j else initial
            yield j, state
    except BlowUpError as exc:
        raise BlowUpError(f"{phase} run ({scheme}): {exc}") from exc


def _terminal(run):
    """The last snapshot of ``run``, once the run has ended."""
    for _, state in run:
        pass
    return state


def _validation(initial, term, t_end, tau_ref, terminal, norm_fn, tol) -> dict:
    """The record of the reference's ``terminal`` state at tau_ref, checked
    against Strang splitting; raises ``ValidationError`` unless the terminal
    distance is at most the absolute ``tol``.  The comparator is second order
    and shares neither the phi1 filter nor the phi2 correction with the
    reference, so it runs at factor * tau_ref with factor = gcd(n_steps, 4):
    a quarter of the reference's steps whenever 4 divides them.
    """
    factor = math.gcd(steps_for(t_end, tau_ref), 4)
    comp = _terminal(_run_scheme("comparator", initial, "strang", term, factor * tau_ref, t_end))
    distance = norm_fn(difference(terminal, comp))
    record = {
        "tau_ref": tau_ref,
        "reference_scheme": _reference_scheme(initial),
        "comparator_scheme": "strang",
        "comparator_tau": factor * tau_ref,
        "distance": distance,
        "initial_norm": norm_fn(initial),
        "tolerance": tol,
        "passed": bool(distance <= tol),
    }
    if not distance <= tol:
        raise ValidationError(
            f"reference cross-validation failed: two-scheme distance "
            f"{distance:.3e} exceeds tolerance {tol:.3e} at tau_ref={tau_ref:g}",
            record,
        )
    return record


def _sweeps(config: StudyConfig, initial, term, n_ref: int, norm):
    """Paused runs of ``config.scheme`` at each step of ``config.tau_list``,
    driven by ``compare(i, ref)`` with each of n_ref + 1 equispaced reference
    snapshots in turn: each run due there steps to its time and is compared.
    Returns ``compare`` and the list it fills with the errors
    ``norm(difference(state, ref))``, the largest over every step under
    ``config.max_over_steps``, else the terminal one, or a run's
    ``BlowUpError`` for ``_settled``."""
    n_outs = [steps_for(config.t_end, tau) if config.max_over_steps else 1
              for tau in config.tau_list]
    runs = [None] * len(n_outs)
    errors = [None] * len(n_outs)

    def compare(i, ref):
        for k, tau in enumerate(config.tau_list):
            # Run k's snapshot m is at the time of reference snapshot
            # m * n_ref / n_outs[k]; its first, the initial state, is skipped.
            if not i or i * n_outs[k] % n_ref or isinstance(errors[k], BlowUpError):
                continue
            # A run lives from its first comparison to its last, so a
            # terminal study holds one run at a time.
            try:
                if runs[k] is None:
                    runs[k] = _run_scheme(f"sweep tau={tau:g}", initial, config.scheme, term,
                                          tau, config.t_end, n_outs[k])
                    next(runs[k])
                state = next(runs[k])[1]
            except BlowUpError as exc:
                errors[k], runs[k] = exc, None
                continue
            e = norm(difference(state, ref))
            if errors[k] is None or e > errors[k]:
                errors[k] = e
            if i == n_ref:
                runs[k] = None

    return compare, errors


def _settled(errors) -> list[float]:
    """The errors ``_sweeps`` filled, or the first blow-up in step order."""
    for e in errors:
        if isinstance(e, BlowUpError):
            raise e
    return [float(e) for e in errors]


def _spatial_check(config: StudyConfig, term, norm, minis):
    """Error at the largest step, recomputed at N and 2N from the same datum.

    Both errors use a dedicated mini-reference at tau_max/max(ref_factor, 256)
    so the comparison isolates the spatial layer.  ``minis`` holds the N-
    and 2N-grid ``(start, terminal)`` pairs; a terminal state still None is
    run on first use and kept, so every scheme checked on one datum shares
    both mini-references.  Returns (resolved, change).
    """
    tau_c = config.tau_list[0]
    found = []
    for k, (start, terminal) in enumerate(minis):
        if terminal is None:
            terminal = _terminal(_run_scheme(
                "spatial check", start, _reference_scheme(start), term,
                tau_c / max(config.ref_factor, 256), config.t_end))
            minis[k] = start, terminal
        run = _run_scheme("spatial check", start, config.scheme, term, tau_c, config.t_end)
        found.append(norm(difference(_terminal(run), terminal)))
    e_base, e_fine = found
    change = abs(e_fine - e_base) / max(e_base, 1e-300)
    return bool(change < 0.01), float(change)


def _studies(configs: Sequence[StudyConfig]):
    """Studies of each scheme in ``configs`` on one datum, as a generator of
    their reports in config order, each written before it is yielded.

    One reference pass drives the sweeps of every scheme in turn; its
    terminal state goes to them once the run has ended and ``_validation``
    has passed it.  The configs may differ only in scheme, output path and
    spatial check, and name each scheme at most once.  A validation failure
    outranks every sweep blow-up, and each scheme's blow-up is raised after
    the reports of the schemes before it.
    """
    first = configs[0]
    for config in configs:
        differ = [f.name for f in dataclasses.fields(config)
                  if f.name not in ("scheme", "output_path", "spatial_check")
                  and getattr(config, f.name) != getattr(first, f.name)]
        if differ:
            raise ConfigError(f"studies on one reference pass differ in {', '.join(differ)}")
    if len({config.scheme for config in configs}) < len(configs):
        schemes = ",".join(config.scheme for config in configs)
        raise ConfigError(f"scheme list {schemes} names a scheme twice")

    # The reference step: the datum, and one pass over it for every sweep.
    grid = TorusGrid(first.n_modes)
    initial = _datum(first.equation, grid, RoughDataSpec(
        theta=first.theta, seed=first.seed, delta=first.delta, amplitude=first.amplitude,
    ))
    term = Nonlinearity.preset(first.nonlinearity) if first.equation == "wave" else first.mu
    norm_fn = _norm_fn(initial, first.norm_r if first.error_norm == "Hr" else 0.0)
    initial_norm = norm_fn(initial)
    if not math.isfinite(initial_norm):
        raise ConfigError(f"the datum's {first.norm_label} norm is {initial_norm}, not finite")
    tau_ref = first.tau_list[-1] / first.ref_factor
    n_ref = steps_for(first.t_end, first.tau_list[-1]) if first.max_over_steps else 1
    sweeps = [_sweeps(config, initial, term, n_ref, norm_fn) for config in configs]
    run = _run_scheme("reference", initial, _reference_scheme(initial), term, tau_ref,
                      first.t_end, n_ref)
    for i, (_, ref_terminal) in enumerate(run):
        if i < n_ref:
            for compare, _ in sweeps:
                compare(i, ref_terminal)
    validation = _validation(initial, term, first.t_end, tau_ref, ref_terminal, norm_fn,
                             first.cross_val_tol * initial_norm)
    for compare, _ in sweeps:
        compare(n_ref, ref_terminal)
    # The spatial check's mini-references; the reference's terminal state is
    # kept only where it stands in bit for bit for the N-grid one (at tau_ref).
    tau_mini = first.tau_list[0] / max(first.ref_factor, 256)
    minis = [(initial, ref_terminal if tau_mini == tau_ref else None),
             (regrid(initial, TorusGrid(2 * first.n_modes)), None)]
    del ref_terminal

    # The report step of each scheme: its errors, its certification margin
    # on the shared validation record, its fitted order and spatial check.
    distance = validation["distance"]
    for config, (_, errors) in zip(configs, sweeps):
        errors = _settled(errors)
        usable = sum(FIT_FLOOR <= e <= FIT_CEILING for e in errors)
        fit = fit_rate(list(zip(config.tau_list, errors))) if usable >= 4 else (None, None)
        spatial = (_spatial_check(config, term, norm_fn, minis) if config.spatial_check
                   else (None, None))
        report = ConvergenceReport(
            equation=config.equation, scheme=config.scheme, seed=config.seed,
            norm_label=config.norm_label, taus=list(config.tau_list), errors=errors,
            fitted_order=fit[0], r_squared=fit[1],
            validation=dict(validation,
                            certification_margin=min(errors) / distance if distance else None),
            config=dict(dataclasses.asdict(config), tau_list=list(config.tau_list)),
            spatially_resolved=spatial[0], spatial_change=spatial[1],
        )
        for path in _report_files(config.output_path):
            emit_report(report, path.rpartition(".")[2], path)
        yield report


def run_convergence_study(config: StudyConfig) -> ConvergenceReport:
    """Execute one full study; see the module docstring for the pipeline."""
    return next(_studies([config]))


def _report_files(stem: str | None) -> list[str]:
    """The files a study with the output stem ``stem`` writes."""
    return [stem + ".csv", stem + ".json"] if stem else []


def _atomic_write(path: str, payload: str) -> None:
    """Write through a temporary file that never outlives the call; an
    ``OSError`` is the ``ConfigError`` of an output that cannot be written."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".report-")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


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


def _require_out_dir(*paths: str | None) -> None:
    """Refuse, before any solve runs, an output file that is a directory,
    whose directory is missing or not writable, or whose name is longer than
    that directory allows; an unset path writes nothing."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ConfigError(f"output file {path} is a directory")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ConfigError(f"output directory of {path} does not exist")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise ConfigError(f"output directory of {path} is not writable")
        name_max = os.pathconf(directory, "PC_NAME_MAX")
        if 0 < name_max < len(os.fsencode(os.path.basename(path))):
            raise ConfigError(f"output file name {os.path.basename(path)[:16]}... is longer "
                              f"than the {name_max} bytes its directory allows")


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


def _parse_switch(text) -> bool:
    """On or off, from a config-file word or from a switch flag's bool."""
    word = str(text).lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return word in ("1", "true", "yes", "on")


# Study settings by config-file key, which is also the flag's long name with
# "_" for "-" (``spatial_check`` is switched off by ``--no-spatial-check``);
# each parser reads a file value and a flag value alike.
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
    "norm": parse_norm,
    "ref_factor": int,
    "cross_val_tol": float,
    "out": str,
    "max_over_steps": _parse_switch,
    "spatial_check": _parse_switch,
}

# StudyConfig field names of the keys that do not share them.
_FIELD_OF_KEY = {"modes": "n_modes", "taus": "tau_list", "out": "output_path"}


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
    # No type= here: _study_configs_from_args parses flag and file values alike.
    p.add_argument("--config", help="plain-text key/value file; flags override it")
    p.add_argument("--scheme", help="integrator under study, or a comma list of them")
    p.add_argument("--theta", help="data regularity exponent")
    p.add_argument("--delta", help="extra coefficient decay margin")
    p.add_argument("--seed", help="64-bit data seed")
    p.add_argument("--amplitude", help="data amplitude scale")
    p.add_argument("--modes", help="number of Fourier modes")
    p.add_argument("--t-end", help="final time")
    p.add_argument("--taus", help="step sizes, e.g. 2^-4..2^-10 or 0.1,0.05")
    p.add_argument("--norm", help="error norm: L2, H1xL2, or Hr:<r>")
    p.add_argument("--ref-factor", help="tau_min / tau_ref ratio")
    p.add_argument("--cross-val-tol", help="relative two-scheme agreement tolerance")
    p.add_argument("--out", help="output path stem; writes <out>.csv and <out>.json "
                                 "(<out>-<scheme>.* for each of several schemes)")
    p.add_argument("--max-over-steps", action="store_true", default=None,
                   help="measure the maximum error over all steps, not just the end")
    p.add_argument("--no-spatial-check", dest="spatial_check", action="store_false",
                   default=None, help="skip the 2N spatial-resolution certification")


def _study_configs_from_args(args, equation: str) -> list[StudyConfig]:
    """The config file's values, overridden by each flag given; every
    setting that neither names keeps its ``StudyConfig`` default.  The other
    equation's key (``mu`` or ``nonlinearity``) of a shared file is ignored.
    One config per scheme of a comma list, each with the output stem
    ``<out>-<scheme>`` when the list names two or more."""
    values = read_config_file(args.config) if args.config else {}
    for key, parse in _CONFIG_KEYS.items():
        given = getattr(args, key, None)
        if given is not None:
            try:
                values[key] = parse(given)
            except ValueError as exc:
                raise ConfigError(f"--{key.replace('_', '-')} {given}: {exc}") from exc
    values.pop(_EQUATIONS[equation][2], None)
    kwargs = {_FIELD_OF_KEY.get(key, key): value for key, value in values.items()}
    if "norm" in kwargs:
        kwargs["error_norm"], norm_r = kwargs.pop("norm")
        if norm_r is not None:
            kwargs["norm_r"] = norm_r
    # tau_list is the one setting without a StudyConfig default.
    kwargs.setdefault("tau_list", parse_taus("2^-4..2^-10"))
    schemes = kwargs.pop("scheme", None)
    if schemes is None or "," not in schemes:
        return [StudyConfig(equation, scheme=schemes, **kwargs)]
    out = kwargs.pop("output_path", None)
    return [StudyConfig(equation, scheme=scheme, output_path=out and f"{out}-{scheme}", **kwargs)
            for scheme in schemes.split(",")]


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
    for path in _report_files(report.config.get("output_path")):
        print(f"wrote {path}")


def _cmd_converge(args, equation: str) -> None:
    """One study, or one per listed scheme under a ``scheme`` line and then
    the first order less the second."""
    with _input_errors():
        configs = _study_configs_from_args(args, equation)
        _require_out_dir(*(path for config in configs
                           for path in _report_files(config.output_path)))
    orders = []
    for report in _studies(configs):
        if len(configs) > 1:
            print(f"scheme {report.scheme}")
        _print_report(report)
        orders.append(report.fitted_order)
    if len(orders) > 1:
        gap = None if None in orders else orders[0] - orders[1]
        print(f"order gap {gap!r}")


def _cmd_diagnose(args, functional: str) -> None:
    """Strichartz or null-form functional on a reference trajectory."""
    seed, modes, t_end, samples = args.seed, args.modes, args.t_end, args.samples
    equation = "nls" if functional == "strichartz_l4" else "wave"
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
        steps_for(t_end, tau_ref)
        spec = RoughDataSpec(theta=args.theta, seed=seed, amplitude=args.amplitude)
        datum = _datum(equation, TorusGrid(modes), spec)
        if equation == "nls":
            term, field, p = args.mu, lambda u: derivative(u, 1), 4
        else:
            term = Nonlinearity.preset(args.nonlinearity)
            field, p = null_form_field, 2
            results["nonlinearity"] = term.tag

    def value_on(state, n_out, name):
        # One pass: each snapshot leaves only its sample norm.  t_end / n_out
        # is bit for bit the dt of a trajectory_of the snapshots.
        run = _run_scheme(f"{functional} reference", state, _reference_scheme(state), term,
                          tau_ref, t_end, n_out)
        value = spacetime_norm((field(s) for _, s in run), t_end / n_out, p)
        if not math.isfinite(value):
            raise ConfigError(f"{name} is {value!r}, not finite")
        return value

    # Every value is taken before any is printed: a failure leaves no output.
    value = value_on(datum, samples, functional)
    if args.refine:
        refined = value_on(regrid(datum, TorusGrid(2 * modes)), 2 * samples,
                           f"{functional}_refined")
    print(f"{functional} {value!r}")
    results["value"] = value
    if args.refine:
        change = abs(refined - value) / max(value, 1e-300)
        print(f"{functional}_refined {refined!r}")
        print(f"relative_change {change!r}")
        results.update({"refined_value": refined, "relative_change": change})
    if args.out:
        _atomic_write(args.out, json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


def _cmd_local_error_check(args) -> None:
    equation, tau, quad_order = args.equation, args.tau, args.quad_order
    with _input_errors():
        _require_out_dir(args.out)
        if quad_order < 2:
            raise ConfigError("--quad-order must be >= 2")
        n_out = 4 * quad_order
        steps_for(tau / n_out, tau / (16 * n_out))
        steps_for(tau, tau / (16 * n_out))
        spec = smooth_data_spec(args.seed, amplitude=args.amplitude)
        datum = _datum(equation, TorusGrid(args.modes), spec, v_theta=spec.theta)
        # Both second-order references take 16 steps per sample. Finer is worse:
        # past about 2^11 steps a reference's accumulated rounding outgrows its
        # truncation error and floors the gain from q to 4q.
        if equation == "nls":
            term, scheme, oracle = 1, "strang", nls_local_error_oracle
        else:
            term = Nonlinearity.preset(args.nonlinearity)
            scheme, oracle = "corrected_lie", wave_local_error_oracle
    run = _run_scheme("local-error reference", datum, scheme, term, tau / (16 * n_out), tau,
                      n_out)
    traj = trajectory_of([s for _, s in run], 0.0, tau)
    # The one-step error of the scheme under test, measured once for both orders.
    step = _run_scheme("local-error step", datum, _reference_scheme(datum), term, tau, tau)
    direct = difference(traj.states[-1], _terminal(step))
    norm_fn = _norm_fn(datum)
    scale = max(norm_fn(direct), 1e-300)
    discrepancies = [norm_fn(difference(direct, oracle(traj, tau, term, q))) / scale
                     for q in (quad_order, 4 * quad_order)]

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
    p.add_argument("--nonlinearity", default="quadratic")
    p.set_defaults(handler=lambda a: _cmd_diagnose(a, "nullform_norm"))

    p = sub.add_parser("local-error-check",
                       help="compare a one-step error against its integral representation")
    p.add_argument("--equation", choices=("nls", "wave"), required=True)
    p.add_argument("--modes", type=int, default=128)
    p.add_argument("--tau", type=parse_step, default=2.0**-6)
    p.add_argument("--quad-order", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--nonlinearity", default="quadratic")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_local_error_check)

    return parser


class _Stdout:
    """``stream`` as a command's standard output: an ``OSError`` of a write or
    a flush is the ConfigError of an output that cannot be written."""

    def __init__(self, stream):
        self.stream = stream

    def _call(self, name: str, *args):
        try:
            return getattr(self.stream, name)(*args)
        except OSError as exc:
            raise ConfigError(f"cannot write standard output: {exc}") from exc

    def write(self, text: str) -> int:
        return self._call("write", text)

    def flush(self) -> None:
        self._call("flush")


def _exit_code(action: Callable[[], object]) -> int:
    """0 once ``action()`` returns and its output is flushed; for a typed
    failure, one stderr line and its exit code.  numpy's overflow and
    invalid-value warnings are silenced: the growth guard and the study-norm
    check report an overflow in one line."""
    try:
        with (np.errstate(over="ignore", invalid="ignore"),
              contextlib.redirect_stdout(_Stdout(sys.stdout))):
            action()
            sys.stdout.flush()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    def run():
        args = build_parser().parse_args(argv)
        args.handler(args)

    return _exit_code(run)


def console_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # What stdout still holds cannot be written: the flush at interpreter
        # exit goes to devnull, so it adds nothing to main's one stderr line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)

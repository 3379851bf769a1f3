"""Span tracing from outside the package, and the per-layer table built from it.

``Tracer.install`` wraps every public function of the five lowreg modules,
and ``numpy.fft.{fft,ifft,rfft,irfft}``, in every namespace that holds them.
Each call records one span: name, start, end and parent span.  Spans stay in
memory in flat arrays and are written out as JSON when the run ends.  A
function the benchmark expects but the package no longer has is skipped and
named in ``Tracer.missing``; the metrics derived from it read 0.
"""

from __future__ import annotations

import array
import collections
import contextlib
import importlib
import inspect
import json
import math
import os
import statistics
import time

import numpy as np

LAYERS = ("torus_spectral", "nls_integrators", "wave_integrators", "diagnostics", "study_cli")
TRANSFORMS = ("fft", "ifft", "rfft", "irfft")

# Functions the per-layer metrics are computed from.
EXPECTED = {
    "torus_spectral": ("random_rough_field", "sobolev_norm", "lebesgue_norm", "spacetime_norm"),
    "nls_integrators": ("run_nls", "nls_reference_solve"),
    "wave_integrators": ("run_wave", "wave_reference_solve"),
    "diagnostics": ("nls_local_error_oracle", "wave_local_error_oracle", "strichartz_l4",
                    "nullform_norm", "write_trajectory", "read_trajectory"),
    "study_cli": ("run_convergence_study",),
}
RUNS = {"nls_integrators.run_nls": "nls_integrators", "wave_integrators.run_wave": "wave_integrators"}
STUDY = "study_cli.run_convergence_study"
PHASES = ("reference", "comparator", "sweep", "spatial_check")
# Study scheme names to the scheme names the run spans record.
SCHEMES = {("nls", "lri"): "lri", ("nls", "lie"): "lie",
           ("wave", "corrected_lie"): "corrected", ("wave", "lie"): "plain"}
CANONICAL = {"nls": "lri", "wave": "corrected_lie"}

# Span groups whose busy time is reported: the time covered by spans of the
# group that have no ancestor in the group.  Every layer is a group too.
GROUPS = {
    "torus_spectral.norms": {"torus_spectral.sobolev_norm", "torus_spectral.lebesgue_norm",
                             "torus_spectral.spacetime_norm"},
    "torus_spectral.random_rough_field": {"torus_spectral.random_rough_field"},
    "diagnostics.functionals": {"diagnostics.strichartz_l4", "diagnostics.nullform_norm"},
    "snapshots": {*RUNS, "nls_integrators.nls_reference_solve",
                  "wave_integrators.wave_reference_solve"},
    **{f"diagnostics.{name}": {f"diagnostics.{name}"} for name in (
        "nls_local_error_oracle", "wave_local_error_oracle", "write_trajectory",
        "read_trajectory")},
}
GROUP_BIT = {group: 1 << k for k, group in enumerate(
    [*GROUPS, *(f"layer.{layer}" for layer in (*LAYERS, "transform"))])}


def _group_bits(name: str) -> int:
    bits = GROUP_BIT.get(f"layer.{name.split('.', 1)[0]}", 0)
    for group, members in GROUPS.items():
        if name in members:
            bits |= GROUP_BIT[group]
    return bits


# (scheme, N) pairs the workloads step at; us_per_step is reported for each.
STEP_GRIDS = {
    "nls_integrators": {"lri": (32, 128, 512, 1024, 2048), "lie": (1024,)},
    "wave_integrators": {"corrected": (128, 512, 1024), "plain": (1024,)},
}


def _per_layer_units() -> dict[str, str]:
    units = {f"transform.{k}": u for k, u in (
        ("calls", "count"), ("points", "count"), ("busy_s", "s"),
        ("flops", "flop"), ("bytes", "B"))}
    for layer in LAYERS:
        units[f"layer.{layer}.busy_s"] = "s"
        units[f"layer.{layer}.self_s"] = "s"
    for layer, grids in STEP_GRIDS.items():
        for scheme, sizes in grids.items():
            units[f"{layer}.steps.{scheme}"] = "count"
            for n in sizes:
                units[f"{layer}.us_per_step.{scheme}.N{n}"] = "us"
    for phase in PHASES:
        units[f"study_cli.{phase}.busy_s"] = "s"
        units[f"study_cli.{phase}.steps"] = "count"
    units["study_cli.self_s"] = "s"
    for name in ("nls_local_error_oracle", "wave_local_error_oracle", "functionals",
                 "write_trajectory", "read_trajectory"):
        units[f"diagnostics.{name}.busy_s"] = "s"
    units["diagnostics.trajectory.bytes"] = "B"
    units["torus_spectral.random_rough_field.busy_s"] = "s"
    units["torus_spectral.norms.busy_s"] = "s"
    units["snapshots.recorded"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


PER_LAYER_UNITS = _per_layer_units()


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _describe_run(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    if "kind" in a:
        scheme, state = a["kind"].value, a["u0"]
    else:
        scheme, state = ("corrected" if a["corrected"] else "plain"), a["w0"]
    return {"scheme": scheme, "n": state.grid.n_modes, "tau": a["tau"],
            "steps": a["n_steps"], "snapshots": len(result)}


def _describe_solve(fn, args, kwargs, result) -> dict:
    return {"snapshots": len(result)}


def _describe_study(fn, args, kwargs, result) -> dict:
    cfg = _bound(fn, args, kwargs)["config"]
    return {"equation": cfg.equation, "scheme": cfg.scheme, "n": cfg.n_modes,
            "taus": list(cfg.tau_list), "ref_factor": cfg.ref_factor,
            "spatial_check": cfg.spatial_check}


def _describe_write(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


DESCRIBE = {
    "nls_integrators.run_nls": _describe_run,
    "wave_integrators.run_wave": _describe_run,
    "nls_integrators.nls_reference_solve": _describe_solve,
    "wave_integrators.wave_reference_solve": _describe_solve,
    STUDY: _describe_study,
    "diagnostics.write_trajectory": _describe_write,
}


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.attrs: dict[int, dict] = {}
        # (name, input shape, input itemsize, output shape, output itemsize) -> calls
        self.transforms: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.notes: list[str] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around benchmark code, such as one round or one operation."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            if attrs:
                self.attrs[idx] = attrs

    def _wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after`` then sees the call.

        The recording is inlined and bound to locals because it runs around
        every transform, several times per integrator step.
        """
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        push_name, push_parent = self.name_id.append, self.parent.append
        push_start, push_end = start.append, end.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(idx)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_function(self, name: str, fn):
        describe = DESCRIBE.get(name)
        if describe is None:
            return self._wrap(name, fn)

        def record(idx, args, kwargs, result):
            try:
                self.attrs[idx] = describe(fn, args, kwargs, result)
            except (KeyError, TypeError, AttributeError, OSError) as exc:
                self._note(f"cannot describe {name}: {exc!r}")

        return self._wrap(name, fn, record)

    def _wrap_transform(self, name: str, fn):
        tally = self.transforms

        def record(idx, args, kwargs, out):
            a = np.asarray(args[0] if args else kwargs["a"])
            tally[name, a.shape, a.itemsize, out.shape, out.itemsize] += 1

        return self._wrap(f"transform.{name}", fn, record)

    def _note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)

    def install(self) -> None:
        package = importlib.import_module("lowreg")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"lowreg.{layer}")
            except ImportError:
                self.missing.append(f"lowreg.{layer}")
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for fname in EXPECTED[layer]:
                if not inspect.isfunction(getattr(module, fname, None)):
                    self.missing.append(f"lowreg.{layer}.{fname}")
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._patch(namespaces, fn, self._wrap_function(f"{layer}.{fname}", fn))
        for fname in TRANSFORMS:
            fn = getattr(np.fft, fname)
            self._patch([np.fft], fn, self._wrap_transform(fname, fn))

    def _patch(self, namespaces, original, replacement) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Spans as columns: name index, parent index (-1: none), start and end."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [round((s - t0) * 1e9) for s in self.start],
                "end_ns": [round((e - t0) * 1e9) for e in self.end],
            },
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "missing": self.missing,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def transform_counts(tally: collections.Counter) -> dict:
    """Calls, points, computed flops and computed bytes of a transform tally.

    Flops use the usual 5*n*log2(n) per complex transform of length n and
    half that for a real one; bytes are the input plus output array sizes.
    """
    m = dict.fromkeys(("transform.calls", "transform.points", "transform.flops",
                       "transform.bytes"), 0)
    for (name, in_shape, in_size, out_shape, out_size), calls in tally.items():
        n = (in_shape if name == "rfft" else out_shape)[-1]
        rows = math.prod(out_shape[:-1])
        per_point = 2.5 if name in ("rfft", "irfft") else 5.0
        m["transform.calls"] += calls
        m["transform.points"] += calls * rows * n
        m["transform.flops"] += calls * rows * per_point * n * math.log2(max(n, 2))
        m["transform.bytes"] += calls * (math.prod(in_shape) * in_size
                                         + math.prod(out_shape) * out_size)
    return m


class _Round:
    """The spans inside one root span, as arrays."""

    def __init__(self, tracer: Tracer, root: int):
        self.t = tracer
        lo = root + 1
        hi = lo
        while hi < len(tracer.start) and tracer.start[hi] < tracer.end[root]:
            hi += 1
        self.lo = lo
        ids = np.array(tracer.name_id[lo:hi], dtype=np.int64)
        self.parent = np.array(tracer.parent[lo:hi], dtype=np.int64) - lo  # -1: the root
        self.dur = (np.array(tracer.end[lo:hi], dtype=np.float64)
                    - np.array(tracer.start[lo:hi], dtype=np.float64))
        self.name = [tracer.names[i] for i in ids]

        # A span carries the bits of its own groups in ``own`` and those of
        # its ancestors' groups in ``inside``; parents precede children.
        name_bits = [_group_bits(name) for name in tracer.names]
        own = [name_bits[i] for i in ids.tolist()]
        inside = [0] * len(own)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] | own[p]
        self.own = np.array(own, dtype=np.int64)
        self.inside = np.array(inside, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.name)

    def outermost(self, group: str) -> np.ndarray:
        bit = GROUP_BIT[group]
        return np.nonzero((self.own & bit != 0) & (self.inside & bit == 0))[0]

    def busy(self, group: str) -> float:
        return float(self.dur[self.outermost(group)].sum())

    def attrs(self, i: int) -> dict | None:
        return self.t.attrs.get(self.lo + i)

    def ancestor(self, i: int, name: str) -> int | None:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name:
                return int(p)
            p = self.parent[p]
        return None


def _classify(view: _Round, runs: list[int]) -> tuple[dict, list[dict]]:
    """Sort each run made inside a study into its phase by tau, scheme and N.

    The reference is the first canonical-scheme run at tau_ref, the comparator
    the first other-scheme run at tau_ref, the sweep the first run at each
    tau of the ladder on the study grid; everything else, including runs at
    2N, belongs to the spatial check.
    """
    phase_of: dict[int, str] = {}
    studies: dict[int, list[int]] = collections.defaultdict(list)
    for i in runs:
        study = view.ancestor(i, STUDY)
        if study is not None and view.attrs(study) is not None:
            studies[study].append(i)
    rows = []
    for study, members in studies.items():
        cfg = view.attrs(study)
        tau_ref = cfg["taus"][-1] / cfg["ref_factor"]
        canonical = SCHEMES.get((cfg["equation"], CANONICAL.get(cfg["equation"])))
        scheme = SCHEMES.get((cfg["equation"], cfg["scheme"]))
        seen = set()
        busy = collections.Counter()
        for i in members:
            a = view.attrs(i)
            same_grid = a["n"] == cfg["n"]
            at_ref = math.isclose(a["tau"], tau_ref, rel_tol=1e-12)
            if same_grid and at_ref and a["scheme"] == canonical and "reference" not in seen:
                phase = "reference"
            elif same_grid and at_ref and a["scheme"] != canonical and "comparator" not in seen:
                phase = "comparator"
            elif (same_grid and a["scheme"] == scheme and a["tau"] in cfg["taus"]
                  and ("sweep", a["tau"]) not in seen):
                phase = "sweep"
                seen.add(("sweep", a["tau"]))
            else:
                phase = "spatial_check"
            seen.add(phase)
            phase_of[i] = phase
            busy[phase] += float(view.dur[i])
        wall = float(view.dur[study])
        rows.append({"study": cfg, "wall_s": wall,
                     "phases_s": {p: busy[p] for p in PHASES},
                     "self_s": wall - sum(busy.values())})
    return phase_of, rows


def round_table(tracer: Tracer, root: int, tally: collections.Counter) -> tuple[dict, list[dict]]:
    """Per-layer metrics of one traced round, and its per-study accounting."""
    view = _Round(tracer, root)
    m = {name: 0 for name in PER_LAYER_UNITS}
    m.update(transform_counts(tally))
    m["trace.spans"] = len(view)
    m["transform.busy_s"] = view.busy("layer.transform")

    has_parent = view.parent >= 0
    child = np.bincount(view.parent[has_parent], weights=view.dur[has_parent],
                        minlength=len(view))
    self_time = view.dur - child
    for layer in LAYERS:
        bit = GROUP_BIT[f"layer.{layer}"]
        m[f"layer.{layer}.busy_s"] = view.busy(f"layer.{layer}")
        m[f"layer.{layer}.self_s"] = float(self_time[view.own & bit != 0].sum())

    runs = [i for i, name in enumerate(view.name) if name in RUNS and view.attrs(i)]
    steps_at, seconds_at = collections.Counter(), collections.Counter()
    for i in runs:
        key = (RUNS[view.name[i]], view.attrs(i)["scheme"], view.attrs(i)["n"])
        steps_at[key] += view.attrs(i)["steps"]
        seconds_at[key] += float(view.dur[i])
    for (layer, scheme, n), steps in steps_at.items():
        count, per_step = f"{layer}.steps.{scheme}", f"{layer}.us_per_step.{scheme}.N{n}"
        if count in m:
            m[count] += steps
        if per_step in m and steps:
            m[per_step] = 1e6 * seconds_at[layer, scheme, n] / steps
        else:
            tracer._note(f"no metric for {layer} {scheme} steps at N={n}")

    phase_of, studies = _classify(view, runs)
    for i, phase in phase_of.items():
        m[f"study_cli.{phase}.busy_s"] += float(view.dur[i])
        m[f"study_cli.{phase}.steps"] += view.attrs(i)["steps"]
    m["study_cli.self_s"] = sum(row["self_s"] for row in studies)

    for name in ("nls_local_error_oracle", "wave_local_error_oracle", "functionals",
                 "write_trajectory", "read_trajectory"):
        m[f"diagnostics.{name}.busy_s"] = view.busy(f"diagnostics.{name}")
    m["diagnostics.trajectory.bytes"] = sum(
        (view.attrs(i) or {}).get("bytes", 0)
        for i in view.outermost("diagnostics.write_trajectory"))
    m["torus_spectral.norms.busy_s"] = view.busy("torus_spectral.norms")
    m["snapshots.recorded"] = sum(
        (view.attrs(i) or {}).get("snapshots", 0) for i in view.outermost("snapshots"))
    return m, studies


def summarize(tracer: Tracer, roots: list, setup_root: int, steps: int):
    """Per-layer metrics over the traced rounds, per-study rows, and problems.

    Times are medians over the rounds.  Counts must repeat exactly between
    rounds; a count that does not, a study whose phases do not add up to its
    wall time, or a step count other than the ``steps`` the workload defines
    is reported as a problem.
    """
    tables, studies, problems = [], [], []
    for root, tally in roots:
        table, rows = round_table(tracer, root, tally)
        tables.append(table)
        studies.append(rows)
        for row in rows:
            accounted = sum(row["phases_s"].values()) + row["self_s"]
            if abs(accounted - row["wall_s"]) > 1e-9 * max(row["wall_s"], 1.0):
                problems.append(f"study phases do not add up to its wall time: {row}")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [t[name] for t in tables]
        if unit in ("s", "us"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between rounds: {values}")
    metrics["torus_spectral.random_rough_field.busy_s"] = _Round(tracer, setup_root).busy(
        "torus_spectral.random_rough_field")
    traced_steps = sum(metrics[f"{layer}.steps.{scheme}"]
                       for layer, grids in STEP_GRIDS.items() for scheme in grids)
    if traced_steps != steps:
        problems.append(f"traced runs took {traced_steps} steps; the workload defines {steps}")
    return metrics, studies, problems

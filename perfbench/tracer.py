"""Span tracer for the benchmark's traced run.

Spans are recorded at layer boundaries by wrapping, from the benchmark's own
files, the names the package binds at import time: a function is replaced in
every ``quadcover`` module that holds it (``from .forms import pullback``
copies the name), a method on its class, and ``numpy.linalg.svd`` on
``numpy.linalg``. Nothing under ``src/`` changes. Each span is stored in
memory as (name, start, end, parent, leaf time, value) and written out when
the run ends. Leaf calls of about 10 us (``proj_normalize``, ``svd``,
``derive_stream``) are counted and timed in aggregate instead of one span
each; their time still counts as covered time of the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (metric, unit, better, end-to-end metric it should move). The order is the
# report order; BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("forms.differential.calls", "count", "lower", "quadrature/pointwise wall_s, replay call_p99_ms; 0 on integrator"),
    ("forms.differential.self_s", "s", "lower", "quadrature/pointwise wall_s, replay call_p99_ms"),
    ("forms.differential.us_per_call", "us", "lower", "quadrature/pointwise wall_s, replay call_p99_ms"),
    ("forms.form_eval.calls", "count", "lower", "pointwise/quadrature wall_s"),
    ("forms.form_eval.self_s", "s", "lower", "pointwise/quadrature wall_s"),
    ("forms.pullback.calls", "count", "lower", "pointwise/quadrature wall_s"),
    ("numerics.quadrature_nodes", "count", "lower", "quadrature wall_s only"),
    ("numerics.gauss_legendre_2d.self_s", "s", "lower", "quadrature wall_s only"),
    ("numerics.us_per_node", "us", "lower", "quadrature wall_s only"),
    ("numerics.derive_stream.calls", "count", "lower", "replay call_p50_ms, setup_s"),
    ("projective.proj_normalize.calls", "count", "lower", "wall_s of pointwise, quadrature, integrator"),
    ("projective.proj_normalize.us_per_call", "us", "lower", "wall_s of pointwise, quadrature, integrator"),
    ("projective.proj_normalize.self_s", "s", "lower", "wall_s of pointwise, quadrature, integrator"),
    ("maps.calls", "count", "lower", "pointwise wall_s, replay call_p50_ms"),
    ("maps.self_s", "s", "lower", "pointwise wall_s, replay call_p50_ms"),
    ("cotangent.samples", "count", "lower", "pointwise wall_s"),
    ("cotangent.sample_us", "us", "lower", "pointwise wall_s"),
    ("cotangent.accept_ratio", "ratio", "higher", "pointwise wall_s"),
    ("dynamics.rk4_steps", "count", "lower", "integrator wall_s only"),
    ("dynamics.rk4_us_per_step", "us", "lower", "integrator wall_s only"),
    ("dynamics.rk4.self_s", "s", "lower", "integrator wall_s only"),
    ("kernel.svd.calls", "count", "lower", "integrator wall_s; pointwise wall_s (constraint frames)"),
    ("kernel.svd.self_s", "s", "lower", "integrator wall_s; pointwise wall_s (constraint frames)"),
    ("checks.gen_s", "s", "lower", "pointwise wall_s"),
    ("checks.residual_s", "s", "lower", "pointwise wall_s"),
    ("checks.inputs", "count", "higher", "pointwise wall_s"),
    ("checks.residual_us_per_input", "us", "lower", "pointwise wall_s"),
    ("checks.registry_builds", "count", "lower", "replay call_p50_ms, setup_s"),
    ("checks.render_json_s", "s", "lower", "replay call_p50_ms, setup_s"),
    ("checks.render_json_bytes", "bytes", "lower", "replay call_p50_ms, setup_s"),
    ("cli.main.calls", "count", "lower", "wall_s of pointwise, quadrature, integrator"),
    ("cli.main.self_s", "s", "lower", "wall_s of pointwise, quadrature, integrator"),
    ("trace.wall_s", "s", "lower", "none: wall time of the traced pass"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
]

LEAVES = ("projective.proj_normalize", "kernel.svd", "numerics.derive_stream")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.leaf_ns = array("q")
        self.value = array("q")
        self.leaf_calls = {name: 0 for name in LEAVES}
        self.leaf_total_ns = {name: 0 for name in LEAVES}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, value=None):
        """Wrap ``fn`` so each call records one span; ``value(args, kwargs, result)`` fills its value slot."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0)
            self.end.append(0)
            self.leaf_ns.append(0)
            self.value.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if value is not None:
                self.value[idx] = int(value(args, kwargs, result))
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap ``fn`` so its calls are counted and timed in aggregate."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.leaf_calls[name] += 1
                self.leaf_total_ns[name] += dt
                if self._stack:
                    self.leaf_ns[self._stack[-1]] += dt

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)`` in every quadcover module bound to it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "quadcover" or name.startswith("quadcover.")) and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics are read from."""
        from quadcover import checks, cli, cotangent, dynamics, forms, maps, numerics, projective

        def nodes(args, kwargs, result):
            bound = inspect.signature(numerics.gauss_legendre_2d).bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["nodes_per_axis"] ** 2

        self.patch_function(cli, "main", lambda f: self.span("cli.main", f))
        self.patch_function(checks, "run_check", lambda f: self.span("checks.run_check", f))
        self.patch_function(checks, "build_registry", lambda f: self.span("checks.build_registry", f))
        self.patch_function(
            checks, "render_json",
            lambda f: self.span("checks.render_json", f, lambda a, k, r: len(r.encode())),
        )
        for attr in list(vars(checks)):
            if attr.startswith("_gen_"):
                self.patch_function(
                    checks, attr, lambda f: self.span("checks.gen", f, lambda a, k, r: len(r))
                )
            elif attr.startswith(("_res_", "_score_")):
                self.patch_function(checks, attr, lambda f: self.span("checks.residual", f))
        self._set(forms.SmoothMap, "differential", self.span("forms.differential", forms.SmoothMap.differential))
        self._set(forms.TwoForm, "__call__", self.span("forms.form_eval", forms.TwoForm.__call__))
        self.patch_function(forms, "omega_r", lambda f: self.span("forms.form_eval", f))
        self.patch_function(forms, "pullback", lambda f: self.span("forms.pullback", f))
        self.patch_function(numerics, "gauss_legendre_2d", lambda f: self.span("numerics.gauss_legendre_2d", f, nodes))
        self.patch_function(numerics, "derive_stream", lambda f: self.leaf("numerics.derive_stream", f))
        self.patch_function(projective, "proj_normalize", lambda f: self.leaf("projective.proj_normalize", f))
        for attr in maps.__all__:
            if inspect.isfunction(getattr(maps, attr)):
                self.patch_function(maps, attr, lambda f: self.span("maps", f))
        for attr in ("sample_disc_bundle", "sample_cosphere"):
            self.patch_function(cotangent, attr, lambda f: self.span("cotangent.sample", f))
        self.patch_function(
            dynamics, "rk4_integrate",
            lambda f: self.span("dynamics.rk4", f, lambda a, k, r: r.steps),
        )
        self._set(np.linalg, "svd", self.leaf("kernel.svd", np.linalg.svd))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "leaf_ns": np.frombuffer(self.leaf_ns, dtype=np.int64),
            "value": np.frombuffer(self.value, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; self time is duration minus covered time."""
        s = self.spans()
        dur = s["end_ns"] - s["start_ns"]
        covered = s["leaf_ns"].astype(np.int64).copy()
        has_parent = s["parent"] >= 0
        np.add.at(covered, s["parent"][has_parent], dur[has_parent])
        self_ns = dur - covered

        def pick(name):
            nid = self._name_ids.get(name)
            return s["name_id"] == nid if nid is not None else np.zeros(dur.size, dtype=bool)

        def calls(name):
            return int(np.count_nonzero(pick(name)))

        def total_s(name):
            return float(dur[pick(name)].sum()) / 1e9

        def self_s(name):
            return float(self_ns[pick(name)].sum()) / 1e9

        def value(name):
            return int(s["value"][pick(name)].sum())

        def per(num, den, scale=1e6):
            return num * scale / den if den else 0.0

        gen = pick("checks.gen")
        sampler = pick("cotangent.sample")
        # inputs emitted by the generators that drew cotangent points, over those draws
        drawing = np.zeros(dur.size, dtype=bool)
        parents = s["parent"][sampler]
        drawing[parents[parents >= 0]] = True
        drawing &= gen
        leaf_s = {name: self.leaf_total_ns[name] / 1e9 for name in LEAVES}
        steps = value("dynamics.rk4")
        nodes = value("numerics.gauss_legendre_2d")
        inputs = calls("checks.residual")
        return {
            "forms.differential.calls": calls("forms.differential"),
            "forms.differential.self_s": self_s("forms.differential"),
            "forms.differential.us_per_call": per(total_s("forms.differential"), calls("forms.differential")),
            "forms.form_eval.calls": calls("forms.form_eval"),
            "forms.form_eval.self_s": self_s("forms.form_eval"),
            "forms.pullback.calls": calls("forms.pullback"),
            "numerics.quadrature_nodes": nodes,
            "numerics.gauss_legendre_2d.self_s": self_s("numerics.gauss_legendre_2d"),
            "numerics.us_per_node": per(total_s("numerics.gauss_legendre_2d"), nodes),
            "numerics.derive_stream.calls": self.leaf_calls["numerics.derive_stream"],
            "projective.proj_normalize.calls": self.leaf_calls["projective.proj_normalize"],
            "projective.proj_normalize.us_per_call": per(
                leaf_s["projective.proj_normalize"], self.leaf_calls["projective.proj_normalize"]
            ),
            "projective.proj_normalize.self_s": leaf_s["projective.proj_normalize"],
            "maps.calls": calls("maps"),
            "maps.self_s": self_s("maps"),
            "cotangent.samples": calls("cotangent.sample"),
            "cotangent.sample_us": per(total_s("cotangent.sample"), calls("cotangent.sample")),
            "cotangent.accept_ratio": per(
                float(s["value"][drawing].sum()), int(np.count_nonzero(sampler)), scale=1.0
            ),
            "dynamics.rk4_steps": steps,
            "dynamics.rk4_us_per_step": per(total_s("dynamics.rk4"), steps),
            "dynamics.rk4.self_s": self_s("dynamics.rk4"),
            "kernel.svd.calls": self.leaf_calls["kernel.svd"],
            "kernel.svd.self_s": leaf_s["kernel.svd"],
            "checks.gen_s": total_s("checks.gen"),
            "checks.residual_s": total_s("checks.residual"),
            "checks.inputs": inputs,
            "checks.residual_us_per_input": per(total_s("checks.residual"), inputs),
            "checks.registry_builds": calls("checks.build_registry"),
            "checks.render_json_s": total_s("checks.render_json"),
            "checks.render_json_bytes": value("checks.render_json"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }

"""Span tracing of the library from outside it, and the per-layer metrics
computed from the spans.

The tracer replaces the public functions of the measured layers with
wrappers in every namespace of the package that binds them. The modules
bind each other's functions with ``from .x import f``, so a call is traced
only if the name is replaced where the caller looks it up: for example
``multinoise.design.feasible_gare_solution`` as well as
``multinoise.gare.feasible_gare_solution``. Nothing under ``src/`` changes.

Each call records one span (name, start, end, parent) in flat arrays kept in
memory, and the work counts read from its return value or arguments. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import sys
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import multinoise.cli  # binds multinoise; cli is not imported by the package

#: Package modules whose public functions are measured, by layer name.
#: ``model`` does no measurable work and gets no spans.
LAYERS = ("matops", "stability", "gare", "margins", "design", "verify",
          "problems", "cli")

#: Helpers called inside every other primitive: wrapping them would measure
#: the tracer, not the work. Of ``cli`` only the entry point is wrapped.
_SKIP = {"matops": {"symmetrize", "vec", "unvec"}}
_ONLY = {"cli": {"main"}}

_MARGIN_METHODS = ("shared_uni", "shared_bi", "aux", "cons_lin",
                   "cons_simple", "single_direction")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _span_name(layer: str, fname: str, args, kwargs) -> str:
    # margin methods are named after the CLI method they implement
    if fname == "shared_lyapunov_margins":
        bi = _arg(args, kwargs, 4, "bidirectional", False)
        return "margins.shared_bi" if bi else "margins.shared_uni"
    if fname == "conservative_margins":
        kind = str(getattr(_arg(args, kwargs, 3, "kind"), "value", ""))
        return ("margins.cons_simple" if kind == "cons-simple"
                else "margins.cons_lin")
    if fname == "aux_system_margins":
        return "margins.aux"
    if fname == "single_direction_margin":
        return "margins.single_direction"
    return f"{layer}.{fname}"


class Tracer:
    """Records spans and work counts of wrapped library calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._chunks: list[tuple] = []
        self._new_buffers()

    def _new_buffers(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, fn):
        fname = fn.__name__
        tracer = self

        def traced(*args, **kwargs):
            if fname == "bisect_max_feasible":
                args, kwargs = tracer._counting_predicate(args, kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(
                tracer._id(_span_name(layer, fname, args, kwargs)))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            tracer._record(fname, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fname
        return traced

    def _counting_predicate(self, args, kwargs):
        feasible = _arg(args, kwargs, 0, "feasible")
        # design's bisection closures are named feasible_z (variance scale)
        # and feasible_y (margin scale); all others are margin bisections
        qual = getattr(feasible, "__qualname__", "")
        kind = None
        if getattr(feasible, "__module__", "") == "multinoise.design":
            kind = "z" if qual.endswith("feasible_z") else "y"
        counts = self.counts

        def counted(y):
            counts["bisect.probes"] += 1
            if kind:
                counts[f"design.{kind}_probes"] += 1
            return feasible(y)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, feasible=counted)

    def _record(self, fname, args, kwargs, result):
        c = self.counts
        if fname == "solve_gare":
            c["gare.iterations"] += result.iterations
            if not result.converged:
                opts = _arg(args, kwargs, 3, "opts")
                cap = (opts or multinoise.GareOptions()).max_iter
                c["gare.cap_hits" if result.iterations >= cap
                  else "gare.blowups"] += 1
        elif fname == "feasible_gare_solution":
            c["gare.feasible"] += result is not None
        elif fname in ("design_algorithm_1", "design_algorithm_2"):
            self.samples["design.y_star"].append(result.y_star)
        elif fname in ("shared_lyapunov_margins", "conservative_margins",
                       "aux_system_margins"):
            self.samples["margins.y_star"].append(result.y_star)
        elif fname == "grid_verify":
            c["verify.grid_points"] += result.samples
        elif fname == "simulate_second_moment":
            cfg = _arg(args, kwargs, 2, "cfg")
            c["verify.trial_steps"] += cfg.trials * cfg.horizon

    def install(self) -> None:
        """Replace every public function of the measured layers, in every
        package namespace that binds it, with its traced wrapper."""
        modules = {name: sys.modules[f"multinoise.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in _SKIP.get(layer, ())
                        and name in _ONLY.get(layer, (name,))):
                    wrappers[obj] = self._wrap(layer, obj)
        namespaces = [multinoise] + [
            m for n, m in sys.modules.items() if n.startswith("multinoise.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched.clear()

    # ------------------------------------------------------------- passes

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call; the
        spans are kept for :meth:`write`."""
        if self._stack:
            raise RuntimeError("a traced call is still open")
        metrics = layer_metrics(self)
        self._chunks.append((self.name_id, self.parent, self.start, self.end))
        self._new_buffers()
        return metrics

    def write(self, path: Path) -> None:
        """Write every recorded span once, as arrays: ``names`` indexes the
        span names, ``pass_start`` the first span of each traced pass, and
        ``parent`` is relative to that pass."""
        path.parent.mkdir(parents=True, exist_ok=True)

        def cat(k, dtype):
            return np.concatenate(
                [np.frombuffer(c[k], dtype=dtype) for c in self._chunks])

        sizes = [len(c[0]) for c in self._chunks]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            pass_start=np.cumsum([0] + sizes[:-1]),
            name_id=cat(0, np.int32), parent=cat(1, np.int32),
            start=cat(2, np.float64), end=cat(3, np.float64),
        )


#: The per-layer metrics, each with its unit and the better direction.
PER_LAYER = [
    ("gare.solve_gare.calls", "count", "lower"),
    ("gare.solve_gare.self_s", "s", "lower"),
    ("gare.solve_gare.iterations", "count", "lower"),
    ("gare.solve_gare.us_per_iter", "us", "lower"),
    ("gare.solve_gare.cap_hits", "count", "lower"),
    ("gare.solve_gare.blowups", "count", "lower"),
    ("gare.feasible_gare_solution.calls", "count", "lower"),
    ("gare.feasible_gare_solution.feasible_ratio", "ratio", "higher"),
    ("margins.bisect_max_feasible.calls", "count", "lower"),
    ("margins.bisect_max_feasible.probes", "count", "lower"),
    ("margins.bisect_max_feasible.probes_per_call", "count", "lower"),
    ("margins.bisect_max_feasible.self_s", "s", "lower"),
    ("margins.nlmi_feasible.calls", "count", "lower"),
    ("margins.nlmi_feasible.self_s", "s", "lower"),
    ("matops.psd_split.calls", "count", "lower"),
] + [(f"margins.{m}.s", "s", "lower") for m in _MARGIN_METHODS] + [
    ("margins.y_star_gmean", "1", "higher"),
    ("stability.is_mean_square_stable.calls", "count", "lower"),
    ("stability.is_mean_square_stable.self_s", "s", "lower"),
    ("stability.solve_gle.calls", "count", "lower"),
    ("stability.solve_gle.self_s", "s", "lower"),
    ("matops.spectral_radius.calls", "count", "lower"),
    ("matops.spectral_radius.self_s", "s", "lower"),
    ("design.design_algorithm_1.s", "s", "lower"),
    ("design.design_algorithm_2.s", "s", "lower"),
    ("design.certainty_equivalent.s", "s", "lower"),
    ("design.z_probes", "count", "lower"),
    ("design.y_probes", "count", "lower"),
    ("design.diagnostics_grid.s", "s", "lower"),
    ("design.y_star_gmean", "1", "higher"),
    ("verify.grid_verify.calls", "count", "lower"),
    ("verify.grid_verify.s", "s", "lower"),
    ("verify.grid_verify.points", "count", "higher"),
    ("verify.grid_verify.points_per_s", "1/s", "higher"),
    ("verify.simulate_second_moment.s", "s", "lower"),
    ("verify.simulate_second_moment.trial_steps_per_s", "1/s", "higher"),
    ("verify.exact_moment_recursion.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("problems.certificate_from_dict.s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def gmean(values) -> float:
    """Geometric mean; 0 for no values or when any value is 0."""
    values = [float(v) for v in values]
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans currently in the tracer's buffers,
    except ``trace.overhead_s``, which the runner fills in."""
    k = len(tr.names)
    nid = np.frombuffer(tr.name_id, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    by_calls = np.bincount(nid, minlength=k)
    by_dur = np.bincount(nid, weights=dur, minlength=k)
    by_own = np.bincount(nid, weights=dur - child, minlength=k)

    def per_name(values, name):
        i = tr._ids.get(name)
        return values[i].item() if i is not None else 0

    def calls(name):
        return int(per_name(by_calls, name))

    def total(name):
        return float(per_name(by_dur, name))

    def own(name):
        return float(per_name(by_own, name))

    # grid sweeps run by a design's inline diagnostic, found through the
    # span parents
    diag = 0.0
    grid = tr._ids.get("verify.grid_verify", -1)
    for i in np.flatnonzero(nid == grid):
        j = parent[i]
        while j >= 0 and not tr.names[nid[j]].startswith("design."):
            j = parent[j]
        if j >= 0:
            diag += dur[i]

    c = tr.counts
    m = {
        "gare.solve_gare.calls": calls("gare.solve_gare"),
        "gare.solve_gare.self_s": own("gare.solve_gare"),
        "gare.solve_gare.iterations": c["gare.iterations"],
        "gare.solve_gare.cap_hits": c["gare.cap_hits"],
        "gare.solve_gare.blowups": c["gare.blowups"],
        "gare.feasible_gare_solution.calls":
            calls("gare.feasible_gare_solution"),
        "margins.bisect_max_feasible.calls":
            calls("margins.bisect_max_feasible"),
        "margins.bisect_max_feasible.probes": c["bisect.probes"],
        "margins.bisect_max_feasible.self_s":
            own("margins.bisect_max_feasible"),
        "margins.nlmi_feasible.calls": calls("margins.nlmi_feasible"),
        "margins.nlmi_feasible.self_s": own("margins.nlmi_feasible"),
        "matops.psd_split.calls": calls("matops.psd_split"),
        "margins.y_star_gmean": gmean(tr.samples["margins.y_star"]),
        "design.z_probes": c["design.z_probes"],
        "design.y_probes": c["design.y_probes"],
        "design.diagnostics_grid.s": diag,
        "design.y_star_gmean": gmean(tr.samples["design.y_star"]),
        "verify.grid_verify.calls": calls("verify.grid_verify"),
        "verify.grid_verify.s": total("verify.grid_verify"),
        "verify.grid_verify.points": c["verify.grid_points"],
        "verify.simulate_second_moment.s":
            total("verify.simulate_second_moment"),
        "verify.exact_moment_recursion.s":
            total("verify.exact_moment_recursion"),
        "cli.main.s": total("cli.main"),
        "problems.certificate_from_dict.s":
            total("problems.certificate_from_dict"),
        "trace.spans": int(nid.size),
    }
    m["gare.solve_gare.us_per_iter"] = 1e6 * _ratio(
        m["gare.solve_gare.self_s"], m["gare.solve_gare.iterations"])
    m["gare.feasible_gare_solution.feasible_ratio"] = _ratio(
        c["gare.feasible"], m["gare.feasible_gare_solution.calls"])
    m["margins.bisect_max_feasible.probes_per_call"] = _ratio(
        m["margins.bisect_max_feasible.probes"],
        m["margins.bisect_max_feasible.calls"])
    m["verify.grid_verify.points_per_s"] = _ratio(
        m["verify.grid_verify.points"], m["verify.grid_verify.s"])
    m["verify.simulate_second_moment.trial_steps_per_s"] = _ratio(
        c["verify.trial_steps"], m["verify.simulate_second_moment.s"])
    for method in _MARGIN_METHODS:
        m[f"margins.{method}.s"] = total(f"margins.{method}")
    for name in ("stability.is_mean_square_stable", "stability.solve_gle",
                 "matops.spectral_radius"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    for fname in ("design_algorithm_1", "design_algorithm_2",
                  "certainty_equivalent"):
        m[f"design.{fname}.s"] = total(f"design.{fname}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            by_own[i] for name, i in tr._ids.items()
            if name.startswith(layer + ".")))
    return m

"""Span tracing of zonekit, installed from outside the package.

`install` rebinds every public function and method of the imported zonekit
modules, and the function of each `verify` check, to a wrapper that records
one span per call.  Spans are folded into per-name totals as they close, so
memory stays flat however many calls a workload makes.  `Installation.restore`
puts every original object back.

Wrapped in each class: public methods, ``__init__`` and the arithmetic
operators.  Private helpers (``_moment``, ``_zone_basis_cached``, ...) and
properties are not wrapped: their time is the self time of the public caller.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

PACKAGE = "zonekit"
_WRAPPED_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


class Stat:
    """Totals for one span name: calls, inclusive and self seconds, counters."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "counts": self.counts}


class Tracer:
    """Nested spans on one thread; self time = duration minus child durations.

    Calls nest strictly on a single thread, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._child_s: list[float] = []

    def begin(self) -> float:
        self._child_s.append(0.0)
        return self.clock()

    def end(self, name: str, start: float) -> Stat:
        dt = self.clock() - start
        child = self._child_s.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total_s += dt
        st.self_s += dt - child
        if self._child_s:
            self._child_s[-1] += dt
        return st


# ---- counters taken at layer boundaries -------------------------------------------
# Each hook runs after its span has closed, so its own cost is not in the
# layer's self time.  It receives the call's arguments and result.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(pos_a, name_a, pos_b, name_b):
    def hook(counts, args, kwargs, result):
        import numpy as np
        a = np.shape(_arg(args, kwargs, pos_a, name_a))
        b = np.shape(_arg(args, kwargs, pos_b, name_b))
        lead = np.broadcast_shapes(a[:-1] or (1,), b[:-1] or (1,))
        counts["pairs"] = counts.get("pairs", 0) + math.prod(lead)
    return hook


def _write_csv(counts, args, kwargs, result):
    grid = args[0]
    counts["rows"] = counts.get("rows", 0) + len(grid.points_X) * len(grid.points_Y)
    path = _arg(args, kwargs, 1, "path")
    counts["bytes"] = counts.get("bytes", 0) + os.path.getsize(path)


def _feynman_kac(counts, args, kwargs, result):
    # the sweep builds one dense N x N complex step matrix, N = order^k nodes
    n_slices = _arg(args, kwargs, 5, "n_slices")
    k = _arg(args, kwargs, 6, "params").k
    order = args[7] if len(args) > 7 else kwargs.get("order", 48)
    check = args[9] if len(args) > 9 else kwargs.get("check_convergence", False)
    orders = (order, order + order // 2) if check else (order,)
    step = max(16 * (q ** k) ** 2 for q in orders) if n_slices > 1 else 0
    counts["step_bytes"] = max(counts.get("step_bytes", 0), step)


def _hermite_grid(counts, args, kwargs, result):
    order = _arg(args, kwargs, 0, "order")
    dim = _arg(args, kwargs, 2, "dim")
    counts["nodes"] = counts.get("nodes", 0) + order ** dim


def _laguerre(counts, args, kwargs, result):
    import numpy as np
    counts["points"] = counts.get("points", 0) + int(np.size(_arg(args, kwargs, 2, "t")))


def _inner_product(counts, args, kwargs, result):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    counts["term_pairs"] = (counts.get("term_pairs", 0)
                            + len(f.coefficients) * len(g.coefficients))


def _zone_basis(counts, args, kwargs, result):
    counts["states"] = counts.get("states", 0) + len(result)


HOOKS = {
    "propagators.KernelGrid.write_csv": _write_csv,
    "propagators.global_kernel": _pairs(2, "X", 3, "Y"),
    "propagators.zonal_kernel": _pairs(3, "X", 4, "Z"),
    "zones.zone_kernel": _pairs(1, "Z", 2, "W"),
    "path_measure.discretized_feynman_kac": _feynman_kac,
    "special.flat_hermite_grid": _hermite_grid,
    "special.laguerre": _laguerre,
    "algebra.inner_product": _inner_product,
    "zones.zone_basis": _zone_basis,
}


# ---- install / restore ------------------------------------------------------------


def _wrap(fn, name: str, tracer: Tracer):
    begin, end, hook = tracer.begin, tracer.end, HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = begin()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end(name, t0)
            raise
        st = end(name, t0)
        if hook is not None:
            hook(st.counts, args, kwargs, result)
        return result

    return traced


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") \
        else module_name


def package_modules() -> list:
    """The imported zonekit package and submodules, sorted by name."""
    return [sys.modules[n] for n in sorted(sys.modules)
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _public_functions(mod):
    for key, obj in vars(mod).items():
        if (not key.startswith("_") and hasattr(obj, "__code__")
                and obj.__module__ == mod.__name__):
            yield obj


def _public_classes(mod):
    for key, obj in vars(mod).items():
        if (isinstance(obj, type) and not key.startswith("_")
                and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException)):
            yield obj


def _class_targets(cls):
    for key, obj in list(vars(cls).items()):
        if key.startswith("_") and key not in _WRAPPED_DUNDERS:
            continue
        if isinstance(obj, (classmethod, staticmethod)) or hasattr(obj, "__code__"):
            yield key, obj


class Installation:
    """Records each rebinding so that `restore` can undo all of them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def install(tracer: Tracer) -> Installation:
    """Wrap the public zonekit surface so every call records a span in `tracer`."""
    modules = package_modules()
    inst = Installation()
    wrappers: dict[int, object] = {}
    for mod in modules:
        for fn in _public_functions(mod):
            wrappers[id(fn)] = _wrap(fn, f"{_short(mod.__name__)}.{fn.__qualname__}", tracer)
        for cls in _public_classes(mod):
            for key, obj in _class_targets(cls):
                name = f"{_short(mod.__name__)}.{cls.__qualname__}.{key}"
                if isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(_wrap(obj.__func__, name, tracer))
                else:
                    new = _wrap(obj, name, tracer)
                inst._set(cls, key, new)
    # rebind every module-level reference, so intra-package calls are traced too
    for mod in modules:
        for key, obj in list(vars(mod).items()):
            new = wrappers.get(id(obj))
            if new is not None:
                inst._set(mod, key, new)
    verify = sys.modules.get(PACKAGE + ".verify")
    for entry in getattr(verify, "CHECKS", ()):
        inst._set(entry, "fn", _wrap(entry["fn"], f"verify.check.{entry['name']}", tracer))
    return inst


def basis_cache_info():
    """(hits, misses) of the zone-basis cache, or None when zones is not imported."""
    zones = sys.modules.get(PACKAGE + ".zones")
    cached = getattr(zones, "_zone_basis_cached", None)
    if cached is None:
        return None
    info = cached.cache_info()
    return info.hits, info.misses


# ---- per-layer metrics -------------------------------------------------------------

SLOW_CHECKS = ("trace_identity", "cylinder_total_measure", "global_feynman_divergence",
               "global_flow_zonal_decomposition_wk", "feynman_kac_convergence")


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(stats: dict, cache: tuple | None) -> dict:
    """Per-layer metrics of one traced run, from its span totals.

    `stats` maps span name to `Stat.to_dict()`; `cache` is `basis_cache_info()`.
    Returns name -> (value, unit).  A layer the workload never calls reads 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def st(name):
        return stats.get(name, empty)

    def self_under(prefix):
        return sum((s["self_s"] for n, s in stats.items() if n.startswith(prefix)), 0.0)

    out = {}
    w = st("propagators.KernelGrid.write_csv")
    rows = w["counts"].get("rows", 0)
    out["propagators.KernelGrid.write_csv.rows"] = (rows, "count")
    out["propagators.KernelGrid.write_csv.bytes"] = (w["counts"].get("bytes", 0), "B")
    out["propagators.KernelGrid.write_csv.self_s"] = (w["self_s"], "s")
    out["propagators.KernelGrid.write_csv.us_per_row"] = (_ratio(w["self_s"], rows, 1e6), "us")
    for name in ("propagators.zonal_kernel", "propagators.global_kernel", "zones.zone_kernel"):
        s = st(name)
        pairs = s["counts"].get("pairs", 0)
        out[f"{name}.pairs"] = (pairs, "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        out[f"{name}.s_per_mpair"] = (_ratio(s["self_s"], pairs, 1e6), "s/Mpair")
    s = st("path_measure.discretized_feynman_kac")
    out["path_measure.discretized_feynman_kac.calls"] = (s["calls"], "count")
    out["path_measure.discretized_feynman_kac.self_s"] = (s["self_s"], "s")
    out["path_measure.discretized_feynman_kac.step_bytes"] = (
        s["counts"].get("step_bytes", 0), "B")
    s = st("path_measure.cylinder_measure")
    out["path_measure.cylinder_measure.calls"] = (s["calls"], "count")
    out["path_measure.cylinder_measure.self_s"] = (s["self_s"], "s")
    s = st("special.flat_hermite_grid")
    out["special.flat_hermite_grid.calls"] = (s["calls"], "count")
    out["special.flat_hermite_grid.nodes"] = (s["counts"].get("nodes", 0), "count")
    out["special.flat_hermite_grid.self_s"] = (s["self_s"], "s")
    s = st("special.laguerre")
    out["special.laguerre.points"] = (s["counts"].get("points", 0), "count")
    out["special.laguerre.self_s"] = (s["self_s"], "s")
    s = st("algebra.inner_product")
    term_pairs = s["counts"].get("term_pairs", 0)
    out["algebra.inner_product.calls"] = (s["calls"], "count")
    out["algebra.inner_product.term_pairs"] = (term_pairs, "count")
    out["algebra.inner_product.self_s"] = (s["self_s"], "s")
    out["algebra.inner_product.ns_per_term_pair"] = (_ratio(s["self_s"], term_pairs, 1e9), "ns")
    out["algebra.ZonePolynomial.constructed"] = (st("algebra.ZonePolynomial.__init__")["calls"],
                                                 "count")
    out["algebra.ZonePolynomial.self_s"] = (self_under("algebra.ZonePolynomial."), "s")
    s = st("zones.zone_basis")
    out["zones.zone_basis.calls"] = (s["calls"], "count")
    out["zones.zone_basis.states"] = (s["counts"].get("states", 0), "count")
    out["zones.zone_basis.self_s"] = (s["self_s"], "s")
    hits, misses = cache or (0, 0)
    out["zones.basis_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    for module in ("thermo", "padi", "extensions"):
        out[f"{module}.self_s"] = (self_under(module + "."), "s")
    for check in SLOW_CHECKS:
        out[f"verify.check.{check}.s"] = (st(f"verify.check.{check}")["total_s"], "s")
    out["cli.main.self_s"] = (st("cli.main")["self_s"], "s")
    return out


def total_self_s(stats: dict) -> float:
    """Sum of self time over every span: the time spent inside traced calls."""
    return sum(s["self_s"] for s in stats.values())

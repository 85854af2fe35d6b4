"""Spans around the calls into mlk's layers, recorded from outside the package.

``install`` wraps every public function of the layer modules, and
``GramMatrix.__init__``, at every module binding it is reachable through:
modules import each other's functions by name (``bounds`` holds its own
``cube_norm_batch``, ``cli`` its own ``height_lower_bound``), so patching
only the defining module would miss those calls. Spans are recorded only
while a span opened by the benchmark is open, and are kept in memory until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "theta", "quadrature", "siegel", "bounds", "oracle", "cli")


class Tracer:
    """Span recorder: each span is [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def begin(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None):
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")
        span = self.spans[sid]
        span[2] = time.perf_counter()
        if attrs:
            span[4].update(attrs)

    def adopt(self, spans: list[list], parent: int):
        """Spans written by another process, their roots put under ``parent``.
        ``perf_counter`` is the system-wide monotonic clock, so the times of
        both processes are comparable."""
        base = len(self.spans)
        for name, start, end, p, attrs in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, attrs])


def _call_attrs(name: str, args) -> dict:
    attrs = {}
    first = args[0] if args else None
    g = getattr(first, "g", None)
    if isinstance(g, int):
        attrs["g"] = g
    if name in ("theta.cube_norm_batch", "theta.f_series_batch", "lattice.psi_sq_batch"):
        pts = args[2] if name == "theta.f_series_batch" else args[1]
        shape = getattr(pts, "shape", None)
        attrs["points"] = int(shape[0]) if shape and len(shape) == 2 else 1
    elif name == "siegel.injectivity_diameter":
        attrs["embedding"] = id(first)
    return attrs


def _result_attrs(name: str, out) -> dict:
    if name == "theta.f_series_batch":
        return {"terms": int(out[2])}
    if name == "quadrature.integrate_cube":
        return {"points": int(out.n_points)}
    if name == "bounds.archimedean_invariant":
        return {"n_clipped": int(out.n_clipped)}
    if name == "bounds.verify_chain":
        return {"checks_failed": sum(1 for e in out.entries if not e.passed)}
    return {}


def _wrap(tracer: Tracer, name: str, fn, self_is_first: bool = False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        sid = tracer.begin(name, _call_attrs(name, args[1:] if self_is_first else args))
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(sid, {"error": type(exc).__name__,
                             "cap": "exceeds cap" in str(exc)})
            raise
        tracer.end(sid, _result_attrs(name, out))
        return out

    return traced


def install(tracer: Tracer):
    """Wrap the layer functions; returns a callable that restores them."""
    import mlk  # noqa: F401  (loads every layer module)
    import mlk.cli  # noqa: F401

    from mlk.lattice import GramMatrix

    modules = [m for n, m in list(sys.modules.items()) if n == "mlk" or n.startswith("mlk.")]
    restore = []
    for layer in LAYERS:
        mod = sys.modules[f"mlk.{layer}"]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = _wrap(tracer, f"{layer}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        restore.append((m, key, fn))
    init = GramMatrix.__init__
    GramMatrix.__init__ = _wrap(tracer, "lattice.GramMatrix", init, self_is_first=True)
    restore.append((GramMatrix, "__init__", init))

    def uninstall():
        for owner, key, fn in reversed(restore):
            setattr(owner, key, fn)

    return uninstall


def summarize(spans: list[list], groups: dict[int, str] | None = None) -> dict:
    """Per-function and per-layer aggregates of a finished trace.

    Self time is a span's duration minus that of its direct children. Root
    spans are the benchmark's own operations; their total is the traced
    wall time, which the self times of all spans add up to exactly.
    ``groups`` maps root span index -> operation group, for the
    per-group ratio of injectivity-diameter calls per embedding.
    """
    n = len(spans)
    child_time = [0.0] * n
    root_of = [0] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    fn = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0})
    by_g = defaultdict(lambda: {"self_s": 0.0, "points": 0, "terms": 0})
    layer_self = defaultdict(float)
    embeddings = defaultdict(set)
    inj_calls = defaultdict(int)
    cap_errors = 0
    wall = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[i]
        if parent < 0:
            wall += dur
        rec = fn[name]
        rec["calls"] += 1
        rec["self_s"] += self_s
        layer_self[name.split(".")[0]] += self_s
        if attrs.get("cap") and (parent < 0 or not spans[parent][0].startswith("lattice.")):
            cap_errors += 1
        if "embedding" in attrs:
            group = (groups or {}).get(root_of[i], "all")
            embeddings[group].add((root_of[i], attrs["embedding"]))
            inj_calls[group] += 1
        if "error" in attrs:  # a call that raised did no work per point
            continue
        rec["points"] += attrs.get("points", 0)
        for key in ("n_clipped", "checks_failed"):
            if key in attrs:
                rec[key] = rec.get(key, 0) + attrs[key]
        if "g" in attrs and "points" in attrs:
            cell = by_g[(name, attrs["g"])]
            cell["self_s"] += self_s
            cell["points"] += attrs["points"]
            cell["terms"] = max(cell["terms"], attrs.get("terms", 0))
    per_g = {}
    for (name, g), cell in sorted(by_g.items()):
        if cell["points"]:
            per_g[f"{name}.us_per_point.g{g}"] = 1e6 * cell["self_s"] / cell["points"]
        if cell["terms"]:
            per_g[f"{name}.terms.g{g}"] = cell["terms"]
    n_emb = sum(len(v) for v in embeddings.values())
    return {
        "wall_s": wall,
        "functions": {k: dict(v) for k, v in sorted(fn.items())},
        "layers": dict(sorted(layer_self.items())),
        "per_g": per_g,
        "enum_cap_errors": cap_errors,
        "calls_per_embedding": sum(inj_calls.values()) / n_emb if n_emb else 0.0,
        "calls_per_embedding_by_group": {
            grp: inj_calls[grp] / len(embeddings[grp]) for grp in sorted(embeddings)
        },
    }

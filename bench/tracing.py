"""Span tracer for the per-layer metrics, installed from outside the library.

``Tracer.install()`` replaces, in every ``localsym`` module namespace, each
function that module can call in another ``localsym`` module (the layer
below), plus each public function in its own module, with a wrapper that
records a span (name, start, end, parent).  The library looks these names
up at call time, so the wrappers see every call crossing a module boundary
without any edit to ``src/``.  ``stabilizer._search`` is wrapped as well:
it is the restart loop, and its arguments and result give the exact
restart and witness counts.

Spans are kept in memory as flat lists and written out once, at the end.
A span's layer is the module that defines the function.  Self time is a
span's duration minus the durations of its direct children; the calls run
on one thread, so children never overlap and their durations add.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("states", "invariants", "critical", "stabilizer", "convert",
          "genericity", "io", "cli")

# Module-private functions traced in addition to the public ones.
PRIVATE_HOOKS = {"stabilizer": ("_search",)}


def _layer_of(func) -> str | None:
    mod = getattr(func, "__module__", "") or ""
    if mod.startswith("localsym."):
        layer = mod.split(".", 1)[1]
        return layer if layer in LAYERS else None
    return None


def _public_names(module) -> set[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names) | set(PRIVATE_HOOKS.get(module.__name__.split(".")[1], ()))


class Tracer:
    """Records nested spans around library calls; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[object] = []  # per-span counts, see COUNTERS
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def _wrap(self, name: str, func):
        tracer = self
        count = COUNTERS[name](func) if name in COUNTERS else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # a function calling itself (io.jsonify) stays one span
            if tracer._stack and tracer.names[tracer._stack[-1]] == name:
                return func(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = func(*args, **kwargs)
                if count is not None:
                    tracer.counts[idx] = count(args, kwargs, out)
                return out
            finally:
                tracer.close(idx)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"localsym.{layer}")
            public = _public_names(module)
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = _layer_of(value)
                if home is None:
                    continue
                if home == layer and attr not in public:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{home}.{value.__name__}", value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [[n, s, e, p] for n, s, e, p in
                                 zip(self.names, self.starts, self.ends,
                                     self.parents)]}, fh)
            fh.write("\n")


def _search_counts(func):
    """(restarts run, distinct verified witnesses) of one search call."""
    sig = inspect.signature(func)

    def count(args, kwargs, out):
        return int(sig.bind(*args, **kwargs).arguments["restarts"]), len(out)
    return count


def _scaling_sweeps(func):
    """Sweeps of one scaling run, from ``ScalingResult.iterations``."""
    return lambda args, kwargs, out: int(out.iterations)


# Span names whose calls also yield a count, and how to read it.
COUNTERS = {
    "stabilizer._search": _search_counts,
    "critical.scale_to_critical": _scaling_sweeps,
}

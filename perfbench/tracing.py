"""Per-layer tracing from outside the package.

:class:`Tracer` wraps the public functions of each exporder module (the
names in its ``__all__``) and two ``RationalFunction`` methods, and rebinds
every module global that refers to them, so calls made through
``from .x import f`` are seen too.  For each wrapped name it records calls,
total time and self time (total minus the time of wrapped calls made inside
it); self time is also summed per module.  A few counters are taken at the
same boundaries: variates drawn, KS sample points, fraction-sum terms and
time per identity id.  Spans live in memory only.  ``observers`` maps a
wrapped name to a function that is called with each result of that name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("exact", "laplace", "identities", "distributions", "sampling", "convergence", "cli")
METHODS = ("RationalFunction.derivative", "RationalFunction.evaluate")  # in exact

# variates drawn per call of each sampler, from its bound arguments
_DRAWS = {
    "sampling.sample_exponential": lambda a: a["count"],
    "sampling.sample_orderstat_direct": lambda a: a["count"] * a["p"].n,
    "sampling.sample_orderstat_representation": lambda a: a["count"] * a["p"].k,
    "sampling.sample_normalized_spacings": lambda a: a["count"] * a["n"],
    "sampling.sample_zn": lambda a: a["count"] * a["n"],
    "sampling.sample_race_indicators": lambda a: a["count"] * (a["p"].n + a["g"].r),
}
_KS_POINTS = {
    "convergence.ks_one_sample": lambda a: a["batch"].values.size,
    "convergence.ks_two_sample": lambda a: a["a"].values.size + a["b"].values.size,
}


class Tracer:
    """Install with :meth:`install`, run exporder, read, then :meth:`uninstall`."""

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.module_self: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.identity_s: dict = defaultdict(float)
        self.names: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list = []

    def install(self) -> None:
        mods = {m: importlib.import_module(f"exporder.{m}") for m in MODULES}
        wrappers = {}
        for label, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{label}.{name}", label, obj)
        for mod in (*mods.values(), importlib.import_module("exporder")):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        for qual in METHODS:
            cls_name, meth = qual.split(".")
            cls = getattr(mods["exact"], cls_name)
            self._set(cls, meth, self._wrap(f"exact.{qual}", "exact", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name: str, module: str, fn):
        self.names.append(name)
        before = self._before(name, fn)
        after = self._after(name)
        stack, calls, total, module_self = self._stack, self.calls, self.total, self.module_self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                args = before(args, kwargs)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                module_self[module] += dt - child[0]
            if after:
                after(result, dt)
            return result

        return wrapper

    def _before(self, name: str, fn):
        counts = self.counts
        if name == "exact.sum_fractions":
            def count_terms(args, kwargs):
                def counted(terms):
                    for t in terms:
                        counts["exact.sum_fractions_terms"] += 1
                        yield t
                return (counted(args[0]), *args[1:])
            return count_terms
        for key, table in (("sampling.draws", _DRAWS), ("convergence.ks_points", _KS_POINTS)):
            if name in table:
                sig, size = inspect.signature(fn), table[name]

                def count(args, kwargs, key=key, sig=sig, size=size):
                    counts[key] += size(sig.bind(*args, **kwargs).arguments)
                    return args
                return count
        return None

    def _after(self, name: str):
        if name.startswith("identities.verify_"):
            def by_identity(report, dt):
                self.identity_s[report.identity_id] += dt
                self.counts["identities.checks"] += 1
            return by_identity
        if name in self.observers:
            observer = self.observers[name]
            return lambda result, dt: observer(name, result)
        return None

    def self_total(self) -> float:
        return sum(self.module_self.values())

    def metrics(self) -> dict:
        """Flat name -> value map; every wrapped name appears, zero if never called."""
        out = {}
        for name in self.names:
            out[f"{name}_s"] = self.total[name]
            out[f"{name}_calls"] = self.calls[name]
        for module in MODULES:
            out[f"{module}.self_s"] = self.module_self[module]
        for iid, seconds in self.identity_s.items():
            out[f"identities.{iid}_s"] = seconds
        out["identities.checks"] = self.counts["identities.checks"]
        out["exact.sum_fractions_terms"] = self.counts["exact.sum_fractions_terms"]
        out["convergence.ks_points"] = self.counts["convergence.ks_points"]
        draws = self.counts["sampling.draws"]
        sampler_s = sum(self.total[name] for name in _DRAWS)
        out["sampling.draws"] = draws
        out["sampling.bytes_computed"] = 8 * draws
        out["sampling.draws_per_s"] = draws / sampler_s if sampler_s else 0.0
        return out

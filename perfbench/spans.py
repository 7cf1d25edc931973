"""Span tracer that wraps qromlab's public functions from outside.

``install`` replaces every public module-level function of the eight
modules, plain or under a functools wrapper such as ``lru_cache``, in
every qromlab namespace that binds it (``apply_unitary`` is bound in
``qsim``, ``oracle``, ``adversary`` and the package), plus the
constructor and methods named in ``METHODS``. Each wrapper records one
span per call and folds it into per-function totals: calls, inclusive
time, self time (inclusive minus the time of child spans) and a work
count. Times are integer nanoseconds, so a parent's self time is exact.

The untraced benchmark never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

from common import MODULES

# Classes whose constructor or methods are traced besides module functions.
METHODS = (
    ("qsim", "DensityOnRegister", "__init__"),
    ("oracle", "SparseOracleDist", "enumerate_weighted"),
    ("hashfam", "TwoQWiseFamily", "flagged_keys"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# span name -> (work metric suffix, work(args, kwargs, result) -> int).
# A generator span counts the items it yields instead.
WORK: dict[str, tuple[str, Callable]] = {
    "adversary.apply_step": (
        "amps", lambda a, k, r: _arg(a, k, 1, "state").amplitudes.size),
    "qsim.apply_unitary": (
        "amps", lambda a, k, r: _arg(a, k, 0, "state").amplitudes.size),
    "oracle.quantum_query": (
        "amps", lambda a, k, r: _arg(a, k, 0, "state").amplitudes.size),
    "adversary.run_query_algorithm": ("branches", lambda a, k, r: len(r)),
    "transforms.enumerate_schedules": ("schedules", lambda a, k, r: len(r)),
    "hashfam.build_efficient_adjuster": (
        "dim", lambda a, k, r: _arg(a, k, 1, "fam").key_count),
    "oracle.SparseOracleDist.enumerate_weighted": ("tables", lambda a, k, r: len(r)),
}

# build_verifier's distinct_ratio: the distinct configurations built in
# each pass, summed over passes, divided by all builds.
VERIFIER = "adversary.build_verifier"


def _verifier_config(args, kwargs):
    spec = _arg(args, kwargs, 1, "spec")
    fixed = kwargs.get("fixed") or {}
    family = kwargs.get("family")
    return (
        _arg(args, kwargs, 0, "kind"), spec.name, spec.rounds,
        repr(_arg(args, kwargs, 2, "x")), str(kwargs.get("eps")),
        None if family is None else repr(family),
        tuple(sorted((role, repr(v)) for role, v in fixed.items())),
    )


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "work")

    def __init__(self) -> None:
        self.calls = self.incl_ns = self.self_ns = self.work = 0


def _defined_function(obj, mod) -> bool:
    """A function defined in ``mod``, plain or under a functools wrapper
    such as ``lru_cache`` (which is not a function but has ``__wrapped__``)."""
    return ((inspect.isfunction(obj) or hasattr(obj, "__wrapped__"))
            and callable(obj) and getattr(obj, "__module__", None) == mod.__name__)


class Tracer:
    """Per-function span totals; one instance per traced run."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._children = [0]  # child-span ns of each open span; [0] is the root
        self._verifiers: set = set()  # configurations built in this pass
        self.distinct_verifiers = 0
        self._restore: list[tuple[object, str, object]] = []

    @property
    def open_spans(self) -> int:
        return len(self._children) - 1

    def end_pass(self) -> None:
        """Close a pass: distinct configurations are counted per pass."""
        self.distinct_verifiers += len(self._verifiers)
        self._verifiers.clear()

    def _close(self, stat: Stat, t0: int) -> None:
        dt = time.perf_counter_ns() - t0
        child = self._children.pop()
        self._children[-1] += dt
        stat.incl_ns += dt
        stat.self_ns += dt - child

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        children, close = self._children, self._close
        work = WORK.get(name, (None, None))[1]
        built = self._verifiers.add if name == VERIFIER else None

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        children.append(0)
                        t0 = time.perf_counter_ns()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(stat, t0)
                        stat.work += 1
                        yield item
                finally:
                    it.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            stat.calls += 1
            if built is not None:
                built(_verifier_config(args, kwargs))
            children.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, t0)
            if work is not None:
                stat.work += work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions in every qromlab namespace."""
        mods = {m: importlib.import_module(f"qromlab.{m}") for m in MODULES}
        wrapped: dict[int, Callable] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _defined_function(obj, mod):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        namespaces = [sys.modules["qromlab"], *mods.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._rebind(ns, name, wrapped[id(obj)])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            span = f"{short}.{cls_name}" if attr == "__init__" else (
                f"{short}.{cls_name}.{attr}")
            self._rebind(cls, attr, self.wrap(span, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass calls, self seconds and work counts, plus module self time."""
    out: dict[str, float] = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for name, st in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = st.calls / passes
        out[f"{name}.self_s"] = st.self_ns / 1e9 / passes
        modules[name.split(".")[0]] += st.self_ns / 1e9 / passes
        if name in WORK:
            out[f"{name}.{WORK[name][0]}"] = st.work / passes
        if name == VERIFIER:
            out[f"{name}.distinct_ratio"] = (
                tracer.distinct_verifiers / st.calls if st.calls else 0.0)
    out.update({f"{m}.self_s": s for m, s in modules.items()})
    return out

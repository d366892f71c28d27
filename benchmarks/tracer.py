"""Run-time span tracer for the koszul layers.

``Tracer.install()`` wraps the public functions and methods of the layer
modules (``LAYERS``) from outside the package: no file under ``src/`` knows
about it.  Every call of a wrapped function records one span -- name id,
start, end and the index of its parent span -- in flat arrays kept in
memory, and ``Tracer.summary()`` turns them into per-span call counts and
self times after the run.  ``uninstall()`` restores every original binding.

Modules bind names at import (``from .forms import d`` in ``symplectic``,
``campaign``, ``volume``, ...), so a function is replaced wherever a
``koszul`` module holds it, not only in the module that defines it.  A
method is replaced on each public class of its layer that has it, inherited
or not, which covers every caller and keeps per-class counts apart.

A few spans also feed counters that are read off the call's arguments and
result (terms multiplied, constant factors, repeated ``delta`` arguments,
zero bracket values).  That bookkeeping runs outside the span it observes and
is itself recorded as a ``trace.observe`` span, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("poly", "forms", "symplectic", "brackets", "linfty", "volume", "poisson", "randgen", "grammar")

# Arithmetic dunders are the hot path of the exact kernel and are traced; no
# other dunder is.
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__"})
# Constant-time accessors: a wrapper would cost more than the call itself and
# would only move time into the caller's self time.
UNTRACED = frozenset({"is_zero", "is_constant", "constant_value", "as_polynomial"})

PACKAGE = "koszul"
ROOT = "campaign"
OBSERVE = "trace.observe"
_MISSING = object()


def _traced_name(name: str) -> bool:
    if name in TRACED_DUNDERS:
        return True
    return not name.startswith("_") and name not in UNTRACED


def traced_functions() -> dict[str, tuple[object, str, object]]:
    """Map span name -> (owner, attribute, original function) for every traced target.

    Functions are named ``<layer>.<name>`` and owned by their module.  Methods
    are named ``<layer>.<Class>.<name>`` for each public class of the layer
    and owned by that class, also when the class inherits the method: a
    method shared by two classes is then counted once per class.
    """
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(value) and _traced_name(attr):
                targets[f"{layer}.{attr}"] = (module, attr, value)
            elif inspect.isclass(value):
                for mattr in dir(value):
                    fn = inspect.getattr_static(value, mattr)
                    if inspect.isfunction(fn) and fn.__module__.startswith(PACKAGE) and _traced_name(mattr):
                        targets[f"{layer}.{attr}.{mattr}"] = (value, mattr, fn)
    return targets


class Tracer:
    """Span recorder for one process; install, run, uninstall, then summarise."""

    def __init__(self):
        self.names: list[str] = [ROOT, OBSERVE]
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.mul_term_products = 0
        self.mul_const = 0
        self.mul_out_coeffs = 0
        self.mul_out_fracs = 0
        self.delta_seen: set = set()
        self.delta_repeats = 0
        self.l_zero = 0

    # -- recording -----------------------------------------------------------

    def span(self, fn, nid: int, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(args, result)`` runs after it."""
        start, end, name_id, parent, stack = self.start, self.end, self.name_id, self.parent, self._stack
        perf = time.perf_counter

        if observe is None:

            def wrapper(*args, **kwargs):
                idx = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = perf()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                idx = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = perf()
                    stack.pop()
                obs = len(name_id)
                name_id.append(1)
                parent.append(stack[-1])
                start.append(perf())
                end.append(0.0)
                observe(args, result)
                end[obs] = perf()
                return result

        return functools.update_wrapper(wrapper, fn)

    def run(self, fn, *args):
        """Call ``fn(*args)`` under the root span; returns its result."""
        return self.span(fn, 0)(*args)

    # -- counters --------------------------------------------------------------

    def _observe_mul(self, args, result):
        a, b = args
        nb = len(b.terms) if hasattr(b, "terms") else 1
        self.mul_term_products += len(a.terms) * nb
        if _is_constant(a) or _is_constant(b):
            self.mul_const += 1
        coeffs = result.terms.values()
        self.mul_out_coeffs += len(coeffs)
        self.mul_out_fracs += sum(1 for c in coeffs if type(c) is Fraction)

    def _observe_delta(self, args, result):
        key = args[1]
        if key in self.delta_seen:
            self.delta_repeats += 1
        else:
            self.delta_seen.add(key)

    def _observe_l(self, args, result):
        if result.form.is_zero():
            self.l_zero += 1

    # -- installation ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = traced_functions()
        observers = {
            "poly.Polynomial.__mul__": self._observe_mul,
            "poly.Polynomial.__rmul__": self._observe_mul,
            "symplectic.SymplecticSpace.delta": self._observe_delta,
            "linfty.BracketFamily.l": self._observe_l,
        }
        wrappers = {}
        for name, (owner, attr, fn) in targets.items():
            self.names.append(name)
            wrapper = self.span(fn, len(self.names) - 1, observers.get(name))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrappers[fn] = wrapper
        # a module function is replaced wherever a koszul module holds it
        for mod_name, module in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary -------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never overlap.
        """
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = array("d", bytes(8 * len(name_id)))
        for p, s, e in zip(parent, start, end):
            if p >= 0:
                child[p] += e - s
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s, e, c in zip(name_id, start, end, child):
            calls[nid] += 1
            total[nid] += e - s
            own[nid] += e - s - c
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
            for i, name in enumerate(self.names)
        }


def _is_constant(p) -> bool:
    terms = getattr(p, "terms", None)
    if terms is None:
        return True
    return not terms or (len(terms) == 1 and not any(next(iter(terms))))

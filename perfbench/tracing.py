"""Span tracing of gatecalc's public entry points, done from outside the package.

``Tracer.install`` rebinds each entry point in ``TRACED`` to a wrapper that
records one span per call: name, parent span, start and end.  Module-level
functions are rebound in every loaded ``gatecalc`` module that holds them,
so the copies made by ``from .gates import ...`` in ``analysis``, ``synth``,
``grammar`` and ``search`` are traced too; methods are rebound on their
class.  Spans stay in memory in flat arrays until ``layer_metrics`` turns
them into per-layer figures; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from gatecalc import analysis, bitcore, cyclic, gates, grammar, search, synth

# span name -> (owner, attribute); an owner that is a class has the method
# rebound on the class, a module has the function rebound everywhere
TRACED = {
    "gates.compose": (gates.InertGate, "compose"),
    "gates.canonicalize": (gates, "canonicalize"),
    "gates.evaluate_expr": (gates, "evaluate_expr"),
    "gates.compose_many": (gates, "compose_many"),
    "analysis.classify_swap": (analysis, "classify_swap"),
    "analysis.in_GR": (analysis, "in_GR"),
    "analysis.in_GL": (analysis, "in_GL"),
    "analysis.in_GV": (analysis, "in_GV"),
    "bitcore.gf2_divides": (bitcore, "gf2_divides"),
    "synth.synthesize_nct": (synth, "synthesize_nct"),
    "cyclic.project_formula": (cyclic, "project_formula"),
    "cyclic.project_periodic": (cyclic, "project_periodic"),
    "cyclic.perm_compose": (cyclic.CyclicPerm, "compose"),
    "cyclic.is_even": (cyclic.CyclicPerm, "is_even"),
    "grammar.verify_on_ring": (grammar, "verify_on_ring"),
    "search.search": (search, "search"),
    "search.evaluate_word": (search, "evaluate_word"),
}

MEMBERSHIP = ("analysis.in_GR", "analysis.in_GL", "analysis.in_GV")

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "gates.compose.calls": "count",
    "gates.compose.self_s": "s",
    "gates.canonicalize.calls": "count",
    "gates.canonicalize.self_s": "s",
    "gates.evaluate_expr.calls": "count",
    "gates.evaluate_expr.self_s": "s",
    "gates.compose_many.self_s": "s",
    "gates.atoms_per_s": "atoms/s",
    "analysis.classify_swap.self_s": "s",
    "analysis.membership.calls": "count",
    "analysis.membership.self_s": "s",
    "bitcore.gf2_divides.calls": "count",
    "bitcore.gf2_divides.self_s": "s",
    "synth.synthesize_nct.calls": "count",
    "synth.synthesize_nct.self_s": "s",
    "synth.program_atoms": "count",
    "cyclic.project_periodic.calls": "count",
    "cyclic.project_periodic.self_s": "s",
    "cyclic.project_formula.calls": "count",
    "cyclic.project_formula.self_s": "s",
    "cyclic.perm_compose.calls": "count",
    "cyclic.perm_compose.self_s": "s",
    "cyclic.is_even.self_s": "s",
    "grammar.verify_on_ring.calls": "count",
    "grammar.verify_on_ring.self_s": "s",
    "grammar.letters_per_s": "letters/s",
    "search.search_s": "s",
    "search.evaluate_word_s": "s",
    "search.states": "count",
    "search.bytes": "B",
    "search.bytes_per_state": "B/state",
    "search.states_per_s": "states/s",
    "trace.overhead_frac": "ratio",
}


def _listed(args):
    # compose_many accepts any iterable; a list lets the wrapper count atoms
    return (list(args[0]),) + args[1:]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []  # span name table, indexed by span name id
        self.counts: Counter[str] = Counter()
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span called ``name`` around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count(self, key: str, measure):
        def after(args, result):
            self.counts[key] += measure(args, result)

        return after

    def install(self) -> None:
        hooks = {
            "gates.evaluate_expr": (None, self._count("atoms", lambda a, r: len(a[0]))),
            "gates.compose_many": (_listed, self._count("atoms", lambda a, r: len(a[0]))),
            "synth.synthesize_nct": (
                None,
                self._count("program_atoms", lambda a, r: sum(len(e) for e in r.values())),
            ),
            "grammar.verify_on_ring": (
                None,
                self._count("letters", lambda a, r: len(grammar.expand(a[0]))),
            ),
            "search.search": (None, self._count_search),
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "gatecalc"]
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            before, after = hooks.get(name, (None, None))
            traced = self.wrap(name, original, before, after)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                setattr(holder, attr, traced)
                self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _count_search(self, args, result):
        self.counts["states"] += result.stats.get("states", 0)
        self.counts["bytes"] += result.stats.get("bytes", 0)

    # -- reduction ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._name)

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        names = np.array(self._name, dtype=np.int64)
        parents = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - children, minlength=k)
        return {
            n: (int(calls[i]), float(incl[i]), float(own[i]))
            for i, n in enumerate(self.names)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS except trace.overhead_frac."""
        spans = self.per_name()

        def calls(name):
            return spans[name][0]

        def incl(name):
            return spans[name][1]

        def own(name):
            return spans[name][2]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        states = self.counts["states"]
        out = {}
        for name in ("gates.compose", "gates.canonicalize", "gates.evaluate_expr"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = own(name)
        out["gates.compose_many.self_s"] = own("gates.compose_many")
        out["gates.atoms_per_s"] = rate(
            self.counts["atoms"], incl("gates.evaluate_expr") + incl("gates.compose_many")
        )
        out["analysis.classify_swap.self_s"] = own("analysis.classify_swap")
        out["analysis.membership.calls"] = sum(calls(n) for n in MEMBERSHIP)
        out["analysis.membership.self_s"] = sum(own(n) for n in MEMBERSHIP)
        out["bitcore.gf2_divides.calls"] = calls("bitcore.gf2_divides")
        out["bitcore.gf2_divides.self_s"] = own("bitcore.gf2_divides")
        out["synth.synthesize_nct.calls"] = calls("synth.synthesize_nct")
        out["synth.synthesize_nct.self_s"] = own("synth.synthesize_nct")
        out["synth.program_atoms"] = self.counts["program_atoms"]
        for name in ("cyclic.project_periodic", "cyclic.project_formula", "cyclic.perm_compose"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = own(name)
        out["cyclic.is_even.self_s"] = own("cyclic.is_even")
        out["grammar.verify_on_ring.calls"] = calls("grammar.verify_on_ring")
        out["grammar.verify_on_ring.self_s"] = own("grammar.verify_on_ring")
        out["grammar.letters_per_s"] = rate(
            self.counts["letters"], incl("grammar.verify_on_ring")
        )
        out["search.search_s"] = incl("search.search")
        out["search.evaluate_word_s"] = incl("search.evaluate_word")
        out["search.states"] = states
        out["search.bytes"] = self.counts["bytes"]
        out["search.bytes_per_state"] = self.counts["bytes"] / states if states else 0.0
        out["search.states_per_s"] = rate(states, incl("search.search"))
        return out

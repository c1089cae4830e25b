"""The four benchmark workloads: seeded inputs, one call per item, pinned checks.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), then exposes ``items`` and ``run_item``.
``run_item`` returns True only when the program's output for the item
passes every check; an exception counts as a failed item.  ``work``
is the number of units per pass that ``items_per_s`` divides by.

Every gatecalc call goes through a module attribute, so that the traced
run sees it.
"""

from __future__ import annotations

import random

import numpy as np

from gatecalc import analysis, cyclic, gates, grammar, search, synth
from gatecalc.bitcore import int_to_word


class InputError(RuntimeError):
    """The generated inputs do not have their pinned size."""


class SwapSynth:
    """Every ordered pattern pair of equal length: classify, and synthesize if universal."""

    name = "swap-synth"
    unit = "pairs"
    # max pattern length -> (pairs, universal pairs)
    SIZES = {"full": (6, 5460, 392), "smoke": (3, 84, 8)}

    def __init__(self, seed: int, size: str):
        max_len, n_pairs, n_universal = self.SIZES[size]
        pairs = [
            (int_to_word(iu, n), int_to_word(iv, n))
            for n in range(1, max_len + 1)
            for iu in range(1 << n)
            for iv in range(1 << n)
        ]
        random.Random(seed).shuffle(pairs)
        if len(pairs) != n_pairs or sum(self.rule_universal(u, v) for u, v in pairs) != n_universal:
            raise InputError(f"expected {n_pairs} pairs with {n_universal} universal")
        for target in ("c0", "c1", "rc1", "swap", "c2"):
            gates.make_named(target)  # rc1 fills the bit-reversal cache
        self.items = pairs
        self.work = len(pairs)
        self.info = {"max_pattern_length": max_len, "pairs": n_pairs, "universal": n_universal}

    @staticmethod
    def rule_universal(u: str, v: str) -> bool:
        """The one-interior-difference rule the verdicts must follow."""
        d = [i for i in range(len(u)) if u[i] != v[i]]
        return len(d) == 1 and 0 < d[0] < len(u) - 1

    def run_item(self, pair) -> bool:
        u, v = pair
        cls = analysis.classify_swap(u, v, verify=True)
        universal = cls.verdict is analysis.SwapVerdict.UNIVERSAL
        if universal != self.rule_universal(u, v):
            return False
        if universal:
            # raises unless all four programs re-evaluate to their gates
            programs = synth.synthesize_nct(u, v)
            return sorted(programs) == ["c1", "c2", "rc1", "s"]
        return cls.verified is True


class RingProject:
    """Random gates projected on rings two ways, and the grammar programs on rings."""

    name = "ring-project"
    unit = "ring checks"
    SIZES = {
        "full": {"gates": 500, "max_ring": 10, "program_rings": (4, 16), "programs": 65},
        "smoke": {"gates": 12, "max_ring": 7, "program_rings": (4, 5), "programs": 10},
    }

    def __init__(self, seed: int, size: str):
        spec = self.SIZES[size]
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(spec["gates"]):
            width = int(rng.integers(1, 6))
            lo = int(rng.integers(-3, 4))
            table = rng.permutation(1 << width)
            f = gates.GroupElement(0, gates.canonicalize(lo, lo + width - 1, table))
            items += [("cross", f, n) for n in range(cyclic.min_ring(f), spec["max_ring"] + 1)]
        for start in grammar.START_SYMBOLS:
            grammar.expand(start)
        self.anchor = grammar.measure_anchor()
        self.targets = {
            start: gates.make_named(grammar.STANDARD_TARGETS[start])
            for start in grammar.START_SYMBOLS
        }
        lo_ring, hi_ring = spec["program_rings"]
        programs = [
            ("program", start, n)
            for n in range(lo_ring, hi_ring + 1)
            for start in grammar.START_SYMBOLS
        ]
        if len(programs) != spec["programs"]:
            raise InputError(f"expected {spec['programs']} program checks")
        items += programs
        random.Random(seed).shuffle(items)
        self.items = items
        self.work = len(items)
        self.info = {
            "random_gates": spec["gates"],
            "max_ring": spec["max_ring"],
            "cross_checks": len(items) - len(programs),
            "program_rings": list(spec["program_rings"]),
            "program_checks": len(programs),
            "anchor": self.anchor,
        }

    def run_item(self, item) -> bool:
        kind, subject, n = item
        if kind == "cross":
            projected = cyclic.project_formula(subject, n)
            return projected == cyclic.project_periodic(subject, n) and projected.is_even()
        return grammar.verify_on_ring(subject, self.targets[subject], n, self.anchor) is True


class _Search:
    """One search per item over shifted rule-57 gates; the seed orders the generators."""

    unit = "ball states"
    shifts: tuple[int, ...]
    SIZES: dict

    def __init__(self, seed: int, size: str):
        self.expected = self.SIZES[size]
        shifts = list(self.shifts)
        random.Random(seed).shuffle(shifts)
        e57 = gates.make_eca(57)
        self.generators = tuple(e57.shift_conjugate(k) for k in shifts)
        self.target = gates.make_named("c0")
        self.config = search.SearchConfig(
            self.generators,
            self.target,
            self.expected["depth"],
            memory_budget=self.budget,
            strategy=self.strategy,
            certify_minimum=self.strategy == "mitm",
        )
        self.items = [self.config]
        self.work = self.expected["states"]
        self.info = {
            "generator_shifts": shifts,
            "strategy": self.strategy,
            "max_depth": self.expected["depth"],
            "memory_budget": self.budget,
            "states": self.expected["states"],
        }

    def run_item(self, config) -> bool:
        result = search.search(config)
        want = self.expected
        ok = (
            result.status == want["status"]
            and result.stats["states"] == want["states"]
            and result.stats["levels"] == want["levels"]
        )
        if result.status == "found":
            ok = (
                ok
                and len(result.word) == want["length"]
                and result.stats["minimal_length"] == want["length"]
                and search.evaluate_word(result.word, self.generators) == self.target
            )
        elif "minimal_length_exceeds" in want:
            ok = ok and result.stats["minimal_length_exceeds"] == want["minimal_length_exceeds"]
        return ok


# ball level sizes around the identity for e57@-1, e57, e57@1 (hull of 5 cells)
_MITM_LEVELS = [
    1, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 605, 970, 1560, 2492,
    3928, 6220, 9892, 15712, 24954, 39590, 62812, 99556, 157800, 249908,
]
# the same for e57@-3 .. e57@3 (hull of 9 cells)
_WIDE_LEVELS = [1, 7, 27, 82, 226, 597, 1545, 3957, 10080, 25605]


class SearchMitm(_Search):
    """The certificate that 50 is the exact distance from the identity to the flip."""

    name = "search-mitm"
    shifts = (-1, 0, 1)
    strategy = "mitm"
    budget = 512 * 1024 * 1024
    SIZES = {
        "full": {
            "depth": 25, "status": "found", "length": 50,
            "states": 676982, "levels": _MITM_LEVELS,
        },
        "smoke": {
            "depth": 12, "status": "not-found", "minimal_length_exceeds": 24,
            "states": sum(_MITM_LEVELS[:13]), "levels": _MITM_LEVELS[:13],
        },
    }


class SearchWide(_Search):
    """A breadth-first ball with few states but wide 512-entry rows."""

    name = "search-wide"
    shifts = (-3, -2, -1, 0, 1, 2, 3)
    strategy = "bfs"
    budget = 2 * 1024 * 1024 * 1024
    SIZES = {
        "full": {"depth": 9, "status": "not-found", "states": 42127, "levels": _WIDE_LEVELS},
        "smoke": {
            "depth": 5, "status": "not-found",
            "states": sum(_WIDE_LEVELS[:6]), "levels": _WIDE_LEVELS[:6],
        },
    }


WORKLOADS = {w.name: w for w in (SwapSynth, RingProject, SearchMitm, SearchWide)}

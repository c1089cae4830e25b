"""The built-in straight-line grammar for the standard-gate programs.

The grammar derives, per start symbol, a single string over the digits
1..6; digit i means "apply the rule-57 update at cell i".  Start
symbols name the gate the string implements: N3 the flip, C3 the
controlled flip, D3 its mirror, S3 the cell swap, T3 the doubly
controlled flip (subscripts are nominal cells; the measured anchor is
reported by the verifier rather than assumed).

Conventions, fixed empirically against the vendored golden strings and
recorded here rather than guessed:

* Rules whose right-hand side mentions other symbols are compositions,
  rightmost factor applied first; expansion therefore emits composite
  rules right to left.  The digit strings N2..N5 are already in
  application order and are emitted as they stand.
* An expanded string is read chronologically (leftmost gate applied
  first).  Since every digit denotes an involution, reading it in
  reverse denotes the inverse, which for these involution targets is
  the same element; the verifier checks both readings and reports.

The golden strings live in data/programs/ as plain text with pinned
checksums; they are test data, the productions below are the single
source of truth.

Ring checks are evaluated along the grammar: each nonterminal's ring
permutation is composed once from the permutations of its factors, in
the order expansion emits them, so by associativity the result is the
permutation of the expanded string.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .cyclic import CyclicPerm, project_formula
from .gates import (
    GateExpr,
    GroupElement,
    Program,
    evaluate_expr,
    make_eca,
    make_named,
    shift_conjugate,
)
# kept in this namespace: perfbench's tracer test rebinds grammar.compose_many
from .gates import compose_many  # noqa: F401

# Right-hand sides: uppercase tokens are nonterminals, digits terminals.
# Composite rules are written as compositions (rightmost acts first).
PRODUCTIONS: dict[str, tuple[str, ...]] = {
    "T3": ("S3", "N3", "E4", "N3", "S3"),
    "S3": ("C3", "D4", "C3"),
    "C3": ("E3", "N2", "E3", "N2"),
    "D3": ("N2", "E3", "N4", "E3", "N2", "N4"),
    "D4": ("N3", "E4", "N5", "E4", "N3", "N5"),
    "E3": ("N3", "3"),
    "E4": ("N4", "4"),
    "N2": tuple("12312321212132121212323121321232323231232321213232"),
    "N3": tuple("23423432323243232323434232432343434342343432324343"),
    "N4": tuple("34534543434354343434545343543454545453454543435454"),
    "N5": tuple("45645654545465454545656454654565656564565654546565"),
}

START_SYMBOLS = ("N3", "C3", "T3", "D3", "S3")

# start symbol -> name of the gate its string implements
STANDARD_TARGETS = {"N3": "c0", "C3": "c1", "T3": "c2", "D3": "rc1", "S3": "swap"}

# cells where shifted copies of the target are sought
ANCHOR_RANGE = range(0, 9)


def validate_acyclic() -> list[str]:
    """Topological order of the nonterminals; raises on a cycle."""
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(symbol: str):
        if symbol not in PRODUCTIONS:
            if symbol not in "123456":
                raise ValueError(f"unknown symbol {symbol!r}")
            return
        if state.get(symbol) == 1:
            raise ValueError(f"grammar is cyclic at {symbol}")
        if state.get(symbol) == 2:
            return
        state[symbol] = 1
        for child in PRODUCTIONS[symbol]:
            visit(child)
        state[symbol] = 2
        order.append(symbol)

    for symbol in PRODUCTIONS:
        visit(symbol)
    return order


# nonterminals, each after every symbol on its right-hand side
TOPOLOGICAL_ORDER = tuple(validate_acyclic())


def _factors(symbol: str) -> tuple[str, ...]:
    # right-hand side in the order expansion emits it: pure digit rules
    # as written, composite rules right to left (see the module docstring)
    rhs = PRODUCTIONS[symbol]
    return rhs if all(token in "123456" for token in rhs) else rhs[::-1]


@lru_cache(maxsize=None)
def expand(start: str) -> str:
    """The unique terminal string derived from a nonterminal.

    Pure digit rules are emitted verbatim; composite rules right to
    left (see the module docstring for why).
    """
    if start not in PRODUCTIONS:
        raise ValueError(f"unknown start symbol {start!r}")
    return "".join(t if t in "123456" else expand(t) for t in _factors(start))


# -- golden data ----------------------------------------------------------


def _data_dir():
    return resources.files("gatecalc.data") / "programs"


def golden_string(start: str) -> str:
    """Vendored expected expansion for a start symbol."""
    if start not in START_SYMBOLS:
        raise ValueError(f"no golden string for {start!r}")
    return (_data_dir() / f"{start}.txt").read_text().strip()


def golden_checksums_ok() -> bool:
    """Do the vendored strings still match their pinned checksums?"""
    sums = json.loads((_data_dir() / "checksums.json").read_text())
    for start in START_SYMBOLS:
        digest = hashlib.sha256(golden_string(start).encode()).hexdigest()
        if digest != sums[start]:
            return False
    return True


# -- semantic verification -------------------------------------------------


@dataclass(frozen=True)
class SemanticsReport:
    start: str
    target: str
    passed: bool
    anchor: int | None
    reading_agreement: bool  # both chronological and reversed readings match


def verify_semantics(start: str, target: GroupElement) -> SemanticsReport:
    """Evaluate the expansion on the tape and locate the target.

    The composed gate is compared against every shifted copy of the
    target within the anchor range; the matching cell is measured, not
    assumed.  Both reading orders are evaluated; for these involution
    programs they denote the same element, and the report records that
    this actually held.
    """
    expr = GateExpr.from_letters(expand(start), {d: ("e57", int(d)) for d in "123456"})
    generators = {"e57": make_eca(57)}
    chrono = evaluate_expr(expr, generators, leftmost_first=True)
    reverse = evaluate_expr(expr, generators)
    anchor = None
    for cell in ANCHOR_RANGE:
        if chrono == shift_conjugate(target, cell):
            anchor = cell
            break
    return SemanticsReport(
        start=start,
        target=STANDARD_TARGETS.get(start, "?"),
        passed=anchor is not None,
        anchor=anchor,
        reading_agreement=chrono == reverse,
    )


def measure_anchor() -> int:
    """The single anchor cell at which all five programs verify."""
    anchors = set()
    for start in START_SYMBOLS:
        report = verify_semantics(start, make_named(STANDARD_TARGETS[start]))
        if not report.passed:
            raise AssertionError(f"program for {start} does not verify")
        anchors.add(report.anchor)
    if len(anchors) != 1:
        raise AssertionError(f"inconsistent anchors: {sorted(anchors)}")
    return anchors.pop()


def verify_on_ring(start: str, target: GroupElement, n: int, anchor: int | None = None) -> bool:
    """Does the program still implement the target on a ring of n cells?

    Terminals become ring permutations of the rule-57 update at their
    cells.  The program is evaluated along the grammar: each nonterminal
    reachable from start is composed once, from its factors in expansion
    order (leftmost acts first), which by associativity is the
    permutation of the expanded string.  It is compared with the
    projected target at the anchor (measured on the tape when not
    supplied).
    """
    if start not in PRODUCTIONS:
        raise ValueError(f"unknown start symbol {start!r}")
    if n < 4:
        raise ValueError("ring verification needs n >= 4")
    if anchor is None:
        anchor = measure_anchor()
    program = _ring_program(start, n)
    expected = project_formula(shift_conjugate(target, anchor), n)
    return CyclicPerm(n, program) == expected


def _programs() -> dict[str, Program]:
    # the grammar as straight-line programs over e57 at cells 1..6, one
    # per nonterminal; factors are in function order (the first acts
    # last), so each expands to expand(symbol) read backwards
    rules = {
        symbol: tuple(
            ("e57", int(t)) if t in "123456" else (t, 0) for t in reversed(_factors(symbol))
        )
        for symbol in TOPOLOGICAL_ORDER
    }
    return {symbol: Program(rules, [symbol]) for symbol in rules}


_PROGRAMS = _programs()


def _ring_program(start: str, n: int) -> np.ndarray:
    # ring permutation of expand(start), each reachable nonterminal
    # composed once and freed after its last use (see gates.Program.tables)
    e57 = make_eca(57)
    return _PROGRAMS[start].tables(lambda _, k: project_formula(shift_conjugate(e57, k), n).perm)[0]


def adjacent_repeat_report(start: str) -> dict:
    """Count duplicate-adjacent gates in a program (they cancel).

    Reported only; the golden data is never rewritten.  cascading
    counts the gates a repeated stack-based cancellation would remove.
    """
    string = expand(start)
    direct = sum(1 for i in range(len(string) - 1) if string[i] == string[i + 1])
    # every digit is an involution, so every adjacent pair may cancel
    left = len(_PROGRAMS[start].expand(lambda _: True)[0])
    return {
        "start": start,
        "length": len(string),
        "adjacent_pairs": direct,
        "cascading_removable": len(string) - left,
    }

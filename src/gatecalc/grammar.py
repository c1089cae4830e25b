"""The built-in straight-line grammar for the standard-gate programs.

The grammar derives, per start symbol, a single string over the digits
1..6; digit i means "apply the rule-57 update at cell i".  Start
symbols name the gate the string implements: N3 the flip, C3 the
controlled flip, D3 its mirror, S3 the cell swap, T3 the doubly
controlled flip (subscripts are nominal cells; the measured anchor is
reported by the verifier rather than assumed).

Conventions, fixed empirically against the vendored golden strings and
recorded here rather than guessed:

* The productions are straight-line rules over e57, the rule-57 update,
  at cells 1..6, and each rule mentions only rules before it.  A
  composite rule is written in function order, like gates.Program
  rules: its rightmost factor acts first.  A pure digit rule (N2..N5)
  is written in application order and is reversed into function order.
* An expanded string is read chronologically (leftmost gate applied
  first).  Since every digit denotes an involution, reading it in
  reverse denotes the inverse, which for these involution targets is
  the same element; the verifier checks both readings and reports.
  The reversed reading is the grammar with every right-hand side
  reversed.

The golden strings live in data/programs/ as plain text with pinned
checksums; they are test data, the productions below are the single
source of truth.

Expansion, the tape check, the ring check and the repeat report all
read one gates.Program per start symbol, built once from the
productions; a rule shared by several factors is expanded or composed
once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping

import numpy as np

from .cyclic import project_formula
from .gates import (
    GroupElement,
    Program,
    evaluate_program,
    make_eca,
    make_named,
    shift_conjugate,
)
# kept in this namespace: perfbench's tracer test rebinds grammar.compose_many
from .gates import compose_many  # noqa: F401

# Right-hand sides: uppercase tokens are nonterminals, digits terminals.
# Composite rules are written in function order (rightmost acts first),
# digit rules in application order.  Each rule mentions only rules
# before it.
PRODUCTIONS: dict[str, tuple[str, ...]] = {
    "N3": tuple("23423432323243232323434232432343434342343432324343"),
    "E3": ("N3", "3"),
    "N2": tuple("12312321212132121212323121321232323231232321213232"),
    "C3": ("E3", "N2", "E3", "N2"),
    "N4": tuple("34534543434354343434545343543454545453454543435454"),
    "E4": ("N4", "4"),
    "N5": tuple("45645654545465454545656454654565656564565654546565"),
    "D4": ("N3", "E4", "N5", "E4", "N3", "N5"),
    "S3": ("C3", "D4", "C3"),
    "T3": ("S3", "N3", "E4", "N3", "S3"),
    "D3": ("N2", "E3", "N4", "E3", "N2", "N4"),
}

START_SYMBOLS = ("N3", "C3", "T3", "D3", "S3")

# start symbol -> name of the gate its string implements
STANDARD_TARGETS = {"N3": "c0", "C3": "c1", "T3": "c2", "D3": "rc1", "S3": "swap"}

# cells where shifted copies of the target are sought
ANCHOR_RANGE = range(0, 9)

DIGITS = frozenset("123456")


def build_programs(productions: Mapping[str, tuple[str, ...]]) -> dict[str, Program]:
    """Each nonterminal as the start of a straight-line program over e57.

    The rules are the productions in function order: digit i becomes
    ("e57", i), a nonterminal (symbol, 0), and a pure digit rule is
    reversed.  Raises ValueError on a token that is neither a digit nor a
    nonterminal, and (from Program) on a rule that mentions itself or a
    rule after it, which rules out cycles.
    """
    rules = {}
    for symbol, rhs in productions.items():
        for token in rhs:
            if token not in DIGITS and token not in productions:
                raise ValueError(f"unknown symbol {token!r} in rule {symbol!r}")
        factors = tuple((t, 0) if t in productions else ("e57", int(t)) for t in rhs)
        rules[symbol] = factors[::-1] if DIGITS.issuperset(rhs) else factors
    return {symbol: Program(rules, [symbol]) for symbol in rules}


_PROGRAMS = build_programs(PRODUCTIONS)
# the reversed reading: every factor tuple reversed, all the way down
_REVERSED = build_programs({symbol: rhs[::-1] for symbol, rhs in PRODUCTIONS.items()})


def _program(start: str) -> Program:
    if start not in _PROGRAMS:
        raise ValueError(f"unknown start symbol {start!r}")
    return _PROGRAMS[start]


@lru_cache(maxsize=None)
def expand(start: str) -> str:
    """The unique terminal string derived from a nonterminal, in application order."""
    atoms = _program(start).expand()[0].atoms
    return "".join(str(k) for _, k in reversed(atoms))


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
    """Evaluate the program on the tape, along its rules, and locate the target.

    The composed gate is compared against every shifted copy of the
    target within the anchor range; the matching cell is measured, not
    assumed.  Both reading orders are evaluated; for these involution
    programs they denote the same element, and the report records that
    this actually held.
    """
    generators = {"e57": make_eca(57)}
    chrono = evaluate_program(_program(start), generators)[0]
    reverse = evaluate_program(_REVERSED[start], generators)[0]
    anchor = next((c for c in ANCHOR_RANGE if chrono == shift_conjugate(target, c)), None)
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
    cells, composed along the rules (see _ring_program).  The result is
    compared entry by entry with the projected target at the anchor
    (measured on the tape when not supplied), with no check that it is a
    permutation: a table that is not cannot equal the projection.
    """
    program = _program(start)
    if n < 4:
        raise ValueError("ring verification needs n >= 4")
    if anchor is None:
        anchor = measure_anchor()
    perm = _ring_program(program, n)
    return np.array_equal(perm, project_formula(shift_conjugate(target, anchor), n).perm)


def _ring_program(program: Program, n: int) -> np.ndarray:
    # ring permutation of the program's start, each reachable (rule, cell)
    # composed once and freed after its last use (see gates.Program.tables)
    e57 = make_eca(57)
    return program.tables(lambda _, k: project_formula(shift_conjugate(e57, k), n).perm)[0]


def adjacent_repeat_report(start: str) -> dict:
    """Count duplicate-adjacent gates in a program (they cancel).

    Reported only; the golden data is never rewritten.  cascading
    counts the gates a repeated stack-based cancellation would remove.
    """
    string = expand(start)
    direct = sum(1 for i in range(len(string) - 1) if string[i] == string[i + 1])
    # every digit is an involution, so every adjacent pair may cancel
    left = len(_program(start).expand(lambda _: True)[0])
    return {
        "start": start,
        "length": len(string),
        "adjacent_pairs": direct,
        "cascading_removable": len(string) - left,
    }

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

Expansion, the tape check and the repeat report read one gates.Program
per start symbol, built once from the productions.  The ring check is
bit-sliced on both sides, over the same identity planes: word w is bit
w of n integers, one per cell.  The expanded string is applied to all
2^n ring words at once, and so is the target, from the window words its
table moves, so its cost grows with those words rather than with 2^n.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping

import numpy as np

from .cyclic import RingTooSmallError, check_ring_size, min_ring
# kept in this namespace: perfbench's tracer test pins grammar.project_formula
from .cyclic import project_formula  # noqa: F401
from .gates import (
    GroupElement,
    Program,
    evaluate_program,
    make_eca,
    make_named,
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
    anchor = next((c for c in ANCHOR_RANGE if chrono == target.shift_conjugate(c)), None)
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

    Both sides are bit-sliced over the same identity planes, one big
    integer per cell holding that cell of all 2^n ring words: the
    expanded string is applied letter by letter (_ring_planes), and the
    target at the anchor (measured on the tape when not supplied) is
    applied from the window words its table moves (_target_planes), so
    its cost grows with those words, not with 2^n entries.  n must be an
    integer in [4, RING_CAP], checked before anything of 2^n bits is
    built, and at least the target's min_ring (RingTooSmallError).
    """
    check_ring_size(n, 4, "ring verification")
    string = expand(start)
    if anchor is None:
        anchor = measure_anchor()
    expected = _target_planes(target.shift_conjugate(anchor), n)
    return _ring_planes(string, n) == expected


def _identity_planes(n: int) -> tuple[list[int], int]:
    # bit w of plane i is cell i (bit n - 1 - i) of word w, so the
    # identity's runs halve from cell to cell; and the all-ones plane
    size = 1 << n
    planes = [((1 << size // 2) - 1) << size // 2]
    for i in range(1, n):
        planes.append(planes[-1] ^ planes[-1] >> (size >> i + 1))
    return planes, (1 << size) - 1


def _target_planes(f: GroupElement, n: int) -> list[int]:
    """The planes of f's ring permutation (project_formula's), applied to
    the identity planes without a 2^n-entry table.

    Window cell j sits at ring cell (lo + j) % n, so a window across the
    seam needs no case of its own.  Each window word x that the table
    moves contributes its minterm (the words whose window reads x) to
    the flip mask of every cell where x and table[x] differ; the masks
    are then XORed into the planes, and the shift part rotates the plane
    list so that cell i reads cell i + k.  This costs (moved words x
    width) integer operations: 2 moved words for each standard target.
    Below min_ring, RingTooSmallError is raised before any plane is built.
    """
    need = min_ring(f)
    if n < need:
        raise RingTooSmallError(n, need)
    planes, full = _identity_planes(n)
    g = f.inert  # the identity has width 0 and an empty table
    width, table = g.width, g.table
    cells = [(g.lo + j) % n for j in range(width)]
    literals = [(planes[c] ^ full, planes[c]) for c in cells]  # (bit 0, bit 1)
    masks = [0] * width
    for x in np.flatnonzero(table != np.arange(table.size)).tolist():
        minterm = full
        for j in range(width):
            minterm &= literals[j][x >> width - 1 - j & 1]
        moved = x ^ int(table[x])
        for j in range(width):
            if moved >> width - 1 - j & 1:
                masks[j] |= minterm
    for c, mask in zip(cells, masks):
        planes[c] ^= mask
    k = f.shift % n
    return planes[k:] + planes[:k]


def _ring_planes(string: str, n: int) -> list[int]:
    # the identity planes with the string applied, leftmost letter first:
    # rule 57 flips cell c unless its left neighbour is 0 and its right
    # one 1.  Each letter's (cell, left, right) is read by its byte
    planes, full = _identity_planes(n)
    code, letters = string.encode(), {}
    for d in set(code):
        c = int(chr(d)) % n
        letters[d] = (c, (c - 1) % n, (c + 1) % n)
    for d in code:
        c, left, right = letters[d]
        planes[c] ^= planes[left] | (planes[right] ^ full)
    return planes


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

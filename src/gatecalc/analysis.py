"""Structural classification of gates: proper subgroups and universality.

A set of gates (together with the shift) fails to generate everything
exactly when it sits inside one of a few recognizable proper subgroups:
wire permutations, shift-plus-constant maps, linear/affine maps, the
one-sided groups where information can travel only left or only right,
and the coset-preserving groups attached to a shift-invariant span of a
vector.  This module implements those membership tests on canonical
tables and uses them to classify.  All tests but the coset one read the
flip differences of each cell, table(u) xor table(u with the cell
flipped): a gate is affine iff each is constant, linear iff affine and
0 is fixed, a wire permutation iff linear and each constant is one bit,
and a lamplighter map iff each cell's constant flips just that cell;
one-sided flow reads which output cells each input cell can reach.  The
coset test reads each word's displacement table(u) xor u, and stops at
the first one outside the span.  Every test reads the table through
gates.flip_difference and gates.word_moves, in blocks of
gates.READ_BLOCK words, so it holds about one table, the gate's own.
A swap verdict depends only on the difference word d = u xor v: it is
computed, and verified on the swap of 0^n and d, once per d and
cached, and by the conjugation lemma (see _classify_difference) it
stands for the swap of every pair with difference d.
The classifiers:

* word swaps: the swap of patterns u, v (with the flip and the shift)
  is universal iff u and v differ in exactly one position which is not
  at either end of the patterns;
* one-cell cellular-automaton updates: among the 256 rules exactly 16
  are bijective and exactly two (57 and 99) are singleton universal
  gates; the universal verdicts carry a machine-checked certificate, a
  50-step program over shifted copies of the rule that composes to the
  flip.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .bitcore import check_word, gf2_divides, int_to_word, word_xor
from .gates import (
    GateExpr,
    GroupElement,
    InertGate,
    NotInvertibleError,
    evaluate_expr,
    flip_difference,
    make_eca,
    make_named,
    word_moves,
    _word_swap,
)

# The flip as a 50-step program over {gate one cell left, gate in place,
# gate one cell right} copies of the rule-57 update; discovered by ball
# search, re-verified here every time it is used as a certificate.
RULE57_FLIP_PROGRAM = "abcabcbababacbabababcbcabacbabcbcbcbcabcbcbabacbcb"

# Letter -> (generator name, cell) for the program above.
FLIP_PROGRAM_LETTERS = {"a": ("e", -1), "b": ("e", 0), "c": ("e", 1)}


# -- flip differences ------------------------------------------------------


def _flip_constants(g: InertGate) -> list[int] | None:
    """Each cell's flip difference, or None if one of them is not constant."""
    out = []
    for p in range(g.width):
        first = g.table[0] ^ g.table[1 << p]  # word 0's flip difference comes first
        if any((diff != first).any() for diff in flip_difference(g.table, p)):
            return None
        out.append(int(first))
    return out


def _reach(g: InertGate):
    """For each cell p in turn, the mask of output bits that flipping p can change."""
    for p in range(g.width):
        reach = 0
        for diff in flip_difference(g.table, p):
            reach |= int(np.bitwise_or.reduce(diff, axis=None))
        yield reach


def _displacements(g: InertGate):
    """The distinct values table(u) xor u xor table(0), each once.

    They come one block of word_moves at a time, so a caller that stops
    at the first value it refuses holds about one block, not every value.
    """
    seen = set()
    for moves in word_moves(g.table):  # each block a new array, sorted in place
        # distinct by sorting: np.unique's first call imports numpy.ma, and
        # counting would take up to 2^n counts per block
        moves ^= g.table[0]
        moves.sort()
        distinct = moves[1:][moves[1:] != moves[:-1]].tolist()
        distinct.append(int(moves[0]))
        for value in distinct:
            if value not in seen:
                seen.add(value)
                yield value


# -- linear and wire structure --------------------------------------------


def is_affine(g: InertGate) -> bool:
    """Is the gate a linear map plus a constant (over GF(2))?

    Exactly when flipping any one cell changes the output by a constant,
    whatever the other cells hold.
    """
    return _flip_constants(g) is not None


def is_linear(g: InertGate) -> bool:
    """Affine with zero constant term."""
    return g.is_identity or (int(g.table[0]) == 0 and is_affine(g))


def is_wire_permutation(f: GroupElement) -> bool:
    """Does f only rearrange cells (a finite permutation plus a shift)?"""
    g = f.inert
    return is_linear(g) and all(c & (c - 1) == 0 for c in _flip_constants(g))


def is_lamplighter(f: GroupElement) -> bool:
    """Is f a shift followed by flipping a fixed finite set of cells?"""
    return _flip_constants(f.inert) == [1 << p for p in range(f.inert.width)]


# -- one-sided information flow ------------------------------------------


def in_GR(g: InertGate) -> bool:
    """Membership in the right-flow subgroup.

    Every output cell may depend only on cells at or to its left, so a
    change can only propagate rightward.  Window cell at bit p depends
    only on bits >= p (bit 0 is the rightmost cell).
    """
    return all(mask >> (p + 1) == 0 for p, mask in enumerate(_reach(g)))


def in_GL(g: InertGate) -> bool:
    """Mirror of in_GR: changes can only propagate leftward."""
    return all(mask & ((1 << p) - 1) == 0 for p, mask in enumerate(_reach(g)))


def in_GV(g: InertGate, w: str) -> bool:
    """Does g preserve cosets of the shift-span of w up to a translation?

    With v0 the displacement of the all-zeros window word, every window
    word u must satisfy: table(u) xor u xor v0 lies in the span of all
    shifts of w, i.e. its polynomial is divisible by w's.
    """
    check_word(w)
    if "1" not in w:
        raise ValueError("w must be a nonzero vector")
    if g.is_identity:
        return True
    # window bit p is the cell hi - p, so a value read from its low bit
    # lists cells from the right; w is read from the right too, and
    # reversing both operands keeps divisibility
    return all(gf2_divides(int(w, 2), value) for value in _displacements(g) if value)


# -- word-swap classification ---------------------------------------------


class SwapVerdict(enum.Enum):
    UNIVERSAL = "universal"
    TRIVIAL = "trivial"
    RIGHT_ONE_SIDED = "right-one-sided"
    LEFT_ONE_SIDED = "left-one-sided"
    COSET_PRESERVING = "coset-preserving"


@dataclass(frozen=True)
class SwapClass:
    """Verdict for the gate swapping two equal-length patterns.

    For non-universal verdicts, ``subgroup`` names the proper subgroup
    containing {flip, swap gate, shift} and ``witness`` carries the
    generating vector of the preserved span when applicable.  When
    verification ran, ``verified`` records that the claimed memberships
    actually hold.
    """

    verdict: SwapVerdict
    subgroup: str | None = None
    witness: str | None = None
    verified: bool | None = None


def classify_swap(u: str, v: str, verify: bool = True) -> SwapClass:
    """Classify the pattern swap by the positions where u and v differ.

    Universal iff they differ in exactly one position which is interior
    (so the difference word matches 0*0100*).  Non-universal verdicts
    name a containing proper subgroup; with verify=True the membership
    of the flip, the shift and the swap of 0^n and d = u xor v is
    checked, not assumed.  The verdict depends on d alone (see
    _classify_difference): u and v are checked on every call, and then
    the verdict is one cache lookup under d, computed and verified once
    per difference word and verify mode.
    """
    d = word_xor(u, v)  # the one check of u and v
    if not u:
        raise ValueError("patterns must be nonempty")
    return _classify_difference(d, len(u), verify)


@functools.lru_cache(maxsize=4096)
def _classify_difference(d: int, n: int, verify: bool) -> SwapClass:
    """The verdict of every swap of two length-n words whose xor is d.

    A verified verdict checks that the flip, the shift's inert part and
    swap(0^n, d) lie in the subgroup.  This one check covers the swap of
    every pair u, v with that difference.  XOR by u maps u to 0^n and v
    to d, so swap(0^n, d) is swap(u, v) conjugated by the flips of the
    cells where u is 1.  Each flip c0@j is sigma^-j . c0 . sigma^j, so it
    lies in the subgroup once c0 and sigma do.  Therefore, with c0 and
    sigma in the subgroup, swap(u, v) lies in it exactly when
    swap(0^n, d) does.
    """
    word = int_to_word(d, n)

    # the predicates are passed in at each miss, so that a rebinding is seen
    def verified(member) -> bool | None:
        if not verify:
            return None
        gates = (make_named("c0").inert, make_named("sigma").inert, _word_swap("0" * n, word))
        return all(member(g) for g in gates)

    if not d:
        trivial = _word_swap(word, word).is_identity if verify else None  # no table
        return SwapClass(SwapVerdict.TRIVIAL, "trivial group", None, trivial)
    if d == 1:  # the last position: index n - 1 is the low bit
        return SwapClass(SwapVerdict.RIGHT_ONE_SIDED, "right-flow subgroup", None, verified(in_GR))
    if d == 1 << n - 1:  # the first position
        return SwapClass(SwapVerdict.LEFT_ONE_SIDED, "left-flow subgroup", None, verified(in_GL))
    if not d & d - 1:  # one interior position
        return SwapClass(SwapVerdict.UNIVERSAL, None, None, None)
    return SwapClass(
        SwapVerdict.COSET_PRESERVING, "coset-preserving subgroup", word,
        verified(lambda g: in_GV(g, word)),
    )


# -- one-cell CA update classification ------------------------------------


class EcaVerdict(enum.Enum):
    NOT_BIJECTIVE = "not-bijective"
    UNIVERSAL = "universal"
    NON_UNIVERSAL = "non-universal"


@dataclass(frozen=True)
class EcaClass:
    rule: int
    verdict: EcaVerdict
    reason: str | None = None
    context: tuple[int, int] | None = None
    certificate: dict | None = None


def _flip_value(rule: int, sign: int, leftmost_first: bool = False) -> GroupElement:
    # the flip program over the rule's update, each letter's cell times sign
    letters = {k: ("e", sign * cell) for k, (_, cell) in FLIP_PROGRAM_LETTERS.items()}
    expr = GateExpr.from_letters(RULE57_FLIP_PROGRAM, letters)
    return evaluate_expr(expr, {"e": make_eca(rule)}, leftmost_first=leftmost_first)


def flip_certificate(rule: int) -> dict:
    """Evaluate the flip program for rule 57 (or its mirror 99).

    Returns a record with the program, the letter placement used and
    whether the composition equals the flip; raises for other rules.
    """
    if rule not in (57, 99):
        raise ValueError("certificates exist for rules 57 and 99 only")
    # conjugating the whole identity by tape reversal mirrors cells
    sign = 1 if rule == 57 else -1
    return {
        "rule": rule,
        "program": RULE57_FLIP_PROGRAM,
        "letter_cells": {k: sign * cell for k, (_, cell) in FLIP_PROGRAM_LETTERS.items()},
        "flip_reached": _flip_value(rule, sign) == make_named("c0"),
    }


def flip_program_report() -> dict:
    """Evaluate the rule-57 flip program under all four reading conventions.

    Two letter placements (as defined, and mirrored) times two reading
    orders (first letter applied last, or first).  Because every
    generator involved is an involution the two orders always agree;
    the report records what actually validates rather than assuming.
    """
    c0 = make_named("c0")
    return {
        f"{placement}/{order}": _flip_value(57, sign, leftmost_first) == c0
        for placement, sign in (("standard", 1), ("mirrored", -1))
        for order, leftmost_first in (("first-acts-last", False), ("first-acts-first", True))
    }


def classify_eca(rule: int) -> EcaClass:
    """Classify the one-cell update of an elementary CA rule.

    Bijective rules that are not universal get the most specific reason
    that applies: identity-like, equals-c0, affine, one-sided, or
    fixes-uniform-point.  Universal verdicts (rules 57 and 99) carry an
    evaluated flip certificate rather than a bare claim.
    """
    try:
        gate = make_eca(rule)
    except NotInvertibleError as exc:
        return EcaClass(rule, EcaVerdict.NOT_BIJECTIVE, context=exc.context)
    g = gate.inert
    if gate.is_identity:
        return EcaClass(rule, EcaVerdict.NON_UNIVERSAL, reason="identity-like")
    if gate == make_named("c0"):
        return EcaClass(rule, EcaVerdict.NON_UNIVERSAL, reason="equals-c0")
    if is_affine(g):
        return EcaClass(rule, EcaVerdict.NON_UNIVERSAL, reason="affine")
    if in_GL(g) or in_GR(g):
        return EcaClass(rule, EcaVerdict.NON_UNIVERSAL, reason="one-sided")
    fixes_zero = (rule >> 0) & 1 == 0   # all-zero neighbourhood stays 0
    fixes_one = (rule >> 7) & 1 == 1    # all-one neighbourhood stays 1
    if fixes_zero or fixes_one:
        return EcaClass(rule, EcaVerdict.NON_UNIVERSAL, reason="fixes-uniform-point")
    certificate = flip_certificate(rule)
    if not certificate["flip_reached"]:
        raise AssertionError(f"certificate for rule {rule} failed to evaluate")
    return EcaClass(rule, EcaVerdict.UNIVERSAL, certificate=certificate)

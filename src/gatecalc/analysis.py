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
one-sided flow reads which output cells each input cell can reach.
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

from .bitcore import Gf2Poly, check_word, diff_set, gf2_divides
from .gates import (
    GateExpr,
    GroupElement,
    InertGate,
    NotInvertibleError,
    evaluate_expr,
    flip_difference,
    make_eca,
    make_named,
    make_word_swap,
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
        diff = flip_difference(g.table, p)
        if (diff != diff[0]).any():
            return None
        out.append(int(diff[0]))
    return out


def _reach(g: InertGate):
    """For each cell p in turn, the mask of output bits that flipping p can change."""
    return (int(np.bitwise_or.reduce(flip_difference(g.table, p))) for p in range(g.width))


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
    rel = g.table ^ np.arange(1 << g.width) ^ int(g.table[0])
    # window bit p is the cell hi - p, so a value read from its low bit
    # lists cells from the right; w is read from the right too, and
    # reversing both operands keeps divisibility
    poly_w = Gf2Poly.normalize(int(w, 2))
    for value in np.unique(rel):
        value = int(value)
        if value and not gf2_divides(poly_w, Gf2Poly.normalize(value)):
            return False
    return True


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


def _member(subgroup: str, g: InertGate, d: str | None) -> bool:
    # looked up at each call, so that a rebinding of the predicates is seen
    if subgroup == "GR":
        return in_GR(g)
    if subgroup == "GL":
        return in_GL(g)
    return in_GV(g, d)


@functools.lru_cache(maxsize=4096)
def _flip_and_shift_in(subgroup: str, d: str | None) -> bool:
    """Do the flip and the shift's inert part lie in the subgroup?

    subgroup is 'GR', 'GL' or 'GV'; d is the spanning word of G_V(d) and
    None for the others.  Neither gate depends on a pair, so each
    (subgroup, d) is checked once.
    """
    return all(_member(subgroup, make_named(name).inert, d) for name in ("c0", "sigma"))


def classify_swap(u: str, v: str, verify: bool = True) -> SwapClass:
    """Classify the pattern swap by the positions where u and v differ.

    Universal iff they differ in exactly one position which is interior
    (so the difference word matches 0*0100*).  Non-universal verdicts
    name a containing proper subgroup; with verify=True the membership
    of all three generators' inert parts is checked, not assumed: the
    swap's for each pair, the flip's and the shift's once per subgroup
    and difference word.
    """
    d = diff_set(u, v)
    ones = [i for i, ch in enumerate(d) if ch == "1"]
    n = len(d)
    swap = make_word_swap(u, v) if verify else None

    def verified(subgroup: str, witness: str | None = None) -> bool | None:
        if not verify:
            return None
        return _member(subgroup, swap.inert, witness) and _flip_and_shift_in(subgroup, witness)

    if not ones:
        return SwapClass(
            SwapVerdict.TRIVIAL, "trivial group", None, swap.is_identity if verify else None
        )
    if len(ones) == 1:
        i = ones[0]
        if i == n - 1:
            return SwapClass(
                SwapVerdict.RIGHT_ONE_SIDED, "right-flow subgroup", None, verified("GR")
            )
        if i == 0:
            return SwapClass(
                SwapVerdict.LEFT_ONE_SIDED, "left-flow subgroup", None, verified("GL")
            )
        return SwapClass(SwapVerdict.UNIVERSAL, None, None, None)
    return SwapClass(
        SwapVerdict.COSET_PRESERVING, "coset-preserving subgroup", d, verified("GV", d)
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


def flip_certificate(rule: int) -> dict:
    """Evaluate the flip program for rule 57 (or its mirror 99).

    Returns a record with the program, the letter placement used and
    whether the composition equals the flip; raises for other rules.
    """
    if rule == 57:
        letters = {k: ("e", cell) for k, (_, cell) in FLIP_PROGRAM_LETTERS.items()}
        gen = make_eca(57)
    elif rule == 99:
        # conjugating the whole identity by tape reversal mirrors cells
        letters = {k: ("e", -cell) for k, (_, cell) in FLIP_PROGRAM_LETTERS.items()}
        gen = make_eca(99)
    else:
        raise ValueError("certificates exist for rules 57 and 99 only")
    expr = GateExpr.from_letters(RULE57_FLIP_PROGRAM, letters)
    value = evaluate_expr(expr, {"e": gen})
    return {
        "rule": rule,
        "program": RULE57_FLIP_PROGRAM,
        "letter_cells": {k: cell for k, (_, cell) in letters.items()},
        "flip_reached": value == make_named("c0"),
    }


def flip_program_report() -> dict:
    """Evaluate the flip program under all four reading conventions.

    Two letter placements (as defined, and mirrored) times two reading
    orders (first letter applied last, or first).  Because every
    generator involved is an involution the two orders always agree;
    the report records what actually validates rather than assuming.
    """
    gen = {"e": make_eca(57)}
    c0 = make_named("c0")
    out = {}
    for placement in ("standard", "mirrored"):
        sign = 1 if placement == "standard" else -1
        letters = {
            k: ("e", sign * cell) for k, (_, cell) in FLIP_PROGRAM_LETTERS.items()
        }
        expr = GateExpr.from_letters(RULE57_FLIP_PROGRAM, letters)
        for order, leftmost_first in (("first-acts-last", False), ("first-acts-first", True)):
            value = evaluate_expr(expr, gen, leftmost_first=leftmost_first)
            out[f"{placement}/{order}"] = value == c0
    return out


def classify_eca(rule: int) -> EcaClass:
    """Classify the one-cell update of an elementary CA rule.

    Bijective rules that are not universal get the most specific reason
    that applies: identity-like, equals-c0, affine, one-sided, or
    fixes-uniform-point.  Universal verdicts (rules 57 and 99) carry an
    evaluated flip certificate rather than a bare claim.
    """
    if not 0 <= rule <= 255:
        raise ValueError("rule number must be in [0, 255]")
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

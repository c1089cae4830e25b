"""Straight-line programs for the standard gates from a universal swap.

Given a pattern swap that is universal together with the flip and the
shift, this module emits explicit programs over the two generators

    c0   the flip,
    fuv  the given pattern swap, anchored at cell 0,

each atom carrying the cell it is applied at (gate@k), that evaluate to
the four standard gates c1, rc1 (its mirror), s (the cell swap) and c2
(the doubly controlled flip).  The construction is the obvious one:
conjugate one pattern to all-zeros by flips, then repeatedly strip a
zero border bit off the difference pattern,

    strip left :  shift(-1) of  c0@0 f' c0@0 f'
    strip right:  c0@(n-1) f' c0@(n-1) f'

until only the two- or three-cell core remains, and finally dress the
core with flips and swaps.  Shift conjugations are flattened into the
per-atom cells, so emitted programs contain no bare shift atoms.

The construction depends on the pair only through its difference word
d = u xor v and the flips that conjugate (u, v) to (0^n, d), so it is
built once per d as a straight-line program P_d (gates.Program) over c0
and f = the swap of 0^n and d: each strip step is one rule over the step
before, equal rules are one rule, and the four programs share their
rules.  c2 conjugates the three-cell core by a word w of s and flips,
and closes with w^-1 written forwards: s and the same flips, as each is
an involution.  No program is returned unverified, and the proof is
split the same way:

* once per d, P_d is evaluated step by step, each rule's table gathered
  once, and each of its four values must equal its target gate; a
  verified P_d is kept in a bounded cache, and a failed one raises and
  is never kept;
* per pair, P_d is expanded with f defined as the given swap
  conjugated by the flips of u (Program.expand's definitions).  That
  definition alone is evaluated, as a one-rule Program, and must equal
  f exactly, so the expansion has P_d's values by substitution.

What is returned is that expansion with adjacent equal atoms
cancelled, and it has the same value: substituting each rule's
expansion for its use is associativity, and x x = 1 holds for every
cancelled generator x, because x.x is checked to be the identity, for
each pair, before its first pair is cancelled.  Programs are
deterministic functions of the input pair.
"""

from __future__ import annotations

import functools
from typing import Mapping

from .bitcore import check_word, word_xor
from .gates import (
    MAX_EXPANDED_ATOMS,
    ExpansionCapError,
    GateExpr,
    GroupElement,
    Program,
    compose_many,
    make_named,
    make_word_swap,
    program_matches,
    _word_swap,
)
# kept in this namespace: perfbench's tracer test rebinds synth.evaluate_expr
from .gates import evaluate_expr  # noqa: F401
from .analysis import SwapClass, SwapVerdict, classify_swap

# the canonical gate each synthesized program must equal
TARGETS = {"c1": "c1", "rc1": "rc1", "s": "swap", "c2": "c2"}


class NotUniversalError(ValueError):
    def __init__(self, u: str, v: str, verdict: SwapClass):
        super().__init__(
            f"swap of {u!r} and {v!r} is not universal: {verdict.verdict.value}"
        )
        self.verdict = verdict


def peephole(program: Program, generators: Mapping[str, GroupElement], defined: Mapping = {}) -> list[GateExpr]:
    """Each start's expansion, with defined read as in Program.expand and
    adjacent equal atoms cancelled.

    x x = 1 only for an involution x, so before the first pair of a
    generator is cancelled, x.x is checked to be the identity, and
    ValueError raised if it is not.
    """
    def involution(name: str) -> bool:
        if name not in generators:
            raise ValueError(f"unknown generator {name!r}")
        g = generators[name]
        if not g.compose(g).is_identity:
            raise ValueError(f"generator {name!r} is not an involution: cannot cancel")
        return True

    return program.expand(involution, defined)


def _rule(rules: dict, *factors: tuple) -> int:
    # the rule with these factors: an existing one if any, else a new one,
    # numbered after every rule it can mention
    for name, existing in rules.items():
        if existing == factors:
            return name
    rules[len(rules)] = factors
    return len(rules) - 1


def _strip_left(rules: dict, f) -> int:
    # f_{0^n, 0v}  ->  f_{0^(n-1), v}, pattern kept anchored at cell 0:
    # shift(-1) of c0@0 f c0@0 f
    return _rule(rules, ("c0", -1), (f, -1), ("c0", -1), (f, -1))


def _strip_right(rules: dict, f, n: int) -> int:
    # f_{0^n, v0}  ->  f_{0^(n-1), v}
    return _rule(rules, ("c0", n - 1), (f, 0), ("c0", n - 1), (f, 0))


def eliminate_bit(v: str, side: str) -> GateExpr:
    """Program reducing the swap (all-zeros, v) by one border cell.

    side='left' requires v to start with 0 and yields a program over
    {c0, f} (f meaning the swap of 0^n and v) equal to the swap of
    0^(n-1) and v[1:]; side='right' strips a trailing 0 instead.  The
    emitted program is verified by evaluation before being returned.
    """
    check_word(v)
    n = len(v)
    if n < 2:
        raise ValueError("pattern too short: nothing left after eliminating")
    rules: dict = {}
    if side == "left":
        if v[0] != "0":
            raise ValueError("left border bit is not 0, cannot eliminate")
        top = _strip_left(rules, "f")
        reduced = v[1:]
    elif side == "right":
        if v[-1] != "0":
            raise ValueError("right border bit is not 0, cannot eliminate")
        top = _strip_right(rules, "f", n)
        reduced = v[:-1]
    else:
        raise ValueError("side must be 'left' or 'right'")
    program = Program(rules, [top])
    # the swaps of words built from v, which is checked above, are not checked again
    gens = {"c0": make_named("c0"), "f": GroupElement(0, _word_swap("0" * n, v))}
    expr = peephole(program, gens)[0]
    target = GroupElement(0, _word_swap("0" * (n - 1), reduced))
    if not all(program_matches(program, gens, [target])):
        raise AssertionError("elimination program failed verification")
    return expr


def _core_program(rules: dict, d: str, keep: str) -> int:
    """Rule over {c0, f} for the swap (0^m, core) around the 1 of d.

    f is the swap of 0^n and d.  keep selects which neighbourhood of the
    single difference bit survives: '01', '10' or '010'.
    """
    n = len(d)
    i = d.index("1")
    f = "f"
    left_strips = i - (1 if keep in ("01", "010") else 0)
    right_strips = (n - 1 - i) - (1 if keep in ("10", "010") else 0)
    for _ in range(left_strips):
        f = _strip_left(rules, f)
    for m in range(n - left_strips, n - left_strips - right_strips, -1):
        f = _strip_right(rules, f, m)
    return f


def _program_d(d: str) -> Program:
    # straight-line program over {c0, f} with one start per TARGETS entry,
    # for a difference word d with a single interior 1; equal rules are
    # one rule, so the cores share their strip steps
    rules: dict = {}
    # f_{00,10} conjugated by a flip at cell 1 is the controlled flip
    c1 = _rule(rules, ("c0", 1), (_core_program(rules, d, "10"), 0), ("c0", 1))
    # f_{00,01} conjugated by a flip at cell 0 sits one cell right of rc1
    rc1_at_1 = _rule(rules, ("c0", 0), (_core_program(rules, d, "01"), 0), ("c0", 0))
    rc1 = _rule(rules, (rc1_at_1, -1))
    # the classic three-gate identity: s = c1 . (rc1 one cell right) . c1
    s = _rule(rules, (c1, 0), (rc1_at_1, 0), (c1, 0))
    # conjugate f_{000,010} by wrap = (swap cells 0,1 then flips at 1, 2);
    # s and the flips are involutions, so wrap^-1 = s c0@1 c0@2, and the
    # flips commute, so in this order each c0@1 meets the one s begins or
    # ends with and cancels
    wrap = _rule(rules, ("c0", 2), ("c0", 1), (s, 0))
    core = _core_program(rules, d, "010")
    c2 = _rule(rules, (wrap, 0), (core, 0), (s, 0), ("c0", 1), ("c0", 2))
    return Program(rules, (c1, rc1, s, c2))


@functools.lru_cache(maxsize=4096)
def _verified_program_d(d: str) -> tuple[Program, GroupElement]:
    """P_d = _program_d(d) and its generator f, once P_d is verified.

    Each of P_d's four values over {c0, f} is compared against its
    target gate; for c2 that also checks its closing conjugator, written
    forwards, against its opening one.  Raises gates.ExpansionCapError,
    before any table is gathered, when P_d expands past the cap; every
    pair's expansion of it is at least as long.  A failed check raises,
    so it is never cached.
    """
    program = _program_d(d)
    longest = max(program.lengths())
    if longest > MAX_EXPANDED_ATOMS:
        raise ExpansionCapError(longest, MAX_EXPANDED_ATOMS)
    f = GroupElement(0, _word_swap("0" * len(d), d))  # built here: not checked again
    gens = {"c0": make_named("c0"), "f": f}
    targets = [make_named(target) for target in TARGETS.values()]
    for name, ok in zip(TARGETS, program_matches(program, gens, targets)):
        if not ok:
            raise AssertionError(f"synthesized program for {name} failed verification")
    return program, f


def _conjugations(u: str) -> dict:
    # the rule f over {c0, fuv}: conjugate (u, v) to (all zeros, d) by
    # flipping the cells where u is 1
    flips = tuple(("c0", j) for j, ch in enumerate(u) if ch == "1")
    return {"f": (*flips, ("fuv", 0), *flips)}


def synthesize_nct(u: str, v: str) -> dict[str, GateExpr]:
    """Verified programs for c1, rc1, s and c2 over {c0, fuv}.

    fuv is the swap of the given patterns at cells [0, n-1].  Raises
    NotUniversalError (carrying the classification) unless the pair is
    universal, and gates.ExpansionCapError when a program would expand
    past gates.MAX_EXPANDED_ATOMS atoms.  Each program's straight-line
    form has been evaluated and matched against the canonical gate it
    names; all four land at cell 0.  The part of that check which
    depends only on u xor v is done once per difference word.
    """
    verdict = classify_swap(u, v)  # checks u and v
    if verdict.verdict is not SwapVerdict.UNIVERSAL:
        raise NotUniversalError(u, v, verdict)
    gens = {"c0": make_named("c0"), "fuv": GroupElement(0, _word_swap(u, v))}
    program_d, f = _verified_program_d(format(word_xor(u, v), f"0{len(u)}b"))
    conjugations = _conjugations(u)
    flat = peephole(program_d, gens, conjugations)  # raises before evaluating if too long
    if not all(program_matches(Program(conjugations, ["f"]), gens, [f])):
        raise AssertionError("conjugated pattern swap failed verification")
    return dict(zip(TARGETS, flat))


def standard_generating_checks() -> list[tuple[str, bool]]:
    """Re-derive the identities behind the standard generating sets.

    Verifies that the swap is three controlled flips, that the doubly
    controlled flip is a pattern swap, and that the swap is an
    involution.  Returns one (name, holds) row per identity.
    """
    sigma, c1, rc1, s = (make_named(name) for name in ("sigma", "c1", "rc1", "swap"))
    lhs = compose_many([c1, compose_many([sigma.inverse(), rc1, sigma]), c1])
    return [
        ("swap from three controlled flips", lhs == s),
        ("doubly controlled flip is the swap of 011 and 111",
         make_named("c2") == make_word_swap("011", "111")),
        ("cell swap is an involution", s.compose(s).is_identity),
        ("mirrored controlled flip is rc1", rc1.shift_conjugate(1) == make_word_swap("10", "11")),
    ]

import contextlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import gates as G
from gatecalc.bitcore import int_to_word

RNG = np.random.default_rng(99)


def random_rule(width, lo=-2):
    return lo, lo + width - 1, RNG.permutation(1 << width)


def raw_apply(lo, hi, table, x, anchor):
    # independent evaluator for a raw window rule on a finite word
    bits = [int(ch) for ch in x]
    u = 0
    for c in range(lo, hi + 1):
        u = (u << 1) | bits[c - anchor]
    out = int(table[u])
    for c in range(lo, hi + 1):
        bits[c - anchor] = (out >> (hi - c)) & 1
    return "".join(map(str, bits))


# -- canonicalization ------------------------------------------------------


def test_canonicalize_identity_window():
    g = G.canonicalize(-3, 3, np.arange(128))
    assert g.is_identity


def test_canonicalize_flip_padded():
    # flip cell 0, given on a [-2, 2] window
    words = np.arange(32, dtype=np.int64)
    table = words ^ (1 << 2)
    g = G.canonicalize(-2, 2, table)
    assert g.window == (0, 0)
    assert list(g.table) == [1, 0]


def test_canonicalize_recovers_tight_window():
    # the rule-57 gate padded out to [-5, 5] canonicalizes back to [-1, 1]
    e57 = G.make_eca(57).inert
    words = np.arange(1 << 11, dtype=np.int64)
    s = 5 - e57.hi
    mask = (1 << e57.width) - 1
    padded = (words & ~(mask << s)) | (e57.table[(words >> s) & mask] << s)
    assert G.canonicalize(-5, 5, padded) == e57


def test_canonicalize_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        G.canonicalize(0, 1, [0, 0, 1, 2])
    with pytest.raises(ValueError, match="not a permutation"):
        G.canonicalize(0, 0, [0, 7])


def test_canonicalize_leaves_the_callers_array_alone():
    table = np.array([1, 0, 2, 3])
    G.canonicalize(0, 1, table)
    assert table.flags.writeable
    base = np.array([0, 2, 1, 3])
    g = G.canonicalize(0, 1, base[:])
    base[:] = [0, 1, 2, 3]
    swap = G.make_named("swap").inert
    assert g == swap and hash(g) == hash(swap)


def test_canonicalize_idempotent_and_semantics_preserved():
    widths = [int(RNG.integers(1, 7)) for _ in range(40)] + [7, 7, 8, 8]
    for width in widths:
        lo, hi, table = random_rule(width, lo=int(RNG.integers(-3, 3)))
        g = G.canonicalize(lo, hi, table)
        if not g.is_identity:
            again = G.canonicalize(g.lo, g.hi, g.table)
            assert again == g
        # compare against the raw rule on every word with 2 cells of margin
        ctx_lo, ctx_hi = lo - 2, hi + 2
        L = ctx_hi - ctx_lo + 1
        f = G.GroupElement(0, g)
        for k in range(1 << L):
            x = int_to_word(k, L)
            assert G.apply(f, x, ctx_lo) == raw_apply(lo, hi, table, x, ctx_lo)


# -- group structure -------------------------------------------------------


def sample_elements():
    e57 = G.make_eca(57)
    return [
        G.make_named("sigma"),
        G.make_named("c0").shift_conjugate(2),
        e57,
        e57.shift_conjugate(-1),
        G.make_named("swap"),
        G.GroupElement(-2, G.make_named("c2").inert),
        G.make_word_swap("01", "10"),
    ]


def test_group_laws():
    elems = sample_elements()
    for f in elems:
        assert f.compose(f.inverse()).is_identity
        assert f.inverse().compose(f).is_identity
    for i in range(len(elems) - 2):
        f, g, h = elems[i], elems[i + 1], elems[i + 2]
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_shift_power_is_a_homomorphism():
    elems = sample_elements()
    for f in elems:
        for g in elems:
            assert f.compose(g).shift == f.shift + g.shift


def test_sigma_compose():
    sigma = G.make_named("sigma")
    assert sigma.compose(sigma.inverse()).is_identity
    assert sigma.inverse() == G.GroupElement(-1, G.identity_gate())


def test_inert_gates_have_finite_order():
    for _ in range(20):
        width = int(RNG.integers(1, 4))
        g = G.canonicalize(*random_rule(width))
        assert g.order() >= 1
        assert math.factorial(1 << width) % g.order() == 0


def test_window_cap_enforced():
    old = G.WINDOW_CAP
    G.WINDOW_CAP = 6
    try:
        a = G.make_named("c0")
        b = G.make_named("c0").shift_conjugate(10)
        with pytest.raises(G.WindowCapError) as err:
            a.compose(b)
        assert err.value.required_width == 11
    finally:
        G.WINDOW_CAP = old


# -- conjugations ----------------------------------------------------------


def test_shift_conjugate_moves_window():
    e57 = G.make_eca(57)
    assert e57.shift_conjugate(0) == e57
    assert e57.shift_conjugate(3).inert.window == (2, 4)
    c0 = G.make_named("c0")
    assert c0.shift_conjugate(3).inert.window == (3, 3)


def test_shift_conjugate_matches_explicit_composition():
    sigma = G.make_named("sigma")
    for f in sample_elements():
        for k in (-2, 1, 5):
            explicit = G.compose_many(
                [G.GroupElement(-k, G.identity_gate()), f, G.GroupElement(k, G.identity_gate())]
            )
            assert f.shift_conjugate(k) == explicit
    # the gate one cell to the left of the rule-57 update
    e57 = G.make_eca(57)
    a = G.compose_many([sigma, e57, sigma.inverse()])
    assert a == e57.shift_conjugate(-1)
    assert a.inert.window == (-2, 0)


def test_reverse_conjugate():
    c0 = G.make_named("c0")
    assert c0.reverse_conjugate() == c0
    e57 = G.make_eca(57)
    assert e57.reverse_conjugate() == G.make_eca(99)
    for f in sample_elements():
        assert f.reverse_conjugate().reverse_conjugate() == f


def test_reverse_conjugate_is_an_automorphism():
    elems = sample_elements()
    for f in elems:
        assert f.reverse_conjugate().inverse() == f.inverse().reverse_conjugate()
        for g in elems:
            assert (
                f.compose(g).reverse_conjugate()
                == f.reverse_conjugate().compose(g.reverse_conjugate())
            )


# -- named gates ------------------------------------------------------------


def test_named_gates():
    assert G.make_named("ck", 1) == G.make_named("c1")
    assert G.make_named("c2") == G.make_word_swap("011", "111")
    assert G.make_named("identity").is_identity
    with pytest.raises(ValueError):
        G.make_named("nope")
    with pytest.raises(ValueError):
        G.make_named("ck")


def test_fixed_generators_are_built_once(monkeypatch):
    for name in ("identity", "sigma", "c0", "c1", "c2", "rc1", "swap"):
        g = G.make_named(name)
        assert G.make_named(name) is g
        if not g.inert.is_identity:
            assert not g.inert.table.flags.writeable
    # ck is built on every call: whether it fits the cap depends on k
    assert G.make_named("ck", 10).inert.width == 11
    monkeypatch.setattr(G, "WINDOW_CAP", 8)
    with pytest.raises(G.WindowCapError):
        G.make_named("ck", 10)


def test_gates_one_cell_apart_do_not_collide(monkeypatch):
    # CPython hashes -1 like -2; a hash over raw bounds or shift powers
    # would make every set holding both compare tables
    calls = []
    for cls in (G.InertGate, G.GroupElement):
        eq = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda a, b, eq=eq: calls.append(1) or eq(a, b))
    c0 = G.make_named("c0")
    moved = [c0.shift_conjugate(k) for k in range(-8, 9)]
    assert len({g.inert for g in moved}) == 17
    assert len(set(moved)) == 17
    assert len({G.GroupElement(k, c0.inert) for k in range(-8, 9)}) == 17
    assert calls == []


def test_swap_identity_from_controlled_flips():
    sigma = G.make_named("sigma")
    c1 = G.make_named("c1")
    rc1 = G.make_named("rc1")
    mid = G.compose_many([sigma.inverse(), rc1, sigma])
    assert G.compose_many([c1, mid, c1]) == G.make_named("swap")


def test_bit_elimination_identities():
    # stripping a zero border cell off the difference pattern: the core
    # move behind synthesizing gates from a universal pattern swap
    sigma = G.make_named("sigma")
    c0 = G.make_named("c0")
    for L in range(1, 6):
        for k in range(1 << L):
            v = int_to_word(k, L)
            reduced = G.make_word_swap("0" * L, v)
            f = G.make_word_swap("0" * (L + 1), "0" + v)
            lhs = G.compose_many([sigma, c0, f, c0, f, sigma.inverse()])
            assert lhs == reduced
            f = G.make_word_swap("0" * (L + 1), v + "0")
            flip_end = c0.shift_conjugate(L)
            assert G.compose_many([flip_end, f, flip_end, f]) == reduced


def test_flip_applies_to_window_words():
    c0 = G.make_named("c0")
    for k in range(8):
        x = int_to_word(k, 3)
        out = G.apply(c0, x, -1)
        assert out[0] == x[0] and out[2] == x[2] and out[1] != x[1]


# -- word swaps and CA updates ----------------------------------------------


def test_word_swap_basics():
    assert G.make_word_swap("0110", "0110").is_identity
    f = G.make_word_swap("001", "011")
    assert f.inert.window == (0, 2)
    table = list(f.inert.table)
    assert table[0b001] == 0b011 and table[0b011] == 0b001
    assert all(table[i] == i for i in range(8) if i not in (1, 3))
    with pytest.raises(ValueError, match="unequal lengths"):
        G.make_word_swap("01", "011")


def test_word_swap_wider_than_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(G, "WINDOW_CAP", 8)
    assert G.make_word_swap("0" * 8, "1" * 8).inert.width == 8
    with pytest.raises(G.WindowCapError) as err:
        G.make_word_swap("0" * 9, "1" * 9)
    assert err.value.required_width == 9


def test_word_swap_is_built_canonical():
    # make_word_swap skips canonicalize: its window [0, n - 1] is already canonical
    for n in range(1, 7):
        for iu in range(1 << n):
            for iv in range(1 << n):
                table = np.arange(1 << n)
                table[[iu, iv]] = iv, iu
                swap = G.make_word_swap(int_to_word(iu, n), int_to_word(iv, n))
                assert swap == G.GroupElement(0, G.canonicalize(0, n - 1, table)), (iu, iv)


def test_eca_57_table():
    e57 = G.make_eca(57)
    assert e57.inert.window == (-1, 1)
    got = {int_to_word(w, 3): int((e57.inert.table[w] >> 1) & 1) for w in range(8)}
    assert got == {
        "111": 0, "110": 0, "101": 1, "100": 1,
        "011": 1, "010": 0, "001": 0, "000": 1,
    }


def test_eca_51_is_flip_and_204_is_identity():
    assert G.make_eca(51) == G.make_named("c0")
    assert G.make_eca(204).is_identity


def test_eca_decomposes_into_flip_and_swap():
    sigma = G.make_named("sigma")
    rhs = G.compose_many(
        [G.make_named("c0"), sigma, G.make_word_swap("001", "011"), sigma.inverse()]
    )
    assert rhs == G.make_eca(57)


def test_eca_not_invertible():
    with pytest.raises(G.NotInvertibleError) as err:
        G.make_eca(0)
    assert err.value.context in [(a, c) for a in (0, 1) for c in (0, 1)]
    invertible = [r for r in range(256) if _invertible(r)]
    assert len(invertible) == 16


def _invertible(rule):
    try:
        G.make_eca(rule)
        return True
    except G.NotInvertibleError:
        return False


# -- finite application ------------------------------------------------------


def test_apply_examples():
    assert G.apply(G.make_named("c0"), "0101", 0) == "1101"
    e57 = G.make_eca(57)
    assert G.apply(e57, "001", -1) == "001"
    assert G.apply(e57, "000", -1) == "010"


def test_apply_insufficient_context():
    sigma = G.make_named("sigma")
    with pytest.raises(ValueError, match="missing cells \\[4\\]"):
        G.apply(sigma, "0101", 0)
    e57 = G.make_eca(57)
    with pytest.raises(ValueError, match="missing cells"):
        G.apply(e57, "01", 0)  # window [-1, 1] not covered


def test_apply_pure_shift():
    f = G.GroupElement(2, G.identity_gate())
    with pytest.raises(ValueError):
        G.apply(f, "0101", 0)
    # a shifted flip with enough context
    g = G.make_named("c0").shift_conjugate(1)
    assert G.apply(g, "0000", 0) == "0100"


# -- expressions --------------------------------------------------------------


def test_expr_parse_and_format():
    expr = G.GateExpr.parse("e57@1 e57 e57@-1")
    assert expr.atoms == (("e57", 1), ("e57", 0), ("e57", -1))
    assert expr.to_string() == "e57@1 e57 e57@-1"
    assert G.GateExpr.parse("").atoms == ()
    with pytest.raises(ValueError):
        G.GateExpr.parse("c0@@1")


def test_expr_evaluation_order():
    # first atom acts last: c0@0 then sigma reads the flipped cell
    gens = {"c0": G.make_named("c0"), "swap": G.make_named("swap")}
    e1 = G.evaluate_expr(G.GateExpr.parse("c0 swap"), gens)
    e2 = G.evaluate_expr(G.GateExpr.parse("swap c0"), gens)
    assert e1 == gens["c0"].compose(gens["swap"])
    assert e2 == gens["swap"].compose(gens["c0"])
    assert e1 != e2
    assert G.evaluate_expr(G.GateExpr.parse("c0 swap"), gens, leftmost_first=True) == e2


def test_expr_empty_and_cancelling():
    gens = {"e57": G.make_eca(57)}
    assert G.evaluate_expr(G.GateExpr(()), gens).is_identity
    word = G.GateExpr.parse("e57@1 e57 e57 e57@1")
    assert G.evaluate_expr(word, gens).is_identity


def test_expr_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator"):
        G.evaluate_expr(G.GateExpr.parse("mystery"), {})


# -- straight-line programs -----------------------------------------------


def order_sensitive_generators():
    # no involutions among them, so a wrong factor order or a dropped
    # shift changes the value
    a = G.canonicalize(0, 1, [1, 2, 0, 3])  # a 3-cycle
    b = G.canonicalize(0, 2, (np.arange(8) + 1) % 8)  # an 8-cycle
    return {"a": G.GroupElement(0, a), "b": G.GroupElement(0, b)}


def test_program_evaluation_equals_its_flat_expansion():
    gens = order_sensitive_generators()
    rules = {
        "x": (("a", 0), ("b", 1), ("a", -1)),
        "y": (("x", 2), ("b", 0), ("x", 0), ("x", 2)),
        "z": (("y", -1), ("a", 3), ("x", 1)),
    }
    program = G.Program(rules, ["z", "y", "x", "z"])
    flat = program.expand()
    assert flat[2].to_string() == "a b@1 a@-1"
    assert flat[1].to_string() == "a@2 b@3 a@1 b a b@1 a@-1 a@2 b@3 a@1"
    assert program.lengths() == [len(e) for e in flat] == [14, 10, 3, 14]
    values = G.evaluate_program(program, gens)
    assert values == [G.evaluate_expr(e, gens) for e in flat]
    assert len(set(values)) == 3


def test_matching_equals_comparing_the_evaluated_values():
    gens = {**order_sensitive_generators(), "c0": G.make_named("c0")}
    rules = {
        "x": (("a", 0), ("b", 1), ("a", -1)),
        "y": (("x", 2), ("b", 0), ("x", 0)),
        "i": (("c0", 4), ("c0", 4)),  # the identity, from non-identity leaves
    }
    program = G.Program(rules, ["y", "x", "i"])
    values = G.evaluate_program(program, gens)
    x = values[1]
    candidates = [
        values,
        [values[0], x.shift_conjugate(1), G.IDENTITY],  # x one cell right
        [x, values[0], x],
        [G.GroupElement(1, values[0].inert), G.compose(x, x), G.make_named("c0")],
        [G.make_named("c0").shift_conjugate(9), G.make_named("c0"), G.make_named("sigma")],
    ]
    for expected in candidates:
        assert G.program_matches(program, gens, expected) == [
            value == e for value, e in zip(values, expected)
        ]
    assert G.program_matches(program, gens, values) == [True, True, True]
    idle = G.Program({"x": (("i", 3),)}, ["x"])
    assert G.program_matches(idle, {"i": G.IDENTITY}, [G.IDENTITY]) == [True]
    assert G.program_matches(idle, {"i": G.IDENTITY}, [G.make_named("c0")]) == [False]
    with pytest.raises(ValueError, match="2 expected values for 3 starts"):
        G.program_matches(program, gens, values[:2])


def test_substitution_equals_the_program_written_out():
    gens = order_sensitive_generators()
    rules = {
        "x": (("a", 0), ("g", 1), ("a", -1)),
        "y": (("x", 2), ("g", 0), ("x", 0), ("h", 2)),
    }
    defined = {"g": (("b", 0), ("a", 1)), "h": (("a", 0),)}
    program = G.Program(rules, ["y", "x"]).substitute(defined)
    direct = G.Program({**defined, **rules}, ["y", "x"])
    assert {k: set(v) for k, v in program.cells.items()} == {
        k: set(v) for k, v in direct.cells.items()
    }
    assert program.uses == direct.uses
    assert program.lengths() == direct.lengths() == [11, 4]
    assert [e.to_string() for e in program.expand()] == [e.to_string() for e in direct.expand()]
    assert G.evaluate_program(program, gens) == G.evaluate_program(direct, gens)
    # a rule may define only a generator, over generators
    for bad in ({"x": (("a", 0),)}, {"g": (("x", 0),)}, {"g": (("h", 0),), "h": (("a", 0),)},
                {"g": ()}):
        with pytest.raises(ValueError, match="must define a generator"):
            G.Program(rules, ["y"]).substitute(bad)


def test_program_rejects_malformed_rules():
    with pytest.raises(ValueError, match="unknown start"):
        G.Program({"x": (("a", 0),)}, ["y"])
    with pytest.raises(ValueError, match="empty"):
        G.Program({"x": ()}, ["x"])
    with pytest.raises(ValueError, match="after it"):
        G.Program({"x": (("y", 0),), "y": (("a", 0),)}, ["x"])
    with pytest.raises(ValueError, match="after it"):
        G.Program({"x": (("a", 0), ("x", 1))}, ["x"])


def test_program_evaluation_errors():
    c0 = G.make_named("c0")
    with pytest.raises(ValueError, match="unknown generator"):
        G.evaluate_program(G.Program({"x": (("c1", 0),)}, ["x"]), {"c0": c0})
    with pytest.raises(ValueError, match="not inert"):
        G.evaluate_program(G.Program({"x": (("s", 0),)}, ["x"]), {"s": G.make_named("sigma")})
    wide = G.Program({"x": (("c0", 0), ("c0", 30))}, ["x"])
    with pytest.raises(G.WindowCapError) as err:
        G.evaluate_program(wide, {"c0": c0})
    assert err.value.required_width == 31
    idle = G.Program({"x": (("i", 3), ("i", 5))}, ["x"])
    assert G.evaluate_program(idle, {"i": G.IDENTITY}) == [G.IDENTITY]


def test_expansion_past_the_cap_is_refused_before_expanding():
    rules = {0: (("c0", 0),)}
    for i in range(1, 22):
        rules[i] = ((i - 1, 0), (i - 1, 1))
    program = G.Program(rules, [20, 21])
    assert program.lengths() == [1 << 20, 1 << 21]
    with pytest.raises(G.ExpansionCapError) as err:
        program.expand()
    assert (err.value.length, err.value.cap) == (1 << 21, G.MAX_EXPANDED_ATOMS)


def test_record_roundtrip():
    for f in sample_elements():
        assert G.GroupElement.from_record(f.to_record()) == f


# -- one-pass evaluation against the pairwise chain ---------------------------


@contextlib.contextmanager
def patched(**settings):
    old = {name: getattr(G, name) for name in settings}
    for name, value in settings.items():
        setattr(G, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(G, name, value)


def pairwise_compose(f, g):
    # reference: f after g, two gates at a time in the hull of both windows
    a, b = f.inert.shift_by(g.shift), g.inert
    if a.is_identity or b.is_identity:
        inert = b if a.is_identity else a
    else:
        lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
        if hi - lo + 1 > G.WINDOW_CAP:
            raise G.WindowCapError(hi - lo + 1, G.WINDOW_CAP)
        words = np.arange(1 << (hi - lo + 1), dtype=np.int64)
        for gate in (b, a):
            s = hi - gate.hi
            mask = (1 << gate.width) - 1
            words = (words & ~(mask << s)) | (gate.table[(words >> s) & mask] << s)
        inert = G.canonicalize(lo, hi, words)
    return G.GroupElement(f.shift + g.shift, inert)


def pairwise_chain(elements):
    acc = G.IDENTITY
    for f in reversed(elements):
        acc = pairwise_compose(f, acc)
    return acc


@st.composite
def random_table_gates(draw, max_width=3):
    width = draw(st.integers(1, max_width))
    lo = draw(st.integers(-4, 4))
    table = draw(st.permutations(range(1 << width)))
    return G.GroupElement(0, G.canonicalize(lo, lo + width - 1, table))


_NAMED = [G.make_named(n) for n in ("c0", "c1", "rc1", "swap", "c2")] + [G.make_eca(57)]
_SIGMA = G.make_named("sigma")

atoms = st.one_of(
    st.sampled_from([_SIGMA, _SIGMA.inverse(), G.IDENTITY]),
    st.builds(lambda f, k: f.shift_conjugate(k), st.sampled_from(_NAMED), st.integers(-5, 5)),
    random_table_gates(),
)

# runs of atoms, some followed by their inverse, so that a product can
# cancel back below the cap after its hull has crossed it
chains = st.lists(
    st.one_of(atoms.map(lambda f: [f]), atoms.map(lambda f: [f, f.inverse()])),
    max_size=8,
).map(lambda runs: [f for run in runs for f in run])

# small enough that tables stay tiny, narrow enough that atoms at
# opposite ends of the position range cross it
PROPERTY_CAP = 9

# the default embeds every gate; 64 words embeds some gates of a product
# and substitutes the rest in place, none at all past a 6-cell hull
EMBED_BUDGETS = (G._EMBED_BUDGET, 64)


def outcome(fn):
    try:
        return fn()
    except G.WindowCapError as err:
        return ("cap", err.required_width)


@settings(max_examples=300, deadline=None)
@given(chains)
def test_one_pass_equals_pairwise_chain(elements):
    gens = {f"g{i}": f for i, f in enumerate(elements)}
    expr = G.GateExpr(tuple((name, 0) for name in gens))
    with patched(WINDOW_CAP=PROPERTY_CAP):
        expected = outcome(lambda: pairwise_chain(elements))
    for budget in EMBED_BUDGETS:
        with patched(WINDOW_CAP=PROPERTY_CAP, _EMBED_BUDGET=budget):
            assert outcome(lambda: G.compose_many(elements)) == expected
            assert outcome(lambda: G.evaluate_expr(expr, gens)) == expected


@st.composite
def repeated_atom_exprs(draw):
    # a few generators, sigma among them, and a word over (name, k) that
    # repeats atoms, so the same atom recurs at different running shifts
    drawn = draw(st.lists(atoms, min_size=1, max_size=4))
    gens = {"s": _SIGMA, **{f"g{i}": f for i, f in enumerate(drawn)}}
    atom = st.tuples(st.sampled_from(sorted(gens)), st.integers(-2, 2))
    return gens, G.GateExpr(tuple(draw(st.lists(atom, max_size=12))))


@settings(max_examples=300, deadline=None)
@given(repeated_atom_exprs())
def test_repeated_atoms_equal_pairwise_chain(case):
    gens, expr = case
    for leftmost_first in (False, True):
        # function order: the first element is applied last
        order = expr.atoms[::-1] if leftmost_first else expr.atoms
        elements = [gens[name].shift_conjugate(k) for name, k in order]
        with patched(WINDOW_CAP=PROPERTY_CAP):
            expected = outcome(lambda: pairwise_chain(elements))
        for budget in EMBED_BUDGETS:
            with patched(WINDOW_CAP=PROPERTY_CAP, _EMBED_BUDGET=budget):
                assert outcome(lambda: G.compose_many(elements)) == expected
                got = outcome(lambda: G.evaluate_expr(expr, gens, leftmost_first))
                assert got == expected


@settings(max_examples=100, deadline=None)
@given(atoms, atoms, atoms)
def test_group_laws_hold_for_random_elements(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert (f * f.inverse()).is_identity and (f.inverse() * f).is_identity
    assert (f * g).inverse() == g.inverse() * f.inverse()
    assert G.compose_many([f, g, h]) == pairwise_chain([f, g, h])
    a, b, c = f.inert, g.inert, h.inert
    assert a.compose(b, c) == a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=100, deadline=None)
@given(atoms, atoms, st.integers(-9, 9))
def test_shift_conjugation_is_an_automorphism(f, g, k):
    assert (f * g).shift_conjugate(k) == f.shift_conjugate(k) * g.shift_conjugate(k)
    assert f.shift_conjugate(k).shift_conjugate(-k) == f


def tape_image(f, x, anchor, margin):
    # cells [anchor + margin, anchor + len(x) - margin) of f(x): the
    # inert part by apply, then cell i reads cell i + shift
    y = G.apply(G.GroupElement(0, f.inert), x, anchor)
    return y[margin + f.shift : len(x) - margin + f.shift]


# the same element built another way, or an unrelated one
element_pairs = st.one_of(
    st.tuples(atoms, atoms),
    st.builds(lambda f, h: (f, G.compose_many([f, h, h.inverse()])), atoms, atoms),
    st.builds(lambda f, h: (f, f * h), atoms, atoms),
)


@settings(max_examples=100, deadline=None)
@given(element_pairs, st.integers(0, 2**32))
def test_records_are_equal_exactly_when_tape_images_are(pair, seed):
    f, g = pair
    cells = sorted(
        {c for h in pair if not h.inert.is_identity for c in range(h.inert.lo, h.inert.hi + 1)}
    )
    # every assignment of the window cells, on a random background wide
    # enough that unequal shift powers show
    margin = max(abs(f.shift), abs(g.shift))
    anchor = min(cells, default=0) - margin - 16
    length = max(cells, default=0) + margin + 17 - anchor
    rnd = random.Random(seed)
    equal_images = True
    for bits in itertools.product("01", repeat=len(cells)):
        tape = [rnd.choice("01") for _ in range(length)]
        for c, b in zip(cells, bits):
            tape[c - anchor] = b
        x = "".join(tape)
        equal_images &= tape_image(f, x, anchor, margin) == tape_image(g, x, anchor, margin)
    assert (f.to_record() == g.to_record()) == equal_images


@settings(max_examples=100, deadline=None)
@given(random_table_gates())
def test_order_is_the_least_power_giving_the_identity(f):
    g = f.inert
    power, k = g, 1
    while not power.is_identity:
        power, k = power.compose(g), k + 1
    assert g.order() == k


def test_chain_succeeds_through_cancellation_past_the_cap():
    # the hull of all three atoms is 31 cells, but c0@30 cancels first
    c0 = G.make_named("c0")
    far = c0.shift_conjugate(30)
    assert G.compose_many([c0, far, far]) == c0
    assert G.evaluate_expr(G.GateExpr.parse("c0 c0@30 c0@30"), {"c0": c0}) == c0
    with pytest.raises(G.WindowCapError) as err:
        G.compose_many([far, c0, far])
    assert err.value.required_width == 31

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import analysis as A
from gatecalc import gates as G
from gatecalc.bitcore import int_to_word

RNG = np.random.default_rng(31)


def random_gate(max_width=4):
    width = int(RNG.integers(1, max_width + 1))
    lo = int(RNG.integers(-3, 4))
    return G.canonicalize(lo, lo + width - 1, RNG.permutation(1 << width))


# -- linear / affine ---------------------------------------------------------


def test_linear_affine_examples():
    assert A.is_linear(G.make_named("c1").inert)
    e105 = G.make_eca(105).inert
    assert A.is_affine(e105) and not A.is_linear(e105)
    assert not A.is_affine(G.make_named("c2").inert)
    assert A.is_linear(G.identity_gate())
    assert A.is_affine(G.make_named("c0").inert)
    assert not A.is_linear(G.make_named("c0").inert)


def test_affine_matches_definition_exhaustively():
    # small windows: compare the superposition test with the definition
    for width in (1, 2, 3):
        size = 1 << width
        for _ in range(40):
            table = RNG.permutation(size)
            g = G.canonicalize(0, width - 1, table)
            if g.is_identity:
                continue
            by_def = all(
                table[u ^ v] ^ table[0] == (table[u] ^ table[0]) ^ (table[v] ^ table[0])
                for u in range(size)
                for v in range(size)
            )
            assert A.is_affine(g) == by_def


def test_affine_invariant_under_conjugation():
    for _ in range(30):
        g = random_gate()
        f = G.GroupElement(0, g)
        value = A.is_affine(g)
        assert A.is_affine(f.shift_conjugate(int(RNG.integers(-4, 5))).inert) == value
        assert A.is_affine(f.reverse_conjugate().inert) == value


def test_every_gate_of_width_two_is_affine():
    # |AGL(2,2)| = 4! = 24, so no gate of width <= 2 is universal with the
    # shift; with rules 57 and 99 (criterion 8), 3 is the least width of a
    # universal gate.  Width-1 gates are the ones among these that ignore a cell.
    tables = list(itertools.permutations(range(4)))
    assert len(tables) == 24
    for table in tables:
        assert A.is_affine(G.canonicalize(0, 1, np.array(table)))


# -- wires and lamps ----------------------------------------------------------


def test_wire_and_lamplighter_examples():
    s = G.make_named("swap")
    c0 = G.make_named("c0")
    assert A.is_wire_permutation(s) and not A.is_lamplighter(s)
    assert A.is_lamplighter(c0) and not A.is_wire_permutation(c0)
    assert A.is_wire_permutation(G.IDENTITY) and A.is_lamplighter(G.IDENTITY)
    sigma = G.make_named("sigma")
    assert A.is_wire_permutation(sigma) and A.is_lamplighter(sigma)
    assert not A.is_wire_permutation(G.make_named("c1"))
    assert not A.is_lamplighter(G.make_named("c1"))


# -- one-sided flow ------------------------------------------------------------


def test_one_sided_examples():
    for k in range(5):
        ck = G.make_named("ck", k)
        assert A.in_GL(ck.inert)
        assert A.in_GR(ck.reverse_conjugate().inert)
        if k >= 1:
            assert not A.in_GR(ck.inert)
    s = G.make_named("swap").inert
    assert not A.in_GR(s) and not A.in_GL(s)
    assert A.in_GR(G.identity_gate()) and A.in_GL(G.identity_gate())
    # flips are one-cell local, so they flow both ways
    c0 = G.make_named("c0").inert
    assert A.in_GR(c0) and A.in_GL(c0)


def test_both_sided_gates_are_cellwise():
    # exhaustively at width <= 3: in both one-sided groups means every
    # cell depends only on itself, i.e. a fixed pattern of flips
    for width in (1, 2, 3):
        size = 1 << width
        for perm in itertools.permutations(range(size)) if width < 3 else _sampled_perms(size, 300):
            g = G.canonicalize(0, width - 1, np.array(perm))
            if g.is_identity:
                continue
            if A.in_GR(g) and A.in_GL(g):
                f = G.GroupElement(0, g)
                assert A.is_lamplighter(f) or A.is_wire_permutation(f)


def _sampled_perms(size, count):
    for _ in range(count):
        yield tuple(RNG.permutation(size))


# -- every predicate against its definition ---------------------------------------


def check_definitions(table, lo=0):
    """Each predicate on the table over [lo, ...] against its definition, by brute force."""
    table = [int(t) for t in table]
    width = (len(table) - 1).bit_length()
    words = range(len(table))
    g = G.canonicalize(lo, lo + width - 1, np.array(table))
    f = G.GroupElement(0, g)
    # (p_in, p_out): flipping input bit p_in changes output bit p_out for some word
    reach = {
        (p_in, p_out)
        for u in words
        for p_in in range(width)
        for p_out in range(width)
        if ((table[u] ^ table[u ^ (1 << p_in)]) >> p_out) & 1
    }
    assert A.in_GR(g) == all(p_in >= p_out for p_in, p_out in reach)
    assert A.in_GL(g) == all(p_in <= p_out for p_in, p_out in reach)
    affine = all(table[u ^ v] == table[u] ^ table[v] ^ table[0] for u in words for v in words)
    assert A.is_affine(g) == affine
    assert A.is_linear(g) == (affine and table[0] == 0)
    wires = any(
        all(table[u] == sum(((u >> p) & 1) << pi[p] for p in range(width)) for u in words)
        for pi in itertools.permutations(range(width))
    )
    assert A.is_wire_permutation(f) == wires
    assert A.is_lamplighter(f) == all(table[u] == u ^ table[0] for u in words)


def window_table(g):
    return G.embed(g, g.lo, g.hi)


def test_predicates_match_definitions_on_small_and_structured_gates():
    tables = [[0]]  # the identity, on no cells
    for width in (1, 2):
        tables += itertools.permutations(range(1 << width))
    for rule in range(256):
        try:
            tables.append(window_table(G.make_eca(rule).inert))
        except G.NotInvertibleError:
            pass
    for n in range(1, 6):
        for iu, iv in itertools.combinations(range(1 << n), 2):
            swap = G.make_word_swap(int_to_word(iu, n), int_to_word(iv, n)).inert
            tables.append(window_table(swap))
    for k in range(4):
        ck = G.make_named("ck", k)
        tables += [window_table(ck.inert), window_table(ck.reverse_conjugate().inert)]
    u = np.arange(8)
    for pi in itertools.permutations(range(3)):
        moved = sum(((u >> p) & 1) << pi[p] for p in range(3))
        tables += [moved ^ c for c in range(8)]
    for table in tables:
        check_definitions(table)


@st.composite
def drawn_tables(draw):
    """A table of width 3..5: any permutation, or a wire permutation then controlled flips.

    The flips' controls may all lie above or all below the flipped bit,
    so that one-sided, affine, wire and lamplighter tables all occur.
    """
    width = draw(st.integers(3, 5))
    size = 1 << width
    if draw(st.booleans()):
        return draw(st.permutations(range(size)))
    pi = draw(st.permutations(range(width))) if draw(st.booleans()) else range(width)
    table = [sum(((u >> p) & 1) << pi[p] for p in range(width)) for u in range(size)]
    side = draw(st.sampled_from(["above", "below", "either"]))
    max_controls = draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, width - 1))
        others = [p for p in range(width) if p != i and (side == "either" or (p > i) == (side == "above"))]
        controls = draw(st.lists(st.sampled_from(others), max_size=max_controls, unique=True)) if others else []
        mask = sum(1 << p for p in controls)
        table = [t ^ (((t & mask) == mask) << i) for t in table]
    return table


@settings(max_examples=300, deadline=None)
@given(table=drawn_tables(), lo=st.integers(-3, 3))
def test_predicates_match_definitions_on_drawn_tables(table, lo):
    check_definitions(table, lo)


# -- coset preservation ---------------------------------------------------------


def test_in_GV_examples():
    f = G.make_word_swap("00", "11").inert
    assert A.in_GV(f, "11")
    c0 = G.make_named("c0").inert
    for w in ("11", "101", "1"):
        assert A.in_GV(c0, w)
    # the controlled flip preserves no proper shift-span cosets
    c1 = G.make_named("c1").inert
    for w in ("11", "101", "110"):
        assert not A.in_GV(c1, w)
    assert A.in_GV(G.identity_gate(), "101")
    # asymmetric spans: 1101 and its mirror 1011 are distinct irreducibles,
    # so reading w and the displacements in opposite directions is seen
    f = G.make_word_swap("0000", "1101").inert
    assert A.in_GV(f, "1101") and A.in_GV(f, "01101")
    assert not A.in_GV(f, "1011")
    # difference 10111 = (1 + x)(1 + x + x^3), as word index i is x^i
    f = G.make_word_swap("00000", "10111").inert
    assert A.in_GV(f, "1101") and A.in_GV(f, "11")
    assert not A.in_GV(f, "1011")
    with pytest.raises(ValueError):
        A.in_GV(c1, "000")


def test_in_GV_swap_difference_span():
    # a pattern swap preserves cosets of the span of its own difference
    for u, v in [("0011", "0101"), ("110", "011"), ("10010", "11011")]:
        f = G.make_word_swap(u, v).inert
        d = "".join("1" if a != b else "0" for a, b in zip(u, v))
        assert A.in_GV(f, d)


# -- swap classification -----------------------------------------------------------


def test_classify_swap_examples():
    assert A.classify_swap("001", "011").verdict is A.SwapVerdict.UNIVERSAL
    cls = A.classify_swap("011", "111")
    assert cls.verdict is A.SwapVerdict.LEFT_ONE_SIDED and cls.verified
    cls = A.classify_swap("00", "11")
    assert cls.verdict is A.SwapVerdict.COSET_PRESERVING
    assert cls.witness == "11" and cls.verified
    assert A.classify_swap("010", "010").verdict is A.SwapVerdict.TRIVIAL
    cls = A.classify_swap("10", "11")
    assert cls.verdict is A.SwapVerdict.RIGHT_ONE_SIDED and cls.verified


def test_classify_swap_matches_pattern_exhaustively():
    for n in range(1, 6):
        for iu in range(1 << n):
            for iv in range(1 << n):
                u, v = int_to_word(iu, n), int_to_word(iv, n)
                cls = A.classify_swap(u, v, verify=False)
                d = [i for i in range(n) if u[i] != v[i]]
                expect_universal = len(d) == 1 and 0 < d[0] < n - 1
                assert (cls.verdict is A.SwapVerdict.UNIVERSAL) == expect_universal


def direct_classification(u, v):
    # the verdict with all three generators checked on every call
    d = "".join("01"[a != b] for a, b in zip(u, v))
    ones = [i for i, ch in enumerate(d) if ch == "1"]
    swap = G.make_word_swap(u, v)
    gates = [G.make_named("c0").inert, swap.inert, G.make_named("sigma").inert]
    if not ones:
        return A.SwapClass(A.SwapVerdict.TRIVIAL, "trivial group", None, swap.is_identity)
    if ones == [len(d) - 1]:
        return A.SwapClass(A.SwapVerdict.RIGHT_ONE_SIDED, "right-flow subgroup", None,
                           all(A.in_GR(g) for g in gates))
    if ones == [0]:
        return A.SwapClass(A.SwapVerdict.LEFT_ONE_SIDED, "left-flow subgroup", None,
                           all(A.in_GL(g) for g in gates))
    if len(ones) == 1:
        return A.SwapClass(A.SwapVerdict.UNIVERSAL)
    return A.SwapClass(A.SwapVerdict.COSET_PRESERVING, "coset-preserving subgroup", d,
                       all(A.in_GV(g, d) for g in gates))


def test_verified_classification_equals_a_direct_check_of_every_gate():
    pairs = [
        (int_to_word(iu, n), int_to_word(iv, n))
        for n in range(1, 7) for iu in range(1 << n) for iv in range(1 << n)
    ]
    assert len(pairs) == 5460
    for u, v in pairs:
        assert A.classify_swap(u, v, verify=True) == direct_classification(u, v), (u, v)


@pytest.fixture
def cold_membership_cache():
    A._flip_and_shift_in.cache_clear()
    yield
    A._flip_and_shift_in.cache_clear()


@pytest.mark.parametrize(
    "predicate,u,v", [("in_GR", "00", "01"), ("in_GL", "00", "10"), ("in_GV", "00", "11")]
)
def test_a_flip_outside_the_subgroup_is_reported(monkeypatch, cold_membership_cache,
                                                 predicate, u, v):
    # the flip's membership, read once per subgroup, still decides verified
    c0 = G.make_named("c0").inert
    real = getattr(A, predicate)
    monkeypatch.setattr(A, predicate, lambda g, *w: g is not c0 and real(g, *w))
    assert A.classify_swap(u, v).verified is False
    monkeypatch.undo()
    A._flip_and_shift_in.cache_clear()
    assert A.classify_swap(u, v).verified is True


def test_classify_swap_length_mismatch():
    with pytest.raises(ValueError):
        A.classify_swap("01", "011")


# -- CA rule classification ----------------------------------------------------------


def test_classify_eca_partition():
    verdicts = [A.classify_eca(r) for r in range(256)]
    bijective = [c for c in verdicts if c.verdict is not A.EcaVerdict.NOT_BIJECTIVE]
    universal = [c.rule for c in verdicts if c.verdict is A.EcaVerdict.UNIVERSAL]
    assert len(bijective) == 16
    assert universal == [57, 99]
    assert A.classify_eca(51).reason == "equals-c0"
    assert A.classify_eca(105).reason == "affine"
    assert A.classify_eca(204).reason == "identity-like"
    assert A.classify_eca(0).verdict is A.EcaVerdict.NOT_BIJECTIVE
    assert A.classify_eca(0).context is not None


def test_bijective_rules_match_the_mask_pattern():
    # bijective iff bits come in complementary pairs per neighbour context
    for r in range(256):
        bits = [(r >> i) & 1 for i in range(8)]
        expected = all(bits[w] != bits[w | 0b010] for w in (0, 1, 4, 5))
        actual = A.classify_eca(r).verdict is not A.EcaVerdict.NOT_BIJECTIVE
        assert actual == expected


def test_universal_certificates_verify():
    for rule in (57, 99):
        cert = A.classify_eca(rule).certificate
        assert cert is not None and cert["flip_reached"]
    with pytest.raises(ValueError):
        A.flip_certificate(51)


def test_flip_program_report_all_true():
    # for this particular involution program all four readings validate;
    # the report measures rather than assumes
    report = A.flip_program_report()
    assert report["standard/first-acts-last"]
    assert report["standard/first-acts-last"] == report["standard/first-acts-first"]


def test_flip_program_discriminates_random_words():
    # the machinery is not trivially satisfied: random words fail
    rng = np.random.default_rng(5)
    gens = {"e": G.make_eca(57)}
    c0 = G.make_named("c0")
    letters = {k: ("e", cell) for k, (_, cell) in A.FLIP_PROGRAM_LETTERS.items()}
    hits = 0
    for _ in range(10):
        word = "".join(rng.choice(list("abc")) for _ in range(50))
        expr = G.GateExpr.from_letters(word, letters)
        if G.evaluate_expr(expr, gens) == c0:
            hits += 1
    assert hits == 0

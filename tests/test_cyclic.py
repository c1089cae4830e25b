import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import gates as G
from gatecalc import cyclic as C
from gatecalc.bitcore import int_to_word

RNG = np.random.default_rng(7)


def random_gate(max_width=5, lo_range=(-3, 3)):
    width = int(RNG.integers(1, max_width + 1))
    lo = int(RNG.integers(lo_range[0], lo_range[1] + 1))
    return G.canonicalize(lo, lo + width - 1, RNG.permutation(1 << width))


def test_rotation_is_the_projected_shift():
    sigma = G.make_named("sigma")
    p = C.project_formula(sigma, 3)
    for k in range(8):
        w = int_to_word(k, 3)
        expected = w[1:] + w[0]
        assert int_to_word(int(p.perm[k]), 3) == expected


def test_identity_projection():
    assert C.project_formula(G.IDENTITY, 5) == C.CyclicPerm.identity(5)


def test_flip_projection_frozen():
    p = C.project_formula(G.make_named("c0"), 4)
    assert np.array_equal(p.perm, np.arange(16) ^ 0b1000)
    assert C.project_formula(G.make_named("c0"), 4) == C.project_periodic(
        G.make_named("c0"), 4
    )


def test_word_swap_projection_periodic():
    f = G.make_word_swap("01", "10")
    p = C.project_periodic(f, 4)
    # prefix 01 <-> 10, the other two cells untouched
    assert int_to_word(int(p.perm[0b0111]), 4) == "1011"
    assert int_to_word(int(p.perm[0b1011]), 4) == "0111"
    assert int(p.perm[0b0011]) == 0b0011
    assert p == C.project_formula(f, 4)


def test_ring_too_small():
    e57 = G.make_eca(57)
    with pytest.raises(C.RingTooSmallError) as err:
        C.project_formula(e57, 3)
    assert err.value.min_ring == 4
    with pytest.raises(C.RingTooSmallError):
        C.project_periodic(e57, 3)


@pytest.mark.parametrize("n", [4.0, np.float64(4), True, "4"], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda n: C.CyclicPerm(n, np.arange(16)),
        lambda n: C.CyclicPerm.identity(n),
        lambda n: C.CyclicPerm.rotation(n),
        lambda n: C.project_formula(G.make_named("c0"), n),
        lambda n: C.project_periodic(G.make_named("c0"), n),
    ],
    ids=["CyclicPerm", "identity", "rotation", "project_formula", "project_periodic"],
)
def test_ring_sizes_that_are_not_integers_are_refused(build, n):
    with pytest.raises(ValueError, match="ring size must be an integer"):
        build(n)
    assert build(np.int64(4)).n == build(4).n == 4


@pytest.mark.parametrize("n", [4.0, np.float64(4), True, "4"], ids=repr)
@pytest.mark.parametrize("count", [C.necklace_count, C.necklace_count_by_orbits], ids=lambda f: f.__name__)
def test_necklace_sizes_that_are_not_integers_are_refused(count, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        count(n)
    assert count(np.int64(4)) == count(4) == 6


C0 = G.make_named("c0")


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: C.CyclicPerm.rotation(5, 1.5), "k must be an integer"),
        (lambda: C.CyclicPerm.rotation(5, True), "k must be an integer"),
        (lambda: C.check_conjugation_identity(C0.inert, 4, 1.5), "m must be an integer"),
        (lambda: C.check_conjugation_identity(C0.inert, 4, True), "m must be an integer"),
        (lambda: C.check_locality_homomorphism([C0], 6, 1.5), "h must be an integer"),
        (lambda: C.check_locality_homomorphism([C0], 6, True), "h must be an integer"),
        (lambda: C.necklace_table(0), r"max_n must be in \[1, 64\], got 0"),
        (lambda: C.necklace_table(-3), r"max_n must be in \[1, 64\], got -3"),
        (lambda: C.necklace_table(65), r"max_n must be in \[1, 64\], got 65"),
        (lambda: C.necklace_table(True), "max_n must be an integer"),
        (lambda: C.necklace_table(2.5), "max_n must be an integer"),
    ],
    ids=[
        "rotation-float", "rotation-bool", "conjugation-float", "conjugation-bool",
        "locality-float", "locality-bool", "necklace-0", "necklace-negative",
        "necklace-65", "necklace-bool", "necklace-float",
    ],
)
def test_ring_arguments_that_are_not_integers_in_range_are_refused_on_entry(call, match):
    # necklace_table refuses when called, before any row is computed
    with pytest.raises(ValueError, match=match):
        call()


def test_formula_matches_periodic_exhaustively():
    # includes windows across the seam via large offsets
    for _ in range(60):
        gate = random_gate()
        f = G.GroupElement(int(RNG.integers(-3, 4)), gate)
        for n in range(C.min_ring(f), 11):
            assert C.project_formula(f, n) == C.project_periodic(f, n), (gate, n)


def test_wraparound_branch_specifically():
    e57 = G.make_eca(57)
    for n in (4, 5, 6):
        for j in (n - 1, n, n + 2):
            f = e57.shift_conjugate(j)  # window [j-1, j+1] crosses the seam
            assert C.project_formula(f, n) == C.project_periodic(f, n)


def test_packed_oracle_fits_one_int64_per_word():
    # three periods of an n-cell word share one int64, sign bit unused
    assert 3 * C.RING_CAP <= 62


@pytest.mark.parametrize("n", [18, 19, 20])
def test_packed_oracle_near_the_int64_limit(n):
    # 3n is 54..60 bits: the top period and the seam sit in the high bits
    e57 = G.make_eca(57)
    for j in (n - 1, n, n + 2, -5):
        f = e57.shift_conjugate(j)
        assert C.project_periodic(f, n) == C.project_formula(f, n), (n, j)
    rng = np.random.default_rng(n)
    gate = G.canonicalize(n - 2, n + 2, rng.permutation(32))
    assert gate.width == 5
    f = G.GroupElement(int(rng.integers(1, n)), gate)
    assert C.project_periodic(f, n) == C.project_formula(f, n)


@st.composite
def gates_on_rings(draw, max_n=10):
    width = draw(st.integers(0, 5))  # even widths have padded rules
    lo = draw(st.integers(-30, 30))
    table = draw(st.permutations(range(1 << width)))
    gate = G.canonicalize(lo, lo + width - 1, table) if width else G.identity_gate()
    f = G.GroupElement(draw(st.integers(-8, 8)), gate)
    return f, draw(st.integers(C.min_ring(f), max_n))


@settings(max_examples=100, deadline=None)
@given(gates_on_rings())
def test_formula_matches_periodic_anywhere_on_the_tape(case):
    f, n = case
    p = C.project_formula(f, n)
    assert p == C.project_periodic(f, n)
    # moving the window a whole period round the ring changes nothing
    assert C.project_formula(f.shift_conjugate(n), n) == p


def periodic_reference(f, n):
    # the oracle one word at a time: three periods in a Python list
    g = f.inert
    size = 1 << n
    perm = np.empty(size, dtype=np.int64)
    if g.is_identity:
        positions = []
        radius = 0
        table = None
        width = 0
    else:
        start, table = g.padded_rule()
        radius = g.radius
        width = 2 * radius + 1
        q0 = (start + radius) % n
        positions = [
            q
            for q in (q0 - n, q0, q0 + n)
            if -n <= q - radius and q + radius <= 2 * n - 1
        ]
    k = f.shift % n
    for w in range(size):
        buf = [(w >> (n - 1 - (j % n))) & 1 for j in range(-n, 2 * n)]
        for q in positions:
            base = q - radius + n
            u = 0
            for t in range(width):
                u = (u << 1) | buf[base + t]
            out = int(table[u])
            for t in range(width):
                buf[base + t] = (out >> (width - 1 - t)) & 1
        value = 0
        for i in range(n):
            value = (value << 1) | buf[n + ((i + k) % n)]
        perm[w] = value
    return C.CyclicPerm(n, perm)


@settings(max_examples=200, deadline=None)
@given(gates_on_rings(max_n=8))
def test_periodic_oracle_matches_the_scalar_reference(case):
    f, n = case
    assert C.project_periodic(f, n) == periodic_reference(f, n)


def test_periodic_oracle_shares_no_code_with_the_formula(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the periodic oracle used the substitution formula")

    for module, name in [
        (C, "embed"),
        (C, "_rotate"),
        (C, "_project_tight"),
        (C, "project_formula"),
        (G, "embed"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    words = np.arange(16)
    flip = C.project_periodic(G.make_named("c0"), 4)
    assert np.array_equal(flip.perm, words ^ 0b1000)
    # cells 0 and 1 are the top two bits: 01 <-> 10 exchanges them
    swap = C.project_periodic(G.make_word_swap("01", "10"), 4)
    exchanged = (words & 0b0011) | ((words << 1) & 0b1000) | ((words >> 1) & 0b0100)
    assert np.array_equal(swap.perm, exchanged)
    e57 = G.make_eca(57)
    for j in (3, 4):  # windows across the seam
        f = e57.shift_conjugate(j)
        assert C.project_periodic(f, 4) == periodic_reference(f, 4)


def test_projection_parity_even():
    for _ in range(40):
        gate = random_gate()
        f = G.GroupElement(0, gate)
        for n in range(C.min_ring(f), 10):
            assert C.project_formula(f, n).is_even()


def test_sign_of_rotations():
    sigma = G.make_named("sigma")
    assert C.sign(C.project_formula(sigma, 2)) == "odd"
    for n in range(3, 17):
        assert C.sign(C.project_formula(sigma, n)) == "even"
    assert C.sign(C.CyclicPerm.identity(6)) == "even"


def parity_from_cycles(table):
    return sum(len(c) - 1 for c in G.table_cycles(table)) % 2 == 0


def parity_from_labels(table):
    # what CyclicPerm.is_even reads: one point of each cycle is its own label
    cycles = np.count_nonzero(G.cycle_labels(table) == np.arange(table.size))
    return (table.size - cycles) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4096),
    st.sampled_from(["random", "identity", "transposition"]),
    st.integers(0, 2**32 - 1),
)
def test_parity_by_doubling_matches_the_cycle_walk(size, kind, seed):
    rng = np.random.default_rng(seed)
    table = np.arange(size)
    if kind == "random":
        table = rng.permutation(size)
    elif kind == "transposition" and size > 1:
        i, j = rng.choice(size, 2, replace=False)
        table[[i, j]] = table[[j, i]]
    assert parity_from_labels(table) == parity_from_cycles(table)


def test_parity_of_one_full_length_cycle():
    # a cycle through all N points needs every one of the ceil(log2 N) rounds
    for size in [s + e for s in (1 << k for k in range(13)) for e in (0, 1)]:
        shuffled = np.random.default_rng(size).permutation(size)
        for points in (np.arange(size), shuffled):
            table = np.empty(size, dtype=np.int64)
            table[points] = np.roll(points, -1)
            assert parity_from_labels(table) == (size % 2 == 1) == parity_from_cycles(table), size


@pytest.mark.parametrize("size", [0, 1, 2, 3, 100, 1 << 16])
def test_cycle_labels_are_the_least_points_of_the_walked_cycles(size):
    rng = np.random.default_rng(size)
    for table in (np.arange(size), rng.permutation(size), rng.permutation(size)):
        walked = np.arange(size)
        for cycle in G.table_cycles(table):
            walked[cycle] = cycle[0]
        assert np.array_equal(G.cycle_labels(table), walked)
        assert parity_from_labels(table) == parity_from_cycles(table)
        if size > 1 and size.bit_count() == 1:  # a ring of n >= 1 cells
            n = size.bit_length() - 1
            assert C.CyclicPerm(n, table).is_even() == parity_from_cycles(table)


def test_projection_is_a_homomorphism_on_shifts():
    sigma = G.make_named("sigma")
    p1 = C.project_formula(sigma, 6)
    p3 = C.project_formula(G.GroupElement(3, G.identity_gate()), 6)
    assert p1.compose(p1).compose(p1) == p3
    assert hash(p1.compose(p1).compose(p1)) == hash(p3)


def test_necklace_counts():
    assert C.necklace_count(1) == 2
    assert C.necklace_count(2) == 3
    assert C.necklace_count(3) == 4
    for n in range(1, 17):
        assert C.necklace_count(n) == C.necklace_count_by_orbits(n)
    for n in range(3, 33):
        assert C.necklace_count(n) % 2 == 0


def test_necklace_count_is_the_divisor_sum():
    # the classic formula, (1/n) sum over d | n of phi(d) 2^(n/d), with phi
    # counted directly
    def phi(d):
        return sum(math.gcd(k, d) == 1 for k in range(1, d + 1))

    for n in range(1, 65):
        total = sum(phi(d) << n // d for d in range(1, n + 1) if n % d == 0)
        assert C.necklace_count(n) * n == total


def test_necklace_table_columns():
    rows = list(C.necklace_table(C.RING_CAP + 2))
    assert [r.n for r in rows] == list(range(1, C.RING_CAP + 3))
    assert all(r.agrees for r in rows)
    assert [r.formula for r in rows] == [C.necklace_count(n) for n in range(1, C.RING_CAP + 3)]
    assert [r.n for r in rows if r.orbits is None] == [C.RING_CAP + 1, C.RING_CAP + 2]
    assert [r.n for r in rows if r.rotation_sign is None] == [1, C.RING_CAP + 1, C.RING_CAP + 2]
    assert [r.n for r in rows if r.rotation_sign == "odd"] == [2]


def test_necklace_table_flags_a_wrong_orbit_count(monkeypatch):
    count = C.necklace_count_by_orbits
    monkeypatch.setattr(C, "necklace_count_by_orbits", lambda n: count(n) + (n == 5))
    assert [r.n for r in C.necklace_table(8) if not r.agrees] == [5]


def test_parity_of_counts_matches_rotation_sign():
    sigma = G.make_named("sigma")
    for n in range(2, 15):
        even = ((1 << n) - C.necklace_count(n)) % 2 == 0
        assert (C.sign(C.project_formula(sigma, n)) == "even") == even


def test_conjugation_identity():
    e57 = G.make_eca(57)
    assert C.check_conjugation_identity(e57.inert, 5, 1)
    assert C.check_conjugation_identity(G.identity_gate(), 6, 4)
    assert C.check_conjugation_identity(G.make_word_swap("01", "10").inert, 6, 3)
    for _ in range(50):
        gate = random_gate(max_width=4)
        n = int(RNG.integers(2 * gate.radius + 2, 11))
        m = int(RNG.integers(-8, 9))
        assert C.check_conjugation_identity(gate, n, m)


def test_locality_homomorphism():
    e57 = G.make_eca(57)
    fs = [e57.shift_conjugate(j) for j in range(1, 7)]
    assert C.check_locality_homomorphism(fs, 8, 0) is C.LocalityOutcome.HOLDS
    assert (
        C.check_locality_homomorphism([e57.shift_conjugate(3)], 8, 0)
        is C.LocalityOutcome.HOLDS
    )
    far = [e57.shift_conjugate(1), e57.shift_conjugate(8)]
    assert C.check_locality_homomorphism(far, 12, 0) is C.LocalityOutcome.HOLDS
    # windows poking out of [h, h+n-1]
    assert (
        C.check_locality_homomorphism(fs, 6, 0)
        is C.LocalityOutcome.HYPOTHESIS_NOT_MET
    )
    # shift powers tighten the hypothesis via the total displacement
    shifted = [G.GroupElement(1, e57.shift_conjugate(1).inert)]
    assert (
        C.check_locality_homomorphism(shifted, 8, 0)
        is C.LocalityOutcome.HYPOTHESIS_NOT_MET
    )


@pytest.mark.parametrize("n", [8.0, 30])
def test_locality_homomorphism_checks_the_ring_size(n, monkeypatch):
    # a float or a ring past RING_CAP is refused before any projection,
    # which for n = 30 would make a 2^30-word table
    def forbidden(*args, **kwargs):
        raise AssertionError("projected before the ring size was checked")

    monkeypatch.setattr(C, "_project_tight", forbidden)
    fs = [G.make_eca(57).shift_conjugate(j) for j in range(1, 7)]
    with pytest.raises(ValueError, match="ring size"):
        C.check_locality_homomorphism(fs, n, 0)


def test_cyclic_perm_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        C.CyclicPerm(2, [0, 0, 1, 2])
    with pytest.raises(ValueError, match="not a permutation"):
        C.CyclicPerm(1, [0, 4])
    with pytest.raises(ValueError):
        C.CyclicPerm(0, [0])


def test_cyclic_perm_leaves_the_callers_array_alone():
    perm = np.arange(4)
    p = C.CyclicPerm(2, perm)
    assert perm.flags.writeable
    perm[0] = 1  # the permutation kept its own copy
    assert p == C.CyclicPerm.identity(2) and not p.perm.flags.writeable


@pytest.mark.parametrize(
    "perm",
    [[0.9, 1.1], [0.0, 1.0], ["0", "1"], [False, True]],
    ids=["float", "whole-float", "string", "bool"],
)
def test_cyclic_perm_refuses_entries_that_are_not_integers(perm):
    with pytest.raises(ValueError, match="must be integers"):
        C.CyclicPerm(1, perm)


def assert_ring_permutation(p, n):
    # what CyclicPerm(n, perm) would have checked, for a permutation the
    # library built without it
    assert p.n == n and p.perm.shape == (1 << n,) and p.perm.dtype == np.int64
    assert not p.perm.flags.writeable
    assert sorted(p.perm.tolist()) == list(range(1 << n))
    assert C.CyclicPerm(n, p.perm) == p


@settings(max_examples=100, deadline=None)
@given(gates_on_rings(), st.integers(-12, 12))
def test_library_built_ring_permutations_are_permutations(case, k):
    f, n = case
    formula, periodic = C.project_formula(f, n), C.project_periodic(f, n)
    rotation = C.CyclicPerm.rotation(n, k)
    for p in (formula, periodic, rotation, C.CyclicPerm.identity(n),
              formula * rotation, rotation.compose(periodic)):
        assert_ring_permutation(p, n)


def test_cycles_structure():
    p = C.project_formula(G.make_named("sigma"), 3)
    lens = sorted(len(c) for c in p.cycles())
    assert lens == [3, 3]  # two 3-cycles; the uniform words are fixed

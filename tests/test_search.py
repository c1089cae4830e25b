import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import gates as G
from gatecalc import search as S


def flip_generators():
    e57 = G.make_eca(57)
    return tuple(e57.shift_conjugate(k) for k in (-1, 0, 1))


def brute_force_distance(gens, target, max_depth):
    # slow reference: enumerate all words up to max_depth
    for depth in range(max_depth + 1):
        for word in itertools.product(range(len(gens)), repeat=depth):
            if S.evaluate_word(word, gens) == target:
                return depth, word
    return None, None


def test_identity_target():
    r = S.search(S.SearchConfig(flip_generators(), G.IDENTITY, 5))
    assert r.status == "found" and r.word == ()
    assert S.evaluate_word((), flip_generators()) == G.IDENTITY


def test_bfs_finds_shortest_and_lex_least():
    gens = flip_generators()
    for word in [(0,), (0, 1), (1, 0, 2), (0, 1, 0, 2, 1)]:
        target = S.evaluate_word(word, gens)
        r = S.search(S.SearchConfig(gens, target, 6))
        assert r.status == "found"
        depth, least = brute_force_distance(gens, target, len(word))
        assert len(r.word) == depth
        assert r.word == least  # lexicographically least among shortest
        assert S.evaluate_word(r.word, gens) == target


def test_not_found_within_depth():
    gens = flip_generators()
    c0 = G.make_named("c0")
    r = S.search(S.SearchConfig(gens, c0, 6))
    assert r.status == "not-found"


def test_target_outside_generator_hull():
    c0 = G.make_named("c0")
    r = S.search(S.SearchConfig((c0,), G.make_named("swap"), 10))
    assert r.status == "not-found"
    # however far off: with c0@30 the window would be 31 cells wide,
    # past the window cap
    for cell in (3, 30, -40):
        for strategy in ("bfs", "mitm"):
            cfg = S.SearchConfig((c0,), c0.shift_conjugate(cell), 3, strategy=strategy)
            r = S.search(cfg)
            assert r.status == "not-found"
            assert r.stats == {"reason": "target outside hull"}


def test_ball_closes_on_finite_group():
    # <flip, cell swap> on cells {0,1} has 8 elements; c1 is not inside
    gens = (G.make_named("c0"), G.make_named("swap"))
    r = S.search(S.SearchConfig(gens, G.make_named("c1"), 10))
    assert r.status == "not-found"
    assert sum(r.stats["levels"]) == 8


def test_ball_closes_without_inverse_generators():
    # one order-3 gate: its inverse is no generator, yet the ball closes
    # after the three elements of the cyclic group it generates
    g = G.GroupElement(0, G.canonicalize(0, 1, np.array([1, 2, 0, 3])))
    r = S.search(S.SearchConfig((g,), G.make_named("c0"), 10))
    assert r.status == "not-found"
    assert r.stats["levels"] == [1, 1, 1]
    square = S.evaluate_word((0, 0), (g,))
    r = S.search(S.SearchConfig((g,), square, 10))
    assert r.word == (0, 0) and r.stats["levels"] == [1, 1, 1]


@pytest.mark.parametrize("strategy", ["bfs", "mitm"])
def test_a_generator_that_is_the_target(strategy):
    # after the back edge the flip's level 2 has no candidate: the ball closes
    c0 = G.make_named("c0")
    r = S.search(S.SearchConfig((c0,), c0, 3, strategy=strategy))
    assert r.status == "found" and r.word == (0,)
    assert r.stats["levels"] == [1, 1]
    assert S._hash_rows(np.empty((0, 4), dtype=np.uint8)).shape == (0,)


def counted_growth(gens, depth):
    """Ball states and candidates built in growing the ball to depth."""
    searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), depth))
    built = []
    candidates = searcher.candidates

    def counted(*args):
        out = candidates(*args)
        built.append(out[0].shape[0])
        return out

    searcher.candidates = counted
    assert searcher.grow(depth) is None
    return searcher.ball.states, sum(built)


def test_commuting_generators_are_skipped_in_window_order():
    # copies of rule 57 two or more cells apart commute: ranked by window,
    # growth builds one candidate per new state, in any generator order
    e57 = G.make_eca(57)
    rng = np.random.default_rng(18)
    for _ in range(3):
        shifts = rng.permutation(np.arange(-3, 4)).tolist()
        states, built = counted_growth(tuple(e57.shift_conjugate(k) for k in shifts), 6)
        assert states == sum([1, 7, 27, 82, 226, 597, 1545])
        assert built == states - 1, shifts


def test_skip_table():
    # e57@-1 and e57@1 commute, e57 commutes with neither; all three are
    # involutions, and the identity commutes with each.  Ranked by window:
    # the identity, e57@-1, e57, e57@1
    e57, ident = G.make_eca(57), G.IDENTITY
    gens = (e57.shift_conjugate(1), ident, e57, e57.shift_conjugate(-1))
    assert [g.inert.window for g in gens] == [(0, 2), None, (-1, 1), (-2, 0)]
    searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), 3))
    searcher.embed_tables()
    # row j: the generator that stored the row; column k: the candidate's
    assert searcher.skip.astype(int).tolist() == [
        [1, 1, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 0],
    ]
    # an order-3 gate keeps its square; a repeated generator is skipped
    # after its later copy only
    g = G.GroupElement(0, G.canonicalize(0, 1, np.array([1, 2, 0, 3])))
    searcher = S._Searcher(S.SearchConfig((g, g), G.make_named("c0"), 3))
    searcher.embed_tables()
    assert searcher.skip.astype(int).tolist() == [[0, 0], [1, 0], [0, 0]]


def is_closed(gens):
    searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), 3))
    searcher.embed_tables()
    return searcher.target_inverse is not None


def test_inverse_closed_generators():
    # the shifted rule-57 gates are involutions; an order-3 gate's inverse
    # is its square, no generator until it is added
    assert is_closed(flip_generators())
    g = G.GroupElement(0, G.canonicalize(0, 1, np.array([1, 2, 0, 3])))
    assert not is_closed((g,)) and not is_closed(flip_generators() + (g,))
    assert is_closed(flip_generators() + (g, g.inverse()))
    assert is_closed((g.inverse(), G.IDENTITY, g, g))


def test_inverse_tables_of_non_involutions():
    # argsort inverts a table here only, as an oracle
    rng = np.random.default_rng(11)
    closed_sets = 0
    for _ in range(60):
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            width, lo = int(rng.integers(2, 4)), int(rng.integers(-1, 2))
            g = G.GroupElement(0, G.canonicalize(lo, lo + width - 1, rng.permutation(1 << width)))
            gens += [g, g.inverse()] if rng.random() < 0.5 else [g]
        gens = tuple(gens[i] for i in rng.permutation(len(gens)))
        target = S.evaluate_word(tuple(rng.integers(0, len(gens), 3).tolist()), gens)
        searcher = S._Searcher(S.SearchConfig(gens, target, 3))
        searcher.embed_tables()
        tables = searcher.gen_tables
        for table, inverse in zip(tables, searcher.gen_inverses):
            assert inverse.dtype == table.dtype
            assert np.array_equal(inverse, np.argsort(table))
        closed = {np.argsort(t).astype(t.dtype).tobytes() for t in tables} == {t.tobytes() for t in tables}
        assert (searcher.target_inverse is None) == (not closed)
        if closed:
            closed_sets += 1
            assert np.array_equal(searcher.target_inverse, np.argsort(searcher.target_table))
    assert 0 < closed_sets < 60


@pytest.mark.parametrize("budget", ["512M", 1.5e6, True, -5, None], ids=repr)
def test_memory_budgets_that_are_not_byte_counts_are_refused(budget):
    with pytest.raises(ValueError, match="memory_budget must be"):
        S.SearchConfig(flip_generators(), G.make_named("c0"), 3, memory_budget=budget)


def test_a_zero_memory_budget_refuses_level_0():
    c0 = G.make_named("c0")
    r = S.search(S.SearchConfig((c0,), c0, 3, memory_budget=np.int64(0)))
    assert r.status == "budget-exceeded" and r.stats["level"] == 0


MITM_WORDS = [(1, 0), (0, 1, 2, 1), (2, 2, 0, 1, 0, 2)]


def test_mitm_matches_bfs():
    gens = flip_generators()
    for word in MITM_WORDS:
        target = S.evaluate_word(word, gens)
        bfs = S.search(S.SearchConfig(gens, target, 8))
        mitm = S.search(S.SearchConfig(gens, target, 4, strategy="mitm"))
        assert mitm.status == "found"
        assert S.evaluate_word(mitm.word, gens) == target
        assert len(mitm.word) <= 2 * 4
        # certified mode reports the true distance
        cert = S.search(
            S.SearchConfig(gens, target, 4, strategy="mitm", certify_minimum=True)
        )
        assert cert.stats["minimal_length"] == len(bfs.word)


def test_budget_exceeded_is_predictable():
    gens = flip_generators()
    cfg = S.SearchConfig(
        gens, G.make_named("c0"), 25, memory_budget=100_000, strategy="mitm"
    )
    r = S.search(cfg)
    assert r.status == "budget-exceeded"
    assert r.stats["bytes"] <= 100_000
    assert r.stats["budget"] == 100_000
    assert r.stats["projected_bytes"] > 100_000
    # the level that would not fit is the one after the last stored level
    assert r.stats["level"] == len(r.stats["levels"])


def s8_generators():
    # the 8-cycle of the words of three cells and the swap of words 0 and 1
    # generate S_8: 40,320 states in 36 levels, the last ones far smaller
    # than the ball
    cycle = G.canonicalize(0, 2, np.roll(np.arange(8), -1))
    swap = G.canonicalize(0, 2, np.array([1, 0, 2, 3, 4, 5, 6, 7]))
    return (G.GroupElement(0, cycle), G.GroupElement(0, swap))


def projected_bytes(searcher, depth):
    """The peak that the budget check projects for growing the next level."""
    cfg = searcher.cfg
    searcher.cfg = dataclasses.replace(cfg, memory_budget=0)
    try:
        return searcher.grow(depth)["projected_bytes"]
    finally:
        searcher.cfg = cfg


def test_budget_counts_the_tables_made_with_level_0():
    # two flips 15 cells apart: six tables of a 16-cell hull, each made
    # from int64 words, before level 0 is stored; the two flips are
    # involutions, so the target's inverse is made too
    c0 = G.make_named("c0")
    gens = (c0, c0.shift_conjugate(15))
    searcher = S._Searcher(S.SearchConfig(gens, c0, 3))
    projected = projected_bytes(searcher, 0)
    assert projected > 6 * searcher.size * searcher.dtype.itemsize + 2 * 8 * searcher.size
    tracemalloc.start()
    try:
        r = S.search(S.SearchConfig(gens, c0, 3, memory_budget=projected - 1))
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert searcher.grow(0) is None
        made_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    tables = [*searcher.gen_tables, *searcher.gen_inverses]
    tables += [searcher.target_table, searcher.target_inverse]
    assert sum(t.nbytes for t in tables) == searcher.table_bytes
    assert r.status == "budget-exceeded"
    assert (r.stats["level"], r.stats["levels"], r.stats["budget"]) == (0, [], projected - 1)
    assert r.stats["projected_bytes"] == projected
    # refused before a single int64 table of the hull was made
    assert refused_peak < 8 * searcher.size, refused_peak
    assert made_peak <= projected, (made_peak, projected)
    assert S.search(S.SearchConfig(gens, c0, 3, memory_budget=projected)).status == "found"
    # a hull past the window cap is refused as such, not as over budget
    with pytest.raises(G.WindowCapError):
        S.search(S.SearchConfig((c0, c0.shift_conjugate(39)), c0, 3))


def test_growth_peak_stays_within_the_projection():
    # the traced peak of growing each level must stay below the projection
    # that the budget check makes, also at the tail of a finite group, where
    # merging each small level into the run of every stored state outweighs
    # the candidates, at the levels where the ball outgrows its presence
    # map, and where the flip ball's index starts a new run (level 23) and
    # merges the next level into it
    e57 = G.make_eca(57)
    cases = [
        (tuple(e57.shift_conjugate(k) for k in (-1, 0, 1)), 12, 24),
        (tuple(e57.shift_conjugate(k) for k in (-3, -2, -1, 0, 1, 2, 3)), 3, 7),
        (s8_generators(), 2, 36),
    ]
    started = []
    for gens, first, last in cases:
        searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), last))
        searcher.grow(first - 1)
        rebuilt = 0
        tracemalloc.start()
        try:
            for depth in range(first, last + 1):
                before, before_map = searcher.ball.nbytes, searcher.ball.map.nbytes
                runs = len(searcher.ball.runs)
                projected = projected_bytes(searcher, depth)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert searcher.grow(depth) is None
                peak = before + tracemalloc.get_traced_memory()[1] - base
                assert peak <= projected, (len(gens), depth, peak, projected)
                rebuilt += searcher.ball.map.nbytes > before_map
                if len(searcher.ball.runs) > runs:
                    started.append((len(gens), depth))
        finally:
            tracemalloc.stop()
        assert rebuilt, len(gens)
    assert started == [(3, 23)], started
    # the last case closed: all of S_8 is stored
    assert searcher.ball.states == 40320 and len(searcher.ball.levels) == 36


def test_rows_use_the_narrowest_dtype():
    e57 = G.make_eca(57)
    for shifts, dtype in [((-1, 0, 1), np.uint8), ((-3, -2, -1, 0, 1, 2, 3), np.uint16)]:
        gens = tuple(e57.shift_conjugate(k) for k in shifts)
        assert S._Searcher(S.SearchConfig(gens, G.make_named("c0"), 3)).dtype == dtype
    # a 17-cell hull (131,072 words) needs uint32
    wide = (G.make_named("c0"), G.make_named("c0").shift_conjugate(16))
    assert S._Searcher(S.SearchConfig(wide, G.make_named("c0"), 1)).dtype == np.uint32


def test_generators_must_be_inert():
    with pytest.raises(ValueError, match="inert"):
        S.SearchConfig((G.make_named("sigma"),), G.make_named("c0"), 3)
    with pytest.raises(ValueError, match="inert"):
        S.SearchConfig(flip_generators(), G.make_named("sigma"), 3)


@pytest.mark.parametrize("depth", [2.5, np.float64(2), True, "2"], ids=repr)
def test_depths_that_are_not_integers_are_refused(depth):
    with pytest.raises(ValueError, match="max_depth must be an integer"):
        S.SearchConfig(flip_generators(), G.make_named("c0"), depth)
    c0 = G.make_named("c0")
    assert S.search(S.SearchConfig((c0,), c0, np.int64(2))).status == "found"


def test_common_window_obeys_the_window_cap(monkeypatch):
    # the three shifted rule-57 gates span cells -2..2
    monkeypatch.setattr(G, "WINDOW_CAP", 4)
    with pytest.raises(G.WindowCapError) as err:
        S.search(S.SearchConfig(flip_generators(), G.make_named("c0"), 3))
    assert err.value.required_width == 5 and err.value.cap == 4
    monkeypatch.setattr(G, "WINDOW_CAP", 5)
    assert S.search(S.SearchConfig(flip_generators(), G.make_named("c0"), 3)).status == "not-found"


def test_hashing_has_no_false_merges():
    # two different states never collapse: grow a ball and recount
    gens = flip_generators()
    cfg = S.SearchConfig(gens, G.make_named("c0"), 8)
    searcher = S._Searcher(cfg)
    searcher.grow(8)
    seen = set()
    for level in searcher.ball.levels:
        for row in level:
            seen.add(row.tobytes())
    assert len(seen) == searcher.ball.states


# masks that make the real hash collide: the low 2 bits alone make every
# index key 0, so lookups never reorder their needles; with the top 2
# bits too the keys take four values, so they do
COLLIDING_MASKS = {True: 0x3, "four-keys": 0xC000_0000_0000_0003}


def colliding_hash(monkeypatch, mask):
    real_hash = S._hash_rows
    monkeypatch.setattr(S, "_hash_rows", lambda rows: real_hash(rows) & np.uint64(mask))


MASK_64 = (1 << 64) - 1


def splitmix64(state):
    z = (state + 0x9E3779B97F4A7C15) & MASK_64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK_64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK_64
    return z ^ (z >> 31)


def multilinear_reference(row):
    # the row's little-endian 64-bit words, zero-padded, times
    # splitmix64(i + 1) | 1, summed mod 2^64 in Python ints
    data = row.tobytes()
    data += bytes(-len(data) % 8)
    words = [int.from_bytes(data[at : at + 8], "little") for at in range(0, len(data), 8)]
    return sum(w * (splitmix64(i + 1) | 1) for i, w in enumerate(words)) & MASK_64


@pytest.mark.parametrize(
    "dtype, width", [(np.uint8, 64), (np.uint16, 64), (np.uint32, 64), (np.uint8, 4)]
)
def test_hash_rows_do_not_depend_on_blocks(dtype, width):
    # the first output of splitmix64 seeded with 0, as published
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    rng = np.random.default_rng(3)
    per_block = S._CHUNK // width
    rows = rng.integers(0, np.iinfo(dtype).max, (2 * per_block + 5, width), dtype=dtype)
    together = S._hash_rows(rows)
    picks = [0, per_block - 1, per_block, per_block + 1, 2 * per_block, rows.shape[0] - 1]
    picks += rng.integers(0, rows.shape[0], 20).tolist()
    for i in picks:
        assert S._hash_rows(rows[i : i + 1])[0] == together[i] == multilinear_reference(rows[i])


def test_hash_quality_on_the_flip_ball():
    # the 676,982 states of the depth-25 flip ball: distinct full hashes,
    # about as many equal index keys as random 32-bit keys would give
    # (n^2 / 2^33, 53), and level 25's probes screened out by the map
    searcher = S._Searcher(S.SearchConfig(flip_generators(), G.make_named("c0"), 25))
    assert searcher.grow(25) is None and searcher.ball.states == 676982
    hashes = np.sort(np.concatenate([S._hash_rows(level) for level in searcher.ball.levels]))
    assert not np.any(hashes[1:] == hashes[:-1])
    keys = np.sort(S._index_keys(hashes))
    n = keys.size
    assert np.count_nonzero(keys[1:] == keys[:-1]) <= 2 * n * n / 2**33
    level = searcher.ball.levels[25]
    passed = sum(at.size for _, _, at in searcher.probe_batches(level))
    assert passed <= level.shape[0] / 16, (passed, level.shape[0])


# a _CHUNK below the sizes of the balls these tests grow, so that index
# runs both take in further levels and give way to new ones
SMALL_CHUNK = 1 << 9


def grow_in_runs(searcher, depth):
    # only growth runs under SMALL_CHUNK: lookups afterwards compare rows
    # in blocks of the default _CHUNK, which leave the index as it is
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_CHUNK", SMALL_CHUNK)
        return searcher.grow(depth)


@pytest.mark.parametrize("collide", [False, *COLLIDING_MASKS])
def test_depth_of_matches_a_dict_of_rows(monkeypatch, collide):
    if collide:
        colliding_hash(monkeypatch, COLLIDING_MASKS[collide])
    # one index run, then several
    for in_runs in (False, True):
        searcher = S._Searcher(S.SearchConfig(flip_generators(), G.make_named("c0"), 10))
        grow_in_runs(searcher, 10) if in_runs else searcher.grow(10)
        ball = searcher.ball
        assert (len(ball.runs) > 1) == in_runs
        depth = {row.tobytes(): d for d, level in enumerate(ball.levels) for row in level}
        rng = np.random.default_rng(11)
        stored = np.concatenate(ball.levels)
        # probes and shuffled rows, nearly all of them unseen
        unseen = [searcher.probes(ball.levels[-1]), rng.permuted(stored[:200], axis=1)]
        unseen = np.concatenate(unseen)
        rows = np.concatenate([stored[rng.integers(0, stored.shape[0], 400)], unseen])
        rows = rows[rng.permutation(rows.shape[0])]
        want = [depth.get(row.tobytes(), -1) for row in rows]
        assert -1 in want and len(set(want)) > 5
        assert ball.depth_of(rows).tolist() == want
        # a row stored deeper than the deepest level searched reads -1
        for deepest in (6, 9):
            shallow = [d if d <= deepest else -1 for d in want]
            assert ball.depth_of(rows, deepest=deepest).tolist() == shallow
        # rows in hash order with their hashes, as growth passes them
        hashes, picked = S._dedup_rows(rows)
        distinct = rows[picked]
        assert np.array_equal(hashes, S._hash_rows(distinct))
        assert ball.depth_of(distinct, hashes).tolist() == [
            depth.get(row.tobytes(), -1) for row in distinct
        ]
        gathered = ball.depth_of(rows[picked], hashes)
        assert np.array_equal(ball.depth_of(rows, hashes, picked), gathered)


@pytest.mark.parametrize("collide", [False, *COLLIDING_MASKS])
def test_dedup_does_not_depend_on_input_order(monkeypatch, collide):
    if collide:
        colliding_hash(monkeypatch, COLLIDING_MASKS[collide])
    searcher = S._Searcher(S.SearchConfig(flip_generators(), G.make_named("c0"), 9))
    searcher.grow(9)
    frontier = searcher.ball.levels[-1]
    candidates = np.concatenate([frontier[:, t] for t in searcher.gen_tables])
    hashes, picked = S._dedup_rows(candidates)
    rows = candidates[picked]
    assert {row.tobytes() for row in rows} == {row.tobytes() for row in candidates}
    assert rows.shape[0] < candidates.shape[0]
    assert np.array_equal(hashes, S._hash_rows(rows))
    rng = np.random.default_rng(4)
    for _ in range(3):
        shuffled = candidates[rng.permutation(candidates.shape[0])]
        again_hashes, again_picked = S._dedup_rows(shuffled)
        again = shuffled[again_picked]
        assert np.array_equal(again, rows) and np.array_equal(again_hashes, hashes)


ROW_SHAPES = {
    "1-cell": (np.uint8, 2),
    "2-cell": (np.uint8, 4),
    "5-cell": (np.uint8, 32),
    "9-cell": (np.uint16, 512),
    "17-cell": (np.uint32, 1 << 17),
}


@pytest.mark.parametrize("layout", ["C", "Fortran", "strided"])
@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_row_items_gather_and_compare_as_rows(shape, layout):
    dtype, width = ROW_SHAPES[shape]
    step = max(1, S._CHUNK // width)  # rows per chunk of _equal_rows
    n = min(300, 2 * step + 3)
    rng = np.random.default_rng(5)
    a = rng.integers(0, np.iinfo(dtype).max, (n, 2 * width), dtype=dtype)
    b = a.copy()
    # every third row of b differs from a in one entry, at either end too
    for i in range(0, n, 3):
        b[i, rng.choice([0, width - 1, rng.integers(width)])] ^= 1
    if layout == "strided":  # every other column: rows are no contiguous runs
        a, b = a[:, ::2], b[:, ::2]
    else:
        a, b = a[:, :width], b[:, :width]
        if layout == "Fortran":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
    assert not (a.flags.c_contiguous and layout != "C")
    m = 2 * step + 3  # pairs across chunk boundaries
    ia = rng.integers(0, n, m)
    ib = np.where(rng.random(m) < 0.7, ia, rng.integers(0, n, m))
    want = (a[ia] == b[ib]).all(axis=1)
    assert want.any() and not want.all()
    assert np.array_equal(S._equal_rows(a, ia, b, ib), want)


@pytest.mark.parametrize("collide", [False, *COLLIDING_MASKS])
def test_index_is_a_stable_sort_of_every_level(monkeypatch, collide):
    if collide:
        colliding_hash(monkeypatch, COLLIDING_MASKS[collide])
    # S_8's cycle is no involution, so from level 8 on growth drops rows
    # and compacts the rest; with a colliding hash every lookup compares
    # against most stored states, so that ball grows to depth 14 only
    cases = [(flip_generators(), 12, 1), (s8_generators(), 14 if collide else 35, 7)]
    map_sizes = set()
    for gens, last, compacted in cases:
        searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), last))
        ball = searcher.ball
        for depth in range(1, last + 1):
            assert grow_in_runs(searcher, depth) is None and len(ball.levels) == depth + 1
            keys = np.concatenate([S._index_keys(S._hash_rows(level)) for level in ball.levels])
            ids = np.concatenate([run_ids for _, _, run_ids in ball.runs])
            assert np.array_equal(np.sort(ids), np.arange(ball.states))
            run_levels = []
            for first, run_keys, run_ids in ball.runs:
                assert np.array_equal(keys[run_ids], run_keys)
                # the states of consecutive levels, from the run's first
                assert np.array_equal(np.sort(run_ids), first + np.arange(run_ids.size))
                # ascending, and equal keys in the order of their levels
                level = np.searchsorted(ball.starts, run_ids, side="right") - 1
                assert np.all(run_keys[1:] >= run_keys[:-1])
                equal = run_keys[1:] == run_keys[:-1]
                assert np.all(level[1:][equal] >= level[:-1][equal])
                run_levels.append(np.unique(level).size)
                assert run_keys.size <= SMALL_CHUNK or run_levels[-1] == 1
            stored = np.concatenate(ball.levels)
            depths = np.repeat(np.arange(depth + 1), [level.shape[0] for level in ball.levels])
            assert np.array_equal(ball.depth_of(stored), depths)
            # each level's buffer, with any slack rows past the level, every
            # run and the presence map
            held = sum(level.base.nbytes for level in ball.levels)
            held += sum(run_keys.nbytes + run_ids.nbytes for _, run_keys, run_ids in ball.runs)
            assert ball.nbytes == held + ball.map.nbytes
            # the map's set bits are exactly the top bits of the stored keys,
            # at least 16 bits per stored state and fewer than 32 above 2^16
            bits = ball.map.size * 8
            assert bits << int(ball.shift) == 1 << 32
            assert 16 * ball.states <= bits and (bits == 1 << 16 or bits < 32 * ball.states)
            present = np.unpackbits(ball.map, bitorder="little")
            assert np.array_equal(np.flatnonzero(present), np.unique(keys >> ball.shift))
            map_sizes.add(bits)
        # levels were merged into runs, and new runs started
        assert len(ball.runs) > 1 and max(run_levels) > 1, run_levels
        slack = [level.base.nbytes > level.nbytes for level in ball.levels[1:]]
        assert sum(slack) >= compacted, slack
        if collide:  # equal keys span levels and runs
            assert np.unique(keys).size < 5
    # S_8 outgrew its map, which was rebuilt between two levels; grown to
    # depth 14 under colliding hashes, it stays within the least map
    assert len(map_sizes) > (not collide), map_sizes


def test_probe_temporaries_stay_within_a_block(monkeypatch):
    # c1 is 52 letters away: no probe of levels 24 or 25 is stored
    searcher = S._Searcher(S.SearchConfig(flip_generators(), G.make_named("c1"), 21))
    searcher.grow(21)
    level = searcher.ball.levels[-1]
    assert level.size >= 4 * S._CHUNK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = searcher.probes(level)
        peak = tracemalloc.get_traced_memory()[1] - base - out.nbytes
    finally:
        tracemalloc.stop()
    # an intp index over one block of rows, not over the level
    assert peak <= S._CHUNK * np.dtype(np.intp).itemsize * 1.25, peak
    target = searcher.target_table
    for k in (0, level.shape[0] // 2, level.shape[0] - 1):
        assert np.array_equal(out[k][level[k]], target)
    # split builds and screens the probes one block at a time and looks
    # them up in batches of about one block of rows: its peak is one
    # block's index and a batch, not a level of probes and their lookup,
    # whether it gathers inverse probes or scatters probes
    searcher.grow(25)
    assert searcher.ball.levels[-1].nbytes > 2 * S._CHUNK * np.dtype(np.intp).itemsize
    step = S._CHUNK // searcher.size
    depth_of, batches = S._Ball.depth_of, []

    def recorded(ball, rows, *args, **kwargs):
        batches.append(rows.shape[0])
        return depth_of(ball, rows, *args, **kwargs)

    monkeypatch.setattr(S._Ball, "depth_of", recorded)
    for inverse in (searcher.target_inverse, None):
        searcher.target_inverse = inverse
        batches.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert searcher.split(25) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= S._CHUNK * np.dtype(np.intp).itemsize * 1.5, peak
        # a full batch was looked up, and it held less than two blocks
        assert step <= max(batches) < 2 * step, batches


@pytest.mark.parametrize("depth", [12, 14])
def test_gathered_inverse_probes_split_as_scattered_probes(monkeypatch, depth):
    # prefixes of FLIP_WORD at distances up to 2 * depth, and the flip,
    # 50 letters away: each level's split is the same whether the probes
    # are gathered as inverses or scattered
    gens = flip_generators()
    targets = [G.make_named("c0")]
    targets += [S.evaluate_word(tuple("abc".index(c) for c in FLIP_WORD[:n]), gens)
                for n in (1, depth // 2, depth + 3, 2 * depth)]
    hits = 0
    for target in targets:
        searcher = S._Searcher(S.SearchConfig(gens, target, depth))
        assert searcher.grow(depth) is None and searcher.target_inverse is not None
        for h_depth in range(depth + 1):
            gathered = searcher.split(h_depth)
            with monkeypatch.context() as patch:
                patch.setattr(searcher, "target_inverse", None)
                scattered = searcher.split(h_depth)
            assert (gathered is None) == (scattered is None), h_depth
            if gathered is not None:
                assert gathered[:2] == scattered[:2], h_depth
                assert np.array_equal(gathered[2], scattered[2])
                hits += 1
    assert hits > depth


def test_split_walks_the_index_runs_once_a_batch(monkeypatch):
    # the flip is 50 letters away, so no probe of level 21 is stored; its
    # five blocks of probes are screened and looked up as one batch, not
    # once a block against each of the index's runs
    searcher = S._Searcher(S.SearchConfig(flip_generators(), G.make_named("c0"), 21))
    assert grow_in_runs(searcher, 21) is None and len(searcher.ball.runs) > 1
    blocks = -(-searcher.ball.levels[21].shape[0] // (S._CHUNK // searcher.size))
    assert blocks >= 3
    depth_of, calls = S._Ball.depth_of, []

    def counted(ball, *args, **kwargs):
        calls.append(1)
        return depth_of(ball, *args, **kwargs)

    monkeypatch.setattr(S._Ball, "depth_of", counted)
    assert searcher.split(21) is None
    assert 0 < len(calls) < blocks, (len(calls), blocks)


def test_growth_holds_one_copy_of_the_candidates():
    # a level is kept in the buffer its candidates were built in: growing
    # the last level of the seven shifted rule-57 gates peaks at the
    # candidates plus index arrays, not at the candidates and a copy
    e57 = G.make_eca(57)
    gens = tuple(e57.shift_conjugate(k) for k in range(-3, 4))
    searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), 9))
    assert searcher.grow(8) is None
    built = []
    candidates = searcher.candidates

    def counted(*args):
        out = candidates(*args)
        built.append(out[0].nbytes)
        return out

    searcher.candidates = counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert searcher.grow(9) is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert searcher.ball.levels[-1].shape[0] == 25605
    assert peak < 1.5 * built[0], (peak, built)


def test_hash_collisions_cannot_merge_states(monkeypatch):
    # with a 2-bit hash nearly every pair of states collides, so dedup
    # falls back to exact sorts and every lookup confirms many candidates
    gens = flip_generators()

    def run():
        searcher = S._Searcher(S.SearchConfig(gens, G.make_named("c0"), 8))
        searcher.grow(8)
        out = [[lvl.shape[0] for lvl in searcher.ball.levels], searcher.ball.states]
        for word in MITM_WORDS:
            cfg = S.SearchConfig(
                gens, S.evaluate_word(word, gens), 4, strategy="mitm", certify_minimum=True
            )
            r = S.search(cfg)
            out.append((r.word, r.stats["minimal_length"], r.stats["levels"]))
        return out

    real = run()
    real_hash = S._hash_rows
    monkeypatch.setattr(S, "_hash_rows", lambda rows: real_hash(rows) & np.uint64(0x3))
    assert run() == real


def test_split_does_not_depend_on_the_hash(monkeypatch):
    # a complemented hash reverses every order by hash, and sends every
    # key to other bits of the map; the split still takes the least row
    gens = flip_generators()

    def run():
        out = []
        for word, depth in [*((w, 4) for w in MITM_WORDS), (None, 25)]:
            target = G.make_named("c0") if word is None else S.evaluate_word(word, gens)
            r = S.search(S.SearchConfig(gens, target, depth, strategy="mitm", certify_minimum=True))
            out.append((r.word, r.stats["minimal_length"], r.stats["levels"], r.stats["states"]))
        return out

    real = run()
    assert letters(real[-1][0]) == FLIP_WORD
    real_hash = S._hash_rows
    monkeypatch.setattr(S, "_hash_rows", lambda rows: ~real_hash(rows))
    assert run() == real


def test_search_imports_no_masked_arrays():
    # the first np.unique of a process imports numpy.ma, 10-20 ms that the
    # first search of a process would pay; a fresh process shows it
    script = (
        "import sys\n"
        "from gatecalc import gates as G, search as S\n"
        "gens = tuple(G.make_eca(57).shift_conjugate(k) for k in (-1, 0, 1))\n"
        "target = S.evaluate_word((0, 1, 2, 1, 0, 2, 2, 1), gens)\n"
        "cfg = S.SearchConfig(gens, target, 6, strategy='mitm', certify_minimum=True)\n"
        "print(S.search(cfg).stats['minimal_length'], 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    length, masked = out.stdout.split()
    assert int(length) <= 8 and masked == "False"


# the word both mitm modes return for the flip at depth 25, with
# a, b, c for e57@-1, e57, e57@1: its split takes the least row h of
# level 25; any change of the rule that picks the split shows here
FLIP_WORD = "cbacbabcbcbacbcbcbcbabacbacbcbabababacbababcbacbab"


def letters(word):
    return "".join("abc"[i] for i in word)


def test_ball_levels_follow_the_free_product_recurrences():
    # a table-free oracle for dedup and both growth skips.  e57@-1 and
    # e57@1 commute, so three copies give a quotient of (Z/2 x Z/2) * Z/2,
    # whose spheres hold F(k+3) words; four copies at -1..2 double from
    # level 2.  Both break only at level 12, by the shortest relations
    # beyond the commutations
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    e57 = G.make_eca(57)
    for cells, expected in (
        ((-1, 0, 1), [1] + [fib[k + 3] for k in range(1, 12)] + [605]),
        ((-1, 0, 1, 2), [1, 4] + [9 << k - 2 for k in range(2, 12)] + [9207]),
    ):
        gens = tuple(e57.shift_conjugate(k) for k in cells)
        r = S.search(S.SearchConfig(gens, G.make_named("c0"), 12))
        assert r.status == "not-found" and r.stats["levels"] == expected


def test_flip_word_search_mitm():
    # the full run: depth 25 over the three shifted rule-57 gates
    gens = flip_generators()
    c0 = G.make_named("c0")
    cfg = S.SearchConfig(
        gens, c0, 25, memory_budget=512 * 1024 * 1024, strategy="mitm"
    )
    r = S.search(cfg)
    assert r.status == "found"
    assert letters(r.word) == FLIP_WORD
    assert S.evaluate_word(r.word, gens) == c0


def test_flip_distance_certified_exactly_50():
    # stretch check: a shortest word of at most 50 letters splits at depth
    # 25 into two stored halves, so probing level 25 proves that no shorter
    # word over these generators evaluates to the flip
    gens = flip_generators()
    c0 = G.make_named("c0")
    cfg = S.SearchConfig(
        gens,
        c0,
        25,
        memory_budget=512 * 1024 * 1024,
        strategy="mitm",
        certify_minimum=True,
    )
    r = S.search(cfg)
    assert r.status == "found"
    assert r.stats["minimal_length"] == 50
    assert letters(r.word) == FLIP_WORD
    assert r.stats["states"] == 676982


@pytest.mark.parametrize(
    "name, found, bound", [("c1", "found", "minimal_length"), ("rc1", "not-found", "minimal_length_exceeds")]
)
def test_controlled_flip_distances_certified_at_depth_26(name, found, bound):
    # c1 is exactly 52 letters away; rc1 is more than 52 letters away
    gens = flip_generators()
    target = G.make_named(name)
    cfg = S.SearchConfig(gens, target, 26, strategy="mitm", certify_minimum=True)
    r = S.search(cfg)
    assert r.status == found
    assert r.stats[bound] == 52
    assert r.stats["states"] == 1072454
    if found == "found":
        assert letters(r.word) == "babacbcbcbacbacbcbcbacbcbcbcbababcbabacbacbabacbacba"
        assert S.evaluate_word(r.word, gens) == target


def all_levels_split(searcher, target_table):
    """Scan every stored level: least |g| + |h|, then least |h|, then the
    least h, entry by entry."""
    depth = {row.tobytes(): d for d, level in enumerate(searcher.ball.levels) for row in level}
    best = None
    for h_depth, level in enumerate(searcher.ball.levels):
        for k in sorted(range(len(level)), key=lambda k: level[k].tolist()):
            h = level[k]
            probe = np.empty_like(h)
            probe[h] = target_table  # target . h^-1
            g_depth = depth.get(probe.tobytes())
            if g_depth is not None and (best is None or g_depth + h_depth < best[0]):
                best = (g_depth + h_depth, h_depth, k, g_depth, probe)
    if best is None:
        return None, None
    total, h_depth, k, g_depth, probe = best
    word = searcher.reconstruct(probe, g_depth) + searcher.reconstruct(
        searcher.ball.levels[h_depth][k], h_depth
    )
    return total, word


def bfs_over_bytes(generators, target, limit):
    """Level sizes to depth limit and the target's distance, by plain BFS on [-1, 2]."""
    tables = [G.embed(g.inert, -1, 2).tolist() for g in generators]
    identity = bytes(range(16))
    goal = bytes(G.embed(target.inert, -1, 2).tolist())
    seen, frontier, levels = {identity}, [identity], [1]
    distance = 0 if goal == identity else None
    while len(levels) <= limit:
        fresh = []
        for row in frontier:
            for t in tables:
                new = bytes(row[j] for j in t)
                if new not in seen:
                    seen.add(new)
                    fresh.append(new)
        if not fresh:
            break
        if distance is None and goal in fresh:
            distance = len(levels)
        levels.append(len(fresh))
        frontier = fresh
    return levels, distance


@st.composite
def small_gates(draw, first=-1, last=2):
    """A gate with its window inside [first, last]: any table, an involution or of order 3."""
    lo = draw(st.integers(first, last))
    hi = draw(st.integers(lo, min(last, lo + 2)))
    size = 1 << (hi - lo + 1)
    kind = draw(st.sampled_from(["any", "involution", "involution", "order-3"]))
    if kind == "order-3" and size >= 4:
        table = [1, 2, 0, 3] + list(range(4, size))
    else:
        perm = draw(st.permutations(range(size)))
        table = list(perm)
        if kind != "any":
            table = list(range(size))
            for i in range(draw(st.integers(1, size // 2))):
                a, b = perm[2 * i], perm[2 * i + 1]
                table[a], table[b] = b, a
    return G.GroupElement(0, G.canonicalize(lo, hi, np.array(table)))


@st.composite
def generator_lists(draw):
    """Two to five small gates, among them often ones that commute with another:
    a repeat, the identity, a power of one or a gate on cells it leaves alone."""
    gens = draw(st.lists(small_gates(), min_size=1, max_size=3))
    for kind in draw(st.lists(st.sampled_from(["repeat", "identity", "power", "apart", "any"]),
                              min_size=1, max_size=2)):
        g = draw(st.sampled_from(gens))
        lo, hi = g.inert.window or (0, 0)
        if kind == "repeat" or kind == "apart" and (lo, hi) == (-1, 2):
            new = g
        elif kind == "identity":
            new = G.IDENTITY
        elif kind == "power":
            new = g.compose(g)
        elif kind == "apart":
            new = draw(small_gates(-1, lo - 1) if lo > -1 else small_gates(hi + 1, 2))
        else:
            new = draw(small_gates())
        gens.insert(draw(st.integers(0, len(gens))), new)
    return tuple(gens)


@settings(max_examples=200, deadline=None)
@given(
    generators=generator_lists(),
    max_depth=st.integers(1, 3),
    word=st.lists(st.integers(0, 4), min_size=3, max_size=7),
    outsider=small_gates(),
    reachable=st.booleans(),
    # the default, or a bound of a few keys, under which the index keeps
    # several runs
    chunk=st.one_of(st.just(S._CHUNK), st.integers(1, 16)),
)
def test_certified_mitm_matches_the_all_levels_scan_and_bfs(
    generators, max_depth, word, outsider, reachable, chunk
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_CHUNK", chunk)
        check_certified_mitm(generators, max_depth, word, outsider, reachable)


def check_certified_mitm(generators, max_depth, word, outsider, reachable):
    generators = tuple(generators)
    word = tuple(i % len(generators) for i in word)
    target = S.evaluate_word(word, generators) if reachable else outsider
    cfg = S.SearchConfig(generators, target, max_depth, strategy="mitm", certify_minimum=True)
    r = S.search(cfg)
    if target.is_identity:
        assert r.status == "found" and r.word == ()
        assert r.stats["minimal_length"] == 0
        return
    levels, distance = bfs_over_bytes(generators, target, 2 * max_depth)
    if "reason" in r.stats:  # the target acts outside the generators' cells
        assert r.status == "not-found" and distance is None
        return
    assert r.stats["levels"] == levels[: max_depth + 1]
    searcher = S._Searcher(cfg)
    assert searcher.grow(max_depth) is None
    total, want = all_levels_split(searcher, searcher.target_table)
    top = len(r.stats["levels"]) - 1
    if distance is None:
        assert total is None and r.status == "not-found"
        assert r.stats["minimal_length_exceeds"] == 2 * top
    else:
        assert r.status == "found"
        assert r.stats["minimal_length"] == total == distance == len(r.word)
        assert r.word == want


def test_certified_split_below_the_deepest_level():
    # a prefix of a shortest word is a shortest word: the first n letters
    # of FLIP_WORD reach a state at distance exactly n.  At depth 12,
    # level 12 gives that distance and level n - 12 holds the split of
    # least |h|
    gens = flip_generators()
    target = S.evaluate_word(tuple("abc".index(c) for c in FLIP_WORD[:20]), gens)
    assert len(S.search(S.SearchConfig(gens, target, 20)).word) == 20
    for n in range(13, 25):
        target = S.evaluate_word(tuple("abc".index(c) for c in FLIP_WORD[:n]), gens)
        cfg = S.SearchConfig(gens, target, 12, strategy="mitm", certify_minimum=True)
        r = S.search(cfg)
        assert r.stats["minimal_length"] == n
        assert r.stats["probed_levels"] == [0, 12, n - 12][: 2 if n == 24 else 3]
        searcher = S._Searcher(cfg)
        searcher.grow(12)
        assert all_levels_split(searcher, searcher.target_table) == (n, r.word)

"""Bounded search for expressions of a target gate over generator gates.

All generators must be inert; their products then stay inside the common
window hull, so a state is just a permutation table of the hull words
and group-element equality is table equality.  The ball around the
identity is grown level by level with numpy.  A level is a matrix of
distinct table rows, kept in build order in the buffer its candidates
were built in (dropped rows leave slack at its end).  Rows are hashed
by a multilinear hash, the sum of their 64-bit words times fixed odd
multipliers mod 2^64 (Lemire & Kaser 2014), which is one matmul for any
number of rows and columns.  A hash index of sorted runs maps a table to
its depth: the top 32 bits of each row's hash, numbered by level and
physical row.  A new level's keys, sorted already, merge into the last
run by one stable sort while the two hold at most _CHUNK keys, else
start a run (as in an LSM-tree, O'Neil et al. 1996).  Nearly every
lookup misses, so a presence map, one bit for each value of a key's
top bits (a one-hash Bloom filter, Bloom 1970), screens the keys first:
a clear bit proves the row absent, and only the keys whose bit is set
are sorted, so that they walk each run once from left to right, and
searched.  The map is sized to the ball, at least 16 bits per stored
state, and rebuilt as the ball grows: keys spread over the whole map,
so a moderate ball would touch every page of a map sized for the
largest one.  Duplicates are found by sorting candidates on the hash
and comparing equal-hash rows in full, and every index hit is
confirmed on the full table, so a hash can never merge two distinct
states.  Rows are compared as one np.void item each, viewed as the
widest unsigned words that tile them.  Row comparison, candidate
building, compaction, marking and probing each work through one block
of rows or keys at a time, so their temporaries stay in cache and do
not grow with the level.

Words are tuples of generator indices, first index applied last, as in
GateExpr.  BFS returns the lexicographically least shortest word.
Meet-in-the-middle stores the forward ball only.  Probing a level looks
up the probes target . h^-1 of its states h; a probe stored at depth
|g| splits the target as g . h.  When the generators' inverses are
generators too, |x| = |x^-1| for every x, so the probe's inverse
h . target^-1 is looked up instead: a column gather, as growth builds
candidates, where the probe itself is a scatter.  Probes are screened
by the presence map block by block, and those that pass are looked up
in batches of about one block, so each index run is walked once a
batch.  Within a level the least |g| wins, then the least h, entry by
entry, so the choice depends neither on where h is kept nor on the hash.

The search returns a split of least |g| + |h|, then least |h|; its
length D is the exact distance whenever D <= 2T, with T the deepest
stored level, and certified mode reports it as such.  It probes at most
three levels, since every prefix and every suffix of a shortest word is
a shortest word.
Level 0 is the target itself and decides every D <= T.  A shortest word
longer than T splits into the T letters applied first, a state at depth
exactly T, and D - T <= T further letters, also stored; so the least
|g| + T over level T is D, and level D - T holds the split of least
|h|, each of its hits with |g| = T.  No hit on levels 0 and T proves
D > 2T.  When the ball closed early every element is stored, and level
0 decides.

Growth skips candidates that cannot be new, by one table fixed before
level 1.  The generator j of the candidate that stored each frontier
state y = parent . g_j (its via) is kept, for the frontier only, and
y . g_k is not built, hashed or looked up when
  - k = j and g_k is an involution: y . g_k is the parent again; or
  - g_k and g_j commute and g_k ranks below g_j.
Generators are ranked by the leftmost cell of their window, the
identity first, ties by position; commutation is tested on the
embedded tables.  The skip is exact, as in the normal forms of trace
monoids (Cartier & Foata 1969): let z be new at depth L + 1 and c the
highest-ranked generator with z = y . g_c, |y| = L.  Were y . g_c
skipped, y = y' . g_j with g_j above g_c and commuting with it, so
z = (y' . g_c) . g_j; y' . g_c has depth at most L and, z being new,
exactly L, so c was not the highest-ranked.  So every new state is
still built once at least, for any via and any fixed ranking.  On the
seven shifted rule-57 gates the window order builds one candidate per
new state and no more.

Every Found result is re-evaluated through the gate algebra before it
is returned; memory use is estimated before each expansion so that an
over-budget run fails predictably with statistics instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates
from .gates import GroupElement, compose_many, embed

# table entries per block of rows that row comparison, candidate
# building, compaction and probing work through at a time (256k: 8k rows
# of 32 entries, 512 of 512).  Probes scattered, for generators not
# closed under inverses, take an intp index of a block (2 MB), which
# still fits a 2 MB L2 cache; gathered probes take none.  Much smaller
# blocks pay numpy's per-call cost more often.
_CHUNK = 1 << 18
# numpy's array objects and small temporaries in growing any level (~10 KB)
_OBJECT_BYTES = 1 << 16
# int64 arrays of the hull alive at once while one table is embedded and
# narrowed: embed holds two, beside an inverse gate's table, which is at
# most half the hull unless embed returns it as it is
_EMBED_WORDS = 3


@dataclass(frozen=True)
class SearchConfig:
    generators: tuple[GroupElement, ...]
    target: GroupElement
    max_depth: int
    memory_budget: int = 512 * 1024 * 1024
    strategy: str = "bfs"
    # mitm only: report that the length of the split found is the exact
    # distance to the target (BFS lengths are exact already)
    certify_minimum: bool = False

    def __post_init__(self):
        if gates._integer("max_depth", self.max_depth) < 1:
            raise ValueError("max_depth must be >= 1")
        if gates._integer("memory_budget", self.memory_budget) < 0:
            raise ValueError("memory_budget must be >= 0")
        if self.strategy not in ("bfs", "mitm"):
            raise ValueError("strategy must be 'bfs' or 'mitm'")
        if self.certify_minimum and self.strategy != "mitm":
            raise ValueError("certify_minimum needs strategy 'mitm'; BFS lengths are exact")
        for g in self.generators:
            if g.shift != 0:
                raise ValueError(
                    "generators must be inert (nonzero shift power gives an "
                    "unbounded ball)"
                )
        if self.target.shift != 0:
            raise ValueError("target must be inert")


@dataclass
class SearchResult:
    status: str  # found | not-found | budget-exceeded
    word: tuple[int, ...] | None = None
    stats: dict = field(default_factory=dict)


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """Multilinear hash of each row: sum of w_i * m_i mod 2^64, one matmul.

    w_i are the row's little-endian 64-bit words, zero-padded, and m_i is
    splitmix64(i + 1) | 1: the state i + 1 plus the golden gamma, mixed.
    """
    data = np.ascontiguousarray(rows).view(np.uint8)
    # explicit, so that zero rows reshape too
    data = data.reshape(rows.shape[0], rows.shape[1] * rows.itemsize)
    if data.shape[1] % 8:
        pad = 8 - data.shape[1] % 8
        data = np.concatenate(
            [data, np.zeros((data.shape[0], pad), dtype=np.uint8)], axis=1
        )
    words = data.view(np.uint64)
    z = np.arange(1, words.shape[1] + 1, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return words @ (z ^ (z >> np.uint64(31)) | np.uint64(1))


def _items(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one np.void item (a view if the rows are C-contiguous)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)


def _compact(rows: np.ndarray, keep: np.ndarray) -> None:
    """Move rows[keep] to the front of rows in place, keep ascending.

    Block by block: row keep[j] >= j moves to row j, so a block overwrites
    only rows that no later block reads.
    """
    items = _items(rows)
    step = max(1, _CHUNK // rows.shape[1])
    for lo in range(0, keep.size, step):
        block = keep[lo : lo + step]
        if block[-1] != lo + block.size - 1:  # else the block is in place
            items[lo : lo + block.size] = np.take(items, block)


def _equal_rows(a: np.ndarray, ia: np.ndarray, b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """a[ia] == b[ib] row by row, gathered as items in chunks of _CHUNK entries."""
    out = np.empty(ia.size, dtype=bool)
    step = max(1, _CHUNK // a.shape[1])
    a, b = _items(a), _items(b)
    # compared as the widest unsigned words that tile a row: np.void == is slower
    width = next(k for k in (8, 4, 2, 1) if a.itemsize % k == 0)
    for lo in range(0, ia.size, step):
        hi = lo + step
        eq = np.take(a, ia[lo:hi]).view(f"u{width}") == np.take(b, ib[lo:hi]).view(f"u{width}")
        out[lo:hi] = eq.reshape(-1, a.itemsize // width).all(axis=1)
    return out


def _index_keys(hashes: np.ndarray) -> np.ndarray:
    # the top half of the hash: a product's top bits depend on all of its
    # factors' bits below them, so they are mixed best
    return (hashes >> np.uint64(32)).astype(np.uint32)


def _map_log_bits(states: int) -> int:
    """log2 of the bits of the presence map of a ball of this many states.

    At least 16 bits per state, so that at most one in 16 keys that are
    not stored passes the map, and from 2^16 bits (8 KiB) up to 2^27
    (16 MiB, the top 27 bits of a key).
    """
    return min(max((16 * states - 1).bit_length(), 16), 27)


class _Ball:
    """Levels of the Cayley ball, a hash index over them in sorted runs, and its map.

    Each of ``runs`` holds the number of its first state and, for the
    states of consecutive levels, the top 32 bits of their hashes,
    ascending, and their numbers: the first number of the level plus the
    physical row, which ``starts`` maps back.  A run holds at most _CHUNK
    keys or one level; ``depth_of`` confirms every equal key on the full row.

    ``map`` is the presence map: one bit for each value of a key's top
    bits (``key >> shift``), packed, set for every stored key.  A clear
    bit proves that no stored state has the key; a set bit proves
    nothing.  A level that makes the ball outgrow the map rebuilds it
    from every run, at least doubled, so the rebuilds together
    mark a few times as many keys as the ball holds.  ``nbytes`` counts
    the slack rows of level buffers and the map.
    """

    def __init__(self):
        self.levels: list[np.ndarray] = []
        self.starts = [0]  # number of the first state of each level, then the total
        self.runs: list[tuple[int, np.ndarray, np.ndarray]] = []  # (first, keys, ids)
        self.map = np.empty(0, dtype=np.uint8)
        self.shift = np.uint32(32)
        self.nbytes = 0

    @property
    def states(self) -> int:
        return self.starts[-1]

    def add_level(self, buffer: np.ndarray, hashes: np.ndarray, at: np.ndarray) -> None:
        """Store buffer[:hashes.size] as a level; row at[i] has hash hashes[i], ascending."""
        count = hashes.size
        if self.states + count > np.iinfo(np.uint32).max:
            raise OverflowError("the ball index numbers states in 32 bits")
        numbers = (at + self.states).astype(np.uint32)
        new_keys = _index_keys(hashes)
        first, keys, ids = self.states, new_keys, numbers
        if self.runs and self.runs[-1][1].size + count <= _CHUNK:
            # both runs are sorted, so the stable sort merges them in one pass
            first, keys, ids = self.runs.pop()
            keys = np.concatenate([keys, new_keys])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            ids = np.concatenate([ids, numbers])[order]
            del order
        self.runs.append((first, keys, ids))
        old_map = self.map.nbytes
        log_bits = _map_log_bits(self.states + count)
        if self.shift != 32 - log_bits:
            # the ball outgrew the map: a new one from every stored key
            self.map = np.zeros(1 << (log_bits - 3), dtype=np.uint8)
            self.shift = np.uint32(32 - log_bits)
            for _, keys, _ in self.runs:
                self._mark(keys)
        else:
            self._mark(new_keys)
        self.levels.append(buffer[:count])
        self.starts.append(self.states + count)
        self.nbytes += buffer.nbytes + new_keys.nbytes + numbers.nbytes + self.map.nbytes - old_map

    def _mark(self, keys: np.ndarray) -> None:
        """Set the bits of the keys in the map, one block of _CHUNK keys at a time.

        A buffered ``map[byte] |= bit`` sets the bit of one key only of
        those that share a byte, so the keys whose bit is still clear are
        marked again; most bytes hold one key, so later rounds are short.
        np.bitwise_or.at would need no rounds, but is many times slower
        on numpy < 1.25, and np.bitwise_or.reduceat over runs of equal
        bytes costs more passes than the rounds.
        """
        for lo in range(0, keys.size, _CHUNK):
            byte, bit = self._address(keys[lo : lo + _CHUNK])
            byte, bit = byte.astype(np.intp), np.left_shift(np.uint8(1), bit)
            while byte.size:
                self.map[byte] |= bit
                clear = np.flatnonzero((self.map[byte] & bit) == 0)
                byte, bit = byte[clear], bit[clear]

    def _maybe_stored(self, keys: np.ndarray) -> np.ndarray:
        """Where the map's bit of a key is set, one block of _CHUNK keys at a time."""
        present = np.empty(keys.size, dtype=np.uint8)
        for lo in range(0, keys.size, _CHUNK):
            byte, bit = self._address(keys[lo : lo + _CHUNK])
            present[lo : lo + _CHUNK] = (np.take(self.map, byte) >> bit) & 1
        return np.flatnonzero(present)

    def _address(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The byte of the map that holds each key's bit, and the bit's place in it."""
        slot = keys >> self.shift
        return slot >> np.uint32(3), (slot & np.uint32(7)).astype(np.uint8)

    def depth_of(self, rows: np.ndarray, hashes=None, index=None, deepest=None) -> np.ndarray:
        """Stored depth of each row, or -1 where the row is not stored.

        hashes, if given, are those of the rows looked up.  Given hashes
        and an index, of rows[index] instead, which is compared without
        being gathered.  A row stored deeper than deepest, if given, reads -1.
        """
        if hashes is None:
            hashes = _hash_rows(rows)
        keys = _index_keys(hashes)
        out = np.full(keys.size, -1, dtype=np.int64)
        # a clear bit proves a row absent; only the rest are searched
        maybe = self._maybe_stored(keys)
        keys = keys[maybe]
        # ascending needles walk each run once, from left to right
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys)
            keys, maybe = keys[order], maybe[order]
        levels = len(self.levels) if deepest is None else deepest + 1
        for first, run_keys, run_ids in self.runs:
            if first >= self.starts[levels]:
                break
            left = np.searchsorted(run_keys, keys)
            # a key past the run's end is clipped to its last key, a lesser one
            cand = np.flatnonzero(run_keys.take(left, mode="clip") == keys)
            if not cand.size:
                continue
            # every pair of a row and a state of the run with the same key
            counts = np.searchsorted(run_keys, keys[cand], side="right") - left[cand]
            row = np.repeat(cand, counts)
            slot = left[row] + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
            row = maybe[row]
            state = run_ids[slot].astype(np.int64)
            depth = np.searchsorted(self.starts, state, side="right") - 1
            for d in np.flatnonzero(np.bincount(depth)[:levels]):
                pair = np.nonzero(depth == d)[0]
                stored = state[pair] - self.starts[d]
                looked_up = row[pair] if index is None else index[row[pair]]
                pair = pair[_equal_rows(self.levels[d], stored, rows, looked_up)]
                out[row[pair]] = d
        return out


def _dedup_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hashes and input indices of the distinct rows, ordered by (hash, row).

    Adjacent rows with equal hashes are compared in full; a run of equal
    hashes that holds distinct rows is sorted exactly on its own.
    """
    hashes = _hash_rows(rows)
    # the order among equal hashes does not matter: their rows are either
    # identical and merged, or sorted exactly below
    order = np.argsort(hashes)
    hashes = hashes[order]
    pairs = np.nonzero(hashes[1:] == hashes[:-1])[0]
    same = _equal_rows(rows, order[pairs], rows, order[pairs + 1])
    keep = np.ones(order.size, dtype=bool)
    keep[pairs[same] + 1] = False
    # hashes is sorted, so the hashes shared by distinct rows are too
    clash = hashes[pairs[~same]]
    once = np.ones(clash.size, dtype=bool)
    once[1:] = clash[1:] != clash[:-1]
    for h in clash[once]:
        lo = np.searchsorted(hashes, h, side="left")
        hi = np.searchsorted(hashes, h, side="right")
        run = order[lo:hi]
        # the run's rows in ascending order, entry by entry; the stable
        # sort keeps the first of equal rows
        by_row = np.lexsort(rows[run].T[::-1])
        sorted_rows = rows[run[by_row]]
        distinct = np.concatenate([[True], (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1)])
        first = by_row[distinct]
        order[lo : lo + first.size] = run[first]
        keep[lo:hi] = False
        keep[lo : lo + first.size] = True
    return hashes[keep], order[keep]


class _Searcher:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        # the generators' hull; with no cells acted on, one idle cell
        windows = [g.inert.window for g in cfg.generators if not g.inert.is_identity]
        self.lo = min((w[0] for w in windows), default=0)
        self.hi = max((w[1] for w in windows), default=0)
        target = cfg.target.inert.window
        # decided before any table is embedded, so that a far-off target
        # cannot widen the window
        self.target_reachable = target is None or (
            bool(windows) and self.lo <= target[0] and target[1] <= self.hi
        )
        width = self.hi - self.lo + 1
        gates._check_width(width)
        self.size = 1 << width
        self.dtype = np.min_scalar_type(self.size - 1)
        # the tables made with level 0 and kept for the whole search: each
        # generator, its inverse, the target and its inverse
        self.table_bytes = (2 * len(cfg.generators) + 2) * self.size * self.dtype.itemsize
        self.ball = _Ball()

    def embed_tables(self) -> None:
        """The tables of the generators, their inverses and the target on the hull.

        Each is first made as int64 words: embedding one holds at most
        _EMBED_WORDS int64 arrays of the hull at once.  The target's
        inverse, for probing, is made when the generators are closed
        under inverses.
        """
        self.gen_tables = [
            embed(g.inert, self.lo, self.hi).astype(self.dtype) for g in self.cfg.generators
        ]
        self.gen_inverses = [
            embed(g.inert.inverse(), self.lo, self.hi).astype(self.dtype) for g in self.cfg.generators
        ]
        self.skip = self.skip_table()
        # for each frontier row, the generator k of the candidate that
        # stored it (row = parent . g_k); len(generators) for the identity
        self.via = np.full(1, len(self.gen_tables), np.min_scalar_type(len(self.gen_tables)))
        self.target_table = self.target_inverse = None
        if self.target_reachable:
            self.target_table = embed(self.cfg.target.inert, self.lo, self.hi).astype(self.dtype)
            # closed under inverses, one inverse held at a time: inversion
            # is one-to-one, so this is {g^-1 for g in gens} == gens
            gens = set(self.cfg.generators)
            if all(g.inverse() in gens for g in gens):
                inverse = self.cfg.target.inert.inverse()
                self.target_inverse = embed(inverse, self.lo, self.hi).astype(self.dtype)

    def skip_table(self) -> np.ndarray:
        """skip[j, k]: whether a row stored as parent . g_j skips row . g_k.

        True where k = j and g_k is an involution, or where g_k and g_j
        commute and g_k ranks below g_j (module docstring); row
        len(generators), for the identity, skips nothing.
        """
        tables, n = self.gen_tables, len(self.gen_tables)
        commute = np.array(
            [[np.array_equal(tk[tj], tj[tk]) for tk in tables] for tj in tables], dtype=bool
        ).reshape(n, n)
        involution = np.array(
            [np.array_equal(t[t], np.arange(self.size)) for t in tables], dtype=bool
        )
        # by the leftmost cell of the window, the identity first; the
        # stable sort breaks ties by position
        left = [
            self.lo - 1 if g.inert.is_identity else g.inert.window[0] for g in self.cfg.generators
        ]
        rank = np.argsort(np.argsort(left, kind="stable"))
        skip = (commute & (rank[None, :] < rank[:, None])) | np.diag(involution)
        return np.vstack([skip, np.zeros((1, n), dtype=bool)])

    # -- ball construction ------------------------------------------------

    def grow(self, depth_limit: int) -> dict | None:
        """Extend the ball to depth_limit; None on success.

        Stops early (successfully) when the ball closes, i.e. the whole
        generated group has been enumerated below the limit.  When the
        next level could overrun the memory budget, returns that level,
        the projected peak bytes and the budget instead; for level 0,
        before any table is made.
        """
        row_bytes = self.size * self.dtype.itemsize
        budget = self.cfg.memory_budget
        if not self.ball.levels:
            # the kept tables, the int64 words one of them is made from,
            # and the identity row with its key, number and presence map
            projected = self.table_bytes + _EMBED_WORDS * 8 * self.size + row_bytes + 8
            projected += 1 << (_map_log_bits(1) - 3)
            projected += _OBJECT_BYTES
            if projected > budget:
                return {"level": 0, "projected_bytes": projected, "budget": budget}
            self.embed_tables()
            identity = np.arange(self.size, dtype=self.dtype)[None, :]
            self.ball.add_level(identity, _hash_rows(identity), np.zeros(1, dtype=np.intp))
        if not self.gen_tables:
            return None
        for depth in range(len(self.ball.levels), depth_limit + 1):
            # how many candidates each generator's block holds
            skipped = np.bincount(self.via, minlength=len(self.gen_tables) + 1) @ self.skip
            sizes = self.ball.levels[-1].shape[0] - skipped
            n = int(sizes.sum())
            if not n:
                return None  # ball closed: no candidate can be new
            # the candidates, which become the level, and below 48 bytes
            # per candidate of hashes, positions and index entries;
            # building, comparing and moving rows copies at most two
            # blocks of rows at once.  Merging into the last run holds 20
            # bytes per key of the merged run, at most _CHUNK (traced: int64
            # order, sorted keys, ids before and after sorting).  A ball
            # that outgrows its presence map makes the new map with the old
            block_bytes = 2 * min(n, max(1, _CHUNK // self.size)) * row_bytes
            projected = self.ball.nbytes + 20 * min(self.ball.runs[-1][1].size + n, _CHUNK)
            projected += n * (row_bytes + 48) + block_bytes + self.table_bytes + _OBJECT_BYTES
            new_map = 1 << (_map_log_bits(self.ball.states + n) - 3)
            if new_map > self.ball.map.nbytes:
                projected += new_map
            if projected > budget:
                return {"level": depth, "projected_bytes": projected, "budget": budget}
            candidates, starts = self.candidates(sizes)
            hashes, picked = _dedup_rows(candidates)
            fresh = np.flatnonzero(self.ball.depth_of(candidates, hashes, picked) < 0)
            if not fresh.size:
                return None  # ball closed: the whole group is enumerated
            picked, hashes = picked[fresh], hashes[fresh]
            del fresh
            # the level stays in build order where it was built: the kept
            # rows move to the front, and each hash is numbered by the
            # row it moves to
            kept = np.zeros(candidates.shape[0], dtype=bool)
            kept[picked] = True
            keep = np.flatnonzero(kept)
            at = np.cumsum(kept)[picked] - 1
            del kept, picked
            _compact(candidates, keep)
            self.via = (np.searchsorted(starts, keep, side="right") - 1).astype(self.via.dtype)
            del keep
            self.ball.add_level(candidates, hashes, at)
        return None

    def candidates(self, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frontier rows times each generator, and where each generator's block starts.

        Generator k's block holds frontier . g_k, in frontier order, for
        the sizes[k] frontier rows whose via the skip table does not skip.
        The rows are gathered one block of _CHUNK entries at a time, so
        that selecting them costs no index as large as the candidates.
        """
        frontier = self.ball.levels[-1]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        out = np.empty((int(sizes.sum()), self.size), dtype=self.dtype)
        step = max(1, _CHUNK // self.size)
        for k, t in enumerate(self.gen_tables):
            at, skip = starts[k], self.skip[:, k]
            for lo in range(0, frontier.shape[0], step):
                block = frontier[lo : lo + step]
                drop = skip[self.via[lo : lo + step]]
                if drop.any():
                    block = np.compress(~drop, block, axis=0)
                # t is a permutation, so "clip" clips nothing; it lets np.take
                # write into out directly, where "raise" gathers into a copy
                np.take(block, t, axis=1, out=out[at : at + block.shape[0]], mode="clip")
                at += block.shape[0]
        return out, starts

    # -- word reconstruction ----------------------------------------------

    def reconstruct(self, row: np.ndarray, depth: int) -> tuple[int, ...]:
        """Lexicographically least word of this exact length for a state."""
        word: list[int] = []
        current = row
        for d in range(depth, 0, -1):
            # strip generator i applied last: rest_i = g_i^-1 . current
            rests = np.stack([inv[current] for inv in self.gen_inverses])
            # |rest_i| >= d - 1 for every generator, so no deeper level is searched
            below = np.nonzero(self.ball.depth_of(rests, deepest=d - 1) == d - 1)[0]
            if not below.size:
                raise AssertionError("ball levels are inconsistent")
            word.append(int(below[0]))
            current = rests[below[0]]
        return tuple(word)

    def probes(self, level: np.ndarray, out=None) -> np.ndarray:
        """target . h^-1 for each state h of a level, i.e. p[h[j]] = target[j] (into out)."""
        if out is None:
            out = np.empty(level.shape, dtype=level.dtype)  # C order: row blocks flatten to views
        step = max(1, _CHUNK // self.size)
        # flat position of entry 0 of each row of a block, and one flat
        # index buffer that every block reuses
        starts = np.arange(0, step * self.size, self.size, dtype=np.intp)[:, None]
        index = np.empty((step, self.size), dtype=np.intp)
        for lo in range(0, level.shape[0], step):
            block = level[lo : lo + step]
            flat = np.add(block, starts[: block.shape[0]], out=index[: block.shape[0]])
            out[lo : lo + step].reshape(-1)[flat] = self.target_table
        return out

    # -- strategies ---------------------------------------------------------

    def stats(self, extra: dict | None = None) -> dict:
        out = {
            "window": [self.lo, self.hi],
            "states": self.ball.states,
            "levels": [lvl.shape[0] for lvl in self.ball.levels],
            "bytes": self.ball.nbytes,
        }
        if extra:
            out.update(extra)
        return out

    def bfs(self) -> SearchResult:
        for depth in range(self.cfg.max_depth + 1):
            if depth >= len(self.ball.levels):
                failure = self.grow(depth)
                if failure is not None:
                    return SearchResult("budget-exceeded", stats=self.stats(failure))
                if depth >= len(self.ball.levels):
                    break  # group exhausted below the depth limit
            if self.ball.depth_of(self.target_table[None, :])[0] == depth:
                word = self.reconstruct(self.target_table, depth)
                return SearchResult("found", word, self.stats({"length": depth}))
        return SearchResult("not-found", stats=self.stats())

    def split(self, h_depth: int) -> tuple[int, int, np.ndarray] | None:
        """Least |g| with target = g . h over the states h of one level.

        Returns |g|, the row of the least h, entry by entry, and the probe
        target . h^-1, or None when no probe of the level is stored.
        Probes are looked up in the batches of probe_batches.
        """
        level = self.ball.levels[h_depth]
        least, hits = None, []
        for rows, row_hashes, at in self.probe_batches(level):
            g_depth = self.ball.depth_of(rows, row_hashes, deepest=least)
            del rows, row_hashes  # so that the next batch is built without them
            found = g_depth[g_depth >= 0]
            if not found.size:
                continue
            if least is None or found.min() < least:
                least, hits = int(found.min()), []
            hits.append(at[g_depth == least])
        if least is None:
            return None
        hits = np.concatenate(hits)
        k = int(hits[np.lexsort(level[hits].T[::-1])[0]])
        return least, k, self.probes(level[k : k + 1])[0]

    def probe_batches(self, level: np.ndarray):
        """(probes, their hashes, their rows in level) of the probes whose map bit is set.

        Built and screened one block at a time, in batches of about one
        block of rows.  With generators closed under inverses the probe
        of h is its inverse h . target^-1 (module docstring).
        """
        step = max(1, _CHUNK // self.size)
        inverse = self.target_inverse
        # one buffer of probes that every block reuses
        buffer = np.empty((min(step, level.shape[0]), self.size), dtype=self.dtype)
        batch, held = [], 0
        for lo in range(0, level.shape[0], step):
            block = level[lo : lo + step]
            probes = buffer[: block.shape[0]]
            if inverse is None:
                self.probes(block, probes)
            else:
                # inverse is a permutation, so "clip" clips nothing (candidates)
                np.take(block, inverse, axis=1, out=probes, mode="clip")
            hashes = _hash_rows(probes)
            maybe = self.ball._maybe_stored(_index_keys(hashes))
            batch.append((probes[maybe], hashes[maybe], lo + maybe))
            held += maybe.size
            del hashes, maybe  # so that the next block's probes are built without them
            if held >= step or held and lo + step >= level.shape[0]:
                yield tuple(np.concatenate(part) for part in zip(*batch))
                batch, held = [], 0

    def mitm(self) -> SearchResult:
        failure = self.grow(self.cfg.max_depth)
        if failure is not None:
            return SearchResult("budget-exceeded", stats=self.stats(failure))
        top = len(self.ball.levels) - 1
        # the levels that decide a distance D (module docstring): 0 when
        # D <= top or the ball closed early, else top when D <= 2 * top,
        # and then D - top for the split of least |h|
        h_depth, hit = 0, self.split(0)
        probed = [0]
        if hit is None and top == self.cfg.max_depth:
            h_depth, hit = top, self.split(top)
            probed.append(top)
            if hit is not None and hit[0] < top:
                h_depth, hit = hit[0], self.split(hit[0])  # D - top = |g|
                probed.append(h_depth)
                if hit is None:
                    raise AssertionError("ball levels are inconsistent")
        certify = self.cfg.certify_minimum
        if hit is None:
            extra = {"minimal_length_exceeds": 2 * top, "probed_levels": probed} if certify else None
            return SearchResult("not-found", stats=self.stats(extra))
        g_depth, k, probe = hit
        word = self.reconstruct(probe, g_depth) + self.reconstruct(
            self.ball.levels[h_depth][k], h_depth
        )
        extra = {"length": len(word)}
        if certify:
            extra["minimal_length"] = g_depth + h_depth
            extra["probed_levels"] = probed
        return SearchResult("found", word, self.stats(extra))


def evaluate_word(word: tuple[int, ...], generators) -> GroupElement:
    """Compose a word of generator indices (first index applied last)."""
    return compose_many([generators[i] for i in word])


def search(cfg: SearchConfig) -> SearchResult:
    """Run the configured search; any Found word is re-verified first."""
    if cfg.target.is_identity:
        stats = {"length": 0, "minimal_length": 0} if cfg.certify_minimum else {"length": 0}
        return SearchResult("found", (), stats)
    searcher = _Searcher(cfg)
    if not searcher.target_reachable:
        return SearchResult("not-found", stats={"reason": "target outside hull"})
    result = searcher.bfs() if cfg.strategy == "bfs" else searcher.mitm()
    if result.status == "found":
        value = evaluate_word(result.word, cfg.generators)
        if value != cfg.target:
            raise AssertionError("search returned a word that fails re-evaluation")
    return result

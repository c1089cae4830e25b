"""Bounded search for expressions of a target gate over generator gates.

All generators must be inert; their products then stay inside the
common window hull, so a state is just a permutation table of the hull
words and group-element equality is table equality.  The ball around
the identity is grown level by level with numpy: a level is a matrix of
table rows, deduplicated exactly, indexed by a 64-bit content hash with
full-table confirmation on collision (a hash can never merge two
distinct states).

Words are tuples of generator indices, first index applied last, as in
GateExpr.  BFS returns the lexicographically least shortest word.
Meet-in-the-middle stores the forward ball only and lazily probes
target . h^-1 for every stored h, level by level in storage order,
returning the first hit (deterministic, length <= 2 * max_depth).

Every Found result is re-evaluated through the gate algebra before it
is returned; memory use is estimated before each expansion so that an
over-budget run fails predictably with statistics instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import GroupElement, compose_many, embed, identity_gate

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass(frozen=True)
class SearchConfig:
    generators: tuple[GroupElement, ...]
    target: GroupElement
    max_depth: int
    memory_budget: int = 512 * 1024 * 1024
    strategy: str = "bfs"
    # mitm only: scan split pairs by total length and certify that the
    # returned length is the exact distance to the target
    certify_minimum: bool = False

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.strategy not in ("bfs", "mitm"):
            raise ValueError("strategy must be 'bfs' or 'mitm'")
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
    data = np.ascontiguousarray(rows).view(np.uint8)
    data = data.reshape(rows.shape[0], -1)
    if data.shape[1] % 8:
        pad = 8 - data.shape[1] % 8
        data = np.concatenate(
            [data, np.zeros((data.shape[0], pad), dtype=np.uint8)], axis=1
        )
    words = data.view(np.uint64)
    h = np.full(rows.shape[0], _FNV_OFFSET, dtype=np.uint64)
    for col in range(words.shape[1]):
        h ^= words[:, col]
        h *= _FNV_PRIME
    return h


class _Ball:
    """Levels of the Cayley ball as hash-indexed table matrices."""

    def __init__(self, size: int, dtype):
        self.size = size
        self.dtype = dtype
        self.levels: list[np.ndarray] = []
        self.hashes: list[np.ndarray] = []
        self.nbytes = 0
        self.states = 0

    def add_level(self, rows: np.ndarray) -> np.ndarray:
        order = np.argsort(_hash_rows(rows), kind="stable")
        rows = rows[order]
        h = _hash_rows(rows)
        self.levels.append(rows)
        self.hashes.append(h)
        self.nbytes += rows.nbytes + h.nbytes
        self.states += rows.shape[0]
        return rows

    def contains(self, depth: int, rows: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows are stored at the given level."""
        stored = self.levels[depth]
        stored_h = self.hashes[depth]
        h = _hash_rows(rows)
        left = np.searchsorted(stored_h, h, side="left")
        right = np.searchsorted(stored_h, h, side="right")
        out = np.zeros(rows.shape[0], dtype=bool)
        candidates = np.nonzero(right > left)[0]
        simple = candidates[right[candidates] == left[candidates] + 1]
        if simple.size:
            out[simple] = (stored[left[simple]] == rows[simple]).all(axis=1)
        for i in candidates[right[candidates] > left[candidates] + 1]:
            for j in range(left[i], right[i]):
                if np.array_equal(stored[j], rows[i]):
                    out[i] = True
                    break
        return out

    def contains_one(self, depth: int, row: np.ndarray) -> bool:
        return bool(self.contains(depth, row[None, :])[0])


def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    return np.unique(rows, axis=0)


class _Searcher:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        windows = [g.inert.window for g in cfg.generators if not g.inert.is_identity]
        if not cfg.target.inert.is_identity:
            windows.append(cfg.target.inert.window)
        if not windows:
            windows = [(0, 0)]
        self.lo = min(w[0] for w in windows)
        self.hi = max(w[1] for w in windows)
        self.size = 1 << (self.hi - self.lo + 1)
        self.dtype = np.uint8 if self.size <= 256 else np.uint32
        # embed raises WindowCapError if the common window is too wide
        self.gen_tables = [
            embed(g.inert, self.lo, self.hi).astype(self.dtype) for g in cfg.generators
        ]
        self.gen_inverses = [np.argsort(t).astype(self.dtype) for t in self.gen_tables]
        self.target_table = embed(cfg.target.inert, self.lo, self.hi).astype(self.dtype)
        self.target_reachable = self._target_in_hull()
        self.ball = _Ball(self.size, self.dtype)

    def _target_in_hull(self) -> bool:
        gw = self.cfg.target.inert.window
        if gw is None:
            return True
        hulls = [g.inert.window for g in self.cfg.generators if g.inert.window]
        if not hulls:
            return False
        lo = min(w[0] for w in hulls)
        hi = max(w[1] for w in hulls)
        return lo <= gw[0] and gw[1] <= hi

    # -- ball construction ------------------------------------------------

    def grow(self, depth_limit: int) -> str:
        """Extend the ball to depth_limit; '' on success, else a status.

        Stops early (successfully) when the ball closes, i.e. the whole
        generated group has been enumerated below the limit.
        """
        if not self.ball.levels:
            identity = np.arange(self.size, dtype=self.dtype)[None, :]
            self.ball.add_level(identity)
        if not self.gen_tables:
            return ""
        per_state = self.size * np.dtype(self.dtype).itemsize + 8
        for depth in range(len(self.ball.levels), depth_limit + 1):
            frontier = self.ball.levels[depth - 1]
            projected = frontier.shape[0] * len(self.gen_tables) * per_state
            # unique() over the candidate block roughly doubles the peak
            if self.ball.nbytes + 3 * projected > self.cfg.memory_budget:
                return "budget-exceeded"
            blocks = [frontier[:, t] for t in self.gen_tables]
            candidates = _dedup_rows(np.concatenate(blocks, axis=0))
            fresh = ~self.ball.contains(depth - 1, candidates)
            if depth >= 2:
                fresh &= ~self.ball.contains(depth - 2, candidates)
            candidates = candidates[fresh]
            if candidates.shape[0] == 0:
                return ""  # ball closed: the whole group is enumerated
            self.ball.add_level(candidates)
        return ""

    # -- word reconstruction ----------------------------------------------

    def reconstruct(self, row: np.ndarray, depth: int) -> tuple[int, ...]:
        """Lexicographically least word of this exact length for a state."""
        word: list[int] = []
        current = row
        for d in range(depth, 0, -1):
            for i, inv in enumerate(self.gen_inverses):
                # strip generator i applied last: rest = g_i^-1 . current
                rest = inv[current]
                if self.ball.contains_one(d - 1, rest):
                    word.append(i)
                    current = rest
                    break
            else:
                raise AssertionError("ball levels are inconsistent")
        return tuple(word)

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
                status = self.grow(depth)
                if status:
                    return SearchResult(status, stats=self.stats())
                if depth >= len(self.ball.levels):
                    break  # group exhausted below the depth limit
            if self.ball.contains_one(depth, self.target_table):
                word = self.reconstruct(self.target_table, depth)
                return SearchResult("found", word, self.stats({"length": depth}))
        return SearchResult("not-found", stats=self.stats())

    def _mitm_hit(self, probes: np.ndarray, level: np.ndarray, h_depth: int, g_depth: int):
        mask = self.ball.contains(g_depth, probes)
        hits = np.nonzero(mask)[0]
        if not hits.size:
            return None
        h_row = level[hits[0]]
        p_row = probes[hits[0]]
        return self.reconstruct(p_row, g_depth) + self.reconstruct(h_row, h_depth)

    def mitm(self) -> SearchResult:
        status = self.grow(self.cfg.max_depth)
        if status:
            return SearchResult(status, stats=self.stats())
        depths = len(self.ball.levels)
        probes_cache: dict[int, np.ndarray] = {}

        def probes_for(h_depth: int) -> np.ndarray:
            if h_depth not in probes_cache:
                level = self.ball.levels[h_depth]
                inverses = np.argsort(level, axis=1)
                probes_cache[h_depth] = self.target_table[inverses].astype(
                    self.dtype, copy=False
                )
            return probes_cache[h_depth]

        if self.cfg.certify_minimum:
            # scan split pairs by total length: the first hit total is the
            # exact distance (any word of length d <= 2*max_depth splits
            # into halves of lengths ceil(d/2), floor(d/2), both stored)
            for total in range(2 * depths - 1):
                for h_depth in range(max(0, total - depths + 1), min(total, depths - 1) + 1):
                    g_depth = total - h_depth
                    word = self._mitm_hit(
                        probes_for(h_depth), self.ball.levels[h_depth], h_depth, g_depth
                    )
                    if word is not None:
                        return SearchResult(
                            "found",
                            word,
                            self.stats({"length": len(word), "minimal_length": total}),
                        )
            return SearchResult(
                "not-found", stats=self.stats({"minimal_length_exceeds": 2 * depths - 2})
            )

        for h_depth in range(depths):
            for g_depth in range(depths):
                word = self._mitm_hit(
                    probes_for(h_depth), self.ball.levels[h_depth], h_depth, g_depth
                )
                if word is not None:
                    return SearchResult("found", word, self.stats({"length": len(word)}))
        return SearchResult("not-found", stats=self.stats())


def evaluate_word(word: tuple[int, ...], generators) -> GroupElement:
    """Compose a word of generator indices (first index applied last)."""
    if not word:
        return GroupElement(0, identity_gate())
    return compose_many([generators[i] for i in word])


def search(cfg: SearchConfig) -> SearchResult:
    """Run the configured search; any Found word is re-verified first."""
    if cfg.target.is_identity:
        return SearchResult("found", (), {"length": 0})
    searcher = _Searcher(cfg)
    if not searcher.target_reachable:
        return SearchResult("not-found", stats={"reason": "target outside hull"})
    result = searcher.bfs() if cfg.strategy == "bfs" else searcher.mitm()
    if result.status == "found":
        value = evaluate_word(result.word, cfg.generators)
        if value != cfg.target:
            raise AssertionError("search returned a word that fails re-evaluation")
    return result

"""Gates on the two-sided infinite binary tape.

A *gate* (inert map) changes only cells inside a finite window and reads
only that window; everything outside passes through untouched.  Together
with the tape shift these maps form a group in which every element has a
unique normal form

    shift^n  followed by  an inert gate,

so deciding equality reduces to comparing an integer with a canonical
finite table.  The canonical table of a gate is kept on the *hull of its
strong support*: a boundary cell is dropped whenever the gate never
changes it and no output depends on it.  That makes table equality exact
group-element equality, which everything else here (identity checking,
classification, search) relies on.

Conventions, fixed once and used everywhere:

* shift(x)[i] = x[i+1]; conjugating a gate by shift^-k moves its window
  k cells to the right, written gate@k in expressions.
* window words are MSB-first: the leftmost cell of a window is the most
  significant bit of its table index.
* in a composition f*g, g is applied first; expression strings list the
  last-applied atom first (function order).

Tables are validated once, where they enter: canonicalize (so also
GroupElement.from_record) refuses a table that is not a permutation of
integers, while products and named generators, built from permutations,
are canonicalized unchecked (tests compare products with a checked chain).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bitcore import check_word, word_xor

# Longest flat expression Program.expand builds: 2^20 atoms, some 100 MB
# of atom tuples.  A fixed limit: a longer program can still be evaluated.
MAX_EXPANDED_ATOMS = 1 << 20

# Leaf-table words one Program evaluation, so one product, keeps at once
# (8 MiB); past it a leaf table is made again at each use.
EMBED_BUDGET = 1 << 20

# Words one block of a whole-table read holds (512 KiB of int64), so that
# reading a gate through flip_difference or word_moves holds about one
# table, its own.
READ_BLOCK = 1 << 16

# Widest table window: checked before any table is made, so no table
# holds more than 2^24 (16M) entries.
WINDOW_CAP = 24


def _check_width(width: int) -> None:  # before a table of that width is made
    if width > WINDOW_CAP:
        raise WindowCapError(width, WINDOW_CAP)


class WindowCapError(ValueError):
    """Raised when an operation would need a wider window than allowed."""

    def __init__(self, required_width: int, cap: int):
        super().__init__(
            f"window cap exceeded: need width {required_width}, cap is {cap}"
        )
        self.required_width = required_width
        self.cap = cap


class ExpansionCapError(ValueError):
    """Raised before expanding a straight-line program past MAX_EXPANDED_ATOMS."""

    def __init__(self, length: int, cap: int):
        super().__init__(
            f"expansion cap exceeded: the program expands to {length} atoms, cap is {cap}"
        )
        self.length = length
        self.cap = cap


class NotInvertibleError(ValueError):
    """Raised for a cell-update rule that is not a bijection of the tape."""

    def __init__(self, rule: int, context: tuple[int, int]):
        super().__init__(
            f"e^{rule} not invertible: with (left, right) neighbours {context} "
            f"the centre cell map is constant"
        )
        self.rule = rule
        self.context = context


@functools.lru_cache(maxsize=None)
def _bit_reverse_map(width: int) -> np.ndarray:
    idx = np.arange(1 << width, dtype=np.int64)
    rev = np.zeros(1 << width, dtype=np.int64)
    for p in range(width):
        rev |= ((idx >> p) & 1) << (width - 1 - p)
    rev.setflags(write=False)
    return rev


class InertGate:
    """A gate in canonical form: window hull plus permutation table.

    ``table[u]`` is the image of the window word with integer code ``u``
    (MSB-first, window cell ``lo`` as the top bit).  The identity is the
    distinguished gate with an empty window rather than a width-0 table.
    Instances are immutable; construct via :func:`canonicalize`,
    :func:`make_word_swap` and friends.
    """

    __slots__ = ("lo", "hi", "table", "_hash")

    def __init__(self, lo: int, hi: int, table: np.ndarray):
        # expects already-canonical data; use canonicalize() to build
        self.lo = lo
        self.hi = hi
        table.setflags(write=False)
        self.table = table
        self._hash = None  # on first use: hashing copies the whole table

    # -- basic shape ---------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.hi < self.lo

    @property
    def width(self) -> int:
        return 0 if self.is_identity else self.hi - self.lo + 1

    @property
    def window(self) -> tuple[int, int] | None:
        return None if self.is_identity else (self.lo, self.hi)

    @property
    def radius(self) -> int:
        """Least r such that some shifted copy fits in [-r, r]."""
        return self.width // 2

    @property
    def offset(self) -> int:
        """Least m for which the window fits in [m - radius, m + radius]."""
        if self.is_identity:
            return 0
        return self.hi - self.radius

    def padded_rule(self) -> tuple[int, np.ndarray]:
        """Table widened to exactly 2*radius + 1 cells.

        Returns (start, table) where start = offset - radius.  At most one
        pass-through cell is added on the left (even-width hulls only).
        """
        if self.is_identity:
            raise ValueError("identity gate has no rule window")
        full = 2 * self.radius + 1
        pad = full - self.width
        if pad == 0:
            return self.lo, self.table
        size = 1 << full
        idx = np.arange(size, dtype=np.int64)
        mask = (1 << self.width) - 1
        top = idx & ~mask
        out = top | self.table[idx & mask]
        return self.lo - pad, out

    # -- group structure ------------------------------------------------

    def compose(self, *others: "InertGate") -> "InertGate":
        """self after others, the last applied first: a product of gates.

        Composed as compose_many composes their elements; the gate itself
        when the others are all the identity.
        """
        gates = dict(enumerate(GroupElement(0, g) for g in (self, *others)))
        return _compose_elements([(i, 0) for i in gates], gates).inert

    def inverse(self) -> "InertGate":
        if self.is_identity:
            return self
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(self.table.size, dtype=np.int64)
        # the strong support of the inverse is the same set of cells
        return InertGate(self.lo, self.hi, inv)

    def shift_by(self, k: int) -> "InertGate":
        """Window translated k cells to the right; same table."""
        if self.is_identity or k == 0:
            return self
        return InertGate(self.lo + k, self.hi + k, self.table)

    def mirror(self) -> "InertGate":
        """Conjugate by the tape reversal x[i] -> x[-i]."""
        if self.is_identity:
            return self
        rev = _bit_reverse_map(self.width)
        return InertGate(-self.hi, -self.lo, rev[self.table[rev]])

    def order(self) -> int:
        """Order as a group element (lcm of table cycle lengths)."""
        lengths = np.bincount(cycle_labels(self.table))
        return math.lcm(*set(lengths[lengths > 0].tolist()))

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, InertGate):
            return NotImplemented
        if self.is_identity or other.is_identity:
            return self.is_identity and other.is_identity
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        if self._hash is None:
            # CPython hashes -1 like -2; doubled bounds are never -1, so gates
            # one cell apart, such as c0@-1 and c0@-2, do not collide
            self._hash = hash((2 * self.lo, 2 * self.hi, self.table.tobytes()))
        return self._hash

    def __repr__(self):
        if self.is_identity:
            return "InertGate(identity)"
        return f"InertGate[{self.lo}..{self.hi}]"


_IDENTITY_GATE = InertGate(0, -1, np.zeros(0, dtype=np.int64))


def identity_gate() -> InertGate:
    return _IDENTITY_GATE


def cycle_labels(table: np.ndarray) -> np.ndarray:
    """The least point of each point's cycle under a permutation table.

    The one cycle counter, by pointer doubling: after k rounds each point
    is labelled with the least of the 2^k points from it along its cycle,
    so after ceil(log2 N) rounds with the least point of its cycle, and
    exactly one point of each cycle is its own label.
    """
    label, step = np.arange(table.size), table
    for _ in range((table.size - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    return label


def table_cycles(table: np.ndarray) -> list[list[int]]:
    """Nontrivial cycles of a permutation table, each from its least entry
    and in cycle order (CyclicPerm.cycles); cycle_labels counts them."""
    table = table.tolist()
    seen = [False] * len(table)
    out = []
    for start, image in enumerate(table):
        if seen[start] or image == start:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = table[j]
        out.append(cycle)
    return out


def embed(g: InertGate, lo: int, hi: int) -> np.ndarray:
    """Table of g on [lo, hi], which must contain its window (g's own
    read-only table when [lo, hi] is its window): the one window kernel of
    products, rings and search.  The caller bounds the width, by the window
    cap on the tape and RING_CAP on rings; embed allocates 2^width words."""
    width = hi - lo + 1
    if g.is_identity:
        return np.arange(1 << width, dtype=np.int64)
    if g.lo == lo and g.hi == hi:
        return g.table
    # a word is (cells left of g, cells of g, cells right of g), and g
    # permutes the middle part: the words in that shape, taken through g
    words = np.arange(1 << width, dtype=np.int64).reshape(1 << (g.lo - lo), -1, 1 << (hi - g.hi))
    return np.take(words, g.table, axis=1).reshape(-1)


def _intern(items: Iterable) -> tuple[list[int], dict]:
    # each item's number, which is the position of its first occurrence,
    # and the distinct items mapped to their numbers
    first: dict = {}
    return list(map(first.setdefault, items, itertools.count())), first


class Program:
    """A straight-line program over named generators, read from its start rules.

    rules maps each rule to its factors (symbol, k), in function order like
    GateExpr atoms: the first factor acts last.  A symbol that names a rule
    stands for that rule moved k cells to the right; any other symbol is a
    generator at cell k.  A rule may mention only rules before it, so every
    (rule, cell) that the starts reach can be computed once and the
    expanded lengths are exact without expanding.  Starts may share rules,
    and then share their computation too.  A flat product is a program of
    one rule, and Program is the only place where factors are interned.
    order lists the rules the starts reach, each after the rules it
    mentions, in depth-first finishing order from the starts.  expand and
    lengths may define generators as rules over others, without a new Program.
    """

    def __init__(self, rules: Mapping[Hashable, tuple[tuple[Hashable, int], ...]], starts: Iterable[Hashable]):
        self.rules = rules = dict(rules)  # a copy, which callers cannot change
        self.starts = starts = tuple(starts)
        # the reads of every (symbol, cell) when each (rule, cell) is computed
        # once, plus one final read per start, and the cells each reachable
        # rule is read at
        self.uses = uses = {}
        self.cells = cells = {}
        for start in starts:
            if start not in rules:
                raise ValueError(f"unknown start rule {start!r}")
            uses[start, 0] = uses.get((start, 0), 0) + 1
            cells[start] = {0: None}
        # each reachable rule's distinct factors, numbered by their first
        # position, and the factor numbers in application order
        self._interned = interned = {}
        self.order = order = []
        position = dict(zip(rules, itertools.count()))
        stack = [(None, iter(starts))]  # a root, whose children are the starts
        while stack:
            for name in stack[-1][1]:
                if name in interned:
                    continue
                if not rules[name]:
                    raise ValueError(f"rule {name!r} is empty")
                seq, first = _intern(rules[name])
                children = [sym for sym, _ in first if sym in position]
                if children and max(map(position.__getitem__, children)) >= position[name]:
                    raise ValueError(f"rule {name!r} mentions itself or a rule after it")
                interned[name] = first, seq[::-1]
                stack.append((name, iter(children)))
                break
            else:
                order.append(stack.pop()[0])
        order.pop()  # the root
        for name in reversed(order):  # parents before children
            for k in cells[name]:
                for sym, dk in interned[name][0]:
                    uses[sym, k + dk] = uses.get((sym, k + dk), 0) + 1
                    if sym in interned:
                        cells.setdefault(sym, {})[k + dk] = None

    def _check(self, defined: Mapping) -> None:
        # each of defined's rules must define a generator, a name that is
        # no rule, over generators
        for name, factors in defined.items():
            if name in self.rules or not factors or any(sym in self.rules or sym in defined for sym, _ in factors):
                raise ValueError(f"rule {name!r} must define a generator over generators")

    @functools.cached_property
    def _counts(self) -> list[dict]:
        # how often each generator occurs in each start's expansion
        counts: dict = {}
        for name in self.order:
            here = counts[name] = {}
            for sym, _ in self.rules[name]:
                for gen, c in counts.get(sym, {sym: 1}).items():
                    here[gen] = here.get(gen, 0) + c
        return [counts[start] for start in self.starts]

    def lengths(self, defined: Mapping = {}) -> list[int]:
        """The exact length of each start's expansion (see expand for defined),
        from how often each generator occurs in it, counted once per program."""
        self._check(defined)
        return [
            sum(c * (len(defined[gen]) if gen in defined else 1) for gen, c in counts.items())
            for counts in self._counts
        ]

    def expand(self, cancels: Callable[[Hashable], bool] | None = None, defined: Mapping = {}) -> list["GateExpr"]:
        """Each start's flat expression.

        defined maps generators to rules over other generators, read before
        the program's rules: each use of such a generator becomes a use of
        its rule, as in the program with those rules written first.  With
        cancels given, two adjacent equal atoms of a generator x with
        cancels(x) true are dropped, again and again, as x x = 1 allows for
        an involution; cancels is asked once per generator, at its first
        adjacent pair.  Cancelling within each rule and then where its
        factors meet gives the words that cancelling each whole expansion
        would: cancellation reaches one normal form in any order.  Raises
        ExpansionCapError, before expanding anything, when an expansion
        would be longer than MAX_EXPANDED_ATOMS.
        """
        longest = max(self.lengths(defined), default=0)  # also checks defined
        if longest > MAX_EXPANDED_ATOMS:
            raise ExpansionCapError(longest, MAX_EXPANDED_ATOMS)
        rules, order = {**defined, **self.rules}, [*defined, *self.order]
        allowed: dict = {}
        flat: dict = {}
        for name in order:
            atoms: list = []
            for sym, k in rules[name]:
                sub = flat.get(sym)
                part = [(sym, k)] if sub is None else [(n, j + k) for n, j in sub] if k else sub
                i = 0  # pairs cancelled where part meets atoms
                while cancels and i < len(part) and atoms and atoms[-1] == part[i]:
                    x = part[i][0]
                    if x not in allowed:
                        allowed[x] = cancels(x)
                    if not allowed[x]:
                        break
                    atoms.pop()
                    i += 1
                atoms += part[i:] if i else part
            flat[name] = atoms
        return [GateExpr(tuple(flat[start])) for start in self.starts]

    def tables(self, leaf: Callable[[Hashable, int], np.ndarray]) -> list[np.ndarray]:
        """Each start's table, from leaf(generator, cell) tables composed by gather.

        t[acc] applies t after acc.  Each reachable (rule, cell) is gathered
        once from its factors, in order, which by associativity gives the
        table of its expansion.  A leaf table is made at its first use and
        kept until its last if the leaf tables kept hold fewer than
        EMBED_BUDGET words, and made again at each use if not.  Every table
        is freed after the gather that uses it last, so the live tables are
        bounded by the width of the program and the budget, not its length.
        """
        uses = dict(self.uses)
        memo: dict = {}
        room = EMBED_BUDGET  # words more leaf tables may be kept in
        for name in self.order:
            first, order = self._interned[name]
            for k in self.cells[name]:
                local: list = [None] * len(self.rules[name])
                freed = 0  # words of the leaf tables this gather uses last
                for (sym, dk), i in first.items():
                    key = (sym, k + dk)
                    uses[key] -= 1
                    if key in memo:
                        t = memo.pop(key)
                    elif room <= 0:
                        local[i] = key  # made again at each use
                        continue
                    else:
                        t = leaf(*key)
                        room -= t.size
                    local[i] = t
                    if uses[key]:
                        memo[key] = t
                    elif sym not in self.rules:
                        freed += t.size
                acc = None
                for i in order:
                    t = local[i]
                    if type(t) is tuple:
                        t = leaf(*t)
                    acc = t if acc is None else t[acc]
                memo[name, k] = acc
                room += freed
        return [memo[start, 0] for start in self.starts]


def _program_tables(program: Program, leaves: Mapping[tuple[Hashable, int], InertGate]):
    # (lo, hi, each start's table on [lo, hi]), [lo, hi] the hull of the
    # leaf gate of each (generator, cell) read, or None when all are the
    # identity; raises WindowCapError when the hull is too wide
    used = [g for g in leaves.values() if not g.is_identity]
    if not used:
        return None
    lo, hi = min(g.lo for g in used), max(g.hi for g in used)
    _check_width(hi - lo + 1)
    return lo, hi, program.tables(lambda *leaf: embed(leaves[leaf], lo, hi))


def _generator_leaves(program: Program, generators: Mapping[str, GroupElement]) -> dict:
    # the gate of each (generator, cell) the program reads
    leaves = [(sym, k) for sym, k in program.uses if sym not in program.rules]
    for sym in dict.fromkeys(sym for sym, _ in leaves):
        if sym not in generators:
            raise ValueError(f"unknown generator {sym!r}")
        if generators[sym].shift:
            raise ValueError(f"generator {sym!r} is not inert")
    return {(sym, k): generators[sym].inert.shift_by(k) for sym, k in leaves}


def evaluate_program(program: Program, generators: Mapping[str, GroupElement]) -> list[GroupElement]:
    """The value of each start of a straight-line program over inert generators.

    Each distinct (generator, cell) leaf is embedded in the hull of all
    the leaves, the tables are gathered along the rules (see
    Program.tables, which keeps the leaf tables within the embed budget) and
    each start's table is canonicalized once, without a check, as a
    product of permutations.  Raises WindowCapError when that hull is
    wider than the window cap.
    """
    hull = _program_tables(program, _generator_leaves(program, generators))
    if hull is None:
        return [IDENTITY for _ in program.starts]
    lo, hi, tables = hull
    return [GroupElement(0, _canonical(lo, hi, table)) for table in tables]


def program_matches(
    program: Program, generators: Mapping[str, GroupElement], expected: Iterable[GroupElement]
) -> list[bool]:
    """Whether each start equals its expected element, without canonicalizing.

    The same as comparing evaluate_program's values one by one: the hull
    of the leaves holds the support of every start, so each expected
    element is embedded in it and compared table to table, and one with
    a shift part or a window outside the hull equals no start.
    """
    expected = list(expected)
    if len(expected) != len(program.starts):
        raise ValueError(f"{len(expected)} expected values for {len(program.starts)} starts")
    hull = _program_tables(program, _generator_leaves(program, generators))
    if hull is None:
        return [e.is_identity for e in expected]
    lo, hi, tables = hull
    return [
        e.shift == 0
        and (e.inert.is_identity or lo <= e.inert.lo and e.inert.hi <= hi)
        and np.array_equal(table, embed(e.inert, lo, hi))
        for table, e in zip(tables, expected)
    ]


def flip_difference(table: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """table[u] ^ table[u | 1 << p] for every word u with bit p clear, in order
    of u, in blocks of at most READ_BLOCK words."""
    pairs = table.reshape(-1, 2, 1 << p)  # images of words without, with bit p
    rows, cols = max(1, READ_BLOCK >> p), READ_BLOCK
    for r in range(0, pairs.shape[0], rows):
        for c in range(0, pairs.shape[2], cols):
            block = pairs[r:r + rows, :, c:c + cols]
            yield (block[:, 0] ^ block[:, 1]).reshape(-1)


def word_moves(table: np.ndarray) -> Iterator[np.ndarray]:
    """table[u] ^ u for every word u, in order of u, in blocks of at most READ_BLOCK words."""
    for start in range(0, table.size, READ_BLOCK):
        block = table[start:start + READ_BLOCK]
        yield block ^ np.arange(start, start + block.size, dtype=np.int64)


def _integer(name: str, value) -> int:
    # value as an int; ValueError unless it is an integer (a bool is not)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def permutation_table(values: Iterable[int] | np.ndarray, size: int) -> np.ndarray:
    """values as a new int64 array; ValueError unless a permutation of range(size).

    The one check of a table from outside the library: canonicalize and
    CyclicPerm call it, and the copy it returns is theirs, so the caller's
    array stays as it was.  Entries must be integers: floats, strings and
    bools are refused, not converted.
    """
    table = np.asarray(values)
    if table.shape != (size,):
        raise ValueError(f"table must have {size} entries, got shape {table.shape}")
    if table.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, got {table.dtype}")
    table = table.astype(np.int64)  # a copy; uint64 past int64 wraps negative
    if size and (table.min() < 0 or table.max() >= size):
        raise ValueError("not a permutation: entry out of range")
    if np.bincount(table, minlength=size).max(initial=1) != 1:
        raise ValueError("not a permutation: repeated value")
    return table


def canonicalize(lo: int, hi: int, table: Iterable[int] | np.ndarray) -> InertGate:
    """Canonical gate for a permutation table on window [lo, hi].

    Shrinks the window to the hull of the strong support: a cell is
    dropped iff the table never changes it and no other output depends
    on it.  This is the checked entry for tables from outside the
    library (user tables, records): lo and hi must be integers, the
    window within the window cap and the table a permutation of integers
    (see permutation_table), or it raises ValueError.  Tables the library
    builds from permutations (products, named generators) skip the check
    and go straight to _canonical.
    """
    lo, hi = _integer("window_lo", lo), _integer("window_hi", hi)
    width = hi - lo + 1
    if width < 0:
        raise ValueError("empty window: use identity_gate()")
    _check_width(width)
    return _canonical(lo, hi, permutation_table(table, 1 << width))


def _canonical(lo: int, hi: int, table: np.ndarray) -> InertGate:
    # canonicalize without the check: table is an int64 permutation of the
    # words of [lo, hi], within the cap, which the caller will not change
    # and the gate may keep
    width = hi - lo + 1
    changed_mask = 0
    for moves in word_moves(table):
        changed_mask |= int(np.bitwise_or.reduce(moves))
    if not changed_mask:  # no word moves: the identity, with no support to scan
        return _IDENTITY_GATE

    def in_support(p: int) -> bool:
        bit = 1 << p
        if changed_mask & bit:
            return True
        return any((diff & ~bit).any() for diff in flip_difference(table, p))

    # only the outermost cells of the support matter: scan in from both ends
    p_min = next(p for p in range(width) if in_support(p))
    p_max = next(p for p in range(width - 1, p_min - 1, -1) if in_support(p))
    if p_min == 0 and p_max == width - 1:
        return InertGate(lo, hi, table)
    new_width = p_max - p_min + 1
    mask = (1 << new_width) - 1
    sub = np.arange(1 << new_width, dtype=np.int64)
    new_table = (table[sub << p_min] >> p_min) & mask
    return InertGate(hi - p_max, hi - p_min, new_table)


@dataclass(frozen=True)
class GroupElement:
    """Normal form shift^n * inert; unique, so == is group equality."""

    shift: int
    inert: InertGate

    @property
    def is_identity(self) -> bool:
        return self.shift == 0 and self.inert.is_identity

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other."""
        inner = self.inert.shift_by(other.shift)
        return GroupElement(self.shift + other.shift, inner.compose(other.inert))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.shift, self.inert.inverse().shift_by(-self.shift))

    def shift_conjugate(self, k: int) -> "GroupElement":
        """Conjugate moving the gate k cells to the right (shift part kept)."""
        return GroupElement(self.shift, self.inert.shift_by(_integer("k", k)))

    def reverse_conjugate(self) -> "GroupElement":
        return GroupElement(-self.shift, self.inert.mirror())

    def to_record(self) -> dict:
        win = self.inert.window
        return {
            "shift_power": self.shift,
            "window_lo": None if win is None else win[0],
            "window_hi": None if win is None else win[1],
            "table": self.inert.table.tolist(),
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "GroupElement":
        """The element of a to_record record, checked: ValueError unless the
        shift power and window are integers and the table a permutation,
        or the window is None at both ends and the table empty."""
        if record["window_lo"] is None:
            if record["window_hi"] is not None or len(record["table"]):
                raise ValueError("an identity record has no window_hi and an empty table")
            inert = identity_gate()
        else:
            inert = canonicalize(
                record["window_lo"], record["window_hi"], record["table"]
            )
        return cls(_integer("shift_power", record["shift_power"]), inert)

    def __hash__(self):
        # doubled for the same reason as InertGate's bounds
        return hash((2 * self.shift, self.inert))

    def __repr__(self):
        if self.is_identity:
            return "GroupElement(identity)"
        return f"GroupElement(shift={self.shift}, inert={self.inert!r})"


IDENTITY = GroupElement(0, _IDENTITY_GATE)


# -- operations on group elements ----------------------------------------


def compose_many(gates: Iterable[GroupElement]) -> GroupElement:
    """Compose a sequence, first element applied last (function order).

    Each element's inert part is translated by the shift applied before
    it, as in GroupElement.compose, and the parts other than the identity
    are composed as one Program rule; a single such part is returned as
    it is.  Past the window cap the parts are composed two at a time, so
    WindowCapError is raised exactly where that raises.
    """
    gates = list(gates)
    return _compose_elements([(id(g), 0) for g in gates], {id(g): g for g in gates})


def _compose_elements(atoms: Sequence[tuple[Hashable, int]], elements: Mapping[Hashable, GroupElement]) -> GroupElement:
    # the product of the atoms (symbol, k), elements[symbol] moved k cells
    # right, in function order, as compose_many's docstring says: the only
    # builder of products.  Each factor is an atom's inert part, its cell
    # moved by the shift applied before it
    try:
        resolved = [elements[sym] for sym, _ in atoms]
    except KeyError as exc:
        raise ValueError(f"unknown generator {exc.args[0]!r}") from None
    shifts = list(itertools.accumulate((e.shift for e in reversed(resolved)), initial=0))
    factors = [(sym, k + s) for (sym, k), e, s in zip(atoms, resolved, shifts[-2::-1]) if not e.inert.is_identity]
    if len(factors) < 2:  # the identity, or a single part as it is
        inert = elements[factors[0][0]].inert.shift_by(factors[0][1]) if factors else _IDENTITY_GATE
        return GroupElement(shifts[-1], inert)
    program = Program({None: tuple(factors)}, [None])
    parts = {(sym, k): elements[sym].inert.shift_by(k) for sym, k in program.uses if sym is not None}
    try:
        lo, hi, (table,) = _program_tables(program, parts)
        inert = _canonical(lo, hi, table)
    except WindowCapError:  # too wide at once: two at a time, in application order
        if len(factors) == 2:
            raise
        inert = _IDENTITY_GATE
        for factor in reversed(factors):
            inert = parts[factor].compose(inert)
    return GroupElement(shifts[-1], inert)


# -- named generators ---------------------------------------------------


def _controlled_not(k: int) -> InertGate:
    # flip cell 0 iff cells 1..k all hold 1; window [0, k]
    _check_width(k + 1)
    if k == 0:
        return _canonical(0, 0, np.array([1, 0], dtype=np.int64))
    size = 1 << (k + 1)
    idx = np.arange(size, dtype=np.int64)
    low = (1 << k) - 1
    return _canonical(0, k, np.where((idx & low) == low, idx ^ (1 << k), idx))


# the two name families with a number: ck<k> and e<rule>
_FAMILY_RE = re.compile(r"(ck|e)(\d+)")


def make_named(name: str) -> GroupElement:
    """Build a generator by name: the one resolver of gate names.

    Known names: identity, sigma (the shift), c0 (flip cell 0),
    c1 (flip cell 0 iff cell 1 is 1), c2 (Toffoli), rc1 (mirrored c1:
    flip cell 0 iff cell -1 is 1), swap (cells 0, 1), ck<k> (flip cell 0
    iff cells 1..k all hold 1) and e<rule> (make_eca(rule)).  Each fixed
    name is built once and the same element returned after; ck<k> and
    e<rule> are built on every call, as whether a ck fits the cap
    depends on k.
    """
    m = _FAMILY_RE.fullmatch(name)
    if m is None:
        return _fixed_named(name)
    k = int(m.group(2))
    return GroupElement(0, _controlled_not(k)) if m.group(1) == "ck" else make_eca(k)


@functools.cache
def _fixed_named(name: str) -> GroupElement:
    if name == "identity":
        return IDENTITY
    if name == "sigma":
        return GroupElement(1, identity_gate())
    if name == "c0":
        return GroupElement(0, _controlled_not(0))
    if name == "c1":
        return GroupElement(0, _controlled_not(1))
    if name == "c2":
        return GroupElement(0, _controlled_not(2))
    if name == "rc1":
        return GroupElement(0, _controlled_not(1)).reverse_conjugate()
    if name == "swap":
        return GroupElement(0, _canonical(0, 1, np.array([0, 2, 1, 3], dtype=np.int64)))
    raise ValueError(f"unknown generator {name!r}")


def make_word_swap(u: str, v: str) -> GroupElement:
    """The involution exchanging the patterns u and v at cells [0, n-1]."""
    word_xor(u, v)  # the one check of a word pair
    if not u:
        raise ValueError("patterns must be nonempty")
    return GroupElement(0, _word_swap(u, v))


def _word_swap(u: str, v: str) -> InertGate:
    # make_word_swap's gate without the check of the words: u and v are
    # nonempty binary words of one length
    if u == v:
        return _IDENTITY_GATE
    n = len(u)
    _check_width(n)
    table = np.arange(1 << n, dtype=np.int64)
    iu, iv = int(u, 2), int(v, 2)
    table[iu], table[iv] = iv, iu
    # a swap of two distinct words depends on every cell, so [0, n - 1]
    # is already the canonical window
    return InertGate(0, n - 1, table)


def make_eca(rule: int) -> GroupElement:
    """One-cell application of the elementary cellular automaton `rule`.

    The centre cell becomes rule bit number (left, centre, right) read as
    a 3-bit number; other cells keep their values.  Raises
    NotInvertibleError unless every (left, right) context induces a
    bijection of the centre cell.
    """
    if not 0 <= _integer("rule", rule) <= 255:
        raise ValueError("rule number must be in [0, 255]")
    for left in (0, 1):
        for right in (0, 1):
            w0 = (left << 2) | right
            w1 = w0 | 2
            if (rule >> w0) & 1 == (rule >> w1) & 1:
                raise NotInvertibleError(rule, (left, right))
    words = np.arange(8, dtype=np.int64)
    centre = (rule >> words) & 1
    return GroupElement(0, _canonical(-1, 1, (words & 0b101) | (centre << 1)))


# -- finite application -------------------------------------------------


def apply(f: GroupElement, x: str, anchor: int = 0) -> str:
    """Image of the cells [anchor, anchor + len(x)) under f.

    x supplies the tape contents on that interval only; any cell the
    computation would need outside it is an error, never defaulted.
    """
    check_word(x)
    anchor = _integer("anchor", anchor)
    g = f.inert
    # output cell i reads cell i + shift of g's image, and a cell of g's
    # window reads the whole window
    cells = set(range(anchor + f.shift, anchor + f.shift + len(x)))
    window = set(range(g.lo, g.hi + 1))  # empty for the identity
    if cells & window:
        cells |= window
    missing = sorted(cells.difference(range(anchor, anchor + len(x))))
    if missing:
        raise ValueError(f"insufficient context: missing cells {missing}")
    # all cells read are x's own, so the shift is 0 unless x is empty
    if not cells & window:
        return x
    a, b = g.lo - anchor, g.hi - anchor + 1
    return x[:a] + format(int(g.table[int(x[a:b], 2)]), f"0{g.width}b") + x[b:]


# -- expressions over named generators ----------------------------------


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:@(-?\d+))?")


@dataclass(frozen=True)
class GateExpr:
    """A word over named generators with per-atom window shifts.

    Atom (name, k) denotes the generator conjugated to sit k cells to the
    right (gate@k).  The first atom of the tuple is applied *last*; use
    leftmost_first=True in evaluate_expr for the chronological reading.
    """

    atoms: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "GateExpr":
        atoms = []
        for token in text.split():
            m = _ATOM_RE.fullmatch(token)
            if not m:
                raise ValueError(f"bad expression atom {token!r}")
            atoms.append((m.group(1), int(m.group(2) or 0)))
        return cls(tuple(atoms))

    @classmethod
    def from_letters(cls, text: str, letters: Mapping[str, tuple[str, int]]) -> "GateExpr":
        """Compact single-letter form, e.g. 'abcab' with a letter table."""
        try:
            return cls(tuple(letters[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"unknown letter {exc.args[0]!r}") from None

    def to_string(self) -> str:
        return " ".join(n if k == 0 else f"{n}@{k}" for n, k in self.atoms)

    def __len__(self):
        return len(self.atoms)


def evaluate_expr(
    expr: GateExpr,
    generators: Mapping[str, GroupElement],
    leftmost_first: bool = False,
) -> GroupElement:
    """Compose the atoms of expr; by default the first atom acts last.

    The product is composed like compose_many's, each atom's gate moved
    to its cell.
    """
    return _compose_elements(expr.atoms[::-1] if leftmost_first else expr.atoms, generators)

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
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .bitcore import check_word

# Hard ceiling for table windows; 24 means a 16M-entry table.  Compose
# checks the projected hull against this before allocating anything.
WINDOW_CAP = 24

# Words of embedded gate tables one product evaluation may keep (8 MiB).
_EMBED_BUDGET = 1 << 20

# Longest flat expression Program.expand builds: 2^20 atoms, some 100 MB
# of atom tuples.  A fixed limit: a longer program can still be evaluated.
MAX_EXPANDED_ATOMS = 1 << 20


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
        # CPython hashes -1 like -2; doubled bounds are never -1, so gates
        # one cell apart, such as c0@-1 and c0@-2, do not collide
        self._hash = hash((2 * lo, 2 * hi, table.tobytes()))

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
        """self after others, the last applied first; see compose_many."""
        gates = [*reversed(others), self]
        # interned by identity, which needs no table compare; equal gates
        # built apart just become two parts
        return _product(gates, _intern(map(id, gates))[0])

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
        return math.lcm(*map(len, table_cycles(self.table)))

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
        return self._hash

    def __repr__(self):
        if self.is_identity:
            return "InertGate(identity)"
        return f"InertGate[{self.lo}..{self.hi}]"


_IDENTITY_GATE = InertGate(0, -1, np.zeros(0, dtype=np.int64))


def identity_gate() -> InertGate:
    return _IDENTITY_GATE


def table_cycles(table: np.ndarray) -> list[list[int]]:
    """Nontrivial cycles of a permutation table, each from its least entry."""
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


def substitute(words: np.ndarray, g: InertGate, hi: int) -> np.ndarray:
    """Apply g to every word of an ambient window whose rightmost cell is hi.

    The window of g must sit inside the ambient window; its bits are
    rewritten through the table and all other bits pass through.
    """
    if g.is_identity:
        return words
    s = hi - g.hi
    mask = (1 << g.width) - 1
    return (words & ~(mask << s)) | (g.table[(words >> s) & mask] << s)


def embed(g: InertGate, lo: int, hi: int) -> np.ndarray:
    """Table of g on [lo, hi], which must contain its window and fit the cap."""
    width = hi - lo + 1
    if width > WINDOW_CAP:
        raise WindowCapError(width, WINDOW_CAP)
    return substitute(np.arange(1 << width, dtype=np.int64), g, hi)


def _intern(items: Iterable) -> tuple[list[int], dict]:
    # each item's number, which is the position of its first occurrence,
    # and the distinct items mapped to their numbers
    first: dict = {}
    return list(map(first.setdefault, items, itertools.count())), first


def _product(parts: list[InertGate], seq: list[int]) -> InertGate:
    # parts[i] for i in seq, in application order: each distinct part is
    # embedded once in the hull of all parts (substituted in place past
    # the budget), the words are gathered through them and canonicalized
    # once.  If the hull is too wide, the product so far is canonicalized
    # before each part that would widen it past the cap, and WindowCapError
    # raised only if that prefix is still too wide with the part
    distinct = dict.fromkeys(seq)  # first-use order
    used = [i for i in distinct if not parts[i].is_identity]
    if len(used) < len(distinct):
        live = set(used)
        seq = [i for i in seq if i in live]
    if len(seq) <= 1:
        return parts[seq[0]] if seq else _IDENTITY_GATE
    lo = min(parts[i].lo for i in used)
    hi = max(parts[i].hi for i in used)
    if hi - lo + 1 > WINDOW_CAP:
        parts = [*parts, _IDENTITY_GATE]  # last slot: the prefix
        start, lo, hi = 0, parts[seq[0]].lo, parts[seq[0]].hi
        for end, i in enumerate(seq):
            g = parts[i]
            if max(hi, g.hi) - min(lo, g.lo) + 1 > WINDOW_CAP:
                prefix = parts[-1] = _product(parts, [-1, *seq[start:end]])
                start, lo, hi = end, g.lo, g.hi
                if not prefix.is_identity:
                    lo, hi = min(prefix.lo, lo), max(prefix.hi, hi)
                    if hi - lo + 1 > WINDOW_CAP:
                        raise WindowCapError(hi - lo + 1, WINDOW_CAP)
            lo, hi = min(lo, g.lo), max(hi, g.hi)
        return _product(parts, [-1, *seq[start:]])
    words = embed(_IDENTITY_GATE, lo, hi)
    tables: list[np.ndarray | None] = [None] * len(parts)
    for i in used[: _EMBED_BUDGET // words.size]:
        tables[i] = embed(parts[i], lo, hi)
    for i in seq:
        table = tables[i]
        words = substitute(words, parts[i], hi) if table is None else table[words]
    return canonicalize(lo, hi, words)


def _compose_indexed(elements: dict[int, "GroupElement"], seq: list[int]) -> "GroupElement":
    # elements[i] for i in seq, in application order; if any element
    # shifts, each inert part is translated by the shift applied before it,
    # as in GroupElement.compose, once per distinct (element, running shift)
    shift, parts = 0, {i: e.inert for i, e in elements.items()}
    if any(e.shift for e in elements.values()):
        shifts = list(itertools.accumulate((elements[i].shift for i in seq), initial=0))
        seq, first = _intern(zip(seq, shifts))
        parts = {j: elements[i].inert.shift_by(k) for (i, k), j in first.items()}
        shift = shifts[-1]
    # every product enters the kernel through InertGate.compose, the one
    # entry point a profiler or tracer needs to wrap
    return GroupElement(shift, _IDENTITY_GATE.compose(*map(parts.__getitem__, reversed(seq))))


class Program:
    """A straight-line program over named generators, read from its start rules.

    rules maps each rule to its factors (symbol, k), in function order like
    GateExpr atoms: the first factor acts last.  A symbol that names a rule
    stands for that rule moved k cells to the right; any other symbol is a
    generator at cell k.  A rule may mention only rules before it, so every
    (rule, cell) that the starts reach can be computed once, in order, and
    the expanded lengths are exact without expanding.  Starts may share
    rules, and then share their computation too.
    """

    def __init__(self, rules: Mapping[Hashable, tuple[tuple[Hashable, int], ...]], starts: Iterable[Hashable]):
        self.rules = rules = dict(rules)  # a copy, which callers cannot change
        self.starts = tuple(starts)
        position = {name: i for i, name in enumerate(rules)}
        # the cells each reachable rule is read at, and the reads of every
        # (symbol, cell) when each (rule, cell) is computed once, plus one
        # final read per start
        self.cells: dict = {}
        self.uses: dict = {}
        for start in self.starts:
            if start not in rules:
                raise ValueError(f"unknown start rule {start!r}")
            self.cells[start] = {0: None}
            self.uses[start, 0] = self.uses.get((start, 0), 0) + 1
        for name in reversed(rules):  # parents before children
            if name not in self.cells:
                continue
            factors = rules[name]
            if not factors:
                raise ValueError(f"rule {name!r} is empty")
            if max(position.get(sym, -1) for sym, _ in factors) >= position[name]:
                raise ValueError(f"rule {name!r} mentions itself or a rule after it")
            for k in self.cells[name]:
                for sym, dk in factors:
                    key = (sym, k + dk)
                    self.uses[key] = self.uses.get(key, 0) + 1
                    if sym in position:
                        self.cells.setdefault(sym, {})[k + dk] = None

    def substitute(self, rules: Mapping[Hashable, tuple[tuple[Hashable, int], ...]]) -> "Program":
        """The same program with some generators defined as rules over others.

        Each use of such a generator becomes a use of its rule, so both
        programs have the same values wherever each rule equals the
        generator it defines.  The new rules go first and mention only
        generators; the walk over the rules already here is reused.
        """
        program = copy.copy(self)
        program.rules = {**rules, **self.rules}
        program.cells = dict(self.cells)
        program.uses = dict(self.uses)
        for name, factors in rules.items():
            if name in self.rules or not factors or any(sym in program.rules for sym, _ in factors):
                raise ValueError(f"rule {name!r} must define a generator over generators")
            cells = program.cells[name] = {k: None for sym, k in self.uses if sym == name}
            for k in cells:
                for sym, dk in factors:
                    program.uses[sym, k + dk] = program.uses.get((sym, k + dk), 0) + 1
        return program

    def lengths(self) -> list[int]:
        """The exact length of each start's expansion."""
        lengths: dict = {}
        for name, factors in self.rules.items():
            if name in self.cells:
                lengths[name] = sum(lengths.get(sym, 1) for sym, _ in factors)
        return [lengths[start] for start in self.starts]

    def expand(self, cancels: Callable[[Hashable], bool] | None = None) -> list["GateExpr"]:
        """Each start's flat expression.

        With cancels given, two adjacent equal atoms of a generator x with
        cancels(x) true are dropped, again and again, as x x = 1 allows for
        an involution; cancels is asked once per generator, at its first
        adjacent pair.  Cancelling within each rule and then where its
        factors meet gives the words that cancelling each whole expansion
        would: cancellation reaches one normal form in any order.  Raises
        ExpansionCapError, before expanding anything, when an expansion
        would be longer than MAX_EXPANDED_ATOMS.
        """
        longest = max(self.lengths())
        if longest > MAX_EXPANDED_ATOMS:
            raise ExpansionCapError(longest, MAX_EXPANDED_ATOMS)
        allowed: dict = {}
        flat: dict = {}
        for name, factors in self.rules.items():
            if name not in self.cells:
                continue
            atoms: list = []
            for sym, k in factors:
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
        once from its factors, which by associativity gives the table of its
        expansion.  A leaf table is made at its first use, and every table is
        freed after its last use, so the live tables are bounded by the width
        of the program, not by its length.
        """
        uses = dict(self.uses)
        memo: dict = {}
        for name, factors in self.rules.items():
            for k in self.cells.get(name, ()):
                acc = None
                for sym, dk in reversed(factors):  # application order
                    key = (sym, k + dk)
                    t = memo.get(key)
                    if t is None:
                        t = memo[key] = leaf(*key)
                    acc = t if acc is None else t[acc]
                    uses[key] -= 1
                    if not uses[key]:
                        del memo[key]
                memo[name, k] = acc
        return [memo[start, 0] for start in self.starts]


def _program_tables(program: Program, generators: Mapping[str, GroupElement]):
    # (lo, hi, each start's table on [lo, hi]), [lo, hi] the hull of all
    # non-identity leaves, or None when every leaf is the identity
    leaves = {}
    for sym, k in program.uses:
        if sym in program.rules:
            continue
        if sym not in generators:
            raise ValueError(f"unknown generator {sym!r}")
        if generators[sym].shift:
            raise ValueError(f"generator {sym!r} is not inert")
        leaves[sym, k] = generators[sym].inert.shift_by(k)
    used = [g for g in leaves.values() if not g.is_identity]
    if not used:
        return None
    lo = min(g.lo for g in used)
    hi = max(g.hi for g in used)
    if hi - lo + 1 > WINDOW_CAP:
        raise WindowCapError(hi - lo + 1, WINDOW_CAP)
    return lo, hi, program.tables(lambda *leaf: embed(leaves[leaf], lo, hi))


def evaluate_program(program: Program, generators: Mapping[str, GroupElement]) -> list[GroupElement]:
    """The value of each start of a straight-line program over inert generators.

    Each distinct (generator, cell) leaf is embedded once in the hull of
    all the leaves, the tables are gathered along the rules (see
    Program.tables) and each start's table is canonicalized once.  Raises
    WindowCapError when that hull is wider than WINDOW_CAP.
    """
    hull = _program_tables(program, generators)
    if hull is None:
        return [IDENTITY for _ in program.starts]
    lo, hi, tables = hull
    return [GroupElement(0, canonicalize(lo, hi, table)) for table in tables]


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
    hull = _program_tables(program, generators)
    if hull is None:
        return [e.is_identity for e in expected]
    lo, hi, tables = hull
    return [
        e.shift == 0
        and (e.inert.is_identity or lo <= e.inert.lo and e.inert.hi <= hi)
        and np.array_equal(table, embed(e.inert, lo, hi))
        for table, e in zip(tables, expected)
    ]


def flip_difference(table: np.ndarray, p: int) -> np.ndarray:
    """table[u] ^ table[u | 1 << p] for every word u with bit p clear, in order of u."""
    pairs = table.reshape(-1, 2, 1 << p)  # images of words without, with bit p
    return (pairs[:, 0] ^ pairs[:, 1]).reshape(-1)


def canonicalize(lo: int, hi: int, table: Iterable[int] | np.ndarray) -> InertGate:
    """Canonical gate for a permutation table on window [lo, hi].

    Shrinks the window to the hull of the strong support: a cell is
    dropped iff the table never changes it and no other output depends
    on it.  Raises for tables that are not permutations.
    """
    table = np.asarray(table, dtype=np.int64)
    width = hi - lo + 1
    if width < 0:
        raise ValueError("empty window: use identity_gate()")
    if width > WINDOW_CAP:
        raise WindowCapError(width, WINDOW_CAP)
    size = 1 << width
    if table.shape != (size,):
        raise ValueError(f"table must have {size} entries for window [{lo}, {hi}]")
    if table.size and (table.min() < 0 or table.max() >= size):
        raise ValueError("not a permutation: entry out of range")
    if np.bincount(table, minlength=size).max(initial=1) != 1:
        raise ValueError("not a permutation: repeated value")

    changed_mask = int(np.bitwise_or.reduce(table ^ np.arange(size), initial=0))

    def in_support(p: int) -> bool:
        bit = 1 << p
        return bool(changed_mask & bit or (flip_difference(table, p) & ~bit).any())

    # only the outermost cells of the support matter: scan in from both ends
    p_min = next((p for p in range(width) if in_support(p)), None)
    if p_min is None:
        return _IDENTITY_GATE
    p_max = next(p for p in range(width - 1, p_min - 1, -1) if in_support(p))
    if p_min == 0 and p_max == width - 1:
        return InertGate(lo, hi, table.copy())  # the caller keeps its array
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
        return GroupElement(self.shift, self.inert.shift_by(k))

    def reverse_conjugate(self) -> "GroupElement":
        return GroupElement(-self.shift, self.inert.mirror())

    def to_record(self) -> dict:
        win = self.inert.window
        return {
            "shift_power": self.shift,
            "window_lo": None if win is None else win[0],
            "window_hi": None if win is None else win[1],
            "table": [int(v) for v in self.inert.table],
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "GroupElement":
        if record["window_lo"] is None:
            inert = identity_gate()
        else:
            inert = canonicalize(
                record["window_lo"], record["window_hi"], record["table"]
            )
        return cls(record["shift_power"], inert)

    def __hash__(self):
        # doubled for the same reason as InertGate's bounds
        return hash((2 * self.shift, self.inert))

    def __repr__(self):
        if self.is_identity:
            return "GroupElement(identity)"
        return f"GroupElement(shift={self.shift}, inert={self.inert!r})"


IDENTITY = GroupElement(0, _IDENTITY_GATE)


# -- operations on group elements ----------------------------------------


def compose(f: GroupElement, g: GroupElement) -> GroupElement:
    """Normal form of f after g; shift powers add."""
    return f.compose(g)


def compose_many(gates: Iterable[GroupElement]) -> GroupElement:
    """Compose a sequence, first element applied last (function order).

    The product is compiled once: each distinct element becomes one part
    (one per running shift if any element shifts), embedded once in the
    hull of all parts; the hull words are gathered through the parts in
    order and canonicalized once.  A part that would widen the running
    hull past WINDOW_CAP first has the product so far canonicalized;
    WindowCapError is raised only if that is still too wide, which is
    exactly when composing two at a time would raise.
    """
    seq, first = _intern(list(gates)[::-1])
    return _compose_indexed({i: g for g, i in first.items()}, seq)


def inverse(f: GroupElement) -> GroupElement:
    return f.inverse()


def shift_conjugate(f: GroupElement, k: int) -> GroupElement:
    return f.shift_conjugate(k)


def reverse_conjugate(f: GroupElement) -> GroupElement:
    return f.reverse_conjugate()


# -- named generators ---------------------------------------------------


def _controlled_not(k: int) -> InertGate:
    # flip cell 0 iff cells 1..k all hold 1; window [0, k]
    if k == 0:
        return canonicalize(0, 0, np.array([1, 0]))
    size = 1 << (k + 1)
    idx = np.arange(size, dtype=np.int64)
    low = (1 << k) - 1
    table = np.where((idx & low) == low, idx ^ (1 << k), idx)
    return canonicalize(0, k, table)


def make_named(name: str, k: int | None = None) -> GroupElement:
    """Build a generator by name.

    Known names: identity, sigma (the shift), c0 (flip cell 0),
    c1 (flip cell 0 iff cell 1 is 1), c2 (Toffoli), ck (needs k),
    rc1 (mirrored c1: flip cell 0 iff cell -1 is 1), swap (cells 0, 1).
    Every name but ck is built once and the same element returned after.
    """
    if name == "ck":
        # not kept: its width, and so whether it fits the cap, depends on k
        if k is None or k < 0:
            raise ValueError("ck needs k >= 0")
        return GroupElement(0, _controlled_not(k))
    return _fixed_named(name)


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
        return GroupElement(0, canonicalize(0, 1, np.array([0, 2, 1, 3])))
    raise ValueError(f"unknown generator {name!r}")


def make_word_swap(u: str, v: str) -> GroupElement:
    """The involution exchanging the patterns u and v at cells [0, n-1]."""
    check_word(u)
    check_word(v)
    if len(u) != len(v):
        raise ValueError(f"unequal lengths: {len(u)} vs {len(v)}")
    if not u:
        raise ValueError("patterns must be nonempty")
    if u == v:
        return IDENTITY
    n = len(u)
    if n > WINDOW_CAP:
        raise WindowCapError(n, WINDOW_CAP)
    table = np.arange(1 << n, dtype=np.int64)
    iu, iv = int(u, 2), int(v, 2)
    table[iu], table[iv] = iv, iu
    # a swap of two distinct words depends on every cell, so [0, n - 1]
    # is already the canonical window
    return GroupElement(0, InertGate(0, n - 1, table))


def make_eca(rule: int) -> GroupElement:
    """One-cell application of the elementary cellular automaton `rule`.

    The centre cell becomes rule bit number (left, centre, right) read as
    a 3-bit number; other cells keep their values.  Raises
    NotInvertibleError unless every (left, right) context induces a
    bijection of the centre cell.
    """
    if not 0 <= rule <= 255:
        raise ValueError("rule number must be in [0, 255]")
    for left in (0, 1):
        for right in (0, 1):
            w0 = (left << 2) | right
            w1 = w0 | 2
            if (rule >> w0) & 1 == (rule >> w1) & 1:
                raise NotInvertibleError(rule, (left, right))
    words = np.arange(8, dtype=np.int64)
    centre = (rule >> words) & 1
    table = (words & 0b101) | (centre << 1)
    return GroupElement(0, canonicalize(-1, 1, table))


def named_or_eca(name: str) -> GroupElement:
    """Resolve 'c0', 'swap', 'ck3', 'e57', ... (CLI-facing)."""
    m = re.fullmatch(r"e(\d+)", name)
    if m:
        return make_eca(int(m.group(1)))
    m = re.fullmatch(r"ck(\d+)", name)
    if m:
        return make_named("ck", int(m.group(1)))
    return make_named(name)


# -- finite application -------------------------------------------------


def apply(f: GroupElement, x: str, anchor: int = 0) -> str:
    """Image of the cells [anchor, anchor + len(x)) under f.

    x supplies the tape contents on that interval only; any cell the
    computation would need outside it is an error, never defaulted.
    """
    check_word(x)
    lo_in, hi_in = anchor, anchor + len(x) - 1
    g, k = f.inert, f.shift
    missing: set[int] = set()
    window_used = False
    for i in range(lo_in, hi_in + 1):
        j = i + k
        if not g.is_identity and g.lo <= j <= g.hi:
            window_used = True
        elif not lo_in <= j <= hi_in:
            missing.add(j)
    if window_used:
        for c in range(g.lo, g.hi + 1):
            if not lo_in <= c <= hi_in:
                missing.add(c)
    if missing:
        raise ValueError(f"insufficient context: missing cells {sorted(missing)}")
    out_win = 0
    if window_used:
        u = int(x[g.lo - anchor : g.hi - anchor + 1], 2)
        out_win = int(g.table[u])
    bits = []
    for i in range(lo_in, hi_in + 1):
        j = i + k
        if window_used and g.lo <= j <= g.hi:
            bits.append(str((out_win >> (g.hi - j)) & 1))
        else:
            bits.append(x[j - lo_in])
    return "".join(bits)


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

    Compiled like compose_many: each distinct atom is resolved once.
    """
    order = expr.atoms if leftmost_first else expr.atoms[::-1]
    seq, first = _intern(order)
    try:
        elements = {i: generators[name].shift_conjugate(k) for (name, k), i in first.items()}
    except KeyError as exc:
        raise ValueError(f"unknown generator {exc.args[0]!r}") from None
    return _compose_indexed(elements, seq)

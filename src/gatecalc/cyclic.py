"""Projection of tape gates onto rings of n binary cells.

A gate whose rule window is narrower than the ring can be applied at
every n-th cell simultaneously; on n-periodic tapes the copies commute,
and reading off one period turns the gate into a permutation of the 2^n
window words.  Two independent implementations are kept side by side:

* project_formula: the gate's tape table on one period (gates.embed, the
  window kernel of products and search too) read through a ring rotation
  that brings the window's first cell to the top bit, so a window across
  the seam needs no branch of its own;
* project_periodic: literal simulation of all 2^n words at once, three
  periods packed in one integer per word, the rule applied at each
  admissible cell in turn.  It is the oracle the formula is validated
  against, so it calls neither embed nor the rotations.

Ring permutations from outside are checked by CyclicPerm(n, perm); those
built here are not, and the two projections are checked against each
other instead, so a projection that is not a permutation fails that.

The module also carries the parity bookkeeping (projected gates are
always even permutations; the ring rotation is even exactly when the
binary necklace count is, i.e. for n >= 3), with cycles counted by
gates.cycle_labels and the counts, by formula and by orbits, checked
against the rotation's parity in one table, and executable forms of the
two locality identities used to transfer tape identities onto rings.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gates import (
    GroupElement,
    InertGate,
    _integer,
    compose_many,
    cycle_labels,
    embed,
    make_named,
    permutation_table,
    table_cycles,
)

# Rings above this need >1M-entry permutations; raise deliberately.
RING_CAP = 20


class RingTooSmallError(ValueError):
    def __init__(self, n: int, min_ring: int):
        super().__init__(f"ring too small: n={n}, gate needs n >= {min_ring}")
        self.n = n
        self.min_ring = min_ring


class CyclicPerm:
    """A permutation of the binary words of length n (MSB-first codes).

    CyclicPerm(n, perm) checks and copies a permutation from outside (see
    gates.permutation_table); projections, compositions and rotations,
    built from permutations, enter through _built unchecked.
    """

    __slots__ = ("n", "perm")

    def __init__(self, n: int, perm: np.ndarray):
        _check_size(n)
        perm = permutation_table(perm, 1 << n)
        perm.setflags(write=False)
        self.n = n
        self.perm = perm

    @classmethod
    def _built(cls, n: int, perm: np.ndarray) -> "CyclicPerm":
        # an int64 permutation of the 2^n words that the library made and
        # no one changes after: kept as it is, without the check
        p = object.__new__(cls)
        perm.setflags(write=False)
        p.n = n
        p.perm = perm
        return p

    @classmethod
    def identity(cls, n: int) -> "CyclicPerm":
        _check_size(n)
        return cls._built(n, np.arange(1 << n, dtype=np.int64))

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "CyclicPerm":
        """Ring shift: cell i of the image reads cell i+k of the source."""
        _check_size(n)
        return cls._built(n, _rotate(np.arange(1 << n, dtype=np.int64), _integer("k", k), n))

    def compose(self, other: "CyclicPerm") -> "CyclicPerm":
        """self after other."""
        if self.n != other.n:
            raise ValueError("ring size mismatch")
        return CyclicPerm._built(self.n, self.perm[other.perm])

    def __mul__(self, other):
        if not isinstance(other, CyclicPerm):
            return NotImplemented
        return self.compose(other)

    def is_even(self) -> bool:
        """Whether 2^n minus the number of cycles is even."""
        cycles = np.count_nonzero(cycle_labels(self.perm) == np.arange(self.perm.size))
        return (self.perm.size - cycles) % 2 == 0

    def cycles(self) -> list[list[int]]:
        """Nontrivial cycles in cycle order, each from its least element."""
        return table_cycles(self.perm)

    def __eq__(self, other):
        if not isinstance(other, CyclicPerm):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash((self.n, self.perm.tobytes()))

    def __repr__(self):
        return f"CyclicPerm(n={self.n})"


def sign(p: CyclicPerm) -> str:
    """Parity of the permutation: 'even' or 'odd' (via its cycle count)."""
    return "even" if p.is_even() else "odd"


def min_ring(f: GroupElement) -> int:
    """Smallest admissible ring size for projecting f (2R + 2)."""
    return 2 * f.inert.radius + 2


def check_ring_size(n: int, low: int = 1, use: str = "") -> None:
    """ValueError unless n is an integer (a bool is not) in [low, RING_CAP];
    use, if given, names what needs the lower bound."""
    if not low <= _integer("ring size", n) <= RING_CAP:
        raise ValueError(f"ring size must be in [{low}, {RING_CAP}]{use and ' for ' + use}, got {n}")


def _check_size(n: int, need: int | None = None) -> None:
    # check_ring_size, but RingTooSmallError below a gate's need
    if need is not None and _integer("ring size", n) < need:
        raise RingTooSmallError(n, need)
    check_ring_size(n)


def _rotate(words: np.ndarray, k: int, n: int) -> np.ndarray:
    # every n-cell word rotated so that cell i of the image reads cell i+k
    k %= n
    if k == 0:
        return words
    return ((words << k) | (words >> (n - k))) & ((1 << n) - 1)


def project_formula(f: GroupElement, n: int) -> CyclicPerm:
    """Ring permutation induced by f: its tape table between two rotations.

    Each word is rotated so that the first window cell is its top bit,
    which puts the whole window inside one period wherever it sits on
    the ring, seam or not.  The gate's tape table on that period maps
    it, and one rotation maps the word back and applies the shift part.
    The ring must fit the padded rule (n >= 2R + 2), whose extra cell
    passes through, so the table of the window alone is the same.
    """
    _check_size(n, min_ring(f))
    return _project_tight(f, n)


def _project_tight(f: GroupElement, n: int) -> CyclicPerm:
    # project_formula defined whenever the window itself fits on the
    # ring, even if the padded rule would not
    g = f.inert
    if g.width > n:
        raise RingTooSmallError(n, g.width)
    a = g.lo % n
    words = embed(g, g.lo, g.lo + n - 1)[_rotate(np.arange(1 << n, dtype=np.int64), a, n)]
    return CyclicPerm._built(n, _rotate(words, f.shift - a, n))


def project_periodic(f: GroupElement, n: int) -> CyclicPerm:
    """Ring permutation via literal periodic simulation (the oracle).

    Packs three periods of every word into one integer per word, cell
    j - n at bit 3n - 1 - j (3n <= 3 * RING_CAP bits fit an int64),
    applies the rule at every admissible cell congruent to the gate
    offset, one cell after another, by a shift and mask to read its
    window and a masked OR to write it back, then reads the middle
    period back and rotates it by the shift part.  It shares no code
    with project_formula.
    """
    _check_size(n, min_ring(f))
    g = f.inert
    # w << 2n | w << n | w, as a product since the periods do not overlap
    buf = np.arange(1 << n, dtype=np.int64) * (1 << 2 * n | 1 << n | 1)
    positions = []
    if not g.is_identity:
        start, table = g.padded_rule()
        radius = g.radius
        window = (1 << 2 * radius + 1) - 1
        q0 = (start + radius) % n
        positions = [
            q
            for q in (q0 - n, q0, q0 + n)
            if -n <= q - radius and q + radius <= 2 * n - 1
        ]
    for q in positions:
        # the window's last cell, q + radius, is bit 2n - 1 - q - radius
        low = 2 * n - 1 - q - radius
        out = table[buf >> low & window]
        out <<= low
        buf &= ~(window << low)
        buf |= out
    k, full = f.shift % n, (1 << n) - 1
    middle = buf >> n & full
    if k:
        middle = (middle << k | middle >> n - k) & full
    return CyclicPerm._built(n, middle)


# -- necklaces and parity ------------------------------------------------


def necklace_count(n: int) -> int:
    """Number of binary words of length n up to rotation, by Burnside's
    lemma: rotation by k fixes the 2^gcd(k, n) words of period gcd(k, n)."""
    if not 1 <= _integer("n", n) <= 64:
        raise ValueError("n must be in [1, 64]")
    return sum(1 << math.gcd(k, n) for k in range(n)) // n


def necklace_count_by_orbits(n: int) -> int:
    """Same count by enumerating rotation orbits (n <= RING_CAP)."""
    if not 1 <= _integer("n", n) <= RING_CAP:
        raise ValueError(f"orbit enumeration supported for n in [1, {RING_CAP}]")
    mask = (1 << n) - 1
    w = np.arange(1 << n, dtype=np.int64)
    least = w.copy()
    for r in range(1, n):
        np.minimum(least, ((w << r) | (w >> (n - r))) & mask, out=least)
    return int((least == w).sum())


class NecklaceRow(NamedTuple):
    n: int
    formula: int
    orbits: int | None  # to RING_CAP
    rotation_sign: str | None  # from n = 2 to RING_CAP
    agrees: bool


def necklace_table(max_n: int) -> Iterator[NecklaceRow]:
    """For n = 1..max_n, the necklace count by formula and by orbits, the
    parity of the ring rotation, and whether the three agree.

    The rotation's cycles are the necklaces, so it is even exactly when
    2^n minus the count is; a column past its range reads None.  max_n
    is checked here, before any row is computed.
    """
    if not 1 <= _integer("max_n", max_n) <= 64:
        raise ValueError(f"max_n must be in [1, 64], got {max_n}")
    return _necklace_rows(max_n)


def _necklace_rows(max_n: int) -> Iterator[NecklaceRow]:
    sigma = make_named("sigma")
    for n in range(1, max_n + 1):
        formula = necklace_count(n)
        orbits = necklace_count_by_orbits(n) if n <= RING_CAP else None
        rotation = sign(project_formula(sigma, n)) if 2 <= n <= RING_CAP else None
        expected = "odd" if ((1 << n) - formula) % 2 else "even"
        yield NecklaceRow(
            n, formula, orbits, rotation, orbits in (None, formula) and rotation in (None, expected)
        )


# -- locality identities -------------------------------------------------


def check_conjugation_identity(g: InertGate, n: int, m: int) -> bool:
    """Projected gate commutes with rotation up to window translation.

    Checks  g_n . rot^m == rot^m . (g shifted by m)_n  on the full ring.
    """
    f = GroupElement(0, g)
    _check_size(n, min_ring(f))
    m = _integer("m", m)
    lhs = project_formula(f, n).compose(CyclicPerm.rotation(n, m))
    rhs = CyclicPerm.rotation(n, m).compose(
        project_formula(f.shift_conjugate(m), n)
    )
    return lhs == rhs


class LocalityOutcome(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


def check_locality_homomorphism(
    fs: Sequence[GroupElement], n: int, h: int
) -> LocalityOutcome:
    """Does projection distribute over this composition?

    Hypothesis: with t the sum of absolute shift powers, every factor's
    padded window, widened by t on both sides, must fit inside
    [h, h + n - 1].  When the hypothesis fails the outcome says so
    instead of guessing.  The hypothesis keeps every window (and the
    window of the composed product) inside one ring period, so the
    tight-window projection is used throughout; it coincides with
    project_formula whenever the latter's precondition holds.
    """
    _check_size(n)
    h = _integer("h", h)
    fs = list(fs)
    if not fs:
        return LocalityOutcome.HOLDS
    t = sum(abs(f.shift) for f in fs)
    for f in fs:
        g = f.inert
        if g.is_identity:
            continue
        radius = g.radius
        centre = g.offset
        if not (h <= centre - t - radius and centre + t + radius <= h + n - 1):
            return LocalityOutcome.HYPOTHESIS_NOT_MET
    lhs = _project_tight(compose_many(fs), n)
    rhs = CyclicPerm.identity(n)
    for f in reversed(fs):
        rhs = _project_tight(f, n).compose(rhs)
    return LocalityOutcome.HOLDS if lhs == rhs else LocalityOutcome.FAILS

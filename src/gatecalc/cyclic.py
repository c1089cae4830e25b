"""Projection of tape gates onto rings of n binary cells.

A gate whose rule window is narrower than the ring can be applied at
every n-th cell simultaneously; on n-periodic tapes the copies commute,
and reading off one period turns the gate into a permutation of the 2^n
window words.  Two independent implementations are kept side by side:

* project_formula: the tape substitution formula (gates.substitute)
  conjugated by a ring rotation that brings the window's first cell to
  the top bit, so a window across the seam needs no branch of its own;
* project_periodic: literal simulation of all 2^n words at once, three
  periods packed in one integer per word, the rule applied at each
  admissible cell in turn.  It is the oracle the formula is validated
  against, so it calls neither the tape substitution nor the rotations.

The module also carries the parity bookkeeping (projected gates are
always even permutations; the ring rotation is even exactly when the
binary necklace count is, i.e. for n >= 3), with cycles counted in
numpy by pointer doubling, and executable forms of the two locality
identities used to transfer tape identities onto rings.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .gates import GroupElement, InertGate, compose_many, substitute, table_cycles

# Rings above this need >1M-entry permutations; raise deliberately.
RING_CAP = 20


class RingTooSmallError(ValueError):
    def __init__(self, n: int, min_ring: int):
        super().__init__(f"ring too small: n={n}, gate needs n >= {min_ring}")
        self.n = n
        self.min_ring = min_ring


class CyclicPerm:
    """A permutation of the binary words of length n (MSB-first codes)."""

    __slots__ = ("n", "perm")

    def __init__(self, n: int, perm: np.ndarray):
        if n < 1 or n > RING_CAP:
            raise ValueError(f"ring size must be in [1, {RING_CAP}]")
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (1 << n,):
            raise ValueError(f"permutation must have {1 << n} entries")
        if perm.min() < 0 or perm.max() >= 1 << n:
            raise ValueError("not a permutation: entry out of range")
        if np.bincount(perm, minlength=1 << n).max() != 1:
            raise ValueError("not a permutation")
        perm.setflags(write=False)
        self.n = n
        self.perm = perm

    @classmethod
    def identity(cls, n: int) -> "CyclicPerm":
        return cls(n, np.arange(1 << n, dtype=np.int64))

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "CyclicPerm":
        """Ring shift: cell i of the image reads cell i+k of the source."""
        return cls(n, _rotate(np.arange(1 << n, dtype=np.int64), k, n))

    def compose(self, other: "CyclicPerm") -> "CyclicPerm":
        """self after other."""
        if self.n != other.n:
            raise ValueError("ring size mismatch")
        return CyclicPerm(self.n, self.perm[other.perm])

    def __mul__(self, other):
        if not isinstance(other, CyclicPerm):
            return NotImplemented
        return self.compose(other)

    def is_even(self) -> bool:
        return _is_even_table(self.perm)

    def cycles(self) -> list[list[int]]:
        """Nontrivial cycles, each starting at its least element."""
        return table_cycles(self.perm)

    def __eq__(self, other):
        if not isinstance(other, CyclicPerm):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash((self.n, self.perm.tobytes()))

    def __repr__(self):
        return f"CyclicPerm(n={self.n})"


def _is_even_table(table: np.ndarray) -> bool:
    # (N - number of cycles) is even.  Cycles are counted by pointer
    # doubling: after k rounds each point is labelled with the least of
    # the 2^k points from it along its cycle, so after ceil(log2 N)
    # rounds with the least point of its cycle, and exactly one point
    # of each cycle is its own label
    points = np.arange(table.size)
    label, step = points, table
    for _ in range((table.size - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    cycles = np.count_nonzero(label == points)
    return (table.size - cycles) % 2 == 0


def sign(p: CyclicPerm) -> str:
    """Parity of the permutation: 'even' or 'odd' (via its cycle count)."""
    return "even" if p.is_even() else "odd"


def min_ring(f: GroupElement) -> int:
    """Smallest admissible ring size for projecting f (2R + 2)."""
    return 2 * f.inert.radius + 2


def _check_ring(f: GroupElement, n: int) -> None:
    need = min_ring(f)
    if n < need:
        raise RingTooSmallError(n, need)
    if n < 1 or n > RING_CAP:
        raise ValueError(f"ring size must be in [1, {RING_CAP}]")


def _rotate(words: np.ndarray, k: int, n: int) -> np.ndarray:
    # every n-cell word rotated so that cell i of the image reads cell i+k
    k %= n
    if k == 0:
        return words
    return ((words << k) | (words >> (n - k))) & ((1 << n) - 1)


def project_formula(f: GroupElement, n: int) -> CyclicPerm:
    """Ring permutation induced by f, by the tape substitution formula.

    Each word is rotated so that the first window cell is its top bit,
    which puts the whole window inside one period wherever it sits on
    the ring, seam or not.  The gate is then substituted as on the tape,
    and one rotation maps the word back and applies the shift part.  The
    ring must fit the padded rule (n >= 2R + 2), whose extra cell passes
    through, so substituting the window alone is the same.
    """
    _check_ring(f, n)
    return _project_tight(f, n)


def _project_tight(f: GroupElement, n: int) -> CyclicPerm:
    # project_formula defined whenever the window itself fits on the
    # ring, even if the padded rule would not
    g = f.inert
    if g.width > n:
        raise RingTooSmallError(n, g.width)
    a = g.lo % n
    words = _rotate(np.arange(1 << n, dtype=np.int64), a, n)
    words = substitute(words, g, g.lo + n - 1)
    return CyclicPerm(n, _rotate(words, f.shift - a, n))


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
    _check_ring(f, n)
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
    return CyclicPerm(n, middle)


# -- necklaces and parity ------------------------------------------------


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def necklace_count(n: int) -> int:
    """Number of binary words of length n up to rotation (formula)."""
    if not 1 <= n <= 64:
        raise ValueError("n must be in [1, 64]")
    total = sum(euler_phi(d) * (1 << (n // d)) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def necklace_count_by_orbits(n: int) -> int:
    """Same count by enumerating rotation orbits (n <= RING_CAP)."""
    if not 1 <= n <= RING_CAP:
        raise ValueError(f"orbit enumeration supported for n in [1, {RING_CAP}]")
    mask = (1 << n) - 1
    w = np.arange(1 << n, dtype=np.int64)
    least = w.copy()
    for r in range(1, n):
        np.minimum(least, ((w << r) | (w >> (n - r))) & mask, out=least)
    return int((least == w).sum())


# -- locality identities -------------------------------------------------


def check_conjugation_identity(g: InertGate, n: int, m: int) -> bool:
    """Projected gate commutes with rotation up to window translation.

    Checks  g_n . rot^m == rot^m . (g shifted by m)_n  on the full ring.
    """
    f = GroupElement(0, g)
    _check_ring(f, n)
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

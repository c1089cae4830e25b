"""Finite binary words and GF(2) polynomial divisibility.

Words are ASCII strings over '0'/'1', 0-indexed, and the character at
index 0 is the MOST significant bit of the integer encoding.  This one
convention is used everywhere: rule tables, ring permutations and the
serialized records all index words the same way, so there is exactly one
place where a mirror-image bug could be introduced (here), and it is
pinned by tests.

Binary polynomials are kept bit-packed in a plain int, bit i holding the
coefficient of x^i, together with a Laurent offset (the exponent of the
lowest recorded term).  Divisibility deliberately ignores the offset:
the intended use is membership of a finite-support vector in the span of
all shifts of another vector, and that span is shift-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

# Words longer than this have no integer fast path and are not needed;
# every object handled by the library fits in windows of width <= 24.
MAX_WORD_LEN = 64


def check_word(w: str) -> str:
    """Validate a binary word and return it unchanged."""
    if not isinstance(w, str):
        raise TypeError(f"binary word expected, got {type(w).__name__}")
    if len(w) > MAX_WORD_LEN:
        raise ValueError(f"word longer than {MAX_WORD_LEN} unsupported")
    if w.strip("01"):
        raise ValueError(f"word must consist of '0'/'1' only: {w!r}")
    return w


def word_to_int(w: str) -> int:
    """Integer encoding of a word, index 0 as the most significant bit."""
    check_word(w)
    return int(w, 2) if w else 0


def int_to_word(value: int, length: int) -> str:
    """Inverse of word_to_int for the given length."""
    if length < 0 or length > MAX_WORD_LEN:
        raise ValueError(f"length must be in [0, {MAX_WORD_LEN}]")
    if not 0 <= value < (1 << length):
        raise ValueError(f"{value} out of range for a word of length {length}")
    return format(value, f"0{length}b") if length else ""


def diff_set(u: str, v: str) -> str:
    """Characteristic word of the coordinates where u and v differ."""
    check_word(u)
    check_word(v)
    if len(u) != len(v):
        raise ValueError(f"unequal lengths: {len(u)} vs {len(v)}")
    # checked above: int() rather than word_to_int, which would check again
    return int_to_word(int(u, 2) ^ int(v, 2), len(u)) if u else ""


@dataclass(frozen=True)
class Gf2Poly:
    """Binary polynomial with a Laurent offset.

    Normalized so that either coeffs == 0 (the zero polynomial, offset 0)
    or bit 0 of coeffs is set, with the offset recording the exponent of
    that lowest term.  Instantiate via from_word() or normalize().
    """

    coeffs: int
    offset: int = 0

    @staticmethod
    def normalize(coeffs: int, offset: int = 0) -> "Gf2Poly":
        if coeffs < 0:
            raise ValueError("negative coefficient mask")
        if coeffs == 0:
            return Gf2Poly(0, 0)
        shift = (coeffs & -coeffs).bit_length() - 1
        return Gf2Poly(coeffs >> shift, offset + shift)

    @classmethod
    def from_word(cls, w: str, offset: int = 0) -> "Gf2Poly":
        """Word index i contributes the term x^(offset + i)."""
        check_word(w)
        return cls.normalize(int(w[::-1], 2) if w else 0, offset)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == 0

    @property
    def degree(self) -> int:
        """Degree of the packed part (offset ignored); -1 for zero."""
        return self.coeffs.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    # remainder of a modulo b over GF(2), b != 0
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_divides(divisor: Gf2Poly | str, dividend: Gf2Poly | str) -> bool:
    """True iff dividend is a GF(2)[x] multiple of divisor, offsets ignored.

    Equivalently: the finite-support vector encoded by the dividend lies
    in the span of all shifts of the divisor vector.
    """
    if isinstance(divisor, str):
        divisor = Gf2Poly.from_word(divisor)
    if isinstance(dividend, str):
        dividend = Gf2Poly.from_word(dividend)
    if divisor.is_zero:
        raise ValueError("zero divisor")
    if dividend.is_zero:
        return True
    return _poly_mod(dividend.coeffs, divisor.coeffs) == 0


def shift_span_contains(w: str, s: str) -> bool:
    """Brute-force check that s is a sum of shifts of w.

    Independent oracle for gf2_divides: enumerates every GF(2) combination
    of the placements of w inside a window wide enough to cover s.  Only
    intended for short words.
    """
    check_word(w)
    check_word(s)
    pw = Gf2Poly.from_word(w)
    ps = Gf2Poly.from_word(s)
    if pw.is_zero:
        raise ValueError("zero divisor")
    if ps.is_zero:
        return True
    positions = ps.degree - pw.degree + 1
    if positions <= 0:
        return False
    if positions > 20:
        raise ValueError("window too wide for brute force")
    for combo in range(1 << positions):
        acc = 0
        for i in range(positions):
            if combo >> i & 1:
                acc ^= pw.coeffs << i
        if acc == ps.coeffs:
            return True
    return False

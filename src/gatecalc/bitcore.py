"""Finite binary words and GF(2) polynomial divisibility.

Words are ASCII strings over '0'/'1', 0-indexed, and the character at
index 0 is the MOST significant bit of the integer encoding.  This one
convention is used everywhere: rule tables, ring permutations and the
serialized records all index words the same way, so there is exactly one
place where a mirror-image bug could be introduced (here), and it is
pinned by tests.

Binary polynomials are plain ints, bit i holding the coefficient of x^i;
a word given instead reads index i as x^i.  Divisibility drops factors
of x from both operands: the intended use is membership of a
finite-support vector in the span of all shifts of another vector, and
that span is shift-invariant.
"""

from __future__ import annotations

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


def word_xor(u: str, v: str) -> int:
    """Integer encoding of the coordinates where equal-length words u and v differ.

    The one check of a word pair (each word as check_word, then equal
    lengths): make_word_swap, classify_swap and diff_set call it.
    """
    check_word(u)
    check_word(v)
    if len(u) != len(v):
        raise ValueError(f"unequal lengths: {len(u)} vs {len(v)}")
    # checked above: int() rather than word_to_int, which would check again
    return int(u, 2) ^ int(v, 2) if u else 0


def diff_set(u: str, v: str) -> str:
    """Characteristic word of the coordinates where u and v differ."""
    return int_to_word(word_xor(u, v), len(u))


def _poly(x: str | int) -> int:
    # the packed polynomial of a word (index i is x^i) or of an int mask
    # (bit i is x^i), divided by the highest power of x that divides it
    if isinstance(x, str):
        check_word(x)
        x = int(x[::-1], 2) if x else 0
    elif x < 0:
        raise ValueError("negative coefficient mask")
    return x >> (x & -x).bit_length() - 1 if x else 0


def gf2_divides(divisor: str | int, dividend: str | int) -> bool:
    """True iff dividend is a GF(2)[x] multiple of divisor, up to powers of x.

    Each operand is a word or a non-negative int mask (see _poly).
    Equivalently: the finite-support vector encoded by the dividend lies
    in the span of all shifts of the divisor vector.
    """
    d, s = _poly(divisor), _poly(dividend)
    if not d:
        raise ValueError("zero divisor")
    db = d.bit_length()
    while s.bit_length() >= db:
        s ^= d << s.bit_length() - db
    return not s


def shift_span_contains(w: str | int, s: str | int) -> bool:
    """Brute-force check that s is a sum of shifts of w.

    Independent oracle for gf2_divides, with operands as there:
    enumerates every GF(2) combination of the placements of w inside a
    window wide enough to cover s.  Only intended for short words.
    """
    pw, ps = _poly(w), _poly(s)
    if not pw:
        raise ValueError("zero divisor")
    positions = ps.bit_length() - pw.bit_length() + 1
    if not ps:
        return True
    if positions <= 0:
        return False
    if positions > 20:
        raise ValueError("window too wide for brute force")
    for combo in range(1 << positions):
        acc = 0
        for i in range(positions):
            if combo >> i & 1:
                acc ^= pw << i
        if acc == ps:
            return True
    return False

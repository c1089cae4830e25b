import pytest

from gatecalc import bitcore
from gatecalc.bitcore import (
    diff_set,
    gf2_divides,
    int_to_word,
    shift_span_contains,
    word_to_int,
)


def test_diff_set_examples():
    assert diff_set("011", "111") == "100"
    assert diff_set("001", "011") == "010"
    assert diff_set("0110", "0110") == "0000"


def test_diff_set_symmetric_and_xor():
    for u, v in [("0101", "0011"), ("111", "000"), ("10", "10")]:
        assert diff_set(u, v) == diff_set(v, u)
        assert word_to_int(diff_set(u, v)) == word_to_int(u) ^ word_to_int(v)


def test_diff_set_length_mismatch():
    with pytest.raises(ValueError, match="unequal lengths"):
        diff_set("01", "011")


def test_diff_set_checks_each_word_once(monkeypatch):
    checked = []
    check = bitcore.check_word
    monkeypatch.setattr(bitcore, "check_word", lambda w: checked.append(w) or check(w))
    assert diff_set("0101", "0110") == "0011"
    assert diff_set("", "") == ""
    assert checked == ["0101", "0110", "", ""]
    for u, v in [("01", "0x"), ("012", "010"), (" 1", "01"), ("0_1", "011")]:
        with pytest.raises(ValueError):
            diff_set(u, v)


def test_word_int_roundtrip():
    assert word_to_int("110") == 6
    assert int_to_word(5, 3) == "101"
    assert int_to_word(0, 0) == ""
    for length in (1, 2, 7, 12):
        for k in range(1 << length):
            assert word_to_int(int_to_word(k, length)) == k
    # sampled for the longest supported fast-path lengths
    for k in (0, 1, 12345, 65535):
        assert word_to_int(int_to_word(k, 16)) == k


def test_word_int_range_errors():
    with pytest.raises(ValueError):
        int_to_word(8, 3)
    with pytest.raises(ValueError):
        word_to_int("012")
    with pytest.raises(ValueError):
        word_to_int("0" * 65)


def test_gf2_divides_examples():
    # (x^2+1)^2 = x^4+1 over GF(2)
    assert gf2_divides("101", "10001") is True
    # x^2+1 = (x+1)^2, so x+1 does divide it
    assert gf2_divides("11", "101") is True
    # x^2+x+1 does not divide x^2+1 (remainder x)
    assert gf2_divides("111", "101") is False
    assert gf2_divides("1011", "0000") is True  # zero is in every span


def test_gf2_divides_zero_divisor():
    with pytest.raises(ValueError, match="zero divisor"):
        gf2_divides("000", "101")


def test_gf2_divides_matches_brute_force():
    # exhaustive against the shift-span enumeration oracle
    words = [int_to_word(k, L) for L in range(1, 6) for k in range(1, 1 << L)]
    targets = [int_to_word(k, L) for L in range(1, 8) for k in range(1 << L)]
    for w in words:
        for s in targets:
            assert gf2_divides(w, s) == shift_span_contains(w, s), (w, s)


def test_gf2_divides_reads_int_masks():
    # an int mask holds x^i at bit i; a word reads index i as x^i
    assert gf2_divides(0b11, 0b101) and gf2_divides("11", 0b101) and gf2_divides(0b11, "101")
    assert not gf2_divides(0b111, 0b101)
    assert gf2_divides(0b1011, 0) and gf2_divides("0110", 0b11)
    # factors of x are dropped from both operands
    for i in range(4):
        for j in range(4):
            assert gf2_divides(0b101 << i, 0b10001 << j)
            assert gf2_divides(0b11 << i, 0b110 << j)
            assert not gf2_divides(0b111 << i, 0b101 << j)
            assert shift_span_contains(0b101 << i, 0b10001 << j)
            assert not shift_span_contains(0b111 << i, 0b101 << j)
    for refused in (lambda: gf2_divides(-1, 1), lambda: gf2_divides(1, -1), lambda: shift_span_contains(-3, 1)):
        with pytest.raises(ValueError, match="negative coefficient mask"):
            refused()
    with pytest.raises(ValueError, match="zero divisor"):
        gf2_divides(0, 1)
    for a in range(1, 32):
        for b in range(128):
            assert gf2_divides(a, b) == shift_span_contains(a, b), (a, b)

import tracemalloc

import numpy as np
import pytest

from gatecalc import cyclic as C
from gatecalc import grammar as GR
from gatecalc import gates as G
from gatecalc.analysis import RULE57_FLIP_PROGRAM


def test_expansions_match_goldens():
    for start in GR.START_SYMBOLS:
        assert GR.expand(start) == GR.golden_string(start)


def test_golden_checksums():
    assert GR.golden_checksums_ok()


def test_expansion_lengths():
    assert {s: len(GR.expand(s)) for s in GR.START_SYMBOLS} == {
        "N3": 50, "C3": 202, "T3": 1563, "D3": 302, "S3": 706
    }


def test_flip_gate_strings_are_translated_flip_program():
    # the digit strings are the 50-step flip program moved to cells i-1..i+1
    for name, base in (("N2", "123"), ("N3", "234"), ("N4", "345"), ("N5", "456")):
        translated = RULE57_FLIP_PROGRAM.translate(str.maketrans("abc", base))
        assert "".join(GR.PRODUCTIONS[name]) == translated


def test_grammar_rejects_cycles_forward_references_and_unknown_symbols():
    assert set(GR.build_programs(GR.PRODUCTIONS)) == set(GR.PRODUCTIONS)
    later = "mentions itself or a rule after it"
    for grammar, message in (
        ({"A": ("1", "B"), "B": ("A", "2")}, later),  # a cycle
        ({"A": ("1", "A")}, later),  # a rule that derives itself
        ({"A": ("1", "B"), "B": ("2", "3")}, later),  # a forward reference
        ({"A": ("1", "2"), "B": ("A", "Q")}, "unknown symbol 'Q'"),
        ({"A": ("1", "7")}, "unknown symbol '7'"),
    ):
        with pytest.raises(ValueError, match=message):
            GR.build_programs(grammar)


def test_programs_evaluate_like_the_flat_fold():
    # the flat fold of the expansion is the reference for both readings
    gens = {"e57": G.make_eca(57)}
    letters = {d: ("e57", int(d)) for d in "123456"}
    for start in GR.PRODUCTIONS:
        expr = G.GateExpr.from_letters(GR.expand(start), letters)
        chrono = G.evaluate_program(GR._PROGRAMS[start], gens)[0]
        reverse = G.evaluate_program(GR._REVERSED[start], gens)[0]
        assert chrono == G.evaluate_expr(expr, gens, leftmost_first=True), start
        assert reverse == G.evaluate_expr(expr, gens), start
        # every symbol here is an involution, so the values cannot tell the
        # readings apart; the reversed reading reverses every factor tuple
        rules = GR._PROGRAMS[start].rules
        assert GR._REVERSED[start].rules == {k: f[::-1] for k, f in rules.items()}


def test_unknown_start():
    with pytest.raises(ValueError):
        GR.expand("Q7")
    with pytest.raises(ValueError):
        GR.golden_string("N2")


def test_helper_symbol_composition():
    # E3 is "apply at 3, then flip at 3": chronologically the digit first
    assert GR.expand("E3") == "3" + GR.expand("N3")
    assert GR.expand("E4") == "4" + GR.expand("N4")


def test_helper_symbol_evaluates_to_composition():
    # evaluate(E4) equals flip-at-4 composed after gate-at-4
    gens = {"e57": G.make_eca(57)}
    gates_of = lambda s: [
        G.make_eca(57).shift_conjugate(int(ch)) for ch in GR.expand(s)
    ]
    e4 = G.compose_many(reversed(gates_of("E4")))
    n4 = G.compose_many(reversed(gates_of("N4")))
    term4 = G.make_eca(57).shift_conjugate(4)
    assert e4 == n4.compose(term4)


def test_tape_semantics_all_starts():
    anchors = set()
    for start in GR.START_SYMBOLS:
        target = G.make_named(GR.STANDARD_TARGETS[start])
        report = GR.verify_semantics(start, target)
        assert report.passed, start
        assert report.reading_agreement
        anchors.add(report.anchor)
    assert len(anchors) == 1
    assert GR.measure_anchor() == anchors.pop()


def test_semantics_fails_for_wrong_target():
    report = GR.verify_semantics("N3", G.make_named("c2"))
    assert not report.passed and report.anchor is None


def test_ring_spot_checks():
    anchor = GR.measure_anchor()
    assert GR.verify_on_ring("T3", G.make_named("c2"), 8, anchor)
    assert GR.verify_on_ring("N3", G.make_named("c0"), 12, anchor)
    for start in GR.START_SYMBOLS:
        target = G.make_named(GR.STANDARD_TARGETS[start])
        assert GR.verify_on_ring(start, target, 4, anchor)
    with pytest.raises(ValueError):
        GR.verify_on_ring("N3", G.make_named("c0"), 3, anchor)


def test_ring_detects_wrong_target():
    anchor = GR.measure_anchor()
    assert not GR.verify_on_ring("N3", G.make_named("c1"), 6, anchor)


def test_ring_check_compares_every_cell():
    # the flip at cell 3 together with a flip at any other cell differs
    # from N3's ring permutation in that cell's plane alone
    at = lambda k: G.shift_conjugate(G.make_named("c0"), k)
    for n in (6, 8, 10):
        assert GR.verify_on_ring("N3", at(3), n, 0)
        for k in set(range(n)) - {3}:
            assert not GR.verify_on_ring("N3", G.compose_many([at(3), at(k)]), n, 0), (n, k)


def letter_fold(string, n):
    # the ring permutation of a digit string, leftmost letter acting first
    e57 = G.make_eca(57)
    cells = {ch: C.project_formula(e57.shift_conjugate(int(ch)), n).perm for ch in set(string)}
    acc = np.arange(1 << n)
    for ch in string:
        acc = cells[ch][acc]
    return acc


def table_of(planes, n):
    # entry w gathers bit w of every plane, cell 0 the top bit: the inverse
    # of the bit-slicing, by unpacking rather than packing
    table = np.zeros(1 << n, dtype=np.int64)
    for plane in planes:
        raw = np.frombuffer(plane.to_bytes(max(1, 1 << n >> 3), "little"), np.uint8)
        table = table << 1 | np.unpackbits(raw, bitorder="little")[: 1 << n]
    return table


def test_plane_update_is_rule_57_on_every_neighbourhood():
    # on three cells, one letter at the middle cell meets each (left,
    # centre, right) once, with the left cell the top bit as on the tape
    e57 = G.make_eca(57)
    assert np.array_equal(table_of(GR._ring_planes("1", 3), 3), G.embed(e57.inert, -1, 1))


def test_each_letter_is_the_projected_rule_57_update():
    # cells 0 and n - 1 read across the seam, and 6 wraps on rings below 7
    e57 = G.make_eca(57)
    for n in range(4, 11):
        for k in range(7):
            expected = C.project_formula(e57.shift_conjugate(k), n).perm
            assert np.array_equal(table_of(GR._ring_planes(str(k), n), n), expected), (n, k)


@pytest.mark.parametrize("n", range(4, C.RING_CAP + 1))
def test_planes_of_a_table_are_its_bit_slices(n):
    # the target's planes are the bit slices of its projected table: the
    # five targets at the anchor, the identity and the shift on every
    # ring, and up to n = 12 seeded random gates whose windows start on
    # either side of the seam, some periods away, with nonzero shift parts
    anchor = GR.measure_anchor()
    elements = [G.shift_conjugate(G.make_named(t), anchor) for t in GR.STANDARD_TARGETS.values()]
    elements += [G.IDENTITY, G.make_named("sigma")]
    rng = np.random.default_rng(n)
    for width in range(1, 6) if n <= 12 else ():
        for lo in range(n - width, n + 1):  # ends at the seam, straddles it, starts there
            lo += n * int(rng.integers(-3, 3))
            gate = G.canonicalize(lo, lo + width - 1, rng.permutation(1 << width))
            shift = int(rng.integers(1, n)) * int(rng.choice([-1, 1]))
            elements.append(G.GroupElement(shift, gate))
    for f in (f for f in elements if C.min_ring(f) <= n):
        planes = GR._target_planes(f, n)
        assert len(planes) == n
        assert np.array_equal(table_of(planes, n), C.project_formula(f, n).perm), (f, n)
    assert GR._target_planes(G.IDENTITY, n) == GR._ring_planes("", n)


def test_target_planes_refuse_a_ring_below_min_ring(monkeypatch):
    # project_formula's precondition, checked before any plane is built
    def forbidden(*args, **kwargs):
        raise AssertionError("built planes below the target's min_ring")

    monkeypatch.setattr(GR, "_identity_planes", forbidden)
    f = G.GroupElement(0, G.canonicalize(0, 4, np.random.default_rng(5).permutation(32)))
    assert f.inert.width == 5 and C.min_ring(f) == 6
    for n in (1, 4, 5):
        with pytest.raises(C.RingTooSmallError, match="gate needs n >= 6"):
            GR._target_planes(f, n)
    with pytest.raises(C.RingTooSmallError):
        GR.verify_on_ring("N3", f, 5, 0)


@pytest.mark.parametrize("n", [21, 30, 8.0])
def test_ring_check_refuses_the_ring_size_before_building_planes(n, monkeypatch):
    # a float or a ring past RING_CAP is refused before anything of 2^n
    # bits is built: at n = 30, 2^30-bit planes
    def forbidden(*args, **kwargs):
        raise AssertionError("built planes before the ring size was checked")

    monkeypatch.setattr(GR, "_ring_planes", forbidden)
    monkeypatch.setattr(GR, "_target_planes", forbidden)
    with pytest.raises(ValueError, match="ring size"):
        GR.verify_on_ring("N3", G.make_named("c0"), n, 3)


def test_ring_program_equals_letter_by_letter_fold():
    for n in range(4, 17):
        for start in GR.START_SYMBOLS:
            acc = letter_fold(GR.expand(start), n)
            assert np.array_equal(table_of(GR._ring_planes(GR.expand(start), n), n), acc)


def test_ring_program_keeps_the_order_of_factors():
    # every symbol of the built-in grammar is an involution, so reading its
    # rules in the wrong order goes unseen there; these symbols are not
    grammar = {"A": ("1", "2"), "B": ("A", "3", "A", "4"), "C": ("B", "5", "A")}
    programs = GR.build_programs(grammar)
    strings = {"A": "12", "B": "412312", "C": "125412312"}
    e57 = G.make_eca(57)
    value = lambda string: G.compose_many(e57.shift_conjugate(int(ch)) for ch in reversed(string))
    for start, string in strings.items():
        tape = G.evaluate_program(programs[start], {"e57": e57})[0]
        assert tape == value(string), start
        assert tape != value(string[::-1]), start
        for n in (5, 8):
            acc = letter_fold(string, n)
            assert np.array_equal(table_of(GR._ring_planes(string, n), n), acc), (start, n)
            assert not np.array_equal(letter_fold(string[::-1], n), acc)


def test_ring_check_frees_its_permutations():
    anchor = GR.measure_anchor()
    target = G.make_named("c2")
    perm_bytes = (1 << 16) * np.dtype(np.int64).itemsize
    assert GR.verify_on_ring("T3", target, 16, anchor)  # warm every cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert GR.verify_on_ring("T3", target, 16, anchor)
        left, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # no 2^n-entry table at all: the program's 16 planes and the
    # target's are a quarter of a permutation each (0.59 measured)
    assert peak <= 0.75 * perm_bytes, peak / perm_bytes
    # anything a reference cycle kept alive would still be here
    assert left < perm_bytes, left / perm_bytes


def test_ring_check_peak_does_not_depend_on_the_listed_order():
    # Program.tables over ring permutations, the tape kernel with a ring
    # leaf: the four digit rules first is a valid listing too, and the
    # rules are computed depth-first from the start whatever the listing
    digits_first = dict(
        sorted(GR.PRODUCTIONS.items(), key=lambda rule: not GR.DIGITS.issuperset(rule[1]))
    )
    perm_bytes = (1 << 16) * np.dtype(np.int64).itemsize
    e57 = G.make_eca(57)
    leaf = lambda _, k: C.project_formula(G.shift_conjugate(e57, k), 16).perm
    fold = letter_fold(GR.expand("T3"), 16)
    peaks = []
    for productions in (GR.PRODUCTIONS, digits_first):
        program = GR.build_programs(productions)["T3"]
        assert np.array_equal(program.tables(leaf)[0], fold)  # and warms every cache
        tracemalloc.start()
        try:
            program.tables(leaf)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the letter-by-letter fold peaked at 11 permutations; the rules,
    # computed in depth-first order, hold 9 at once
    assert peaks[0] <= 10.5 * perm_bytes, peaks[0] / perm_bytes
    assert peaks[1] <= peaks[0] + perm_bytes // 2, [peak / perm_bytes for peak in peaks]


def test_adjacent_repeat_report():
    rep = GR.adjacent_repeat_report("T3")
    assert rep["length"] == 1563
    assert rep["adjacent_pairs"] == 2
    assert rep["cascading_removable"] == 8
    assert GR.adjacent_repeat_report("N3")["adjacent_pairs"] == 0

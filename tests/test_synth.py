import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import analysis, bitcore
from gatecalc import gates as G
from gatecalc import synth as S
from gatecalc.analysis import SwapVerdict, classify_swap
from gatecalc.bitcore import diff_set, int_to_word


def generators(u, v):
    return {"c0": G.make_named("c0"), "fuv": G.make_word_swap(u, v)}


def evaluate(expr, u, v):
    return G.evaluate_expr(expr, generators(u, v))


def pair_program(u, v):
    # the pair's program written out: P_d after the definition of f
    program_d = S._program_d(diff_set(u, v))
    return G.Program({**S._conjugations(u), **program_d.rules}, program_d.starts)


def universal_pairs(n):
    for iu in range(1 << n):
        for iv in range(1 << n):
            u, v = int_to_word(iu, n), int_to_word(iv, n)
            if classify_swap(u, v, verify=False).verdict is SwapVerdict.UNIVERSAL:
                yield u, v


@functools.cache
def programs_to_length_6():
    # (u, v, programs) for every universal pair of length 3..6, in (n, iu, iv) order
    return [(u, v, S.synthesize_nct(u, v)) for n in range(3, 7) for u, v in universal_pairs(n)]


def test_eliminate_bit_left_example():
    expr = S.eliminate_bit("0010", "left")
    gens = {"c0": G.make_named("c0"), "f": G.make_word_swap("0000", "0010")}
    assert G.evaluate_expr(expr, gens) == G.make_word_swap("000", "010")


def test_eliminate_bit_right_example():
    expr = S.eliminate_bit("0100", "right")
    gens = {"c0": G.make_named("c0"), "f": G.make_word_swap("0000", "0100")}
    assert G.evaluate_expr(expr, gens) == G.make_word_swap("000", "010")


def test_eliminate_bit_errors():
    with pytest.raises(ValueError, match="too short"):
        S.eliminate_bit("0", "left")
    with pytest.raises(ValueError, match="border bit"):
        S.eliminate_bit("10", "left")
    with pytest.raises(ValueError, match="border bit"):
        S.eliminate_bit("01", "right")
    with pytest.raises(ValueError, match="side"):
        S.eliminate_bit("00", "up")


def test_synthesize_basic_pair():
    programs = S.synthesize_nct("001", "011")
    assert set(programs) == {"c1", "rc1", "s", "c2"}
    targets = {"c1": "c1", "rc1": "rc1", "s": "swap", "c2": "c2"}
    for name, expr in programs.items():
        assert evaluate(expr, "001", "011") == G.make_named(targets[name])


def test_synthesize_handles_nonzero_first_pattern():
    programs = S.synthesize_nct("0100", "0000")
    for name, expr in programs.items():
        got = evaluate(expr, "0100", "0000")
        assert got == G.make_named({"s": "swap"}.get(name, name))


def test_synthesize_rejects_non_universal():
    with pytest.raises(S.NotUniversalError) as err:
        S.synthesize_nct("011", "111")
    assert err.value.verdict.verdict is SwapVerdict.LEFT_ONE_SIDED
    with pytest.raises(S.NotUniversalError):
        S.synthesize_nct("01", "01")


def test_a_warm_synthesis_makes_four_word_checks(monkeypatch):
    # classify_swap checks u and v, and the difference word is taken from
    # one more word_xor; the swap of u and v and P_d's words are not checked
    S.synthesize_nct("0001000", "0000000")
    checked = []

    def check_word(w):
        checked.append(w)
        return real(w)

    real = bitcore.check_word
    for module in (bitcore, G, analysis, S):
        monkeypatch.setattr(module, "check_word", check_word)
    S.synthesize_nct("0001000", "0000000")
    assert checked == ["0001000", "0000000"] * 2


def test_synthesize_deterministic():
    first = S.synthesize_nct("00100", "01100")
    second = S.synthesize_nct("00100", "01100")
    assert {k: v.to_string() for k, v in first.items()} == {
        k: v.to_string() for k, v in second.items()
    }


def test_synthesize_every_universal_pair_up_to_length_5():
    count = 0
    for n in range(3, 6):
        for iu in range(1 << n):
            for iv in range(1 << n):
                u, v = int_to_word(iu, n), int_to_word(iv, n)
                if classify_swap(u, v, verify=False).verdict is SwapVerdict.UNIVERSAL:
                    S.synthesize_nct(u, v)  # raises on any verification failure
                    count += 1
    assert count == sum((1 << n) * (n - 2) for n in range(3, 6))


def cancelled(text, gens):
    # peephole of a flat expression: a program of one rule
    return S.peephole(G.Program({0: G.GateExpr.parse(text).atoms}, [0]), gens)[0]


def test_peephole():
    # cancellation cascades: after the inner pair goes, the outer pair meets
    gens = generators("010", "000")
    assert cancelled("c0@1 c0@1 fuv c0@2 c0@2 fuv", gens).atoms == ()
    assert cancelled("c0@1 fuv fuv c0@2", gens).atoms == (("c0", 1), ("c0", 2))
    assert cancelled("c0@1 fuv c0@1", gens).to_string() == "c0@1 fuv c0@1"


def test_peephole_cancels_across_rules_as_on_the_expansion():
    gens = generators("010", "000")
    rules = {
        "x": (("c0", 1), ("fuv", 0), ("c0", 2)),
        "y": (("x", 0), ("c0", 2), ("c0", 2), ("x", 0)),  # x x meet in the middle
        "z": (("c0", 1), ("y", 0), ("c0", 3)),
    }
    program = G.Program(rules, ["z", "x"])
    flat = program.expand()
    assert [e.to_string() for e in S.peephole(program, gens)] == [
        cancelled(e.to_string(), gens).to_string() for e in flat
    ] == ["fuv c0@2 c0@1 fuv c0@2 c0@3", "c0@1 fuv c0@2"]


def test_peephole_rejects_a_non_involution_before_cancelling():
    cycle = G.GroupElement(0, G.canonicalize(0, 1, [1, 2, 0, 3]))  # order 3
    gens = {**generators("010", "000"), "g": cycle, "sigma": G.make_named("sigma")}
    for name in ("g", "sigma"):
        with pytest.raises(ValueError, match=f"{name!r} is not an involution"):
            cancelled(f"c0 {name} {name} c0", gens)
        # a generator with no adjacent pair is never relied on
        assert cancelled(f"{name} c0 c0 {name}@1", gens).to_string() == f"{name} {name}@1"
    with pytest.raises(ValueError, match="unknown generator 'h'"):
        cancelled("h h", gens)


@st.composite
def elements_to_width_6(draw):
    # an involution, a map of order 3 or any permutation of a width-1..6
    # window, each with no shift part or one; the identity table among them
    width = draw(st.integers(1, 6))
    words = draw(st.permutations(range(1 << width)))
    kind = draw(st.sampled_from(["involution", "order 3", "any"]))
    table = list(range(1 << width))
    if kind == "any":
        table = words
    else:
        step = 2 if kind == "involution" else 3
        for i in range(0, draw(st.integers(0, len(words) // step)) * step, step):
            cycle = words[i : i + step]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                table[x] = y
    lo = draw(st.integers(-2, 2))
    return G.GroupElement(draw(st.sampled_from([0, 0, 1, -2])), G.canonicalize(lo, lo + width - 1, table))


@settings(max_examples=200, deadline=None)
@given(elements_to_width_6())
def test_peephole_cancels_exactly_the_involutions(g):
    # g g is cancelled exactly when the product g.g is the identity
    try:
        cancelled("g g", {"g": g})
    except ValueError:
        cancels = False
    else:
        cancels = True
    assert cancels == g.compose(g).is_identity


def test_outputs_match_their_pinned_digest():
    # sha256 over every returned program to length 6: a change to any atom shows
    digest = hashlib.sha256()
    atoms = 0
    for u, v, programs in programs_to_length_6():
        for name in ("c1", "rc1", "s", "c2"):
            atoms += len(programs[name])
            digest.update(f"{u} {v} {name} {programs[name].to_string()}\n".encode())
    assert len(programs_to_length_6()) == 392 and atoms == 420_072
    assert digest.hexdigest() == "4eb430777bcecc795429e4a988443cb65b30f8d2eff75d6695ed16466a0a776b"


@functools.cache
def sample_to_length_8():
    rng = random.Random(8)
    return [pair for n in (7, 8) for pair in rng.sample(list(universal_pairs(n)), 12)]


def test_step_evaluation_equals_flat_evaluation():
    cases = list(programs_to_length_6())
    cases += [(u, v, S.synthesize_nct(u, v)) for u, v in sample_to_length_8()]
    for u, v, programs in cases:
        gens = generators(u, v)
        steps = G.evaluate_program(pair_program(u, v), gens)
        for name, step in zip(S.TARGETS, steps):
            assert G.evaluate_expr(programs[name], gens) == step, (u, v, name)
            assert step == G.make_named(S.TARGETS[name]), (u, v, name)


def test_a_wrong_conjugation_is_refused_with_its_difference_word_cached(monkeypatch):
    u, v = "0110", "0100"
    S.synthesize_nct("0000", "0010")  # the same difference word, so P_d is cached
    real = S._conjugations

    # the flips of u with one flip too few or one too many conjugate fuv to another swap
    wrong = [lambda u: real(u.replace("1", "0", 1)), lambda u: real(u.replace("0", "1", 1))]
    for conjugations in wrong:
        hits = S._verified_program_d.cache_info().hits
        monkeypatch.setattr(S, "_conjugations", conjugations)
        with pytest.raises(AssertionError, match="conjugated pattern swap failed"):
            S.synthesize_nct(u, v)
        assert S._verified_program_d.cache_info().hits == hits + 1
    monkeypatch.undo()
    for name, expr in S.synthesize_nct(u, v).items():
        assert evaluate(expr, u, v) == G.make_named(S.TARGETS[name])


def test_a_wrong_strip_rule_is_refused_and_never_cached(monkeypatch):
    u, v = "00100", "00000"
    S._verified_program_d.cache_clear()
    real = S._strip_right
    # flip the cell left of the border instead of the border
    monkeypatch.setattr(S, "_strip_right", lambda rules, f, n: real(rules, f, n - 1))
    try:
        for _ in range(2):
            with pytest.raises(AssertionError, match="synthesized program for c1 failed"):
                S.synthesize_nct(u, v)
        monkeypatch.undo()
        for name, expr in S.synthesize_nct(u, v).items():
            assert evaluate(expr, u, v) == G.make_named(S.TARGETS[name])
    finally:
        S._verified_program_d.cache_clear()


def test_a_c2_closed_by_the_wrong_conjugator_is_refused_and_never_cached(monkeypatch):
    u, v = "00100", "00000"
    S._verified_program_d.cache_clear()
    real = S._rule

    def c0_at_2_dropped(rules, *factors):
        # c2 closed by s c0@1 alone: c2's value after one flip too few
        if factors[-2:] == (("c0", 1), ("c0", 2)):
            factors = factors[:-1]
        return real(rules, *factors)

    monkeypatch.setattr(S, "_rule", c0_at_2_dropped)
    try:
        for _ in range(2):
            with pytest.raises(AssertionError, match="synthesized program for c2 failed verification"):
                S.synthesize_nct(u, v)
            assert S._verified_program_d.cache_info().currsize == 0
        monkeypatch.undo()
        for name, expr in S.synthesize_nct(u, v).items():
            assert evaluate(expr, u, v) == G.make_named(S.TARGETS[name])
    finally:
        S._verified_program_d.cache_clear()


def test_no_program_d_to_length_10_has_two_equal_rules():
    for n in range(3, 11):
        for i in range(1, n - 1):
            rules = S._program_d("0" * i + "1" + "0" * (n - 1 - i)).rules
            assert len(set(rules.values())) == len(rules), (n, i)
    # the cores share their strip steps: at length 6, 13 rules where
    # building each core on its own would take 17
    assert len(S._program_d("001000").rules) == 13


def test_program_lengths_are_exact_before_cancellation():
    for u, v in [("00100", "00000"), ("0101", "0111"), *sample_to_length_8()[::6]]:
        program = pair_program(u, v)
        assert program.lengths() == [len(expr) for expr in program.expand()]
        flat = S.synthesize_nct(u, v)
        assert all(len(flat[name]) <= n for name, n in zip(S.TARGETS, program.lengths()))


def test_synthesis_past_the_expansion_cap_is_refused():
    u, v = "0" * 18, "0" * 9 + "1" + "0" * 8
    assert max(pair_program(u, v).lengths()) > G.MAX_EXPANDED_ATOMS
    with pytest.raises(G.ExpansionCapError):
        S.synthesize_nct(u, v)
    u, v = "0" * 17, "0" * 8 + "1" + "0" * 8  # the longest central pair that fits
    assert len(S.synthesize_nct(u, v)["c2"]) == 638_972


def test_standard_generating_checks_all_pass():
    checks = S.standard_generating_checks()
    assert len(checks) == 4
    assert all(holds for _, holds in checks)

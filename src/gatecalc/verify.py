"""The acceptance suite: every headline claim as an executable check.

Each criterion is a function returning (passed, detail); run_all times
them and collects a report.  The same checks back `gatecalc verify-all`
and the test suite, so there is a single source of truth for what the
package promises.  Randomized criteria use a fixed seed and are
deterministic run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analysis, cyclic, grammar, search, synth
from .bitcore import int_to_word
from .gates import GroupElement, canonicalize, make_eca, make_named

SEED = 20240801


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    detail: str


def _random_gate(rng, max_width=5, lo_range=(-3, 3)):
    width = int(rng.integers(1, max_width + 1))
    lo = int(rng.integers(lo_range[0], lo_range[1] + 1))
    table = rng.permutation(1 << width)
    return canonicalize(lo, lo + width - 1, table)


def criterion_1_flip_word():
    """50-step program over shifted rule-57 gates composes to the flip."""
    report = analysis.flip_program_report()
    # the standard reading is flip_certificate(57); both reading orders
    # provably agree for involution programs
    ok = report["standard/first-acts-last"] and report["standard/first-acts-first"]
    detail = "; ".join(f"{k}: {'ok' if v else 'no'}" for k, v in report.items())
    return ok, detail


def criterion_2_golden_match():
    """Grammar expansions byte-match the vendored program strings."""
    if not grammar.golden_checksums_ok():
        return False, "vendored data failed checksum"
    bad = [
        s
        for s in grammar.START_SYMBOLS
        if grammar.expand(s) != grammar.golden_string(s)
    ]
    lengths = {s: len(grammar.expand(s)) for s in grammar.START_SYMBOLS}
    return not bad, f"lengths {lengths}" + (f"; mismatches {bad}" if bad else "")


def criterion_3_tape_semantics():
    """All five programs implement their gates at one anchor cell."""
    anchors = {}
    for start in grammar.START_SYMBOLS:
        target = make_named(grammar.STANDARD_TARGETS[start])
        report = grammar.verify_semantics(start, target)
        if not report.passed or not report.reading_agreement:
            return False, f"{start} failed"
        anchors[start] = report.anchor
    ok = len(set(anchors.values())) == 1
    return ok, f"anchors {anchors}"


def criterion_4_ring_case():
    """Programs implement the projected gates on every ring size 4..20."""
    anchor = grammar.measure_anchor()
    rings = range(4, cyclic.RING_CAP + 1)
    failures = []
    for n in rings:
        for start in grammar.START_SYMBOLS:
            target = make_named(grammar.STANDARD_TARGETS[start])
            if not grammar.verify_on_ring(start, target, n, anchor):
                failures.append((start, n))
    return not failures, f"anchor {anchor}, rings {rings[0]}..{rings[-1]}" + (
        f"; failures {failures}" if failures else ""
    )


def criterion_5_projection_cross_validation():
    """Formula and periodic-simulation projections agree; all are even."""
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(500):
        gate = _random_gate(rng)
        f = GroupElement(0, gate)
        for n in range(cyclic.min_ring(f), 11):
            a = cyclic.project_formula(f, n)
            if a != cyclic.project_periodic(f, n):
                return False, f"projection mismatch at {gate!r}, n={n}"
            if not a.is_even():
                return False, f"odd projection at {gate!r}, n={n}"
            checked += 1
    return True, f"500 gates, {checked} projections"


def criterion_6_necklace_parity():
    """Necklace counts by formula and orbits; rotation parity matches."""
    rows = list(cyclic.necklace_table(cyclic.RING_CAP))
    bad = [r.n for r in rows if not r.agrees]
    odd = [r.n for r in rows if r.rotation_sign == "odd"]
    if bad or odd != [2]:
        return False, f"mismatches at n={bad}, rotation odd at n={odd}"
    return True, f"counts and parity to n={rows[-1].n} (only n=2 odd)"


def criterion_7_word_swap_exhaustive():
    """Swap classification, both directions, exhaustively to length 7."""
    total = universal = 0
    for n in range(1, 8):
        for iu in range(1 << n):
            u = int_to_word(iu, n)
            for iv in range(1 << n):
                v = int_to_word(iv, n)
                cls = analysis.classify_swap(u, v, verify=True)
                total += 1
                d = [i for i in range(n) if u[i] != v[i]]
                pattern_universal = len(d) == 1 and 0 < d[0] < n - 1
                if pattern_universal != (cls.verdict is analysis.SwapVerdict.UNIVERSAL):
                    return False, f"verdict mismatch for {u},{v}"
                if cls.verdict is analysis.SwapVerdict.UNIVERSAL:
                    universal += 1
                    synth.synthesize_nct(u, v)  # raises unless all 4 verify
                elif cls.verified is not True:
                    return False, f"membership verification failed for {u},{v}"
    return True, f"{total} pairs, {universal} universal, 4 programs each"


def criterion_8_eca_classification():
    """All 256 one-cell CA updates classified, with certificates."""
    classes = [analysis.classify_eca(r) for r in range(256)]
    bijective = [c.rule for c in classes if c.verdict is not analysis.EcaVerdict.NOT_BIJECTIVE]
    universal = [c.rule for c in classes if c.verdict is analysis.EcaVerdict.UNIVERSAL]
    ok = (
        len(bijective) == 16
        and universal == [57, 99]
        and classes[51].reason == "equals-c0"
        and classes[105].reason == "affine"
    )
    return ok, f"{len(bijective)} bijective, universal {universal}"


def criterion_9_generating_identities():
    """The classic swap identity and the Toffoli-as-pattern-swap hold."""
    checks = synth.standard_generating_checks()
    failed = [name for name, holds in checks if not holds]
    return not failed, f"{len(checks)} identities" + (
        f"; failed {failed}" if failed else ""
    )


def criterion_10_locality_identities():
    """Conjugation and homomorphism identities on random instances."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        gate = _random_gate(rng, max_width=4)
        f = GroupElement(0, gate)
        n = int(rng.integers(cyclic.min_ring(f), 11))
        m = int(rng.integers(-6, 7))
        if not cyclic.check_conjugation_identity(gate, n, m):
            return False, f"conjugation identity failed: {gate!r}, n={n}, m={m}"
    produced = 0
    attempts = 0
    while produced < 100:
        attempts += 1
        if attempts > 10000:
            return False, "could not generate hypothesis-satisfying instances"
        n = int(rng.integers(8, 13))
        k = int(rng.integers(1, 4))
        fs = []
        for _ in range(k):
            gate = _random_gate(rng, max_width=3, lo_range=(0, n - 4))
            fs.append(GroupElement(int(rng.integers(-1, 2)), gate))
        outcome = cyclic.check_locality_homomorphism(fs, n, 0)
        if outcome is cyclic.LocalityOutcome.HYPOTHESIS_NOT_MET:
            continue
        if outcome is not cyclic.LocalityOutcome.HOLDS:
            return False, f"homomorphism failed on {fs}, n={n}"
        produced += 1
    return True, f"200 conjugation + {produced} homomorphism instances"


def criterion_11_search_certification():
    """Split search over the shifted rule-57 gates: the flip is at distance exactly 50."""
    e57 = make_eca(57)
    gens = tuple(e57.shift_conjugate(k) for k in (-1, 0, 1))
    flip = make_named("c0")
    result = search.search(search.SearchConfig(
        gens, flip, 25, strategy="mitm", certify_minimum=True
    ))
    if result.status != "found":
        return False, f"unexpected outcome {result.status}: {result.stats}"
    minimal = result.stats["minimal_length"]
    ok = minimal == 50 and search.evaluate_word(result.word, gens) == flip
    return ok, (
        f"found length {len(result.word)}, certified minimum {minimal}, "
        f"re-evaluates to flip: {ok}; ball states {result.stats['states']}"
    )


CRITERIA = [
    (1, "flip word identity", criterion_1_flip_word),
    (2, "grammar golden match", criterion_2_golden_match),
    (3, "grammar semantics on the tape", criterion_3_tape_semantics),
    (4, "grammar semantics on rings 4..20", criterion_4_ring_case),
    (5, "projection cross-validation", criterion_5_projection_cross_validation),
    (6, "necklace counts and parity", criterion_6_necklace_parity),
    (7, "word-swap universality, both directions", criterion_7_word_swap_exhaustive),
    (8, "one-cell CA classification", criterion_8_eca_classification),
    (9, "generating identities", criterion_9_generating_identities),
    (10, "locality identities", criterion_10_locality_identities),
    (11, "search certification", criterion_11_search_certification),
]


def run_all(indices=None) -> list[CriterionResult]:
    if indices is not None:
        unknown = sorted(set(indices) - {i for i, _, _ in CRITERIA})
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
        if not indices:
            raise ValueError("no criteria selected")
    results = []
    for i, name, fn in CRITERIA:
        if indices is not None and i not in indices:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        results.append(
            CriterionResult(i, name, passed, time.perf_counter() - start, detail)
        )
    return results

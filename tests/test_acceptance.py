"""Acceptance suite: one test per headline criterion, with time budgets.

Each test runs the corresponding check from gatecalc.verify and prints
its pass/fail line (visible with -s or in the captured output).  The
same checks back `gatecalc verify-all`.
"""

import time

import pytest

from gatecalc import verify

# criterion index -> wall-clock budget in seconds
TIME_BUDGETS = {
    1: 1.0,
    2: 1.0,
    3: 10.0,
    4: 5.0,
    5: 10.0,
    6: 5.0,
    7: 20.0,
    8: 10.0,
    9: 1.0,
    10: 5.0,
    11: 5.0,
}

# criterion index -> its exact detail, so that a faster check cannot pass
# by checking fewer cases
PINNED_DETAILS = {
    4: "anchor 3, rings 4..20",
    5: "500 gates, 3388 projections",
    7: "21844 pairs, 1032 universal, 4 programs each",
}

# criterion index -> (passed, detail) of its parametrized run, so that the
# determinism check needs only one fresh run to compare against
RECORDED: dict[int, tuple[bool, str]] = {}


@pytest.mark.parametrize(
    "index,name,fn", verify.CRITERIA, ids=[f"{i:02d}-{n}" for i, n, _ in verify.CRITERIA]
)
def test_criterion(index, name, fn):
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    RECORDED[index] = (passed, detail)
    print(f"[{'PASS' if passed else 'FAIL'}] {index:>2} {name} ({elapsed:.2f}s): {detail}")
    assert passed, f"criterion {index} ({name}): {detail}"
    assert detail == PINNED_DETAILS.get(index, detail)
    assert elapsed < TIME_BUDGETS[index], (
        f"criterion {index} took {elapsed:.1f}s, budget {TIME_BUDGETS[index]}s"
    )


def test_verify_all_is_deterministic():
    indices = {5, 10}
    fresh = [(r.passed, r.detail) for r in verify.run_all(indices=indices)]
    if indices <= RECORDED.keys():
        earlier = [RECORDED[i] for i in sorted(indices)]
    else:  # run on its own, e.g. under -k: compare two fresh runs
        earlier = [(r.passed, r.detail) for r in verify.run_all(indices=indices)]
    assert fresh == earlier

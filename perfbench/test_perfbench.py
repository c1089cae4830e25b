"""Tests of the benchmark itself, at smoke size.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from gatecalc import analysis, cyclic, gates, grammar, search, synth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = [
    "gates.compose.calls",
    "cyclic.project_periodic.calls",
    "synth.program_atoms",
    "search.states",
    "search.bytes",
]


def bench(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_prints_end_to_end_metrics(workload):
    res = result(bench(workload, trace=0))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layer_metrics_and_repeats_exact_counts(workload):
    first = result(bench(workload, trace=1))["metrics"]
    second = result(bench(workload, trace=1))["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == want
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    busy = {
        "swap-synth": ["gates.compose.calls", "synth.program_atoms"],
        "ring-project": ["cyclic.project_periodic.calls", "grammar.verify_on_ring.calls"],
        "search-mitm": ["search.states", "search.bytes"],
        "search-wide": ["search.states", "search.bytes"],
    }[workload]
    assert all(first[name]["value"] > 0 for name in busy)


def test_a_failed_check_fails_the_run(tmp_path):
    # a copy whose pinned ball size is wrong must report the item as failed
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "perfbench" / "workloads.py"
    path.write_text(path.read_text().replace("sum(_WIDE_LEVELS[:6])", "sum(_WIDE_LEVELS[:6]) + 1"))
    out = bench("search-wide", trace=0, cwd=tmp_path)
    assert out.returncode == 1
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] == res["attempted"]


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel)
    out = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_layer_mapping_covers_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    listed = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    assert list(tracing.LAYER_METRICS) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers.values():
        for workload, metrics in layer["should_move"].items():
            assert workload in WORKLOADS and set(metrics) <= end_to_end
        assert set(layer["no_change"]) <= set(WORKLOADS) - set(layer["should_move"])


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {
        (analysis, "evaluate_expr"): analysis.evaluate_expr,
        (synth, "evaluate_expr"): synth.evaluate_expr,
        (synth, "classify_swap"): synth.classify_swap,
        (grammar, "project_formula"): grammar.project_formula,
        (grammar, "compose_many"): grammar.compose_many,
        (search, "compose_many"): search.compose_many,
        (analysis, "gf2_divides"): analysis.gf2_divides,
        (gates.InertGate, "compose"): gates.InertGate.compose,
        (cyclic.CyclicPerm, "compose"): cyclic.CyclicPerm.compose,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (holder, attr), fn in originals.items():
            assert getattr(holder, attr) is not fn, (holder, attr)
        # a generator argument still reaches compose_many whole
        c0 = gates.make_named("c0")
        assert search.compose_many(g for g in (c0, c0)).is_identity
    finally:
        tracer.uninstall()
    for (holder, attr), fn in originals.items():
        assert getattr(holder, attr) is fn, (holder, attr)
    spans = tracer.per_name()
    assert spans["gates.compose_many"][0] == 1 and tracer.counts["atoms"] == 2


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", body)()
    spans = tracer.per_name()
    calls_o, incl_o, own_o = spans["outer"]
    calls_i, incl_i, own_i = spans["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert own_i == pytest.approx(incl_i)
    assert own_o == pytest.approx(incl_o - incl_i)
    assert 0.01 <= own_o < incl_o

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatecalc import cli, gates


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gate_named(capsys):
    code, out, _ = run(capsys, "gate", "--name", "e57")
    assert code == 0
    assert "-1 .. 1" in out


def test_gate_expression(capsys):
    code, out, _ = run(capsys, "--json", "gate", "--expr", "c0@1 c0@1")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "gatecalc.report/1"
    assert record["gate"]["window_lo"] is None  # cancelled to the identity


def test_classify_eca(capsys):
    code, out, _ = run(capsys, "classify", "eca", "--rule", "57")
    assert code == 0
    assert "universal" in out and "certificate verified" in out


def test_classify_eca_all_json(capsys):
    code, out, _ = run(capsys, "--json", "classify", "eca", "--all")
    assert code == 0
    rules = json.loads(out)["rules"]
    assert len(rules) == 256
    assert sum(r["verdict"] == "universal" for r in rules) == 2


def test_classify_swap(capsys):
    code, out, _ = run(capsys, "classify", "swap", "--u", "011", "--v", "111", "--verify")
    assert code == 0
    assert "left-one-sided" in out


def test_classify_swap_bad_input(capsys):
    code, _, err = run(capsys, "classify", "swap", "--u", "01", "--v", "011")
    assert code == 2
    assert "unequal lengths" in err


def test_synthesize(capsys):
    code, out, _ = run(capsys, "synthesize", "--u", "001", "--v", "011", "--gate", "c1")
    assert code == 0
    assert "c1" in out


def test_synthesize_non_universal(capsys):
    code, out, _ = run(capsys, "synthesize", "--u", "011", "--v", "111")
    assert code == 1
    assert "not universal" in out


def test_project(capsys):
    code, out, _ = run(capsys, "--json", "project", "--name", "c0", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == "even"
    assert len(payload["cycles"]) == 8


def test_project_ring_too_small(capsys):
    code, _, err = run(capsys, "project", "--name", "e57", "--n", "3")
    assert code == 2
    assert "ring too small" in err


def test_parity(capsys):
    code, out, _ = run(capsys, "--json", "parity", "--max-n", "10")
    assert code == 0
    rows = json.loads(out)["rows"]
    odd = [r["n"] for r in rows if r["rotation_sign"] == "odd"]
    assert odd == [2]


@pytest.mark.parametrize("max_n", ["0", "-5", "65"])
def test_parity_rejects_max_n_outside_1_to_64(capsys, max_n):
    code, out, err = run(capsys, "parity", "--max-n", max_n)
    assert code == 2
    assert f"--max-n must be in [1, 64], got {max_n}" in err
    assert out == ""


def test_grammar_expand(capsys):
    code, out, _ = run(capsys, "grammar", "expand", "--start", "N3")
    assert code == 0
    assert out.strip() == "23423432323243232323434232432343434342343432324343"


def test_grammar_verify(capsys):
    code, out, _ = run(capsys, "grammar", "verify", "--start", "S3")
    assert code == 0
    assert "pass" in out and "cell 3" in out


def test_grammar_verify_ring(capsys):
    code, out, _ = run(capsys, "grammar", "verify", "--start", "T3", "--ring", "4")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("ring", ["0", "3", "21"])
def test_grammar_verify_on_too_small_a_ring_is_a_usage_error(capsys, ring):
    # and past RING_CAP, refused by the target's projection
    code, out, err = run(capsys, "grammar", "verify", "--start", "N3", "--ring", ring)
    assert code == 2
    assert out == ""
    assert ("ring size must be in [1, 20]" if ring == "21" else "n >= 4") in err


def test_search_small(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "search",
        "--gen", "c0,swap",
        "--target", "c1",
        "--strategy", "bfs",
        "--max-depth", "6",
    )
    assert code == 0
    assert json.loads(out)["status"] == "not-found"


def test_search_budget(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--gen", "e57@-1,e57,e57@1",
        "--target", "c0",
        "--strategy", "mitm",
        "--max-depth", "25",
        "--mem", "100K",
    )
    assert code == 0
    assert "budget-exceeded" in out


def test_memory_budget_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("GATECALC_MEM", "1K")
    code, out, _ = run(
        capsys,
        "--json",
        "search",
        "--gen", "e57@-1,e57,e57@1",
        "--target", "c0",
        "--strategy", "mitm",
        "--max-depth", "25",
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "budget-exceeded" and record["stats"]["budget"] == 1024


def test_search_for_a_generator_itself(capsys):
    # the ball closes at level 1: level 2 has no candidate
    code, out, err = run(
        capsys,
        "--json",
        "search",
        "--gen", "c0",
        "--target", "c0",
        "--strategy", "mitm",
        "--max-depth", "3",
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["status"] == "found" and record["word"] == [0]


def test_search_target_outside_hull(capsys):
    # c0@30 lies 30 cells off the only generator's window
    code, out, _ = run(
        capsys, "search", "--gen", "c0", "--target", "c0@30", "--max-depth", "3"
    )
    assert code == 0
    assert "not-found" in out and "target outside hull" in out


def test_certify_min_with_bfs_is_a_usage_error(capsys):
    code, out, err = run(
        capsys,
        "search",
        "--gen", "c0,swap",
        "--target", "c1",
        "--strategy", "bfs",
        "--max-depth", "6",
        "--certify-min",
    )
    assert code == 2
    assert "certify_minimum needs strategy 'mitm'" in err
    assert out == ""


def test_verify_all_subset(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", "2,9")
    assert code == 0
    assert out.count("[PASS]") == 2
    assert "2/2 criteria passed" in out


def test_verify_all_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "verify-all", "--only", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "gatecalc.report/1"
    assert payload["passed"] is True
    assert payload["results"][0]["index"] == 9


@pytest.mark.parametrize(
    "only,message", [("99", "unknown criteria: [99]"), ("2,99,0", "[0, 99]"), ("", "no criteria")]
)
def test_verify_all_rejects_unknown_or_empty_selections(capsys, only, message):
    code, out, err = run(capsys, "verify-all", "--only", only)
    assert code == 2
    assert message in err
    assert "criteria passed" not in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


def test_window_cap_flag(capsys):
    code, _, err = run(
        capsys, "--window-cap", "4", "gate", "--expr", "c0 c0@6"
    )
    assert code == 2
    assert "window cap exceeded" in err


@pytest.mark.parametrize("from_env", [False, True])
def test_window_cap_lasts_only_for_its_command(capsys, monkeypatch, from_env):
    if from_env:
        monkeypatch.setenv("GATECALC_WINDOW_CAP", "5")
        argv = ["gate", "--expr", "c0 c0@6"]
    else:
        argv = ["--window-cap", "5", "gate", "--expr", "c0 c0@6"]
    cap = gates.WINDOW_CAP
    code, _, err = run(capsys, *argv)
    assert code == 2 and "window cap exceeded" in err
    assert gates.WINDOW_CAP == cap
    monkeypatch.delenv("GATECALC_WINDOW_CAP", raising=False)
    assert not gates.make_word_swap("0" * 6, "1" * 6).is_identity


def test_ring_size_is_bounded_by_the_ring_cap_not_the_window_cap(capsys):
    code, out, _ = run(capsys, "--window-cap", "4", "project", "--name", "swap", "--n", "6")
    assert code == 0
    assert "permutation of {0,1}^6, parity even" in out


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["gate", "--name", "c0"], "abc", "bad window cap 'abc'"),
        (["--window-cap", "0", "gate", "--name", "c0"], None, "at least 1, got 0"),
        (["--window-cap", "-3", "gate", "--name", "c0"], None, "at least 1, got -3"),
        (["gate", "--name", "c0"], "-3", "at least 1, got -3"),
    ],
)
def test_malformed_window_cap_is_a_usage_error(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("GATECALC_WINDOW_CAP", env)
    cap = gates.WINDOW_CAP
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""
    assert gates.WINDOW_CAP == cap


@pytest.mark.parametrize(
    "argv,message",
    [
        (["synthesize", "--u", "0" * 25, "--v", "0" * 12 + "1" + "0" * 12], "window cap exceeded"),
        (["synthesize", "--u", "0" * 20, "--v", "0" * 10 + "1" + "0" * 9], "expansion cap exceeded"),
        # right-one-sided: verifying it needs the swap's table
        (["classify", "swap", "--u", "0" * 25, "--v", "0" * 24 + "1", "--verify"],
         "window cap exceeded"),
    ],
)
def test_oversized_swap_input_exits_2_quickly(argv, message):
    out = run_limited(argv)
    assert out.returncode == 2, out.stderr
    assert message in out.stderr


def test_a_universal_swap_past_the_cap_is_classified_without_its_table():
    # a universal verdict verifies no membership, so no table is made
    out = run_limited(["--json", "classify", "swap", "--u", "0" * 25,
                       "--v", "0" * 12 + "1" + "0" * 12, "--verify"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "universal"


def test_parity_orbit_column_stays_within_memory():
    # orbits are enumerated to RING_CAP only; past it the column reads None
    out = run_limited(["--json", "parity", "--max-n", "26"])
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)["rows"]
    assert [r["n"] for r in rows if r["orbits"] is not None] == list(range(1, 21))
    assert all(r["orbits"] == r["formula"] for r in rows[:20])
    assert len(rows) == 26


def run_limited(argv):
    # a fresh process under a 2 GiB address-space limit and a timeout, so
    # that a regression fails its test instead of exhausting memory
    script = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from gatecalc.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=20)

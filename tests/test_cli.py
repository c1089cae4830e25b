import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatecalc import analysis, cli, cyclic, gates, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gate_named(capsys):
    code, out, _ = run(capsys, "gate", "--expr", "e57")
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


def test_a_flip_certificate_that_fails_raises(monkeypatch):
    # classify_eca refuses a certificate that misses the flip, so the CLI
    # never sees one: it raises instead of exiting 1
    monkeypatch.setattr(analysis, "_flip_value", lambda *args, **kwargs: gates.make_named("c1"))
    with pytest.raises(AssertionError, match="rule 57"):
        analysis.classify_eca(57)
    with pytest.raises(AssertionError, match="rule 57"):
        cli.main(["classify", "eca", "--rule", "57"])


@pytest.mark.parametrize("argv", [["gate", "--name", "c0"], ["project", "--name", "swap", "--n", "6"]])
def test_a_gate_is_read_only_through_expr(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "--expr" in capsys.readouterr().err


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


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_classify_swap_of_empty_patterns_is_a_usage_error(capsys, verify):
    code, out, err = run(capsys, "classify", "swap", "--u", "", "--v", "", *verify)
    assert code == 2
    assert out == ""
    assert "patterns must be nonempty" in err


def test_synthesize(capsys):
    code, out, _ = run(capsys, "synthesize", "--u", "001", "--v", "011", "--gate", "c1")
    assert code == 0
    assert "c1" in out


def test_synthesize_non_universal(capsys):
    code, out, _ = run(capsys, "synthesize", "--u", "011", "--v", "111")
    assert code == 1
    assert "not universal" in out


def test_project(capsys):
    code, out, _ = run(capsys, "--json", "project", "--expr", "c0", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == "even"
    assert len(payload["cycles"]) == 8


def test_project_ring_too_small(capsys):
    code, _, err = run(capsys, "project", "--expr", "e57", "--n", "3")
    assert code == 2
    assert "ring too small" in err


def test_parity(capsys):
    code, out, _ = run(capsys, "--json", "parity", "--max-n", "10")
    assert code == 0
    rows = json.loads(out)["rows"]
    odd = [r["n"] for r in rows if r["rotation_sign"] == "odd"]
    assert odd == [2]
    assert all(r["agrees"] for r in rows)


def test_parity_exits_1_on_a_wrong_rotation_parity(capsys, monkeypatch):
    # the printed parity is compared with the one the count predicts, so a
    # wrong parity kernel fails both the command and criterion 6
    is_even = cyclic.CyclicPerm.is_even
    monkeypatch.setattr(cyclic.CyclicPerm, "is_even", lambda p: not is_even(p))
    code, out, _ = run(capsys, "parity", "--max-n", "6")
    assert code == 1
    assert out.splitlines()[2].split() == ["2", "3", "3", "even"]
    assert verify.criterion_6_necklace_parity()[0] is False


def test_parity_exits_1_on_a_wrong_orbit_count(capsys, monkeypatch):
    count = cyclic.necklace_count_by_orbits
    monkeypatch.setattr(cyclic, "necklace_count_by_orbits", lambda n: count(n) + (n == 5))
    assert run(capsys, "parity", "--max-n", "6")[0] == 1
    assert verify.criterion_6_necklace_parity() == (False, "mismatches at n=[5], rotation odd at n=[2]")


@pytest.mark.parametrize("max_n", ["0", "-5", "65"])
def test_parity_rejects_max_n_outside_1_to_64(capsys, max_n):
    code, out, err = run(capsys, "parity", "--max-n", max_n)
    assert code == 2
    assert f"max_n must be in [1, 64], got {max_n}" in err
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
def test_grammar_verify_on_a_ring_out_of_range_is_a_usage_error(capsys, ring):
    # too small for the programs, or past RING_CAP: one message names both bounds
    code, out, err = run(capsys, "grammar", "verify", "--start", "N3", "--ring", ring)
    assert code == 2
    assert out == ""
    assert f"ring size must be in [4, 20] for ring verification, got {ring}" in err


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


def test_the_environment_sets_no_limit(capsys, monkeypatch):
    # the window cap is a constant and the memory budget is set by --mem only
    monkeypatch.setenv("GATECALC_WINDOW_CAP", "4")
    monkeypatch.setenv("GATECALC_MEM", "1K")
    code, _, _ = run(capsys, "gate", "--expr", "c0 c0@6")
    assert code == 0
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
    assert json.loads(out)["status"] == "found"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--expr", "c0@+1"],
        ["search", "--gen", "c0@+1", "--target", "c0", "--max-depth", "2"],
        ["search", "--gen", "c0", "--target", "c0@+1", "--max-depth", "2"],
    ],
    ids=["expr", "gen", "target"],
)
def test_every_gate_argument_reads_the_one_expression_grammar(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "bad expression atom 'c0@+1'" in err
    assert out == ""


@pytest.mark.parametrize(
    "gen, message",
    [("e57,,e57@1", "token 2 of 3"), ("e57,", "token 2 of 2"), (" ,e57", "token 1 of 2")],
)
def test_an_empty_gen_token_is_a_usage_error(capsys, gen, message):
    # a doubled, trailing or leading comma would add the identity as a letter
    code, out, err = run(capsys, "search", "--gen", gen, "--target", "c0", "--max-depth", "2")
    assert code == 2
    assert f"--gen {message} is empty" in err
    assert out == ""


def test_search_generators_and_target_may_be_products(capsys):
    code, out, err = run(
        capsys,
        "--json",
        "search",
        "--gen", "c0@1 c0,c0",
        "--target", "c0@1",
        "--max-depth", "2",
    )
    assert code == 0, err
    record = json.loads(out)
    # c0 flips one cell, so the two generators commute
    assert record["status"] == "found" and sorted(record["word"]) == [0, 1]


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
    code, _, _ = run(capsys, "gate", "--expr", "c0 c0@23")
    assert code == 0
    # the hull of c0 and c0@30 is 31 cells, past the cap of 24: refused
    # before a table is built
    code, out, err = run(capsys, "gate", "--expr", "c0 c0@30")
    assert code == 2
    assert "window cap exceeded: need width 31, cap is 24" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,env,message",
    [
        # one cell past the cap, refused before a table is built
        pytest.param(
            ["gate", "--expr", "c0 c0@24"], None, "need width 25, cap is 24",
            id="argv4-None-at most 24, got 25",
        ),
        # the environment cannot raise the cap
        pytest.param(
            ["gate", "--expr", "c0 c0@33"], "40", "need width 34, cap is 24",
            id="argv5-40-at most 24, got 40",
        ),
    ],
)
def test_malformed_window_cap_is_a_usage_error(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("GATECALC_WINDOW_CAP", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "window cap exceeded: " + message in err
    assert out == ""


def test_ring_size_is_bounded_by_the_ring_cap_not_the_window_cap(capsys, monkeypatch):
    monkeypatch.setattr(gates, "WINDOW_CAP", 4)
    code, out, _ = run(capsys, "project", "--expr", "swap", "--n", "6")
    assert code == 0
    assert "permutation of {0,1}^6, parity even" in out


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

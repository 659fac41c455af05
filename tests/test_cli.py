from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gkh.cli
import gkh.coloring
import gkh.linalg
from gkh.cli import build_parser, main
from gkh.coloring import crossing_matrix
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.linalg import LinalgError
from gkh.verify import random_alternating_diagram, verify_gkh
from oracles import is_fox_coloring, reduced_crossing_matrix, reduced_mod, scaled_inverse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_fixture(capsys):
    code, out, _ = run(capsys, "det", "--name", "7_7")
    assert code == 0 and out.strip() == "21"


def test_det_braid(capsys):
    code, out, _ = run(capsys, "det", "--braid", "1 1 1")
    assert code == 0 and out.strip() == "3"


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "--name", "10_123", "--json")
    assert code == 0
    assert json.loads(out) == {"factors": [11, 11], "determinant": 121}


def test_group_trivial(capsys):
    code, out, _ = run(capsys, "group", "--name", "conway")
    assert code == 0 and out.splitlines()[0] == "trivial"


def test_parse_pd_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", "--pd", "PD[X(2,1,1,2)]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pd"] == "PD[X(2,1,1,2)]"
    assert payload["reduced"] is False and payload["determinant"] == 1


def test_matrix_variants(capsys):
    code, out, _ = run(capsys, "matrix", "--name", "3_1")
    assert code == 0
    assert out.splitlines() == [" 2 -1 -1", "-1  2 -1", "-1 -1  2"]
    code, out, _ = run(capsys, "matrix", "--name", "3_1", "--which", "l", "--json")
    assert code == 0
    assert json.loads(out) == {"which": "l", "rows": [[2, 1], [1, 2]]}


@pytest.mark.parametrize("name", [n for n in fixture_names() if fixture(n).determinant])
def test_matrix_l_and_lmod_print_the_oracle_inverse(capsys, name):
    # --which lmod comes from the s non-unit Smith factors, --which l from
    # the whole product; both print what n1 * C^(-1) and its residues print
    c = reduced_crossing_matrix(crossing_matrix(fixture_diagram(name)))
    n1 = fixture(name).factors[0] if fixture(name).factors else 1
    expected = scaled_inverse(c, n1)
    for which, matrix in (("l", expected), ("lmod", reduced_mod(expected, n1))):
        code, out, _ = run(capsys, "matrix", "--name", name, "--which", which)
        assert code == 0
        assert out == f"{matrix}\n"


def test_matrix_c_and_lmod_build_no_exact_column(capsys, monkeypatch):
    # only --which l needs exact columns of L; c and lmod print the same
    # with the exact column refused
    argvs = [
        ["matrix", "--name", name, "--which", which, *json]
        for name in fixture_names()
        if fixture(name).determinant
        for which in ("c", "lmod")
        for json in ([], ["--json"])
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def refuse(self, indices):
        raise AssertionError(f"exact columns {list(indices)} of L were built")

    monkeypatch.setattr(gkh.coloring.ColoringAnalysis, "_exact_columns", refuse)
    for argv, before in zip(argvs, expected):
        assert before[0] == 0
        assert run(capsys, *argv) == before, argv


def test_colorings_enumeration(capsys):
    code, out, _ = run(capsys, "colorings", "--name", "3_1", "--mod", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "9 colorings mod 3"
    assert len(lines) == 10
    assert "1 2 0" in lines


def test_colorings_lists_a_small_count_over_many_arcs(capsys):
    # 11**10 assignments, but only 1331 colorings
    code, out, _ = run(capsys, "colorings", "--name", "10_123", "--mod", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1331 colorings mod 11"
    colorings = {tuple(int(x) for x in line.split()) for line in lines[1:]}
    assert len(lines) == 1332 and len(colorings) == 1331
    d = fixture_diagram("10_123")
    assert all(is_fox_coloring(d, c, 11) for c in colorings)


def test_colorings_over_limit_reports_count(capsys):
    code, out, _ = run(capsys, "colorings", "--name", "split", "--mod", "5000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["colorings"] is None
    assert payload["count"] == 5000 * 5000


def test_colorings_past_the_word_size_prints_the_count(capsys):
    modulus = 10**20
    code, out, err = run(capsys, "colorings", "--name", "3_1", "--mod", str(modulus))
    assert code == 0 and not err
    assert out.splitlines() == [
        f"{modulus} colorings mod {modulus}",
        "(enumeration space too large; count via the Smith form)",
    ]


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_colorings_modulus_below_one_is_input_error(capsys, modulus):
    code, out, err = run(capsys, "colorings", "--name", "3_1", "--mod", modulus)
    assert code == 2 and out == ""
    assert err.startswith("kh: ") and "modulus must be >= 1" in err


def test_distinguish_json(capsys):
    code, out, _ = run(capsys, "distinguish", "--name", "7_7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 1 and payload["failures"] == []


def test_verify_pass_and_schema(capsys):
    code, out, _ = run(capsys, "verify", "--name", "w6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "name",
        "hypotheses",
        "determinant",
        "factors",
        "partA",
        "partB",
        "partC",
        "failures",
        "pseudo",
    }
    assert payload["factors"] == [40, 8]
    assert payload["partA"] is True
    assert payload["partB"] == {"t": 1, "witnessColumns": [3]}
    assert payload["partC"] == {"s": 2}
    assert payload["pseudo"] == {"found": []}


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--name", "square", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == [[1, 5]]


def test_verify_braid(capsys):
    code, out, _ = run(capsys, "verify", "--braid", "1 1 1")
    assert code == 0 and "pass" in out


def test_verify_all_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "--all-fixtures")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert all(" ok " in line for line in lines)


@pytest.mark.parametrize(
    "extra", [["--name", "3_1", "--base", "3"], ["--base", "0"], ["--pd", "PD[]"], ["--braid", "1"]]
)
def test_verify_all_fixtures_refuses_a_diagram_or_base(capsys, extra):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--all-fixtures", *extra])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and f"--all-fixtures takes no {extra[0]}" in err


def test_verify_all_fixtures_stable(capsys):
    first = run(capsys, "verify", "--all-fixtures", "--json")
    second = run(capsys, "verify", "--all-fixtures", "--json")
    assert first == second


def test_verify_all_fixtures_reads_each_group_off_one_certified_factorization(capsys, monkeypatch):
    calls = []
    for name in ("smith_normal_form", "check_smith_form", "determinant"):
        original = getattr(gkh.coloring, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(gkh.coloring, name, counted)
    code, out, _ = run(capsys, "verify", "--all-fixtures", "--json")
    fixtures = {f["name"]: f for f in json.loads(out)["fixtures"]}
    assert code == 0 and fixtures["split"]["determinant"] == 0
    assert fixtures["split"]["factors"] == [] and fixtures["7_7"]["factors"] == [21]
    # one factorization per fixture, split among them, certified by
    # replaying its record; each determinant is the product of the
    # certified diagonal, and none is computed apart
    assert calls == ["smith_normal_form", "check_smith_form"] * len(fixtures)


def test_pseudo_json(capsys):
    code, out, _ = run(capsys, "pseudo", "--name", "8_19", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [(p["column"], p["epsilon"]) for p in payload["found"]] == [
        (2, 1),
        (5, 1),
        (6, -1),
    ]
    assert payload["tunnel"]["colors"] == [0, 0, 0, -1, 0, 0, 0, 0]


def test_pseudo_empty_on_alternating(capsys):
    code, out, _ = run(capsys, "pseudo", "--name", "4_1")
    assert code == 0 and out.strip() == "no pseudo colorings found"


def test_sum_verifies(capsys):
    code, out, _ = run(capsys, "sum", "3_1_mirror", "3_1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [3, 3]
    assert payload["junctions"] == [[1, 5]]
    assert payload["passed"] is True


def test_fuzz_deterministic(capsys):
    args = ("fuzz", "--seed", "7", "--count", "4", "--max-crossings", "8", "--json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    code, out, _ = first
    assert code == 0 and json.loads(out)["passed"] is True


def test_fuzz_json_has_one_record_per_seed(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--seed", "7", "--count", "4", "--max-crossings", "8", "--json"
    )
    assert code == 0
    records = json.loads(out)["seeds"]
    assert [r["seed"] for r in records] == [7, 8, 9, 10]
    for r in records:
        d = random_alternating_diagram(8, r["seed"])
        report = verify_gkh(d)
        assert r == {
            "seed": r["seed"],
            "crossings": len(d.crossings),
            "determinant": report.group.determinant,
            "s": report.s,
            "t": report.t,
            "ok": report.passed and report.pseudo_free,
        }


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fuzz_count_below_one_is_input_error(capsys, count):
    code, out, err = run(capsys, "fuzz", "--count", count)
    assert code == 2 and out == ""
    assert err.startswith("kh: ") and "at least 1" in err


def test_fuzz_refuses_an_unbounded_crossing_count(capsys):
    # each draw would build a braid word of up to 10^8 letters
    code, out, err = run(capsys, "fuzz", "--count", "2", "--max-crossings", "100000000")
    assert code == 2 and out == ""
    assert err.startswith("kh: ") and "above the limit" in err


def test_unknown_fixture_is_input_error(capsys):
    code, _, err = run(capsys, "det", "--name", "nosuch")
    assert code == 2 and "unknown fixture" in err


def test_bad_braid_is_input_error(capsys):
    code, _, err = run(capsys, "det", "--braid", "1 0 2")
    assert code == 2 and err.startswith("kh:")


def test_zero_determinant_group_is_input_error(capsys):
    code, _, err = run(capsys, "group", "--name", "split")
    assert code == 2 and "determinant 0" in err


def test_zero_determinant_matrix_prints_c_but_not_l(capsys):
    # C exists on a determinant-0 diagram and prints, as C' does; L mod n1
    # and L need n1, which an infinite group does not have
    code, out, err = run(capsys, "matrix", "--name", "split", "--which", "c", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"which": "c", "rows": [[0]]}
    for which in ("lmod", "l"):
        code, out, err = run(capsys, "matrix", "--name", "split", "--which", which)
        assert code == 2 and out == ""
        assert err == "kh: determinant 0: the reduced coloring group is infinite\n"


def test_zero_determinant_pseudo_is_input_error(capsys):
    code, out, err = run(capsys, "pseudo", "--name", "split")
    assert code == 2 and out == ""
    assert err.startswith("kh:") and "determinant 0" in err


def test_det_past_the_prime_table_is_input_error(capsys, monkeypatch):
    # one 4-bit entry, 13 = 3 * 2^2 + 1: 10_123's bound needs more than it
    monkeypatch.setattr(gkh.linalg, "_PROTH", ((3, 2),))
    monkeypatch.setattr(gkh.linalg, "_PRIMES", [])
    code, out, err = run(capsys, "det", "--name", "10_123")
    assert code == 2 and out == ""
    assert err.startswith("kh: the determinant's bound needs a modulus of ")
    assert err.endswith("past the 4 bits of the prime table's product\n")


def test_a_failed_prime_proof_is_not_an_input_error(monkeypatch):
    # a certificate failure surfaces as a traceback, not as exit 2
    monkeypatch.setattr(gkh.linalg, "_PROTH", ((2063, 68),))
    monkeypatch.setattr(gkh.linalg, "_PRIMES", [])
    with pytest.raises(LinalgError, match="not proven prime"):
        main(["det", "--name", "3_1"])


def test_verify_json_reports_inverse_pseudos(capsys):
    code, out, _ = run(capsys, "verify", "--name", "8_19", "--json")
    assert code in (0, 1)
    found = json.loads(out)["pseudo"]["found"]
    assert [(p["column"], p["epsilon"]) for p in found] == [(2, 1), (5, 1), (6, -1)]


def test_unknown_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_stdin_braid(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1 1"))
    code, out, _ = run(capsys, "det")
    assert code == 0 and out.strip() == "3"


def test_stdin_pd(capsys, monkeypatch):
    # every form parse_pd accepts: PD[...], pd[...] and a bare X list
    for text, det in [
        ("PD[X(2,1,1,2)]", "1"),
        ("pd[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)]", "3"),
        ("X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)", "3"),
        ("  x[1,5,2,4] x[3,1,4,6] x[5,3,6,2]\n", "3"),
    ]:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "det")
        assert (code, out) == (0, det + "\n"), text


def test_stdin_empty_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "det")
    assert code == 2 and "no input" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["det", "--pd", "PD[X(1,2,3,4\u00b2)]"], "at position 12"),
        (["det", "--pd", "PD[X(1,5,2,4),X(3,1,4,6),X(\u0665,3,6,2)]"], "at position 27"),
        (["det", "--pd", "PD[X(1,2,3," + "1" * 5000 + ")]"], "too long at position 11"),
        (["det", "--braid", "1_1"], "bad braid letter '1_1'"),
        (["group", "--braid", "strands=3; 1 \u0662"], "bad braid letter"),
    ],
)
def test_non_decimal_input_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("kh: ") and message in err


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (["det", "--name", "3_1"], ["group", "--name", "3_1"], ["det", "--braid", "1 1 1"]):
        assert main(argv) == 0
    one_tree = list(built)
    built.clear()
    build_parser.__wrapped__()
    assert one_tree == built and len(built) == 11  # kh and its 10 subcommands


def test_defaults_do_not_leak_between_calls(capsys, monkeypatch):
    bases = []
    verify = gkh.cli.verify_gkh

    def spy(d, name, base):
        bases.append(base)
        return verify(d, name=name, base=base)

    monkeypatch.setattr(gkh.cli, "verify_gkh", spy)
    code, first, _ = run(capsys, "verify", "--name", "3_1", "--base", "1", "--json")
    assert code == 0 and json.loads(first)["partA"] is True
    code, second, _ = run(capsys, "verify", "--name", "3_1")
    assert code == 0 and second.startswith("3_1: pass")
    assert bases == [1, None]

    code, fresh, _ = run(capsys, "matrix", "--name", "3_1")
    run(capsys, "matrix", "--name", "3_1", "--which", "lmod", "--json")
    code, again, _ = run(capsys, "matrix", "--name", "3_1")
    assert code == 0 and again == fresh == str(crossing_matrix(fixture_diagram("3_1"))) + "\n"


def test_usage_error_exits_2_on_every_call(capsys):
    for _ in range(3):
        with pytest.raises(SystemExit) as info:
            main(["nonsense"])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err
    assert run(capsys, "det", "--name", "3_1")[:2] == (0, "3\n")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["fuzz", "--help"]])
def test_help_matches_a_fresh_parser(capsys, argv):
    outputs = []
    for parse in (main, main, build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0].startswith("usage: kh")


def test_repeated_commands_do_not_grow_the_process():
    # With the parser built once, a process running many commands may go
    # long without a full collection, the only thing that empties CPython's
    # tuple free lists; a tuple built from a generator is resized and, once
    # freed, stays on such a list, so building them on every command grew
    # the process with each one. Inputs stay below 20 arcs: CPython 3.11
    # keeps every freed 20-item tuple, up to 2000 of them.
    commands = [
        ["det", "--braid", "1 -2 1 -2 1 -2 3 -2 3"],
        ["group", "--braid", "1 1 1 2 -1 2 2"],
        ["distinguish", "--braid", "1 -2 1 -2 1 -2"],
        ["verify", "--braid", "1 1 1 1 1"],
        ["pseudo", "--name", "8_19"],
    ]

    def rounds(n):
        for _ in range(n):
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) in (0, 1)

    rounds(3)
    tracemalloc.start()
    try:
        rounds(2)
        before = tracemalloc.get_traced_memory()[0]
        rounds(40)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000, f"{grown} bytes more after 40 rounds of {len(commands)} commands"


def test_closed_pipe_exits_quietly():
    # like `kh matrix ... --which l --json | head -c 100`: the L of a
    # 120-crossing turks head prints about 190 kB, more than a pipe holds,
    # so kh is still writing when its reader goes away
    src = Path(gkh.cli.__file__).resolve().parent.parent
    braid = " ".join(["1 -2"] * 60)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkh.cli", "matrix", "--braid", braid, "--which", "l", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == gkh.cli.EXIT_BROKEN_PIPE == 141
    assert head.startswith(b'{"which": "l", "rows": [[')
    assert err == b""

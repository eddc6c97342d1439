import io
import json
from pathlib import Path

import pytest

from quasiring import cli, topology
from quasiring.cli import main

SPEC = "space Z discrete 2\nalgebra Y zmod 3\nring R = C(Z, Y)\n"
SPECS = Path(__file__).resolve().parent / "specs"


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.qr"
    p.write_text(SPEC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys, spec_file):
    code, out, _ = run(capsys, "analyze", spec_file)
    assert code == 0
    assert "quasi_components" in out


def test_analyze_json_schema(capsys, spec_file):
    code, out, _ = run(capsys, "analyze", spec_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["rings"][0]["elements"] == 9
    # round trip: serialized output parses back to the same structure
    assert json.loads(json.dumps(payload)) == payload


def _refuse(space):
    raise AssertionError("analyze enumerated the clopen family")


def test_analyze_counts_the_clopens_without_listing_them(
        capsys, tmp_path, monkeypatch):
    big = tmp_path / "d12.qr"
    big.write_text("space Z discrete 12\nalgebra Y zmod 2\nring R = C(Z, Y)\n")
    monkeypatch.setattr(topology, "clopen_family", _refuse)
    assert not hasattr(cli, "clopen_family")
    counted = 0
    for spec in [big, *sorted(SPECS.glob("*.qr"))]:
        code, out, _ = run(capsys, "analyze", str(spec), "--json")
        assert code == 0
        for entry in json.loads(out)["rings"]:
            if "quasi_components" in entry:
                assert entry["clopen_count"] == 2 ** len(
                    entry["quasi_components"])
                counted += 1
    assert counted == 14


SEQ = str(SPECS / "seq.qr")


@pytest.mark.parametrize("orders", [
    [("analyze", SEQ, "--json"), ("analyze", "--json", SEQ)],
    [("check", "T34", SEQ, "--seed", "1"),
     ("check", "--seed", "1", "T34", SEQ),
     ("check", "T34", "--seed", "1", SEQ)],
])
def test_options_may_precede_or_split_the_positionals(capsys, orders):
    first, *others = orders
    expected = run(capsys, *first)
    assert expected[0] == 0
    for argv in others:
        assert run(capsys, *argv) == expected


def test_json_flag_between_a_checker_id_and_the_spec(capsys):
    code, out, _ = run(capsys, "check", "T34", "--json", SEQ)
    assert code == 0
    assert [r["checker"] for r in json.loads(out)["reports"]] == ["T34"] * 2


def test_ideals_lists_primes(capsys, spec_file):
    code, out, _ = run(capsys, "ideals", spec_file, "--json")
    payload = json.loads(out)
    assert code == 0
    entry = payload["rings"][0]
    assert entry["complete"]
    assert len(entry["primes"]) == 2
    assert entry["prime_radical"] == [[0, 0]]


def test_check_pass_exit_zero(capsys, spec_file):
    code, out, _ = run(capsys, "check", "T34", spec_file)
    assert code == 0
    assert "PASS" in out


def test_check_fail_exit_one(capsys, tmp_path):
    p = tmp_path / "s.qr"
    p.write_text("space Z discrete 3\nalgebra Y zmod 2\nring R = C(Z, Y)\n")
    code, out, _ = run(capsys, "check", "T26", str(p))
    assert code == 1
    assert "FAIL" in out and "witness=" in out


def test_check_ids_from_spec_directive(capsys, tmp_path):
    p = tmp_path / "s.qr"
    p.write_text(SPEC + "check T34 T5\n")
    code, out, _ = run(capsys, "check", str(p), "--json")
    payload = json.loads(out)
    assert code == 0
    assert {r["checker"] for r in payload["reports"]} == {"T34", "T5"}


def test_spec_file_named_like_a_checker_id(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "T5").write_text(SPEC)
    code, out, _ = run(capsys, "check", "T34", "T5", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [(r["checker"], r["instance"]) for r in payload["reports"]] == [
        ("T34", "R")]


def test_check_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SPEC))
    code, out, _ = run(capsys, "check", "T34", "-")
    assert code == 0


def test_parse_error_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.qr"
    p.write_text("space Z discrete\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert "expected" in err


def test_empty_opens_block_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "empty.qr"
    p.write_text("algebra Y zmod 2\nspace S opens { }\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert err.strip().splitlines() == [
        "quasiring: 2:9: an opens block needs at least one point"]


@pytest.mark.parametrize("command", [("analyze",), ("ideals",),
                                     ("check", "all")])
def test_discrete_space_without_points_is_a_parse_error(capsys, tmp_path,
                                                        command):
    p = tmp_path / "d0.qr"
    p.write_text("space Z discrete 0\nalgebra Y zmod 2\nring R = C(Z, Y)\n")
    code, _, err = run(capsys, *command, str(p))
    assert code == 2
    assert err.strip().splitlines() == [
        "quasiring: 1:18: a discrete space needs at least one point"]


@pytest.mark.parametrize("modulus", ["0", "1"])
@pytest.mark.parametrize("command", [("analyze",), ("ideals",),
                                     ("check", "all")])
def test_zmod_below_two_is_a_parse_error(capsys, tmp_path, command, modulus):
    p = tmp_path / "z.qr"
    p.write_text(f"space Z discrete 2\nalgebra Y zmod {modulus}\n"
                 "ring R = C(Z, Y)\n")
    code, out, err = run(capsys, *command, str(p))
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == [
        "quasiring: 2:16: zmod needs a modulus of at least 2"]


def test_spec_errors_are_reported_in_source_order(capsys, tmp_path):
    p = tmp_path / "order.qr"
    p.write_text("algebra Y table 2 { 0 1 1 1 }\nspace Z discrete\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert err == "quasiring: declared zero is not left-absorbing\n"
    p.write_text("space Z discrete 2000\nfoo\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert "budget 1048576" in err


def test_missing_file_exit_two(capsys):
    code, _, _ = run(capsys, "analyze", "/does/not/exist.qr")
    assert code == 2


def test_unknown_checker_exit_two(capsys, spec_file):
    code, _, err = run(capsys, "check", "T5.9", spec_file)
    assert code == 2
    assert "unknown checker" in err


def test_budget_env_override(capsys, spec_file, monkeypatch):
    monkeypatch.setenv("QUASIRING_BUDGET", "2")
    code, _, err = run(capsys, "analyze", spec_file)
    assert code == 3
    assert "budget" in err


def test_budget_env_must_be_an_integer(capsys, spec_file, monkeypatch):
    monkeypatch.setenv("QUASIRING_BUDGET", "abc")
    code, out, err = run(capsys, "analyze", spec_file)
    assert (code, out) == (2, "")
    assert err == "quasiring: QUASIRING_BUDGET='abc' is not an integer\n"


def test_check_reads_its_rings_under_the_budget(capsys, monkeypatch):
    # C(discrete 21, Z_2) has 2^21 elements, past the default budget
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "space Z discrete 21\nalgebra Y zmod 2\nring R = C(Z, Y)\n"))
    code, out, err = run(capsys, "check", "T11", "-", "--budget", "4000000")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["T11  PASS               R",
                                'summary: {"PASS": 1}']


def test_unknown_checker_in_a_check_directive_exit_two(capsys, tmp_path):
    p = tmp_path / "s.qr"
    p.write_text(SPEC + "check T34 T99\n")
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err == "quasiring: unknown checker id(s): T99\n"


def test_ideals_past_the_lattice_budget_exit_three(capsys, tmp_path):
    p = tmp_path / "s.qr"
    p.write_text("space Z discrete 3\nalgebra Y table 2 { 0 0 0 0 }\n"
                 "ring R = C(Z, Y)\n")
    code, out, _ = run(capsys, "ideals", str(p), "--budget", "8", "--json")
    assert code == 3
    assert json.loads(out)["rings"] == [
        {"ring": "R", "mode": "multiplicative", "complete": False,
         "ideal_count": 9}]


def test_check_without_rings_reports_no_checks(capsys, tmp_path):
    p = tmp_path / "s.qr"
    p.write_text("space Z discrete 2\nalgebra Y zmod 2\n")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    assert out == "0 checks\nsummary: {}\n"


def test_budget_flag_beats_env(capsys, spec_file, monkeypatch):
    monkeypatch.setenv("QUASIRING_BUDGET", "2")
    code, _, _ = run(capsys, "analyze", spec_file, "--budget", "100000")
    assert code == 0


def test_generate_success(capsys):
    code, out, _ = run(capsys, "generate", "--primes", "3",
                       "--algebra", "zmod:2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["proper_primes"] == 3
    assert payload["verified"]


def test_generate_refused_zero_divisors(capsys):
    code, out, _ = run(capsys, "generate", "--primes", "2",
                       "--algebra", "zmod:4", "--json")
    payload = json.loads(out)
    assert code == 1
    assert payload["witness"] == [2, 2]


@pytest.mark.parametrize("argv", [
    ("--primes", "0"),
    ("--primes", "2", "--algebra", "zmod:1"),
])
def test_generate_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "generate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("quasiring: ")


def test_space_past_the_budget_exit_three(capsys, tmp_path):
    p = tmp_path / "big.qr"
    p.write_text("space Z discrete 22\nalgebra Y zmod 2\nring R = C(Z, Y)\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert "budget 1048576" in err


def test_discrete_21_is_built_but_its_ring_refused(capsys, tmp_path):
    p = tmp_path / "d21.qr"
    p.write_text("space Z discrete 21\nalgebra Y zmod 2\nring R = C(Z, Y)\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert "budget 1048576" in err


def test_fuzz_small(capsys):
    code, out, _ = run(capsys, "fuzz", "--instances", "2", "--seed", "5",
                       "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["failures"] == []


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2

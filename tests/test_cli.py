import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fgl.cli import main
from fgl.fixtures import load_fixture_table, reproduce


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bp_log_text(capsys):
    code, out, err = _run(capsys, "bp", "log", "--prime", "2", "--upto", "2")
    assert code == 0
    assert out == "l_1 = 1/2*v1\nl_2 = 1/2*v2 + 1/4*v1^3\n"


def test_bp_log_closed_matches_recursive(capsys):
    _, out1, _ = _run(capsys, "bp", "log", "--prime", "2", "--upto", "4")
    _, out2, _ = _run(capsys, "bp", "log", "--prime", "2", "--upto", "4", "--method", "closed")
    assert out1 == out2


def test_abel_coeffs(capsys):
    code, out, _ = _run(capsys, "abel", "coeffs", "--upto", "3")
    assert code == 0
    assert out == "a_3 = -2/3*a1*a2\n"


def test_morava_fgl_methods_agree(capsys):
    _, out1, _ = _run(capsys, "morava", "fgl", "--prime", "3", "--height", "1", "--degree", "7")
    _, out2, _ = _run(
        capsys, "morava", "fgl", "--prime", "3", "--height", "1", "--degree", "7",
        "--method", "rational",
    )
    assert out1 == out2


def test_json_output_is_valid(capsys):
    code, out, _ = _run(capsys, "--format", "json", "bp", "coeff", "--prime", "2", "-i", "2", "-j", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["ring"] == "Q"
    assert obj["terms"][0]["coeff"] == "-3"


def test_kernel_json_schema(capsys):
    code, out, _ = _run(capsys, "--format", "json", "ptypical", "kernel", "--max-weight", "12")
    assert code == 0
    obj = json.loads(out)
    for row in obj["weights"]:
        assert set(row) == {"weight", "monomial_count", "rank", "relations", "mod2"}
        assert row["monomial_count"] == row["rank"] + len(row["relations"])
    row9 = obj["weights"][8]
    assert row9["weight"] == 9
    assert row9["mod2"] == ["v1^3*v2^2"]
    # at weight 12 the kernel is spanned by multiples of the weight-9
    # relation: generators present, none minimal
    row12 = obj["weights"][11]
    assert len(row12["relations"]) > 0
    assert row12["mod2"] == []


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bp", "log", "--prime", "2", "--upto", "4", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["abel", "membership", "--poly", "a", "--pairs", "2"],
        ["abel", "membership", "--poly", "a", "--pairs", ""],
        ["abel", "membership", "--poly", "a", "--pairs", "2,1;"],
        ["bp", "express-v", "--prime", "2", "-n", "2", "--k-seq", "1,x"],
    ],
    ids=["pairs-no-comma", "pairs-empty", "pairs-trailing-semicolon", "k-seq-not-int"],
)
def test_malformed_list_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "morava approx --kind wp --height 1 --degree 8",
        "morava fgl --prime 6 --height 1 --degree 12",
        "morava fgl --prime 4 --height 1 --degree 8 --method rational",
        "bp log --prime 4 --upto 3",
        "ptypical kernel --max-weight 0",
        "ptypical conjecture --max-weight 0",
        "morava fgl --prime 2 --height 1 --degree 0",
        "morava fgl --prime 2 --height 1 --degree -4",
        "morava approx --kind wp --prime 2 --height 2 --degree 0",
        "morava approx --kind bv --height 2 --degree -1",
        "abel membership --poly 1/0 --pairs 2,1",
        "abel membership --poly a^x --pairs 2,1",
        "abel membership --poly a^-1 --pairs 2,1",
        "ptypical genfun --upto -1",
        "abel log --upto 0 --method product",
        "abel log --upto 0 --method uv",
        "bp coeff --prime 1 -i 1 -j 1",
        "ptypical images --prime 4 --upto 2",
        "ptypical images --prime 1 --upto 2",
        "ptypical kernel --max-weight 5 --n-max 0",
        "bp log --prime 2 --upto -1 --method closed",
    ],
    ids=[
        "wp-height-1",
        "ravenel-prime-6",
        "rational-prime-4",
        "bp-prime-4",
        "kernel-weight-0",
        "conjecture-weight-0",
        "ravenel-degree-0",
        "ravenel-degree-negative",
        "wp-degree-0",
        "bv-degree-negative",
        "poly-zero-denominator",
        "poly-exponent-not-int",
        "poly-exponent-negative",
        "genfun-upto-negative",
        "log-product-upto-0",
        "log-uv-upto-0",
        "bp-coeff-prime-1",
        "images-prime-4",
        "images-prime-1",
        "kernel-n-max-0",
        "bp-log-closed-upto-negative",
    ],
)
def test_domain_error_exit_1(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_membership_cli(capsys):
    code, out, _ = _run(
        capsys, "abel", "membership", "--poly", "a*b", "--pairs", "2,1;5,3"
    )
    assert code == 0
    assert "pass" in out


def test_reproduce_passes(capsys):
    code, out, _ = _run(capsys, "reproduce")
    assert code == 0
    assert "fixtures pass" in out
    assert "[FAIL]" not in out


def test_reproduce_deterministic(capsys):
    code1, out1, _ = _run(capsys, "reproduce")
    code2, out2, _ = _run(capsys, "reproduce")
    assert (code1, out1) == (code2, out2)
    code1, json1, _ = _run(capsys, "--format", "json", "reproduce")
    code2, json2, _ = _run(capsys, "--format", "json", "reproduce")
    assert json1 == json2
    json.loads(json1)


def test_reproduce_catches_corrupted_fixture(tmp_path, capsys):
    table = load_fixture_table()
    table[0]["expected"] = "corrupted-on-purpose"
    bad = tmp_path / "fixtures.json"
    bad.write_text(json.dumps(table))
    code, out, _ = _run(capsys, "reproduce", "--fixtures", str(bad))
    assert code == 1
    assert "[FAIL]" in out
    assert "expected: corrupted-on-purpose" in out
    assert "computed:" in out


@pytest.mark.parametrize(
    "content",
    [None, "not json {", "{}", "[]", '[{"id": "x"}]'],
    ids=["missing", "not-json", "not-a-list", "empty", "entry-without-expected"],
)
def test_reproduce_unreadable_fixtures_is_domain_error(tmp_path, capsys, content):
    path = tmp_path / "fixtures.json"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, "reproduce", "--fixtures", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read fixtures {path}: ")
    assert "Traceback" not in err


def test_reproduce_duplicate_fixture_id_is_domain_error(tmp_path, capsys):
    table = load_fixture_table()
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(table + table[:1]))
    code, out, err = _run(capsys, "reproduce", "--fixtures", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: duplicate fixture id {table[0]['id']}\n"


def test_fixture_table_ids_unique_and_covered():
    table = load_fixture_table()
    ids = [e["id"] for e in table]
    assert len(ids) == len(set(ids))
    report = reproduce()
    assert {r.id for r in report.results} == set(ids)
    assert all(r.computed != "NO PRODUCER" for r in report.results)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["--out", str(target), "morava", "witt", "-n", "6"])
    assert code == 0
    assert target.read_text() == "W^(6) = -x*y^5 - 3*x^2*y^4 - 4*x^3*y^3 - 3*x^4*y^2 - x^5*y\n"


def test_out_flag_unwritable_path_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = _run(capsys, "--out", str(target), "morava", "witt", "-n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_global_flags_accepted_after_subcommand(tmp_path, capsys):
    code, out1, _ = _run(capsys, "--format", "json", "bp", "coeff", "--prime", "2", "-i", "1", "-j", "1")
    assert code == 0
    code, out2, _ = _run(capsys, "bp", "coeff", "--prime", "2", "-i", "1", "-j", "1", "--format", "json")
    assert code == 0
    assert out1 == out2
    target = tmp_path / "w.txt"
    code = main(["morava", "witt", "-n", "2", "--out", str(target)])
    assert code == 0
    assert target.read_text() == "W^(2) = -x*y\n"


def test_python_m_fgl_matches_in_process_main(capsys):
    argv = ["morava", "witt", "-n", "3"]
    _, expected, _ = _run(capsys, *argv)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "fgl", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

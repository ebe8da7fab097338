"""Command-line front end: outputs, formats, exit codes, error hygiene."""

import hashlib
import json
import subprocess
import sys

import pytest

from quiverdt.cli import main
from quiverdt.quiver import a2_quiver, jordan_quiver, point_quiver, quiver_to_dict


@pytest.fixture()
def jordan_file(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(quiver_to_dict(jordan_quiver())), encoding="utf-8")
    return str(path)


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(quiver_to_dict(a2_quiver())), encoding="utf-8")
    return str(path)


@pytest.fixture()
def stability_file(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"re": {"1": "-1", "2": "0"}}), encoding="utf-8")
    return str(path)


def test_kac_reports_q(jordan_file, capsys):
    assert main(["kac", "--quiver", jordan_file, "--dim", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kac"] == {"1": "1"}
    assert data["dim"] == "2"


def test_census_matches_frozen_example(jordan_file, capsys):
    code = main(
        ["census", "--quiver", jordan_file, "--dim", "2", "--p", "2",
         "--relations", "preprojective"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["point_count"] == "88"
    assert data["stack_count"] == "44/3"


def test_hilb3_at_q_one(capsys):
    assert main(["hilb3", "--order", "5", "--at-q", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [data["coefficients"][str(n)] for n in range(6)] == [
        "1", "1", "3", "6", "13", "24"
    ]


def test_hilb3_polynomial_output(capsys):
    assert main(["hilb3", "--order", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"]["1"] == {"3": "1"}
    assert data["coefficients"]["2"] == {"2": "1", "4": "1", "6": "1"}


def test_charstack_series(capsys):
    assert main(["charstack", "--order", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_dim = {tuple(e["dim"]): e for e in data["series"]}
    assert by_dim[(1,)]["num"] == {"0": "-1", "2": "1"}


def test_series_subcommand(a2_file, capsys):
    assert main(["series", "--quiver", a2_file, "--order", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["variables"] == ["t_1", "t_2"]
    by_dim = {tuple(e["dim"]): e for e in data["series"]}
    assert (1, 0) in by_dim and (0, 1) in by_dim


def test_hn_subcommand(a2_file, stability_file, capsys):
    code = main(
        ["hn", "--quiver", a2_file, "--stability", stability_file,
         "--dim", "1,1", "--p", "2"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["semistable_stack_count"] == "1"


def test_wallcross_subcommand(a2_file, stability_file, capsys):
    code = main(
        ["wallcross", "--quiver", a2_file, "--stability", stability_file,
         "--p", "2", "--order", "2"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_nakajima_subcommand(jordan_file, capsys):
    code = main(["nakajima", "--quiver", jordan_file, "--dim", "1", "--order", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weights"]["2"] == {"3": "1", "4": "1"}


@pytest.mark.parametrize(
    "args, digest",
    [
        ("charstack --order 10", "3b841ec4c326816db030615c522b6926ec2a23b4099bcdb3d4546c72add7ca07"),
        ("hilb3 --order 10", "8d6e48e8b5835ce031c9c22e4bf0eca23be01c21592368ce50f9a8a86ac6b820"),
        ("series --quiver {jordan} --order 2",
         "3ea5125bbd7a4248c9a9198f304387b3a670632e3b115a8955fe05dbcb5f0e45"),
        ("series --quiver {a2} --order 3 --kac-factor q/(q-1)",
         "5def323b85f68085f4142d827b7abc2338fd57d606c3da5908ffcc1139113836"),
        ("series --quiver {a2} --order 3 --kac-factor 1/(q-1)",
         "d6bf5c43ab4d447a74be82ed23c04dce63b27304a1dd30726de282c79eefabab"),
    ],
)
def test_series_output_bytes_pinned(args, digest, jordan_file, a2_file, capsys):
    # the canonical form of a rational function is unique, so these bytes
    # are fixed whichever route (trial division or Euclid) canonicalises it
    assert main(args.format(jordan=jordan_file, a2=a2_file).split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_csv_format(capsys):
    assert main(["hilb3", "--order", "1", "--at-q", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "coefficients.1,1" in lines


def test_byte_identical_reruns(jordan_file, tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["kac", "--quiver", jordan_file, "--dim", "2", "--out", out1]) == 0
    assert main(["kac", "--quiver", jordan_file, "--dim", "2", "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2 and b1


def test_missing_file_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(
        ["kac", "--quiver", str(tmp_path / "absent.json"), "--dim", "2",
         "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert "absent.json" in capsys.readouterr().err


def test_malformed_quiver_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["kac", "--quiver", str(bad), "--dim", "2"]) == 2


def test_bad_dim_exits_2_names_flag(jordan_file, capsys):
    assert main(["census", "--quiver", jordan_file, "--dim", "2,1", "--p", "2"]) == 2
    assert "--dim" in capsys.readouterr().err


def test_cap_exhaustion_exits_3_and_writes_nothing(jordan_file, tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(
        ["kac", "--quiver", jordan_file, "--dim", "2", "--point-budget", "10",
         "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()
    assert "budget" in capsys.readouterr().err


def test_end_system_too_wide_exits_3_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(quiver_to_dict(point_quiver())), encoding="utf-8")
    out = tmp_path / "never.json"
    code = main(["census", "--quiver", str(path), "--dim", "8", "--p", "2", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "endomorphism system columns" in err
    assert "fixed limit of rref_mod" in err
    assert "budget" not in err


def test_unknown_subcommand_usage_error(jordan_file):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate", "--quiver", jordan_file])
    assert ei.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["hilb3", "--order", "2", "--workers", "2"], ["charstack", "--order", "2", "--point-budget", "9"]],
)
def test_flag_the_subcommand_never_reads_is_usage_error(argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2


def test_composite_prime_rejected(jordan_file, capsys):
    code = main(["kac", "--quiver", jordan_file, "--dim", "2", "--primes", "2,3,4,5"])
    assert code == 2


def test_subprocess_entry_point(jordan_file):
    proc = subprocess.run(
        [sys.executable, "-m", "quiverdt.cli", "kac", "--quiver", jordan_file,
         "--dim", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kac"] == {"1": "1"}


def test_qdt_workers_env(monkeypatch):
    from quiverdt.cli import _workers_default

    monkeypatch.setenv("QDT_WORKERS", "4")
    assert _workers_default() == 4
    monkeypatch.setenv("QDT_WORKERS", "not-a-number")
    assert _workers_default() == 1
    monkeypatch.delenv("QDT_WORKERS")
    assert _workers_default() == 1

import csv
import io
import json

import pytest

import sudfdr
from sudfdr import exact
from sudfdr.cli import EXIT_FAIL, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, __version__, main
from sudfdr.steck import PrecisionError


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    header = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return header, rows


def test_fdr_sweep_csv_header_and_rows(capsys):
    code, out, _ = _run(capsys, "fdr-sweep")
    assert code == EXIT_OK
    header, rows = _parse_csv(out)
    assert header[0] == f"# sudfdr {__version__}"
    assert header[1].startswith("# config: ")
    assert json.loads(header[1][len("# config: ") :])["m"] == 10
    assert header[2].startswith("# seed: ")
    # 3 alternatives x 10 lambdas
    assert len(rows) == 30
    identity_lsu = [r for r in rows if r["F"] == "identity" and r["lambda"] == "10"]
    assert float(identity_lsu[0]["fdr_exact"]) == pytest.approx(0.35, abs=1e-8)


def test_fdr_sweep_json_format(capsys):
    code, out, _ = _run(capsys, "fdr-sweep", "--format", "json", "--set", "lambdas=[4]")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tool"] == "sudfdr" and doc["version"] == __version__
    assert len(doc["rows"]) == 3
    by_f = {r["F"]: r["fdr_exact"] for r in doc["rows"]}
    assert by_f["identity"] > by_f["dirac_zero"]


def test_set_overrides_nested_and_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "RM", "pi0": 0.5, "lambdas": [10]}))
    code, out, _ = _run(
        capsys,
        "fdr-sweep",
        "--config",
        str(cfg_path),
        "--set",
        'alternatives=[{"kind": "gaussian", "mu": 2.0}]',
        "--format",
        "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["pi0"] == 0.5
    (row,) = doc["rows"]
    assert row["mu"] == 2.0
    assert row["fdr_exact"] == pytest.approx(0.25, abs=1e-8)


def test_out_file_written(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = _run(capsys, "fdp-dist", "--out", str(dest))
    assert code == EXIT_OK and out == ""
    header, rows = _parse_csv(dest.read_text())
    assert len(rows) == 21  # bins + 1 (atom at 1)
    total = sum(float(r["mass"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_bound_command(capsys):
    code, out, _ = _run(
        capsys,
        "bound",
        "--format",
        "json",
        "--set",
        "m=[100, 1000]",
        "--set",
        "delta=[0.05]",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == [100, 1000]
    assert all(r["u_minus"] <= r["u_plus"] for r in rows)
    assert rows[1]["gap_bound"] <= rows[0]["gap_bound"]


def test_bound_rm_branch(capsys):
    code, out, _ = _run(
        capsys, "bound", "--format", "json", "--set", "model=RM", "--set", "m=[10000]"
    )
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert 0 <= row["gap_bound"]
    assert isinstance(row["vacuous"], bool)


def test_counterexample_passes(capsys):
    code, out, _ = _run(capsys, "counterexample")
    assert code == EXIT_OK
    assert out.strip().endswith("PASS")
    assert "VIOLATED" not in out
    assert sum("[OK]" in line for line in out.splitlines()) == 8


def test_validate_small_grid(capsys):
    cases = json.dumps([{"model": "FM", "m0": 7, "F": {"kind": "identity"}}])
    code, out, _ = _run(
        capsys,
        "validate",
        "--n",
        "20000",
        "--set",
        f"cases={cases}",
        "--set",
        "lambdas=[10]",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert row["passed"] is True
    assert abs(row["z"]) <= 4.0


def test_empty_lambda_set_is_usage_error(capsys):
    code, _, err = _run(capsys, "fdr-sweep", "--set", "lambdas=[]")
    assert code == EXIT_USAGE
    assert "error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = _run(capsys, "bogus")
    assert code == EXIT_USAGE
    assert err


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code, _, err = _run(capsys, "fdr-sweep", "--config", str(bad))
    assert code == EXIT_USAGE
    missing = tmp_path / "missing.json"
    code, _, _ = _run(capsys, "fdr-sweep", "--config", str(missing))
    assert code == EXIT_USAGE


def test_malformed_set_flag(capsys):
    code, _, err = _run(capsys, "fdr-sweep", "--set", "novalue")
    assert code == EXIT_USAGE
    assert "KEY=VALUE" in err


def test_degenerate_bound_zeta(capsys):
    code, _, err = _run(capsys, "bound", "--set", "zeta=[0.999]", "--set", "m=[10]")
    assert code == EXIT_USAGE
    assert "degenerate" in err


def test_precision_failure_exit_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise PrecisionError("mass check failed")

    monkeypatch.setattr(exact, "sud_joint_masses", exhausted)
    code, out, err = _run(capsys, "fdr-sweep", "--set", "lambdas=[4]")
    assert code == EXIT_PRECISION == 2
    assert "precision failure" in err
    assert out == ""


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"sudfdr {sudfdr.__version__}"

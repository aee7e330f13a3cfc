import csv
import importlib
import io
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import sudfdr
from sudfdr import exact
from sudfdr import cli
from sudfdr.cli import EXIT_FAIL, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, __version__, main
from sudfdr.exact import PrecisionError


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
    assert len(header) == 2  # the exact commands read no seed
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


_COUNTEREXAMPLE = """\
sudfdr {version} counterexample check: m=10, alpha=0.5
FM lambda= 1: uniform=0.2808841425 point_mass_zero=0.3298504636 [context]
FM lambda= 4: uniform=0.3429808435 point_mass_zero=0.3298504636 [OK]
FM lambda= 5: uniform=0.3466848373 point_mass_zero=0.3361279355 [OK]
FM lambda= 6: uniform=0.3485612602 point_mass_zero=0.3424511178 [OK]
FM lambda= 7: uniform=0.3494611262 point_mass_zero=0.3467169451 [OK]
FM lambda=10: uniform=0.3500000000 point_mass_zero=0.3500000000 [context]
RM lambda= 1: uniform=0.2808841425 point_mass_zero=0.3241637939 [context]
RM lambda= 4: uniform=0.3429808435 point_mass_zero=0.3340604416 [OK]
RM lambda= 5: uniform=0.3466848373 point_mass_zero=0.3391610413 [OK]
RM lambda= 6: uniform=0.3485612602 point_mass_zero=0.3436398259 [OK]
RM lambda= 7: uniform=0.3494611262 point_mass_zero=0.3469299843 [OK]
RM lambda=10: uniform=0.3500000000 point_mass_zero=0.3500000000 [context]
PASS
"""


def test_counterexample_fills_the_slot_once_per_problem(monkeypatch, capsys):
    # the six orders of each (model, F) problem run together, so each of its
    # two count directions runs once; the lines are those of the orders run
    # with the alternatives in alternation
    counts = []

    def counting(count):
        def wrapped(*args):
            counts.append(args[1:])
            return count(*args)

        return wrapped

    for name in ("_sd_fm_masses", "_sd_rm_masses"):
        monkeypatch.setattr(exact, name, counting(getattr(exact, name)))
    monkeypatch.setattr(exact, "_slot", None)
    code, out, _ = _run(capsys, "counterexample")
    assert code == EXIT_OK
    assert out == _COUNTEREXAMPLE.format(version=__version__)
    assert len(counts) <= 2 * 4  # two directions per fill, four problems


def test_counterexample_out_file(tmp_path, capsys):
    dest = tmp_path / "check.txt"
    code, out, _ = _run(capsys, "counterexample", "--out", str(dest))
    assert code == EXIT_OK and out == ""
    assert dest.read_text().strip().endswith("PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--set", "m=20"],
        ["counterexample", "--format", "json"],
        ["counterexample", "--n", "5"],
        ["bound", "--n", "7"],
        ["fdr-sweep", "--n", "7"],
        ["fdp-dist", "--n", "7"],
        ["fdr-sweep", "--seed", "1"],
    ],
)
def test_flag_a_command_does_not_read_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "unrecognized arguments" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fdr-sweep", ["--out", "--config", "--set", "--format"]),
        ("fdp-dist", ["--out", "--config", "--set", "--format"]),
        ("bound", ["--out", "--config", "--set", "--format"]),
        ("counterexample", ["--out"]),
        ("validate", ["--out", "--config", "--set", "--seed", "--format", "--n"]),
    ],
)
def test_help_lists_only_the_flags_a_command_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    listed = [word.strip("[]") for word in usage.split() if word.startswith("[--")]
    assert listed == flags


@pytest.mark.parametrize(
    "argv",
    [
        ["fdr-sweep", "--set", "lambdas=[4.7]"],
        ["fdr-sweep", "--set", "m=10.7"],
        ["fdr-sweep", "--set", "m0=7.0"],
        ["fdr-sweep", "--set", "m0=true"],
        ["fdp-dist", "--set", "lambda=4.7"],
        ["fdp-dist", "--set", "bins=2.5"],
        ["fdp-dist", "--set", "lambda=true"],
        ["bound", "--set", "m=[100.9]"],
        ["validate", "--set", "n=100.5"],
        ["validate", "--n", "100", "--set", "m=10.0"],
    ],
)
def test_non_integer_config_value_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "must be an integer" in err
    assert out == ""


def test_only_validate_writes_a_seed(capsys):
    cases = json.dumps([{"model": "FM", "m0": 7, "F": {"kind": "identity"}}])
    argv = ["validate", "--n", "100", "--seed", "5", "--set", f"cases={cases}", "--set", "lambdas=[10]"]
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    assert _parse_csv(out)[0][2] == "# seed: 5"
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["seed"] == 5
    code, out, _ = _run(capsys, "bound", "--format", "json")
    assert code == EXIT_OK and "seed" not in json.loads(out)


def test_repeated_orders_are_computed_once(capsys):
    code, out, _ = _run(capsys, "fdr-sweep", "--format", "json", "--set", "lambdas=[4,4,2]")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(r["F"], r["lambda"]) for r in rows] == [
        (F, lam) for F in ("dirac_zero", "gaussian", "identity") for lam in (2, 4)
    ]
    cases = json.dumps([{"model": "FM", "m0": 7, "F": {"kind": "identity"}}])
    code, out, _ = _run(
        capsys, "validate", "--n", "100", "--set", f"cases={cases}", "--set", "lambdas=[5,5]", "--format", "json"
    )
    assert code == EXIT_OK
    assert [r["lambda"] for r in json.loads(out)["rows"]] == [5]


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


@pytest.mark.parametrize("command", ["fdr-sweep", "fdp-dist", "bound"])
@pytest.mark.parametrize("model", ["fm", "XX"])
def test_unknown_model_is_usage_error(capsys, command, model):
    code, out, err = _run(capsys, command, "--set", f"model={model}")
    assert code == EXIT_USAGE
    assert "unknown model" in err
    assert out == ""


def test_validate_unknown_model_is_usage_error(capsys):
    cases = json.dumps([{"model": "XX", "pi0": 0.7, "F": {"kind": "identity"}}])
    code, out, err = _run(capsys, "validate", "--n", "100", "--set", f"cases={cases}")
    assert code == EXIT_USAGE
    assert "unknown model" in err
    assert out == ""


def test_empty_lambda_set_is_usage_error(capsys):
    code, _, err = _run(capsys, "fdr-sweep", "--set", "lambdas=[]")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--n", "100", "--set", "cases=[]"],
        ["fdr-sweep", "--set", "alternatives=[]"],
        ["bound", "--set", "m=[]"],
        ["bound", "--set", "zeta=[]"],
        ["bound", "--set", "delta=[]"],
    ],
    ids=["validate-cases", "fdr-sweep-alternatives", "bound-m", "bound-zeta", "bound-delta"],
)
def test_an_empty_sweep_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert f"empty {argv[-1].split('=')[0]} set" in err
    assert out == ""


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


def test_missing_config_key_is_named(capsys):
    # the defaults carry m0 but no pi0, which RM needs
    code, _, err = _run(capsys, "fdr-sweep", "--set", "model=RM")
    assert code == EXIT_USAGE
    assert "missing config key 'pi0'" in err


def test_malformed_set_flag(capsys):
    code, _, err = _run(capsys, "fdr-sweep", "--set", "novalue")
    assert code == EXIT_USAGE
    assert "KEY=VALUE" in err


def test_degenerate_bound_zeta(capsys):
    code, _, err = _run(capsys, "bound", "--set", "zeta=[0.999]", "--set", "m=[10]")
    assert code == EXIT_USAGE
    assert "degenerate" in err


def test_nan_mu_is_usage_error(capsys):
    code, out, err = _run(capsys, "fdr-sweep", "--set", 'alternatives=[{"kind": "gaussian", "mu": NaN}]')
    assert code == EXIT_USAGE
    assert "mu must be > 0" in err
    assert out == ""


def test_nan_sigmas_is_usage_error(capsys):
    code, out, err = _run(capsys, "validate", "--n", "100", "--set", "sigmas=NaN", "--set", "lambdas=[5]")
    assert code == EXIT_USAGE
    assert "sigmas > 0" in err
    assert out == ""


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


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_values_as_null(capsys):
    # n = 1 gives a degenerate estimate that misses, whose z is inf
    code, out, _ = _run(capsys, "validate", "--n", "1", "--format", "json")
    assert code == EXIT_FAIL
    rows = _strict_json(out)["rows"]
    assert rows and all(r["z"] is None and r["passed"] is False for r in rows)
    code, out, _ = _run(capsys, "validate", "--n", "1", "--set", "lambdas=[5]")
    assert code == EXIT_FAIL
    assert all(r["z"] == "inf" for r in _parse_csv(out)[1])
    # a non-finite config value is echoed as null as well
    alternatives = 'alternatives=[{"kind": "gaussian", "mu": Infinity}]'
    code, out, _ = _run(capsys, "fdr-sweep", "--set", alternatives, "--set", "lambdas=[5]", "--format", "json")
    assert code == EXIT_OK
    doc = _strict_json(out)
    assert doc["config"]["alternatives"] == [{"kind": "gaussian", "mu": None}]
    assert doc["rows"][0]["mu"] is None


_COLUMNS = {
    "fdr-sweep": ["lambda", "model", "m", "m0_or_pi0", "F", "mu", "alpha", "fdr_exact", "fdr_su_part", "fdr_sd_part"],
    "fdp-dist": ["bin_index", "bin_lo", "bin_hi", "mass"],
    "bound": ["m", "zeta", "delta", "kappa", "curve", "alpha", "u_minus", "u_plus", "epsilon", "gap_bound", "vacuous"],
    "validate": ["model", "F", "mu", "lambda", "exact", "mc_mean", "mc_se", "z", "passed"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["fdr-sweep", "--set", "lambdas=[4]"],
        ["fdp-dist"],
        ["bound"],
        ["bound", "--set", "model=RM"],
        ["validate", "--n", "200"],
    ],
    ids=["fdr-sweep", "fdp-dist", "bound-FM", "bound-RM", "validate"],
)
def test_each_command_writes_its_columns_in_order(capsys, argv):
    columns = _COLUMNS[argv[0]]
    _, out, _ = _run(capsys, *argv)
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body[0].split(",") == columns
    _, out, _ = _run(capsys, *argv, "--format", "json")
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == columns for row in rows)


def test_process_exit_codes_and_entry_point():
    src = str(Path(sudfdr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, expected in ((["counterexample"], EXIT_OK), (["validate", "--n", "1"], EXIT_FAIL)):
        proc = subprocess.run(
            [sys.executable, "-m", "sudfdr.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == expected, (argv, proc.stderr)
    with open(Path(src).parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sud"]
    assert target == "sudfdr.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

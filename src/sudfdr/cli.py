"""Command-line front end producing CSV/JSON artifacts.

Commands
--------
fdr-sweep       exact FDR over a lambda sweep for several alternatives
fdp-dist        exact FDP distribution as bin masses
bound           FDR-gap bound over a (m, zeta, delta) sweep
counterexample  built-in check that the point-mass-at-zero alternative is
                not least favorable at intermediate SUD orders
validate        exact-vs-Monte-Carlo cross-validation grid

Every CSV starts with a header block (tool version, config echo, seed) so a
run is reproducible from its own output file.  Exit codes: 0 success/PASS,
1 usage or config error, 2 numerical-precision failure, 3 validation FAIL.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from sudfdr import __version__
from sudfdr.bounds import BoundInputs, gap_bound_fm, gap_bound_rm
from sudfdr.exact import fdp_pmf_histogram, fdr_sud
from sudfdr.models import DiracZeroCdf, IdentityCdf, MixtureConfig, cdf_from_config
from sudfdr.montecarlo import cross_validate, simulate_fdr
from sudfdr.steck import PrecisionError
from sudfdr.thresholds import curve_from_config, from_rho

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECISION = 2
EXIT_FAIL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="inline config override (dotted keys, JSON values)",
    )
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--seed", type=int, default=20260824)
    sub.add_argument("--n", type=int, help="Monte-Carlo replicates")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="sud", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sudfdr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, fn in _COMMANDS.items():
        sub = subs.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        _add_common(sub)
        sub.set_defaults(func=fn)
    return parser


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(cfg: dict, spec: str):
    if "=" not in spec:
        raise _UsageError(f"--set expects KEY=VALUE, got {spec!r}")
    key, raw = spec.split("=", 1)
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise _UsageError(f"--set key {key!r} descends into a non-object")
    node[parts[-1]] = _parse_value(raw)


def _load_config(args, defaults: dict) -> dict:
    cfg = json.loads(json.dumps(defaults))  # deep copy
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(file_cfg)
    for spec in args.set:
        _apply_override(cfg, spec)
    return cfg


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _curve(cfg: dict):
    return curve_from_config({"curve": cfg["curve"], "alpha": cfg["alpha"]})


def _lambdas(cfg: dict, m: int) -> list:
    lam = cfg.get("lambdas", "all")
    if lam == "all":
        return list(range(1, m + 1))
    lams = [int(x) for x in _as_list(lam)]
    if not lams:
        raise ValueError("empty lambda set")
    return sorted(lams)


def _emit(args, cfg: dict, columns: list, rows: list):
    if args.format == "json":
        doc = {
            "tool": "sudfdr",
            "version": __version__,
            "seed": args.seed,
            "config": cfg,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# sudfdr {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
        buf.write(f"# seed: {args.seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mixture(cfg: dict, F) -> MixtureConfig:
    if cfg["model"] == "FM":
        return MixtureConfig(model="FM", m=int(cfg["m"]), m0=int(cfg["m0"]), F=F)
    return MixtureConfig(model="RM", m=int(cfg["m"]), pi0=float(cfg["pi0"]), F=F)


def _null_weight(cfg: dict):
    return cfg["m0"] if cfg["model"] == "FM" else cfg["pi0"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fdr_sweep(args) -> int:
    """Exact FDR of the order-lambda SUD rule over a lambda sweep."""
    cfg = _load_config(
        args,
        {
            "m": 10,
            "curve": "linear",
            "alpha": 0.5,
            "model": "FM",
            "m0": 7,
            "lambdas": "all",
            "alternatives": [
                {"kind": "dirac_zero"},
                {"kind": "gaussian", "mu": 1.0},
                {"kind": "identity"},
            ],
        },
    )
    m = int(cfg["m"])
    t = from_rho(_curve(cfg), m)
    lams = _lambdas(cfg, m)
    alts = [cdf_from_config(c) for c in cfg["alternatives"]]
    rows = []
    for F in sorted(alts, key=lambda F: F.kind):
        mu = getattr(F, "mu", None)
        model_cfg = _mixture(cfg, F)
        for lam in lams:
            res = fdr_sud(t, lam, model_cfg)
            rows.append(
                [
                    lam,
                    cfg["model"],
                    m,
                    _null_weight(cfg),
                    F.kind,
                    mu,
                    cfg["alpha"],
                    res.fdr,
                    res.su_component,
                    res.sd_component,
                ]
            )
    columns = [
        "lambda",
        "model",
        "m",
        "m0_or_pi0",
        "F",
        "mu",
        "alpha",
        "fdr_exact",
        "fdr_su_part",
        "fdr_sd_part",
    ]
    _emit(args, cfg, columns, rows)
    return EXIT_OK


def cmd_fdp_dist(args) -> int:
    """Exact FDP distribution of one SUD rule as bin masses."""
    cfg = _load_config(
        args,
        {
            "m": 10,
            "curve": "linear",
            "alpha": 0.5,
            "model": "RM",
            "pi0": 0.7,
            "lambda": 10,
            "bins": 20,
            "F": {"kind": "gaussian", "mu": 1.0},
        },
    )
    m = int(cfg["m"])
    bins = int(cfg["bins"])
    t = from_rho(_curve(cfg), m)
    model_cfg = _mixture(cfg, cdf_from_config(cfg["F"]))
    masses = fdp_pmf_histogram(t, int(cfg["lambda"]), model_cfg, bins)
    rows = []
    for i, mass in enumerate(masses):
        lo = i / bins
        hi = 1.0 if i >= bins else (i + 1) / bins
        rows.append([i, lo, hi, float(mass)])
    _emit(args, cfg, ["bin_index", "bin_lo", "bin_hi", "mass"], rows)
    return EXIT_OK


def cmd_bound(args) -> int:
    """FDR-gap bound sweep over (m, zeta, delta)."""
    cfg = _load_config(
        args,
        {
            "curve": "linear",
            "alpha": 0.5,
            "model": "FM",
            "m": [100],
            "zeta": [0.7],
            "delta": [0.05],
            "kappa": 1.0,
            "gamma": None,
        },
    )
    rho = _curve(cfg)
    kappa = float(cfg["kappa"])
    rows = []
    grid = itertools.product(
        sorted(int(x) for x in _as_list(cfg["m"])),
        sorted(float(x) for x in _as_list(cfg["zeta"])),
        sorted(float(x) for x in _as_list(cfg["delta"])),
    )
    for m, zeta, delta in grid:
        if cfg["model"] == "FM":
            m0 = round(zeta * m)
            if not 0 < m0 < m:
                raise ValueError(f"zeta={zeta} gives degenerate m0={m0} at m={m}")
            inputs = BoundInputs(rho=rho, zeta=zeta, delta=delta, m=m, kappa=kappa, m0=m0)
            res = gap_bound_fm(inputs)
        else:
            gamma = cfg["gamma"] if cfg["gamma"] is not None else delta / 2.0
            inputs = BoundInputs(
                rho=rho, zeta=zeta, delta=delta, m=m, kappa=kappa, gamma=float(gamma)
            )
            res = gap_bound_rm(inputs)
        rows.append(
            [
                m,
                zeta,
                delta,
                kappa,
                cfg["curve"],
                cfg["alpha"],
                res.u_minus,
                res.u_plus,
                res.epsilon,
                res.gap_bound,
                res.vacuous,
            ]
        )
    columns = [
        "m",
        "zeta",
        "delta",
        "kappa",
        "curve",
        "alpha",
        "u_minus",
        "u_plus",
        "epsilon",
        "gap_bound",
        "vacuous",
    ]
    _emit(args, cfg, columns, rows)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    """Built-in check: uniform alternatives beat the point mass at zero for
    intermediate SUD orders (m=10, alpha=0.5)."""
    m, alpha = 10, 0.5
    t = from_rho(curve_from_config({"curve": "linear", "alpha": alpha}), m)
    critical = (4, 5, 6, 7)
    context = (1, 10)
    identity, dirac = IdentityCdf(), DiracZeroCdf()
    lines = [f"sudfdr {__version__} counterexample check: m={m}, alpha={alpha}"]
    ok = True
    for model in ("FM", "RM"):
        base = {"model": model, "m": m, "m0": 7, "pi0": 0.7}
        for lam in sorted(critical + context):
            f_id = fdr_sud(t, lam, _mixture(base, identity)).fdr
            f_du = fdr_sud(t, lam, _mixture(base, dirac)).fdr
            if lam in critical:
                good = f_id > f_du
                ok = ok and good
                tag = "OK" if good else "VIOLATED"
            else:
                tag = "context"
            lines.append(
                f"{model} lambda={lam:2d}: uniform={f_id:.10f} "
                f"point_mass_zero={f_du:.10f} [{tag}]"
            )
    lines.append("PASS" if ok else "FAIL")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_validate(args) -> int:
    """Exact-vs-Monte-Carlo cross-validation grid."""
    cfg = _load_config(
        args,
        {
            "m": 10,
            "curve": "linear",
            "alpha": 0.5,
            "lambdas": [1, 5, 10],
            "n": 100_000,
            "sigmas": 4.0,
            "cases": [
                {"model": "FM", "m0": 7, "F": {"kind": "identity"}},
                {"model": "FM", "m0": 7, "F": {"kind": "gaussian", "mu": 1.0}},
                {"model": "FM", "m0": 7, "F": {"kind": "dirac_zero"}},
                {"model": "RM", "pi0": 0.7, "F": {"kind": "gaussian", "mu": 1.0}},
            ],
        },
    )
    m = int(cfg["m"])
    t = from_rho(_curve(cfg), m)
    lams = _lambdas(cfg, m)
    n = args.n if args.n is not None else int(cfg["n"])
    sigmas = float(cfg["sigmas"])
    rows = []
    all_pass = True
    case_index = 0
    for case in cfg["cases"]:
        F = cdf_from_config(case["F"])
        model_cfg = _mixture({"m": m, **case}, F)
        for lam in lams:
            exact = fdr_sud(t, lam, model_cfg).fdr
            mc = simulate_fdr(t, lam, model_cfg, n, args.seed + case_index)
            verdict = cross_validate(exact, mc, sigmas)
            all_pass = all_pass and verdict.passed
            rows.append(
                [
                    case["model"],
                    F.kind,
                    getattr(F, "mu", None),
                    lam,
                    exact,
                    mc.mean,
                    mc.std_error,
                    verdict.z_score,
                    verdict.passed,
                ]
            )
            case_index += 1
    columns = ["model", "F", "mu", "lambda", "exact", "mc_mean", "mc_se", "z", "passed"]
    _emit(args, cfg, columns, rows)
    return EXIT_OK if all_pass else EXIT_FAIL


_COMMANDS = {
    "fdr-sweep": cmd_fdr_sweep,
    "fdp-dist": cmd_fdp_dist,
    "bound": cmd_bound,
    "counterexample": cmd_counterexample,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"sud: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"sud: precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"sud: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end producing CSV/JSON artifacts.

Commands
--------
fdr-sweep       exact FDR over a lambda sweep for several alternatives
fdp-dist        exact FDP distribution as bin masses
bound           FDR-gap bound over a (m, zeta, delta) sweep
counterexample  built-in check that the point-mass-at-zero alternative is
                not least favorable at intermediate SUD orders
validate        exact-vs-Monte-Carlo cross-validation grid

Every CSV starts with a header block (tool version, config echo and, for
validate, the seed) so a run is reproducible from its own output file.  A
command builds each row as a dict of its columns in order; JSON rows carry
the same keys in the same order, with non-finite floats written as null.
Exit codes: 0 success/PASS, 1 usage or config error, 2 numerical-precision
failure, 3 validation FAIL.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys

from sudfdr import __version__
from sudfdr.bounds import BoundInputs, gap_bound_fm, gap_bound_rm
from sudfdr.exact import PrecisionError, fdp_pmf_histogram, fdr_sud
from sudfdr.models import _as_int, mixture_from_config
from sudfdr.montecarlo import cross_validate, simulate_fdr
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


_FLAGS = {
    "config": {"help": "JSON config file"},
    "set": {"action": "append", "default": [], "metavar": "KEY=VALUE",
            "help": "inline config override (dotted keys, JSON values)"},
    "seed": {"type": int, "default": 20260824},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "n": {"type": int, "help": "Monte-Carlo replicates"},
}
_CONFIG_FLAGS = ("config", "set", "format")


def build_parser() -> _Parser:
    parser = _Parser(prog="sud", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sudfdr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (fn, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        sub.add_argument("--out", help="output path (default: stdout)")
        for flag in flags:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
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


def _items(cfg: dict, key: str) -> list:
    """cfg[key] as a list (a scalar is one item), which a sweep needs to be nonempty."""
    x = cfg[key]
    items = list(x) if isinstance(x, (list, tuple)) else [x]
    if not items:
        raise ValueError(f"empty {key} set")
    return items


def _lambdas(cfg: dict, m: int) -> list:
    if cfg.get("lambdas", "all") == "all":
        return list(range(1, m + 1))
    return sorted({_as_int(x, "lambdas") for x in _items(cfg, "lambdas")})


def _strict(x):
    """x with every non-finite float as None, which JSON writes as null."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(args, cfg: dict, rows: list):
    """Write rows, dicts keyed by column in column order, as CSV or JSON."""
    if args.format == "json":
        doc = {
            "tool": "sudfdr",
            "version": __version__,
            **({"seed": args.seed} if "seed" in args else {}),
            "config": cfg,
            "rows": rows,
        }
        text = json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# sudfdr {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
        if "seed" in args:
            buf.write(f"# seed: {args.seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])  # the header: a dict iterates over its keys
        writer.writerows(row.values() for row in rows)  # None is written as ""
        text = buf.getvalue()
    _write(args, text)


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    m = _as_int(cfg["m"], "m")
    t = from_rho(curve_from_config(cfg), m)
    lams = _lambdas(cfg, m)
    model_cfgs = [mixture_from_config({**cfg, "F": c}) for c in _items(cfg, "alternatives")]
    null_weight = cfg["m0"] if cfg["model"] == "FM" else cfg["pi0"]
    rows = []
    for model_cfg in sorted(model_cfgs, key=lambda mc: mc.F.kind):
        F = model_cfg.F
        for lam in lams:
            res = fdr_sud(t, lam, model_cfg)
            rows.append({
                "lambda": lam,
                "model": cfg["model"],
                "m": m,
                "m0_or_pi0": null_weight,
                "F": F.kind,
                "mu": getattr(F, "mu", None),
                "alpha": cfg["alpha"],
                "fdr_exact": res.fdr,
                "fdr_su_part": res.su_component,
                "fdr_sd_part": res.sd_component,
            })
    _emit(args, cfg, rows)
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
    m = _as_int(cfg["m"], "m")
    bins = _as_int(cfg["bins"], "bins")
    t = from_rho(curve_from_config(cfg), m)
    model_cfg = mixture_from_config(cfg)
    masses = fdp_pmf_histogram(t, _as_int(cfg["lambda"], "lambda"), model_cfg, bins)
    rows = [
        {"bin_index": i, "bin_lo": i / bins, "bin_hi": min(i + 1, bins) / bins, "mass": float(mass)}
        for i, mass in enumerate(masses)
    ]
    _emit(args, cfg, rows)
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
    if cfg["model"] not in ("FM", "RM"):
        raise ValueError(f"unknown model: {cfg['model']!r}")
    fm = cfg["model"] == "FM"
    rho = curve_from_config(cfg)
    kappa = float(cfg["kappa"])
    rows = []
    grid = itertools.product(
        sorted(_as_int(x, "m") for x in _items(cfg, "m")),
        sorted(float(x) for x in _items(cfg, "zeta")),
        sorted(float(x) for x in _items(cfg, "delta")),
    )
    for m, zeta, delta in grid:
        m0 = round(zeta * m) if fm else None
        if m0 is not None and not 0 < m0 < m:
            raise ValueError(f"zeta={zeta} gives degenerate m0={m0} at m={m}")
        gamma = None if fm else float(delta / 2.0 if cfg["gamma"] is None else cfg["gamma"])
        inputs = BoundInputs(rho=rho, zeta=zeta, delta=delta, m=m, kappa=kappa, m0=m0, gamma=gamma)
        res = (gap_bound_fm if fm else gap_bound_rm)(inputs)
        rows.append({
            "m": m,
            "zeta": zeta,
            "delta": delta,
            "kappa": kappa,
            "curve": cfg["curve"],
            "alpha": cfg["alpha"],
            "u_minus": res.u_minus,
            "u_plus": res.u_plus,
            "epsilon": res.epsilon,
            "gap_bound": res.gap_bound,
            "vacuous": res.vacuous,
        })
    _emit(args, cfg, rows)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    """Built-in check: uniform alternatives beat the point mass at zero for
    intermediate SUD orders (m=10, alpha=0.5)."""
    m, alpha = 10, 0.5
    t = from_rho(curve_from_config({"curve": "linear", "alpha": alpha}), m)
    critical = (4, 5, 6, 7)
    context = (1, 10)
    lines = [f"sudfdr {__version__} counterexample check: m={m}, alpha={alpha}"]
    ok = True
    lams = sorted(critical + context)
    for model in ("FM", "RM"):
        base = {"model": model, "m": m, "m0": 7, "pi0": 0.7}
        cfgs = [mixture_from_config({**base, "F": {"kind": kind}}) for kind in ("identity", "dirac_zero")]
        # every order of one problem before the next: the first counts every start
        # of the problem into the slot, and the others copy their laws from it
        uniform, point_mass = ([fdr_sud(t, lam, cfg).fdr for lam in lams] for cfg in cfgs)
        for lam, f_id, f_du in zip(lams, uniform, point_mass):
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
    _write(args, "\n".join(lines) + "\n")
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
    m = _as_int(cfg["m"], "m")
    t = from_rho(curve_from_config(cfg), m)
    lams = _lambdas(cfg, m)
    n = args.n if args.n is not None else _as_int(cfg["n"], "n")
    sigmas = float(cfg["sigmas"])
    rows = []
    for case in _items(cfg, "cases"):
        model_cfg = mixture_from_config({"m": m, **case})
        F = model_cfg.F
        for lam in lams:
            exact = fdr_sud(t, lam, model_cfg).fdr
            # each (case, lambda) row draws from the seed plus its running index
            mc = simulate_fdr(t, lam, model_cfg, n, args.seed + len(rows))
            verdict = cross_validate(exact, mc, sigmas)
            rows.append({
                "model": case["model"],
                "F": F.kind,
                "mu": getattr(F, "mu", None),
                "lambda": lam,
                "exact": exact,
                "mc_mean": mc.mean,
                "mc_se": mc.std_error,
                "z": verdict.z_score,
                "passed": verdict.passed,
            })
    _emit(args, cfg, rows)
    return EXIT_OK if all(row["passed"] for row in rows) else EXIT_FAIL


# each command with the flags it reads besides --out, which every command takes
_COMMANDS = {
    "fdr-sweep": (cmd_fdr_sweep, _CONFIG_FLAGS),
    "fdp-dist": (cmd_fdp_dist, _CONFIG_FLAGS),
    "bound": (cmd_bound, _CONFIG_FLAGS),
    "counterexample": (cmd_counterexample, ()),
    "validate": (cmd_validate, ("config", "set", "seed", "format", "n")),
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
    except KeyError as exc:
        print(f"sud: error: missing config key {exc.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"sud: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

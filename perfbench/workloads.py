"""Workloads of the sudfdr benchmark.

A workload is a fixed list of requests; one request is one public library
call, the same call a `sud` command makes.  A request looks its function up
on the library module when it runs, so the tracer's rebinding sees it.  The
seed only fixes the Monte-Carlo streams: every seed does the same work, in
the same order.

Requests come in four groups, each mirroring one `sud` job: exact-sweep,
exact-scale, mc-oracle and bound-grid.  The benchmark runs them as two
workloads of two groups each, so that every run can last long enough to be
steady on a noisy 2-CPU host within the benchmark's time budget:

- many-small: exact-sweep + bound-grid, 205 calls of milliseconds each;
- few-large: exact-scale + mc-oracle, 9 calls of 0.2 to 1 s each.

Both are sized so that a pass takes a few seconds and a run repeats every
request many times.  In many-small the median request falls inside the
dense cluster of fast exact-sweep calls rather than on the gap between
them and the slower gap bounds, so `call_ms_p50` does not jump between the
two clusters from run to run.

Each optimization the roadmap plans is exercised by one workload and
bypassed by the other: sharing tables across orders and the u_operator
scan only run in many-small, the Monte-Carlo reduce only in few-large.

Each group also carries `check`, which takes the results of one pass
(label -> result) and returns (check name, passed) pairs.  Checks run
outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from sudfdr import bounds, exact, montecarlo
from sudfdr.models import DiracZeroCdf, GaussianLocationCdf, IdentityCdf, MixtureConfig
from sudfdr.thresholds import AorcCurve, LinearCurve, from_rho

NEG_TOL = 1e-8  # smallest admissible joint mass
CLOSED_FORM_TOL = 1e-12
U_TOL = 1e-9
MC_SIGMAS = 4.0
OPT_GRID = 20  # optimize_delta grid points: 21 bounds per call


@dataclass(frozen=True)
class Request:
    label: str
    module: object
    func: str
    args: tuple

    def __call__(self):
        return getattr(self.module, self.func)(*self.args)


@dataclass
class Workload:
    name: str
    requests: list
    check: Callable[[dict], list]
    params: dict
    # (sweep label, single-order label, orders in the sweep, p-values per call)
    mc: tuple | None = None
    groups: dict | None = None  # group name -> labels of its requests


def _combine(name: str, *groups: Workload) -> Workload:
    requests = [req for g in groups for req in g.requests]
    return Workload(
        name=name,
        requests=requests,
        check=lambda results: [c for g in groups for c in g.check(results)],
        params={g.name: g.params for g in groups},
        mc=next((g.mc for g in groups if g.mc), None),
        groups={g.name: [req.label for req in g.requests] for g in groups},
    )


def _sum_tol() -> float:
    return getattr(exact, "SUM_TOL", 1e-8)


def _linear_su_fdr(cfg: MixtureConfig, alpha: float) -> float:
    """Linear step-up FDR: m0*alpha/m (FM) or pi0*alpha (RM), for any F."""
    return cfg.m0 * alpha / cfg.m if cfg.model == "FM" else cfg.pi0 * alpha


def _fdr_checks(label: str, res, closed_form: float | None = None) -> list:
    out = [(f"{label}: su+sd=fdr", abs(res.su_component + res.sd_component - res.fdr) <= CLOSED_FORM_TOL)]
    if closed_form is not None:
        out.append((f"{label}: linear step-up closed form", abs(res.fdr - closed_form) <= CLOSED_FORM_TOL))
    return out


def _pmf_checks(label: str, t, lam: int, cfg: MixtureConfig, fdr: float | None = None) -> list:
    """Rebuild the joint law of one request and check it, through public calls."""
    pmf = exact.sud_joint_masses(t, lam, cfg)
    cells = [(k, j, pmf.get(k, j)) for k in range(pmf.m + 1) for j in range(k + 1)]
    out = [
        (f"{label}: pmf min >= -{NEG_TOL:g}", min(v for _, _, v in cells) >= -NEG_TOL),
        (f"{label}: pmf total within SUM_TOL of 1", abs(pmf.total() - 1.0) <= _sum_tol()),
    ]
    if fdr is not None:
        mean = math.fsum(j / k * v for k, j, v in cells if k)
        out.append((f"{label}: FDP mean = FDR", abs(mean - fdr) <= CLOSED_FORM_TOL))
    return out


def _hist_checks(label: str, hist) -> list:
    return [
        (f"{label}: histogram min >= -{NEG_TOL:g}", min(hist) >= -NEG_TOL),
        (f"{label}: histogram sums to 1", abs(math.fsum(hist) - 1.0) <= _sum_tol()),
    ]


def exact_sweep(seed: int) -> Workload:
    """`sud fdr-sweep`: every order on one (t, F), three F, both models."""
    m, alpha = 30, 0.5
    t = from_rho(LinearCurve(alpha), m)
    cfgs = []
    for F in (DiracZeroCdf(), GaussianLocationCdf(1.0), IdentityCdf()):
        cfgs.append(MixtureConfig(model="FM", m=m, m0=21, F=F))
        cfgs.append(MixtureConfig(model="RM", m=m, pi0=0.7, F=F))
    cases = {}
    for cfg in cfgs:
        for lam in range(1, m + 1):
            label = f"fdr_sud {cfg.model} {cfg.F.kind} lambda={lam}"
            cases[label] = (cfg, lam, Request(label, exact, "fdr_sud", (t, lam, cfg)))

    def check(results: dict) -> list:
        out = []
        for label, (cfg, lam, _) in cases.items():
            res = results[label]
            closed = _linear_su_fdr(cfg, alpha) if lam == m else None
            out += _fdr_checks(label, res, closed)
            out += _pmf_checks(label, t, lam, cfg, res.fdr)
        return out

    return Workload(
        name="exact-sweep",
        requests=[req for _, _, req in cases.values()],
        check=check,
        params={
            "m": m,
            "curve": {"curve": "linear", "alpha": alpha},
            "lambdas": f"1..{m}",
            "F": [c.F.to_config() for c in cfgs[::2]],
            "models": [{"model": "FM", "m0": 21}, {"model": "RM", "pi0": 0.7}],
            "n": None,
            "calls": ["fdr_sud"],
        },
    )


def exact_scale(seed: int) -> Workload:
    """A few orders at large m: the cost of each table and of the assembly."""
    alpha = 0.5
    curve = LinearCurve(alpha)
    gauss = GaussianLocationCdf(1.0)
    specs = [  # (call, cfg, lambda)
        ("fdr_sud", MixtureConfig(model="FM", m=70, m0=49, F=gauss), 35),
        ("fdp_pmf_histogram", MixtureConfig(model="RM", m=70, pi0=0.7, F=gauss), 35),
        ("fdr_sud", MixtureConfig(model="FM", m=150, m0=105, F=DiracZeroCdf()), 75),
        ("fdr_sud", MixtureConfig(model="FM", m=300, m0=210, F=IdentityCdf()), 300),
        ("fdp_pmf_histogram", MixtureConfig(model="FM", m=300, m0=210, F=IdentityCdf()), 300),
    ]
    bins = 20
    thresholds = {m: from_rho(curve, m) for m in sorted({cfg.m for _, cfg, _ in specs})}
    cases = {}
    for call, cfg, lam in specs:
        label = f"{call} {cfg.model} {cfg.F.kind} m={cfg.m} lambda={lam}"
        args = (thresholds[cfg.m], lam, cfg) + ((bins,) if call == "fdp_pmf_histogram" else ())
        cases[label] = (call, cfg, lam, Request(label, exact, call, args))

    def check(results: dict) -> list:
        out = []
        fdr_of = {}  # (m, model, kind, lambda) -> FDR, to pair histograms with FDRs
        for label, (call, cfg, lam, _) in cases.items():
            if call == "fdr_sud":
                res = results[label]
                closed = _linear_su_fdr(cfg, alpha) if lam == cfg.m else None
                out += _fdr_checks(label, res, closed)
                fdr_of[(cfg.m, cfg.model, cfg.F.kind, lam)] = res.fdr
            else:
                out += _hist_checks(label, results[label])
        built = set()
        for label, (call, cfg, lam, _) in cases.items():
            key = (cfg.m, cfg.model, cfg.F.kind, lam)
            if key not in built:
                built.add(key)
                out += _pmf_checks(label, thresholds[cfg.m], lam, cfg, fdr_of.get(key))
        return out

    return Workload(
        name="exact-scale",
        requests=[case[-1] for case in cases.values()],
        check=check,
        params={
            "curve": {"curve": "linear", "alpha": alpha},
            "requests": [
                {"call": call, "lambda": lam, "bins": bins if call == "fdp_pmf_histogram" else None,
                 **cfg.to_config()}
                for call, cfg, lam in specs
            ],
            "n": None,
        },
    )


def mc_oracle(seed: int) -> Workload:
    """`sud validate`, Monte-Carlo side: sample, sort, select and reduce."""
    m, alpha, n, bins = 100, 0.5, 1 << 14, 20
    t = from_rho(LinearCurve(alpha), m)
    gauss = GaussianLocationCdf(1.0)
    fm = MixtureConfig(model="FM", m=m, m0=70, F=gauss)
    rm = MixtureConfig(model="RM", m=m, pi0=0.7, F=gauss)
    orders = list(range(1, m + 1))
    mid = m // 2
    requests = [
        Request("simulate_fdr_sweep", montecarlo, "simulate_fdr_sweep", (t, orders, fm, n, seed)),
        Request("simulate_fdr", montecarlo, "simulate_fdr", (t, m, fm, n, seed)),
        Request("simulate_fdp_hist", montecarlo, "simulate_fdp_hist", (t, mid, rm, n, bins, seed + 1)),
        Request("simulate_joint_counts", montecarlo, "simulate_joint_counts", (t, mid, fm, n, seed + 2)),
    ]

    def check(results: dict) -> list:
        sweep = results["simulate_fdr_sweep"]
        single = results["simulate_fdr"]
        hist = results["simulate_fdp_hist"]
        counts = results["simulate_joint_counts"]
        closed = _linear_su_fdr(fm, alpha)
        return [
            ("sweep covers every order", sorted(sweep) == orders),
            ("sweep means in [0,1]", all(0.0 <= e.mean <= 1.0 for e in sweep.values())),
            ("sweep lambda=m bit-identical to simulate_fdr",
             (sweep[m].mean, sweep[m].std_error) == (single.mean, single.std_error)),
            (f"simulate_fdr within {MC_SIGMAS:g} sigma of the step-up closed form",
             abs(single.mean - closed) <= MC_SIGMAS * single.std_error),
            ("histogram frequencies sum to 1",
             abs(math.fsum(f for f, _ in hist.per_bin) - 1.0) <= CLOSED_FORM_TOL),
            ("histogram mean in [0,1]", 0.0 <= hist.mean <= 1.0),
            ("joint counts sum to n", int(counts.sum()) == n),
            ("joint counts nonnegative", int(counts.min()) >= 0),
            ("joint counts only on j <= k",
             all(counts[k, j] == 0 for k in range(m + 1) for j in range(k + 1, m + 1))),
        ]

    return Workload(
        name="mc-oracle",
        requests=requests,
        check=check,
        params={
            "m": m,
            "curve": {"curve": "linear", "alpha": alpha},
            "F": gauss.to_config(),
            "n": n,
            "requests": [
                {"call": "simulate_fdr_sweep", "lambdas": f"1..{m}", **fm.to_config()},
                {"call": "simulate_fdr", "lambda": m, **fm.to_config()},
                {"call": "simulate_fdp_hist", "lambda": mid, "bins": bins, **rm.to_config()},
                {"call": "simulate_joint_counts", "lambda": mid, **fm.to_config()},
            ],
            "mc_seeds": [seed, seed, seed + 1, seed + 2],
        },
        mc=("simulate_fdr_sweep", "simulate_fdr", len(orders), n * m),
    )


def bound_grid(seed: int) -> Workload:
    """`sud bound`: the u_operator fixed-point scan behind every gap bound."""
    ms, zetas, deltas = (100, 1000, 10000), (0.6, 0.8), (0.05, 0.2)
    linear, aorc = LinearCurve(0.5), AorcCurve(0.2)
    cases = {}
    for m in ms:
        for zeta in zetas:
            for delta in deltas:
                inp = bounds.BoundInputs(rho=linear, zeta=zeta, delta=delta, m=m, kappa=1.0,
                                         m0=round(zeta * m))
                label = f"gap_bound_fm linear m={m} zeta={zeta} delta={delta}"
                cases[label] = (inp, Request(label, bounds, "gap_bound_fm", (inp,)))
                inp = bounds.BoundInputs(rho=aorc, zeta=zeta, delta=delta, m=m, kappa=0.5,
                                         gamma=delta / 2.0)
                label = f"gap_bound_rm aorc m={m} zeta={zeta} delta={delta}"
                cases[label] = (inp, Request(label, bounds, "gap_bound_rm", (inp,)))
    opt_label = "optimize_delta FM linear m=1000 zeta=0.7"
    opt = Request(opt_label, bounds, "optimize_delta", (linear, 0.7, 1000, 1.0, "FM", 700, OPT_GRID))

    def check(results: dict) -> list:
        out = []
        for label, (inp, _) in cases.items():
            res = results[label]
            out.append((f"{label}: gap >= 0", res.gap_bound >= 0.0))
            if inp.rho is linear:
                scale = 1.0 - inp.zeta * linear.alpha
                out.append((f"{label}: linear u- closed form",
                            abs(res.u_minus - (1.0 - inp.zeta - inp.delta) / scale) <= U_TOL))
                out.append((f"{label}: linear u+ closed form",
                            abs(res.u_plus - (1.0 - inp.zeta + inp.delta) / scale) <= U_TOL))
            else:
                out.append((f"{label}: u- <= u+", res.u_minus <= res.u_plus))
        best = results[opt_label]
        out.append((f"{opt_label}: gaps >= 0", min(best.bound.gap_bound, best.bound_grid.gap_bound) >= 0.0))
        out.append((f"{opt_label}: grid minimum <= rate-optimal",
                    best.bound_grid.gap_bound <= best.bound.gap_bound))
        return out

    return Workload(
        name="bound-grid",
        requests=[req for _, req in cases.values()] + [opt],
        check=check,
        params={
            "m": list(ms),
            "zeta": list(zetas),
            "delta": list(deltas),
            "grids": [
                {"call": "gap_bound_fm", "curve": "linear", "alpha": 0.5, "model": "FM",
                 "kappa": 1.0, "m0": "round(zeta*m)"},
                {"call": "gap_bound_rm", "curve": "aorc", "alpha": 0.2, "model": "RM",
                 "kappa": 0.5, "gamma": "delta/2"},
            ],
            "optimize_delta": {"curve": "linear", "alpha": 0.5, "model": "FM", "m": 1000,
                               "zeta": 0.7, "kappa": 1.0, "m0": 700, "n_grid": OPT_GRID},
            "n": None,
        },
    )


WORKLOADS = {
    "many-small": lambda seed: _combine("many-small", exact_sweep(seed), bound_grid(seed)),
    "few-large": lambda seed: _combine("few-large", exact_scale(seed), mc_oracle(seed)),
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

"""Seeded Monte Carlo experiments with machine-readable reports.

Four experiment kinds:

* ``sigma_min``: smallest singular value of the matrix whose columns are
  flattened outer products of independently perturbed blocks, against the
  threshold (delta/n)^ell and the bound n^(2 ell) * p^((1-c) n).
* ``echelon``: build a tree for the complement of a random subspace, certify
  the distance of a random perturbed rank-one point, against the threshold
  (delta/sqrt(n))^ell and the bound (1 + n + ... + n^(ell-1)) * p^((1-c) n).
* ``roundtrip``: perturb an adversarial all-ones membership base, measure all
  ell-wise intersections, reconstruct, and compare diagrams exactly.
* ``soft_model``: realize a graph in the soft model repeatedly and verify all
  pairwise constraints.

Reports embed their full config; re-running a report's config with the same
seed reproduces the report byte for byte (no timestamps, derived per-trial
seeds).  Bounds above 1 are reported with a vacuous flag rather than hidden.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np
from scipy.linalg import svdvals

from .assemblies import AssemblyParams, AssociationGraph, soft_realize, verify_representation
from .echelon import BranchingSpec, SubspaceBasis, build_echelon_tree, certify_distance, orthogonal_complement, verify_echelon
from .perturb import MembershipMatrix, model_from_json_dict, nondet_params, perturb_memberships
from .rng import generator, spawn_seed
from .tensor import khatri_rao
from .venn import VennDiagram, add_measurement_noise, diagram_diff, intersection_tensor, reconstruct

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "sigma_min_bound",
    "echelon_bound",
    "run_experiment",
    "run_sigma_min_experiment",
    "run_echelon_experiment",
    "run_roundtrip_experiment",
    "run_soft_model_experiment",
    "report_json_text",
    "report_csv_text",
]

_KINDS = ("sigma_min", "echelon", "roundtrip", "soft_model")
_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment; unused fields stay None.

    ``model`` is the perturbation model in its JSON form, e.g.
    {"model": "bitflip", "q": 0.5}.  ``graph`` is either "cycle:<k>" or
    edge-list text.
    """

    kind: str
    trials: int
    seed: int
    n: int | None = None
    ell: int | None = None
    m: int | None = None
    c: float | None = None
    model: Mapping | None = None
    delta: float | None = None
    eps: float | None = None
    m_max: int | None = None
    graph: str | None = None
    K: int | None = None
    a: int | None = None
    b: int | None = None
    N: int | None = None
    margin: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {_KINDS}")
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        if self.model is not None:
            object.__setattr__(self, "model", dict(self.model))

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is not None:
                out[f.name] = dict(val) if f.name == "model" else val
        return out

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown config fields {sorted(extra)}")
        return cls(**obj)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[dict, ...]
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "records": [dict(r) for r in self.records],
            "summary": dict(self.summary),
        }


def report_json_text(report: ExperimentReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def report_csv_text(report: ExperimentReport) -> str:
    """Per-trial rows with the fixed plot-ready columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "seed", "statistic", "threshold", "failure"])
    for rec in report.records:
        stat = rec.get("statistic")
        writer.writerow(
            [
                rec["trial"],
                rec["seed"],
                "" if stat is None else repr(float(stat)),
                repr(float(rec["threshold"])),
                int(rec["failure"]),
            ]
        )
    return buf.getvalue()


def sigma_min_bound(n: int, ell: int, c: float, p: float) -> float:
    """n^(2 ell) * p^((1-c) n), the failure-probability bound for sigma_min."""
    return float(n ** (2 * ell) * p ** ((1.0 - c) * n))


def echelon_bound(n: int, ell: int, c: float, p: float) -> float:
    """(1 + n + ... + n^(ell-1)) * p^((1-c) n) for the certificate failures.

    The paper's argument bounds the failures of one reduction chain through
    the tree.  The chain's value is one of the leaf values that
    ``certify_distance`` maximizes over, so the all-leaf certificate fails no
    more often and the same bound holds.
    """
    return float(sum(n ** k for k in range(ell)) * p ** ((1.0 - c) * n))


def _rate_summary(failures: int, trials: int) -> dict:
    rate = failures / trials
    half = 3.0 * math.sqrt(rate * (1.0 - rate) / trials)
    return {
        "failures": failures,
        "failure_rate": rate,
        "rate_ci_3sigma": [max(0.0, rate - half), min(1.0, rate + half)],
    }


def _require(cfg: ExperimentConfig, *names: str):
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise ValueError(f"{cfg.kind} experiment needs config fields {missing}")


def run_sigma_min_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Smallest singular value of perturbed flattened-outer-product columns."""
    _require(cfg, "n", "ell", "m", "c", "model")
    n, ell, m, c = cfg.n, cfg.ell, cfg.m, cfg.c
    if m > (c * n) ** ell:
        raise ValueError(f"m={m} exceeds the (c*n)^ell = {(c * n) ** ell:.1f} column budget")
    model = model_from_json_dict(cfg.model)
    params = nondet_params(model, n, delta_request=cfg.delta)
    threshold = (params.delta / n) ** ell
    bound = sigma_min_bound(n, ell, c, params.p)

    records = []
    failures = 0
    for t in range(cfg.trials):
        seed_t = spawn_seed(cfg.seed, "trial", t)
        base = MembershipMatrix(np.ones((ell * n, m)), n)
        x = perturb_memberships(base, model, seed_t)
        sigma = float(svdvals(khatri_rao(x.X.reshape(ell, n, m)))[-1])
        failure = sigma < threshold
        failures += failure
        records.append(
            {
                "trial": t,
                "seed": seed_t,
                "statistic": sigma,
                "threshold": threshold,
                "failure": bool(failure),
            }
        )
    summary = _rate_summary(failures, cfg.trials)
    summary.update(
        {
            "delta": params.delta,
            "p": params.p,
            "bound": bound,
            "bound_vacuous": not bound < 1.0,
        }
    )
    return ExperimentReport(cfg, tuple(records), summary)


def run_echelon_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Distance certificates for perturbed rank-one points against random subspaces."""
    _require(cfg, "n", "ell", "c", "model")
    n, ell, c = cfg.n, cfg.ell, cfg.c
    ambient = n ** ell
    dim_v = math.floor((c * n) ** ell + 1e-9)
    if not 1 <= dim_v < ambient:
        raise ValueError(f"subspace dimension (c*n)^ell = {dim_v} infeasible in ambient {ambient}")
    model = model_from_json_dict(cfg.model)
    params = nondet_params(model, n, delta_request=cfg.delta)
    threshold = (params.delta / math.sqrt(n)) ** ell
    bound = echelon_bound(n, ell, c, params.p)
    spec = BranchingSpec((1.0 - c,) * ell)

    records = []
    failures = 0
    verified = 0
    min_branching = math.inf
    for t in range(cfg.trials):
        seed_t = spawn_seed(cfg.seed, "trial", t)
        rng = generator(seed_t, "subspace")
        v = SubspaceBasis.from_span(rng.standard_normal((ambient, dim_v)), (n,) * ell)
        w = orthogonal_complement(v)
        tree, trace = build_echelon_tree(w, spec)
        ok = verify_echelon(tree, tolerance=1e-9).ok
        verified += ok

        base = MembershipMatrix(np.ones((ell * n, 1)), n)
        x = perturb_memberships(base, model, seed_t)
        chis = [x.X[k * n : (k + 1) * n, 0] for k in range(ell)]
        cert = certify_distance(tree, chis)
        failure = cert < threshold
        failures += failure
        min_branching = min(min_branching, min(r.beta for r in trace.records))
        records.append(
            {
                "trial": t,
                "seed": seed_t,
                "statistic": cert,
                "threshold": threshold,
                "failure": bool(failure),
                "tree_verified": bool(ok),
            }
        )
    summary = _rate_summary(failures, cfg.trials)
    summary.update(
        {
            "delta": params.delta,
            "p": params.p,
            "bound": bound,
            "bound_vacuous": not bound < 1.0,
            "trees_verified": verified,
            "min_level2_branching": min_branching,
        }
    )
    return ExperimentReport(cfg, tuple(records), summary)


def run_roundtrip_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Perturb, measure, reconstruct, compare; adversarial all-ones base."""
    _require(cfg, "n", "ell", "m", "model")
    n, ell, m = cfg.n, cfg.ell, cfg.m
    eps = cfg.eps if cfg.eps is not None else 0.0
    m_max = cfg.m_max if cfg.m_max is not None else m
    model = model_from_json_dict(cfg.model)

    records = []
    failures = 0
    pattern_matches = 0
    for t in range(cfg.trials):
        seed_t = spawn_seed(cfg.seed, "trial", t)
        base = MembershipMatrix(np.ones((n, m)), n)
        x = perturb_memberships(base, model, seed_t)
        truth = VennDiagram.from_columns(x.X, merge_duplicates=True)
        t_obs = add_measurement_noise(intersection_tensor(truth, ell), eps, seed=seed_t)
        rec: dict = {"trial": t, "seed": seed_t, "threshold": _MATCH_TOL}
        try:
            recovered = reconstruct(t_obs, m_max=m_max, seed=seed_t)
            diff = diagram_diff(truth, recovered, weight_tol=_MATCH_TOL)
            patterns_match = not diff.only_in_first and not diff.only_in_second
            pattern_matches += patterns_match
            failure = not diff.exact_match
            rec.update(
                {
                    "statistic": diff.weight_l1,
                    "failure": bool(failure),
                    "exact_match": diff.exact_match,
                    "patterns_match": patterns_match,
                }
            )
        except ValueError as exc:
            failure = True
            rec.update(
                {
                    "statistic": None,
                    "failure": True,
                    "exact_match": False,
                    "patterns_match": False,
                    "error": str(exc),
                }
            )
        failures += failure
        records.append(rec)
    summary = _rate_summary(failures, cfg.trials)
    summary.update(
        {
            "eps": eps,
            "exact_rate": 1.0 - summary["failure_rate"],
            "pattern_match_rate": pattern_matches / cfg.trials,
        }
    )
    return ExperimentReport(cfg, tuple(records), summary)


def _parse_graph(text: str) -> AssociationGraph:
    if text.startswith("cycle:"):
        return AssociationGraph.cycle(int(text.split(":", 1)[1]))
    return AssociationGraph.from_edge_list_text(text)


def run_soft_model_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Repeated soft realizations of a graph, verified in expected-size mode."""
    _require(cfg, "graph", "K", "a", "b", "N")
    g = _parse_graph(cfg.graph)
    params = AssemblyParams(N=cfg.N, K=cfg.K, a=cfg.a, b=cfg.b)
    margin = cfg.margin if cfg.margin is not None else 0.4

    records = []
    failures = 0
    by_kind = {"edge": 0, "non_edge": 0, "size": 0}
    for t in range(cfg.trials):
        seed_t = spawn_seed(cfg.seed, "trial", t)
        family, _ = soft_realize(g, params, seed=seed_t, margin=margin)
        report = verify_representation(g, family, params, size_mode="expected")
        failure = not report.ok
        failures += failure
        for v in report.violations:
            by_kind[v.kind] += 1
        edge_inters = [
            int(np.intersect1d(family.sets[u], family.sets[v], assume_unique=True).size)
            for u, v in g.sorted_edges()
        ]
        records.append(
            {
                "trial": t,
                "seed": seed_t,
                "statistic": float(min(edge_inters)) if edge_inters else 0.0,
                "threshold": float(params.a),
                "failure": bool(failure),
                "violations": len(report.violations),
            }
        )
    summary = _rate_summary(failures, cfg.trials)
    summary.update(
        {
            "margin": margin,
            "all_constraints_rate": 1.0 - summary["failure_rate"],
            "violations_by_kind": by_kind,
        }
    )
    return ExperimentReport(cfg, tuple(records), summary)


_RUNNERS = {
    "sigma_min": run_sigma_min_experiment,
    "echelon": run_echelon_experiment,
    "roundtrip": run_roundtrip_experiment,
    "soft_model": run_soft_model_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[cfg.kind](cfg)

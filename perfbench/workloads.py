"""The benchmark's workloads: one operation each, its ground-truth check and its digest.

Importing this module imports venndec from the ``src`` directory of the
checkout that holds this file, and nothing else: a copy of the package
installed elsewhere is refused, so a directory without the sources fails.

Every operation calls the package through its public API, looked up on the
module at call time so that the traced run sees the call.  Inputs come from
the per-op seed alone.  A check returns ``None`` when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import venndec  # noqa: E402

if Path(venndec.__file__).resolve().parent != ROOT / "src" / "venndec":
    raise ImportError(f"venndec imported from {venndec.__file__}, not from {ROOT / 'src'}")

from venndec import assemblies, decomp, echelon, experiments, perturb  # noqa: E402
from venndec.assemblies import AssemblyParams, AssociationGraph  # noqa: E402
from venndec.perturb import BitFlip, MembershipMatrix  # noqa: E402
from venndec.venn import VennDiagram  # noqa: E402

WEIGHT_L1_TOL = 1e-4  # criterion 07's noisy-roundtrip check
CERT_SLACK = 1e-9  # criterion 03's soundness slack
SANDWICH_SLACK = 1e-9  # criterion 05's slack
SOFT_MIN_OK_FRAC = 0.95  # criterion 09's rate for the soft model


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(1))


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# roundtrip: one run_experiment trial


@dataclass(frozen=True)
class RoundtripOutcome:
    trial_seed: int
    recovered: object  # VennDiagram, or the ValueError reconstruct raised


def _roundtrip_op(n, ell, m, q):
    def op(seed: int) -> RoundtripOutcome:
        cfg = experiments.ExperimentConfig(
            kind="roundtrip", trials=1, seed=seed, n=n, ell=ell, m=m, m_max=m,
            model={"model": "bitflip", "q": q}, eps=1e-8,
        )
        # run_experiment keeps only a summary of the recovered diagram, so the
        # diagram is captured on its way out of reconstruct
        box = []
        original = experiments.reconstruct

        def capture(*args, **kwargs):
            try:
                box.append(original(*args, **kwargs))
            except ValueError as exc:
                box.append(exc)
                raise
            return box[-1]

        experiments.reconstruct = capture
        try:
            report = experiments.run_experiment(cfg)
        finally:
            experiments.reconstruct = original
        return RoundtripOutcome(report.records[0]["seed"], box[0])

    def truth(out: RoundtripOutcome) -> VennDiagram:
        x = perturb.perturb_memberships(MembershipMatrix(np.ones((n, m)), n), BitFlip(q), out.trial_seed)
        return VennDiagram.from_columns(x.X, merge_duplicates=True)

    def check(out: RoundtripOutcome) -> str | None:
        if isinstance(out.recovered, Exception):
            return f"reconstruct raised: {out.recovered}"
        return check_diagram(truth(out), out.recovered)

    def digest(out: RoundtripOutcome) -> list:
        if isinstance(out.recovered, Exception):
            return ["raised", str(out.recovered)]
        return [[list(r.pattern), _fmt(r.weight)] for r in out.recovered.regions]

    return op, check, digest


def check_diagram(truth: VennDiagram, recovered: VennDiagram) -> str | None:
    """Same pattern set, and weights within WEIGHT_L1_TOL in L1 (written here
    rather than through venn.diagram_diff, which the op itself calls)."""
    w_true = {r.pattern: r.weight for r in truth.regions}
    w_rec = {r.pattern: r.weight for r in recovered.regions}
    if set(w_true) != set(w_rec):
        return (
            f"pattern sets differ: {len(set(w_true) - set(w_rec))} missing, "
            f"{len(set(w_rec) - set(w_true))} extra"
        )
    l1 = sum(abs(w_true[p] - w_rec[p]) for p in w_true)
    if not l1 <= WEIGHT_L1_TOL:
        return f"weight L1 {l1:.3e} > {WEIGHT_L1_TOL}"
    return None


# ---------------------------------------------------------------------------
# echelon: criterion 01's tree size, then a certificate


@dataclass(frozen=True)
class EchelonOutcome:
    v: np.ndarray  # orthonormal basis of V, (216, 27)
    verified: bool
    chis: list
    cert: float
    leaves: int


def echelon_op(seed: int) -> EchelonOutcome:
    dims = (6, 6, 6)
    rng = np.random.default_rng(seed)
    v = echelon.SubspaceBasis.from_span(rng.standard_normal((216, 27)), dims)
    w = echelon.orthogonal_complement(v)
    tree, _ = echelon.build_echelon_tree(w, echelon.BranchingSpec((0.5, 0.5, 0.5)))
    verified = echelon.verify_echelon(tree, tolerance=1e-9).ok
    x = perturb.perturb_memberships(MembershipMatrix(np.ones((18, 1)), 6), BitFlip(0.5), seed)
    chis = [x.X[6 * k : 6 * (k + 1), 0] for k in range(3)]
    cert = echelon.certify_distance(tree, chis)
    return EchelonOutcome(v.vectors, verified, chis, cert, len(tree.leaf_tensors))


def exact_distance(v: np.ndarray, chis) -> float:
    """Euclidean distance from chi_1 (x) ... (x) chi_k to span(v)."""
    x = chis[0]
    for chi in chis[1:]:
        x = np.multiply.outer(x, chi)
    x = x.ravel()
    return float(np.linalg.norm(x - v @ (v.T @ x)))


def check_certificate(cert: float, exact: float) -> str | None:
    if not cert <= exact + CERT_SLACK:
        return f"unsound certificate: {cert!r} > exact distance {exact!r}"
    return None


def _echelon_check(out: EchelonOutcome) -> str | None:
    if not out.verified:
        return "verify_echelon found a violation"
    return check_certificate(out.cert, exact_distance(out.v, out.chis))


def _echelon_digest(out: EchelonOutcome) -> list:
    return [out.verified, out.leaves, _fmt(out.cert)]


# ---------------------------------------------------------------------------
# conditioning: criterion 06's sigma_min matrix, then condition_report


def conditioning_op(seed: int):
    n, ell, m = 60, 2, 900
    x = perturb.perturb_memberships(MembershipMatrix(np.ones((ell * n, m)), n), BitFlip(0.5), seed)
    blocks = x.X.reshape(ell, n, m)
    a = np.einsum("ir,jr->ijr", blocks[0], blocks[1]).reshape(-1, m)
    return decomp.condition_report(a)


def check_sandwich(sigma_min: float, loo: np.ndarray) -> str | None:
    """sigma_min <= min_j dist_j <= sqrt(m) * sigma_min."""
    lo = float(np.min(loo))
    hi = math.sqrt(loo.size) * sigma_min
    if not sigma_min <= lo + SANDWICH_SLACK:
        return f"sigma_min {sigma_min!r} above min leave-one-out {lo!r}"
    if not lo <= hi + SANDWICH_SLACK:
        return f"min leave-one-out {lo!r} above sqrt(m) sigma_min {hi!r}"
    return None


def _conditioning_check(rep) -> str | None:
    if rep.min_leave_one_out != float(np.min(rep.leave_one_out)):
        return "min_leave_one_out disagrees with the leave-one-out values"
    return check_sandwich(rep.sigma_min, rep.leave_one_out)


def _conditioning_digest(rep) -> list:
    return [_fmt(rep.sigma_min), [_fmt(d) for d in rep.leave_one_out]]


# ---------------------------------------------------------------------------
# assemblies: criterion 08's graphs exactly, and a cycle in the soft model

ASSEMBLY_PARAMS = AssemblyParams(N=10**6, K=1000, a=80, b=40)


def degree_capped_graph(rng: np.random.Generator, p: AssemblyParams) -> AssociationGraph:
    """Criterion 08's random graph: 4..16 vertices, degree at most K // a."""
    cap = p.K // p.a
    n_vertices = int(rng.integers(4, 17))
    deg = [0] * n_vertices
    edges = set()
    for _ in range(4 * n_vertices):
        u, v = (int(x) for x in rng.integers(0, n_vertices, size=2))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or deg[e[0]] >= cap or deg[e[1]] >= cap:
            continue
        edges.add(e)
        deg[e[0]] += 1
        deg[e[1]] += 1
    return AssociationGraph.from_edges(n_vertices, edges)


@dataclass(frozen=True)
class AssembliesOutcome:
    graph: AssociationGraph
    exact: object  # AssemblyFamily
    exact_ok: bool
    cycle: AssociationGraph
    soft: object
    soft_ok: bool


def assemblies_op(seed: int) -> AssembliesOutcome:
    p = ASSEMBLY_PARAMS
    g = degree_capped_graph(np.random.default_rng(seed), p)
    family = assemblies.represent_graph(g, p)
    exact_ok = assemblies.verify_representation(g, family, p).ok
    cycle = AssociationGraph.cycle(g.n_vertices)
    soft, _ = assemblies.soft_realize(cycle, p, seed=seed)
    soft_ok = assemblies.verify_representation(cycle, soft, p, size_mode="expected").ok
    return AssembliesOutcome(g, family, exact_ok, cycle, soft, soft_ok)


def represents(g: AssociationGraph, sets, p: AssemblyParams, exact_sizes: bool) -> bool:
    """Recount every size and pairwise intersection with Python sets."""
    members = [set(s.tolist()) for s in sets]
    slack = 3.0 * math.sqrt(p.K)
    for s in members:
        if (len(s) != p.K) if exact_sizes else (abs(len(s) - p.K) > slack):
            return False
    for u in range(len(members)):
        for v in range(u + 1, len(members)):
            inter = len(members[u] & members[v])
            if (inter < p.a) if (u, v) in g.edges else (inter > p.b):
                return False
    return True


def check_assemblies(out: AssembliesOutcome) -> str | None:
    """The exact construction must verify; the soft model may miss (it is
    only likely to succeed), but its verdict must match a recount."""
    p = ASSEMBLY_PARAMS
    if not out.exact_ok:
        return "verify_representation rejected the exact construction"
    if not represents(out.graph, out.exact.sets, p, exact_sizes=True):
        return "exact construction fails the recount"
    if out.soft_ok != represents(out.cycle, out.soft.sets, p, exact_sizes=False):
        return f"soft verdict {out.soft_ok} disagrees with the recount"
    return None


def _assemblies_digest(out: AssembliesOutcome) -> list:
    return [out.graph.to_edge_list_text(), out.exact_ok, out.soft_ok, out.soft.sizes()]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Why each workload is there: BENCHMARK.json, and BASELINE.md for roundtrip-l4."""

    name: str
    op: Callable[[int], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], list]
    digest_ops: int  # ops hashed into the digest; every run completes this many


def _roundtrip(name, n, ell, m, q, digest_ops):
    op, check, digest = _roundtrip_op(n, ell, m, q)
    return Workload(name, op, check, digest, digest_ops)


WORKLOADS = {
    w.name: w
    for w in (
        _roundtrip("roundtrip-l3", n=30, ell=3, m=20, q=0.2, digest_ops=8),
        _roundtrip("roundtrip-l4", n=32, ell=4, m=6, q=0.5, digest_ops=8),
        Workload("echelon", echelon_op, _echelon_check, _echelon_digest, digest_ops=3),
        Workload("conditioning", conditioning_op, _conditioning_check, _conditioning_digest, digest_ops=3),
        Workload("assemblies", assemblies_op, check_assemblies, _assemblies_digest, digest_ops=50),
    )
}

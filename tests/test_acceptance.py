"""Acceptance battery: ten criteria, one test each, run with pytest -v."""

import json
import math
import time

import numpy as np
import pytest

from venndec.assemblies import (
    AssemblyParams,
    AssociationGraph,
    represent_graph,
    verify_representation,
)
from venndec.decomp import condition_report, jennrich
from venndec.echelon import (
    BranchingSpec,
    SubspaceBasis,
    build_echelon_tree,
    certify_distance,
    collapse,
    orthogonal_complement,
    verify_echelon,
)
from venndec.experiments import (
    ExperimentConfig,
    report_json_text,
    run_experiment,
    sigma_min_bound,
)
from venndec.rng import generator
from venndec.tensor import Tensor, outer

BITFLIP_HALF = {"model": "bitflip", "q": 0.5}


@pytest.fixture(scope="module")
def big_trees():
    """20 trees over random 189-dimensional subspaces of R^(6x6x6)."""
    t0 = time.perf_counter()
    trees = []
    for i in range(20):
        rng = generator(1000 + i, "acceptance", "tree")
        w = SubspaceBasis.from_span(rng.standard_normal((216, 189)), (6, 6, 6))
        tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 0.5, 0.5)))
        trees.append(tree)
    return trees, time.perf_counter() - t0


def test_criterion_01_echelon_construction(big_trees):
    trees, build_elapsed = big_trees
    t0 = time.perf_counter()
    for tree in trees:
        assert verify_echelon(tree, tolerance=1e-9).ok
        for idx, tensor in tree.leaf_tensors.items():
            assert abs(np.max(np.abs(tensor.data)) - 1.0) <= 1e-12
            assert abs(abs(tensor.data[idx]) - 1.0) <= 1e-12
        # every internal node branches at least ceil(0.5 * 6) = 3 ways
        def check(children, level):
            assert len(children) >= 3
            for node in children:
                if "children" in node:
                    check(node["children"], level + 1)

        check(tree.to_json_dict()["tree"], 1)
    elapsed = build_elapsed + (time.perf_counter() - t0)
    assert elapsed < 30.0, f"echelon construction took {elapsed:.1f}s"


def test_criterion_02_collapse_keeps_echelon(big_trees):
    trees, _ = big_trees
    for tree in trees:
        for mode in (0, 1):
            assert verify_echelon(collapse(tree, mode), tolerance=1e-9).ok
        flat = collapse(collapse(tree, 0), 0)
        assert flat.height == 1
        vectors = np.stack([t.data.ravel() for t in flat.leaf_tensors.values()], axis=1)
        sigma_min = float(np.linalg.svd(vectors, compute_uv=False)[-1])
        assert sigma_min > 1e-8


def test_criterion_03_certificate_soundness():
    rng = generator(3, "acceptance", "certify")
    for trial in range(1000):
        dim_v = int(rng.integers(1, 16))
        vb = np.linalg.qr(rng.standard_normal((16, dim_v)))[0]
        w = orthogonal_complement(SubspaceBasis((4, 4), vb))
        alpha = 1.0 - math.sqrt(dim_v / 16.0)
        tree, _ = build_echelon_tree(w, BranchingSpec((alpha, alpha)))
        chis = [rng.standard_normal(4), rng.standard_normal(4)]
        x = np.outer(chis[0], chis[1]).ravel()
        exact = float(np.linalg.norm(x - vb @ (vb.T @ x)))
        cert = certify_distance(tree, chis)
        assert cert <= exact + 1e-9, f"trial {trial}: certified {cert} > exact {exact}"


def test_criterion_04_jennrich_roundtrip():
    n, m = 8, 6
    t0 = time.perf_counter()
    clean_ok = 0
    for trial in range(100):
        rng = generator(4, "acceptance", "clean", trial)
        factors = [rng.standard_normal((n, m)) for _ in range(3)]
        for f in factors:
            f /= np.linalg.norm(f, axis=0)
        scales = rng.uniform(0.5, 2.0, size=m)
        data = np.zeros((n, n, n))
        for j in range(m):
            data += scales[j] * outer([f[:, j] for f in factors]).data
        result = jennrich(Tensor(data), m, seed=trial)
        matched = 0
        used = set()
        for j in range(m):
            best, best_dot = None, -1.0
            for i, term in enumerate(result.factors[0].T):
                if i in used:
                    continue
                d = abs(float(term @ factors[0][:, j]))
                if d > best_dot:
                    best, best_dot = i, d
            used.add(best)
            truth = scales[j] * outer([f[:, j] for f in factors]).data
            recovered = result.scales[best] * outer([F[:, best] for F in result.factors]).data
            rel = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
            matched += rel <= 1e-6
        clean_ok += matched == m
    assert clean_ok >= 99, f"clean roundtrip matched in only {clean_ok}/100 trials"

    noisy_ok = 0
    eps = 1e-6
    for trial in range(100):
        rng = generator(4, "acceptance", "noisy", trial)
        factors = [rng.standard_normal((n, m)) for _ in range(3)]
        for f in factors:
            f /= np.linalg.norm(f, axis=0)
        scales = rng.uniform(0.5, 2.0, size=m)
        data = np.zeros((n, n, n))
        for j in range(m):
            data += scales[j] * outer([f[:, j] for f in factors]).data
        data += rng.uniform(-eps, eps, size=data.shape)
        result = jennrich(Tensor(data), m, seed=trial)
        noisy_ok += result.recon_residual <= 1e-3
    elapsed = time.perf_counter() - t0
    assert noisy_ok >= 95, f"noisy residual under 1e-3 in only {noisy_ok}/100 trials"
    assert elapsed < 60.0, f"decomposition trials took {elapsed:.1f}s"


def test_criterion_05_leave_one_out_sandwich():
    rng = generator(5, "acceptance", "loo")
    for trial in range(200):
        if trial == 0:
            rows, m = 3600, 900
        else:
            rows = 2 + int(3598 * float(rng.random()) ** 3)
            m = 1 + int((min(rows, 900) - 1) * float(rng.random()) ** 2)
        rep = condition_report(rng.standard_normal((rows, m)))
        assert rep.sigma_min <= rep.min_leave_one_out + 1e-9
        assert rep.min_leave_one_out <= math.sqrt(m) * rep.sigma_min + 1e-9


def test_criterion_06_sigma_min_monte_carlo():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="sigma_min", trials=50, seed=6, n=60, ell=2, m=900, c=0.5, model=BITFLIP_HALF
    )
    report = run_experiment(cfg)
    assert report.summary["bound"] == pytest.approx(0.012069940567016602, rel=1e-12)
    assert sigma_min_bound(60, 2, 0.5, 0.5) == report.summary["bound"]
    assert not report.summary["bound_vacuous"]
    for rec in report.records:
        assert rec["threshold"] == pytest.approx((0.5 / 60) ** 2, rel=1e-12)
    assert report.summary["failures"] <= 2, report.summary
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"sigma_min trials took {elapsed:.1f}s"


def test_criterion_07_venn_roundtrip():
    t0 = time.perf_counter()
    base = dict(n=30, ell=3, m=20, m_max=20, model={"model": "bitflip", "q": 0.2})
    exact_cfg = ExperimentConfig(kind="roundtrip", trials=50, seed=7, **base)
    report = run_experiment(exact_cfg)
    assert report.summary["failures"] <= 2, report.summary

    noisy_cfg = ExperimentConfig(kind="roundtrip", trials=50, seed=7, eps=1e-8, **base)
    noisy = run_experiment(noisy_cfg)
    checked = 0
    for rec in noisy.records:
        if rec["patterns_match"]:
            assert rec["statistic"] <= 1e-4, rec
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"roundtrip trials took {elapsed:.1f}s"


def test_criterion_08_exact_representation():
    params = AssemblyParams(N=10**6, K=1000, a=80, b=40)
    cap = params.K // params.a
    rng = generator(8, "acceptance", "graphs")
    for trial in range(50):
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
        g = AssociationGraph.from_edges(n_vertices, edges)
        family = represent_graph(g, params)
        report = verify_representation(g, family, params)
        assert report.ok, f"trial {trial}: {[str(v) for v in report.violations]}"


def test_criterion_09_soft_model_cycle():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="soft_model", trials=100, seed=9,
        graph="cycle:10", K=1000, a=80, b=40, N=10**6,
    )
    report = run_experiment(cfg)
    assert report.summary["all_constraints_rate"] >= 0.95, report.summary
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"soft model trials took {elapsed:.1f}s"


def test_criterion_10_reproducibility():
    configs = [
        ExperimentConfig(kind="sigma_min", trials=3, seed=10, n=8, ell=2, m=4, c=0.5, model=BITFLIP_HALF),
        ExperimentConfig(kind="echelon", trials=3, seed=11, n=4, ell=2, c=0.5, model=BITFLIP_HALF),
        ExperimentConfig(kind="roundtrip", trials=2, seed=1, n=18, ell=3, m=2, m_max=2, model=BITFLIP_HALF),
        ExperimentConfig(kind="soft_model", trials=3, seed=13, graph="cycle:4", K=500, a=40, b=10, N=10**5),
    ]
    for cfg in configs:
        text = report_json_text(run_experiment(cfg))
        embedded = json.loads(text)["config"]
        again = report_json_text(run_experiment(ExperimentConfig.from_json_dict(embedded)))
        assert again == text, f"{cfg.kind} report changed on re-run"

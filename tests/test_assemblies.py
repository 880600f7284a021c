import math

import numpy as np
import pytest

from venndec.assemblies import (
    AssemblyFamily,
    AssemblyParams,
    AssociationGraph,
    Instruction,
    _sample_universe,
    represent_graph,
    soft_build,
    soft_realize,
    verify_representation,
)
from venndec.rng import generator


# --- graphs -------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        AssociationGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        AssociationGraph.from_edges(3, [(0, 3)])
    g = AssociationGraph.from_edges(3, [(2, 0)])
    assert g.edges == frozenset({(0, 2)})


def test_cycle_graph():
    g = AssociationGraph.cycle(5)
    assert g.n_vertices == 5
    assert len(g.edges) == 5
    assert g.max_degree() == 2
    assert sorted(v for e in g.edges for v in e) == sorted(list(range(5)) * 2)
    with pytest.raises(ValueError):
        AssociationGraph.cycle(2)


def test_edge_queries():
    g = AssociationGraph.from_edges(4, [(0, 1), (2, 3)])
    assert g.sorted_edges() == [(0, 1), (2, 3)]
    assert g.max_degree() == 1


def test_edge_list_text_roundtrip():
    g = AssociationGraph.from_edges(5, [(0, 1), (1, 4)])
    text = g.to_edge_list_text()
    assert text.splitlines()[0] == "# vertices 5"
    assert "2 5" in text  # labels are 1-based on disk
    back = AssociationGraph.from_edge_list_text(text)
    assert back.n_vertices == 5
    assert back.edges == g.edges
    # without the header the largest label sets the vertex count
    assert AssociationGraph.from_edge_list_text("1 2\n2 4\n").n_vertices == 4
    with pytest.raises(ValueError, match="1-based"):
        AssociationGraph.from_edge_list_text("0 1\n")
    with pytest.raises(ValueError, match="per line"):
        AssociationGraph.from_edge_list_text("1 2 3\n")


# --- parameters and exact construction -----------------------------------------


def test_params_validation():
    AssemblyParams(100, 10, 5, 2)
    for bad in ((100, 10, 5, 5), (100, 10, 11, 2), (9, 10, 5, 2), (100, 10, 0, -1)):
        with pytest.raises(ValueError):
            AssemblyParams(*bad)


def test_represent_path_graph():
    g = AssociationGraph.from_edges(3, [(0, 1), (1, 2)])
    p = AssemblyParams(N=2000, K=100, a=30, b=5)
    family = represent_graph(g, p)
    assert family.sizes() == [100, 100, 100]
    s = family.sets
    assert np.intersect1d(s[0], s[1]).size == p.a
    assert np.intersect1d(s[1], s[2]).size == p.a
    assert np.intersect1d(s[0], s[2]).size == 0
    assert verify_representation(g, family, p).ok


def test_represent_rejects_high_degree():
    star = AssociationGraph.from_edges(14, [(0, v) for v in range(1, 14)])
    p = AssemblyParams(N=10**6, K=1000, a=80, b=20)
    with pytest.raises(ValueError, match="max degree"):
        represent_graph(star, p)


def test_represent_rejects_small_universe():
    g = AssociationGraph.cycle(4)
    with pytest.raises(ValueError, match="universe exhausted"):
        represent_graph(g, AssemblyParams(N=400, K=100, a=20, b=5))


def test_verify_flags_tampering():
    g = AssociationGraph.from_edges(3, [(0, 1)])
    p = AssemblyParams(N=1000, K=50, a=10, b=2)
    family = represent_graph(g, p)
    assert verify_representation(g, family, p).ok

    truncated = AssemblyFamily(p.N, (family.sets[0][:40],) + family.sets[1:])
    rep = verify_representation(g, truncated, p)
    assert not rep.ok
    assert {v.kind for v in rep.violations} == {"size"}

    # vertex 2 stealing vertex 0's elements breaks the non-edge (0, 2)
    stolen = AssemblyFamily(p.N, family.sets[:2] + (family.sets[0],))
    rep = verify_representation(g, stolen, p)
    kinds = {v.kind for v in rep.violations}
    assert "non_edge" in kinds

    # removing the shared block from vertex 1 breaks the edge (0, 1)
    shared = np.intersect1d(family.sets[0], family.sets[1])
    cut = np.setdiff1d(family.sets[1], shared)
    broken = AssemblyFamily(p.N, (family.sets[0], cut, family.sets[2]))
    rep = verify_representation(g, broken, p, size_mode="expected")
    assert any(v.kind == "edge" and v.where == (0, 1) for v in rep.violations)


def test_verify_checks_family_shape():
    g = AssociationGraph.cycle(3)
    p = AssemblyParams(N=100, K=5, a=2, b=0)
    with pytest.raises(ValueError, match="sets for"):
        verify_representation(g, AssemblyFamily(100, (np.arange(5),)), p)
    with pytest.raises(ValueError, match="size_mode"):
        verify_representation(g, AssemblyFamily(100, (np.arange(5),) * 3), p, size_mode="average")


def violations_by_loop(g, sets, p, size_mode):
    """The pairwise loop that ``verify_representation`` replaced, kept as the
    reference for its violations, their order and their values."""
    out = []
    for v, s in enumerate(sets):
        if (s.size != p.K) if size_mode == "exact" else (abs(s.size - p.K) > 3.0 * math.sqrt(p.K)):
            out.append(f"size at ({v},): {s.size}")
    for u in range(len(sets)):
        for v in range(u + 1, len(sets)):
            inter = np.intersect1d(sets[u], sets[v]).size
            if (u, v) in g.edges:
                if inter < p.a:
                    out.append(f"edge at {(u, v)}: {inter}")
            elif inter > p.b:
                out.append(f"non_edge at {(u, v)}: {inter}")
    return out


@pytest.mark.parametrize("build", ["exact", "soft"])
def test_verify_reports_every_overlap(build):
    g = AssociationGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    p = AssemblyParams(N=20000, K=600, a=60, b=30)
    family = represent_graph(g, p) if build == "exact" else soft_realize(g, p, seed=3)[0]
    s = family.sets
    want = [[np.intersect1d(s[u], s[v]).size for v in range(6)] for u in range(6)]
    # the tight thresholds make the soft family break every kind of constraint
    for q in (p, AssemblyParams(N=20000, K=600, a=100, b=15)):
        for size_mode in ("exact", "expected"):
            report = verify_representation(g, family, q, size_mode=size_mode)
            assert report.overlaps.dtype == np.int64 and not report.overlaps.flags.writeable
            np.testing.assert_array_equal(report.overlaps, want)
            assert [str(v) for v in report.violations] == violations_by_loop(g, s, q, size_mode)
            assert report.ok == (not report.violations)


def test_family_validation():
    fam = AssemblyFamily(10, (np.array([9, 0, 3]), np.array([], dtype=np.int64)))
    assert fam.sizes() == [3, 0]
    np.testing.assert_array_equal(fam.sets[0], [0, 3, 9])
    with pytest.raises(ValueError, match="duplicate"):
        AssemblyFamily(10, (np.array([1, 1, 2]),))
    with pytest.raises(ValueError, match="outside"):
        AssemblyFamily(10, (np.array([10]),))


# --- soft model -----------------------------------------------------------------


def test_instruction_validation():
    with pytest.raises(ValueError, match="unknown op"):
        Instruction("xor", ("a", "b"), "c")
    with pytest.raises(ValueError, match="probability"):
        Instruction("sample", ("universe", 1.5), "s")
    with pytest.raises(ValueError, match="two set names"):
        Instruction("union", ("a",), "c")


def test_soft_build_set_semantics():
    program = [
        Instruction("sample", ("universe", 1.0), "all"),
        Instruction("sample", ("all", 0.5), "s"),
        Instruction("difference", ("all", "s"), "rest"),
        Instruction("intersection", ("s", "rest"), "empty"),
        Instruction("union", ("s", "rest"), "back"),
    ]
    env = soft_build(program, 50, seed=3)
    np.testing.assert_array_equal(env["all"], np.arange(50))
    assert env["empty"].size == 0
    np.testing.assert_array_equal(env["back"], np.arange(50))
    assert np.intersect1d(env["s"], env["rest"]).size == 0


def test_soft_build_errors():
    with pytest.raises(ValueError, match="undefined set"):
        soft_build([Instruction("union", ("a", "b"), "c")], 10)
    with pytest.raises(ValueError, match="raw universe"):
        soft_build([Instruction("union", ("universe", "universe"), "c")], 10)
    with pytest.raises(ValueError, match="positive"):
        soft_build([], 0)


def test_soft_sample_statistics():
    n, prob = 20000, 0.3
    program = [Instruction("sample", ("universe", prob), "s")]
    sizes = []
    for seed in range(5):
        s = soft_build(program, n, seed=seed)["s"]
        assert np.all(np.diff(s) > 0)  # sorted and distinct
        sizes.append(s.size)
    mean, sd = n * prob, math.sqrt(n * prob * (1 - prob))
    assert all(abs(k - mean) <= 5 * sd for k in sizes)
    assert len(set(sizes)) > 1


@pytest.mark.parametrize("n_total", [1, 40, 3000, 20000])
def test_sample_universe_draws_a_binomial_count_of_distinct_elements(n_total):
    for prob in (0.0, 0.05, 0.3, 0.9, 0.999, 1.0):
        got = _sample_universe(generator(5, "soft", 0), n_total, prob)
        assert got.dtype == np.int64
        assert np.all(np.diff(got) > 0) and np.all((got >= 0) & (got < n_total))
        assert got.size == generator(5, "soft", 0).binomial(n_total, prob)
        if prob == 1.0:
            np.testing.assert_array_equal(got, np.arange(n_total))


def test_soft_build_is_deterministic():
    program = [Instruction("sample", ("universe", 0.2), "s")]
    a = soft_build(program, 10000, seed=7)["s"]
    b = soft_build(program, 10000, seed=7)["s"]
    np.testing.assert_array_equal(a, b)
    c = soft_build(program, 10000, seed=8)["s"]
    assert a.size != c.size or not np.array_equal(a, c)


def test_soft_realize_single_edge():
    g = AssociationGraph.from_edges(2, [(0, 1)])
    p = AssemblyParams(N=20000, K=600, a=100, b=20)
    ok = 0
    for seed in range(200):
        family, program = soft_realize(g, p, seed=seed, margin=0.25)
        if verify_representation(g, family, p, size_mode="expected").ok:
            ok += 1
    assert ok >= 190, f"only {ok}/200 soft realizations verified"


def test_soft_realize_transcript_replays():
    g = AssociationGraph.cycle(4)
    p = AssemblyParams(N=10**5, K=500, a=40, b=10)
    family, program = soft_realize(g, p, seed=11)
    env = soft_build(program, p.N, seed=11)
    for v in range(4):
        np.testing.assert_array_equal(env[f"set_{v + 1}"], family.sets[v])


def test_soft_realize_cycle_verifies():
    g = AssociationGraph.cycle(10)
    p = AssemblyParams(N=10**6, K=1000, a=80, b=20)
    ok = 0
    for seed in range(10):
        family, _ = soft_realize(g, p, seed=seed)
        if verify_representation(g, family, p, size_mode="expected").ok:
            ok += 1
    assert ok >= 9, f"only {ok}/10 soft realizations verified"


def test_soft_realize_degree_precondition():
    star = AssociationGraph.from_edges(6, [(0, v) for v in range(1, 6)])
    p = AssemblyParams(N=10**6, K=1000, a=80, b=20)
    with pytest.raises(ValueError, match="max degree"):
        soft_realize(star, p)


def test_soft_realize_margin_bounds():
    g = AssociationGraph.from_edges(2, [(0, 1)])
    p = AssemblyParams(N=20000, K=600, a=100, b=20)
    with pytest.raises(ValueError, match="margin"):
        soft_realize(g, p, margin=-0.1)
    # a margin so large the filler rate would go negative
    with pytest.raises(ValueError, match="infeasible margin"):
        soft_realize(g, p, margin=5.5)

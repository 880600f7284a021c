"""Self-tests of the benchmark itself: python3 -m pytest perfbench"""

import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from venndec.venn import Region, VennDiagram

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    computed_layer = run.per_layer_units()
    assert all(computed_layer[name] == unit for name, unit in declared_layer.items())
    for name in list(computed_layer) + ["failed_frac"]:
        assert name_re.fullmatch(name) and len(name) <= 64, name
    assert run.ALL_WORKLOADS == tuple(workloads.WORKLOADS)
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(listed) == set(run.ALL_WORKLOADS) - {"roundtrip-l4"}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(30, 0, -1)]
    value, pct, beyond = run.tail(xs)
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(x > value for x in xs) == 10
    # the next order statistic up would leave only nine beyond
    assert sum(x > 21.0 for x in xs) == 9
    assert run.tail([float(i) for i in range(1, 12)]) == (1.0, 100 / 11, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _span(name, start, end, parent, op=0, nbytes=0):
    return [name, start, end, parent, op, nbytes]


def test_self_time_on_synthetic_tree():
    tree = [
        _span("op", 0.0, 10.0, None),
        _span("decomp.jennrich", 1.0, 4.0, 0),
        _span("decomp.pinv", 2.0, 3.0, 1),
        _span("venn.nnls", 5.0, 9.0, 0, nbytes=100),
        _span("op", 10.0, 12.0, None, op=1),
        _span("decomp.pinv", 10.5, 11.0, 4, op=1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5, 0.5])
    m = spans.layer_metrics(tree, n_ops=2)
    assert m["decomp.pinv.calls_per_op"] == 1.0
    assert m["decomp.pinv.self_ms_per_op"] == pytest.approx(750.0)
    assert m["decomp.jennrich.self_ms_per_op"] == pytest.approx(1000.0)
    assert m["venn.nnls.design_bytes_per_op"] == 50.0
    # one pinv under jennrich, two per attempt
    assert m["decomp.jennrich.probe_attempts_per_call"] == 0.5
    inclusive = spans.inclusive_ms_per_op(tree, n_ops=2)
    assert inclusive["decomp.jennrich"] == pytest.approx(1500.0)
    assert inclusive["op"] == pytest.approx(6000.0)


def test_self_time_counts_overlapping_children_once():
    tree = [_span("op", 0.0, 10.0, None), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_split_route_fraction():
    tree = [
        _span("venn.reconstruct", 0.0, 5.0, None),
        _span("tensor.extract_subtensor", 1.0, 2.0, 0),
        _span("venn.reconstruct", 5.0, 9.0, None, op=1),
    ]
    assert spans.layer_metrics(tree, n_ops=2)["venn.reconstruct.split_route_frac"] == 0.5


def _diagram(*regions):
    return VennDiagram(3, tuple(Region(p, w) for p, w in regions))


def test_check_flags_planted_wrong_diagram():
    truth = _diagram(((1, 0, 1), 2.0), ((0, 1, 1), 1.0))
    assert workloads.check_diagram(truth, _diagram(((1, 0, 1), 2.0), ((0, 1, 1), 1.0 + 1e-6))) is None
    assert workloads.check_diagram(truth, _diagram(((1, 0, 1), 2.0), ((0, 1, 0), 1.0))) is not None
    assert workloads.check_diagram(truth, _diagram(((1, 0, 1), 2.0))) is not None
    assert workloads.check_diagram(truth, _diagram(((1, 0, 1), 2.0), ((0, 1, 1), 1.001))) is not None


def test_check_flags_unsound_certificate():
    v = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    chis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    exact = workloads.exact_distance(v, chis)
    assert workloads.check_certificate(0.5 * exact, exact) is None
    assert workloads.check_certificate(exact + 1e-6, exact) is not None


def test_check_flags_broken_sandwich():
    a = np.random.default_rng(1).standard_normal((40, 10))
    sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
    from venndec.decomp import leave_one_out_distances

    loo = leave_one_out_distances(a)
    assert workloads.check_sandwich(sigma_min, loo) is None
    assert workloads.check_sandwich(2.0 * float(np.min(loo)), loo) is not None
    assert workloads.check_sandwich(float(np.min(loo)) / (2.0 * np.sqrt(loo.size)), loo) is not None


def test_check_flags_planted_bad_representation():
    out = workloads.assemblies_op(workloads.op_seed(5, 0))
    assert workloads.check_assemblies(out) is None
    sets = list(out.exact.sets)
    sets[0] = sets[0][1:]  # one element short of K
    broken = type(out.exact)(out.exact.N, tuple(sets))
    bad = workloads.AssembliesOutcome(out.graph, broken, True, out.cycle, out.soft, out.soft_ok)
    assert workloads.check_assemblies(bad) is not None
    flipped = workloads.AssembliesOutcome(out.graph, out.exact, True, out.cycle, out.soft, not out.soft_ok)
    assert workloads.check_assemblies(flipped) is not None


def _bindings():
    """Every attribute of every venndec module and class, by identity."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] != "venndec":
            continue
        for attr, value in vars(mod).items():
            out[(key, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("venndec"):
                for cattr, cvalue in vars(value).items():
                    out[(key, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_wrapped_attribute():
    from venndec import decomp, echelon, venn

    before = _bindings()
    rec = spans.Recorder()
    with spans.traced(rec):
        assert decomp.jennrich is not before[("venndec.decomp", "jennrich")]
        assert venn.nnls is not before[("venndec.venn", "nnls")]
        assert "__init__" in vars(venn.MeasurementTensor)
        assert vars(echelon.SubspaceBasis)["from_span"] is not before[
            ("venndec.echelon", "SubspaceBasis", "from_span")
        ]
        with rec.op_span(0):
            decomp.condition_report(np.eye(3))
        decomp.condition_report(np.eye(3))  # outside an op: not recorded
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in rec.spans]
    assert names[:2] == ["op", "decomp.condition_report"]
    assert names.count("decomp.svdvals") == 2 and len(names) == 6


@pytest.mark.parametrize("name", ["assemblies", "roundtrip-l3"])
def test_traced_and_untraced_ops_hash_alike(name):
    wl = workloads.WORKLOADS[name]
    before = _bindings()
    rec = spans.Recorder()
    plain, traced = run.measure_paired(wl, 3, 0.0, rec)
    assert all(v is before[k] for k, v in _bindings().items())
    assert len(plain) == len(traced) == 1
    assert plain[0]["failure"] is None and traced[0]["failure"] is None
    assert run.digest(wl, plain) == run.digest(wl, traced)
    assert rec.spans and rec.spans[0][0] == "op"


def test_soft_rate_check_needs_evidence():
    op = lambda ok: {"phase": "untraced", "soft_ok": ok}  # noqa: E731
    assert run.run_checks("assemblies", [op(True)] * 166 + [op(False)] * 10) == []
    assert run.run_checks("assemblies", [op(True)] * 80 + [op(False)] * 20)

import pytest

from venndec.experiments import (
    ExperimentConfig,
    echelon_bound,
    report_csv_text,
    report_json_text,
    run_experiment,
    run_roundtrip_experiment,
    run_sigma_min_experiment,
    sigma_min_bound,
)

BITFLIP_HALF = {"model": "bitflip", "q": 0.5}


def test_config_json_roundtrip():
    cfg = ExperimentConfig(kind="sigma_min", trials=3, seed=1, n=8, ell=2, m=4, c=0.5, model=BITFLIP_HALF)
    back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    assert "graph" not in cfg.to_json_dict()  # unused fields stay off disk


def test_config_rejects_unknown_fields_and_kind():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json_dict({"kind": "sigma_min", "trials": 1, "seed": 0, "bogus": 1})
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(kind="quantum", trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(kind="sigma_min", trials=0, seed=0)


def test_bound_formulas_frozen_values():
    # 60^4 * 0.5^30 and (1 + 6 + 36) * 0.5^3, computed independently
    assert sigma_min_bound(60, 2, 0.5, 0.5) == pytest.approx(0.012069940567016602, rel=1e-14)
    assert echelon_bound(6, 3, 0.5, 0.5) == pytest.approx(5.375, rel=1e-14)


def test_sigma_min_experiment_records():
    cfg = ExperimentConfig(kind="sigma_min", trials=3, seed=5, n=8, ell=2, m=4, c=0.5, model=BITFLIP_HALF)
    report = run_sigma_min_experiment(cfg)
    assert len(report.records) == 3
    for t, rec in enumerate(report.records):
        assert rec["trial"] == t
        assert rec["statistic"] >= 0.0
        assert rec["threshold"] == pytest.approx((0.5 / 8) ** 2)
        assert rec["failure"] == (rec["statistic"] < rec["threshold"])
    assert report.summary["p"] == 0.5
    assert report.summary["failures"] == sum(r["failure"] for r in report.records)
    assert 0.0 <= report.summary["failure_rate"] <= 1.0
    assert report.summary["bound_vacuous"]  # 8^4 * 0.5^4 is way above 1


def test_sigma_min_degenerate_model_always_fails():
    # q=0 never flips, so all columns stay the all-ones vector: sigma_min 0
    cfg = ExperimentConfig(
        kind="sigma_min", trials=2, seed=0, n=8, ell=2, m=4, c=0.5,
        model={"model": "bitflip", "q": 0.0},
    )
    report = run_sigma_min_experiment(cfg)
    assert report.summary["failure_rate"] == 1.0


def test_sigma_min_rejects_oversized_m():
    cfg = ExperimentConfig(kind="sigma_min", trials=1, seed=0, n=4, ell=2, m=5, c=0.5, model=BITFLIP_HALF)
    with pytest.raises(ValueError, match="column budget"):
        run_sigma_min_experiment(cfg)


def test_echelon_experiment_small():
    cfg = ExperimentConfig(kind="echelon", trials=3, seed=2, n=4, ell=2, c=0.5, model=BITFLIP_HALF)
    report = run_experiment(cfg)
    assert report.summary["trees_verified"] == 3
    assert report.summary["min_level2_branching"] >= 0.5
    assert "bound_vacuous" in report.summary
    for rec in report.records:
        assert rec["tree_verified"]
        assert rec["statistic"] >= 0.0


def test_roundtrip_experiment_small():
    cfg = ExperimentConfig(
        kind="roundtrip", trials=3, seed=1, n=18, ell=3, m=2, m_max=2, model=BITFLIP_HALF
    )
    report = run_roundtrip_experiment(cfg)
    assert report.summary["exact_rate"] == 1.0
    assert report.summary["pattern_match_rate"] == 1.0
    for rec in report.records:
        assert rec["exact_match"]
        assert rec["statistic"] <= 1e-8


@pytest.mark.parametrize("n, ell, m, trials, seed", [(18, 3, 4, 20, 3), (24, 4, 5, 10, 4)])
def test_roundtrip_experiment_fair_flips_all_exact(n, ell, m, trials, seed):
    # few regions over many sets: restricted to ell coordinate blocks, these
    # fair-flip patterns are often dependent or repeated, but the whole
    # tensor recovers every diagram
    cfg = ExperimentConfig(
        kind="roundtrip", trials=trials, seed=seed, n=n, ell=ell, m=m, model=BITFLIP_HALF, eps=1e-8
    )
    report = run_roundtrip_experiment(cfg)
    assert report.summary["failures"] == 0, [r for r in report.records if r["failure"]]
    assert all(r["exact_match"] for r in report.records)


def test_roundtrip_experiment_counts_errors_as_failures():
    # m_max=1 cannot carry the ~2 regions a fair flip creates, but the runner
    # must keep going and record the failure rather than crash
    cfg = ExperimentConfig(
        kind="roundtrip", trials=2, seed=4, n=12, ell=3, m=2, m_max=1, model=BITFLIP_HALF
    )
    report = run_roundtrip_experiment(cfg)
    assert len(report.records) == 2
    assert all(isinstance(r["failure"], bool) for r in report.records)


def test_soft_model_experiment_summary():
    cfg = ExperimentConfig(
        kind="soft_model", trials=3, seed=6, graph="cycle:4", K=500, a=40, b=10, N=10**5
    )
    report = run_experiment(cfg)
    assert report.summary["all_constraints_rate"] + report.summary["failure_rate"] == 1.0
    assert set(report.summary["violations_by_kind"]) == {"edge", "non_edge", "size"}
    assert report.summary["margin"] == 0.4


def test_missing_fields_are_reported():
    cfg = ExperimentConfig(kind="soft_model", trials=1, seed=0, graph="cycle:3")
    with pytest.raises(ValueError, match="needs config fields"):
        run_experiment(cfg)


def test_report_texts_deterministic():
    cfg = ExperimentConfig(kind="sigma_min", trials=2, seed=9, n=8, ell=2, m=3, c=0.5, model=BITFLIP_HALF)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert report_json_text(a) == report_json_text(b)
    csv_text = report_csv_text(a)
    assert csv_text == report_csv_text(b)
    lines = csv_text.splitlines()
    assert lines[0] == "trial,seed,statistic,threshold,failure"
    assert len(lines) == 3


def test_report_rerun_from_embedded_config():
    cfg = ExperimentConfig(
        kind="roundtrip", trials=2, seed=11, n=12, ell=3, m=2, m_max=2, model=BITFLIP_HALF
    )
    report = run_experiment(cfg)
    cfg_back = ExperimentConfig.from_json_dict(report.to_json_dict()["config"])
    again = run_experiment(cfg_back)
    assert report_json_text(again) == report_json_text(report)

"""Experiment configuration, the trial runner, sweeps, and emission."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from privsel.attack import tracing_score, z_statistic
from privsel.betadist import BetaParams, beta_draws
from privsel.errors import ConfigError
from privsel.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRecord,
    emit,
    records_from_json,
    render_csv,
    render_json,
    run_experiment,
    sweep,
)
from privsel.instance import Population, sample_dataset
from privsel.mechanisms import gaussian_sigma, run_named_mechanism
from privsel.seeds import trial_generator

SMALL = ExperimentConfig(kind="topk", d=32, k=2, n=100, beta_sym=2.0,
                         mechanism="rnm", trials=50, master_seed=3)


@pytest.mark.parametrize(
    "field,value",
    [
        ("kind", "bogus"),
        ("d", 0),
        ("k", 0),
        ("n", 0),
        ("trials", 0),
        ("epsilon", -1.0),
        ("epsilon", 0.0),
        ("delta", 1.0),
        ("delta", "later"),
        ("beta_sym", -2.0),
        ("beta_sym", "wide"),
        ("mechanism", "magic"),
        ("accuracy_reference", "oracle"),
        ("master_seed", -1),
        # bool is an int subclass but no count or real
        ("d", True),
        ("trials", True),
        ("master_seed", False),
        ("epsilon", True),
        ("delta", False),
        ("beta_sym", True),
    ],
)
def test_config_field_validation(field, value):
    config = dataclasses.replace(SMALL, **{field: value})
    with pytest.raises(ConfigError) as err:
        config.validate()
    assert err.value.field == field


def test_config_cross_field_rules():
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, k=64).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="mean", d=16, k=1, n=100, beta_sym=1.0,
                         mechanism="rnm", trials=10, master_seed=1).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, mechanism="gauss-mean").validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, mechanism="peeling", delta=0.0).validate()
    # beta "auto" needs a wide instance
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, beta_sym="auto").validate()


def test_default_mechanism_per_kind():
    assert ExperimentConfig(kind="topk").resolved_mechanism() == "peeling"
    assert ExperimentConfig(kind="mht").resolved_mechanism() == "svt"
    assert ExperimentConfig(kind="mean").resolved_mechanism() == "gauss-mean"
    assert ExperimentConfig(kind="trace").resolved_mechanism() == "nonprivate"


def test_delta_and_beta_resolution():
    c = ExperimentConfig(kind="topk", d=1024, k=8, n=500)
    assert c.resolved_delta() == pytest.approx(1.0 / (500 * 1024))
    assert c.resolved_beta() == pytest.approx(1.7599, abs=1e-4)
    assert dataclasses.replace(c, kind="mht").resolved_delta() == pytest.approx(1.0 / (8 * 500 * 1024))
    assert dataclasses.replace(c, kind="mean", mechanism="gauss-mean").resolved_delta() == pytest.approx(1.0 / 5000)
    assert dataclasses.replace(c, delta=0.25).resolved_delta() == 0.25
    assert dataclasses.replace(c, beta_sym=3.5).resolved_beta() == 3.5


def test_nonprivate_empirical_error_is_zero():
    config = dataclasses.replace(SMALL, mechanism="nonprivate", accuracy_reference="empirical")
    record = run_experiment(config)
    assert record.err_mean == 0.0
    assert record.err_ci == 0.0


def test_first_k_forfeits_the_prior_surplus():
    # the data-independent baseline keeps only d/2-mean columns while the
    # best size-k set collects the upper tail of the prior, so its
    # population error stays a constant fraction of k (measured 0.475 k at
    # these settings)
    config = ExperimentConfig(kind="topk", d=1024, k=8, n=400, beta_sym="auto",
                              mechanism="first-k", trials=400, master_seed=21)
    record = run_experiment(config)
    assert record.err_mean >= 0.25 * 8
    assert record.err_mean == pytest.approx(0.475 * 8, abs=0.4)


def test_run_experiment_deterministic():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL)
    for field in dataclasses.fields(ResultRecord):
        if field.name == "runtime_s":
            continue
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def test_aggregates_independent_of_worker_count():
    a = run_experiment(SMALL, workers=1)
    b = run_experiment(SMALL, workers=4)
    for field in ("err_mean", "err_ci", "z_mean", "z_ci", "z_upper",
                  "lb_proxy_mean", "lb_proxy_ci", "gamma_hat"):
        assert getattr(a, field) == getattr(b, field), field


def test_collect_trials_rows():
    record, rows = run_experiment(SMALL, collect_trials=True)
    assert len(rows) == SMALL.trials
    assert [r["trial"] for r in rows] == list(range(SMALL.trials))
    assert record.err_mean == pytest.approx(math.fsum(r["err"] for r in rows) / SMALL.trials)


def test_mean_kind_unclamped_error_tracks_noise_level():
    config = ExperimentConfig(kind="mean", d=100, k=1, n=2000, beta_sym=1.0,
                              trials=200, master_seed=8, accuracy_reference="empirical")
    record = run_experiment(config)
    sigma_sq = gaussian_sigma(100, 2000, 1.0, record.delta) ** 2
    # mean of d=100 squared gaussians over 200 trials: relative 3-sigma
    # band is 3*sqrt(2/(100*200))
    band = 3.0 * sigma_sq * math.sqrt(2.0 / (100 * 200))
    assert abs(record.err_unclamped_mean - sigma_sq) < band


def test_trace_kind_reports_gap_fields():
    config = ExperimentConfig(kind="trace", d=64, k=4, n=25, beta_sym=1.5,
                              mechanism="nonprivate", trials=200, master_seed=5)
    record = run_experiment(config)
    assert record.member_mean is not None and record.nonmember_mean is not None
    assert record.gap_mean == pytest.approx(record.member_mean - record.nonmember_mean, abs=1e-9)


def _row_level_trace(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Reference for the trace kind: each trial materializes the n x d
    dataset, runs the mechanism on it and scores a uniformly chosen row."""
    b = config.resolved_beta()
    prior = BetaParams(b, b)
    columns = {"err": [], "z": [], "member": [], "nonmember": []}
    for t in range(config.trials):
        rng = trial_generator(config.master_seed, t)
        pop = Population(means=beta_draws(prior, config.d, rng), prior=prior)
        x = sample_dataset(pop, config.n, rng)
        out = run_named_mechanism(config.resolved_mechanism(), x, config.k,
                                  config.epsilon, config.resolved_delta(), rng)
        best = np.sort(pop.means)[-config.k:].sum()
        columns["err"].append(best - float(np.dot(out.scores, pop.means)))
        columns["z"].append(z_statistic(out, x, pop).z_total)
        row = x.row(int(rng.integers(config.n)))
        columns["member"].append(tracing_score(out, row, pop.means))
        fresh = (rng.random(config.d) < pop.means).astype(np.float64)
        columns["nonmember"].append(tracing_score(out, fresh, pop.means))
    return {name: np.array(values) for name, values in columns.items()}


def test_trace_kind_matches_row_level_reference():
    # the column-sum trace trial keeps the law of the row-level one: each
    # trial mean agrees with the materialized reference within 5 sigma
    config = ExperimentConfig(kind="trace", d=64, k=4, n=25, beta_sym=1.5,
                              mechanism="nonprivate", trials=600, master_seed=11)
    record = run_experiment(config)
    ref = _row_level_trace(dataclasses.replace(config, master_seed=12))
    pairs = {"err": (record.err_mean, record.err_ci), "z": (record.z_mean, record.z_ci),
             "member": (record.member_mean, None), "nonmember": (record.nonmember_mean, None)}
    for name, (mean, ci) in pairs.items():
        se_ref = float(np.std(ref[name], ddof=1)) / math.sqrt(config.trials)
        se = se_ref if ci is None else ci / 3.0
        assert abs(mean - float(ref[name].mean())) <= 5.0 * math.hypot(se, se_ref), name


def test_trace_trials_never_build_the_row_matrix():
    # a 10^6 x 1024 bit matrix would need gigabytes; column-sum trials need O(d)
    config = ExperimentConfig(kind="trace", d=1024, k=8, n=10**6, mechanism="peeling",
                              trials=3)
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_run_experiment_rejects_sweep_kind():
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(SMALL, kind="sweep"))


def test_sweep_axis_validation_and_casting():
    with pytest.raises(ConfigError):
        sweep(SMALL, "gamma", [1, 2])
    with pytest.raises(ConfigError):
        sweep(SMALL, "n", [10.5])
    records = sweep(SMALL, "n", [50, 100.0])
    assert [r.n for r in records] == [50, 100]
    assert all(r.master_seed == SMALL.master_seed for r in records)


def test_sweep_error_decreases_with_n():
    base = dataclasses.replace(SMALL, trials=200)
    records = sweep(base, "n", [50, 200, 800])
    errs = [r.err_mean for r in records]
    cis = [r.err_ci for r in records]
    assert errs[1] <= errs[0] + cis[0] + cis[1]
    assert errs[2] <= errs[1] + cis[1] + cis[2]
    assert errs[2] < errs[0]


def test_statistic_under_upper_bound_for_every_dp_mechanism():
    # the bound is loose at this scale but must hold for each private
    # selector (the exact argmax is not private and is excluded)
    for mech in ("peeling", "rnm", "svt", "first-k"):
        config = dataclasses.replace(SMALL, mechanism=mech, trials=200,
                                     delta="paper" if mech == "peeling" else 0.0)
        record = run_experiment(config)
        assert record.z_mean <= record.z_upper + record.z_ci, mech
    mean_config = ExperimentConfig(kind="mean", d=100, k=1, n=500, beta_sym=1.0,
                                   trials=200, master_seed=3)
    record = run_experiment(mean_config)
    assert record.z_mean <= record.z_upper + record.z_ci


def test_trace_member_scores_bounded_by_per_row_budget():
    # summed over rows the member scores form the selection statistic, so
    # their per-row average stays under the privacy bound divided by n
    config = ExperimentConfig(kind="trace", d=256, k=4, n=1000, beta_sym="auto",
                              mechanism="peeling", trials=200, master_seed=6)
    record = run_experiment(config)
    assert record.gap_mean <= record.z_upper / config.n + record.gap_ci
    assert record.z_mean <= record.z_upper + record.z_ci


def test_csv_schema_and_values():
    record = run_experiment(SMALL)
    text = render_csv(record)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "topk"
    assert cells[1:4] == ["32", "2", "100"]
    assert float(cells[CSV_COLUMNS.index("err_mean")]) == record.err_mean
    # header-only output for an empty stream
    assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_json_round_trip_and_determinism(tmp_path):
    record = run_experiment(SMALL)
    text = emit(record, format="json", path=tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == text
    parsed = records_from_json(text)
    assert len(parsed) == 1
    assert parsed[0] == record

    again = run_experiment(SMALL)
    a = render_json(dataclasses.replace(record, runtime_s=0.0))
    b = render_json(dataclasses.replace(again, runtime_s=0.0))
    assert a == b  # byte-identical apart from wall-clock runtime


def test_emit_rejects_unknown_format():
    record = run_experiment(SMALL)
    with pytest.raises(ConfigError):
        emit(record, format="xml")


def test_float_fields_survive_text_round_trip():
    record = run_experiment(SMALL)
    parsed = records_from_json(render_json(record))[0]
    for field in dataclasses.fields(ResultRecord):
        assert getattr(parsed, field.name) == getattr(record, field.name), field.name

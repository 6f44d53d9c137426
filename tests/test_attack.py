"""Selection statistic, its two bounds, the exact expectation identities,
and the tracing experiments."""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel.attack import (
    BoundParameters,
    FingerprintCheck,
    accuracy_lower_bound_proxy,
    check_bound_chain,
    column_equality_experiment,
    membership_experiment,
    privacy_upper_bound,
    tracing_score,
    verify_beta_fingerprinting,
    verify_fingerprinting_identity,
    z_statistic,
)
from privsel.betadist import BetaParams
from privsel.instance import Dataset, Population, sample_dataset
from privsel.mechanisms import SelectionOutput
from privsel.seeds import trial_generator

P_GRID_20 = tuple(np.linspace(0.0, 1.0, 20))


def test_z_statistic_decomposition_consistent():
    pop = Population(means=np.array([0.3, 0.7, 0.5, 0.2, 0.9]), prior=BetaParams(1, 1))
    x = sample_dataset(pop, 16, trial_generator(1, 0))
    out = SelectionOutput.from_scores(np.array([0.5, -1.0, 0.0, 1.0, -0.25]))
    report = z_statistic(out, x, pop)
    assert report.z_total == pytest.approx(math.fsum(report.z_by_col), abs=1e-9)
    assert report.z_total == pytest.approx(math.fsum(report.z_by_row), abs=1e-9)
    assert report.l2_norm_sq == pytest.approx(out.l2_norm_sq)
    assert report.z_by_row.size == 16
    assert report.z_by_col.size == 5


def test_z_statistic_single_column_all_ones():
    # scores pick one column whose bits are all one and whose mean is 1/2:
    # the statistic is n * (1 - 1/2)
    pop = Population(means=np.array([0.5, 0.5]), prior=BetaParams(1, 1))
    x = sample_dataset(Population(means=np.array([1.0, 0.5]), prior=BetaParams(1, 1)),
                       4, trial_generator(1, 1))
    out = SelectionOutput.from_indicator([0], 2)
    report = z_statistic(out, x, pop)
    assert report.z_total == pytest.approx(2.0, abs=1e-12)
    assert report.z_by_col[0] == pytest.approx(2.0, abs=1e-12)
    assert report.z_by_col[1] == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12),
       d=st.integers(min_value=1, max_value=8))
def test_z_statistic_row_and_column_totals_agree(data, n, d):
    # Trial loops compute Z from column sums alone; its row decomposition
    # is checked here, on materialized datasets.
    unit = st.floats(min_value=0.0, max_value=1.0)
    bits = data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                              min_size=n, max_size=n))
    means = np.array(data.draw(st.lists(unit, min_size=d, max_size=d)))
    scores = np.array(data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                                         min_size=d, max_size=d)))
    x = Dataset(np.array(bits))
    pop = Population(means=means, prior=BetaParams(1, 1))
    report = z_statistic(SelectionOutput.from_scores(scores), x, pop)
    direct = math.fsum(scores[j] * (bits[i][j] - means[j]) for i in range(n) for j in range(d))
    assert report.z_total == pytest.approx(direct, abs=1e-9)
    assert math.fsum(report.z_by_row) == pytest.approx(direct, abs=1e-9)


def test_member_row_given_column_sums_is_bernoulli():
    # The trace kind draws a member row as Bernoulli(S/n) given the column
    # sums S. Enumerating every n x d dataset shows that (S, X_I), with I
    # uniform over rows, has exactly the law Binomial(n, P) x Bernoulli(S/n).
    n, d = 3, 3
    p = np.array([0.3, 0.8, 0.55])
    law = defaultdict(float)
    for cells in itertools.product((0, 1), repeat=n * d):
        x = np.array(cells).reshape(n, d)
        weight = float(np.prod(np.where(x == 1, p, 1.0 - p)))
        sums = tuple(int(s) for s in x.sum(axis=0))
        for i in range(n):
            law[sums, tuple(int(b) for b in x[i])] += weight / n
    total = 0.0
    for sums in itertools.product(range(n + 1), repeat=d):
        for row in itertools.product((0, 1), repeat=d):
            want = 1.0
            for pj, s, bit in zip(p, sums, row):
                want *= math.comb(n, s) * pj**s * (1.0 - pj) ** (n - s)
                want *= s / n if bit else 1.0 - s / n
            assert law[sums, row] == pytest.approx(want, abs=1e-12)
            total += want
    assert total == pytest.approx(1.0, abs=1e-12)


def test_privacy_upper_bound_values():
    p = BoundParameters(epsilon=1.0, delta=0.0, Delta=1.0)
    want = 100 * (math.e * 0.5 * 3.0)
    assert privacy_upper_bound(p, 100, 9.0) == pytest.approx(want, rel=1e-12)
    p = BoundParameters(epsilon=0.0, delta=1.0, Delta=5.0)
    assert privacy_upper_bound(p, 10, 4.0) == pytest.approx(60.0, rel=1e-12)
    # e^epsilon overflows a float past epsilon ~ 709; the bound is vacuous
    p = BoundParameters(epsilon=1e6, delta=1e-6, Delta=2.0)
    assert privacy_upper_bound(p, 100, 9.0) == math.inf
    with pytest.raises(ValueError):
        BoundParameters(epsilon=1.0, delta=0.0, Delta=0.0)


def test_accuracy_lower_bound_proxy_values():
    pop = Population(means=np.array([0.75, 0.5, 0.25]), prior=BetaParams(2, 2))
    zeros = SelectionOutput.from_scores(np.zeros(3))
    assert accuracy_lower_bound_proxy(zeros, pop, 2.0) == 0.0
    e0 = SelectionOutput.from_indicator([0], 3)
    assert accuracy_lower_bound_proxy(e0, pop, 2.0) == pytest.approx(1.0, abs=1e-12)
    flat = Population(means=np.array([0.5, 0.5, 0.5]), prior=BetaParams(2, 2))
    assert accuracy_lower_bound_proxy(e0, flat, 2.0) == 0.0
    with pytest.raises(ValueError):
        accuracy_lower_bound_proxy(e0, pop, 3.0)
    skew = Population(means=np.array([0.5, 0.5, 0.5]), prior=BetaParams(1, 2))
    with pytest.raises(ValueError):
        accuracy_lower_bound_proxy(e0, skew, 2.0)


def test_fingerprint_identity_exact_cases():
    # f(x) = x on one bit: both sides are p(1-p)
    check = verify_fingerprinting_identity(FingerprintCheck(1, (0.0, 1.0), P_GRID_20))
    assert check.max_abs_residual <= 1e-12
    # two-bit AND: both sides are 2 p^2 (1-p)
    check = verify_fingerprinting_identity(FingerprintCheck(2, (0.0, 0.0, 0.0, 1.0), P_GRID_20))
    assert check.max_abs_residual <= 1e-12
    # constant f: both sides vanish
    check = verify_fingerprinting_identity(FingerprintCheck(3, (0.7,) * 8, P_GRID_20))
    assert check.max_abs_residual <= 1e-12


def test_fingerprint_identity_random_tables():
    rng = trial_generator(2, 0)
    for i in range(10):
        n = 1 + (i % 10)
        table = tuple(rng.uniform(-1, 1, size=2**n))
        check = verify_fingerprinting_identity(FingerprintCheck(n, table, P_GRID_20))
        assert check.max_abs_residual <= 1e-9


def test_fingerprint_check_rejects_large_n():
    with pytest.raises(ValueError):
        FingerprintCheck(21, (0.0,) * (2**21), (0.5,))
    with pytest.raises(ValueError):
        FingerprintCheck(2, (0.0, 1.0), (0.5,))  # wrong table size


def test_beta_fingerprint_exact_cases():
    # constant f: both sides vanish for any prior
    r = verify_beta_fingerprinting(FingerprintCheck(2, (0.3,) * 4, (0.5,)), BetaParams(2, 5))
    assert r.lhs_value == pytest.approx(0.0, abs=1e-12)
    assert r.rhs_value == pytest.approx(0.0, abs=1e-12)
    # f(x) = x on one bit with a uniform prior: both sides are
    # E[P(1-P)] = 1/2 - 1/3 = 1/6
    r = verify_beta_fingerprinting(FingerprintCheck(1, (0.0, 1.0), (0.5,)), BetaParams(1, 1))
    assert r.lhs_value == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert r.rhs_value == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert r.abs_residual <= 1e-12


def test_beta_fingerprint_random_tables():
    rng = trial_generator(2, 1)
    priors = [BetaParams(a, b) for a in (0.5, 1, 2, 5) for b in (0.5, 1, 2, 5)]
    for i in range(16):
        n = 1 + (i % 8)
        table = tuple(rng.uniform(-1, 1, size=2**n))
        r = verify_beta_fingerprinting(FingerprintCheck(n, table, (0.5,)), priors[i])
        assert r.abs_residual <= 1e-9, (n, priors[i])


def test_tracing_score_values_and_null_mean():
    out = SelectionOutput.from_indicator([0], 4)
    row = np.array([1.0, 0.0, 1.0, 0.0])
    means = np.array([0.5, 0.5, 0.5, 0.5])
    assert tracing_score(out, row, means) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tracing_score(out, np.array([0.5, 0, 1, 0]), means)
    # independent fresh rows have zero expected score
    rng = trial_generator(3, 0)
    p = np.array([0.2, 0.7, 0.5, 0.9])
    scores = SelectionOutput.from_scores(np.array([0.8, -0.5, 1.0, 0.3]))
    vals = [tracing_score(scores, (rng.random(4) < p).astype(float), p) for _ in range(10_000)]
    sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert abs(float(np.mean(vals))) < 3.0 * sem


def test_membership_gap_directions():
    # a data-independent selection carries no membership signal
    rep = membership_experiment("first-k", d=64, k=4, n=40, beta_sym=2.0,
                                trials=400, rng=trial_generator(4, 0))
    assert abs(rep.gap_mean) <= rep.gap_ci_halfwidth
    # the exact empirical argmax at small n leaks strongly
    rep = membership_experiment("nonprivate", d=256, k=8, n=25, beta_sym=1.5,
                                trials=400, rng=trial_generator(4, 1))
    assert rep.gap_mean - rep.gap_ci_halfwidth > 0.0
    assert rep.gap_low <= rep.gap_mean <= rep.gap_high


def test_column_equality_small_instance():
    report = column_equality_experiment(d=8, k=2, n=40, beta_sym=2.0,
                                        trials=3000, master_seed=5)
    assert report.d == 8
    assert report.columns_within_3sigma >= 7


def test_check_bound_chain_branches():
    good = check_bound_chain(2.0, 0.3, 4, 1000, z_mean=4.8, z_ci=0.5, upper_value=2700.0)
    assert good.chain_ok and good.n_ok
    assert good.lb_value == pytest.approx(2 * 2.0 * 0.3 * 4)
    assert good.n_required_proof == pytest.approx((3 / math.e) * 2.0 * 0.3 * 2.0)
    assert good.n_required_stated == pytest.approx(2.0 * 0.3 * 2.0)
    bad = check_bound_chain(2.0, 0.9, 4, 1000, z_mean=2.0, z_ci=0.1, upper_value=2700.0)
    assert not bad.chain_ok
    tiny_n = check_bound_chain(2.0, 0.9, 4, 1, z_mean=15.0, z_ci=0.5, upper_value=2700.0)
    assert not tiny_n.n_ok
    # nonpositive measured accuracy makes the n requirement vacuous
    vac = check_bound_chain(2.0, -0.1, 4, 1, z_mean=0.0, z_ci=1.0, upper_value=100.0)
    assert vac.n_ok


def test_hard_instance_default_bound_parameters():
    params = BoundParameters.hard_instance_defaults(beta_sym=2.0, gamma=0.25, k=8, n=100, d=64)
    assert params.epsilon == 1.0
    assert params.delta == pytest.approx(2.0 * 0.25 * 8 / (100 * 64))
    assert params.Delta == pytest.approx(32.0)


def test_z_statistic_rejects_mismatched_shapes():
    pop = Population(means=np.array([0.5, 0.5]), prior=BetaParams(1, 1))
    x = sample_dataset(pop, 4, trial_generator(6, 0))
    out = SelectionOutput.from_scores(np.zeros(3))
    with pytest.raises(ValueError):
        z_statistic(out, x, pop)

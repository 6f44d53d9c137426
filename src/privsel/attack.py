"""Fingerprinting-attack statistics and the identities behind them.

The central quantity is the correlation statistic
Z = sum_{i,j} M(X)^j (X_i^j - P^j) between a mechanism output M(X) and the
dataset it was computed from, centered at the population means. Privacy
forces E[Z] small (an explicit upper bound in terms of the output's l2
norm); accuracy forces E[Z] large (a lower-bound proxy through the
symmetric-prior fingerprinting identity). This module computes Z and its
row/column decompositions, both bound values, exact verifications of the
two fingerprinting identities, and the membership tracing score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .betadist import BetaParams, beta_draws
from .errors import InvariantError
from .instance import Dataset, Population
from .mechanisms import SelectionOutput, kernel_from_means
from .seeds import trial_generator

# Exact-decomposition slack: the row and column sums of Z are the same
# double sum reassociated, so they may differ only by float rounding.
DECOMPOSITION_TOL = 1e-9


@dataclass(eq=False)
class AttackReport:
    """Z statistic of one (output, dataset, population) triple, with its
    row and column decompositions."""

    z_total: float
    z_by_row: np.ndarray
    z_by_col: np.ndarray
    l2_norm_sq: float


@dataclass(frozen=True, eq=False)
class FingerprintCheck:
    """A function f on {0,1}^n given as a table of 2^n values, plus the grid
    of Bernoulli parameters on which its fingerprinting identity is checked.
    n is capped at 20 so exhaustive enumeration stays tractable."""

    n: int
    f_table: np.ndarray
    p_grid: np.ndarray
    max_abs_residual: float | None = None

    def __post_init__(self):
        if not 1 <= self.n <= 20:
            raise ValueError(f"n must lie in 1..20 for enumeration, got {self.n}")
        table = np.asarray(self.f_table, dtype=np.float64)
        if table.shape != (1 << self.n,):
            raise ValueError(f"f_table must have length 2^n = {1 << self.n}")
        grid = np.asarray(self.p_grid, dtype=np.float64)
        if grid.ndim != 1 or np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("p_grid entries must lie in [0, 1]")
        object.__setattr__(self, "f_table", table)
        object.__setattr__(self, "p_grid", grid)


@dataclass(frozen=True)
class BetaFingerprintResult:
    """Both sides of the beta-prior fingerprinting identity, evaluated
    exactly as beta-function integrals, and their absolute difference."""

    lhs_value: float
    rhs_value: float
    abs_residual: float


@dataclass(frozen=True)
class BoundParameters:
    """Parameters of the privacy upper bound on E[Z]: the mechanism's
    (epsilon, delta), the l1 cap Delta (outputs satisfy l1 <= 2*Delta with
    probability 1), the accuracy parameter gamma, and the symmetric prior
    parameter."""

    epsilon: float
    delta: float
    Delta: float
    gamma: float = 0.0
    beta_sym: float = 1.0

    def __post_init__(self):
        if not self.Delta > 0:
            raise ValueError(f"Delta must be positive, got {self.Delta}")

    @classmethod
    def hard_instance_defaults(cls, beta_sym: float, gamma: float, k: int, n: int,
                               d: int) -> "BoundParameters":
        """The canonical hard-instance instantiation: epsilon = 1,
        delta = beta*gamma*k/(n*d), Delta = d/2."""
        return cls(epsilon=1.0, delta=beta_sym * gamma * k / (n * d),
                   Delta=d / 2.0, gamma=gamma, beta_sym=beta_sym)


@dataclass(frozen=True)
class MembershipReport:
    """Mean tracing scores of member rows and fresh rows, with a 3-sigma
    confidence interval on the member-minus-nonmember gap."""

    member_mean: float
    nonmember_mean: float
    gap_mean: float
    gap_ci_halfwidth: float
    trials: int

    @property
    def gap_low(self) -> float:
        return self.gap_mean - self.gap_ci_halfwidth

    @property
    def gap_high(self) -> float:
        return self.gap_mean + self.gap_ci_halfwidth


@dataclass(frozen=True)
class BoundChainReport:
    """The squeeze on E[Z] at one configuration: accuracy proxy below,
    privacy bound above, and the sample-size requirement each implies.
    Both the statement-level constant (beta*gamma*sqrt(k)) and the
    proof-level constant ((3/e)*beta*gamma*sqrt(k)) are recorded; the
    consistency flag uses the proof-level one."""

    lb_value: float
    z_mean: float
    z_ci: float
    upper_value: float
    gamma_hat: float
    n: int
    n_required_stated: float
    n_required_proof: float
    chain_ok: bool
    n_ok: bool


def z_statistic(output: SelectionOutput, x: Dataset, pop: Population) -> AttackReport:
    """Z and its exact row/column decompositions for one realization.

    z_by_col[j] = M^j * (column_sum_j - n * P^j); z_by_row[i] is the inner
    product of M with row i centered at P. Their totals are the same double
    sum and must agree to within rounding."""
    if not (output.d == x.d == pop.d):
        raise ValueError(
            f"dimension mismatch: output d={output.d}, dataset d={x.d}, population d={pop.d}"
        )
    scores = output.scores
    z_by_col = scores * (x.column_sums() - x.n * pop.means)
    z_by_row = (x.bits - pop.means) @ scores
    z_total = math.fsum(z_by_col)
    row_total = math.fsum(z_by_row)
    if abs(z_total - row_total) > DECOMPOSITION_TOL:
        raise InvariantError(
            f"row/column decompositions of Z disagree: {row_total!r} vs {z_total!r}"
        )
    return AttackReport(
        z_total=z_total,
        z_by_row=z_by_row,
        z_by_col=z_by_col,
        l2_norm_sq=output.l2_norm_sq,
    )


def privacy_upper_bound(params: BoundParameters, n: int, expected_l2_sq: float) -> float:
    """The privacy ceiling on E[Z] for an (epsilon, delta)-DP mechanism whose
    output l1 norm never exceeds 2*Delta:
    n * (e^epsilon * (1/2) * sqrt(E[l2^2]) + Delta * delta). It is inf when
    e^epsilon exceeds the float range: such a budget bounds nothing."""
    if expected_l2_sq < 0:
        raise ValueError(f"expected_l2_sq must be >= 0, got {expected_l2_sq}")
    try:
        growth = math.exp(params.epsilon)
    except OverflowError:
        return math.inf
    return n * (growth * 0.5 * math.sqrt(expected_l2_sq) + params.Delta * params.delta)


def accuracy_lower_bound_proxy(output: SelectionOutput, pop: Population,
                               beta_sym: float) -> float:
    """One realization of 2*beta * sum_j M^j (P^j - 1/2). Averaged over
    trials this estimates the accuracy floor on E[Z] under a symmetric
    Beta(beta, beta) prior; per-realization values carry no guarantee."""
    prior = pop.prior
    if not (
        math.isclose(prior.alpha, prior.beta, rel_tol=1e-12)
        and math.isclose(prior.alpha, beta_sym, rel_tol=1e-12)
    ):
        raise ValueError(
            f"symmetric prior Beta({beta_sym}, {beta_sym}) required, "
            f"got Beta({prior.alpha}, {prior.beta})"
        )
    if output.d != pop.d:
        raise ValueError("dimension mismatch between output and population")
    return 2.0 * beta_sym * float(np.dot(output.scores, pop.means - 0.5))


def _popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    counts = np.zeros(idx.size, dtype=np.int64)
    for b in range(n):
        counts += (idx >> b) & 1
    return counts


def verify_fingerprinting_identity(check: FingerprintCheck) -> FingerprintCheck:
    """Check, at every p in the grid, that the correlation
    E[f(X) sum_i (X_i - p)] under X ~ Bernoulli(p)^n equals p(1-p) g'(p),
    where g(p) = E[f(X)].

    The left side is an exhaustive enumeration of all 2^n outcomes with
    binomial weights; the right side expands g into monomial coefficients
    and differentiates coefficient-wise. Returns a copy of the check with
    max_abs_residual filled."""
    n = check.n
    f = check.f_table
    counts = _popcounts(n)

    # Monomial coefficients of g(p) = sum_s c_s p^s (1-p)^(n-s).
    c = np.bincount(counts, weights=f, minlength=n + 1)
    coeffs = np.zeros(n + 1, dtype=np.float64)
    for s in range(n + 1):
        if c[s] == 0.0:
            continue
        for m in range(n - s + 1):
            coeffs[s + m] += c[s] * math.comb(n - s, m) * ((-1.0) ** m)
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)

    worst = 0.0
    for p in check.p_grid:
        weights = (p ** counts) * ((1.0 - p) ** (n - counts))
        lhs = float(np.dot(f * weights, counts - n * p))
        rhs = p * (1.0 - p) * float(np.polynomial.polynomial.polyval(p, dcoeffs))
        worst = max(worst, abs(lhs - rhs))
    return replace(check, max_abs_residual=worst)


def verify_beta_fingerprinting(check: FingerprintCheck, prior: BetaParams) -> BetaFingerprintResult:
    """Check the beta-prior fingerprinting identity
    E[f(X) sum_i (X_i - P)] = (alpha+beta) E[g(P)(P - alpha/(alpha+beta))]
    with P ~ Beta(alpha, beta) and X | P ~ Bernoulli(P)^n.

    Both sides are finite combinations of the moments
    I(a, b) = E[P^a (1-P)^b] = B(alpha+a, beta+b)/B(alpha, beta), so each is
    evaluated exactly (no sampling, no quadrature) and compared."""
    n = check.n
    counts = _popcounts(n)
    c = np.bincount(counts, weights=check.f_table, minlength=n + 1)
    a0, b0 = prior.alpha, prior.beta
    log_norm = special.betaln(a0, b0)

    def moment(a: int, b: int) -> float:
        return float(math.exp(special.betaln(a0 + a, b0 + b) - log_norm))

    mean = a0 / (a0 + b0)
    lhs_terms = []
    rhs_terms = []
    for s in range(n + 1):
        if c[s] == 0.0:
            continue
        base = moment(s, n - s)
        lifted = moment(s + 1, n - s)
        lhs_terms.append(c[s] * (s * base - n * lifted))
        rhs_terms.append(c[s] * (lifted - mean * base))
    lhs = math.fsum(lhs_terms)
    rhs = (a0 + b0) * math.fsum(rhs_terms)
    return BetaFingerprintResult(lhs_value=lhs, rhs_value=rhs, abs_residual=abs(lhs - rhs))


def tracing_score(output: SelectionOutput, row, pop_mean) -> float:
    """The membership tracing score <M(X), y - p> for a candidate row y.

    For y drawn fresh from the population this is zero in expectation; for
    rows the mechanism actually saw it tends positive."""
    y = np.asarray(row, dtype=np.float64)
    p = np.asarray(pop_mean, dtype=np.float64)
    if y.shape != (output.d,) or p.shape != (output.d,):
        raise ValueError("row and pop_mean must be length-d vectors")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("row must be a binary vector")
    return float(np.dot(output.scores, y - p))


def membership_experiment(mechanism: str, d: int, k: int, n: int, beta_sym: float,
                          trials: int, rng: np.random.Generator, *,
                          epsilon: float = 1.0,
                          delta: float | None = None) -> MembershipReport:
    """Per trial: sample a fresh hard instance, run the named mechanism,
    score one uniformly chosen member row and one fresh non-member row.
    Reports mean scores and a 3-sigma interval on the gap.

    The trials are those of the harness's trace kind, under one master seed
    drawn from rng, so each trial can be reproduced on its own. delta
    defaults to the trace kind's 1/(n*d)."""
    from .harness import ExperimentConfig, run_experiment

    record = run_experiment(ExperimentConfig(
        kind="trace", d=d, k=k, n=n, beta_sym=beta_sym, mechanism=mechanism,
        epsilon=epsilon, delta="paper" if delta is None else delta, trials=trials,
        master_seed=int(rng.integers(2**63)),
    ))
    return MembershipReport(
        member_mean=record.member_mean,
        nonmember_mean=record.nonmember_mean,
        gap_mean=record.gap_mean,
        gap_ci_halfwidth=record.gap_ci,
        trials=trials,
    )


@dataclass(frozen=True, eq=False)
class ColumnEqualityReport:
    """Per-column comparison of the trial-mean of Z^j against the trial-mean
    of 2*beta * M^j (P^j - 1/2). The two are equal in expectation column by
    column; columns_within_3sigma counts how many columns' paired difference
    stays inside 3 standard errors."""

    d: int
    trials: int
    z_col_means: np.ndarray
    proxy_col_means: np.ndarray
    diff_sigmas: np.ndarray
    columns_within_3sigma: int


def column_equality_experiment(d: int, k: int, n: int, beta_sym: float, trials: int,
                               master_seed: int, mechanism: str = "rnm",
                               epsilon: float = 1.0,
                               delta: float = 0.0) -> ColumnEqualityReport:
    """Monte Carlo check of the per-column identity E[Z^j] = E[2*beta *
    M^j (P^j - 1/2)] for the named mechanism on the symmetric hard instance.

    Uses paired per-trial differences, so the test statistic per column is
    mean(D_j) / (sd(D_j)/sqrt(trials)) with D_j = Z^j - 2*beta*M^j(P^j-1/2).
    Column sums are sampled directly (binomial given P); mechanisms only
    see column means, so the joint law is unchanged."""
    prior = BetaParams(beta_sym, beta_sym)
    kernel = kernel_from_means(mechanism, k=k, n=n, epsilon=epsilon, delta=delta)
    sum_d = np.zeros(d, dtype=np.float64)
    sum_d2 = np.zeros(d, dtype=np.float64)
    sum_z = np.zeros(d, dtype=np.float64)
    sum_w = np.zeros(d, dtype=np.float64)
    for t in range(trials):
        rng = trial_generator(master_seed, t)
        means = beta_draws(prior, d, rng)
        sums = rng.binomial(n, means).astype(np.float64)
        output = kernel(sums / n, rng)
        z_col = output.scores * (sums - n * means)
        w_col = 2.0 * beta_sym * output.scores * (means - 0.5)
        diff = z_col - w_col
        sum_d += diff
        sum_d2 += diff * diff
        sum_z += z_col
        sum_w += w_col
    mean_d = sum_d / trials
    var_d = np.maximum(0.0, (sum_d2 - trials * mean_d**2) / max(trials - 1, 1))
    se = np.sqrt(var_d / trials)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigmas = np.where(se > 0.0, np.abs(mean_d) / se, np.where(mean_d == 0.0, 0.0, np.inf))
    within = int(np.count_nonzero(sigmas <= 3.0))
    return ColumnEqualityReport(
        d=d,
        trials=trials,
        z_col_means=sum_z / trials,
        proxy_col_means=sum_w / trials,
        diff_sigmas=sigmas,
        columns_within_3sigma=within,
    )


def check_bound_chain(beta_sym: float, gamma_hat: float, k: int, n: int,
                      z_mean: float, z_ci: float, upper_value: float) -> BoundChainReport:
    """Consistency of one configuration with the E[Z] squeeze: the accuracy
    proxy 2*beta*gamma_hat*k must sit below z_mean + z_ci, that must sit
    below the privacy ceiling, and when gamma_hat > 0 the implied sample
    size (3/e)*beta*gamma_hat*sqrt(k) must not exceed the configured n."""
    lb = 2.0 * beta_sym * gamma_hat * k
    stated = beta_sym * gamma_hat * math.sqrt(k)
    proof = (3.0 / math.e) * beta_sym * gamma_hat * math.sqrt(k)
    chain_ok = (lb <= z_mean + z_ci) and (z_mean + z_ci <= upper_value)
    n_ok = gamma_hat <= 0.0 or n >= proof
    return BoundChainReport(
        lb_value=lb,
        z_mean=z_mean,
        z_ci=z_ci,
        upper_value=upper_value,
        gamma_hat=gamma_hat,
        n=n,
        n_required_stated=stated,
        n_required_proof=proof,
        chain_ok=chain_ok,
        n_ok=n_ok,
    )

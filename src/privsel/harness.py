"""Experiment configuration, the trial runner, parameter sweeps, and
deterministic CSV/JSON result emission.

A run is fully determined by its ExperimentConfig: trial t always draws
from the generator derived from (master_seed, t), and aggregates are
reduced with compensated summation in trial order, so results do not
depend on the worker count. Emitted files are byte-stable for a fixed
seed except for the wall-clock runtime_s column.

Every kind runs one trial body that samples column sums directly
(binomial given the population means): every mechanism, the Z statistic
and the accuracy proxy consume the dataset only through its column sums,
so the joint distribution is exactly that of a row-level dataset. The
trace kind also scores one member row, drawn with independent
Bernoulli(S_j/n) bits given the column sums S, which is the law of a
uniformly chosen row; no kind materializes the n x d matrix.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attack import BoundParameters, privacy_upper_bound, tracing_score
from .betadist import BetaParams, anticoncentration_beta_choice, beta_draws
from .errors import ConfigError
from .instance import selection_error
from .mechanisms import (
    MECHANISM_NAMES,
    SelectionOutput,
    gaussian_release_from_means,
    kernel_from_means,
)
from .seeds import trial_generator

KINDS = ("verify", "topk", "mht", "mean", "trace", "sweep")
SWEEP_AXES = ("n", "k", "d", "epsilon", "beta_sym")

_DEFAULT_MECHANISM = {
    "topk": "peeling",
    "mht": "svt",
    "mean": "gauss-mean",
    "trace": "nonprivate",
    "sweep": "peeling",
}


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no column count.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the instance shape (d, k, n), the symmetric prior
    parameter (or "auto" for the largest admissible value), the mechanism,
    the privacy budget (delta may be "paper" for the kind's canonical
    value), the trial count, the master seed, and which means (population
    or empirical) selection error is measured against."""

    kind: str
    d: int = 256
    k: int = 4
    n: int = 1000
    beta_sym: float | str = "auto"
    mechanism: str | None = None
    epsilon: float = 1.0
    delta: float | str = "paper"
    trials: int = 2000
    master_seed: int = 1
    accuracy_reference: str = "population"

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}, got {self.kind!r}")
        for field in ("d", "k", "n", "trials"):
            v = getattr(self, field)
            if not _is_int(v) or v < 1:
                raise ConfigError(field, f"must be an integer >= 1, got {v!r}")
        if self.k > self.d:
            raise ConfigError("k", f"must not exceed d={self.d}, got {self.k}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError("master_seed", f"must be a nonnegative integer, got {self.master_seed!r}")
        if not (_is_real(self.epsilon) and self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("epsilon", f"must be a positive real, got {self.epsilon!r}")
        if isinstance(self.delta, str):
            if self.delta != "paper":
                raise ConfigError("delta", f'must be a real in [0, 1) or "paper", got {self.delta!r}')
        elif not (_is_real(self.delta) and 0.0 <= self.delta < 1.0):
            raise ConfigError("delta", f"must lie in [0, 1), got {self.delta!r}")
        if isinstance(self.beta_sym, str):
            if self.beta_sym != "auto":
                raise ConfigError("beta_sym", f'must be a positive real or "auto", got {self.beta_sym!r}')
            if self.kind != "verify":
                try:
                    anticoncentration_beta_choice(self.d, self.k)
                except ValueError as exc:
                    raise ConfigError("beta_sym", f"auto is unavailable: {exc}") from exc
        elif not (_is_real(self.beta_sym) and self.beta_sym > 0
                  and math.isfinite(self.beta_sym)):
            raise ConfigError("beta_sym", f"must be a positive real, got {self.beta_sym!r}")
        if self.accuracy_reference not in ("population", "empirical"):
            raise ConfigError(
                "accuracy_reference",
                f'must be "population" or "empirical", got {self.accuracy_reference!r}',
            )
        mech = self.resolved_mechanism()
        if mech not in MECHANISM_NAMES:
            raise ConfigError("mechanism", f"must be one of {MECHANISM_NAMES}, got {mech!r}")
        if self.kind == "mean" and mech != "gauss-mean":
            raise ConfigError("mechanism", f'kind "mean" requires "gauss-mean", got {mech!r}')
        if mech == "gauss-mean" and self.kind not in ("mean", "trace", "verify"):
            raise ConfigError("mechanism", f'"gauss-mean" only applies to kind "mean" or "trace"')
        if mech in ("peeling", "gauss-mean") and self.resolved_delta() <= 0.0:
            raise ConfigError("delta", f"{mech} requires delta > 0")

    def resolved_mechanism(self) -> str:
        if self.mechanism is not None:
            return self.mechanism
        return _DEFAULT_MECHANISM.get(self.kind, "peeling")

    def resolved_beta(self) -> float:
        if isinstance(self.beta_sym, str):
            return anticoncentration_beta_choice(self.d, self.k)
        return float(self.beta_sym)

    def resolved_delta(self) -> float:
        if not isinstance(self.delta, str):
            return float(self.delta)
        if self.kind == "mht":
            return 1.0 / (8.0 * self.n * self.d)
        if self.kind == "mean":
            return 1.0 / (10.0 * self.n)
        return 1.0 / (self.n * self.d)


@dataclass(frozen=True)
class ResultRecord:
    """Aggregate of one experiment: the resolved config echo followed by
    trial-mean metrics with 3-sigma confidence half-widths."""

    kind: str
    d: int
    k: int
    n: int
    beta_sym: float
    mechanism: str
    epsilon: float
    delta: float
    trials: int
    master_seed: int
    accuracy_reference: str
    err_mean: float
    err_ci: float
    z_mean: float
    z_ci: float
    z_upper: float
    lb_proxy_mean: float
    lb_proxy_ci: float
    gamma_hat: float
    runtime_s: float
    beta_sym_configured: str | None = None
    delta_configured: str | None = None
    member_mean: float | None = None
    nonmember_mean: float | None = None
    gap_mean: float | None = None
    gap_ci: float | None = None
    err_unclamped_mean: float | None = None


CSV_COLUMNS = (
    "kind", "d", "k", "n", "beta_sym", "mechanism", "epsilon", "delta",
    "trials", "master_seed", "accuracy_reference",
    "err_mean", "err_ci", "z_mean", "z_ci", "z_upper",
    "lb_proxy_mean", "lb_proxy_ci", "gamma_hat", "runtime_s",
)


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    t = values.size
    mean = math.fsum(values) / t
    if t < 2:
        return mean, float("nan")
    var = math.fsum((v - mean) ** 2 for v in values) / (t - 1)
    return mean, 3.0 * math.sqrt(var / t)


def _topk_sum(ref: np.ndarray, k: int) -> float:
    d = ref.size
    if k >= d:
        return float(ref.sum())
    return float(np.partition(ref, d - k)[d - k :].sum())


def _trial_error(output: SelectionOutput, ref: np.ndarray, k: int) -> float:
    if output.is_indicator and output.l1_norm == float(k):
        return selection_error(output.scores, ref, k)
    # Below-quota indicator outputs (sparse vector may report fewer than k).
    return max(0.0, _topk_sum(ref, k) - float(np.dot(ref, output.scores)))


def _run_trials(config: ExperimentConfig, workers: int):
    b = config.resolved_beta()
    eps = config.epsilon
    dlt = config.resolved_delta()
    mech = config.resolved_mechanism()
    d, k, n = config.d, config.k, config.n
    prior = BetaParams(b, b)
    kernel = kernel_from_means(mech, k=k, n=n, epsilon=eps, delta=dlt)
    use_population = config.accuracy_reference == "population"
    is_mean_kind = config.kind == "mean"
    is_trace_kind = config.kind == "trace"

    def trial(t: int):
        rng = trial_generator(config.master_seed, t)
        means = beta_draws(prior, d, rng)
        sums = rng.binomial(n, means).astype(np.float64)
        emp = sums / n
        ref = means if use_population else emp
        if is_mean_kind:
            unclamped, clamped = gaussian_release_from_means(emp, n, eps, dlt, rng)
            output = SelectionOutput.from_scores(clamped)
            err_unclamped = float(np.mean((unclamped - emp) ** 2))
        else:
            output = kernel(emp, rng)
            err_unclamped = 0.0
        if output.is_indicator:
            err = _trial_error(output, ref, k)
        else:
            err = float(np.mean((output.scores - ref) ** 2))
        z = float(np.dot(output.scores, sums - n * means))
        centered = float(np.dot(output.scores, means - 0.5))
        row = (err, z, 2.0 * b * centered, centered / k, output.l2_norm_sq, err_unclamped)
        if not is_trace_kind:
            return row
        # Given the column sums, a uniformly chosen member row has
        # independent Bernoulli(S_j/n) bits, so no row-level dataset is needed.
        member = (rng.random(d) < emp).astype(np.float64)
        fresh = (rng.random(d) < means).astype(np.float64)
        return row + (tracing_score(output, member, means), tracing_score(output, fresh, means))

    return _collect(trial, config.trials, workers), b, dlt, mech


def _collect(trial, trials: int, workers: int) -> np.ndarray:
    if workers <= 1:
        rows = [trial(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, range(trials)))
    return np.asarray(rows, dtype=np.float64)


def run_experiment(config: ExperimentConfig, workers: int = 1, collect_trials: bool = False):
    """Run one experiment and return its aggregate ResultRecord.

    With collect_trials=True returns (record, trial_rows) where trial_rows
    is one dict per trial in trial order (the canonical row order). For
    kind "verify" the full invariant suite runs instead and a VerifyReport
    is returned."""
    config.validate()
    if config.kind == "verify":
        from .verifysuite import run_verify

        return run_verify(master_seed=config.master_seed)
    if config.kind == "sweep":
        raise ConfigError("kind", 'use sweep(base, axis, values) for kind "sweep"')

    start = time.perf_counter()
    table, b, dlt, mech = _run_trials(config, workers)
    runtime = time.perf_counter() - start

    errs, zs, lbs, gams, l2s = (table[:, i] for i in range(5))
    err_mean, err_ci = _mean_ci(errs)
    z_mean, z_ci = _mean_ci(zs)
    lb_mean, lb_ci = _mean_ci(lbs)
    gamma_hat = math.fsum(gams) / config.trials
    mean_l2 = math.fsum(l2s) / config.trials

    l1_cap = float(config.d) if mech == "gauss-mean" else float(config.k)
    params = BoundParameters(epsilon=config.epsilon, delta=dlt, Delta=l1_cap / 2.0,
                             gamma=gamma_hat, beta_sym=b)
    z_upper = privacy_upper_bound(params, config.n, mean_l2)

    extra = {}
    if config.kind == "trace":
        member_mean, _ = _mean_ci(table[:, 6])
        nonmember_mean, _ = _mean_ci(table[:, 7])
        gap_mean, gap_ci = _mean_ci(table[:, 6] - table[:, 7])
        extra = {
            "member_mean": member_mean,
            "nonmember_mean": nonmember_mean,
            "gap_mean": gap_mean,
            "gap_ci": gap_ci,
        }
    elif config.kind == "mean":
        extra = {"err_unclamped_mean": math.fsum(table[:, 5]) / config.trials}

    record = ResultRecord(
        kind=config.kind,
        d=config.d,
        k=config.k,
        n=config.n,
        beta_sym=b,
        mechanism=mech,
        epsilon=float(config.epsilon),
        delta=dlt,
        trials=config.trials,
        master_seed=config.master_seed,
        accuracy_reference=config.accuracy_reference,
        err_mean=err_mean,
        err_ci=err_ci,
        z_mean=z_mean,
        z_ci=z_ci,
        z_upper=z_upper,
        lb_proxy_mean=lb_mean,
        lb_proxy_ci=lb_ci,
        gamma_hat=gamma_hat,
        runtime_s=runtime,
        beta_sym_configured=_configured_str(config.beta_sym),
        delta_configured=_configured_str(config.delta),
        **extra,
    )
    if not collect_trials:
        return record
    names = ("err", "z", "lb_proxy", "gamma", "l2_norm_sq")
    rows = [
        {"trial": t, **{name: float(table[t, i]) for i, name in enumerate(names)}}
        for t in range(config.trials)
    ]
    return record, rows


def _configured_str(value) -> str | None:
    return value if isinstance(value, str) else None


def sweep(base: ExperimentConfig, axis: str, values, workers: int = 1) -> list[ResultRecord]:
    """One aggregate record per value of the swept axis. All rows share the
    base master_seed, so rows use common random numbers per trial index."""
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    if base.kind == "sweep":
        base = dataclasses.replace(base, kind="topk")
    if base.kind in ("verify",):
        raise ConfigError("kind", "sweep requires a runnable experiment kind")
    records = []
    for value in values:
        if axis in ("n", "k", "d"):
            fv = float(value)
            if not fv.is_integer():
                raise ConfigError(axis, f"must be an integer, got {value!r}")
            cast = int(fv)
        else:
            cast = float(value)
        config = dataclasses.replace(base, **{axis: cast})
        records.append(run_experiment(config, workers=workers))
    return records


def _float_text(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    return str(value)


def render_csv(records) -> str:
    """Fixed-schema CSV: the config columns then the aggregate metrics, one
    row per record, floats at 17 significant digits."""
    rows = [",".join(CSV_COLUMNS)]
    for rec in _as_list(records):
        rows.append(",".join(_csv_cell(getattr(rec, col)) for col in CSV_COLUMNS))
    return "\n".join(rows) + "\n"


def _json_value(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_json(records) -> str:
    """Records as a JSON document with a fixed field order and floats at 17
    significant digits; None-valued optional fields are omitted and
    non-finite floats (the half-widths of a one-trial run, an unbounded
    z_upper) are written as null, so strict JSON parsers accept it."""
    lines = ['{"records": [']
    recs = _as_list(records)
    for idx, rec in enumerate(recs):
        pairs = []
        for field in dataclasses.fields(ResultRecord):
            value = getattr(rec, field.name)
            if value is None:
                continue
            pairs.append(f'"{field.name}": {_json_value(value)}')
        tail = "," if idx + 1 < len(recs) else ""
        lines.append("{" + ", ".join(pairs) + "}" + tail)
    lines.append("]}")
    return "\n".join(lines) + "\n"


def records_from_json(text: str) -> list[ResultRecord]:
    import json

    payload = json.loads(text)
    return [ResultRecord(**entry) for entry in payload["records"]]


def _as_list(records) -> list:
    if isinstance(records, ResultRecord):
        return [records]
    return list(records)


def emit(results, format: str = "csv", path=None) -> str:
    """Render results ("csv" or "json") and, when path is given, write them
    there. Returns the rendered text. Output is byte-stable for a fixed
    master seed, runtime_s excepted (it is wall-clock)."""
    if format == "csv":
        text = render_csv(results)
    elif format == "json":
        text = render_json(results)
    else:
        raise ConfigError("format", f'must be "csv" or "json", got {format!r}')
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text

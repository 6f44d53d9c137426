"""Output gate for benchmark jobs.

Each job's record is checked on its own for the things that hold exactly:
the config echo matches the request, every numeric field is finite, and
the measured statistic stays below the privacy upper bound (z_mean <=
z_upper). A verify job passes only when the report says passed and holds
all eleven checks.

The two statistical checks pool the run's jobs of one config first:
- the per-column fingerprinting identity, |z_mean - lb_proxy_mean| <=
  z_ci + lb_proxy_ci, which holds in expectation for any implementation
  that draws from the exact law;
- err_mean and z_mean against the reference records from the seed commit,
  each within the sum of the two records' half-widths.
Record half-widths are 3 standard errors. A correct program fails such a
3-sigma test about once in 400 tries, and a run set makes hundreds, so the
gate widens each half-width to STAT_SIGMAS standard errors: a correct
program then fails one run set in thousands, while a change of the law
still moves the pooled means by many standard errors.
"""

from __future__ import annotations

import json
import math

VERIFY_CHECK_COUNT = 11
METRIC_FIELDS = ("err_mean", "err_ci", "z_mean", "z_ci", "z_upper",
                 "lb_proxy_mean", "lb_proxy_ci")
STAT_SIGMAS = 5.0
_CI_SIGMAS = 3.0  # record half-widths are 3-sigma


def config_echo(request: dict) -> dict:
    """The fields a record must echo back for a run request."""
    return {
        "kind": request["kind"],
        "d": request["d"],
        "k": request["k"],
        "n": request["n"],
        "mechanism": request["mechanism"],
        "trials": request["trials"],
        "master_seed": request["seed"],
        "epsilon": 1.0,
        "accuracy_reference": "population",
        "beta_sym_configured": "auto",
        "delta_configured": "paper",
    }


def check_record(text: str, request: dict) -> list[str]:
    """Problems with one run job's JSON output; empty when it passes."""
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    if len(records) != 1:
        return [f"expected one record, got {len(records)}"]
    record = records[0]
    problems = []
    for field, want in config_echo(request).items():
        if record.get(field) != want:
            problems.append(f"echo {field}={record.get(field)!r}, requested {want!r}")
    for field in METRIC_FIELDS:
        if not isinstance(record.get(field), (int, float)):
            problems.append(f"{field} missing or not a number: {record.get(field)!r}")
    for field, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{field} is not finite: {value!r}")
    if not problems and not record["z_mean"] <= record["z_upper"]:
        problems.append(f"z_mean {record['z_mean']} exceeds z_upper {record['z_upper']}")
    return problems


def check_verify(text: str) -> list[str]:
    """Problems with one verify job's JSON report; empty when it passes."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        problems.append(f"verify did not pass; failed checks: {failed}")
    checks = len(report.get("checks", []))
    if checks != VERIFY_CHECK_COUNT:
        problems.append(f"expected {VERIFY_CHECK_COUNT} checks, got {checks}")
    return problems


def pool(records: list[dict]) -> dict:
    """Equal-weight pool of records of one config: the mean of each metric
    with the half-width of that mean (root-sum-square of half-widths / m)."""
    m = len(records)
    pooled = {}
    for metric in ("err", "z", "lb_proxy"):
        pooled[f"{metric}_mean"] = math.fsum(r[f"{metric}_mean"] for r in records) / m
        pooled[f"{metric}_ci"] = math.sqrt(math.fsum(r[f"{metric}_ci"] ** 2 for r in records)) / m
    return pooled


def _within(a: float, b: float, half_width: float) -> bool:
    return abs(a - b) <= half_width * STAT_SIGMAS / _CI_SIGMAS


def check_pooled(pooled: dict, reference: dict | None) -> list[str]:
    """Statistical problems with a pooled config; empty when it passes."""
    problems = []
    if not _within(pooled["z_mean"], pooled["lb_proxy_mean"],
                   pooled["z_ci"] + pooled["lb_proxy_ci"]):
        problems.append(
            f"fingerprinting identity: z_mean {pooled['z_mean']:.6g} vs lb_proxy_mean "
            f"{pooled['lb_proxy_mean']:.6g} (half-widths {pooled['z_ci']:.3g} + "
            f"{pooled['lb_proxy_ci']:.3g})")
    if reference is None:
        problems.append("no reference record for this config")
        return problems
    for metric in ("err", "z"):
        ours, theirs = pooled[f"{metric}_mean"], reference[f"{metric}_mean"]
        half = pooled[f"{metric}_ci"] + reference[f"{metric}_ci"]
        if not _within(ours, theirs, half):
            problems.append(f"{metric}_mean {ours:.6g} vs reference {theirs:.6g} "
                            f"(half-widths {pooled[f'{metric}_ci']:.3g} + "
                            f"{reference[f'{metric}_ci']:.3g})")
    return problems

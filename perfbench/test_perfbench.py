"""Tests of the benchmark's own machinery: run with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CLI = run.load_privsel_cli()


def _run_job(job: run.Job, seed: int, out: Path) -> str:
    assert CLI.main(job.argv(seed, out)) == 0
    return out.read_text(encoding="utf-8")


ALL_JOBS = {job.key: job for jobs in run.WORKLOADS.values() for job in jobs}


@pytest.mark.parametrize("key", sorted(ALL_JOBS))
def test_traced_records_match_untraced(key, tmp_path):
    job = ALL_JOBS[key]
    if job.kind != "verify":
        job = run.Job(job.kind, job.mechanism, trials=3)
    plain = _run_job(job, 5, tmp_path / "plain.json")
    tracer = spans.Tracer()
    with tracer.installed():
        traced = _run_job(job, 5, tmp_path / "traced.json")
    assert tracer.calls["cli.main"] == 1
    assert run.strip_runtime(traced) == run.strip_runtime(plain)
    if job.kind != "verify":
        assert "runtime_s" in plain and run.strip_runtime(plain) != plain


def test_tracer_restores_every_binding(tmp_path):
    import privsel.harness
    import privsel.mechanisms

    before = (privsel.harness.beta_draws, privsel.cli.main,
              privsel.mechanisms.SelectionOutput.__post_init__)
    with spans.Tracer().installed():
        assert privsel.harness.beta_draws is not before[0]
        _run_job(run.Job("topk", "rnm", 2), 1, tmp_path / "out.json")
    after = (privsel.harness.beta_draws, privsel.cli.main,
             privsel.mechanisms.SelectionOutput.__post_init__)
    assert all(a is b for a, b in zip(before, after))


def test_removed_layer_reports_zero_calls_with_warning(monkeypatch, capsys, tmp_path):
    layers = spans.FUNCTION_LAYERS + (("seeds", "renamed_away"),)
    monkeypatch.setattr(spans, "FUNCTION_LAYERS", layers)
    monkeypatch.setattr(spans, "LAYER_NAMES", spans.LAYER_NAMES + ("seeds.renamed_away",))
    tracer = spans.Tracer()
    with tracer.installed():
        _run_job(run.Job("topk", "rnm", 2), 1, tmp_path / "out.json")
    assert tracer.missing == ["seeds.renamed_away"]
    assert "seeds.renamed_away" in capsys.readouterr().err
    metrics = run.per_layer_metrics((run.Job("topk", "rnm", 2),), tracer, [1.0], [1.0])
    assert metrics["seeds.renamed_away.calls"] == (0.0, "count")
    assert metrics["seeds.trial_generator.calls"] == (2.0, "count")


def test_self_times_partition_the_outer_span(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        _run_job(run.Job("topk", "peeling", 5), 3, tmp_path / "out.json")
    assert tracer.calls["mechanisms.kernel.peeling"] == 5
    assert tracer.calls["mechanisms.SelectionOutput.validate"] == 5
    assert all(value >= 0.0 for value in tracer.self_s.values())
    assert tracer.self_s["cli.main"] < sum(tracer.self_s.values())


def test_gate_checks_echo_and_finiteness(tmp_path):
    job = run.Job("topk", "rnm", 4)
    text = _run_job(job, 9, tmp_path / "out.json")
    assert gate.check_record(text, job.request(9)) == []
    assert any("master_seed" in p for p in gate.check_record(text, job.request(10)))
    broken = text.replace('"err_ci": ', '"err_ci": NaN, "x": ', 1)
    assert any("err_ci" in p for p in gate.check_record(broken, job.request(9)))


def test_pooled_gate_accepts_reference_law_and_rejects_a_shift(tmp_path):
    job = run.Job("topk", "rnm", 200)
    records = [json.loads(_run_job(job, seed, tmp_path / "out.json"))["records"][0]
               for seed in range(4)]
    references = json.loads((run.HERE / "reference.json").read_text())["records"]
    pooled = gate.pool(records)
    assert gate.check_pooled(pooled, references["topk/rnm"]) == []
    shifted = dict(references["topk/rnm"], err_mean=references["topk/rnm"]["err_mean"] * 1.5)
    assert any("err_mean" in p for p in gate.check_pooled(pooled, shifted))
    broken_identity = dict(pooled, z_mean=pooled["z_mean"] + 10 * pooled["z_ci"])
    assert any("identity" in p for p in gate.check_pooled(broken_identity, None))

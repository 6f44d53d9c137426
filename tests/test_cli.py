"""CLI behavior: flag parsing, config-file precedence, output routing,
and exit codes."""

import json

import pytest

from privsel.cli import main
from privsel.harness import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_requires_subcommand(capsys):
    code, _, _ = run_cli(capsys, )
    assert code == 2


def test_topk_stdout_csv(capsys):
    code, out, err = run_cli(capsys, "topk", "--d", "32", "--k", "2", "--n", "100",
                             "--beta", "2", "--mech", "rnm", "--trials", "20",
                             "--seed", "3")
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("topk,32,2,100,")


def test_json_format_and_out_file(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "topk", "--d", "32", "--k", "2", "--n", "100",
                           "--beta", "2", "--mech", "rnm", "--trials", "20",
                           "--seed", "3", "--format", "json", "--out", str(path))
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["records"][0]["kind"] == "topk"
    assert payload["records"][0]["trials"] == 20


def test_config_file_with_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "d": 64, "k": 2, "n": 100, "beta_sym": 2, "mechanism": "rnm",
        "trials": 20, "master_seed": 3,
    }))
    code, out, _ = run_cli(capsys, "topk", "--config", str(cfg), "--d", "16",
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["d"] == 16  # flag beats file
    assert rec["n"] == 100  # file beats default
    assert rec["mechanism"] == "rnm"


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dd": 64}))
    code, _, err = run_cli(capsys, "topk", "--config", str(cfg))
    assert code == 2
    assert "config error" in err


def test_invalid_field_exits_2(capsys):
    code, _, err = run_cli(capsys, "topk", "--d", "4", "--k", "9", "--trials", "5")
    assert code == 2
    assert "k:" in err


def test_bad_delta_string_exits_2(capsys):
    code, _, err = run_cli(capsys, "topk", "--d", "32", "--k", "2", "--beta", "2",
                           "--trials", "5", "--delta", "soon")
    assert code == 2
    assert "delta" in err


def test_sweep_values_and_inferred_kind(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "n", "--values", "50,100",
                           "--d", "32", "--k", "2", "--beta", "2", "--mech", "rnm",
                           "--trials", "20", "--seed", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["n"] for r in records] == [50, 100]
    assert all(r["kind"] == "topk" for r in records)


def test_sweep_bad_values_exit_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "n", "--values", "ten",
                           "--d", "32", "--k", "2", "--beta", "2", "--trials", "5")
    assert code == 2
    assert "values" in err


def test_verify_subcommand_writes_report(capsys, tmp_path):
    path = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--seed", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    assert code == 0
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"pdf_normalization", "exp_mech_dp_ratio", "per_column_equality",
            "fingerprint_identity", "fingerprint_beta"} <= names
    assert all(c["passed"] for c in payload["checks"])


def test_mean_subcommand_runs(capsys):
    code, out, _ = run_cli(capsys, "mean", "--d", "50", "--k", "1", "--n", "500",
                           "--beta", "1", "--trials", "20", "--seed", "2",
                           "--ref", "empirical", "--format", "json")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["mechanism"] == "gauss-mean"
    assert rec["err_unclamped_mean"] > 0.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_one_trial_json_is_strict(capsys):
    # one trial has no confidence half-width; strict parsers must still read it
    code, out, _ = run_cli(capsys, "trace", "--d", "64", "--k", "4", "--n", "25",
                           "--beta", "1.5", "--trials", "1", "--format", "json")
    assert code == 0
    record = json.loads(out, parse_constant=_reject_constant)["records"][0]
    assert record["err_ci"] is None and record["z_ci"] is None
    assert record["lb_proxy_ci"] is None and record["gap_ci"] is None


def test_huge_epsilon_runs_with_unbounded_ceiling(capsys):
    code, out, err = run_cli(capsys, "topk", "--d", "64", "--k", "4", "--n", "100",
                             "--beta", "1.5", "--eps", "1e6", "--trials", "5",
                             "--format", "json")
    assert code == 0, err
    record = json.loads(out, parse_constant=_reject_constant)["records"][0]
    assert record["z_upper"] is None

"""Writes perfbench/reference.json: one large record per run config of the
benchmark, produced through the CLI at the checked-out commit. The gate
compares each run's pooled err_mean and z_mean with these records, so
regenerate them only when the law of the draws is meant to change.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import run
from gate import check_record

REFERENCE_SEED = 1704
REFERENCE_TRIALS = {"trace": 400}  # row-level trials cost ~60 ms each
DEFAULT_TRIALS = 20000


def main() -> int:
    cli = run.load_privsel_cli()
    run.OUT_DIR.mkdir(exist_ok=True)
    out = run.OUT_DIR / "reference-job.json"
    records = {}
    jobs = {job.key: job for jobs in run.WORKLOADS.values() for job in jobs if job.kind != "verify"}
    for key, job in sorted(jobs.items()):
        job = run.Job(job.kind, job.mechanism, REFERENCE_TRIALS.get(job.kind, DEFAULT_TRIALS))
        if cli.main(job.argv(REFERENCE_SEED, out)) != 0:
            raise SystemExit(f"{key}: reference job failed")
        text = out.read_text(encoding="utf-8")
        problems = check_record(text, job.request(REFERENCE_SEED))
        if problems:
            raise SystemExit(f"{key}: {problems}")
        record = json.loads(text)["records"][0]
        records[key] = {field: record[field] for field in
                        ("trials", "master_seed", "err_mean", "err_ci", "z_mean", "z_ci")}
        print(key, records[key], file=sys.stderr)
    payload = {"commit": run.git_commit(), "records": records}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

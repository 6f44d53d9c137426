"""privsel benchmark runner.

    python3 perfbench/run.py --workload colsum-mix --seed 1 --seconds 15 --trace 0

Runs one workload as a closed loop: one client, one process, one thread,
jobs back to back. Each job calls privsel.cli.main(argv) in-process with
--out, so the timed path is the user's (cli -> harness -> layers). Job
seeds are derived from --seed. Every job's output goes through the gate in
gate.py. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 untraced and traced rounds alternate on the same
job seeds, and it carries the per-layer metrics from spans.py. Earlier
lines print every metric by name and unit, the failure ratio and the
environment; the full result is also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
MIN_ROUNDS = 3
INSTANCE = {"d": 1024, "k": 8, "n": 2200}
# Monte Carlo trials in one `privsel verify`: per_column_equality runs 4000
# and bound_chain 400.
VERIFY_TRIALS = 4400


@dataclass(frozen=True)
class Job:
    kind: str
    mechanism: str | None
    trials: int

    @property
    def key(self) -> str:
        return self.kind if self.mechanism is None else f"{self.kind}/{self.mechanism}"

    def request(self, seed: int) -> dict:
        return {"kind": self.kind, "mechanism": self.mechanism, "trials": self.trials,
                "seed": seed, **INSTANCE}

    def argv(self, seed: int, out: Path) -> list[str]:
        if self.kind == "verify":
            # Verify runs at its default seed, as documented for users: at
            # other seeds its 3-sigma statistical checks fail about one time
            # in 400 (bound_chain fails at seed 1286690196), which a correct
            # program would show as failed jobs.
            return ["verify", "--out", str(out)]
        return [self.kind, "--d", str(INSTANCE["d"]), "--k", str(INSTANCE["k"]),
                "--n", str(INSTANCE["n"]), "--beta", "auto", "--mech", self.mechanism,
                "--trials", str(self.trials), "--seed", str(seed),
                "--format", "json", "--out", str(out)]


# One round runs each job of the workload once. Why each workload exists
# and which layers it stresses is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "colsum-mix": (Job("topk", "peeling", 200), Job("topk", "rnm", 200),
                   Job("mht", "svt", 200), Job("mean", "gauss-mean", 200)),
    "trace-rows": (Job("trace", "peeling", 8),),
    "verify-suite": (Job("verify", None, VERIFY_TRIALS),),
}


def round_seeds(workload: str, seed: int):
    """Job seeds for successive rounds, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    size = len(WORKLOADS[workload])
    while True:
        yield [rng.randrange(2**31) for _ in range(size)]


def strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_s": [^,}]*', '"runtime_s": _', text)


class Loop:
    """Runs rounds of one workload and gates every job's output."""

    def __init__(self, cli, workload: str):
        self.cli = cli
        self.workload = workload
        self.jobs = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict[str, list[dict]] = {}
        OUT_DIR.mkdir(exist_ok=True)

    def run_round(self, seeds, keep_records: bool = True) -> tuple[float, list]:
        """Runs each job once; returns the summed cli.main wall time and the
        job outputs (None for a job that produced none)."""
        wall = 0.0
        texts = []
        for index, (job, seed) in enumerate(zip(self.jobs, seeds)):
            out = OUT_DIR / f"job{index}.json"
            out.unlink(missing_ok=True)
            self.attempted += 1
            start = time.perf_counter()
            try:
                code = self.cli.main(job.argv(seed, out))
            except Exception:  # a raising job is counted as failed, the loop goes on
                code = "raised: " + traceback.format_exc(limit=3)
            wall += time.perf_counter() - start
            text = out.read_text(encoding="utf-8") if out.exists() else None
            texts.append(text)
            problems = self._gate(job, seed, code, text, keep_records)
            if problems:
                self.failed += 1
                where = job.key if job.kind == "verify" else f"{job.key} seed {seed}"
                self.problems.extend(f"{where}: {p}" for p in problems)
        return wall, texts

    def _gate(self, job: Job, seed: int, code, text, keep_records: bool) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        if text is None:
            return ["no output written"]
        if job.kind == "verify":
            return gate.check_verify(text)
        problems = gate.check_record(text, job.request(seed))
        if not problems and keep_records:
            self.records.setdefault(job.key, []).append(json.loads(text)["records"][0])
        return problems

    def check_pooled(self, references: dict) -> None:
        """Runs the statistical checks on each config's pooled records; a
        failing config fails every job of it."""
        for key, records in self.records.items():
            problems = gate.check_pooled(gate.pool(records), references.get(key))
            if problems:
                self.failed += len(records)
                self.problems.extend(f"{key} pooled over {len(records)} jobs: {p}"
                                     for p in problems)


# The shared host's speed drifts by up to half within seconds, and the
# drift is common to work of one kind running at that moment. Every timed
# sample (a round, or one set-up) is therefore bracketed by runs of a fixed
# calibration kernel of a similar kind of work that does not touch privsel,
# and reported as its ratio to the mean of the two kernel times, times the
# kernel's time on the reference host: seconds at reference host speed.


def vector_kernel(np, rng) -> float:
    """Small-vector numpy calls from a Python loop, the mix a column-sum
    trial loop makes. Its arrays are small, so it leaves peak memory alone."""
    total = 0.0
    for _ in range(3000):
        values = rng.random(1024)
        total += float(np.dot(values, np.sort(values))) + int(np.argmax(values))
    return total


def row_kernel(np, rng) -> float:
    """Passes over bit matrices larger than the L2 cache, the work of a
    row-level trial: draw, pack, unpack, centre and multiply."""
    total = 0.0
    for _ in range(4):
        uniforms = rng.random((550, 1024))
        bits = np.unpackbits(np.packbits(uniforms < 0.5, axis=0), axis=0)[:550]
        total += float(((bits - 0.5) @ uniforms[0]).sum())
    return total


# The kernel each workload's rounds are timed against. Set-up, the same
# work in every workload, is timed against vector_kernel, which tracks it
# best.
ROUND_KERNEL = {
    "colsum-mix": vector_kernel,
    "trace-rows": row_kernel,
    "verify-suite": vector_kernel,
}
# Each kernel's seconds on the reference host.
REFERENCE_S = {vector_kernel: 0.035, row_kernel: 0.040}


def kernel_seconds(kernel) -> float:
    """Seconds one run of a calibration kernel takes now."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    start = time.perf_counter()
    kernel(np, rng)
    return time.perf_counter() - start


def bracketed(measure, kernel) -> tuple[float, float]:
    """One sample in seconds, with the mean time of the kernel run just
    before and just after it."""
    before = kernel_seconds(kernel)
    sample = measure()
    return sample, (before + kernel_seconds(kernel)) / 2


def calibrated(samples: list[tuple[float, float]], kernel) -> float:
    """Median of bracketed samples, in seconds at reference host speed."""
    return statistics.median(t / c for t, c in samples) * REFERENCE_S[kernel]


def measure_setup() -> float:
    """Seconds to import privsel.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import privsel.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def load_privsel_cli():
    sys.path.insert(0, str(SRC))
    import privsel.cli

    if Path(privsel.cli.__file__).resolve().parent != SRC / "privsel":
        raise SystemExit(f"privsel was imported from {privsel.cli.__file__}, not {SRC}")
    return privsel.cli


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        size = _read_text(index / "size")
        if level and kind and size and kind.strip() != "Instruction":
            sizes[f"L{level.strip()}"] = size.strip()
    return {level: sizes.get(level, "unknown") for level in ("L2", "L3")}


def _cpu_model() -> str:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "workload": workload,
        "workload_seed": seed,
    }


def end_to_end_metrics(loop: Loop, rounds: list[tuple[float, float]],
                       setup: list[tuple[float, float]]) -> dict:
    trials_per_round = sum(job.trials for job in loop.jobs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = calibrated(rounds, ROUND_KERNEL[loop.workload])
    return {
        "trials_per_s": (trials_per_round / wall, "1/s"),
        "wall_s": (wall, "s"),
        "setup_s": (calibrated(setup, vector_kernel), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def uncalibrated(rounds, setup) -> dict:
    """Raw medians, printed for reference next to the calibrated metrics."""
    return {
        "raw.wall_s": (statistics.median(t for t, _ in rounds), "s"),
        "raw.setup_s": (statistics.median(t for t, _ in setup), "s"),
        "raw.calibration_s": (statistics.median(c for _, c in rounds), "s"),
    }


def per_layer_metrics(jobs, tracer: spans.Tracer, traced: list[float],
                      untraced: list[float]) -> dict:
    rounds = len(traced)
    trials = sum(job.trials for job in jobs) * rounds
    metrics = {}
    for name in spans.LAYER_NAMES:
        self_s = tracer.self_s.get(name, 0.0)
        metrics[f"{name}.self_us_per_trial"] = (self_s * 1e6 / trials, "us")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / rounds, "ms")
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / rounds, "count")
    for name in spans.BYTE_COUNTERS:
        metrics[f"{name}.bytes_per_trial"] = (tracer.bytes.get(name, 0) / trials, "B")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / u for t, u in zip(traced, untraced)), "ratio")
    metrics["trace.coverage"] = (math.fsum(tracer.self_s.values()) / math.fsum(traced), "ratio")
    return metrics


def timed_rounds(loop: Loop, seeds, seconds: float):
    """Untraced rounds until `seconds` of them are measured, and set-up
    samples spread evenly over the run so that one burst of load cannot
    move all of them; each sample as a (seconds, calibration seconds) pair."""
    kernel = ROUND_KERNEL[loop.workload]
    rounds, setup = [], []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        if len(setup) < SETUP_REPEATS and measured >= seconds * len(setup) / SETUP_REPEATS:
            setup.append(bracketed(measure_setup, vector_kernel))
        rounds.append(bracketed(lambda: loop.run_round(next(seeds))[0], kernel))
        measured += rounds[-1][0]
    return rounds, setup


def traced_rounds(loop: Loop, seeds, seconds: float):
    """Pairs of rounds on the same seeds, one traced and one not, until
    `seconds` of them are measured; the traced copy must emit the same
    records. Which copy runs first alternates, so warm caches favour
    neither side."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    while len(untraced) < MIN_ROUNDS or math.fsum(untraced) + math.fsum(traced) < seconds:
        round_seed = next(seeds)
        traced_first = len(traced) % 2 == 1
        if traced_first:
            with tracer.installed():
                traced_wall, traced_texts = loop.run_round(round_seed, keep_records=False)
        wall, texts = loop.run_round(round_seed)
        if not traced_first:
            with tracer.installed():
                traced_wall, traced_texts = loop.run_round(round_seed, keep_records=False)
        untraced.append(wall)
        traced.append(traced_wall)
        for job, text, traced_text in zip(loop.jobs, texts, traced_texts):
            if text is not None and traced_text is not None \
                    and strip_runtime(text) != strip_runtime(traced_text):
                loop.failed += 1
                loop.problems.append(f"{job.key}: traced output differs from untraced")
    return tracer, untraced, traced


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_privsel_cli()
    loop = Loop(cli, workload)
    seeds = round_seeds(workload, seed)
    loop.run_round(next(seeds))  # warm-up: lazy imports and caches, untimed
    if trace:
        tracer, untraced, traced = traced_rounds(loop, seeds, seconds)
        metrics = per_layer_metrics(loop.jobs, tracer, traced, untraced)
        info = {}
    else:
        untraced, setup = timed_rounds(loop, seeds, seconds)
        metrics = end_to_end_metrics(loop, untraced, setup)
        info = uncalibrated(untraced, setup)
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["records"]
    loop.check_pooled(references)
    return {
        "loop": loop,
        "metrics": metrics,
        "info": info,
        "rounds": len(untraced),
        "environment": environment(workload, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "privsel" / "cli.py").is_file():
        print(f"perfbench: no privsel sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One client, one thread: keep BLAS single-threaded before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    loop, metrics, env = result["loop"], result["metrics"], result["environment"]
    if env["blas_threads"] is not None and env["blas_threads"] > (env["nproc"] or 1):
        loop.problems.append(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    fail_ratio = loop.failed / loop.attempted

    for problem in loop.problems[:20]:
        print(f"gate failure: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} timed rounds, {loop.attempted} jobs")
    for name, (value, unit) in {**metrics, **result["info"]}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {fail_ratio:.6g} ratio")
    print("environment " + json.dumps(env, sort_keys=True))
    summary = {
        "correct": loop.failed == 0 and not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {**summary, "fail_ratio": fail_ratio, "environment": env,
              "uncalibrated": {name: value for name, (value, _) in result["info"].items()},
              "timed_rounds": result["rounds"], "problems": loop.problems}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""nmode-squeeze benchmark: closed-loop runs of the jobs users run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out PATH]

One client runs one job at a time; each job is its own child process
(``python -m nmodesqueeze ...`` or ``bench/child.py``), timed from just
before it is started until ``os.wait4`` reaps it.  Jobs are drawn from
``--seed`` in whole sweeps until ``--seconds`` have passed and, in an
untraced run, at least three jobs have run (another sweep starts only if
half of it still fits).
Every output is checked; an operation fails if it exits non-zero or fails
its check, and the result is ``correct`` unless some operation gave a
wrong answer.  Only a job drawn in a known refused range (large-|lambda|
``variances``) may be refused: exit 2 with an error message, no traceback
and no document counts as failed but not as wrong.  Set-up time is probed
before every job, so it samples the same phases of the machine as the jobs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, in which each job runs once untraced
and once with every public function of the package wrapped (order
alternating), and the difference is reported as the tracing overhead.
The last line of standard output is one JSON object; a detailed record
with the environment and every sample goes to ``.bench_out/``.  BLAS in
every child gets exactly ``nproc`` threads.  Needs only the standard
library; the package is imported from ``src/`` by the children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
from spec import END_TO_END, PER_LAYER, UNITS
from workloads import FULL, WORKLOADS, Job, Sizes

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MIN_JOBS = 3
IMPORT_REPS = 5
# Every run must end well inside 180 s, traced runs of the slowest
# workload included.
HARD_LIMIT_S = 170.0
SETUP_PROBE = "import nmodesqueeze.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


@dataclass
class Outcome:
    wall_s: float
    first_output_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str
    timed_out: bool


def execute(command: list[str], env: dict, timeout: float) -> Outcome:
    """Run one child to completion, draining its stdout as it comes."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        chunks, first, timed_out = [], None, False
        fd = proc.stdout.fileno()
        try:
            while True:
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                ready, _, _ = select.select([fd], [], [], remaining)
                if not ready:
                    continue
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return Outcome(
        wall_s=end - start,
        first_output_s=(first if first is not None else end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=b"".join(chunks),
        stderr=stderr,
        timed_out=timed_out,
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def command_for(job: Job, trace_path: Path | None = None, run_id: str = "") -> list[str]:
    if job.command is not None:
        return job.command
    if trace_path is not None:
        return [sys.executable, str(BENCH / "child.py"), "--trace", str(trace_path),
                "--run-id", run_id, job.kind, *job.args]
    if job.kind == "cli":
        return [sys.executable, "-m", "nmodesqueeze", *job.args]
    return [sys.executable, str(BENCH / "child.py"), job.kind, *job.args]


def classify(job: Job, outcome: Outcome) -> tuple[str, str | None]:
    """("ok" | "refused" | "wrong", reason)."""
    last_err = outcome.stderr.strip().splitlines()[-1:] or [""]
    if outcome.timed_out:
        return "wrong", "timed out"
    if outcome.returncode == 0:
        reason = job.check(outcome.stdout)
        return ("ok", None) if reason is None else ("wrong", reason)
    if (job.may_refuse and outcome.returncode == 2 and not outcome.stdout
            and "Traceback" not in outcome.stderr):
        return "refused", f"exit {outcome.returncode}: {last_err[0]}"
    return "wrong", f"exit {outcome.returncode}: {last_err[0]}"


# ---------------------------------------------------------------------------
# environment, set-up time, import time

def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def probe_environment(env: dict) -> dict:
    record = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
    }
    outcome = execute([sys.executable, str(BENCH / "child.py"), "env"], env, 60.0)
    if outcome.returncode == 0:
        record.update(json.loads(outcome.stdout))
    else:
        record["env_probe_error"] = outcome.stderr.strip()[-300:]
    return record


def measure_setup(env: dict, reps: int) -> list[float]:
    """Interpreter start until ``nmodesqueeze.cli`` is imported, ``reps`` times."""
    command = [sys.executable, "-c", SETUP_PROBE]
    samples = []
    for _ in range(reps):
        outcome = execute(command, env, 60.0)
        if outcome.returncode != 0 or outcome.stdout != b"ready\n":
            raise RuntimeError(f"set-up probe failed: {outcome.stderr.strip()[-300:]}")
        samples.append(outcome.first_output_s)
    return samples


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds: cumulative import of ``scipy.sparse`` and of all top-level imports."""
    total = sparse = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        name = name[1:]
        if not name.startswith(" "):
            total += int(cumulative) / 1e6
        if name.strip() == "scipy.sparse":
            sparse = int(cumulative) / 1e6
    return {"import.scipy_sparse_s": sparse, "import.total_s": total}


def measure_imports(env: dict, reps: int) -> dict[str, float]:
    command = [sys.executable, "-X", "importtime", "-c", "import nmodesqueeze.cli"]
    rows = [parse_importtime(execute(command, env, 60.0).stderr) for _ in range(reps)]
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ---------------------------------------------------------------------------
# one run

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, sweeps=None) -> dict:
    """Measure one workload; returns the detailed record of the run."""
    begin = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    env = child_env()
    environment = probe_environment(env)
    # One untimed probe first; it also writes the bytecode caches.
    measure_setup(env, 1)
    imports = measure_imports(env, IMPORT_REPS) if trace else {}
    if sweeps is None:
        sweeps = WORKLOADS[name](random.Random(seed), sizes)

    samples, layers, setups = [], [], []
    start = time.perf_counter()
    for index, sweep in enumerate(sweeps):
        for job in sweep:
            if not trace:
                setups += measure_setup(env, 1)
            modes = [False, True] if trace else [False]
            if trace and len(samples) % 4 == 2:
                modes.reverse()
            for traced in modes:
                run_id = f"{name}-seed{seed}-{len(samples)}"
                trace_path = OUT / f"trace-{run_id}.jsonl" if traced else None
                if trace_path is not None and trace_path.exists():
                    trace_path.unlink()
                timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - begin))
                outcome = execute(command_for(job, trace_path, run_id), env, timeout)
                status, reason = classify(job, outcome)
                samples.append({
                    "job": job.label, "traced": traced, "status": status, "reason": reason,
                    "returncode": outcome.returncode, "wall_s": outcome.wall_s,
                    "first_output_s": outcome.first_output_s, "peak_rss_mb": outcome.peak_rss_mb,
                    "output_bytes": len(outcome.stdout),
                    "output_sha256": hashlib.sha256(outcome.stdout).hexdigest(),
                })
                if trace_path is not None and trace_path.exists():
                    row = tracer.job_metrics(tracer.read(str(trace_path)))
                    row["cli.output_bytes"] = len(outcome.stdout) if job.kind == "cli" else 0
                    row["cli.records"] = job.records(outcome.stdout) if job.kind == "cli" else 0
                    layers.append(row)
        # Start another sweep only if at least half of it fits in the time
        # left, so a run overshoots --seconds by at most half a sweep, or
        # if fewer than MIN_JOBS jobs have run, so every median rests on
        # several samples.
        now = time.perf_counter()
        sweep_s = (now - start) / (index + 1)
        jobs = sum(not s["traced"] for s in samples)
        if now - begin + sweep_s > HARD_LIMIT_S - 10:
            break
        if now - start + sweep_s / 2 >= seconds and (trace or jobs >= MIN_JOBS):
            break

    untraced = [s for s in samples if not s["traced"]]
    failed = sum(s["status"] != "ok" for s in samples)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": asdict(sizes),
        "environment": environment,
        "correct": not any(s["status"] == "wrong" for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
        "setup_samples_s": setups,
        "samples": samples,
    }
    if not trace:
        record["metrics"] = {
            "wall_s": statistics.median(s["wall_s"] for s in untraced),
            "setup_s": statistics.median(setups),
            "first_output_s": statistics.median(s["first_output_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
    else:
        record["layers_per_job"] = layers
        record["metrics"] = layer_metrics(layers, imports, samples)
    record["run_s"] = time.perf_counter() - begin
    return record


def layer_metrics(layers: list[dict], imports: dict, samples: list[dict]) -> dict:
    def median_wall(traced: bool) -> float:
        walls = [s["wall_s"] for s in samples if s["traced"] is traced]
        return statistics.median(walls) if walls else 0.0

    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [row[name] for row in layers if name in row]
        metrics[name] = statistics.median(values) if values else 0
    job_total = sum(row["trace.job_s"] for row in layers)
    metrics["trace.evolve_vacuum_share"] = (
        sum(row["_evolve_total_s"] for row in layers) / job_total if job_total else 0.0)
    metrics["trace.coupling_share"] = (
        sum(row["_coupling_total_s"] for row in layers) / job_total if job_total else 0.0)
    metrics["trace.overhead_s"] = median_wall(True) - median_wall(False)
    metrics.update(imports)
    return metrics


def result_line(record: dict) -> dict:
    """The contract object: correct, attempted, failed and unit-tagged metrics."""
    names = [n for n, _, _ in (PER_LAYER if record["trace"] else END_TO_END)]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": UNITS[n]} for n in names},
    }


def summary(record: dict) -> list[str]:
    untraced = [s for s in record["samples"] if not s["traced"]]
    lines = [
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"jobs={record['attempted']} failed={record['failed']} "
        f"fail_ratio={record['fail_ratio']:.4f} correct={record['correct']} "
        f"run={record['run_s']:.1f} s",
    ]
    counts = {"setup_s": len(record["setup_samples_s"])}
    for name, value in record["metrics"].items():
        count = counts.get(name, len(untraced))
        suffix = f"  (median of {count})" if not record["trace"] else ""
        lines.append(f"  {name:<42} {value:>14.6g} {UNITS[name]}{suffix}")
    for sample in record["samples"]:
        if sample["status"] != "ok":
            lines.append(f"  {sample['status']}: {sample['job']}: {sample['reason']}")
    env = record["environment"]
    lines.append("  env: " + " ".join(f"{k}={env.get(k)}" for k in (
        "commit", "nproc", "python", "numpy", "scipy", "blas", "blas_version",
        "blas_threads")))
    if record["workload"] == "verify":
        digests = sorted({s["output_sha256"] for s in record["samples"] if s["status"] == "ok"})
        lines.append(f"  verify document sha256: {' '.join(digests)}")
    return lines


def write_record(record: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: where to write the combined record")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nmodesqueeze" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        write_record(record, OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        print("\n".join(summary(record)))
        print(json.dumps(result_line(record)))
        return 0

    combined = {}
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, args.seed, args.seconds, trace)
            combined[f"{name}/trace{int(trace)}"] = record
            print("\n".join(summary(record)), flush=True)
    out = Path(args.out) if args.out else OUT / f"BENCH_all-seed{args.seed}.json"
    write_record(combined, out)
    print(f"combined record written to {out}")
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "workloads": {key: result_line(r)["metrics"] for key, r in combined.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

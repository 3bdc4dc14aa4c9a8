"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 bench/selftest.py

Checks that every workload of ``BENCHMARK.json`` exists and emits every
metric with its unit in both trace modes; that a non-zero exit, a refused
input and a corrupted document are each counted as failed; that an exit 2
is a refusal only for a job drawn in the known refused range, and makes
the result incorrect on any other job (``verify`` and ``wigner`` included);
and that the harness refuses to run without the package source.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys

import run
from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from workloads import TINY, WORKLOADS, Job, variance_check

# Real `variances` output, re-serialised with var_x1 off by one part in 1e6.
WRONG_VALUE = """
import json, sys
from nmodesqueeze import cli
text, _ = cli.run(cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:])))
doc = json.loads(text)
doc["results"]["matrix_sum"]["var_x1"] *= 1 + 1e-6
sys.stdout.write(json.dumps(doc))
"""
# Real `variances` output cut in half.
TRUNCATED = """
import sys
from nmodesqueeze import cli
text, _ = cli.run(cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:])))
sys.stdout.write(text[: len(text) // 2])
"""
# What the CLI does when the package raises ValueError: a message, exit 2.
VALUE_ERROR = "import sys; sys.stderr.write('error: uncertainty product must equal 1/16\\n'); sys.exit(2)"


def expect(condition: bool, what: str) -> None:
    print(("PASS " if condition else "FAIL ") + what, flush=True)
    if not condition:
        raise SystemExit(1)


def check_workloads() -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(name, seed=0, seconds=0, trace=trace, sizes=TINY)
            line = run.result_line(record)
            table = PER_LAYER if trace else END_TO_END
            expect(list(line["metrics"]) == [n for n, _, _ in table]
                   and all(line["metrics"][n]["unit"] == u for n, u, _ in table)
                   and all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{name} trace={int(trace)}: every metric emitted with its unit")
            wrong = [s for s in record["samples"] if s["status"] == "wrong"]
            expect(line["correct"] and not wrong and line["attempted"] >= 1,
                   f"{name} trace={int(trace)}: outputs pass their checks {wrong[:1]}")
            if name != "variances-large-n":
                expect(line["failed"] == 0, f"{name} trace={int(trace)}: nothing failed")
            if trace and name in ("verify", "fock-oracle"):
                expect(record["metrics"]["fockoracle.evolve_vacuum.calls"] > 0,
                       f"{name}: traced spans reach fockoracle.evolve_vacuum")


def check_failure_counting() -> None:
    python = sys.executable
    args = ["variances", "--n", "4", "--lambda", "0.25"]
    good = variance_check(4, 0.25)
    refused = ["variances", "--n", "1", "--lambda", "0.25"]
    jobs = [
        Job("cli", args, good, "unmodified"),
        Job("cli", refused, good, "refused input", may_refuse=True),
        Job("cli", refused, good, "refused outside the known range"),
        Job("cli", args, good, "non-zero exit", command=[python, "-c", "raise SystemExit(1)"]),
        Job("cli", args, good, "wrong value", command=[python, "-c", WRONG_VALUE, *args]),
        Job("cli", args, good, "truncated", command=[python, "-c", TRUNCATED, *args]),
    ]
    record = run.run_workload("variances-large-n", seed=0, seconds=0, trace=False,
                              sizes=TINY, sweeps=iter([jobs]))
    status = {s["job"]: s["status"] for s in record["samples"]}
    expect(status == {"unmodified": "ok", "refused input": "refused",
                      "refused outside the known range": "wrong", "non-zero exit": "wrong",
                      "wrong value": "wrong", "truncated": "wrong"},
           f"each fault classified: {status}")
    line = run.result_line(record)
    expect(line["attempted"] == 6 and line["failed"] == 5 and not line["correct"],
           "faults counted: 5 of 6 failed, result not correct")

    for name in ("verify", "wigner-grid"):
        job = next(WORKLOADS[name](random.Random(0), TINY))[0]
        job.command = [python, "-c", VALUE_ERROR]
        record = run.run_workload(name, seed=0, seconds=0, trace=False, sizes=TINY,
                                  sweeps=iter([[job]]))
        line = run.result_line(record)
        expect(record["samples"][0]["status"] == "wrong" and line["failed"] == 1
               and not line["correct"], f"{name}: exit 2 is a wrong result")


def check_refuses_without_source() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (run.ROOT / "BENCHMARK.json").is_file():
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout, "refuses to run without src/")


def main() -> int:
    expect(WORKLOAD_NAMES == tuple(WORKLOADS), "BENCHMARK.json workloads match workloads.py")
    check_refuses_without_source()
    check_failure_counting()
    check_workloads()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

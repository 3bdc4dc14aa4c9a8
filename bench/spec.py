"""Metric tables of the benchmark, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one list of every metric
the benchmark reports, with unit and direction; the self-test
(``python3 bench/selftest.py``) checks that a run emits every name with
its unit.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))

# (name, unit, better).  END_TO_END is reported with --trace 0, PER_LAYER
# with --trace 1; per-job values are medians over the traced jobs of the
# run, shares are ratios of totals over those jobs.
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"])
WORKLOAD_NAMES = tuple(w["name"] for w in _SPEC["workloads"])

# The nineteen records of `verify`, in report order, as named by the
# `verification.<record>.self_s` metrics.
VERIFY_CHECKS = tuple(
    name.split(".")[1] for name, _, _ in PER_LAYER
    if name.startswith("verification.") and name.endswith(".self_s"))

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

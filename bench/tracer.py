"""Spans around the package's public functions, recorded from outside it.

Child side: ``install`` replaces every public function of the six package
modules with a wrapper, in every namespace that binds it: the defining
module, modules that imported it by name (``cli`` binds
``run_verification``, ``gaussian`` binds ``matrix_function``) and the
package ``__init__`` re-exports.  Calls made through a module attribute
(``fo.evolve_vacuum``) resolve to the wrapper at call time.  Private
helpers are not wrapped, so their time counts as self time of the public
function that called them.  Spans stay in memory, with parent links and
the id of the traced job, until ``Recorder.write``.

Parent side: ``job_metrics`` turns one job's spans into per-layer numbers.
This module imports neither numpy nor the package at import time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time
from collections import defaultdict

from spec import VERIFY_CHECKS

MODULES = ("coupling", "gaussian", "normalform", "fockoracle", "verification", "cli")
ROOT = "job"
FIELDS = ("id", "parent", "name", "start", "end", "rss_growth_kb", "counters")


class Recorder:
    """In-memory span list of one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, observe=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            span[3] = start
            span[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            self._stack.pop()
        if observe is not None:
            observe(span, result)
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "fields": FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read(path: str) -> list[dict]:
    """Spans, as dicts, from a file written by ``Recorder.write``."""
    with open(path, encoding="utf-8") as handle:
        fields = json.loads(handle.readline())["fields"]
        return [dict(zip(fields, json.loads(line))) for line in handle]


# ---------------------------------------------------------------------------
# child side

def _observe_fock(span, result):
    counters = {}
    dim = getattr(getattr(result, "space", result), "dim", None)  # FockSpace or tensor/operator
    if dim is not None:
        counters["dim"] = int(dim)
    if span[2] == "fockoracle.generator":
        nnz = getattr(getattr(result, "mat", result), "nnz", None)
        if nnz is not None:
            counters["nnz"] = int(nnz)
    if span[2] == "fockoracle.tail_mass":
        counters["tail_mass"] = float(result)
    span[6] = counters or None


def _observe_check(span, result):
    # One span per verify record, named after the record it returned.
    name = getattr(result, "name", None)
    if isinstance(name, str) and hasattr(result, "passed"):
        span[2] = f"verification.{name}"


def _wrapper(recorder: Recorder, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, observe)

    return traced


def install(recorder: Recorder) -> None:
    """Wrap the public functions of the six modules in every namespace."""
    package = importlib.import_module("nmodesqueeze")
    modules = {short: importlib.import_module(f"nmodesqueeze.{short}") for short in MODULES}
    wrapped = {}
    for short, module in modules.items():
        observe = {"fockoracle": _observe_fock, "verification": _observe_check}.get(short)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapped[id(obj)] = _wrapper(recorder, f"{short}.{attr}", obj, observe)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(namespace, attr, wrapped[id(obj)])


# ---------------------------------------------------------------------------
# parent side

def job_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced job.

    ``self_s`` of a span is its duration minus the durations of its child
    spans (calls are nested and single-threaded, so children never
    overlap).  Layer totals sum self time over every span of that name.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(span):
        parent = span["parent"]
        while parent is not None:
            yield by_id[parent]
            parent = by_id[parent]["parent"]

    self_s = defaultdict(float)
    calls = defaultdict(int)
    rss_kb = defaultdict(int)
    dims, nnzs, tails = [0], [0], [0.0]
    evolve_dims = [0]
    fock_evolutions = 0
    evolve_total = coupling_total = 0.0
    job_s = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        name = s["name"]
        self_s[name] += duration - child_time[s["id"]]
        calls[name] += 1
        rss_kb[name] = max(rss_kb[name], s["rss_growth_kb"])
        counters = s["counters"] or {}
        dims.append(counters.get("dim", 0))
        nnzs.append(counters.get("nnz", 0))
        tails.append(counters.get("tail_mass", 0.0))
        if name == ROOT:
            job_s += duration
        elif name == "fockoracle.evolve_vacuum":
            evolve_dims.append(counters.get("dim", 0))
            up = [a["name"] for a in ancestors(s)]
            if any(a.startswith("verification.") for a in up):
                fock_evolutions += 1
            if "fockoracle.evolve_vacuum" not in up:
                evolve_total += duration
        elif name.startswith("coupling."):
            if not any(a["name"].startswith("coupling.") for a in ancestors(s)):
                coupling_total += duration

    out = {
        "coupling.build_coupling.self_s": self_s["coupling.build_coupling"],
        "coupling.build_kernel.self_s": self_s["coupling.build_kernel"],
        "coupling.build_kernel.calls": calls["coupling.build_kernel"],
        "coupling.build_kernel.rss_growth_mb": rss_kb["coupling.build_kernel"] / 1024.0,
        "coupling.matrix_function.calls": calls["coupling.matrix_function"],
        "coupling.matrix_function.self_s": self_s["coupling.matrix_function"],
        "gaussian.variances_matrix_sum.self_s": self_s["gaussian.variances_matrix_sum"],
        "gaussian.wigner_value.calls": calls["gaussian.wigner_value"],
        "gaussian.wigner_value.self_s": self_s["gaussian.wigner_value"],
        "normalform.wigner_closed.calls": (
            calls["normalform.wigner3_closed"] + calls["normalform.wigner4_closed"]
        ),
        "normalform.wigner_closed.self_s": (
            self_s["normalform.wigner3_closed"] + self_s["normalform.wigner4_closed"]
        ),
        "normalform.normal_form.calls": calls["normalform.normal_form"],
        "normalform.normal_form.self_s": self_s["normalform.normal_form"],
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "fockoracle.evolve_vacuum.calls": calls["fockoracle.evolve_vacuum"],
        "fockoracle.evolve_vacuum.self_s": self_s["fockoracle.evolve_vacuum"],
        "fockoracle.evolve_vacuum.rss_growth_mb": rss_kb["fockoracle.evolve_vacuum"] / 1024.0,
        "fockoracle.max_dim": max(dims),
        "fockoracle.generator_nnz": max(nnzs),
        # The eigh route materialises one dense complex dim x dim matrix.
        "fockoracle.dense_bytes": 16 * max(evolve_dims) ** 2,
        "fockoracle.generator.self_s": self_s["fockoracle.generator"],
        "fockoracle.two_photon_expand.self_s": self_s["fockoracle.two_photon_expand"],
        "fockoracle.variance_numeric.self_s": self_s["fockoracle.variance_numeric"],
        "fockoracle.wigner_numeric.self_s": self_s["fockoracle.wigner_numeric"],
        "fockoracle.assemble_normal_form.self_s": self_s["fockoracle.assemble_normal_form"],
        "fockoracle.max_tail_mass": max(tails),
        "verification.fock_evolutions": fock_evolutions,
        "trace.job_s": job_s,
        # Totals, turned into shares over all traced jobs of a run.
        "_evolve_total_s": evolve_total,
        "_coupling_total_s": coupling_total,
    }
    for check in VERIFY_CHECKS:
        out[f"verification.{check}.self_s"] = self_s[f"verification.{check}"]
    return out

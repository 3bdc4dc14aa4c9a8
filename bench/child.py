"""Child-process side of the benchmark; started by ``run.py``.

    python3 bench/child.py env
        print numpy/scipy versions, the BLAS library and its thread count
    python3 bench/child.py [--trace PATH --run-id ID] fock-oracle PARAMS_JSON
        the fock-oracle library job; prints one JSON document
    python3 bench/child.py --trace PATH --run-id ID cli ARG...
        ``nmode-squeeze ARG...`` with every public function traced

With ``--trace`` the package's public functions are wrapped before the job
runs, the job runs inside a root span, and the spans are written to PATH
after the job's output has been flushed.
"""

from __future__ import annotations

import json
import sys


def fock_oracle(params: dict) -> dict:
    """Each config: generator, evolve_vacuum, two_photon_expand, overlap,
    tail_mass and variance_numeric of X1 and X2; then displaced-parity
    Wigner values of one config's two-photon state at the given alphas."""
    import numpy as np

    from nmodesqueeze import coupling as cp
    from nmodesqueeze import fockoracle as fo
    from nmodesqueeze import gaussian as ga
    from nmodesqueeze import normalform as nf

    rows, states = [], []
    for n, cutoff, lam in params["configs"]:
        space = fo.build_space(n, cutoff)
        base = cp.build_coupling(n)
        kernel = cp.build_kernel(base, lam)
        evolved = fo.evolve_vacuum(fo.generator(space, base, lam))
        analytic = fo.two_photon_expand(nf.squeezed_vacuum(kernel), space)
        rows.append({
            "n": n, "cutoff": cutoff, "lambda": lam, "dim": space.dim,
            "overlap": abs(fo.overlap(evolved, analytic)),
            "tail_mass": fo.tail_mass(analytic),
            "norm": evolved.norm,
            "var_x1": fo.variance_numeric(evolved, "X1"),
            "var_x2": fo.variance_numeric(evolved, "X2"),
        })
        states.append((kernel, analytic))
    kernel, psi = states[params["parity"]]
    wig = ga.wigner_from_kernel(kernel)
    parity = []
    for pairs in params["alphas"]:
        alpha = np.array([complex(re, im) for re, im in pairs])
        parity.append([fo.wigner_numeric(psi, alpha), ga.wigner_value_alpha(wig, alpha)])
    return {"configs": rows, "parity": parity}


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": None,
        "blas_threads": None,
    }
    # The loaded library, found in this process's own memory map.
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_library"] = path.rsplit("/", 1)[-1]
                record["blas_threads"] = fn()
                return record
    return record


def main(argv: list[str]) -> int:
    trace_path = run_id = None
    if argv[:1] == ["--trace"]:
        trace_path, run_id, argv = argv[1], argv[3], argv[4:]
    kind, args = argv[0], argv[1:]
    if kind == "env":
        print(json.dumps(environment()))
        return 0

    recorder = None
    if trace_path:
        import tracer

        recorder = tracer.Recorder(run_id)
        tracer.install(recorder)

    if kind == "cli":
        from nmodesqueeze import cli

        def job():
            return cli.main(args)
    elif kind == "fock-oracle":
        params = json.loads(args[0])

        def job():
            sys.stdout.write(json.dumps(fock_oracle(params)) + "\n")
            return 0
    else:
        print(f"unknown job kind {kind!r}", file=sys.stderr)
        return 1

    code = recorder.call(tracer.ROOT, job, (), {}) if recorder else job()
    sys.stdout.flush()
    if recorder:
        recorder.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

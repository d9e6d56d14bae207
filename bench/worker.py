"""One benchmark measurement in a process of its own.

    python3 bench/worker.py setup <example> <cases-json>
    python3 bench/worker.py table <csv-out> <spans-out|-> <cli tokens...>

``setup`` times ``import fracwave`` plus, for every (alpha, N, Ms) case,
building the graded time mesh, the spatial mesh and the solver's starting
state.  ``table`` imports the library, then times one ``cli.main`` call
that writes the study CSV; with a spans path the call is traced.  Both
print one JSON object as their last line.  Interpreter start-up is never
timed, and only the standard library is imported before the clock starts.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_source():
    import fracwave

    expected = os.path.join(ROOT, "src", "fracwave")
    if os.path.dirname(os.path.abspath(fracwave.__file__)) != expected:
        raise SystemExit(f"fracwave imported from {fracwave.__file__}, not {expected}")


def run_setup(example, cases):
    start = time.perf_counter()
    import fracwave

    for alpha, N, Ms in cases:
        case = fracwave.get_case(example, alpha)
        tmesh = fracwave.build_graded_mesh(case.T, N, fracwave.recommended_grading(0.5 * alpha))
        smesh = fracwave.build_spatial_mesh(case.domain, Ms)
        fracwave.initialize(case.problem_spec(), tmesh, smesh)
    return time.perf_counter() - start


def run_table(tokens, spans_path=None, targets=None):
    """Time one cli.main(tokens) call; trace it when spans_path is given.

    Returns rc, table_s, peak_rss_mb and, when traced, the per-layer
    metrics and the list of absent trace targets.
    """
    from fracwave import cli

    out = {}
    if spans_path is None:
        start = time.perf_counter()
        rc = cli.main(tokens)
        out["table_s"] = time.perf_counter() - start
    else:
        import tracer

        t = tracer.Tracer()
        with t.installed(targets or tracer.TARGETS) as absent:
            rc = t.call(tracer.ROOT_SPAN, cli.main, tokens)
        out["table_s"] = t.spans[0][2] - t.spans[0][1]
        out["layers"] = tracer.layer_metrics(t.spans)
        out["absent_targets"] = absent
        t.write_jsonl(spans_path)
    out["rc"] = rc
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def environment():
    """CPU count, interpreter and library versions, BLAS build and threads."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads": None,
    }
    # numpy's bundled OpenBLAS, asked at run time for its build and threads
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    env["openblas"] = config().decode()
                    env["blas_threads"] = threads()
    return env


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    mode = argv[0]
    if mode == "setup":
        result = {"setup_s": run_setup(argv[1], json.loads(argv[2]))}
        _check_source()
    elif mode == "table":
        _check_source()
        spans_path = None if argv[2] == "-" else argv[2]
        result = run_table(argv[3:] + [f"output={argv[1]}"], spans_path)
        result["env"] = environment()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

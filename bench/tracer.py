"""Span tracing for the benchmark's traced run.

The library is not edited.  Each public function listed in TARGETS is
replaced, for the length of one traced run, by a wrapper at the module
attribute through which its caller looks it up (``kirchhoff_solver.step``
is the name ``solve_all`` calls, ``cli.run_single_case`` the name the CLI
calls).  A wrapper records one span per call: name, start, end, parent and
case id.  Spans stay in memory and are written out as JSON lines when the
run ends; the per-layer metrics are derived from them.

A span is named after the module that defines the wrapped function, so
``mms_harness.build_spatial_mesh`` records ``fem_space.build_spatial_mesh``
and counts toward the fem_space layer.  If a target no longer exists, it
is reported absent and the metrics that need it are left out; the run
goes on.
"""

import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "mms_harness", "kirchhoff_solver", "fem_space", "caputo_l1", "graded_time")

# (module whose global the caller reads, attribute)
TARGETS = (
    ("fracwave.cli", "run_single_case"),
    ("fracwave.mms_harness", "solve_all"),
    ("fracwave.mms_harness", "h1_seminorm_error"),
    ("fracwave.mms_harness", "build_spatial_mesh"),
    ("fracwave.mms_harness", "build_graded_mesh"),
    ("fracwave.kirchhoff_solver", "step"),
    ("fracwave.kirchhoff_solver", "initialize"),
    ("fracwave.kirchhoff_solver", "l1_row"),
    ("fracwave.kirchhoff_solver", "extrapolation_weights"),
    ("fracwave.kirchhoff_solver", "assemble_load"),
    ("fracwave.kirchhoff_solver", "spd_solve"),
)

ROOT_SPAN = "cli.main"
CASE_SPAN = "mms_harness.run_single_case"

# Per-layer metrics and their units.  Byte figures are computed from the
# sizes of the history arrays, not measured.
METRICS = {
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "mms_harness.self_s": "s",
    "mms_harness.solve_s": "s",
    "mms_harness.eval_s": "s",
    "kirchhoff_solver.self_s": "s",
    "kirchhoff_solver.step_self_s": "s",
    "kirchhoff_solver.step_p50_ms": "ms",
    "kirchhoff_solver.step_p99_ms": "ms",
    "kirchhoff_solver.initialize_s": "s",
    "kirchhoff_solver.levels": "count",
    "kirchhoff_solver.history_bytes": "bytes_computed",
    "kirchhoff_solver.history_read_bytes": "bytes_computed",
    "fem_space.self_s": "s",
    "fem_space.spd_solve_s": "s",
    "fem_space.cg_iters_total": "count",
    "fem_space.cg_iters_max": "count",
    "fem_space.assemble_load_s": "s",
    "fem_space.mesh_s": "s",
    "caputo_l1.self_s": "s",
    "caputo_l1.l1_row_s": "s",
    "caputo_l1.l1_row_calls": "count",
    "graded_time.self_s": "s",
    "graded_time.s": "s",
}

COUNTS = tuple(name for name, unit in METRICS.items() if unit in ("count", "bytes_computed"))


def _step_extra(args, result):
    state, n = args[0], int(args[1])
    # step contracts rows 0..n-1 of both histories
    return {"n": n, "read_bytes": int(state.ubar[:n].nbytes + state.v[:n].nbytes)}


def _initialize_extra(args, result):
    return {"history_bytes": int(result.ubar.nbytes + result.v.nbytes)}


def _spd_solve_extra(args, result):
    return {"iters": int(result[1])}


EXTRACTORS = {
    "kirchhoff_solver.step": _step_extra,
    "kirchhoff_solver.initialize": _initialize_extra,
    "fem_space.spd_solve": _spd_solve_extra,
}


def span_name(fn, module_name, attr):
    """``<defining module>.<function>``, falling back to where it was found."""
    module = getattr(fn, "__module__", None) or module_name
    return f"{module.rsplit('.', 1)[-1]}.{getattr(fn, '__name__', attr)}"


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each span is a list [name, start, end, parent, case, extra]; parent is
    the index of the enclosing span and case the id shared by every span
    of one run_single_case call.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._case = None
        self._cases = 0

    def wrap(self, name, fn):
        extract = EXTRACTORS.get(name)
        opens_case = name == CASE_SPAN
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if opens_case:
                self._cases += 1
                self._case = self._cases
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if opens_case:
                    self._case = None
            if extract is not None:
                try:
                    rec[5] = extract(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    # the function changed shape; the metric goes absent
                    rec[5] = None
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a span of its own (the root of a traced run)."""
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; yields the list of absent ones."""
        patched, absent = [], []
        for module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span_name(fn, module_name, attr), fn))
            patched.append((module, attr, fn))
        try:
            yield absent
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, case, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "case": case}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def _percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed as in METRICS.

    spans[0] must be the root span.  A metric whose spans or extras are
    missing is left out; trace.overhead_frac needs the untraced time and
    is added by the caller.
    """
    dur = [end - start for _, start, end, _, _, _ in spans]
    covered = [0.0] * len(spans)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        parent = span[3]
        if parent is not None:
            covered[parent] += dur[i]
            children[parent].append(i)
    self_time = [d - c for d, c in zip(dur, covered)]
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
        layer_self[span[0].split(".", 1)[0]] += self_time[i]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def extras(name, key):
        vals = [spans[i][5].get(key) if spans[i][5] else None for i in by_name[name]]
        return None if not vals or None in vals else vals

    out = {"trace.wall_s": dur[0]}
    for layer in LAYERS:
        if layer in layer_self:
            out[f"{layer}.self_s"] = layer_self[layer]
    graded = [i for name, idx in by_name.items() if name.startswith("graded_time.") for i in idx]
    if graded:
        out["graded_time.s"] = sum(dur[i] for i in graded)

    if by_name["kirchhoff_solver.solve_all"]:
        out["mms_harness.solve_s"] = total("kirchhoff_solver.solve_all")
        if by_name[CASE_SPAN]:
            # evaluation: from the end of the solve to the end of the case
            ev = 0.0
            for i in by_name[CASE_SPAN]:
                solves = [c for c in children[i] if spans[c][0] == "kirchhoff_solver.solve_all"]
                if solves:
                    ev += spans[i][2] - spans[solves[-1]][2]
            out["mms_harness.eval_s"] = ev

    steps = by_name["kirchhoff_solver.step"]
    if steps:
        step_ms = [1e3 * dur[i] for i in steps]
        out["kirchhoff_solver.step_self_s"] = sum(self_time[i] for i in steps)
        out["kirchhoff_solver.step_p50_ms"] = _percentile(step_ms, 50)
        out["kirchhoff_solver.step_p99_ms"] = _percentile(step_ms, 99)
        out["kirchhoff_solver.levels"] = len(steps)
        reads = extras("kirchhoff_solver.step", "read_bytes")
        if reads is not None:
            out["kirchhoff_solver.history_read_bytes"] = sum(reads)
    if by_name["kirchhoff_solver.initialize"]:
        out["kirchhoff_solver.initialize_s"] = total("kirchhoff_solver.initialize")
        hist = extras("kirchhoff_solver.initialize", "history_bytes")
        if hist is not None:
            out["kirchhoff_solver.history_bytes"] = max(hist)

    if by_name["fem_space.spd_solve"]:
        out["fem_space.spd_solve_s"] = total("fem_space.spd_solve")
        iters = extras("fem_space.spd_solve", "iters")
        if iters is not None:
            out["fem_space.cg_iters_total"] = sum(iters)
            out["fem_space.cg_iters_max"] = max(iters)
    if by_name["fem_space.assemble_load"]:
        out["fem_space.assemble_load_s"] = total("fem_space.assemble_load")
    if by_name["fem_space.build_spatial_mesh"]:
        out["fem_space.mesh_s"] = total("fem_space.build_spatial_mesh")
    if by_name["caputo_l1.l1_row"]:
        out["caputo_l1.l1_row_s"] = total("caputo_l1.l1_row")
        out["caputo_l1.l1_row_calls"] = len(by_name["caputo_l1.l1_row"])
    return out

"""Spans around the calls between spbvp's modules, recorded from outside.

`install` replaces module attributes with timing wrappers; spbvp itself is
not edited.  A span records its name, start, end, thread, parent and a
small payload; spans stay in memory and `summarize` turns one traced pass
into per-layer metrics.  A layer's self time is its spans' duration minus
the union of their child intervals.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter

from workloads import SCALAR_STUDIES, SYSTEM_STUDIES


def _solve_info(args, result):
    op = args[0]
    return {"dof": op.n_nodes * op.m, "residual": float(result.residual)}


def _kernel_info(args, result):
    mat = args[0]
    n, m = mat.n, mat.m
    # computed from array sizes: three block diagonals plus the rhs, float64
    return {"bytes": ((3 * n - 2) * m * m + n * m) * 8}


def _study_info(args, result):
    return {"study": args[0].name}


# (module, attribute, span name, payload).  Each attribute is the name the
# caller looks up at call time, so the span sits on the module boundary:
# harness -> meshes/problems/schemes, schemes -> linalg.  The linalg entry
# is what schemes.solve calls into spbvp.linalg.
PATCHES = (
    ("spbvp.harness", "run_study", "harness.run_study", _study_info),
    ("spbvp.harness", "sweep", "harness.sweep", None),
    ("spbvp.harness", "max_norm_error", "harness.error", None),
    ("spbvp.harness", "energy_norm_error", "harness.energy", None),
    ("spbvp.harness", "report_emit", "harness.report", None),
    ("spbvp.harness", "uniform_mesh", "meshes.build", None),
    ("spbvp.harness", "shishkin", "meshes.build", None),
    ("spbvp.harness", "bakhvalov_shishkin", "meshes.build", None),
    ("spbvp.harness", "bakhvalov_type", "meshes.build", None),
    ("spbvp.harness", "system_shishkin", "meshes.build", None),
    ("spbvp.harness", "diagnostics", "meshes.diagnostics", None),
    ("spbvp.harness", "builtin_scalar_cd", "problems.build", None),
    ("spbvp.harness", "builtin_strongly_coupled_example", "problems.build", None),
    ("spbvp.harness", "builtin_reaction_diffusion_system", "problems.build", None),
    ("spbvp.harness", "builtin_weakly_coupled_cd", "problems.build", None),
    ("spbvp.harness", "oracle_reference", "problems.build", None),
    ("spbvp.harness", "check_gamma", "problems.build", None),
    ("spbvp.schemes", "assemble", "schemes.assemble", None),
    ("spbvp.schemes", "solve", "schemes.solve", _solve_info),
    ("spbvp.schemes", "block_thomas", "linalg.kernel", _kernel_info),
)

# Every per-layer metric, in report order; a layer that never ran reads 0.
LAYER_METRICS = (
    ("linalg.kernel_s", "s"),
    ("linalg.kernel_calls", "count"),
    ("linalg.bytes_computed", "B"),
    ("schemes.solve_s", "s"),
    ("schemes.solve_calls", "count"),
    ("schemes.solve_dof", "count"),
    ("schemes.residual_max", "1"),
    ("schemes.assemble_s", "s"),
    ("schemes.assemble_calls", "count"),
    ("problems.oracle_s", "s"),
    ("problems.oracle_dof", "count"),
    ("problems.build_s", "s"),
    ("meshes.build_s", "s"),
    ("meshes.calls", "count"),
    ("meshes.diagnostics_s", "s"),
    ("harness.sweep_self_s", "s"),
    ("harness.error_s", "s"),
    ("harness.energy_s", "s"),
    ("harness.report_s", "s"),
    ("harness.threads", "count"),
    *((f"harness.run_study_s.{s}", "s") for s in SCALAR_STUDIES + SYSTEM_STUDIES),
    ("trace.coverage", "1"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder shared by the threads of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, thread, parent, info]
        # calls per wrapped target; None marks a target spbvp no longer has
        self.calls: dict[str, int | None] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        # Open sweep span: the parent of spans that pool threads start with
        # an empty stack of their own.
        self._root: int | None = None

    def wrap(self, name, fn, info=None, transform=None, target=None):
        is_root = name == "harness.sweep"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            rec = [name, 0.0, 0.0, threading.get_ident(),
                   stack[-1] if stack else self._root, None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
                if target is not None:
                    self.calls[target] += 1
            stack.append(idx)
            outer_root = self._root
            if is_root:
                self._root = idx
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if is_root:
                    self._root = outer_root
            if info is not None:
                rec[5] = info(args, result)
            return transform(result) if transform is not None else result

        return traced

    def trace_oracles(self, result):
        """Charge lazy fine-mesh oracle solves to problems.oracle.

        Oracle references materialize on first evaluation, which happens
        inside harness.max_norm_error; wrapping the evaluator makes that
        solve a problems.oracle span wherever it runs.
        """
        if isinstance(result, tuple):
            return tuple(self.trace_oracles(r) for r in result)
        if getattr(result, "kind", None) == "oracle":
            return dataclasses.replace(
                result, evaluator=self.wrap("problems.oracle", result.evaluator)
            )
        return result


def install(tracer: Tracer) -> None:
    """Wrap every PATCHES entry that exists; a missing one is listed in
    tracer.calls as None and its layer reads 0 calls."""
    for module_name, attr, span, info in PATCHES:
        module = importlib.import_module(module_name)
        target = f"{module_name}.{attr}"
        fn = getattr(module, attr, None)
        tracer.calls[target] = None if fn is None else 0
        if fn is None:
            continue
        transform = tracer.trace_oracles if span == "problems.build" else None
        setattr(module, attr, tracer.wrap(span, fn, info, transform, target))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[list], t_start: float, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that ran `wall` seconds from t_start.

    Spans nested in a problems.oracle span are charged to the oracle
    (inclusive time) and not to their own layer.  Times add up over
    threads, so with the sweep's pool a layer can exceed the pass's wall
    time (a thread waiting on another's oracle counts its wait there).
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] is not None:
            children[s[4]].append(i)

    def under_oracle(i):
        p = spans[i][4]
        while p is not None:
            if spans[p][0] == "problems.oracle":
                return True
            p = spans[p][4]
        return False

    seconds = defaultdict(float)
    calls = defaultdict(int)
    out = {name: 0 if unit in ("count", "B") else 0.0 for name, unit in LAYER_METRICS}
    threads_per_sweep = defaultdict(set)
    for i, (name, t0, t1, thread, parent, info) in enumerate(spans):
        if under_oracle(i):
            if name == "schemes.solve":
                out["problems.oracle_dof"] += info["dof"]
            continue
        if name == "problems.oracle":
            seconds[name] += t1 - t0
            continue
        own = t1 - t0 - _covered(
            [(spans[c][1], spans[c][2]) for c in children[i]], t0, t1
        )
        seconds[name] += own
        calls[name] += 1
        if name == "harness.run_study":
            out[f"harness.run_study_s.{info['study']}"] = t1 - t0
        elif name == "harness.error" and parent is not None:
            threads_per_sweep[parent].add(thread)
        elif name == "schemes.solve":
            out["schemes.solve_dof"] += info["dof"]
            out["schemes.residual_max"] = max(out["schemes.residual_max"], info["residual"])
        elif name == "linalg.kernel":
            out["linalg.bytes_computed"] += info["bytes"]
    out.update({
        "linalg.kernel_s": seconds["linalg.kernel"],
        "linalg.kernel_calls": calls["linalg.kernel"],
        "schemes.solve_s": seconds["schemes.solve"],
        "schemes.solve_calls": calls["schemes.solve"],
        "schemes.assemble_s": seconds["schemes.assemble"],
        "schemes.assemble_calls": calls["schemes.assemble"],
        "problems.oracle_s": seconds["problems.oracle"],
        "problems.build_s": seconds["problems.build"],
        "meshes.build_s": seconds["meshes.build"],
        "meshes.calls": calls["meshes.build"],
        "meshes.diagnostics_s": seconds["meshes.diagnostics"],
        "harness.sweep_self_s": seconds["harness.sweep"],
        "harness.error_s": seconds["harness.error"],
        "harness.energy_s": seconds["harness.energy"],
        "harness.report_s": seconds["harness.report"],
        "harness.threads": max((len(t) for t in threads_per_sweep.values()), default=0),
        # self-check: the spans, sweep self time included, cover the pass
        "trace.coverage": _covered([(s[1], s[2]) for s in spans], t_start, t_start + wall) / wall,
    })
    return out

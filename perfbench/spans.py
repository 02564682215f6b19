"""Outside-in tracing of stokesbc: spans and exact work counters.

``install`` replaces module-level functions and class attributes that
stokesbc code resolves at call time with wrappers that record a span
(id, parent id, name, thread, start, end) and bump counters; ``restore``
puts the originals back.  Nothing under src/ is edited.  A function is
rebound in every ``stokesbc.*`` namespace that holds it, so a call counts
the same whether it comes from the CLI, from ``halfspace`` or from inside
``symbols``.  Spans stay in memory until the campaign ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module holding the original, attribute, span name)
_FUNCTIONS = [
    ("stokesbc.symbols", "derive_mode", "symbols.derive_mode"),
    ("stokesbc.symbols", "boundary_symbol", "symbols.boundary_symbol"),
    ("stokesbc.symbols", "closed_form_inverse", "symbols.closed_form_inverse"),
    ("stokesbc.symbols", "generic_inverse", "symbols.generic_inverse"),
    ("stokesbc.parabolic", "verify_trace_relations", "parabolic.verify_trace_relations"),
    ("stokesbc.elliptic", "dirichlet_extend_mode", "elliptic.dirichlet_extend_mode"),
    ("stokesbc.elliptic", "neumann_extend_mode", "elliptic.neumann_extend_mode"),
    ("stokesbc.elliptic", "solve_elliptic_mode", "elliptic.solve_elliptic_mode"),
    ("stokesbc.elliptic", "divergence_pressure_mode", "elliptic.divergence_pressure_mode"),
    ("stokesbc.navier_stokes", "lu_factor", "navier_stokes.lu_factor"),
    ("stokesbc.navier_stokes", "lu_solve", "navier_stokes.lu_solve"),
    ("stokesbc.navier_stokes", "nonlinearity", "navier_stokes.nonlinearity"),
    ("stokesbc.energy", "kinetic_energy", "energy.kinetic_energy"),
    ("stokesbc.halfspace", "solve_mode", "halfspace.solve_mode"),
    ("stokesbc.halfspace", "synthesize_field", "halfspace.synthesize_field"),
    ("stokesbc.halfspace", "write_manifest", "halfspace.write_manifest"),
    ("stokesbc.grids", "cheb_lobatto", "grids.cheb_lobatto"),
    ("stokesbc.grids", "diff_matrix", "grids.diff_matrix"),
    ("stokesbc.grids", "graded_grid", "grids.graded_grid"),
    ("stokesbc.grids", "trapezoid_weights", "grids.trapezoid_weights"),
]

#: (module, class, method, span name)
_METHODS = [
    ("stokesbc.navier_stokes", "NsStepper", "solve_stokes", "navier_stokes.solve_stokes"),
    ("stokesbc.profiles", "VectorModeProfile", "evaluate", "profiles.evaluate"),
]


class Tracer:
    """Span and counter store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def add(self, name: str, n=1) -> None:
        with self._lock:
            if isinstance(n, float):
                self.sums[name] += n
            else:
                self.counts[name] += n

    def timed(self, name: str, fn):
        """fn wrapped so that every call records one span called name."""
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), start, end))

        return wrapper

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, module: str, attr: str, wrapper) -> None:
        """Replace every stokesbc module global bound to module.attr."""
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "stokesbc" or name.startswith("stokesbc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every traced stokesbc entry point (stokesbc.cli must be imported)."""
    import numpy.linalg

    cli = sys.modules["stokesbc.cli"]
    for module, attr, span in _FUNCTIONS:
        tracer.rebind(module, attr, tracer.timed(span, getattr(sys.modules[module], attr)))
    for module, cls_name, method, span in _METHODS:
        cls = getattr(sys.modules[module], cls_name)
        tracer.replace(cls, method, tracer.timed(span, vars(cls)[method]))

    # symbols calls np.linalg.cond, looked up on numpy.linalg at call time
    tracer.replace(numpy.linalg, "cond", tracer.timed("symbols.cond", numpy.linalg.cond))

    quadrature = sys.modules["stokesbc.quadrature"]
    integrate = tracer.timed("quadrature.adaptive_integrate", quadrature.adaptive_integrate)

    def adaptive_integrate(f, *args, **kwargs):
        evals = [0]
        timed_f = tracer.timed("parabolic.integrand", f)

        def integrand(x):
            evals[0] += 1
            return timed_f(x)

        value, err, intervals = integrate(integrand, *args, **kwargs)
        tracer.add("quadrature.calls")
        tracer.add("quadrature.intervals", intervals)
        tracer.add("quadrature.panel_evals", evals[0])
        tracer.add("quadrature.zero_value_calls", int(value == 0))
        tracer.add("quadrature.single_panel_calls", int(evals[0] == 1))
        return value, err, intervals

    tracer.rebind("stokesbc.quadrature", "adaptive_integrate", adaptive_integrate)

    stepper = sys.modules["stokesbc.navier_stokes"].NsStepper
    step = tracer.timed("navier_stokes.step", vars(stepper)["step"])

    def ns_step(self, *args, **kwargs):
        state, report = step(self, *args, **kwargs)
        tracer.add("navier_stokes.picard_iterations", report.n_iterations)
        tracer.add("navier_stokes.rejected_steps", int(not report.converged))
        return state, report

    tracer.replace(stepper, "step", ns_step)

    halfspace = sys.modules["stokesbc.halfspace"]
    write_csv = tracer.timed("halfspace.write_field_csv", halfspace.write_field_csv)

    def write_field_csv(path, field):
        write_csv(path, field)
        tracer.add("halfspace.write_field_csv.bytes", os.path.getsize(path))

    tracer.rebind("stokesbc.halfspace", "write_field_csv", write_field_csv)

    # busy time is the CPU time of the thread running a task: with the GIL,
    # a task's wall time also counts the time it waited for the lock.
    map_ordered = tracer.timed("cli.pool.map", cli._map_ordered)

    def pool_map(fn, tasks, jobs):
        timed_fn = tracer.timed("cli.pool.task", fn)

        def task(item):
            start = time.thread_time()
            try:
                return timed_fn(item)
            finally:
                tracer.add("cli.pool.busy_s", time.thread_time() - start)

        start = time.perf_counter()
        try:
            return map_ordered(task, tasks, jobs)
        finally:
            tracer.add("cli.pool.tasks", len(tasks))
            tracer.add("cli.pool.capacity_s", jobs * (time.perf_counter() - start))

    tracer.replace(cli, "_map_ordered", pool_map)


def summary(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds; plus the counters.

    A span's self time is its duration minus that of its direct children
    (children always run on the parent's thread).
    """
    child_time: defaultdict = defaultdict(float)
    for sid, parent, _, _, start, end in tracer.spans:
        child_time[parent] += end - start
    per_name: dict = {}
    for sid, parent, name, _, start, end in tracer.spans:
        entry = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(sid, 0.0)
    return {"spans": per_name, "counts": dict(tracer.counts), "sums": dict(tracer.sums)}

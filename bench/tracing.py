"""Span tracing of the ensemble_hdg layers from outside the library.

A Tracer replaces the bindings that calls into each layer go through with
wrappers that record a span (name, start, end, parent), runs the traced
code, and puts every original back.  A function imported by name into
another module is a binding of its own there, so each such name is patched
where it is looked up; methods and constructors are patched once on their
class, where every caller, whichever module it names the class from, looks
them up.  Spans stay in memory until the caller writes them out.
"""

import contextlib
import functools
import time
from collections import defaultdict
from types import SimpleNamespace

from ensemble_hdg import (discretization, errors, local, mesh, postprocess,
                          problems, solver, study, trace_system)

# (owner, attribute, span name).  One span name may have several bindings.
BINDINGS = (
    (problems, "manufactured_member", "problems.manufactured_member"),
    (mesh, "build_uniform_square_mesh", "mesh.build_uniform_square_mesh"),
    (solver, "build_uniform_square_mesh", "mesh.build_uniform_square_mesh"),
    (study, "build_uniform_square_mesh", "mesh.build_uniform_square_mesh"),
    (discretization.Discretization, "__init__",
     "discretization.Discretization"),
    (discretization.Discretization, "sample_scalar", "discretization.sample"),
    (discretization.Discretization, "sample_vector", "discretization.sample"),
    (discretization.Discretization, "sample_scalar_faces",
     "discretization.sample"),
    (discretization.Discretization, "sample_vector_faces",
     "discretization.sample"),
    (solver.EnsembleSolver, "__init__", "solver.EnsembleSolver"),
    (solver, "choose_tau", "solver.choose_tau"),
    (local, "assemble_all_blocks", "local.assemble_all_blocks"),
    (local, "condense_all", "local.condense_all"),
    (solver, "assemble_trace_matrix", "trace_system.assemble_trace_matrix"),
    (trace_system, "assemble_trace_matrix",
     "trace_system.assemble_trace_matrix"),
    (trace_system.TraceSystem, "factorize", "trace_system.factorize"),
    (errors.ErrorAccumulator, "__init__", "errors.ErrorAccumulator"),
    (postprocess.Postprocessor, "__init__", "postprocess.Postprocessor"),
    (solver.EnsembleSolver, "run", "solver.EnsembleSolver.run"),
    (solver, "check_admissibility", "solver.check_admissibility"),
    (solver, "initialize", "solver.initialize"),
    (solver.EnsembleSolver, "step", "solver.EnsembleSolver.step"),
    (solver, "state_samples", "solver.state_samples"),
    (errors, "state_samples", "solver.state_samples"),
    (local, "assemble_all_rhs", "local.assemble_all_rhs"),
    (trace_system.TraceSystem, "solve_multi", "trace_system.solve_multi"),
    (errors.ErrorAccumulator, "__call__", "errors.ErrorAccumulator.__call__"),
    (postprocess.Postprocessor, "apply", "postprocess.Postprocessor.apply"),
)

# The SuperLU triangular solves, all J columns at once, inside solve_multi;
# recorded by the factorize hook rather than a binding.
SOLVE_COLUMNS = "trace_system.solve_columns"

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in BINDINGS] + [SOLVE_COLUMNS]))


class Tracer:
    """Records spans in four parallel columns: name, start and end in
    nanoseconds, and the index of the parent span (-1 at the top).

    Columns of plain ints and shared name strings, rather than one list
    per span, keep the garbage collector's work independent of the number
    of spans, so a long traced run does not slow down as it records.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.lu_fill_nnz = []
        self._stack = []

    def wrap(self, name, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _factorize_hook(self, factorize):
        def hooked(system, *args, **kwargs):
            out = factorize(system, *args, **kwargs)
            # the library exposes neither the factor's fill nor its column
            # solves, so the fill is read off the SuperLU object it holds,
            # and a stand-in whose solve is traced takes the object's place
            if system.backend == "splu":
                lu = system._solver
                self.lu_fill_nnz.append(int(lu.L.nnz + lu.U.nnz))
                system._solver = SimpleNamespace(
                    solve=self.wrap(SOLVE_COLUMNS, lu.solve))
            return out

        return hooked

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in BINDINGS for the duration of the block."""
        patched = []
        try:
            for owner, attr, name in BINDINGS:
                original = owner.__dict__[attr]
                fn = original
                if name == "trace_system.factorize":
                    fn = self._factorize_hook(fn)
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def columns(self):
        return {"name": self.names, "start_ns": self.starts,
                "end_ns": self.ends, "parent": self.parents}

    def summary(self):
        """Per span name: inclusive seconds, self seconds and calls.

        Self time is a span's duration minus that of its direct children;
        in one thread children never overlap, so this is the part of the
        span no child covers.  Integer nanoseconds keep it exact.  The
        inclusive time skips spans nested in one of the same name.
        """
        names, parents = self.names, self.parents
        dur = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += dur[i]
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for i, name in enumerate(names):
            parent = parents[i]
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:
                total[name] += dur[i]
            self_ns[name] += dur[i] - child[i]
            calls[name] += 1
        return {name: {"s": total[name] * 1e-9,
                       "self_s": self_ns[name] * 1e-9,
                       "calls": calls[name]}
                for name in SPAN_NAMES}


def originals():
    """The objects currently bound at every traced binding."""
    return [owner.__dict__[attr] for owner, attr, _ in BINDINGS]

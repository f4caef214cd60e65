"""Spans and counters around riskdual's public functions, installed from
the benchmark by patching module attributes; nothing inside ``src/``
changes.

A wrapped function is replaced in every ``riskdual`` module that holds
it by name (``cli`` imports ``build_box_partition``, ``dual_builder``
imports ``restrict_to_cell`` and so on), so calls through any import
are seen.  Spans are kept in memory as (name, start, end, parent, op)
and written out by :meth:`Tracer.write`.  ``restrict_to_cell`` runs
about 260k times per hinge_affine op, too often to time each call
without the timer outweighing the call, so it is only counted; its
time is the span around ``dual_builder._signed_restrictions``, the
per-record loop that makes 51 of every 52 calls (the other is the risk
functional's, once per column, and stays with its caller).
``Partition.cell_at`` and ``cell_vertices`` are only counted.  Self
time of a span is its duration minus its child spans, so the self times
of one op add up to the op's duration.  The tracer assumes one thread,
which is how the benchmark runs the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# span name of the op itself; its self time is the CLI's own work
ROOT = "cli.main"

# per-layer time metrics: metric name -> span name whose self time it sums
TIME_METRICS = {
    "cli.load_s": "cli.load",
    "cli.self_s": ROOT,
    "geometry.partition_s": "geometry.partition",
    "test_functions.restrict_s": "test_functions.restrict",
    "dual_builder.assemble_s": "dual_builder.assemble",
    "dual_builder.seed_s": "dual_builder.seed",
    "dual_builder.materialize_s": "dual_builder.materialize",
    "lp_engine.dcg_s": "lp_engine.dcg",
    "lp_engine.master_solve_s": "lp_engine.master_solve",
    "lp_engine.pricing_s": "lp_engine.pricing",
    "lp_engine.rows_solve_s": "lp_engine.rows_solve",
    "data_io.load_csv_s": "data_io.load_csv",
    "data_io.bootstrap_s": "data_io.bootstrap",
}
# measured in the reference check, outside the ops
ORACLE_METRICS = {"oracle.grid_s": "oracle.grid", "oracle.primal_s": "oracle.primal"}
COUNT_METRICS = (
    "geometry.cells",
    "geometry.cell_at_calls",
    "geometry.cell_vertices_calls",
    "test_functions.restrict_calls",
    "dual_builder.master_columns",
    "dual_builder.dual_rows",
    "lp_engine.rounds",
    "lp_engine.pivots",
    "lp_engine.columns_generated",
)
# generated columns carrying weight in the final master count as used
YIELD_TOL = 1e-12


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = defaultdict(Counter)  # op -> counter
        self.restrict_calls = 0  # since the current op started
        self._stack = []
        self._undo = []
        self.op = None

    # -- spans --

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name, n=1):
        self.counts[self.op][name] += n

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span."""
        self.op = op_id
        self.restrict_calls = 0
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.count("test_functions.restrict_calls", self.restrict_calls)
            self.op = None

    def spanned(self, name, fn, after=None, name_of=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` records
        counts, ``name_of()`` picks the span name at call time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_of() if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --

    def _replace_everywhere(self, original, replacement):
        """Rebind every riskdual module attribute that is ``original``."""
        hits = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "riskdual" or modname.startswith("riskdual.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    hits.append(f"{modname}.{attr}")
        if not hits:
            raise RuntimeError(f"{original!r} is not bound in any riskdual module")
        return hits

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(make(original.__func__)))
        else:
            setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        """Patch the public functions of every layer; returns the module
        attributes rebound, by function."""
        from riskdual import cli, data_io, dual_builder, geometry, lp_engine, oracle, test_functions

        patched = {}

        def everywhere(original, replacement):
            patched[original.__name__] = self._replace_everywhere(original, replacement)

        self._replace_method(cli.ModelConfig, "load", lambda f: self.spanned("cli.load", f))
        everywhere(geometry.build_box_partition, self.spanned(
            "geometry.partition", geometry.build_box_partition,
            after=lambda part, a, k: self.count("geometry.cells", part.cell_count)))
        self._replace_method(geometry.Partition, "cell_at",
                             lambda f: self.counted("geometry.cell_at_calls", f))
        everywhere(geometry.cell_vertices,
                   self.counted("geometry.cell_vertices_calls", geometry.cell_vertices))
        everywhere(test_functions.restrict_to_cell, self._restrict(test_functions.restrict_to_cell))
        everywhere(dual_builder._signed_restrictions,
                   self.spanned("test_functions.restrict", dual_builder._signed_restrictions))
        everywhere(dual_builder.assemble_dual_lp,
                   self.spanned("dual_builder.assemble", dual_builder.assemble_dual_lp))
        self._replace_method(dual_builder.DualLP, "master_seed", lambda f: self.spanned(
            "dual_builder.seed", f,
            after=lambda res, a, k: self.count("dual_builder.master_columns", res[1].count)))
        self._replace_method(dual_builder.DualLP, "materialize", lambda f: self.spanned(
            "dual_builder.materialize", f,
            after=lambda lp, a, k: self.count("dual_builder.dual_rows", lp.n_rows)))
        everywhere(lp_engine.solve_dcg, self._dcg(lp_engine.solve_dcg))
        everywhere(lp_engine.solve_dense_simplex, self._simplex(lp_engine.solve_dense_simplex))
        everywhere(oracle.build_candidate_grid,
                   self.spanned("oracle.grid", oracle.build_candidate_grid))
        everywhere(oracle.solve_primal_discretization,
                   self.spanned("oracle.primal", oracle.solve_primal_discretization))
        everywhere(data_io.load_samples_csv,
                   self.spanned("data_io.load_csv", data_io.load_samples_csv))
        everywhere(data_io.bootstrap_integral_bounds,
                   self.spanned("data_io.bootstrap", data_io.bootstrap_integral_bounds))
        return patched

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _restrict(self, original):
        """Counted only, with as little work per call as a wrapper can do."""

        @functools.wraps(original)
        def wrapper(fn, cell):
            self.restrict_calls += 1
            return original(fn, cell)

        return wrapper

    def _simplex(self, fn):
        """A dense solve is a restricted-master solve under column
        generation, part of the primal under the oracle, and the row
        dual solve when the CLI calls it directly."""

        def name_of():
            parent = self._parent_name()
            if parent == "lp_engine.dcg":
                return "lp_engine.master_solve"
            if parent == "oracle.primal":
                return "oracle.primal"
            return "lp_engine.rows_solve"

        def record(sol, _args, _kwargs):
            parent = self._parent_name()
            if parent == "oracle.primal":
                return
            if parent == "lp_engine.dcg":
                self.count("lp_engine.rounds")
            self.count("lp_engine.pivots", sol.iterations)

        return self.spanned(None, fn, after=record, name_of=name_of)

    def _dcg(self, fn):
        """Column generation: pricing calls on the generator become
        child spans; generated columns and their yield are read off the
        seed and the final master."""

        @functools.wraps(fn)
        def wrapper(seed_lp, gen, *args, **kwargs):
            saved = {a: gen.__dict__.get(a) for a in ("reduced_costs", "column_at")}
            gen.reduced_costs = self.spanned("lp_engine.pricing", gen.reduced_costs)
            gen.column_at = self.spanned("lp_engine.pricing", gen.column_at)
            idx = self._open("lp_engine.dcg")
            try:
                sol = fn(seed_lp, gen, *args, **kwargs)
            finally:
                self._close(idx)
                for attr, value in saved.items():
                    if value is None:
                        gen.__dict__.pop(attr, None)
                    else:
                        setattr(gen, attr, value)
            new = sol.column_positions[seed_lp.n_cols:] if sol.column_positions else []
            self.count("lp_engine.columns_generated", len(new))
            if sol.x is not None and new:
                used = int((sol.x[seed_lp.n_cols:] > YIELD_TOL).sum())
                self.count("lp_engine.columns_used", used)
            return sol

        return wrapper

    # -- results --

    def self_times(self):
        """Self seconds per (op, span name)."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            out[(op, name)] += (end - start) - child[idx]
        return out

    def op_durations(self):
        """Duration of every root span, by op id, in call order."""
        return [(op, end - start) for name, start, end, parent, op in self.spans
                if parent < 0 and name == ROOT]

    def write(self, path):
        """Spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op, counter in self.counts.items():
                fh.write(json.dumps({"counts": dict(counter), "op": op}) + "\n")

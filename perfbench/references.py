"""Reference values for the benchmark, each from a route independent of
the op under test.

* var_sweep: scipy's HiGHS (interior point with crossover) on the full
  master, one column per cell, built here from the partition's cell
  grid.  It takes up to 15 s at 295k cells and about 35 s at 810k cells
  on a 2-core machine, so it never runs per run.
* hinge_affine: the discretized primal oracle, which is exact when all
  cells are bounded.
* unbounded_rows: HiGHS on the materialized row dual; the oracle's
  lower bound (not exact on unbounded cells) is stored beside it and
  must not exceed it.  The hinge-tail model's reference is analytic.
* bootstrap_csv: a percentile bootstrap recomputed from the documented
  replicate scheme with weighted sums instead of resampled means.

``python3 perfbench/references.py`` recomputes every stored reference
and rewrites references.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")
SLAB_TOL = 1e-12
GRID_TOL = 1e-9


def load_references(path=REFERENCE_FILE):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dual(model):
    from riskdual.cli import ModelConfig
    from riskdual.dual_builder import assemble_dual_lp
    from riskdual.geometry import build_box_partition

    cfg = ModelConfig(model)
    part = build_box_partition(cfg.breakpoints, tau=cfg.riskfn.tau)
    return part, assemble_dual_lp(part, cfg.testfns, cfg.riskfn)


def _highs(c, **constraints):
    """Optimal objective of min c @ x under linprog-style constraints."""
    from scipy.optimize import linprog

    res = linprog(c, method="highs-ipm", **constraints)
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def highs_master_bound(model):
    """Worst-case VaR bound from HiGHS on the full column-per-cell master
    of an indicator-only model."""
    import scipy.sparse as sp

    if model["risk"]["kind"] != "var_indicator":
        raise ValueError("full-master route needs VaR risk")
    if model["risk"]["tau"] >= sum(b[-1] for b in model["breakpoints"]):
        raise ValueError("full-master route does not model the corner cell")
    part = _dual(model)[0]
    grid, _flag, side, _rmin, _rmax = part.ref_arrays()
    k = part.cell_count
    ub_rows, eq_rows = [], []
    for fn in model["test_functions"]:
        if fn["kind"] != "slab_indicator":
            raise ValueError("full-master route needs indicator records")
        b = np.asarray(model["breakpoints"][fn["axis"]], dtype=float)
        lo, hi = fn["slab"]
        inside = ((lo <= b[:-1] + GRID_TOL) & (b[1:] <= hi + GRID_TOL))[grid[:, fn["axis"]]]
        cols = np.nonzero(inside)[0]
        if fn["sense"] == "inequality_upper":
            ub_rows.append((cols, 1.0, fn["bound"]))
        elif fn["sense"] == "inequality_lower":
            ub_rows.append((cols, -1.0, -fn["bound"]))
        else:
            eq_rows.append((cols, 1.0, fn["bound"]))
    eq_rows.append((np.arange(k), 1.0, 1.0))

    def stack(rows):
        r = np.concatenate([np.full(c.size, i) for i, (c, _s, _b) in enumerate(rows)])
        c = np.concatenate([c for c, _s, _b in rows])
        v = np.concatenate([np.full(c.size, s) for c, s, _b in rows])
        return (sp.csr_matrix((v, (r, c)), shape=(len(rows), k)),
                np.array([b for _c, _s, b in rows]))

    A_ub, b_ub = stack(ub_rows)
    A_eq, b_eq = stack(eq_rows)
    cost = -(side > 0).astype(float)
    return -_highs(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))


def oracle_bound(model, require_exact=True):
    """Discretized primal value; exact when every cell is bounded."""
    from riskdual.oracle import build_candidate_grid, solve_primal_discretization

    _part, dual = _dual(model)
    grid = build_candidate_grid(dual)
    if require_exact and not grid.exact:
        raise ValueError("candidate grid is not exact for this model")
    primal = solve_primal_discretization(dual, grid)
    if primal.value is None:
        raise RuntimeError(f"primal oracle ended with {primal.status.value}")
    return float(primal.value)


def highs_rows_bound(model):
    """HiGHS on the materialized row dual (min over multipliers)."""
    _part, dual = _dual(model)
    lp = dual.materialize()
    A = lp.dense_matrix()
    senses = np.asarray(lp.row_senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    return _highs(
        lp.c,
        A_ub=np.vstack([A[le], -A[ge]]), b_ub=np.concatenate([lp.rhs[le], -lp.rhs[ge]]),
        A_eq=A[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=[(None, None) if free else (0, None) for free in lp.var_free])


def hinge_tail_bound(model):
    """Analytic worst case of the one-axis hinge-tail model: the bound on
    E[X 1{X >= 1}] (see workloads.hinge_tail)."""
    (fn,) = model["test_functions"]
    if model["breakpoints"] != [[0.0, 1.0, float("inf")]] or model["risk"]["tau"] != 1.0:
        raise ValueError("analytic route covers only the hinge-tail model")
    return float(fn["bound"])


def reference_entry(key, spec):
    """Compute the stored reference for one catalogue variant."""
    from workloads import build_model

    model = build_model(spec)
    t0 = time.perf_counter()
    if spec[0] == "hinge_tail":
        entry = {"bound": hinge_tail_bound(model), "route": "analytic"}
    elif spec[0] == "a":
        entry = {"bound": highs_master_bound(model), "route": "highs-ipm full master"}
    elif spec[0] == "b":
        entry = {"bound": oracle_bound(model), "route": "discretized primal oracle (exact)"}
    else:
        bound = highs_rows_bound(model)
        lower = oracle_bound(model, require_exact=False)
        if lower > bound + 1e-7 * max(1.0, abs(bound)):
            raise RuntimeError(f"{key}: oracle lower bound {lower} exceeds {bound}")
        entry = {"bound": bound, "route": "highs-ipm row dual", "oracle_lower": lower}
    entry["compute_s"] = round(time.perf_counter() - t0, 2)
    return entry


def bootstrap_reference(model, data, *, seed, replicates, level):
    """Percentile bootstrap intervals of every test function mean.

    Follows the documented scheme of ``riskdual bootstrap`` (replicate
    r resamples rows with the generator seeded by (seed, r)) but
    evaluates the functions and the replicate means independently:
    each mean is a count-weighted sum over the original rows."""
    data = np.asarray(data, dtype=float)
    k = data.shape[0]
    cols = []
    for fn in model["test_functions"]:
        x = data[:, fn["axis"]]
        lo, hi = fn["slab"]
        inside = (x >= lo - SLAB_TOL) & (x <= hi + SLAB_TOL)
        if fn["kind"] == "slab_indicator":
            cols.append(inside.astype(float))
        else:
            affine = data @ np.asarray(fn["v"], dtype=float) + fn.get("c", 0.0)
            cols.append(np.where(inside, affine, 0.0))
    values = np.column_stack(cols)
    means = np.empty((replicates, values.shape[1]))
    for r in range(replicates):
        idx = np.random.default_rng((seed, r)).integers(0, k, size=k)
        means[r] = np.bincount(idx, minlength=k) @ values / k
    q = [100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0]
    lo, hi = np.percentile(means, q, axis=0)
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import CATALOGUE, catalogue_specs

    refs = {}
    for workload in CATALOGUE:
        for key, spec in catalogue_specs(workload):
            refs[key] = reference_entry(key, spec)
            print(key, refs[key], flush=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

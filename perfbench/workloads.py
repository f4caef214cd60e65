"""Workload catalogue and input generators for the riskdual benchmark.

Every input the program sees is generated here from the benchmark seed:
model JSON files for ``riskdual bound`` and a sample CSV for
``riskdual bootstrap``.  Bound workloads draw one variant per slot from
a fixed catalogue, so each generated model has a reference value stored
in ``references.json``; the seed chooses the variants and the order of
the ops in a cycle.  Why each workload exists is written in NOTES.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

BOOTSTRAP_ROWS = 20_000
BOOTSTRAP_DIM = 3
BOOTSTRAP_REPLICATES = 1000
BOOTSTRAP_LEVEL = 0.95
# distinct bootstrap seeds per run, so repeated ops do not share inputs
BOOTSTRAP_OPS = 2


def _grid(m):
    return [g / m for g in range(m + 1)]


def _slab_frequencies(a, bp, m):
    """Two-sided frequency bounds on every slab of one axis."""
    fns = []
    for g in range(m):
        slab = [bp[g], bp[g + 1]]
        fns.append({"id": f"hi_{a}_{g}", "kind": "slab_indicator", "axis": a,
                    "slab": slab, "sense": "inequality_upper", "bound": 1.35 / m})
        fns.append({"id": f"lo_{a}_{g}", "kind": "slab_indicator", "axis": a,
                    "slab": slab, "sense": "inequality_lower", "bound": 0.65 / m})
    return fns


def _unit(d, a):
    v = [0.0] * d
    v[a] = 1.0
    return v


def family_a(d, m, tau_scale):
    """Indicator family: the model of ``riskdual bench`` (two-sided slab
    frequency bounds on [0, 1]^d, VaR risk at tau = tau_scale * d)."""
    bp = [_grid(m) for _ in range(d)]
    fns = [f for a in range(d) for f in _slab_frequencies(a, bp[a], m)]
    return {
        "schema": 1,
        "name": f"indicator d={d} m={m} tau_scale={tau_scale}",
        "breakpoints": bp,
        "risk": {"kind": "var_indicator", "tau": tau_scale * d},
        "test_functions": fns,
    }


def family_b(d, m, tau_scale):
    """Family (a) plus one mean equality E[X_a] = 1/2 per axis, with
    hinge risk.  The affine records make every cell a vertex cell."""
    model = family_a(d, m, tau_scale)
    for a in range(d):
        model["test_functions"].append(
            {"id": f"mean_{a}", "kind": "slab_affine", "axis": a, "slab": [0.0, 1.0],
             "sense": "equality", "bound": 0.5, "v": _unit(d, a), "c": 0.0})
    model["name"] = f"affine hinge d={d} m={m} tau_scale={tau_scale}"
    model["risk"] = {"kind": "cvar_hinge", "tau": tau_scale * d}
    return model


def family_c(d, m, tau_scale):
    """Indicator grid on [0, 1] plus an unbounded tail slab [1, inf) per
    axis, bounded in probability (<= 0.2) and first moment (<= 0.3).
    The tail cells are unbounded and not collapsible, so ``bound`` takes
    the dense-rows engine.  VaR risk at tau = tau_scale * d."""
    bp = [_grid(m) + [INF] for _ in range(d)]
    fns = []
    for a in range(d):
        fns += _slab_frequencies(a, bp[a], m)
        fns.append({"id": f"tail_p_{a}", "kind": "slab_indicator", "axis": a,
                    "slab": [1.0, INF], "sense": "inequality_upper", "bound": 0.2})
        fns.append({"id": f"tail_m_{a}", "kind": "slab_affine", "axis": a,
                    "slab": [1.0, INF], "sense": "inequality_upper", "bound": 0.3,
                    "v": _unit(d, a), "c": 0.0})
    return {
        "schema": 1,
        "name": f"unbounded tails d={d} m={m} tau_scale={tau_scale}",
        "breakpoints": bp,
        "risk": {"kind": "var_indicator", "tau": tau_scale * d},
        "test_functions": fns,
    }


def hinge_tail(mean):
    """One axis with breakpoints [0, 1, inf), E[X 1{X >= 1}] <= mean and
    hinge risk at tau = 1.  The worst case E[(X - 1)+] is ``mean``: it
    is E[X 1{X >= 1}] - P(X >= 1), approached by a vanishing mass far
    out in the tail.  ``riskdual bound`` exits 5 on it today (the known
    defect kept visible by the unbounded_rows workload)."""
    return {
        "schema": 1,
        "name": f"hinge tail mean={mean}",
        "breakpoints": [[0.0, 1.0, INF]],
        "risk": {"kind": "cvar_hinge", "tau": 1.0},
        "test_functions": [
            {"id": "tail_m_0", "kind": "slab_affine", "axis": 0, "slab": [1.0, INF],
             "sense": "inequality_upper", "bound": mean, "v": [1.0], "c": 0.0}],
    }


FAMILIES = {"a": family_a, "b": family_b, "c": family_c}


def _model_key(fam, d, m, t):
    return f"{fam}-d{d}-m{m}-t{t:.2f}"


def _slots(fam, sizes):
    """One slot per (d, m, tau_scale pair); the seed picks one of the pair."""
    return [[(_model_key(fam, d, m, t), (fam, d, m, t)) for t in pair]
            for d, m, pair in sizes]


# Each bound workload is a list of slots; each slot lists the catalogue
# variants the seed may pick from.  Every variant has a stored reference.
# unbounded_rows has three d=3, m=3 slots so that its median op falls
# inside a cluster of similar ops, not on a jump between model sizes.
CATALOGUE = {
    "var_sweep": _slots("a", [
        (5, 12, (0.55, 0.57)), (5, 12, (0.60, 0.62)), (5, 12, (0.65, 0.67)),
        (5, 12, (0.70, 0.72)), (5, 12, (0.75, 0.77)), (5, 12, (0.80, 0.82)),
        (5, 12, (0.85, 0.87)), (5, 12, (0.88, 0.90)), (5, 15, (0.70, 0.72)),
    ]),
    "hinge_affine": _slots("b", [
        (3, 8, (0.45, 0.47)), (3, 8, (0.50, 0.52)), (3, 8, (0.55, 0.57)),
        (3, 8, (0.60, 0.62)), (3, 8, (0.65, 0.67)), (3, 8, (0.70, 0.72)),
        (3, 8, (0.75, 0.77)), (3, 8, (0.80, 0.82)),
    ]),
    "unbounded_rows": _slots("c", [
        (2, 8, (0.80, 0.85)), (2, 12, (0.80, 0.85)), (2, 12, (1.00, 1.05)),
        (2, 16, (0.80, 0.85)), (2, 16, (1.00, 1.05)), (3, 3, (0.90, 0.95)),
        (3, 3, (1.00, 1.05)), (3, 3, (1.10, 1.15)), (3, 4, (0.90, 0.95)),
        (3, 4, (1.10, 1.15)),
    ]) + [[("hinge-tail-0.50", ("hinge_tail", 0.5)),
           ("hinge-tail-0.40", ("hinge_tail", 0.4))]],
}

WORKLOADS = ("var_sweep", "hinge_affine", "unbounded_rows", "bootstrap_csv")

# model whose 51 test functions the bootstrap workload estimates
BOOTSTRAP_MODEL = ("b", 3, 8, 0.60)


def build_model(spec):
    """Model dict for a catalogue spec."""
    if spec[0] == "hinge_tail":
        return hinge_tail(spec[1])
    fam, d, m, t = spec
    return FAMILIES[fam](d, m, t)


def catalogue_specs(workload):
    """Every (key, spec) variant of a bound workload."""
    return [variant for slot in CATALOGUE[workload] for variant in slot]


def smallest_spec(workload):
    """The grid-family variant with the fewest grid cells (lowest tau on
    ties), for quick reference checks."""
    grid = [v for v in catalogue_specs(workload) if v[1][0] in FAMILIES]
    return min(grid, key=lambda v: (v[1][2] ** v[1][1], v[1][3]))


@dataclass
class Op:
    """One CLI invocation and what its report must say.  Every op is
    expected to exit 0.  ``reference`` is the expected bound for ``bound`` ops and the
    expected intervals (a list of (lower, upper)) for ``bootstrap``."""

    key: str
    command: str
    argv: list
    out: str
    reference: object = None
    inputs: list = field(default_factory=list)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def write_samples_csv(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{a}" for a in range(data.shape[1])) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def sample_data(rng, rows=BOOTSTRAP_ROWS, dim=BOOTSTRAP_DIM):
    """Dependent samples on [0, 1]^dim: a shared beta factor mixed with
    independent ones, so slab frequencies are uneven across slabs."""
    common = rng.beta(2.0, 3.0, size=(rows, 1))
    own = rng.beta(2.0, 2.0, size=(rows, dim))
    return 0.4 * common + 0.6 * own


def generate(workload, seed, workdir, references):
    """Write the workload's inputs for ``seed`` into ``workdir`` and
    return its ops in cycle order.

    ``references`` maps catalogue keys to stored reference entries; the
    bootstrap workload computes its references here by the independent
    route in ``references.py``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    ops = []
    if workload == "bootstrap_csv":
        from references import bootstrap_reference

        model = build_model(BOOTSTRAP_MODEL)
        model_path = os.path.join(workdir, "bootstrap_model.json")
        _write_json(model_path, model)
        csv_path = os.path.join(workdir, "samples.csv")
        data = sample_data(rng)
        write_samples_csv(csv_path, data)
        for j, bseed in enumerate(rng.integers(0, 2**31 - 1, size=BOOTSTRAP_OPS)):
            out = os.path.join(workdir, f"report_{j}.json")
            ops.append(Op(
                key=f"bootstrap-{j}",
                command="bootstrap",
                argv=["bootstrap", model_path, "--samples", csv_path,
                      "--replicates", str(BOOTSTRAP_REPLICATES),
                      "--level", str(BOOTSTRAP_LEVEL), "--seed", str(int(bseed)),
                      "--out", out],
                out=out,
                reference=None,
                inputs=[model_path, csv_path],
            ))
        # the program parses the CSV it was given; the reference reads
        # the same file back so both see identical numbers
        parsed = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        for op in ops:
            bseed = int(op.argv[op.argv.index("--seed") + 1])
            op.reference = bootstrap_reference(
                model, parsed, seed=bseed, replicates=BOOTSTRAP_REPLICATES,
                level=BOOTSTRAP_LEVEL)
        return ops

    for slot in CATALOGUE[workload]:
        key, spec = slot[int(rng.integers(len(slot)))]
        if key not in references:
            raise KeyError(f"no stored reference for {key}; run references.py")
        path = os.path.join(workdir, f"{key}.json")
        _write_json(path, build_model(spec))
        out = os.path.join(workdir, f"{key}.report.json")
        ops.append(Op(
            key=key,
            command="bound",
            argv=["bound", path, "--out", out],
            out=out,
            reference=references[key]["bound"],
            inputs=[path],
        ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]

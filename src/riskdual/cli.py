"""Command line front end.

Subcommands: ``bound`` computes the worst-case risk bound for a model
file, ``verify`` checks declared integral bounds against sample data,
``bench`` times the column-generation route against the single-shot
dense route on a scaling family, and ``bootstrap`` builds integral
bounds from samples.

Reports are split into a ``deterministic`` part, which is byte-stable
across runs with the same inputs and seed, and a ``timing`` part which
is not.  Exit codes: 0 solved, 2 infeasible constraint set, 3 bound is
infinite, 4 budget exceeded, 5 bad input, 6 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from ._version import __version__
from .data_io import bootstrap_integral_bounds, load_samples_csv
from .dual_builder import ReductionMode, assemble_dual_lp, solve_bound
from .errors import CapacityError, InputError, RiskdualError, SolverError
from .geometry import DEFAULT_CELL_BUDGET, build_box_partition

# only solve_bound calls solve_dcg; the name stays bound here because the
# perfbench tracer is checked to rebind both solvers in this module
from .lp_engine import solve_dcg, solve_dense_simplex  # noqa: F401
from .test_functions import (
    RiskFunctional,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    empirical_integral,
    evaluate,
)

log = logging.getLogger("riskdual")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_BUDGET = 4
EXIT_INPUT = 5
EXIT_SOLVER = 6

CONFIG_SCHEMA = 1
_ALLOWED_KEYS = {
    "schema",
    "name",
    "description",
    "breakpoints",
    "risk",
    "test_functions",
    "mode",
}


class ModelConfig:
    """Parsed model file: breakpoints, test functions, risk functional.

    ``raw`` keeps the parsed JSON for hashing; the hash covers content,
    not file formatting.
    """

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise InputError("model file must hold a JSON object")
        unknown = set(raw) - _ALLOWED_KEYS
        if unknown:
            raise InputError(f"unknown model keys: {sorted(unknown)}")
        if raw.get("schema") != CONFIG_SCHEMA:
            raise InputError(
                f"model schema must be {CONFIG_SCHEMA}, got {raw.get('schema')!r}"
            )
        self.raw = raw
        bps = raw.get("breakpoints")
        if not isinstance(bps, list) or not bps or not all(isinstance(b, list) for b in bps):
            raise InputError("breakpoints must be a list of per-axis lists")
        self.breakpoints = [np.asarray(b, dtype=float) for b in bps]

        risk = raw.get("risk")
        if not isinstance(risk, dict) or "kind" not in risk or "tau" not in risk:
            raise InputError("risk must be an object with kind and tau")
        try:
            kind = RiskKind(risk["kind"])
        except ValueError:
            raise InputError(f"unknown risk kind: {risk['kind']!r}") from None
        self.riskfn = RiskFunctional(kind, float(risk["tau"]))

        fns = raw.get("test_functions", [])
        if not isinstance(fns, list):
            raise InputError("test_functions must be a list")
        self.testfns = [self._parse_fn(i, d) for i, d in enumerate(fns)]

        mode = raw.get("mode", ReductionMode.LAMBDA_ELIMINATED.value)
        try:
            self.mode = ReductionMode(mode)
        except ValueError:
            raise InputError(f"unknown reduction mode: {mode!r}") from None

    def _parse_fn(self, i, d):
        if not isinstance(d, dict):
            raise InputError(f"test_functions[{i}] must be an object")
        try:
            kind = TestFunctionKind(d["kind"])
            sense = Sense(d["sense"])
            slab = tuple(float(v) for v in d["slab"])
            fn_id = d["id"]
            axis = int(d["axis"])
            bound = float(d["bound"])
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"test_functions[{i}]: {exc}") from None
        v = d.get("v")
        if v is not None:
            v = np.asarray(v, dtype=float)
        return TestFunction(
            fn_id, kind, axis=axis, slab=slab, sense=sense, bound=bound,
            v=v, c=float(d.get("c", 0.0)),
        )

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read model file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
        return cls(raw)

    def sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- report plumbing --


def _base_deterministic(command, **fields):
    det = {"tool": "riskdual", "version": __version__, "command": command}
    det.update(fields)
    return det


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        rows.append((prefix, json.dumps(obj, sort_keys=True)))
    else:
        rows.append((prefix, json.dumps(obj)))


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        rows = []
        _flatten("", report, rows)
        return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
    det = report["deterministic"]
    lines = [f"riskdual {det['command']}"]
    for k in sorted(det):
        if k in ("tool", "command"):
            continue
        lines.append(f"  {k}: {json.dumps(det[k], sort_keys=True)}")
    for k in sorted(report.get("timing", {})):
        lines.append(f"  [timing] {k}: {json.dumps(report['timing'][k])}")
    return "\n".join(lines) + "\n"


def _emit(report, args):
    text = _render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- bound --


def _multiplier_report(dual, multipliers):
    y, z, z0 = multipliers
    values = list(y) + list(z)
    recs = [
        {"id": fn.id, "sense": fn.sense.value, "value": float(val)}
        for (fn, _sign, _rhs, _iseq), val in zip(dual.records, values)
    ]
    return {"z0": float(z0), "records": recs}


def cmd_bound(args) -> int:
    cfg = ModelConfig.load(args.config)
    partition = build_box_partition(
        cfg.breakpoints, tau=cfg.riskfn.tau, cell_budget=args.budget_cells
    )
    mode = ReductionMode(args.mode) if args.mode else cfg.mode
    t0 = time.perf_counter()
    res = solve_bound(partition, cfg.testfns, cfg.riskfn, mode)
    log.debug("bound: %s over %d cells: %s", res.engine, partition.cell_count, res.status)
    det = _base_deterministic(
        "bound",
        config_sha256=cfg.sha256(),
        mode=mode.value,
        cells=partition.cell_count,
        corner_added=res.dual.corner_cell is not None,
        engine=res.engine,
        status=res.status,
        bound=res.bound,
    )
    if res.iterations is not None:
        det["iterations"] = res.iterations
        # a clean pricing sweep, or the full row dual, certifies the optimum
        det["certified"] = res.certified
        det["feas_residual"] = res.feas_residual
    if res.columns_generated is not None:
        det["columns_generated"] = res.columns_generated
    if res.multipliers is not None:
        det["multipliers"] = _multiplier_report(res.dual, res.multipliers)
    _emit({"deterministic": det, "timing": {"wall_s": time.perf_counter() - t0}}, args)
    return {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "unbounded": EXIT_UNBOUNDED}[res.status]


# -- verify --


def cmd_verify(args) -> int:
    cfg = ModelConfig.load(args.config)
    samples = load_samples_csv(args.samples)
    dim = len(cfg.breakpoints)
    if samples.dimension != dim:
        raise InputError(
            f"samples have {samples.dimension} columns, model has {dim} axes"
        )
    checks = []
    all_ok = True
    for fn in cfg.testfns:
        emp = empirical_integral(fn, samples)
        if fn.sense is Sense.UPPER:
            margin = fn.bound - emp
        elif fn.sense is Sense.LOWER:
            margin = emp - fn.bound
        else:
            margin = -abs(emp - fn.bound)
        ok = bool(margin >= -args.slack)
        all_ok &= ok
        checks.append(
            {
                "id": fn.id,
                "sense": fn.sense.value,
                "bound": fn.bound,
                "empirical": float(emp),
                "margin": float(margin),
                "ok": ok,
            }
        )
    risk_values = evaluate(cfg.riskfn, samples.data)
    det = _base_deterministic(
        "verify",
        config_sha256=cfg.sha256(),
        n_samples=samples.n_samples,
        checks=checks,
        all_ok=bool(all_ok),
        empirical_risk=float(np.mean(risk_values)),
        slack=args.slack,
    )
    _emit({"deterministic": det, "timing": {}}, args)
    return EXIT_OK


# -- bench --


def _bench_model(d, m, tau_scale=0.62):
    """Scaling family: d uniform-like axes with m slabs each, two-sided
    frequency bounds per slab, indicator risk at a sum threshold."""
    bp = [np.linspace(0.0, 1.0, m + 1) for _ in range(d)]
    fns = []
    for a in range(d):
        for g in range(m):
            slab = (float(bp[a][g]), float(bp[a][g + 1]))
            fns.append(TestFunction(
                f"hi_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, axis=a,
                slab=slab, sense=Sense.UPPER, bound=1.35 / m,
            ))
            fns.append(TestFunction(
                f"lo_{a}_{g}", TestFunctionKind.SLAB_INDICATOR, axis=a,
                slab=slab, sense=Sense.LOWER, bound=0.65 / m,
            ))
    tau = tau_scale * d
    return bp, fns, RiskFunctional(RiskKind.VAR_INDICATOR, tau)


def _parse_sizes(text):
    sizes = []
    for part in text.split(","):
        try:
            d, m = part.strip().split(":")
            sizes.append((int(d), int(m)))
        except ValueError:
            raise InputError(f"bad bench size {part!r}, expected D:M") from None
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    results = []
    timing = []
    for d, m in sizes:
        bp, fns, risk = _bench_model(d, m)
        ss_times = []
        dcg_times = []
        ss_obj = None
        dcg_obj = None
        cols = None
        rejected = False
        cells = None
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            partition = build_box_partition(bp, tau=risk.tau, cell_budget=args.budget_cells)
            dual = assemble_dual_lp(partition, fns, risk)
            cells = partition.cell_count
            try:
                lp = dual.master_lp()
            except CapacityError:
                rejected = True
            else:
                sol = solve_dense_simplex(lp)
                ss_obj = float(sol.objective)
                ss_times.append(time.perf_counter() - t0)
            # the column-generation side runs what ``bound`` runs
            t0 = time.perf_counter()
            partition = build_box_partition(bp, tau=risk.tau, cell_budget=args.budget_cells)
            res = solve_bound(partition, fns, risk)
            dcg_obj = res.bound
            cols = res.columns_generated
            dcg_times.append(time.perf_counter() - t0)
        agree = None if rejected else bool(abs(ss_obj - dcg_obj) <= 1e-7 * max(1.0, abs(ss_obj)))
        results.append(
            {
                "d": d,
                "m": m,
                "cells": cells,
                "bound": dcg_obj,
                "columns_generated": cols,
                "single_shot": "budget_rejected" if rejected else "ok",
                "agree": agree,
            }
        )
        timing.append(
            {
                "d": d,
                "m": m,
                "dcg_median_s": float(np.median(dcg_times)),
                "single_shot_median_s": None if rejected else float(np.median(ss_times)),
                "dcg_faster": None if rejected else bool(np.median(dcg_times) < np.median(ss_times)),
            }
        )
        log.info("bench d=%d m=%d done", d, m)
    det = _base_deterministic("bench", sizes=args.sizes, repeats=args.repeats, results=results)
    _emit({"deterministic": det, "timing": {"per_size": timing}}, args)
    return EXIT_OK


# -- bootstrap --


def cmd_bootstrap(args) -> int:
    cfg = ModelConfig.load(args.config)
    samples = load_samples_csv(args.samples)
    dim = len(cfg.breakpoints)
    if samples.dimension != dim:
        raise InputError(
            f"samples have {samples.dimension} columns, model has {dim} axes"
        )
    t0 = time.perf_counter()
    bounds = bootstrap_integral_bounds(
        cfg.testfns,
        samples,
        level=args.level,
        replicates=args.replicates,
        seed=args.seed,
        threads=args.threads,
    )
    det = _base_deterministic(
        "bootstrap",
        config_sha256=cfg.sha256(),
        n_samples=samples.n_samples,
        level=args.level,
        replicates=args.replicates,
        seed=args.seed,
        intervals=[
            {"id": b.function_id, "lower": b.lower, "upper": b.upper} for b in bounds
        ],
    )
    _emit({"deterministic": det, "timing": {"wall_s": time.perf_counter() - t0}}, args)
    return EXIT_OK


# -- entry point --


def _add_common(p):
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--format", choices=("text", "json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    p.add_argument(
        "--budget-cells",
        type=int,
        default=DEFAULT_CELL_BUDGET,
        help="refuse partitions with more cells than this",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riskdual",
        description="Worst-case risk bounds from integral constraints.",
    )
    parser.add_argument("--version", action="version", version=f"riskdual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute the worst-case risk bound")
    p.add_argument("config", help="model JSON file")
    p.add_argument("--mode", choices=[m.value for m in ReductionMode], default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check declared bounds against samples")
    p.add_argument("config")
    p.add_argument("--samples", required=True, help="CSV file of joint samples")
    p.add_argument("--slack", type=float, default=1e-7)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time column generation against single shot")
    p.add_argument("--sizes", default="3:16,4:8,4:16", help="comma list of D:M sizes")
    p.add_argument("--repeats", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bootstrap", help="bootstrap integral bounds from samples")
    p.add_argument("config")
    p.add_argument("--samples", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1, help="bootstrap worker threads")
    _add_common(p)
    p.set_defaults(func=cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RISKDUAL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"riskdual: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"riskdual: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"riskdual: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RiskdualError as exc:
        print(f"riskdual: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

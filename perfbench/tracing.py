"""Outside-in spans around the program's layers.

The program is not edited.  A span is recorded by replacing, for the length
of a traced pass, the module attribute through which a caller resolves a
function: ``frontier``, ``dual``, ``pricing`` and ``market`` each import
``solve_lp`` by name, so wrapping ``frontier.solve_lp`` times exactly the
LPs that ``frontier`` issues.  Spans nest by call order (the load is a single
thread), carry their parent's index, and stay in memory until the run ends.
"""
from __future__ import annotations

import gzip
import json
import types
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from meanrisk import cli, dual, frontier, io, lses, market, measures, pricing
from meanrisk.simplex import OPTIMAL, LPError

LAYERS = ("simplex", "frontier", "market", "measures", "lses", "dual",
          "pricing", "io", "cli")


def _lp_attrs(args, kwargs, result):
    """Standard-form size of an LP from its arguments, plus its status.

    rows = ub rows + eq rows + finite two-sided bounds; columns = variables
    (free ones twice) + one slack per inequality row, bound rows included.
    This is the shape ``simplex.solve_lp`` builds before phase 1.
    """
    names = ("c", "A_ub", "b_ub", "A_eq", "b_eq", "lower", "upper")
    a = dict(zip(names, args))
    a.update((k, v) for k, v in kwargs.items() if k in names)
    nvar = np.asarray(a["c"]).size
    lo = np.zeros(nvar) if a.get("lower") is None else np.broadcast_to(
        np.asarray(a["lower"], dtype=float), (nvar,))
    hi = np.full(nvar, np.inf) if a.get("upper") is None else np.broadcast_to(
        np.asarray(a["upper"], dtype=float), (nvar,))
    n_ub = 0 if a.get("A_ub") is None else np.atleast_2d(a["A_ub"]).shape[0]
    n_eq = 0 if a.get("A_eq") is None else np.atleast_2d(a["A_eq"]).shape[0]
    lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
    boxed = int(np.count_nonzero(lo_f & hi_f))
    free = int(np.count_nonzero(~lo_f & ~hi_f))
    rows = n_ub + n_eq + boxed
    cols = nvar + free + n_ub + boxed
    return {"cells": rows * cols,
            "status": None if result is None else result.status}


def _boundary_attrs(args, kwargs, result):
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    return {"steps": int(steps)}


def _exit_attrs(args, kwargs, result):
    return {"exit": result}


@dataclass
class Tracer:
    """Span recorder.  Each span is ``[name, parent, t0, t1, attrs]``."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except LPError:
                rec[4] = {"lp_error": True}
                raise
            finally:
                rec[2], rec[3] = t0, perf_counter()
                stack.pop()
                if attrs is not None and rec[4] is None:
                    rec[4] = attrs(args, kwargs, result)

        return traced

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1,
                                     "attrs": attrs}) + "\n")


# (module, attribute the caller resolves, span name, attribute extractor)
PATCHES = [
    (frontier, "solve_lp", "simplex.solve_lp", _lp_attrs),
    (dual, "solve_lp", "simplex.solve_lp", _lp_attrs),
    (pricing, "solve_lp", "simplex.solve_lp", _lp_attrs),
    (market, "solve_lp", "simplex.solve_lp", _lp_attrs),
    (frontier, "rho_nu", "frontier.rho_nu", None),
    (frontier, "rho_inf_nu", "frontier.recession", None),
    (frontier, "recession_ball_min", "frontier.recession", None),
    (frontier, "optimal_boundary", "frontier.optimal_boundary",
     _boundary_attrs),
    (frontier, "mean_rho_solve", "frontier.mean_rho_solve", None),
    (cli, "detect_arbitrage", "frontier.detect_arbitrage", None),
    (frontier, "portfolio_slice", "market.portfolio_slice", None),
    (frontier, "check_classical_arbitrage",
     "market.check_classical_arbitrage", None),
    (measures, "evaluate", "measures.evaluate", None),
    (frontier, "adjusted_es_argmax", "measures.adjusted_es_argmax", None),
    (dual, "dual_evaluate", "dual.dual_evaluate", None),
    (dual, "set_polytope", "dual.polytope", None),
    (dual, "interior_polytope", "dual.polytope", None),
    (pricing, "set_polytope", "dual.polytope", None),
    (pricing, "interior_polytope", "dual.polytope", None),
    (dual, "martingale_feasibility", "dual.martingale", None),
    (dual, "interior_slack", "dual.martingale", None),
    (frontier, "martingale_feasibility", "dual.martingale", None),
    (pricing, "martingale_feasibility", "dual.martingale", None),
    (cli, "price_bounds", "pricing.price_bounds", None),
    (io, "load_market", "io", None),
    (io, "parse_measure", "io", None),
    (io, "density_csv", "io", None),
    (io, "price_interval_csv", "io", None),
    (cli, "main", "cli.main", _exit_attrs),
]


class traced_pass:
    """Context manager: install every wrapper, restore the originals on exit.

    ``frontier`` reaches the LSES evaluator as ``lses_mod.evaluate``, so the
    Kelley oracle is timed by giving ``frontier`` a copy of the ``lses``
    namespace whose ``evaluate`` is wrapped; other callers of ``lses`` are
    left alone.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for mod, attr, name, attrs in PATCHES:
            self.saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.tracer.wrap(name, getattr(mod, attr),
                                                attrs))
        proxy = types.SimpleNamespace(**vars(lses))
        proxy.evaluate = self.tracer.wrap("lses.evaluate", lses.evaluate)
        self.saved.append((frontier, "lses_mod", frontier.lses_mod))
        frontier.lses_mod = proxy
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self.saved):
            setattr(mod, attr, orig)
        self.saved.clear()
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer counts, busy and self times from one traced pass.

    busy time of a name counts only its outermost spans; self time is a
    span's duration minus the durations of its direct children.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][1]

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    under: dict[tuple[str, str], int] = {}
    for i, (name, parent, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        anc = set(ancestors(i))
        if name not in anc:
            busy[name] = busy.get(name, 0.0) + dur[i]
        for a in anc:
            under[(name, a)] = under.get((name, a), 0) + 1

    def c(name):
        return calls.get(name, 0)

    lp = [s for s in spans if s[0] == "simplex.solve_lp"]
    cells = [s[4]["cells"] for s in lp if s[4] and "cells" in s[4]]
    grid = sum(s[4]["steps"] for s in spans
               if s[0] == "frontier.optimal_boundary" and s[4]
               and "steps" in s[4])
    out = {
        "simplex.lp_calls": c("simplex.solve_lp"),
        "simplex.busy_s": busy.get("simplex.solve_lp", 0.0),
        "simplex.ms_per_lp": 1e3 * _ratio(busy.get("simplex.solve_lp", 0.0),
                                          c("simplex.solve_lp")),
        "simplex.cells_mean": float(np.mean(cells)) if cells else 0.0,
        "simplex.cells_max": int(max(cells)) if cells else 0,
        "simplex.nonoptimal": sum(1 for s in lp if s[4] and s[4].get("status")
                                  not in (None, OPTIMAL)),
        "simplex.lp_errors": sum(1 for s in lp if s[4]
                                 and s[4].get("lp_error")),
        "frontier.rho_nu.calls": c("frontier.rho_nu"),
        "frontier.rho_nu.self_s": self_s.get("frontier.rho_nu", 0.0),
        "frontier.grid_points": grid,
        "frontier.rho_nu_per_grid_point": _ratio(
            under.get(("frontier.rho_nu", "frontier.optimal_boundary"), 0),
            grid),
        "frontier.lp_per_rho_nu": _ratio(
            under.get(("simplex.solve_lp", "frontier.rho_nu"), 0),
            c("frontier.rho_nu")),
        "frontier.mean_rho_solve.calls": c("frontier.mean_rho_solve"),
        "frontier.rho_nu_per_solve": _ratio(
            under.get(("frontier.rho_nu", "frontier.mean_rho_solve"), 0),
            c("frontier.mean_rho_solve")),
        "frontier.recession.calls": c("frontier.recession"),
        "frontier.optimal_boundary.self_s":
            self_s.get("frontier.optimal_boundary", 0.0),
        "frontier.mean_rho_solve.self_s":
            self_s.get("frontier.mean_rho_solve", 0.0),
        "frontier.detect_arbitrage.self_s":
            self_s.get("frontier.detect_arbitrage", 0.0),
        "market.portfolio_slice.calls": c("market.portfolio_slice"),
        "market.portfolio_slice.busy_s":
            busy.get("market.portfolio_slice", 0.0),
        "market.check_classical_arbitrage.busy_s":
            busy.get("market.check_classical_arbitrage", 0.0),
        "measures.evaluate.calls": c("measures.evaluate"),
        "measures.evaluate.busy_s": busy.get("measures.evaluate", 0.0),
        "measures.adjusted_es_argmax.calls": c("measures.adjusted_es_argmax"),
        "measures.adjusted_es_argmax.busy_s":
            busy.get("measures.adjusted_es_argmax", 0.0),
        "lses.evaluate.calls": c("lses.evaluate"),
        "lses.evaluate.busy_s": busy.get("lses.evaluate", 0.0),
        "dual.dual_evaluate.calls": c("dual.dual_evaluate"),
        "dual.dual_evaluate.self_s": self_s.get("dual.dual_evaluate", 0.0),
        "dual.lp_per_dual_evaluate": _ratio(
            under.get(("simplex.solve_lp", "dual.dual_evaluate"), 0),
            c("dual.dual_evaluate")),
        "dual.polytope.busy_s": busy.get("dual.polytope", 0.0),
        "dual.martingale.calls": c("dual.martingale"),
        "dual.martingale.self_s": self_s.get("dual.martingale", 0.0),
        "pricing.price_bounds.calls": c("pricing.price_bounds"),
        "pricing.price_bounds.self_s": self_s.get("pricing.price_bounds", 0.0),
        "pricing.lp_per_interval": _ratio(
            under.get(("simplex.solve_lp", "pricing.price_bounds"), 0),
            c("pricing.price_bounds")),
        "io.busy_s": busy.get("io", 0.0),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.exit_nonzero": sum(1 for s in spans if s[0] == "cli.main"
                                and s[4] and s[4].get("exit")),
        "trace.spans": n,
    }
    top = sum(dur[i] for i, s in enumerate(spans) if s[1] < 0)
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items()
                  if k == layer or k.startswith(layer + "."))
        out[f"{layer}.self_share"] = _ratio(own, wall_s)
    out["untraced.share"] = _ratio(max(wall_s - top, 0.0), wall_s)
    out["trace.wall_s"] = wall_s
    return out


# Every per-layer metric with its unit, in report order.  Units in
# EXACT_UNITS are counts or ratios of counts: they repeat exactly between
# traced passes over the same inputs.
EXACT_UNITS = ("count", "cells", "ratio")
PER_LAYER = {
    "simplex.lp_calls": "count",
    "simplex.busy_s": "s",
    "simplex.ms_per_lp": "ms",
    "simplex.cells_mean": "cells",
    "simplex.cells_max": "cells",
    "simplex.nonoptimal": "count",
    "simplex.lp_errors": "count",
    "frontier.rho_nu.calls": "count",
    "frontier.rho_nu.self_s": "s",
    "frontier.grid_points": "count",
    "frontier.rho_nu_per_grid_point": "ratio",
    "frontier.lp_per_rho_nu": "ratio",
    "frontier.mean_rho_solve.calls": "count",
    "frontier.rho_nu_per_solve": "ratio",
    "frontier.recession.calls": "count",
    "frontier.optimal_boundary.self_s": "s",
    "frontier.mean_rho_solve.self_s": "s",
    "frontier.detect_arbitrage.self_s": "s",
    "market.portfolio_slice.calls": "count",
    "market.portfolio_slice.busy_s": "s",
    "market.check_classical_arbitrage.busy_s": "s",
    "measures.evaluate.calls": "count",
    "measures.evaluate.busy_s": "s",
    "measures.adjusted_es_argmax.calls": "count",
    "measures.adjusted_es_argmax.busy_s": "s",
    "lses.evaluate.calls": "count",
    "lses.evaluate.busy_s": "s",
    "dual.dual_evaluate.calls": "count",
    "dual.dual_evaluate.self_s": "s",
    "dual.lp_per_dual_evaluate": "ratio",
    "dual.polytope.busy_s": "s",
    "dual.martingale.calls": "count",
    "dual.martingale.self_s": "s",
    "pricing.price_bounds.calls": "count",
    "pricing.price_bounds.self_s": "s",
    "pricing.lp_per_interval": "ratio",
    "io.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit_nonzero": "count",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "untraced.share": "share",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_share": "share",
}

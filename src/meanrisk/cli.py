"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid market/measure combination,
e.g. pricing against a market that already admits the forbidden arbitrage),
2 usage error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fixtures, io, lses
from .dual import g_hat_transform
from .frontier import detect_arbitrage, efficient_frontier, optimal_boundary
from .market import excess_return
from .measures import adjusted_es, classify_sensitivity, evaluate
from .pricing import price_bounds
from .simplex import LPError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` fills a
    fresh Namespace on every call and leaves the parser unchanged."""
    ap = argparse.ArgumentParser(prog="meanrisk",
                                 description="mean-risk portfolio analytics "
                                             "on finite probability spaces")
    ap.add_argument("--out", help="write main output to this file")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a measure on a portfolio")
    p.add_argument("--market", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--portfolio", required=True,
                   help="space-separated weights, e.g. \"1 0\"")

    p = sub.add_parser("frontier", help="sweep the optimal boundary")
    p.add_argument("--market", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--nu-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--plot-out", help="write risk/return plot data here")

    p = sub.add_parser("arbitrage", help="run the arbitrage detectors")
    p.add_argument("--market", required=True)
    p.add_argument("--measure", required=True)

    p = sub.add_parser("price-bounds", help="price interval for a payoff")
    p.add_argument("--market", required=True)
    p.add_argument("--payoff", required=True,
                   help="space-separated payoffs per atom")
    p.add_argument("--measure")
    p.add_argument("--kind", default="NO_RHO_ARB",
                   choices=["NO_ARB", "NO_RHO_ARB", "NO_STRONG_RHO_ARB"])

    p = sub.add_parser("classify", help="sensitivity classification")
    p.add_argument("--measure", required=True)

    p = sub.add_parser("lses-calibrate",
                       help="table of optimal levels against b/sigma")
    p.add_argument("--ratios", default="0.05 0.1 0.2 0.39894",
                   help="space-separated b/sigma values")

    p = sub.add_parser("fixtures", help="emit a named experiment fixture")
    p.add_argument("--name", required=True,
                   choices=["appendix-a1", "footnote-ghat"])
    return ap


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    if args.verb == "eval":
        m = io.load_market(args.market)
        spec = io.parse_measure(args.measure)
        pi = np.array([float(t) for t in args.portfolio.split()])
        X = excess_return(m, pi)
        value = evaluate(spec, X)
        lines = [f"measure,{args.measure}", f"value,{io._fmt(value)}",
                 f"expected_excess_return,{io._fmt(X.mean())}"]
        if spec.family == "lses":
            bd = lses.evaluate(X, spec.b)
            lines += [f"alpha_star,{io._fmt(bd.alpha_star)}",
                      f"alpha_star_interval,{io._fmt(bd.alpha_star_interval[0])}"
                      f" {io._fmt(bd.alpha_star_interval[1])}",
                      f"es_at_star,{io._fmt(bd.es_at_star)}",
                      f"var_at_star,{io._fmt(bd.var_at_star)}"]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.verb == "frontier":
        m = io.load_market(args.market)
        spec = io.parse_measure(args.measure)
        fr = optimal_boundary(spec, m, args.nu_max, args.steps)
        _emit(io.frontier_csv(fr, m.d), args.out)
        if args.plot_out:
            eff = efficient_frontier(spec, m, fr)
            _emit(io.frontier_plot_data(fr, eff), args.plot_out)
        if fr.errors:
            sys.stderr.write("\n".join(fr.errors) + "\n")
            return 3
        return 0

    if args.verb == "arbitrage":
        m = io.load_market(args.market)
        spec = io.parse_measure(args.measure)
        rep = detect_arbitrage(spec, m)
        lines = [
            "quantity,value",
            f"classical_arbitrage,{'yes' if rep.classical else 'no'}",
            f"rho_arbitrage,{'yes' if rep.rho_arbitrage else 'no'}",
            f"strong_rho_arbitrage,{'yes' if rep.strong_rho_arbitrage else 'no'}",
            "strong_recession_arbitrage,"
            f"{'yes' if rep.strong_recession_arbitrage else 'no'}",
            f"rho_inf_1,{io._fmt(rep.rho_inf_1)}",
        ]
        text = "\n".join(lines) + "\n"
        if rep.interior_witness is not None:
            text += "# interior martingale density\n"
            text += io.density_csv(rep.interior_witness)
        elif rep.closure_witness is not None:
            text += "# closure martingale density\n"
            text += io.density_csv(rep.closure_witness)
        _emit(text, args.out)
        if rep.errors:
            sys.stderr.write("\n".join(rep.errors) + "\n")
            return 3
        return 0

    if args.verb == "price-bounds":
        m = io.load_market(args.market)
        spec = io.parse_measure(args.measure) if args.measure else None
        y = np.array([float(t) for t in args.payoff.split()])
        from .market import RandVar
        interval = price_bounds(m, RandVar(m.space, y), spec, args.kind)
        _emit(io.price_interval_csv(interval), args.out)
        return 0

    if args.verb == "classify":
        spec = io.parse_measure(args.measure)
        prof = classify_sensitivity(spec)
        lines = ["property,value",
                 f"weakly_sensitive,{'yes' if prof.weak else 'no'}",
                 f"strongly_sensitive,{'yes' if prof.strong else 'no'}",
                 "suitable_risk_management,"
                 f"{'yes' if prof.suitable_risk_management else 'no'}",
                 "suitable_portfolio_selection,"
                 f"{'yes' if prof.suitable_portfolio_selection else 'no'}"]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.verb == "lses-calibrate":
        ratios = [float(t) for t in args.ratios.split()]
        lines = ["b_over_sigma,alpha_star"]
        for ratio in ratios:
            lines.append(f"{io._fmt(ratio)},{io._fmt(lses.normal_alpha_star(ratio))}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.verb == "fixtures":
        if args.name == "appendix-a1":
            grid = np.linspace(0.0, 60.0, 1201)
            vals = fixtures.irregular_boundary(grid)
            lines = ["nu,rho_nu"]
            lines += [f"{io._fmt(nu)},{io._fmt(v)}"
                      for nu, v in zip(grid, vals)]
            _emit("\n".join(lines) + "\n", args.out)
            return 0
        Y = fixtures.exponential_loss_variable()
        g = fixtures.hull_gap_profile()
        ghat = g_hat_transform(g, grid=20000)
        v_g = adjusted_es(Y, g)
        v_hat = adjusted_es(Y, ghat)
        lines = ["quantity,value",
                 f"adjusted_es_g,{io._fmt(v_g)}",
                 f"adjusted_es_ghat,{io._fmt(v_hat)}"]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except LPError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

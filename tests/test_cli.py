"""Command-line surface: round trips, exit codes, fixture outputs."""
import contextlib
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from meanrisk import LPError, Market, cli
from meanrisk.cli import main
from meanrisk.dual import g_hat_transform
from meanrisk.fixtures import (IRREGULAR_SPOT_VALUES,
                               exponential_loss_variable, hull_gap_profile)
from meanrisk.io import (emit_market, parse_loss, parse_market, parse_measure,
                         parse_profile)
from meanrisk.measures import adjusted_es

MARKET_TEXT = """
space.probs = 0.25 0.25 0.5
market.r = 0.01
asset.1.excess = 0.3 -0.2 0.1      # excess returns per atom
asset.2.excess = -0.1 0.25 -0.2
"""

# the market-file example of the README: four atoms, so the payoff
# "2 0.5 1 0.8" is not replicable from cash and the two assets
README_MARKET_TEXT = """
space.probs = 0.25 0.25 0.25 0.25
market.r = 0.01
asset.1.excess = 0.3 -0.2 0.1 -0.1      # excess returns per atom
asset.2.price = 1.0
asset.2.payoffs = 1.2 0.9 1.05 1.0
"""


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MARKET_TEXT, encoding="utf-8")
    return str(path)


class TestMarketFormat:
    def test_parse_with_comments(self):
        m = parse_market(MARKET_TEXT)
        assert m.d == 2 and m.r == 0.01
        assert np.allclose(m.excess[:, 0], [0.3, -0.2, 0.1])

    def test_round_trip_bit_for_bit(self, rng):
        for _ in range(20):
            w = rng.uniform(0.2, 1.0, 4)
            m = Market.from_excess(w / w.sum(), float(rng.uniform(-0.2, 0.3)),
                                   rng.normal(0.05, 0.5, (4, 2)))
            text = emit_market(m)
            again = parse_market(text)
            assert np.array_equal(again.space.probs, m.space.probs)
            assert np.array_equal(again.excess, m.excess)
            assert again.r == m.r
            assert emit_market(again) == text

    def test_price_form_round_trip(self):
        m = Market.from_prices([0.5, 0.5], 0.05, [2.0], [[3.0], [1.6]])
        again = parse_market(emit_market(m))
        assert np.array_equal(again.excess, m.excess)
        assert again.prices is not None

    def test_mixed_forms_rejected_per_asset(self):
        bad = MARKET_TEXT + "asset.1.price = 1.0\nasset.1.payoffs = 1 2 3\n"
        with pytest.raises(ValueError):
            parse_market(bad)

    def test_gap_in_asset_numbering_rejected(self):
        bad = "space.probs = 0.5 0.5\nmarket.r = 0\nasset.2.excess = 1 -0.5\n"
        with pytest.raises(ValueError):
            parse_market(bad)


class TestMeasureGrammar:
    def test_families(self):
        assert parse_measure("es:0.05").family == "es"
        assert parse_measure("var:0.1").family == "var"
        assert parse_measure("wc").family == "wc"
        assert parse_measure("eloss").family == "eloss"
        assert parse_measure("lses:0.5").b == 0.5
        spec = parse_measure("adjes:g=0.5*(1/x-1)")
        assert spec.family == "adjes" and spec.profile.tail_coeff == 0.5
        assert parse_measure("adjes:g=step(0.4)").profile.beta == 0.4
        spec = parse_measure("adjes:g=table(0.2,3;0.5,1;1,0)")
        assert spec.profile.beta == 0.2
        assert parse_measure("oce:l=exp").loss.kind == "exp"
        spec = parse_measure("sr:l=pwl(0.5,0,2)")
        assert spec.loss.slopes == (0.5, 2.0)
        assert parse_measure("ew:l=power(2,1.5)").loss.exponent == 1.5

    def test_rejects_garbage(self):
        for bad in ("es", "es:x", "adjes:0.5", "oce:l=cubic", "foo:1"):
            with pytest.raises(ValueError):
                parse_measure(bad)

    def test_loss_and_profile_forms(self):
        assert parse_loss("identity").slopes == (1.0,)
        assert parse_profile("zero").beta == 0.0
        with pytest.raises(ValueError):
            parse_profile("table(0.5,1;1,0.2)")  # must end at (1, 0)


class TestCommands:
    def test_eval_with_breakdown(self, market_file, capsys):
        code = main(["eval", "--market", market_file, "--measure", "lses:0.5",
                     "--portfolio", "1 0"])
        out = capsys.readouterr().out
        assert code == 0
        # the whole breakdown, byte for byte: X = (0.3, -0.2, 0.1) keeps
        # its tail gap below b up to alpha = 1
        assert out == ("measure,lses:0.5\n"
                       "value,-0.074999999999999997\n"
                       "expected_excess_return,0.074999999999999997\n"
                       "alpha_star,1\n"
                       "alpha_star_interval,1 1\n"
                       "es_at_star,-0.074999999999999997\n"
                       "var_at_star,-0.29999999999999999\n")

    def test_frontier_csv(self, market_file, tmp_path, capsys):
        out_file = tmp_path / "f.csv"
        plot_file = tmp_path / "p.txt"
        code = main(["--out", str(out_file), "frontier", "--market",
                     market_file, "--measure", "es:0.4", "--nu-max", "0.5",
                     "--steps", "6", "--plot-out", str(plot_file)])
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        assert header == "nu,rho_nu,rho_inf_nu,pi_1,pi_2"
        assert "# efficient_frontier" in plot_file.read_text()

    def test_frontier_weighted_loss(self, market_file, capsys):
        # ew has a recession frontier: the box [a_l, b_l] without E[Z] = 1
        for measure, rho_inf_1 in (("ew:l=pwl(0.5,0,2)", None),
                                   ("ew:l=exp", "inf")):
            code = main(["frontier", "--market", market_file, "--measure",
                         measure, "--nu-max", "0.5", "--steps", "6"])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == "", measure
            rows = [row.split(",") for row in captured.out.splitlines()[1:]]
            assert len(rows) == 6
            assert all(np.isfinite(float(row[1])) for row in rows)
            if rho_inf_1 is not None:
                assert rows[-1][2] == rho_inf_1

    def test_frontier_infinite_recession_starts_at_zero(self, market_file,
                                                        capsys):
        # rho_inf(0) = 0 even when rho_inf_1 = inf: no 0 * inf = nan
        code = main(["frontier", "--market", market_file, "--measure",
                     "ew:l=exp", "--nu-max", "0.5", "--steps", "6"])
        assert code == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
        assert rows[0][:3] == ["nu", "rho_nu", "rho_inf_nu"]
        assert rows[1][0] == "0" and rows[1][2] == "0"
        assert [row[2] for row in rows[2:]] == ["inf"] * 5

    def test_frontier_with_every_slice_failing_exits_3(self, market_file,
                                                       monkeypatch, capsys):
        import meanrisk.frontier as frontier

        def failing(spec, m, nu):
            raise LPError("slice LP ended with status stalled")

        def failing_path(*args, **kwargs):
            raise LPError("slice LP ended with status stalled")

        monkeypatch.setattr(frontier, "rho_nu", failing)
        monkeypatch.setattr(frontier, "_unit_slice", failing_path)
        monkeypatch.setattr(frontier, "solve_lp_path", failing_path)
        code = main(["frontier", "--market", market_file, "--measure",
                     "lses:0.3", "--nu-max", "0.5", "--steps", "6"])
        assert code == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 6
        assert all(row.split(",")[1] == "nan" for row in rows)
        lines = captured.err.splitlines()
        assert len(lines) == 6
        assert all("status stalled" in line for line in lines)
        # a homogeneous sweep is its unit slice LP: its failure ends the
        # verb before any row is written
        code = main(["frontier", "--market", market_file, "--measure",
                     "es:0.4", "--nu-max", "0.5", "--steps", "6"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "solver failure: slice LP ended with status stalled"]

    def test_arbitrage_report(self, market_file, capsys):
        code = main(["arbitrage", "--market", market_file,
                     "--measure", "lses:0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho_arbitrage,no" in out
        assert "# interior martingale density" in out

    def test_arbitrage_report_with_a_closure_witness(self, tmp_path, capsys):
        # the one martingale density (2, 0) vanishes on an atom: it lies in
        # the closed box [0, 4] of ES at 1/4 but in no strict interior
        path = tmp_path / "two.txt"
        path.write_text("space.probs = 0.5 0.5\nmarket.r = 0.0\n"
                        "asset.1.excess = 0 1\n", encoding="utf-8")
        code = main(["arbitrage", "--market", str(path),
                     "--measure", "es:0.25"])
        assert code == 0
        assert capsys.readouterr().out == (
            "quantity,value\n"
            "classical_arbitrage,yes\n"
            "rho_arbitrage,yes\n"
            "strong_rho_arbitrage,no\n"
            "strong_recession_arbitrage,no\n"
            "rho_inf_1,0\n"
            "# closure martingale density\n"
            "atom,probability,z\n"
            "0,0.5,2\n"
            "1,0.5,0\n")

    def test_arbitrage_report_errors_exit_3(self, market_file, monkeypatch,
                                            capsys):
        inner = cli.detect_arbitrage

        def disagreeing(spec, m):
            rep = inner(spec, m)
            rep.errors.append("no dual interior witness but rho_inf_1 > 0")
            return rep

        monkeypatch.setattr(cli, "detect_arbitrage", disagreeing)
        code = main(["arbitrage", "--market", market_file,
                     "--measure", "lses:0.3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.startswith("quantity,value\n")
        assert captured.err == "no dual interior witness but rho_inf_1 > 0\n"

    def test_solver_failure_exit_3(self, market_file, monkeypatch, capsys):
        def failing(*args):
            raise LPError("dual LP ended with status stalled")

        monkeypatch.setattr(cli, "price_bounds", failing)
        code = main(["price-bounds", "--market", market_file, "--payoff",
                     "2 0.5 1", "--measure", "es:0.5", "--kind",
                     "NO_RHO_ARB"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "solver failure: dual LP ended with status stalled\n")

    def test_price_bounds_and_domain_error(self, tmp_path, capsys):
        path = tmp_path / "incomplete.txt"
        path.write_text("space.probs = 0.25 0.25 0.5\nmarket.r = 0\n"
                        "asset.1.excess = 0.4 -0.2 0.1\n", encoding="utf-8")
        code = main(["price-bounds", "--market", str(path), "--payoff",
                     "2 0.5 1", "--measure", "es:0.5", "--kind",
                     "NO_RHO_ARB"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("kind,lower,upper")
        # replicable payoff -> domain error, exit 1
        code = main(["price-bounds", "--market", str(path), "--payoff",
                     "1 1 1", "--measure", "es:0.5", "--kind", "NO_ARB"])
        assert code == 1

    def test_nonfinite_market_data_exit_1(self, tmp_path, capsys):
        for line in ("space.probs = nan 0.5 0.5",
                     "asset.1.excess = nan -0.2 0.1",
                     "asset.1.excess = inf -0.2 0.1"):
            key = line.split(" = ")[0]
            text = "\n".join(line if row.startswith(key + " ") else row
                             for row in MARKET_TEXT.splitlines())
            path = tmp_path / "nonfinite.txt"
            path.write_text(text, encoding="utf-8")
            for argv in (["eval", "--portfolio", "1 0"],
                         ["frontier", "--steps", "3"]):
                code = main(argv + ["--market", str(path), "--measure",
                                    "es:0.5"])
                captured = capsys.readouterr()
                assert code == 1 and captured.out == "", line
                assert captured.err.startswith("error: ") and (
                    "must be finite" in captured.err), line

    def test_classify(self, capsys):
        assert main(["classify", "--measure", "lses:1"]) == 0
        out = capsys.readouterr().out
        assert "suitable_portfolio_selection,yes" in out
        assert main(["classify", "--measure", "es:0.05"]) == 0
        out = capsys.readouterr().out
        assert "strongly_sensitive,no" in out

    def test_usage_error_exit_2(self, capsys):
        assert main(["frontier"]) == 2
        assert main(["no-such-verb"]) == 2

    def test_calibrate_table(self, capsys):
        assert main(["lses-calibrate", "--ratios", "0.39894"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "b_over_sigma,alpha_star"
        assert float(out[1].split(",")[1]) == pytest.approx(0.5, abs=1e-3)

    def test_fixture_appendix_spots(self, tmp_path):
        out_file = tmp_path / "a1.csv"
        assert main(["--out", str(out_file), "fixtures", "--name",
                     "appendix-a1"]) == 0
        rows = {}
        for line in out_file.read_text().splitlines()[1:]:
            nu, val = line.split(",")
            rows[float(nu)] = float(val)
        for nu, expected in IRREGULAR_SPOT_VALUES.items():
            assert rows[nu] == pytest.approx(expected, abs=1e-12)

    def test_fixture_footnote_ghat(self, capsys):
        assert main(["fixtures", "--name", "footnote-ghat"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,value"
        values = dict(line.split(",") for line in lines[1:])
        Y = exponential_loss_variable()
        g = hull_gap_profile()
        v_g = float(values["adjusted_es_g"])
        v_hat = float(values["adjusted_es_ghat"])
        assert v_g == adjusted_es(Y, g)
        assert v_hat == adjusted_es(Y, g_hat_transform(g, grid=20000))
        # the hull lies below g, so it penalises less
        assert v_hat >= v_g

    def test_deterministic_output(self, market_file, capsys):
        main(["arbitrage", "--market", market_file, "--measure", "es:0.4"])
        first = capsys.readouterr().out
        main(["arbitrage", "--market", market_file, "--measure", "es:0.4"])
        assert capsys.readouterr().out == first


class TestParserReuse:
    def test_cached_parser_matches_a_fresh_one(self, market_file, tmp_path,
                                               capsys):
        readme = tmp_path / "readme.txt"
        readme.write_text(README_MARKET_TEXT, encoding="utf-8")
        out = tmp_path / "bounds.csv"
        calls = [
            ["--out", str(out), "price-bounds", "--market", str(readme),
             "--payoff", "2 0.5 1 0.8", "--measure", "es:0.5"],
            ["arbitrage", "--market", market_file, "--measure", "es:0.4"],
            ["frontier", "--market", market_file],
            ["eval", "--market", market_file, "--measure", "lses:0.5",
             "--portfolio", "1 0"],
            ["classify", "--measure", "lses:1"],
        ]

        def run(argv):
            if out.exists():
                out.unlink()
            code = main(argv)
            captured = capsys.readouterr()
            text = out.read_text() if out.exists() else None
            return code, captured.out, captured.err, text

        cli._build_parser.cache_clear()
        cached = [run(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert cached == fresh
        assert [call[0] for call in cached] == [0, 0, 2, 0, 0]
        _, stdout, stderr, text = cached[0]
        assert (stdout, stderr) == ("", "")
        assert text.startswith("kind,lower,upper,lower_attained,"
                               "upper_attained\nNO_RHO_ARB,0.891089108910")
        # --out of the first call does not leak into the second
        _, stdout, _, text = cached[1]
        assert stdout.startswith("quantity,value\n") and text is None
        _, stdout, stderr, _ = cached[2]
        assert stdout == "" and stderr.startswith("usage: meanrisk frontier")
        assert stderr.endswith("meanrisk frontier: error: the following "
                               "arguments are required: --measure\n")


# Golden outputs of the arbitrage and price-bounds verbs on the README
# market and m3.txt (its last atom -0.15), one file per case under
# tests/golden.  Regenerate them, only from a trusted commit, with
#     PYTHONPATH=src python tests/test_cli.py --record-golden
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MEASURES = {"es": "es:0.5", "lses": "lses:0.5",
                   "adjes_step": "adjes:g=step(0.4)", "wc": "wc",
                   "oce_pwl": "oce:l=pwl(0.5,0,2)", "eloss": "eloss"}
GOLDEN_VERBS = ("arbitrage", "NO_ARB", "NO_RHO_ARB", "NO_STRONG_RHO_ARB")
GOLDEN_CASES = [(market, slug, verb) for market in ("readme", "m3")
                for slug in GOLDEN_MEASURES for verb in GOLDEN_VERBS]
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _golden_run(market, slug, verb):
    """The case's exit code, stdout and stderr, as one text."""
    argv = ["--market", str(GOLDEN / f"{market}.txt"), "--measure",
            GOLDEN_MEASURES[slug]]
    if verb == "arbitrage":
        argv = ["arbitrage"] + argv
    else:
        argv = ["price-bounds"] + argv + ["--payoff", "2 0.5 1 0.8",
                                          "--kind", verb]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("market,slug,verb", GOLDEN_CASES)
def test_golden_output(market, slug, verb):
    # every number within 1e-12 relative, the text between them exact
    got = _NUMBER.split(_golden_run(market, slug, verb))
    want = _NUMBER.split(
        (GOLDEN / f"{market}_{slug}_{verb}.txt").read_text(encoding="utf-8"))
    assert got[::2] == want[::2]
    for a, b in zip(got[1::2], want[1::2]):
        assert math.isclose(float(a), float(b), rel_tol=1e-12), (a, b)


if __name__ == "__main__" and sys.argv[1:] == ["--record-golden"]:
    for case in GOLDEN_CASES:
        (GOLDEN / "{}_{}_{}.txt".format(*case)).write_text(
            _golden_run(*case), encoding="utf-8")

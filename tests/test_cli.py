"""Command-line surface: round trips, exit codes, fixture outputs."""
import numpy as np
import pytest

from meanrisk import LPError, Market
from meanrisk.cli import main
from meanrisk.fixtures import IRREGULAR_SPOT_VALUES
from meanrisk.io import (emit_market, parse_loss, parse_market, parse_measure,
                         parse_profile)

MARKET_TEXT = """
space.probs = 0.25 0.25 0.5
market.r = 0.01
asset.1.excess = 0.3 -0.2 0.1      # excess returns per atom
asset.2.excess = -0.1 0.25 -0.2
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
        assert "alpha_star" in out and "value" in out

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

        monkeypatch.setattr(frontier, "rho_nu", failing)
        for measure, errors in (("es:0.4", 2), ("lses:0.3", 6)):
            code = main(["frontier", "--market", market_file, "--measure",
                         measure, "--nu-max", "0.5", "--steps", "6"])
            assert code == 3
            captured = capsys.readouterr()
            rows = captured.out.splitlines()[1:]
            assert len(rows) == 6
            assert all(row.split(",")[1] == "nan" for row in rows)
            lines = captured.err.splitlines()
            assert len(lines) == errors
            assert all("status stalled" in line for line in lines)

    def test_arbitrage_report(self, market_file, capsys):
        code = main(["arbitrage", "--market", market_file,
                     "--measure", "lses:0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho_arbitrage,no" in out
        assert "# interior martingale density" in out

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

    def test_deterministic_output(self, market_file, capsys):
        main(["arbitrage", "--market", market_file, "--measure", "es:0.4"])
        first = capsys.readouterr().out
        main(["arbitrage", "--market", market_file, "--measure", "es:0.4"])
        assert capsys.readouterr().out == first

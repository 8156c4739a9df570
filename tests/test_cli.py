"""Experiment runner: scenarios, sweeps, CSV contract, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greenstock
from greenstock import cli
from greenstock.cli import main, resolve_params, run_scenario, run_sweep
from greenstock.game import auxiliary_f
from greenstock.simulate import SimConfig
from strategies import log_uniform, make_game


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    # Freeze the provenance timestamp so CSV output is byte-stable.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def read_rows(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def test_central_scenario_row(tmp_path):
    out = tmp_path / "central.csv"
    assert main(["central", "--out", str(out)]) == 0
    comments, header, rows = read_rows(out)
    assert any(c.startswith("# scenario: central") for c in comments)
    assert any(c.startswith("# seed:") for c in comments)
    assert any(c.startswith("# version:") for c in comments)
    assert any(c.startswith("# timestamp:") for c in comments)
    assert header == ["b", "cs", "phi", "nu_bar", "s_bar", "cost"]
    row = dict(zip(header, rows[0]))
    assert float(row["nu_bar"]) == pytest.approx(0.3287, abs=1e-3)
    assert float(row["s_bar"]) == pytest.approx(7.2947, abs=1e-3)
    assert float(row["cost"]) == pytest.approx(17.1916, abs=1e-3)
    # rows echo the resolved parameters
    assert float(row["b"]) == 10.0 and float(row["cs"]) == 5.0


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["penalty-contract", "--out", str(a)]) == 0
    assert main(["penalty-contract", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_set_overrides_and_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"b": 8.0, "phi": 2.0}, "seed": 3}))
    out = tmp_path / "o.csv"
    assert main(["central", "--config", str(cfg), "--set", "phi=1.0",
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    row = dict(zip(header, rows[0]))
    assert float(row["b"]) == 8.0          # from config file
    assert float(row["phi"]) == 1.0        # flag beats file
    comments, _, _ = read_rows(out)
    assert "# seed: 3" in comments


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["warp-drive"])
    assert exc.value.code == 2


def test_invalid_parameter_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["central", "--set", "phi=-1", "--out", str(out)]) == 2
    assert main(["central", "--set", "nonsense", "--out", str(out)]) == 2


@pytest.mark.parametrize("argv, valid", [
    (["central", "--set", "bb=3"], "valid keys for central: b, cs, phi"),
    (["central", "--set", "b=abc"], "valid keys for central: b, cs, phi"),
    (["central", "--set", "alpha=0.9"], "valid keys for central: b, cs, phi"),
    (["sweep", "central", "--sweep", "foo:0:1:0.5"], "valid keys for central: b, cs, phi"),
    (["queue-validate", "--set", "horizon=1e400"], "valid keys for queue-validate: "),
    (["queue-validate", "--set", "rho_list=[1.0]"], "in rho_list and h2_rho must lie in (0, 1)"),
    (["queue-validate", "--set", "rho_list=[0]"], "in rho_list and h2_rho must lie in (0, 1)"),
    (["queue-validate", "--set", "rho_list=[1.5]"], "in rho_list and h2_rho must lie in (0, 1)"),
    (["queue-validate", "--set", "h2_rho=1.0"], "in rho_list and h2_rho must lie in (0, 1)"),
    (["allocate", "--set", "mu0=nan"], "mu0 must be finite and > 0"),
    (["allocate", "--set", "b=inf"], "b must be finite and >= 0"),
    (["allocate", "--set", "p2=inf"], "energy prices must be finite and >= 0"),
    (["allocate", "--set", "lambda_bars=[1, NaN]"], "lambda_bar must be finite and > 0"),
    (["audit", "--set", "span=nan"], "span must be finite and > 0"),
    (["audit", "--set", "span=0"], "span must be finite and > 0"),
    (["audit", "--set", "grid_points=100000000"], "lower n_points"),
    (["central", "--set", "phi=nan"], "phi must be finite and > 0"),
    (["central", "--set", "b=inf"], "b_n must be finite and >= 0"),
    (["nash", "--set", "cs=nan"], "cs_n must be finite and > 0"),
    (["nash", "--set", "tol=nan"], "tol must be finite and > 0"),
    (["nash", "--set", "start_s=nan"], "unknown parameter start_s"),
    (["penalty-contract", "--set", "b=nan"], "b_n must be finite and >= 0"),
    (["power-split", "--set", "total_lambda=nan"], "total_lambda must be finite and > 0"),
    (["power-split", "--set", "p2_list=[5, NaN]"], "energy prices must be finite and >= 0"),
    (["queue-validate", "--set", "h2_rate1=nan"], "rates must be finite and > 0"),
    (["queue-validate", "--set", "base_stock=1.5"], "unknown parameter base_stock"),
    (["queue-validate", "--set", "horizon=1000.5"], "horizon=1000.5 is not a valid int"),
    (["audit", "--set", "grid_points=20.7"], "grid_points=20.7 is not a valid int"),
    (["audit", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["nash", "--check", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["nash", "--set", "start_nu_frac=nan"], "nu must be finite and > 0"),
    (["central", "--set", "b=true"], "b=True is not a valid float"),
    (["power-split", "--set", "p2_list=[true, 10]"], "p2_list=[True, 10] is not a valid list"),
    (["queue-validate", "--set", "horizon=false"], "horizon=False is not a valid int"),
    (["power-split", "--set", 'p2_list="59"'], "p2_list='59' is not a valid list"),
    (["central", "--set", "phi=5e-324"], "nu_bar underflows to 0"),
    (["sweep", "central", "--sweep", "phi:5e-324:1e-323:5e-324"], "nu_bar underflows to 0"),
    (["queue-validate", "--set", "h2_rate1=1e300"], "with squares in float range"),
    (["queue-validate", "--set", "h2_rate2=1e-300"], "with squares in float range"),
    (["allocate", "--set", "p2=1e300"], "by a gap whose square is in float range"),
    (["audit", "--set", "p2=1e300"], "by a gap whose square is in float range"),
    (["allocate", "--set", "p1=1e300", "--set", "p2=1.0000001e300"],
     "by a gap whose square is in float range"),
    (["audit", "--set", "n_scenarios=100000"], "1.29e+09 order cells"),
    (["audit", "--set", "n_bs=2000", "--set", "mu0=5000"], "1.69e+10 order cells"),
    (["audit", "--set", "lambda_step=5e-324"], "not below the smallest normal float"),
    (["allocate", "--set", "n_bs=100001"], "the market has 100001 stations, more than 100000"),
    (["nash", "--set", "tol=inf"], "tol must be finite and > 0, got inf"),
    (["power-split", "--set", "total_lambda=1.7e308"],
     "the bill p2 * total_lambda must be finite and >= 0, got inf"),
    (["power-split", "--set", "p1=-1"], "energy prices must be finite and >= 0, got -1.0"),
    (["allocate", "--set", "p=0"], "incentive price p must be finite and > 0, got 0.0"),
    (["allocate", "--set", "p1=-inf"], "energy prices must be finite and >= 0, got -inf"),
    (["queue-validate", "--set", "service_cv=nan"], "cv must be finite and > 0, got nan"),
    (["audit", "--set", "span=1.7976931348623157e308"],
     "station 0's largest deviation order span * mu_hat must be finite and > 0, got inf"),
    (["allocate", "--set", "lambda_bars=[1,2,3]", "--set", "n_bs=5", "--set", "lambda_step=9"],
     "lambda_bars lists every station; n_bs and lambda_step would be ignored"),
    # p2 * lambda_bar overflows: every cost is inf, and every gain inf - inf.
    (["audit", "--set", "lambda_step=1e300", "--set", "p2=1e150", "--set", "mu0=1e300"],
     "station 0's post-allocation costs are bounded only by inf, past half of float range"),
    # At b = 0 every cost stays small, but the orders' grid and row sums overflowed.
    (["audit", "--set", "b=0", "--set", "lambda_step=5e306", "--set", "p=1e-300",
      "--set", "p1=0", "--set", "p2=1e-100", "--set", "n_scenarios=2", "--set", "grid_points=20"],
     "the audit's largest order 1e+308 times max(n_points, stations) passes half of float range"),
    # The closed forms' nu rounds onto the pole phi (and past it at cs=1e-100).
    (["nash", "--set", "cs=1e-300", "--set", "phi=1e6"],
     "the equilibrium nu* rounds onto the pole phi=1000000.0"),
    (["central", "--set", "cs=1e-100", "--set", "phi=1e6"],
     "the optimum nu_bar rounds onto the pole phi=1000000.0"),
    (["central", "--set", "cs=1e-300", "--set", "phi=1e6"],
     "the optimum nu_bar rounds onto the pole phi=1000000.0"),
    # The centralized cost underflows to 0, and the penalty divides by it.
    (["penalty-contract", "--set", "b=5.5587658417940875e-283",
      "--set", "cs=1.2370128581013361e-274", "--set", "phi=1.0696782426394622e+122",
      "--set", "alpha=5.931837303800576e-11"],
     "the centralized cost underflows to 0"),
    # Here c_s/phi overflows, though nu_bar and s_bar are finite.
    (["central", "--set", "b=5.603514732500859e-127", "--set", "cs=1.2961167764240645e+290",
      "--set", "phi=2.1678336858399428e-77"], "the centralized cost overflows float range"),
    (["penalty-contract", "--set", "b=5.603514732500859e-127",
      "--set", "cs=1.2961167764240645e+290", "--set", "phi=2.1678336858399428e-77"],
     "the centralized cost overflows float range"),
])
def test_undeclared_or_malformed_parameter_exits_2(argv, valid, capsys, deadline):
    with deadline(5):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert valid in captured.err


@pytest.mark.parametrize("epoch", ["abc", "1e20", "", "99999999999999999"])
def test_malformed_source_date_epoch_exits_2(epoch, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert main(["central"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: SOURCE_DATE_EPOCH must be whole seconds in the "
                            f"platform's time range, got {epoch!r}\n")


def _nudged(value):
    """A different value of the same declared type."""
    if isinstance(value, list):
        return [*value[:-1], value[-1] * 1.05] if value else [1.0, 2.0]
    if isinstance(value, int):
        return value + 1
    return 0.3 if math.isnan(value) else value * 1.1 + 0.05


# Cheap bases for the scenarios whose defaults take seconds.
_CHEAP = {"queue-validate": {"horizon": 20_000}, "audit": {"grid_points": 20, "n_scenarios": 2}}


@pytest.mark.parametrize("name, key", [(name, key) for name, (_, _, defaults) in
                                       cli.SCENARIOS.items() for key in defaults])
def test_every_declared_parameter_reaches_the_output(name, key):
    """A scenario declares only what reaches its output: changing any one
    declared parameter changes the CSV's data rows."""
    def data_rows(params):
        text = cli.render_csv(run_scenario(name, params, 0))
        return [line for line in text.splitlines() if not line.startswith("#")]

    base = _CHEAP.get(name, {})
    value = base.get(key, cli.SCENARIOS[name][2][key])
    assert data_rows({**base, key: _nudged(value)}) != data_rows(base)


def test_integral_float_for_an_int_parameter_is_accepted():
    assert resolve_params("queue-validate", {"horizon": 2e6})["horizon"] == 2_000_000
    assert type(resolve_params("audit", {"grid_points": 20.0})["grid_points"]) is int


def test_check_mode_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.csv"
    assert main(["central", "--check", "--out", str(out)]) == 0
    assert main(["central"]) == 0
    plain = capsys.readouterr()
    assert main(["central", "--check"]) == 0
    checked = capsys.readouterr()
    # stdout stays the CSV alone; verdicts go to stderr
    assert checked.out == plain.out == out.read_text(encoding="utf-8")
    assert checked.err.startswith("PASS: ")

    scenario, _, defaults = cli.SCENARIOS["central"]
    monkeypatch.setitem(cli.SCENARIOS, "central",
                        (scenario, lambda table, seed: [("forced", False, "x")], defaults))
    assert main(["central", "--check"]) == 3
    assert "FAIL: forced (x)" in capsys.readouterr().err

    # The check verifies the printed table: a wrong column fails it.
    def printing_zero(name, column):
        scenario, check, defaults = cli.SCENARIOS[name]

        def patched(params, seed):
            table = scenario(params, seed)
            k = table.columns.index(column)
            table.rows = [[*row[:k], 0.0, *row[k + 1:]] for row in table.rows]
            return table

        monkeypatch.setitem(cli.SCENARIOS, name, (patched, check, defaults))

    penalty_contract = cli.SCENARIOS["penalty-contract"]
    printing_zero("allocate", "grant_uniform")
    assert main(["allocate", "--check"]) == 3
    assert "FAIL: uniform grant" in capsys.readouterr().err
    printing_zero("nash", "s_star")
    assert main(["nash", "--check"]) == 3
    assert "FAIL: nu*s* = ln(1+alpha b) to 1e-9" in capsys.readouterr().err
    printing_zero("power-split", "cost")
    assert main(["power-split", "--check"]) == 3
    assert "FAIL: P2=5.0: cost = closed form at lambda* to 1e-9" in capsys.readouterr().err
    for column, label in (("cost_bs_coord", "cost_bs_coord + cost_rps_coord = cost_central"),
                          ("cost_rps_coord", "cost_rps_coord = epsilon * (their sum)")):
        monkeypatch.setitem(cli.SCENARIOS, "penalty-contract", penalty_contract)
        printing_zero("penalty-contract", column)
        assert main(["penalty-contract", "--check"]) == 3
        assert f"FAIL: {label} to 1e-9" in capsys.readouterr().err


# The dynamics once stopped at nu = 1.5e14 here, against nu* = 9.2e29, clamping the
# stock s* = 1.1e-29 to 1e-12, and exited 0; --check then passed the defaults' table.
_TINY_STOCK_GAME = ["--set", "b=774320.9702027849", "--set", "cs=3.720007350696224e-57",
                    "--set", "phi=9.212206307711781e+29", "--set", "alpha=0.026881743252439638"]


def test_check_refuses_a_game_off_the_defaults(capsys):
    assert main(["nash", *_TINY_STOCK_GAME]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = dict(zip(lines[-2].split(","), map(float, lines[-1].split(","))))
    assert row["s_star"] < 1e-12
    assert row["brd_gap"] <= 4.0 * math.ulp(row["nu_star"])
    assert main(["nash", "--check", *_TINY_STOCK_GAME]) == 2
    checked = capsys.readouterr()
    assert checked.out == "" and "PASS" not in checked.err


def test_large_headroom_nash_terminates(deadline):
    with deadline(5):
        assert main(["nash", "--set", "b=1e6", "--set", "cs=0.001",
                     "--set", "phi=1e5"]) == 0


@pytest.mark.parametrize("name", ["nash", "penalty-contract"])
def test_game_answers_where_nu_star_lies_within_domain_eps_of_phi(name, capsys):
    # nu* = 9.999999999999998 < phi = 10: the cost functions once refused it
    # as not below phi - 1e-12, and both commands exited 2.
    sets = {"cs": 1e-32, "phi": 10.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([name, "--set", "cs=1e-32", "--set", "phi=10"]) == 0
        table = run_scenario(name, sets, 0)
    assert all(math.isfinite(v) for v in table.rows[0])
    nu_star = greenstock.nash_equilibrium(cli._game(resolve_params(name, sets))).nu
    assert nu_star == 9.999999999999998
    assert dict(zip(table.columns, table.rows[0])).get("nu_star", nu_star) == nu_star


@pytest.mark.parametrize("name", ["nash", "penalty-contract"])
def test_game_costs_stay_finite_where_c_s_times_nu_plus_one_overflows(name, capsys):
    # c_s (nu* + 1) passes float range, while the supplier's cost, 4.40107, does
    # not: nash once printed cost_rps inf with exit 0, and penalty-contract exited 2
    # with "epsilon must lie in [0, 1], got nan".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([name, "--set", "cs=1.7e308", "--set", "phi=1e308"]) == 0
    fields = capsys.readouterr().out.splitlines()[-1].split(",")
    assert all(math.isfinite(float(v)) for v in fields), fields


def test_nash_dynamics_converge_at_a_large_stock(tmp_path):
    # s* = 1.66e11, where float spacing in s passes the dynamics' 1e-9 tolerance.
    out = tmp_path / "nash.csv"
    assert main(["nash", "--set", "cs=1e22", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    row = dict(zip(header, map(float, rows[0])))
    assert row["brd_gap"] <= 1e-9 * row["s_star"]


def test_nash_dynamics_converge_at_a_huge_backlog_cost(tmp_path, deadline):
    # w = ln(1 + alpha b) = 63.6, so a round of best responses cuts the error in
    # ln nu by at most r = 0.969: the dynamics take 774 rounds, past a flat 500.
    out = tmp_path / "nash.csv"
    with deadline(10):
        assert main(["nash", "--set", "b=4.8614522745451496e+27", "--set", "cs=125047134451.8479",
                     "--set", "phi=386.5632363870054", "--set", "alpha=0.875623935822907",
                     "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    row = dict(zip(header, map(float, rows[0])))
    assert row["brd_iterations"] > 500
    assert row["brd_gap"] <= 1e-9 * row["s_star"]


def test_power_split_all_grid_where_one_over_f_overflows(tmp_path):
    # 1/f is inf, so the renewable stock is inf at any lambda > 0 and absent at 0.
    out = tmp_path / "split.csv"
    assert main(["power-split", "--set", "cs=1.7e308", "--set", "b=1e-310",
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    for row in (dict(zip(header, map(float, r))) for r in rows):
        assert row["lambda_star"] == 0.0
        assert row["cost"] == row["p2"] * row["total_lambda"]


def test_sweep_alpha_comparative_statics(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "nash", "--sweep", "alpha:0.1:0.9:0.1",
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    k_s = header.index("s_star")
    k_nu = header.index("nu_star")
    s_vals = [float(r[k_s]) for r in rows]
    nu_vals = [float(r[k_nu]) for r in rows]
    assert len(rows) == 9
    assert all(a < b for a, b in zip(s_vals, s_vals[1:]))
    assert all(a > b for a, b in zip(nu_vals, nu_vals[1:]))


def test_sweep_headroom_lowers_central_cost(tmp_path):
    out = tmp_path / "sweep2.csv"
    assert main(["sweep", "central", "--sweep", "phi:0.2:1.2:0.1",
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    costs = [float(r[header.index("cost")]) for r in rows]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_sweep_without_block_exits_2():
    assert main(["sweep", "central"]) == 2


def test_sweep_empty_range_exits_2():
    assert main(["sweep", "central", "--sweep", "phi:2.0:1.0:0.1"]) == 2


@pytest.mark.parametrize("block, message", [
    ("b:10:11:1e-20", "too small to advance"),
    ("b:-inf:1:1", "too small to advance"),
    ("b:1:1e12:1", "more than 10000"),
])
def test_sweep_that_cannot_finish_exits_2(block, message, capsys, deadline):
    with deadline(5):
        assert main(["sweep", "central", "--sweep", block]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("block, expected", [
    ("phi:1e-14:5e-14:1e-14", [1e-14, 2e-14, 3e-14, 4e-14, 5e-14]),
    ("b:1:1.000000000001:1e-13", [1 + k * 1e-13 for k in range(11)]),
])
def test_sweep_values_keep_their_own_scale(block, expected, capsys):
    """Small steps and small magnitudes are neither rounded away nor
    extended past stop."""
    assert main(["sweep", "central", "--sweep", block]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6 + len(expected)
    name, start, stop, step = block.split(":")
    table = run_sweep("central", {}, {"name": name, "start": start, "stop": stop,
                                      "step": step}, 0)
    assert [row[0] for row in table.rows] == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_sweep_from_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "central",
        "params": {"b": 10.0, "cs": 5.0},
        "sweep": {"name": "phi", "start": 0.5, "stop": 1.0, "step": 0.25},
    }))
    out = tmp_path / "s.csv"
    assert main(["sweep", "central", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert [r[0] for r in rows] == ["0.5", "0.75", "1"]    # %.6g rendering


def test_allocate_scenario_reference(tmp_path):
    out = tmp_path / "alloc.csv"
    assert main(["allocate", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert len(rows) == 8
    n_hat = {r[header.index("n_hat")] for r in rows}
    assert n_hat == {"5"}
    top = max(float(r[header.index("grant_uniform")]) for r in rows)
    assert top == pytest.approx(2.96541, abs=1e-4)


@pytest.mark.parametrize("rate", ["h2_rate2=7.458340731200208e-155",
                                  "h2_rate1=1.3407807929942596e154",
                                  "h2_rate1=7.458340731200208e-155"])
def test_queue_validate_runs_at_the_admitted_h2_extremes(rate, tmp_path):
    """HyperExp2's rate bound admits only laws the simulator can run: at its
    least and greatest rates every numeric column is finite."""
    out = tmp_path / "queue.csv"
    assert main(["queue-validate", "--set", "horizon=2000", "--set", rate,
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert len(rows) == 5
    numeric = [r[i] for r in rows for i, name in enumerate(header) if name != "model"]
    assert all(math.isfinite(float(v)) for v in numeric)


def test_run_scenario_api_unknown_name():
    from greenstock.errors import ParameterError
    with pytest.raises(ParameterError):
        run_scenario("nope", {}, 0)


def test_run_sweep_rows_sorted_by_value():
    table = run_sweep("central", {}, {"name": "phi", "start": 1.0,
                                      "stop": 2.0, "step": 0.5}, 0)
    assert [row[0] for row in table.rows] == [1.0, 1.5, 2.0]
    assert table.columns[0] == "sweep_phi"


@pytest.mark.parametrize("command, config", [
    (["central"], None),
    (["central"], [1, 2]),
    (["central"], {"params": "abc"}),
    (["central"], {"seed": "x"}),
    (["central"], {"seed": 1.5}),
    (["audit"], {"seed": -1}),
    (["central"], {"out": 5}),
    (["central"], {"parms": {"b": 8.0}}),
    (["central"], {"scenario": "nash"}),
    (["sweep", "central"], {"scenario": "nash",
                            "sweep": {"name": "phi", "start": 0.5, "stop": 1.0, "step": 0.25}}),
], ids=["missing", "not-object", "params-string", "seed-string", "seed-float", "seed-negative",
        "out-int", "unknown-key", "other-scenario", "sweep-other-scenario"])
def test_invalid_config_file_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(json.dumps(config))
    assert main(command + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "central": ["central"],
    "nash": ["nash"],
    "penalty-contract": ["penalty-contract"],
    "power-split": ["power-split"],
    # power_split's three branches: p1 >= p2 searches no root; a nondecreasing cost
    # (p1 = 3 at p2 = 5, and four rows more) gives lambda* = 0 without one; six rows
    # have an interior optimum.
    "sweep-power-split": ["sweep", "power-split", "--sweep", "p1:1:9:2"],
    "allocate": ["allocate"],
    "sweep-nash": ["sweep", "nash", "--sweep", "alpha:0.1:0.9:0.1"],
    "audit": ["audit", "--set", "grid_points=20", "--set", "n_scenarios=3"],
    "queue-validate-seed0": ["queue-validate", "--set", "horizon=200000", "--seed", "0"],
    "queue-validate-seed1": ["queue-validate", "--set", "horizon=200000", "--seed", "1"],
}


@pytest.mark.parametrize("name", GOLDEN_ARGV)
def test_csv_matches_golden(name, tmp_path, monkeypatch):
    """Each CSV is byte-identical to tests/golden/<name>.csv, written by
    `SOURCE_DATE_EPOCH=0 greenstock <argv> --out tests/golden/<name>.csv`;
    rewrite a golden file only for an intended change of output."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / f"{name}.csv"
    assert main(GOLDEN_ARGV[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


_COLD_PATH = """
import contextlib, io, sys
import greenstock
from greenstock.cli import SCENARIOS, main
for name in SCENARIOS:
    argv = [name, "--set", "horizon=20000"] if name == "queue-validate" else [name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "statistics"))
assert not loaded, loaded
"""


def test_no_scenario_imports_scipy():
    """scipy is a test-only dependency and the simulator inverts the normal
    CDF itself: a fresh interpreter that imports the package and runs every
    scenario, queue-validate's truncated-normal run at a short horizon among
    them, loads neither scipy nor statistics."""
    env = {**os.environ, "PYTHONPATH": str(Path(greenstock.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _COLD_PATH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_NUMPY_FREE_PATH = """
import contextlib, io, sys
import greenstock
from greenstock.cli import main
for argv in (["central"], ["nash"], ["penalty-contract"], ["power-split"], ["central", "--check"],
             ["nash", "--check"], ["nash", "--check", "--seed", "7"], ["penalty-contract", "--check"],
             ["power-split", "--check"], ["sweep", "nash", "--sweep", "alpha:0.1:0.9:0.1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
for name in ("numpy", "statistics", "dataclasses", "inspect", "json"):
    assert name not in sys.modules, (name, sorted(m for m in sys.modules if m.startswith("greenstock")))
"""


def test_analytic_cold_path_never_imports_numpy():
    """The closed-form scenarios, their checks and an analytic sweep run in a
    fresh interpreter without loading numpy or statistics, nor dataclasses,
    inspect or json; allocation and simulation load numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(greenstock.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _NUMPY_FREE_PATH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("sets, refused", [
    ([], False),
    (["--set", "horizon=2000000"], False),  # the default, set: no override
    (["--set", "horizon=200000"], True),    # not the default: refused before any run
], ids=["unset", "default-set", "other"])
def test_queue_validate_check_reuses_the_scenario_runs(sets, refused, monkeypatch, capsys):
    """The check reads every row of the printed table and simulates only
    rho = 0.93, whose 2M events are shorter than its sized horizon, at the row's
    seed; so one call simulates the five printed runs and one more, none twice,
    and the next call simulates them anew.  Off the defaults nothing runs."""
    real, runs = cli.simulate, []

    def counted(cfg):
        runs.append(cfg)
        # Counted, not checked: short runs.
        return real(SimConfig(cfg.arrival, cfg.service, 20_000, cfg.seed))

    monkeypatch.setattr(cli, "simulate", counted)
    if refused:
        assert main(["queue-validate", "--check", *sets]) == 2
        assert runs == []
        assert "horizon=200000 (default 2000000)" in capsys.readouterr().err
        return
    assert main(["queue-validate", "--check", *sets]) in (0, 3)
    calls = len(runs)
    assert calls == len(set(runs)) == 6
    checked = [(cfg.horizon, cfg.seed) for cfg in runs]
    assert checked == [*((2_000_000, k) for k in range(5)), (12_046_912, 3)]
    assert main(["queue-validate", "--check", *sets]) in (0, 3)
    assert runs[calls:] == runs[:calls]


@pytest.mark.parametrize("name, sets, runs", [
    ("central", ["--set", "b=10"], 1),
    ("central", ["--set", "b=3"], 0),
    ("penalty-contract", [], 1),
    ("penalty-contract", ["--set", "epsilon=NaN"], 1),  # nan is its own default's value
], ids=["central-default-set", "central-other", "penalty-contract-unset", "penalty-contract-nan-set"])
def test_check_reruns_the_scenario_only_off_its_defaults(name, sets, runs, monkeypatch, capsys):
    """--check runs the scenario once, at the defaults, and reads the printed
    table; a resolved parameter off its default exits 2 before any run, named
    with its default.  No second table is run or checked."""
    scenario, check, defaults = cli.SCENARIOS[name]
    calls = []

    def counted(params, seed):
        calls.append(params)
        return scenario(params, seed)

    monkeypatch.setitem(cli.SCENARIOS, name, (counted, check, defaults))
    assert main([name, "--check", *sets]) == (0 if runs else 2)
    assert len(calls) == runs
    if not runs:
        err = capsys.readouterr().err
        assert err.startswith("error: --check pins") and "b=3.0 (default 10.0)" in err


_lambdas = st.floats(1e-4, 4.0) | st.integers(1, 4000).map(lambda k: k / 1000)


@settings(max_examples=100, deadline=None)
@given(total_lambda=_lambdas, mu0=_lambdas.map(lambda x: x + 0.01), p2=st.floats(1.0, 20.0))
def test_split_grid_matches_numpy_arange_and_argmin(total_lambda, mu0, p2):
    """power-split's math grid oracle is the numpy one bit for bit: the same
    points, the same costs and the same first argmin."""
    params = cli._defaults("power-split")
    g, p1 = cli._split_game(params), params["p1"]
    grid, costs = cli._split_grid(g, total_lambda, mu0, p1, p2)
    ref = np.arange(0.0, min(total_lambda, mu0 * (1 - 1e-6)) + 1e-9, 1e-3)
    phi = mu0 / ref[1:] - 1.0
    f = auxiliary_f(g)
    s_star = (np.sqrt(1.0 + phi) + f) * math.log1p(g.alpha * g.b) / (f * phi)
    ref_costs = np.concatenate(([p2 * total_lambda],
                                s_star + p1 * ref[1:] + p2 * (total_lambda - ref[1:])))
    assert grid == ref.tolist()
    assert costs == ref_costs.tolist()
    assert costs.index(min(costs)) == int(np.argmin(ref_costs))


def _numpy_surface(g, s_max, n):
    """The penalty-contract surface on numpy's meshgrid, the reference for the list one."""
    s_axis = s_max * np.arange(1, n + 1) / n
    nu_axis = g.phi * np.arange(1, n + 1) / (n + 1)
    S, V = np.meshgrid(s_axis, nu_axis, indexing="ij")
    total = S - 1.0 / V + (1.0 + g.b) * np.exp(-V * S) / V + g.cs * (V + 1.0) / (g.phi - V)
    return s_axis, nu_axis, total.ravel()


def _cost_surface(g, s_max, n):
    """penalty-contract's grid: s = s_max * k / n and nu = phi * k / (n + 1) for
    k = 1..n, and the closed-form C_o + C_s at every (s_i, nu_j) as one flat list,
    cell i * n + j, as np.meshgrid(indexing="ij") lays it out."""
    s_axis = [s_max * k / n for k in range(1, n + 1)]
    nu_axis = [g.phi * k / (n + 1) for k in range(1, n + 1)]
    c = 1.0 + g.b
    cols = [(-v, 1.0 / v, v, g.cs * (v + 1.0) / (g.phi - v)) for v in nu_axis]
    total = [s - inv + c * math.exp(neg * s) / v + rps
             for s in s_axis for neg, inv, v, rps in cols]
    return s_axis, nu_axis, total


_PENALTY_GAME = cli._game(cli._defaults("penalty-contract"))
_S_MAX = 4.0 * greenstock.centralized_optimum(_PENALTY_GAME).s
_SURFACE = _cost_surface(_PENALTY_GAME, _S_MAX, 300)[2]
_SURFACE_ARRAY = np.array(_SURFACE)


def test_cost_surface_matches_numpy_meshgrid_and_argmin():
    """penalty-contract's list surface has the numpy axes bit for bit, cells
    within 1e-12 relative (math.exp and np.exp differ in the last bits) and
    the same first argmin."""
    s_axis, nu_axis, total = _cost_surface(_PENALTY_GAME, _S_MAX, 300)
    ref_s, ref_nu, ref_total = _numpy_surface(_PENALTY_GAME, _S_MAX, 300)
    assert s_axis == ref_s.tolist() and nu_axis == ref_nu.tolist()
    np.testing.assert_allclose(total, ref_total, rtol=1e-12, atol=0)
    assert total.index(min(total)) == int(np.argmin(ref_total))


@settings(max_examples=100, deadline=None)
@given(share=st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-300, 1.0]))
def test_keeps_argmin_matches_numpy_argmin_of_the_scaled_surface(share):
    """The tie rule is np.argmin(share * total) == k, without the scaled surface."""
    k = _SURFACE.index(min(_SURFACE))
    expected = int(np.argmin(share * _SURFACE_ARRAY)) == k
    assert cli._keeps_argmin(_SURFACE, k, share) == expected


@settings(max_examples=60, deadline=None)
@given(g=st.builds(make_game, log_uniform(1e-12, 1e6), log_uniform(1e-3, 1e3),
                   log_uniform(1e-3, 1e4), st.floats(0.01, 0.99)),
       span=log_uniform(0.05, 20.0), n=st.sampled_from([300, 300, 1, 2, 7, 64]))
@example(g=_PENALTY_GAME, span=4.0, n=300)
def test_surface_minimum_matches_the_whole_surface(g, span, n):
    """The O(n) scan gives `_cost_surface`'s first minimum, the bits of the least
    cell before it and of every sampled cell.  At small b, rounding makes the cells
    near a column's minimum non-convex, and there a scan without its slack fails."""
    s_max = span * greenstock.centralized_optimum(g).s
    s_axis, nu_axis, total = _cost_surface(g, s_max, n)
    cell, k, cells = cli._surface_minimum(g, s_axis, nu_axis)
    assert k == total.index(min(total))
    expected = [min(total[:k]), total[k]] if k else [total[k]]
    assert [c.hex() for c in cells] == [c.hex() for c in expected]
    for i in range(0, n, 13):
        for j in range(0, n, 11):
            assert cell(i, j).hex() == total[i * n + j].hex()


@pytest.mark.parametrize("total, k, share, kept", [
    ([1.8444218515250483, 1.8444218515250481, 3.0], 1, 0.8789772014701512, False),  # rounds together
    ([1.8444218515250483, 1.8444218515250481, 3.0], 1, 0.5, True),
    ([1.0 + 2.0**-52, 1.0, 2.0], 1, 5e-324, False),     # both scale to the least subnormal
    ([1.0 + 2.0**-52, 1.0, 2.0], 1, 0.0, False),        # at share 0 every cell ties
    ([1.0, 2.0], 0, 0.0, True),                         # a minimum at cell 0 always stays
])
def test_keeps_argmin_on_constructed_ties(total, k, share, kept):
    assert int(np.argmin(share * np.array(total))) == (k if kept else 0)
    assert cli._keeps_argmin(total, k, share) == kept


@pytest.mark.parametrize("seed", range(20))
def test_nash_check_passes_at_every_seed(seed):
    """check_nash's verdict holds whichever 100 instances the seed draws."""
    assert all(ok for _, ok, _ in cli.check_nash(run_scenario("nash", {}, seed), seed))

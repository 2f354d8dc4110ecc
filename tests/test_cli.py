import json
import math
from pathlib import Path

import pytest

from remenu import (
    CostFunctional,
    DegenerateAlpha,
    Distortion,
    ProductUniform,
    ScenarioConfig,
    monte_carlo_profit,
)
from remenu.cli import _read_menu_csv, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

LN11 = math.log(1.1)
ALPHA_LO = 0.049787068367863944  # e^-3
ALPHA_HI = 0.1353352832366127  # e^-2


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "cost": {"theta": 0.1, "distortion": {"kind": "identity"}},
        "loss": {"family": "exponential"},
        "types": {
            "variant": "product_uniform",
            "k_dist": {"lo": 5000, "hi": 25000},
            "alpha_dist": {"lo": ALPHA_LO, "hi": ALPHA_HI},
        },
        "solver": {"class": "stop_loss", "grid_points": 2001, "refine_tol": 1e-6},
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def config(tmp_path):
    return write_config(tmp_path / "config.json")


@pytest.fixture()
def degenerate_config(tmp_path):
    return write_config(
        tmp_path / "deg.json",
        types={
            "variant": "degenerate_alpha",
            "k_dist": {"lo": 5000, "hi": 25000},
            "alpha_dist": {"value": ALPHA_LO},
        },
    )


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "name, solver_class",
        [
            ("uniform_alpha_stop_loss", "stop_loss"),
            ("uniform_alpha_quota_share", "quota_share"),
            ("uniform_alpha_change_loss", "change_loss"),
            ("fixed_alpha_stop_loss", "stop_loss"),
            ("fixed_alpha_quota_share", "quota_share"),
        ],
    )
    def test_bundled_script_builds_library_objects(self, name, solver_class):
        cfg = ScenarioConfig.from_file(str(SCRIPTS / f"{name}.json"))
        assert cfg.build_cost() == CostFunctional(0.1, Distortion.identity())
        solver = cfg.solver
        assert (solver.solver_class, solver.grid_points, solver.refine_tol) == (solver_class, 10001, 1e-6)
        assert cfg.seed == 0
        dist = cfg.build_dist()
        if name.startswith("uniform_alpha"):
            want = ProductUniform(5000.0, 25000.0, ALPHA_LO, ALPHA_HI)
            attrs = ("k_lo", "k_hi", "alpha_lo", "alpha_hi")
        else:
            want = DegenerateAlpha(5000.0, 25000.0, ALPHA_LO)
            attrs = ("k_lo", "k_hi", "alpha0")
        assert type(dist) is type(want)
        assert [getattr(dist, a) for a in attrs] == [getattr(want, a) for a in attrs]
        assert dist.family.point_mass_zero == 0.0


class TestSolve:
    def test_degenerate_summary_values(self, degenerate_config, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(degenerate_config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tau_star"] == pytest.approx(225000.0 / (5.0 - LN11), rel=1e-5)
        assert summary["assumption_holds"] is True

    def test_product_summary_values(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["L"] == 10000.0
        assert summary["sup_theta_star"] == pytest.approx(25000.0 * LN11, abs=1e-6)
        assert summary["tau_star"] == pytest.approx(38861.6, rel=0.01)
        header = (out / "menu.csv").read_text().splitlines()[0]
        assert header == "a,k,contract_class,lambda,deductible,premium,risk_reduction"

    def test_unparseable_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        raw["extra"] = 1
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_empty_type_support_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            types={
                "variant": "product_uniform",
                "k_dist": {"lo": 25000, "hi": 5000},
                "alpha_dist": {"lo": ALPHA_LO, "hi": ALPHA_HI},
            },
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_assumption_violation_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        raw["cost"]["theta"] = 10.0
        raw["solver"]["class"] = "change_loss"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_zero_grid_exits_2(self, config, tmp_path):
        assert main(["solve", "--config", str(config), "--out", str(tmp_path), "--grid", "0"]) == 2

    def test_nan_theta_exits_2_naming_theta(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", cost={"theta": float("nan")})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "theta" in capsys.readouterr().err

    # The quadrature section is no longer part of the schema: any value in it
    # is rejected by naming the section as an unknown key.
    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("quadrature", "outer_nodes", 0, "unknown keys in config: ['quadrature']"),
            ("quadrature", "outer_nodes", -3, "unknown keys in config: ['quadrature']"),
            ("quadrature", "outer_nodes", 1.5, "unknown keys in config: ['quadrature']"),
            ("quadrature", "simpson_tol", -1, "unknown keys in config: ['quadrature']"),
            ("solver", "grid_points", 2.5, "solver.grid_points"),
        ],
        ids=[
            "quadrature-outer_nodes-0",
            "quadrature-outer_nodes--3",
            "quadrature-outer_nodes-1.5",
            "quadrature-simpson_tol--1",
            "solver-grid_points-2.5",
        ],
    )
    def test_bad_numeric_setting_exits_2_naming_key(
        self, tmp_path, capsys, section, key, value, named
    ):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        raw.setdefault(section, {})[key] = value
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    def test_param_on_identity_exits_2_naming_it(self, tmp_path, capsys):
        cost = {"theta": 0.1, "distortion": {"kind": "identity", "param": 0.5}}
        cfg = write_config(tmp_path / "c.json", cost=cost)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "cost.distortion.param" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k_dist, alpha_dist, named",
        [
            ({"lo": 5000, "hi": math.inf}, {"lo": ALPHA_LO, "hi": ALPHA_HI}, "(5000.0, inf)"),
            ({"atoms": [[-5000, 0.5], [10000, 0.5]]}, {"atoms": [0.05, 0.1]}, "[-5000.0, "),
            ({"atoms": [[math.inf, 0.5], [10000, 0.5]]}, {"atoms": [0.05, 0.1]}, "[inf, "),
            ({"atoms": [[5000, math.nan], [10000, 0.5]]}, {"atoms": [0.05, 0.1]}, "[nan, "),
        ],
        ids=["k-hi-inf", "negative-k-atom", "infinite-k-atom", "nan-weight"],
    )
    def test_bad_market_input_exits_2_naming_it(self, tmp_path, capsys, k_dist, alpha_dist, named):
        variant = "discrete" if "atoms" in k_dist else "product_uniform"
        types = {"variant": variant, "k_dist": k_dist, "alpha_dist": alpha_dist}
        cfg = write_config(tmp_path / "c.json", types=types)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_seed, flag, named", [(-5, [], "-5"), (0, ["--seed", "-1"], "-1")], ids=["config", "flag"]
    )
    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys, config_seed, flag, named):
        cfg = write_config(tmp_path / "c.json", seed=config_seed)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--n", "10"]
        assert main(argv + flag) == 2
        assert f"seed must be an integer >= 0, got {named}" in capsys.readouterr().err

    def test_proportional_hazard_is_an_alias_of_power(self, tmp_path):
        summaries = []
        for kind in ("power", "proportional_hazard"):
            cost = {"theta": 0.1, "distortion": {"kind": kind, "param": 0.8}}
            cfg = write_config(tmp_path / f"{kind}.json", cost=cost)
            out = tmp_path / kind
            assert main(["solve", "--config", str(cfg), "--out", str(out), "--grid", "11"]) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_determinism(self, config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(config), "--out", str(out1)])
        main(["solve", "--config", str(config), "--out", str(out2)])
        assert (out1 / "menu.csv").read_bytes() == (out2 / "menu.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestCurve:
    def test_two_point_curve(self, config, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "curve",
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--t-lo",
                    "20000",
                    "--t-hi",
                    "30000",
                    "--n",
                    "2",
                ]
            )
            == 0
        )
        rows = (out / "curve.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2

    def test_beyond_support_is_zero(self, config, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "curve",
                "--config",
                str(config),
                "--out",
                str(out),
                "--t-lo",
                "80000",
                "--t-hi",
                "90000",
                "--n",
                "3",
            ]
        )
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_zero_theta_star_from_zero(self, tmp_path):
        # An atom of 0.15 at zero makes theta*_1 = 0, so the stop-loss kink
        # theta*_k = t has ratio 0; from t = 0 every J is finite.
        cfg = write_config(
            tmp_path / "atom.json",
            loss={"family": "exponential", "point_mass_zero": 0.15},
            types={
                "variant": "product_uniform",
                "k_dist": {"lo": 5000, "hi": 25000},
                "alpha_dist": {"lo": 0.03, "hi": 0.1},
            },
        )
        out = tmp_path / "out"
        assert main(["curve", "--config", str(cfg), "--out", str(out), "--t-lo", "0"]) == 0
        js = [float(r.split(",")[1]) for r in (out / "curve.csv").read_text().splitlines()[1:]]
        assert len(js) == 201 and all(math.isfinite(j) for j in js)
        assert js[0] == pytest.approx(-14025.0, rel=1e-12)

    def test_bad_range_exits_2(self, config, tmp_path):
        assert (
            main(
                [
                    "curve",
                    "--config",
                    str(config),
                    "--out",
                    str(tmp_path),
                    "--t-lo",
                    "30000",
                    "--t-hi",
                    "20000",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("bound", ["--t-hi=inf", "--t-lo=-inf", "--t-hi=nan"])
    def test_non_finite_bound_exits_2(self, config, tmp_path, bound):
        out = tmp_path / "out"
        assert main(["curve", "--config", str(config), "--out", str(out), bound]) == 2
        assert not (out / "curve.csv").exists()


class TestVerify:
    def test_round_trip_passes(self, config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(config), "--out", str(out)])
        code = main(
            ["verify", "--config", str(config), "--out", str(out), "--menu", str(out / "menu.csv")]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_corrupted_premium_fails(self, config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(config), "--out", str(out)])
        lines = (out / "menu.csv").read_text().splitlines()
        # Double the premium of the last (served) row: IR must now fail.
        cols = lines[-1].split(",")
        cols[5] = str(2.0 * float(cols[5]) + 10000.0)
        lines[-1] = ",".join(cols)
        bad = out / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", str(config), "--out", str(out), "--menu", str(bad)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False

    def test_reads_only_the_cost_section(self, config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(config), "--out", str(out)])
        bad_types = write_config(tmp_path / "c.json", types={"variant": "bogus"})
        argv = ["verify", "--config", str(bad_types), "--out", str(out), "--menu", str(out / "menu.csv")]
        assert main(argv) == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True
        assert main(["solve", "--config", str(bad_types), "--out", str(tmp_path / "solve")]) == 2

    def test_empty_menu_exits_2(self, config, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,k,contract_class,lambda,deductible,premium,risk_reduction\n")
        assert (
            main(["verify", "--config", str(config), "--out", str(tmp_path), "--menu", str(empty)])
            == 2
        )

    # Columns: a, k, contract_class, lambda, deductible, premium, risk_reduction.
    @pytest.mark.parametrize(
        "edits",
        [{4: "nan", 5: "nan"}, {4: "nan"}, {5: "nan"}, {0: "nan"}, {1: "inf"}, {5: "-inf"}],
        ids=["deductible+premium", "deductible", "premium", "a", "k", "premium-inf"],
    )
    def test_non_finite_menu_field_exits_2_naming_row(self, config, tmp_path, capsys, edits):
        out = tmp_path / "out"
        main(["solve", "--config", str(config), "--out", str(out)])
        lines = (out / "menu.csv").read_text().splitlines()
        cols = lines[-1].split(",")
        assert cols[3] == "1"  # a served row, whose deductible is finite
        for col, value in edits.items():
            cols[col] = value
        lines[-1] = ",".join(cols)
        bad = out / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", str(config), "--out", str(out), "--menu", str(bad)]) == 2
        assert f"menu row {len(lines) - 1}:" in capsys.readouterr().err

    def test_valid_menu_passes_despite_rounding(self, config, tmp_path):
        # One change-loss contract offered at six risk levels 1.3e-7 apart:
        # a valid menu, whose indirect utility differs by rounding only.
        menu = tmp_path / "menu.csv"
        rows = [f"{30000 + i * 1.3e-7!r},10000,change_loss,0.7,20000.3,4999.7,0" for i in range(6)]
        menu.write_text("a,k,contract_class,lambda,deductible,premium,risk_reduction\n" + "\n".join(rows) + "\n")
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), "--menu", str(menu)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "report.json").read_text())["passed"] is True

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.json")))
    def test_scaled_bundled_market_passes(self, name, scale, tmp_path):
        # Scaling k scales every a, d and P, and the rounding of a - d with
        # them; the verdict and the simulated z-scores must not move.  On the
        # tabulated menu, rows that tie up to that rounding (every stop-loss
        # row above tau*) must be told apart the same way at every scale.
        raw = json.loads((SCRIPTS / f"{name}.json").read_text())
        k_dist = raw["types"]["k_dist"]
        z, z_menu = [], []
        for s in (1.0, scale):
            raw["types"]["k_dist"] = {key: s * v for key, v in k_dist.items()}
            config, out = write_config(tmp_path / f"{s:g}.json", **raw), tmp_path / f"{s:g}"
            menu = str(out / "menu.csv")
            assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
            assert main(["verify", "--config", str(config), "--out", str(out), "--menu", menu]) == 0
            assert json.loads((out / "report.json").read_text())["passed"] is True
            assert main(["simulate", "--config", str(config), "--out", str(out), "--n", "20000"]) == 0
            z.append(json.loads((out / "estimate.json").read_text())["z_score"])
            argv = ["simulate", "--config", str(config), "--out", str(out), "--n", "20000", "--menu", menu]
            assert main(argv) == 0
            z_menu.append(json.loads((out / "estimate.json").read_text())["z_score"])
        assert z[1] == pytest.approx(z[0], rel=1e-9, abs=1e-9)
        assert z_menu[1] == pytest.approx(z_menu[0], rel=1e-5)

    def test_malformed_menu_exits_2(self, config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,k\n1,2\n")
        assert (
            main(["verify", "--config", str(config), "--out", str(tmp_path), "--menu", str(bad)])
            == 2
        )


class TestFirstBest:
    def test_report_written(self, config, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "first-best",
                "--config",
                str(config),
                "--out",
                str(out),
                "--pair",
                "45000,15000,30000,15000",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pairs"][0]["mimic_gain"] == pytest.approx(15000.0)
        assert report["pairs"][0]["profit_inequality_holds"] is True

    def test_non_finite_pair_exits_2(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["first-best", "--config", str(config), "--out", str(out)]
        assert main([*args, "--pair", "nan,10000,30000,10000"]) == 2
        assert "--pair" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_pair_exits_2(self, config, tmp_path):
        assert main(["first-best", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_bad_order_exits_2(self, config, tmp_path):
        assert (
            main(
                [
                    "first-best",
                    "--config",
                    str(config),
                    "--out",
                    str(tmp_path),
                    "--pair",
                    "30000,15000,45000,15000",
                ]
            )
            == 2
        )


class TestSimulate:
    def test_estimate_close_to_objective(self, config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out), "--n", "50000", "--seed", "42"]
        )
        assert code == 0
        est = json.loads((out / "estimate.json").read_text())
        assert abs(est["estimate"] - est["analytic_objective"]) <= 4.0 * est["std_error"]

    def test_bad_n_exits_2(self, config, tmp_path):
        assert (
            main(["simulate", "--config", str(config), "--out", str(tmp_path), "--n", "0"]) == 2
        )

    @pytest.mark.parametrize("name", ["uniform_alpha_stop_loss", "uniform_alpha_quota_share"])
    def test_menu_file_estimate(self, name, tmp_path):
        # simulate --menu self-selects from the tabulated menu.csv of a solve.
        config = SCRIPTS / f"{name}.json"
        solved, out = tmp_path / "solved", tmp_path / "sim"
        assert main(["solve", "--config", str(config), "--out", str(solved)]) == 0
        menu_csv = solved / "menu.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out), "--menu", str(menu_csv)]
        assert main(argv) == 0
        est = json.loads((out / "estimate.json").read_text())
        cfg = ScenarioConfig.from_file(str(config))
        want = monte_carlo_profit(
            _read_menu_csv(menu_csv), cfg.build_dist(), cfg.build_cost(), est["n"], cfg.seed
        )
        assert (est["estimate"], est["std_error"]) == want
        assert abs(est["estimate"] - est["analytic_objective"]) <= 4.0 * est["std_error"]


# Each command takes only the flags it reads; every other override is a
# usage error rather than a flag silently ignored or validated for nothing.
@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", ["--seed", "7"]),
        ("curve", ["--grid", "1"]),
        ("curve", ["--seed", "7"]),
        ("verify", ["--class", "quota_share"]),
        ("verify", ["--grid", "3"]),
        ("verify", ["--seed", "7"]),
        ("first-best", ["--class", "quota_share"]),
        ("first-best", ["--grid", "3"]),
        ("first-best", ["--seed", "7"]),
    ],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
def test_unread_flag_is_a_usage_error(command, flag, config, tmp_path, capsys):
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *flag]
    argv += {"verify": ["--menu", str(tmp_path / "menu.csv")], "first-best": ["--pair", "1,1,2,2"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

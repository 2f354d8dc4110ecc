import argparse
import json
import math
import warnings
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
from remenu import cli
from remenu.cli import _read_menu_csv, main
from remenu.config import MAX_GRID_POINTS, SolverConfig

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

    @pytest.mark.parametrize("command", ["solve", "curve", "simulate"])
    def test_assumption_violation_exits_3(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        raw["cost"]["theta"] = 10.0
        raw["solver"]["class"] = "change_loss"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert not (out / "curve.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "curve", "simulate"])
    def test_market_error_leaves_no_output_directory(self, tmp_path, capsys, command):
        types = {"variant": "product_uniform", "k_dist": {"lo": 5000, "hi": 1},
                 "alpha_dist": {"lo": ALPHA_LO, "hi": ALPHA_HI}}
        cfg = write_config(tmp_path / "c.json", types=types)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "(5000.0, 1.0)" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_grid_exits_2(self, tmp_path):
        solver = {"class": "stop_loss", "grid_points": 0, "refine_tol": 1e-6}
        cfg = write_config(tmp_path / "c.json", solver=solver)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

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

    @pytest.mark.parametrize("param", [0.5, 1.0])
    def test_param_on_identity_exits_2_naming_it(self, tmp_path, capsys, param):
        cost = {"theta": 0.1, "distortion": {"kind": "identity", "param": param}}
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
        "k_atom, alpha_atom, named",
        [
            (["abc", 0.5], 0.05, "types.k_dist.atoms[0][0] must be a number, got 'abc'"),
            ([None, 0.5], 0.05, "types.k_dist.atoms[0][0] is required"),
            (["5000", 0.5], 0.05, "types.k_dist.atoms[0][0] must be a number, got '5000'"),
            ([True, 0.5], 0.05, "types.k_dist.atoms[0][0] must be a number, got True"),
            ([5000, "0.5"], 0.05, "types.k_dist.atoms[0][1] must be a number, got '0.5'"),
            ([5000, 0.5], True, "types.alpha_dist.atoms[0] must be a number, got True"),
        ],
        ids=["text-k", "null-k", "numeric-text-k", "bool-k", "text-weight", "bool-alpha"],
    )
    def test_non_number_atom_exits_2_naming_it(self, tmp_path, capsys, k_atom, alpha_atom, named):
        k_dist, alpha_dist = {"atoms": [k_atom, [10000, 0.5]]}, {"atoms": [alpha_atom, 0.1]}
        types = {"variant": "discrete", "k_dist": k_dist, "alpha_dist": alpha_dist}
        cfg = write_config(tmp_path / "c.json", types=types)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    # Every ConfigError branch of config.py, each naming its key and the value it got.
    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("cost", "distortion"), "power", "cost.distortion must be an object"),
            (("cost", "distortion", "kind"), "wang",
             "cost.distortion.kind must be one of ['identity', 'power', 'proportional_hazard'], got 'wang'"),
            (("cost", "distortion"), {"kind": "power", "param": 2},
             "cost.distortion.param: distortion exponent must lie in (0, 1], got 2.0"),
            (("solver", "class"), "excess",
             "solver.class must be one of ('stop_loss', 'quota_share', 'change_loss'), got 'excess'"),
            (("solver", "refine_tol"), 1.5, "solver.refine_tol must lie in (0, 1), got 1.5"),
            ((), [], "config root must be a JSON object"),
            (("loss", "family"), "lomax", "loss.family must be 'exponential', got 'lomax'"),
            (("types", "variant"), "beta",
             "types.variant must be one of ['product_uniform', 'degenerate_alpha', 'discrete'], got 'beta'"),
            (("types",), {"variant": "discrete", "k_dist": {"atoms": {}}, "alpha_dist": {"atoms": []}},
             "types.k_dist.atoms and types.alpha_dist.atoms must be lists"),
            (("types",), {"variant": "discrete", "k_dist": {"atoms": [[5000, 1.0]]}, "alpha_dist": {"atoms": [0.05, 0.1]}},
             "types.k_dist.atoms (1) and types.alpha_dist.atoms (2) must align"),
        ],
        ids=["distortion", "kind", "param", "class", "refine_tol", "root", "family", "variant", "atom-lists", "align"],
    )
    def test_config_error_exits_2_naming_its_key(self, tmp_path, capsys, path, value, named):
        raw = json.loads(write_config(tmp_path / "c.json").read_text())
        if path:
            section = raw
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
        else:
            raw = value
        (tmp_path / "c.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        assert f"error: {named}" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("config_seed, named", [(-5, "-5")], ids=["config"])
    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys, config_seed, named):
        cfg = write_config(tmp_path / "c.json", seed=config_seed)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--n", "10"]
        assert main(argv) == 2
        assert f"seed must be an integer >= 0, got {named}" in capsys.readouterr().err

    def test_proportional_hazard_is_an_alias_of_power(self, tmp_path):
        summaries = []
        for kind in ("power", "proportional_hazard"):
            cost = {"theta": 0.1, "distortion": {"kind": kind, "param": 0.8}}
            solver = {"class": "stop_loss", "grid_points": 11, "refine_tol": 1e-6}
            cfg = write_config(tmp_path / f"{kind}.json", cost=cost, solver=solver)
            out = tmp_path / kind
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
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

    def test_negative_kink_exits_2_naming_it(self, config, tmp_path, capsys):
        # A kink below 0 would price a negative deductible: no curve.csv.
        out = tmp_path / "out"
        assert main(["curve", "--config", str(config), "--out", str(out), "--t-lo", "-1"]) == 2
        assert "kink tau must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

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

    # These read "malformed menu row 1: 'premium'" and "malformed menu row 1:
    # float() argument must be a string or a real number, not 'NoneType'".
    @pytest.mark.parametrize(
        "text, named",
        [("a,k,contract_class,lambda,deductible,risk_reduction\n30000,10000,stop_loss,1,12000,0\n",
          "menu file has no column 'premium' (header: a,k,contract_class,lambda,deductible,risk_reduction)"),
         ("a,k,contract_class,lambda,deductible,premium,risk_reduction\n30000,10000\n",
          "malformed menu row 1: expected 7 fields as in the header, got 2")],
        ids=["no-premium-column", "two-field-row"],
    )
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_menu_error_names_the_problem(self, command, text, named, config, tmp_path, capsys):
        menu, out = tmp_path / "menu.csv", tmp_path / "out"
        menu.write_text(text)
        argv = [command, "--config", str(config), "--out", str(out), "--menu", str(menu)]
        capsys.readouterr()
        assert main(argv + (["--n", "10"] if command == "simulate" else [])) == 2
        assert f"error: {named}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_menu_exits_2(self, config, tmp_path, capsys):
        # Not UTF-8: a UnicodeDecodeError traceback and exit 1 before.
        menu, out = tmp_path / "menu.csv", tmp_path / "out"
        menu.write_bytes(b"a,k,contract_class,lambda,deductible,premium\n\xff,1,stop_loss,1,0,0\n")
        assert main(["verify", "--config", str(config), "--out", str(out), "--menu", str(menu)]) == 2
        assert "cannot read menu file" in capsys.readouterr().err
        assert not out.exists()


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
        assert not out.exists()

    @pytest.mark.parametrize(
        "pair", ["30000,15000,45000,15000", "1,2,3", "30000,15000,a,15000"],
        ids=["bad-order", "three-numbers", "not-a-number"],
    )
    def test_bad_pair_leaves_no_output_directory(self, config, tmp_path, pair):
        out = tmp_path / "out"
        assert main(["first-best", "--config", str(config), "--out", str(out), "--pair", pair]) == 2
        assert not out.exists()

    def test_missing_pair_exits_2(self, config, tmp_path):
        assert main(["first-best", "--config", str(config), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "pair, named",
        [("30000,-5000,20000,5000", "k1 must lie in (0.0, inf), got -5000.0"),
         ("30000,0,20000,5000", "k1 must lie in (0.0, inf), got 0.0"),
         ("30000,5000,20000,-0", "k2 must lie in (0.0, inf), got -0.0")],
        ids=["negative-k1", "zero-k1", "zero-k2"],
    )
    def test_non_positive_k_exits_2_naming_it(self, tmp_path, capsys, pair, named):
        out = tmp_path / "out"
        config = SCRIPTS / "fixed_alpha_stop_loss.json"
        assert main(["first-best", "--config", str(config), "--out", str(out), "--pair", pair]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

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
    def test_estimate_close_to_objective(self, tmp_path):
        config = write_config(tmp_path / "config.json", seed=42)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--n", "50000"]) == 0
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


# The contract class, grid and seed come only from the config, so no command
# takes --class, --grid or --seed: each is a usage error, not a second source.
@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", ["--class", "quota_share"]),
        ("solve", ["--grid", "3"]),
        ("solve", ["--seed", "7"]),
        ("curve", ["--class", "quota_share"]),
        ("curve", ["--grid", "1"]),
        ("curve", ["--seed", "7"]),
        ("verify", ["--class", "quota_share"]),
        ("verify", ["--grid", "3"]),
        ("verify", ["--seed", "7"]),
        ("first-best", ["--class", "quota_share"]),
        ("first-best", ["--grid", "3"]),
        ("first-best", ["--seed", "7"]),
        ("simulate", ["--class", "quota_share"]),
        ("simulate", ["--grid", "3"]),
        ("simulate", ["--seed", "7"]),
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


# Hostile sizes and numbers: each is an input error (exit 2) that names its
# key or flag, is caught before the market is built or anything of that size
# is allocated, and leaves no --out directory.
@pytest.fixture()
def no_market(monkeypatch):
    """Fail the test if a command builds a market or solves one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a hostile size reached the solver")

    monkeypatch.setattr(ScenarioConfig, "build_dist", refuse)
    monkeypatch.setattr(cli.threshold, "solve", refuse)


def test_size_caps_are_stated():
    assert (MAX_GRID_POINTS, cli.MAX_CURVE_POINTS, cli.MAX_SAMPLES) == (10**6, 10**6, 10**7)
    assert SolverConfig(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=r"solver.grid_points must lie in \[2, 1000000\], got 1000001"):
        SolverConfig(grid_points=MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("grid", [1e308, 10**6 + 1, 1e7], ids=["1e308", "cap+1", "1e7"])
def test_oversized_grid_exits_2_naming_it(grid, tmp_path, capsys, no_market):
    # 1e308 raised ValueError from np.linspace before the cap.
    cfg = write_config(tmp_path / "c.json", solver={"class": "stop_loss", "grid_points": grid})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "solver.grid_points must lie in [2, 1000000]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, n, named",
    [("curve", 10**12, "--n must lie in [2, 1000000] curve points, got 1000000000000"),
     ("curve", 10**6 + 1, "--n must lie in [2, 1000000] curve points, got 1000001"),
     ("curve", 1, "--n must lie in [2, 1000000] curve points, got 1"),
     ("simulate", 10**12, "--n must lie in [1, 10000000] samples, got 1000000000000"),
     ("simulate", 10**7 + 1, "--n must lie in [1, 10000000] samples, got 10000001")],
    ids=["curve-1e12", "curve-cap+1", "curve-1", "simulate-1e12", "simulate-cap+1"],
)
def test_oversized_n_exits_2_naming_it(command, n, named, config, tmp_path, capsys, no_market):
    # --n 10**12 ended in MemoryError before the cap.
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--n", str(n)]) == 2
    assert f"error: {named}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "menu_bytes, named",
    [(b"a,k,contract_class,lambda,deductible,risk_reduction\r\n1,2,stop_loss,1,0,0\r\n",
      "menu file has no column 'premium'"),
     (b"a,k,contract_class,lambda,deductible,premium\r\n1,2\r\n",
      "malformed menu row 1: expected 6 fields as in the header, got 2"),
     (b"a,k,contract_class,lambda,deductible,premium\r\n\xff,2,stop_loss,1,0,0\r\n", "cannot read menu file")],
    ids=["no-premium", "two-fields", "not-utf8"],
)
def test_simulate_reads_the_menu_before_solving(menu_bytes, named, config, tmp_path, capsys, no_market):
    # simulate --menu solved the whole config grid before it read the menu.
    menu, out = tmp_path / "menu.csv", tmp_path / "out"
    menu.write_bytes(menu_bytes)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--menu", str(menu)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, named",
    [(("cost", "theta"), "cost.theta"),
     (("cost", "distortion", "param"), "cost.distortion.param"),
     (("loss", "point_mass_zero"), "loss.point_mass_zero"),
     (("types", "k_dist", "hi"), "types.k_dist.hi"),
     (("types", "alpha_dist", "lo"), "types.alpha_dist.lo"),
     (("solver", "grid_points"), "solver.grid_points"),
     (("solver", "refine_tol"), "solver.refine_tol")],
    ids=lambda x: x if isinstance(x, str) else ".".join(x),
)
def test_integer_too_large_for_a_float_exits_2_naming_key(path, named, config, tmp_path, capsys):
    # float(10**400) raised OverflowError: a traceback and exit 1.
    raw = json.loads(config.read_text())
    raw["cost"]["distortion"] = {"kind": "power", "param": 0.8}
    section = raw
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = 10**400
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {named} must be a finite number, got an integer too large for a float\n" in err
    assert not out.exists()


def test_integer_too_large_for_a_float_in_an_atom_exits_2_naming_it(tmp_path, capsys):
    types = {"variant": "discrete", "k_dist": {"atoms": [[10**400, 0.5], [10000, 0.5]]},
             "alpha_dist": {"atoms": [0.05, 0.1]}}
    cfg = write_config(tmp_path / "c.json", types=types)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "types.k_dist.atoms[0][0] must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "types",
    [{"variant": "discrete", "k_dist": {"atoms": [[1e308, 0.5], [10000, 0.5]]}, "alpha_dist": {"atoms": [0.05, 0.1]}},
     {"variant": "product_uniform", "k_dist": {"lo": 5000, "hi": 1e308}, "alpha_dist": {"lo": 0.05, "hi": 0.15}}],
    ids=["discrete", "uniform-k"],
)
def test_overflowing_risk_level_exits_2_naming_it(types, tmp_path, capsys):
    # a = k VaR_1(alpha) overflows to inf at k = 1e308: the discrete solve
    # ended in a traceback (argmax of an empty sequence), the uniform-k one
    # blamed a NaN kink.
    cfg = write_config(tmp_path / "c.json", types=types)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "risk level a = VaR_alpha(X_k) is not finite at k = 1e+308, alpha = 0.05\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e296, 1e300])
def test_huge_k_scales_the_menu_without_overflow(scale, tmp_path):
    # J is positively homogeneous in k: scaling k_dist by s scales tau* and J
    # by s.  A segment's width times its profit overflowed from k ~ 1e154 on,
    # before the density 1 / (k_hi - k_lo) scaled it back.
    runs = []
    for s in (1.0, scale):
        types = {
            "variant": "product_uniform",
            "k_dist": {"lo": 5000 * s, "hi": 25000 * s},
            "alpha_dist": {"lo": ALPHA_LO, "hi": ALPHA_HI},
        }
        cfg = str(write_config(tmp_path / f"{s:g}.json", types=types))
        out = tmp_path / f"{s:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            assert main(["verify", "--config", cfg, "--out", str(out / "v"), "--menu", str(out / "menu.csv")]) == 0
            assert main(["curve", "--config", cfg, "--out", str(out / "c"), "--n", "101"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        curve = [float(row.split(",")[1]) for row in (out / "c" / "curve.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(j) for j in curve) and math.isfinite(summary["objective_value"])
        runs.append([summary["tau_star"] / s, summary["objective_value"] / s, max(curve) / s])
    assert runs[1] == pytest.approx(runs[0], rel=1e-12)


@pytest.mark.parametrize("menu", [False, True], ids=["rule-menu", "tabulated-menu"])
def test_huge_k_monte_carlo_keeps_its_error_bar(menu, tmp_path):
    # Squaring profits past about 1e154 overflowed in the standard deviation:
    # at k ~ 1e296 simulate wrote std_error "inf" and z_score 0.0.
    raw = json.loads((SCRIPTS / "uniform_alpha_stop_loss.json").read_text())
    k_dist, runs = raw["types"]["k_dist"], []
    for s in (1.0, 1e296):
        raw["types"]["k_dist"] = {key: s * v for key, v in k_dist.items()}
        cfg, out = str(write_config(tmp_path / f"{s:g}.json", **raw)), tmp_path / f"{s:g}"
        argv = ["simulate", "--config", cfg, "--out", str(out), "--n", "20000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if menu:
                assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
                argv += ["--menu", str(out / "menu.csv")]
            assert main(argv) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert math.isfinite(est["std_error"]) and math.isfinite(est["z_score"])
        runs.append([est["estimate"] / s, est["std_error"] / s, est["z_score"]])
    # On the tabulated menu, rows tied up to rounding of a - d are told apart
    # by rounding, which differs at the two scales: 4e-6 of the estimate.
    assert runs[1] == pytest.approx(runs[0], rel=1e-5 if menu else 1e-9)


def test_integer_past_the_digit_limit_exits_2(config, tmp_path, capsys):
    # json.load raises a plain ValueError (not a JSONDecodeError) on an
    # integer literal past Python's int-to-str digit limit (4300 digits).
    config.write_text(config.read_text().replace('"theta": 0.1', '"theta": 1' + "0" * 5000))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


# The parser is built once per process and reused: no call may see state
# left by an earlier one.
@pytest.fixture()
def fresh_parser():
    cli.build_parser.cache_clear()
    yield cli.build_parser
    cli.build_parser.cache_clear()


@pytest.fixture()
def small_config(tmp_path):
    return write_config(tmp_path / "small.json", solver={"class": "stop_loss", "grid_points": 11})


def test_parser_is_built_once_over_mixed_calls(fresh_parser, small_config, tmp_path, monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    common = ["--config", str(small_config), "--out", str(tmp_path / "out")]
    menu = ["--menu", str(tmp_path / "out" / "menu.csv")]
    calls = [
        ["solve", *common], ["verify", *common, *menu], ["curve", *common, "--n", "5"],
        ["first-best", *common, "--pair", "45000,15000,30000,15000"], ["simulate", *common, "--n", "100"],
        ["simulate", *common, *menu, "--n", "100"], ["solve", *common, "--grid", "3"], ["verify", *common],
        ["curve", *common, "--n", "3"], ["solve", *common],
    ]
    codes = []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0]
    info = fresh_parser.cache_info()
    assert (info.misses, info.hits) == (1, 9)
    assert len(built) == 6  # the root parser and one per command
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: remenu verify [-h] --config CONFIG [--out OUT] --menu MENU\n")
    assert "menu.csv to audit" in help_text
    assert len(built) == 6


def test_first_best_pairs_do_not_accumulate(fresh_parser, config, tmp_path):
    pairs = ["45000,15000,30000,15000", "60000,20000,30000,10000"]
    reports = []
    for i, pair in enumerate(pairs):
        out = tmp_path / str(i)
        assert main(["first-best", "--config", str(config), "--out", str(out), "--pair", pair]) == 0
        reports.append(json.loads((out / "report.json").read_text())["pairs"])
    assert [len(r) for r in reports] == [1, 1]
    assert reports[1][0]["mimic_gain"] != reports[0][0]["mimic_gain"]
    fresh_parser.cache_clear()
    assert main(["first-best", "--config", str(config), "--out", str(tmp_path / "cold"), "--pair", pairs[1]]) == 0
    assert (tmp_path / "1" / "report.json").read_bytes() == (tmp_path / "cold" / "report.json").read_bytes()
    assert fresh_parser().parse_args(["first-best", "--config", "c"]).pair == []


def test_simulate_without_menu_after_simulate_with_one(fresh_parser, small_config, tmp_path):
    menu = tmp_path / "menu.csv"
    menu.write_text("a,k,contract_class,lambda,deductible,premium\n30000,10000,stop_loss,1,12000,18000\n")
    common = ["--config", str(small_config), "--n", "1000"]
    assert main(["simulate", *common, "--out", str(tmp_path / "menu"), "--menu", str(menu)]) == 0
    assert main(["simulate", *common, "--out", str(tmp_path / "rule")]) == 0
    fresh_parser.cache_clear()
    assert main(["simulate", *common, "--out", str(tmp_path / "cold")]) == 0
    rule, cold, with_menu = (tmp_path / d / "estimate.json" for d in ("rule", "cold", "menu"))
    assert rule.read_bytes() == cold.read_bytes() != with_menu.read_bytes()


def test_usage_error_between_calls_changes_nothing(fresh_parser, small_config, tmp_path, capsys):
    def curve(out, *extra):
        return main(["curve", "--config", str(small_config), "--out", str(tmp_path / out), *extra])

    assert curve("before") == 0
    with pytest.raises(SystemExit) as exc:
        curve("bad", "--t-lo", "20000", "--t-hi", "30000", "--n", "abc")
    assert exc.value.code == 2 and "invalid int value: 'abc'" in capsys.readouterr().err
    assert curve("after") == 0
    assert not (tmp_path / "bad").exists()
    assert (tmp_path / "after" / "curve.csv").read_bytes() == (tmp_path / "before" / "curve.csv").read_bytes()


def test_bundled_artifacts_do_not_depend_on_call_order(fresh_parser, tmp_path):
    names = sorted(p.stem for p in SCRIPTS.glob("*.json"))
    artifacts = {}
    for order, run in (("forward", names), ("reverse", names[::-1])):
        for name in run:
            out = tmp_path / order / name
            common = ["--config", str(SCRIPTS / f"{name}.json"), "--out", str(out)]
            assert main(["solve", *common]) == 0
            assert main(["verify", *common, "--menu", str(out / "menu.csv")]) == 0
            artifacts[order, name] = [(out / f).read_bytes() for f in ("menu.csv", "summary.json", "report.json")]
    assert len(names) == 5
    for name in names:
        assert artifacts["forward", name] == artifacts["reverse", name]

"""End-to-end CLI runs (in-process) against temporary directories."""

import csv
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtri

from pathlift import (
    BrownianPath,
    DyadicPath,
    QuantileMeasure,
    bound_factor,
    heat_flow_marginal,
    midpoint_grid,
    path_to_csv,
    pm_from_csv,
    qm_to_csv,
    wasserstein_p,
)
from pathlift import (
    NormSpec,
    build_dyadic_lift,
    stochastic_heat_scenario,
)
from pathlift import _rng, cli, lift_builder, processes
from pathlift.cli import main


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def write_path_csv(tmp_path, path, name):
    p = tmp_path / name
    with open(p, "w", encoding="utf-8", newline="") as f:
        path_to_csv(path, f)
    return str(p)


def write_qm_csv(tmp_path, qm, name):
    p = tmp_path / name
    with open(p, "w", encoding="utf-8", newline="") as f:
        qm_to_csv(qm, f)
    return str(p)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# norms


def test_norms_constant_and_linear(tmp_path, capsys):
    # pvar/holder are quadratic in grid size, so keep those paths shallow;
    # the besov sum is cheap even at depth 20
    t = np.linspace(0.0, 1.0, 2 ** 20 + 1)
    linear = write_path_csv(tmp_path, DyadicPath(20, t), "linear.csv")
    small = write_path_csv(
        tmp_path, DyadicPath(3, np.linspace(0.0, 1.0, 9)), "small.csv"
    )
    flat = write_path_csv(tmp_path, DyadicPath(2, np.full(5, 3.0)), "flat.csv")
    cfg = write_config(tmp_path, {
        "input": [flat, linear],
        "norms": [{"kind": "besov", "p": 2.0, "alpha": 0.75}],
    })
    out = tmp_path / "out"
    assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "norms.csv")
    assert len(rows) == 2
    values = {(r["input"], r["kind"]): float(r["value"]) for r in rows}
    assert values[(flat, "besov")] == 0.0
    assert values[(linear, "besov")] == pytest.approx(
        1.8471209846518148, abs=1e-9
    )

    cfg = write_config(tmp_path, {
        "input": small,
        "norms": [
            {"kind": "pvar", "p": 2.0},
            {"kind": "holder", "p": 2.0, "gamma": 1.0},
        ],
    }, "c_small.json")
    assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "norms.csv")
    values = {r["kind"]: float(r["value"]) for r in rows}
    assert values["pvar"] == pytest.approx(1.0, abs=1e-12)
    assert values["holder"] == pytest.approx(1.0, abs=1e-12)


def test_norms_accepts_single_input_string(tmp_path, capsys):
    flat = write_path_csv(tmp_path, DyadicPath(1, np.zeros(3)), "flat.csv")
    cfg = write_config(tmp_path, {
        "input": flat,
        "norms": [{"kind": "holder", "p": 2.0, "gamma": 0.5}],
    })
    assert main(["norms", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_norms_error_paths(tmp_path, capsys):
    out = str(tmp_path / "o")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("t,x_1\r\nnope,1\r\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "input": str(bad_csv),
        "norms": [{"kind": "pvar", "p": 2.0}],
    }, "c1.json")
    assert main(["norms", "--config", cfg, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err

    cfg = write_config(tmp_path, {"norms": [{"kind": "pvar", "p": 2.0}]},
                       "c2.json")
    assert main(["norms", "--config", cfg, "--out", out]) == 2

    flat = write_path_csv(tmp_path, DyadicPath(1, np.zeros(3)), "flat.csv")
    cfg = write_config(tmp_path, {
        "input": flat,
        "norms": [{"kind": "besov", "p": 2.0}],  # alpha missing
    }, "c3.json")
    assert main(["norms", "--config", cfg, "--out", out]) == 2

    cfg = write_config(tmp_path, {
        "input": flat,
        "norms": [{"kind": "pvar", "p": 2.0}],
        "typo_key": 1,
    }, "c4.json")
    assert main(["norms", "--config", cfg, "--out", out]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_norms_refuses_an_energy_that_underflows(tmp_path, capsys):
    tiny = DyadicPath(2, 1e-3 * np.array([0.0, 1.0, -1.0, 2.0, 0.5]))
    cfg = write_config(tmp_path, {
        "input": write_path_csv(tmp_path, tiny, "tiny.csv"),
        "norms": [{"kind": "pvar", "p": 200.0}],
    })
    assert main(["norms", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "pvar energy underflows to 0.0 at p=200.0" in capsys.readouterr().err


def test_norms_rejects_a_path_file_without_value_columns(tmp_path, capsys):
    times_only = tmp_path / "t.csv"
    times_only.write_text("t\r\n0\r\n0.5\r\n1\r\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "input": str(times_only),
        "norms": [{"kind": "holder", "p": 2.0, "gamma": 0.5}],
    })
    assert main(["norms", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cannot parse path file" in err and "d >= 1" in err


def test_config_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["norms", "--config", str(cfg)]) == 2
    assert main(["norms", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command,obj,key", [
    ("sde", {"preset": "she-form2", "quantiles": 0.5}, "quantiles"),
    ("lift", {"depth": 2.7}, "depth"),
    ("estimate", {"target": "wp", "n_mc": True}, "n_mc"),
    ("sde", {"preset": "heat", "zero_noise": "false"}, "zero_noise"),
    ("demo", {"preset": "heat", "p": "2"}, "p"),
    ("norms", {"input": [], "norms": [{"kind": "pvar", "p": "2"}]}, "p"),
    ("ot", {"mu": 3, "nu": "nu.csv"}, "mu"),
    ("lift", {"seed": "7"}, "seed"),
])
def test_config_values_are_typed(tmp_path, capsys, command, obj, key):
    cfg = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"field {key!r}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,obj,message", [
    ("estimate", {"target": "wp", "n_mc": 2, "depth": -1},
     "depth must be nonnegative"),
    ("estimate", {"target": "besov_energy", "fixture": "heat", "alpha": 0.5,
                  "n_mc": 2, "depth": -1}, "depth must be nonnegative"),
    ("estimate", {"target": "wp", "n_mc": 2, "n_atoms": 0},
     "n_atoms must be at least 1"),
    ("demo", {"preset": "heat", "n_mc": 2, "depth": -1}, "lag_k_max <= depth"),
    ("demo", {"preset": "heat", "n_mc": 2, "n_atoms": 0},
     "n_atoms must be at least 1"),
    ("lift", {"fixture": "she", "depth": -1}, "depth must be nonnegative"),
    ("lift", {"fixture": "heat", "depth": -1}, "depth must be nonnegative"),
    ("lift", {"fixture": "she", "n_atoms": 0}, "n_atoms must be at least 1"),
])
def test_a_negative_depth_or_no_atoms_exits_2(tmp_path, capsys, command,
                                              obj, message):
    cfg = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def test_sde_accepts_a_scalar_start(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "she-form1", "depth": 2, "substeps": 4, "n_seeds": 1,
        "zero_noise": True, "x0": 0.5,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
    xs = [float(r["x_1"]) for r in read_rows(out / "sde_paths.csv")]
    w = BrownianPath(seed=_rng.derive_seed(0, 0), depth=2)
    assert np.max(np.abs(np.array(xs) - (w.values[:, 0] + 0.5))) < 1e-12


# ---------------------------------------------------------------------------
# ot


def test_ot_outputs_distance_and_coupling(tmp_path, capsys):
    mu = heat_flow_marginal(0.25, 32)
    nu = heat_flow_marginal(1.0, 32)
    cfg = write_config(tmp_path, {
        "mu": write_qm_csv(tmp_path, mu, "mu.csv"),
        "nu": write_qm_csv(tmp_path, nu, "nu.csv"),
        "p": 2.0,
    })
    out = tmp_path / "out"
    assert main(["ot", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "ot.json").read_text())
    assert obj["spec_version"] == 1
    assert obj["n_atoms"] == 32
    assert obj["w_p"] == pytest.approx(wasserstein_p(mu, nu, 2.0), rel=1e-14)
    assert obj["coupling_cost"] == pytest.approx(obj["w_p"] ** 2, rel=1e-12)
    rows = read_rows(out / "coupling.csv")
    assert len(rows) == 32
    assert float(rows[0]["x"]) == mu.quantiles[0]


def test_ot_error_paths(tmp_path, capsys):
    mu = heat_flow_marginal(1.0, 8)
    nu = heat_flow_marginal(1.0, 16)
    mu_f = write_qm_csv(tmp_path, mu, "mu.csv")
    nu_f = write_qm_csv(tmp_path, nu, "nu.csv")
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"mu": mu_f, "nu": nu_f}, "c1.json")
    assert main(["ot", "--config", cfg, "--out", out]) == 2  # size mismatch
    cfg = write_config(tmp_path, {"mu": mu_f}, "c2.json")
    assert main(["ot", "--config", cfg, "--out", out]) == 2


# ---------------------------------------------------------------------------
# lift


def test_lift_heat_levels_and_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "fixture": "heat", "depth": 3, "n_atoms": 16,
        "alpha": 0.6, "p": 2.0, "dump_paths": True,
    })
    out = tmp_path / "out"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "lift.json").read_text())
    assert obj["spec_version"] == 1
    assert obj["bound_factor"] == pytest.approx(bound_factor(0.6, 2.0))
    assert len(obj["levels"]) == 4
    energies = [lv["energy"] for lv in obj["levels"]]
    assert energies == sorted(energies)
    assert all(lv["ok"] for lv in obj["levels"])
    # the quantile lift attains the marginal curve energy
    assert abs(obj["gap"]) < 1e-9
    assert (out / "lift_levels.csv").exists()
    assert (out / "lift_paths.csv").exists()


def test_lift_she_fixture(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "fixture": "she", "depth": 2, "n_atoms": 8, "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "lift.json").read_text())
    assert obj["seed"] == 3
    assert abs(obj["gap"]) < 1e-9


def test_lift_she_builds_its_curve_once(tmp_path, capsys, monkeypatch):
    builds = Counter()
    build = cli.stochastic_heat_scenario

    def counted(seed, depth, *args, **kwargs):
        builds[depth] += 1
        return build(seed, depth, *args, **kwargs)

    monkeypatch.setattr(cli, "stochastic_heat_scenario", counted)
    cfg = write_config(tmp_path, {
        "fixture": "she", "depth": 5, "n_atoms": 8, "alpha": 0.3, "p": 4.0,
        "dump_paths": True,
    })
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert builds == Counter({5: 1})


def test_lift_prices_the_finest_marginal_curve_once(
    tmp_path, capsys, monkeypatch
):
    calls = []
    price = lift_builder.marginal_curve_energy

    def counted(pi, spec):
        calls.append(pi.depth)
        return price(pi, spec)

    # the CLI module may hold a name of its own for it
    monkeypatch.setattr(lift_builder, "marginal_curve_energy", counted)
    monkeypatch.setattr(cli, "marginal_curve_energy", counted, raising=False)
    cfg = write_config(tmp_path, {
        "fixture": "she", "depth": 4, "n_atoms": 8, "alpha": 0.3, "p": 4.0,
        "seed": 2,
    })
    out = tmp_path / "o"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [4]
    obj = json.loads((out / "lift.json").read_text())
    finest = build_dyadic_lift(
        stochastic_heat_scenario(2, 4, 8).measure_path, 4
    )
    spec = NormSpec(kind="besov", p=4.0, alpha=0.3)
    assert obj["marginal_energy"] == price(finest, spec)
    for row in obj["levels"]:
        assert row["bound"] == bound_factor(0.3, 4.0) * obj["marginal_energy"]


def test_lift_unknown_fixture(tmp_path, capsys):
    cfg = write_config(tmp_path, {"fixture": "wave"})
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# demo


def test_demo_she_rejects_small_p(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": "she", "p": 2.0})
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "α window empty for p ≤ 2 in S-HE demo" in err


def test_demo_heat_bundle(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "heat", "depth": 4, "n_atoms": 16, "n_mc": 5,
        "paths_dump": 4, "count": 4,
    })
    out = tmp_path / "out"
    assert main(["demo", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "demo.json", "demo_comparison.csv", "demo_holder.csv",
        "demo_quantile_paths.csv", "demo_independent_paths.csv",
    ):
        assert (out / name).exists(), name
    obj = json.loads((out / "demo.json").read_text())
    assert obj["spec_version"] == 1
    comp = obj["comparison"]
    assert comp["smaller"] == "quantile"
    assert comp["attains_marginal"]
    assert comp["lower_bound_ok"]
    assert comp["shuffled"]["energy"] > comp["quantile"]["energy"]
    # N(0, t) moves like sqrt(t): away from 0 the W_2 lag exponent is
    # close to 1 (Lipschitz), depressed a little by the curvature of sqrt
    assert 0.8 < obj["holder"]["slope"] < 1.0
    assert "wp_01" not in obj

    # dumped quantile paths are exactly the scaled normal quantiles
    with open(out / "demo_quantile_paths.csv", encoding="utf-8",
              newline="") as f:
        pm = pm_from_csv(f)
    c = ndtri(midpoint_grid(4))
    expect = np.sqrt(pm.times())[None, :] * c[:, None]
    assert np.array_equal(pm.paths[:, :, 0], expect)


def test_demo_she_bundle(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "she", "p": 4.0, "alpha": 0.3, "depth": 4,
        "n_atoms": 8, "n_mc": 3, "paths_dump": 4, "count": 2, "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["demo", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "demo.json").read_text())
    assert obj["comparison"]["attains_marginal"]
    assert obj["comparison"]["smaller"] == "quantile"
    assert "wp_01" in obj
    assert obj["wp_01"]["n"] == 3


def test_demo_she_builds_each_scenario_at_most_twice(
    tmp_path, capsys, monkeypatch
):
    builds = Counter()
    build = cli.stochastic_heat_scenario

    def counted(seed, *args, **kwargs):
        builds[seed] += 1
        return build(seed, *args, **kwargs)

    monkeypatch.setattr(cli, "stochastic_heat_scenario", counted)
    cfg = write_config(tmp_path, {
        "preset": "she", "p": 4.0, "alpha": 0.3, "depth": 4,
        "n_atoms": 8, "n_mc": 5, "paths_dump": 4, "count": 2, "seed": 1,
    })
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(builds) == 5
    assert max(builds.values()) <= 2


def count_she_builds(monkeypatch):
    """Count the she scenarios the CLI builds by seed, and its W by
    (seed, depth)."""
    builds = {"scenario": Counter(), "w": Counter()}
    scenario, brownian = cli.stochastic_heat_scenario, cli.BrownianPath

    def counted_scenario(seed, *args, **kwargs):
        builds["scenario"][seed] += 1
        return scenario(seed, *args, **kwargs)

    def counted_w(seed, depth, **kwargs):
        builds["w"][seed, depth] += 1
        return brownian(seed=seed, depth=depth, **kwargs)

    monkeypatch.setattr(cli, "stochastic_heat_scenario", counted_scenario)
    monkeypatch.setattr(cli, "BrownianPath", counted_w)
    return builds


def test_demo_she_builds_one_scenario_and_one_w_per_seed(
    tmp_path, capsys, monkeypatch
):
    builds = count_she_builds(monkeypatch)
    cfg = write_config(tmp_path, {
        "preset": "she", "p": 4.0, "alpha": 0.3, "depth": 5,
        "n_atoms": 8, "n_mc": 6, "paths_dump": 4, "count": 2, "seed": 3,
    })
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    seeds = [_rng.derive_seed(3, i) for i in range(6)]
    assert builds["scenario"] == Counter(seeds)
    assert builds["w"] == Counter((sd, 5) for sd in seeds)


def test_estimate_she_independent_lift_builds_only_w(
    tmp_path, capsys, monkeypatch
):
    builds = count_she_builds(monkeypatch)
    cfg = write_config(tmp_path, {
        "target": "lift_energy", "lift": "independent", "fixture": "she",
        "p": 4.0, "alpha": 0.3, "depth": 4, "n_atoms": 8, "n_mc": 4,
        "count": 3, "seed": 2,
    })
    out = tmp_path / "o"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    assert not builds["scenario"]
    seeds = [_rng.derive_seed(2, i) for i in range(4)]
    assert builds["w"] == Counter((sd, 4) for sd in seeds)


@pytest.mark.parametrize("s,t,depth,level", [
    (0.0, 1.0, 8, 0),
    (0.25, 0.375, 6, 3),
    (0.5, 0.5, 3, 1),
])
def test_estimate_wp_builds_w_at_the_level_of_s_and_t(
    tmp_path, capsys, monkeypatch, s, t, depth, level
):
    builds = count_she_builds(monkeypatch)
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": "she", "s": s, "t": t, "depth": depth,
        "n_atoms": 8, "n_mc": 4, "seed": 2,
    })
    out = str(tmp_path / "o")
    assert main(["estimate", "--config", cfg, "--out", out]) == 0
    assert not builds["scenario"]
    seeds = [_rng.derive_seed(2, i) for i in range(4)]
    assert builds["w"] == Counter((sd, level) for sd in seeds)


def test_demo_preset_flag_and_validation(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["demo", "--out", out]) == 2  # no preset anywhere
    cfg = write_config(tmp_path, {
        "preset": "heat", "depth": 3, "lag_k_max": 5, "n_mc": 2,
    })
    assert main(["demo", "--config", cfg, "--out", out]) == 2  # k_max > depth


@pytest.mark.parametrize("command", ["norms", "ot", "lift", "estimate"])
def test_preset_flag_is_refused_outside_demo_and_sde(tmp_path, capsys,
                                                     command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        main([command, "--preset", "nonsense", "--out", str(out)])
    assert info.value.code == 2
    assert "--preset nonsense" in capsys.readouterr().err
    assert not out.exists()


def test_the_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    demo = write_config(tmp_path, {
        "depth": 3, "n_atoms": 4, "n_mc": 2, "count": 2, "paths_dump": 2,
    }, "demo.json")
    d = str(tmp_path / "d")
    assert main(["demo", "--preset", "she", "--config", demo, "--out", d]) == 0
    capsys.readouterr()
    assert main(["demo", "--config", demo, "--out", d]) == 2
    assert "demo preset must be 'heat' or 'she'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["lift", "--preset", "she", "--out", str(tmp_path / "l")])
    assert info.value.code == 2
    # the flags of the first call reach neither the seed nor the directory
    # of the second, which come from its config
    a, b = tmp_path / "a", tmp_path / "b"
    est = write_config(tmp_path, {
        "target": "wp", "fixture": "she", "depth": 1, "n_atoms": 4,
        "n_mc": 2, "out": str(b),
    }, "estimate.json")
    assert main(["estimate", "--config", est, "--seed", "9",
                 "--out", str(a)]) == 0
    assert main(["estimate", "--config", est]) == 0
    for out, seed in ((a, 9), (b, 0)):
        obj = json.loads((out / "estimate.json").read_text())
        assert obj["config"]["base_seed"] == seed


def test_demo_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "heat", "depth": 3, "n_atoms": 8, "n_mc": 3,
        "paths_dump": 2, "count": 2, "seed": 7,
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["demo", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["demo", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("demo.json", "demo_comparison.csv", "demo_holder.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# sde


def test_sde_form1_zero_noise_reproduces_w(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "she-form1", "depth": 4, "substeps": 16,
        "n_seeds": 1, "zero_noise": True, "x0": [0.0],
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sde_paths.csv")
    assert len(rows) == 17
    w = BrownianPath(seed=_rng.derive_seed(0, 0), depth=4)
    xs = np.array([float(r["x_1"]) for r in rows])
    assert np.max(np.abs(xs - w.values[:, 0])) < 1e-12
    obj = json.loads((out / "sde.json").read_text())
    assert obj["zero_noise"] is True
    assert obj["runs"] == 1
    assert "max_deviation" not in obj


def test_sde_form1_zero_noise_in_two_dimensions(tmp_path, capsys):
    # W has one coordinate per coordinate of x0
    cfg = write_config(tmp_path, {
        "preset": "she-form1", "depth": 3, "substeps": 32,
        "n_seeds": 2, "zero_noise": True, "x0": [0.5, -1.0], "seed": 6,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sde_paths.csv")
    assert len(rows) == 2 * 9
    assert list(rows[0]) == ["run_id", "seed", "q", "t", "x_1", "x_2"]
    for i in range(2):
        w = BrownianPath(seed=_rng.derive_seed(6, i), depth=3, dim=2)
        run = [r for r in rows if r["run_id"] == str(i)]
        xs = np.array([[float(r["x_1"]), float(r["x_2"])] for r in run])
        assert np.max(np.abs(xs - (w.values + [0.5, -1.0]))) < 1e-12


@pytest.mark.parametrize("extra,key", [
    ({"n_seeds": 0}, "n_seeds"),
    ({"n_seeds": -2}, "n_seeds"),
    ({"quantiles": []}, "quantiles"),
    ({"preset": "heat", "quantiles": []}, "quantiles"),
    ({"x0": [0.0, 1.0]}, "x0"),
    # json reads Infinity and NaN; off every grid, for either t0 check
    ({"preset": "heat", "t0": math.inf}, "t0"),
    ({"preset": "heat", "t0": -math.inf}, "t0"),
    ({"preset": "heat", "t0": math.nan}, "t0"),
    ({"t0": math.inf}, "t0"),
    ({"t0": math.nan}, "t0"),
    # NaN levels got through to the starts and were refused as bad x0
    ({"quantiles": [math.nan]}, "(0, 1)"),
    ({"quantiles": [0.5, math.nan]}, "(0, 1)"),
])
def test_sde_rejects_bad_run_counts_and_starts(tmp_path, capsys, extra, key):
    cfg = write_config(tmp_path, {
        "preset": "she-form2", "depth": 3, "substeps": 1024, **extra,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "sde.json").exists()


def test_sde_form2_stays_on_the_quantile_curve(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "she-form2", "depth": 3, "substeps": 4096,
        "n_seeds": 1, "quantiles": [0.9], "seed": 2,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "sde.json").read_text())
    assert obj["below_threshold"] is True
    assert 0.0 < obj["max_deviation"] < 5e-2
    dev_rows = read_rows(out / "sde_deviation.csv")
    assert len(dev_rows) == 1
    assert float(dev_rows[0]["max_deviation"]) == obj["max_deviation"]


@pytest.mark.parametrize("depth, built", [
    (3, {3: 2, 10: 2, 12: 2}),  # W(t0), t0 = 2^-10, from a level-10 bridge
    (11, {11: 2, 12: 2}),  # W's own grid holds t0
])
def test_sde_form2_refines_w_to_the_substeps_once_per_seed(
    tmp_path, capsys, monkeypatch, depth, built
):
    depths = Counter()
    bridge = processes._bridge_values

    def counted(seed, stream, depth, dim, count=None):
        depths[depth] += 1
        return bridge(seed, stream, depth, dim, count)

    monkeypatch.setattr(processes, "_bridge_values", counted)
    cfg = write_config(tmp_path, {
        "preset": "she-form2", "depth": depth, "n_seeds": 2,
        "quantiles": [0.3, 0.8],
    })
    assert main(["sde", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert depths == Counter(built)


def test_sde_streams_its_paths_file(tmp_path, capsys):
    # every row kept as a Python list until the end peaked at 9.9 MB here
    cfg = write_config(tmp_path, {
        "preset": "she-form2", "depth": 12, "n_seeds": 4, "seed": 7,
    })
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (out / "sde_paths.csv").stat().st_size
    assert size > 2_500_000
    assert peak < size


def test_sde_degenerate_preset_exits_3(tmp_path, capsys):
    assert main(["sde", "--preset", "degenerate",
                 "--out", str(tmp_path / "o")]) == 3
    assert "parabolicity violated" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sde_divergence_exits_3(tmp_path, capsys, monkeypatch):
    from pathlift import SdeCoefficients, processes

    def blowup():
        return SdeCoefficients(
            drift=lambda t, x, w: 1e3 * x * x,
            diffusion_a=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
            common_sigma=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
            name="blowup",
        )

    monkeypatch.setitem(processes._PRESETS, "blowup", blowup)
    cfg = write_config(tmp_path, {
        "preset": "blowup", "depth": 2, "substeps": 256, "n_seeds": 1,
        "x0": [1.0], "seed": 4,
    })
    assert main(["sde", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    assert f"w.seed={_rng.derive_seed(4, 0)}" in err


def test_sde_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["sde", "--preset", "langevin",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["sde", "--out", str(tmp_path / "o")]) == 2


def test_sde_negative_depth_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "she-form1", "depth": -1, "substeps": 4, "n_seeds": 1,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 2
    assert "depth must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sde_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": "heat", "depth": 2, "substeps": 4, "n_seeds": 1,
        "seed": 11,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--seed", "5",
                 "--out", str(out)]) == 0
    obj = json.loads((out / "sde.json").read_text())
    assert obj["seed"] == 5


# ---------------------------------------------------------------------------
# estimate


def test_estimate_wp_heat_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": "heat", "s": 0.25, "t": 1.0,
        "p": 2.0, "n_mc": 4, "depth": 4, "n_atoms": 32,
    })
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "estimate.json").read_text())
    expected = wasserstein_p(
        heat_flow_marginal(0.25, 32), heat_flow_marginal(1.0, 32), 2.0
    )
    assert obj["estimate"] == pytest.approx(expected, rel=1e-12)
    assert obj["std_error"] == 0.0
    assert obj["target"] == "wp"
    assert obj["fixture"] == "heat"
    assert obj["spec_version"] == 1
    rows = read_rows(out / "estimate.csv")
    assert len(rows) == 1
    assert rows[0]["n"] == "4"


def test_estimate_she_wp_delta_to_terminal(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": "she", "s": 0.0, "t": 1.0,
        "p": 2.0, "n_mc": 50, "depth": 2, "n_atoms": 64, "seed": 4,
    })
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "estimate.json").read_text())
    # (E W_2^2)^(1/2) with W_2^2 = W_1^2 + m_2: expect about sqrt(2)
    assert 1.1 < obj["estimate"] < 1.8
    assert obj["std_error"] > 0


@pytest.mark.parametrize("fixture", ["she", "heat"])
@pytest.mark.parametrize("depth", [0, 3, 8])
@pytest.mark.parametrize("s,t", [
    (0.0, 1.0), (0.25, 0.375), (0.5, 0.5), (1.0, 0.0),
])
def test_estimate_wp_bundle_is_the_full_depth_bundle(
    tmp_path, capsys, monkeypatch, fixture, depth, s, t
):
    n_atoms = 8
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": fixture, "s": s, "t": t, "p": 3.0,
        "n_mc": 3, "depth": depth, "n_atoms": n_atoms, "seed": 4,
    })
    fast, full = tmp_path / "fast", tmp_path / "full"
    code = main(["estimate", "--config", cfg, "--out", str(fast)])
    if s * 2 ** depth % 1 or t * 2 ** depth % 1:
        assert code == 2
        assert f"not a dyadic grid time at depth {depth}" in (
            capsys.readouterr().err)
        return
    assert code == 0
    c = ndtri(midpoint_grid(n_atoms))

    def full_depth_marginals(self, seed, level, s, t):
        # the marginals with W built to the config's depth, whatever level
        # the command asks for
        if fixture == "heat":
            return tuple(QuantileMeasure(np.sqrt(u) * c) for u in (s, t))
        w = BrownianPath(seed=seed, depth=depth).values[:, 0]
        return tuple(QuantileMeasure(w[int(u * 2 ** depth)] + np.sqrt(u) * c)
                     for u in (s, t))

    monkeypatch.setattr(cli._Fixture, "marginals", full_depth_marginals)
    assert main(["estimate", "--config", cfg, "--out", str(full)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == printed[1]
    for name in ("estimate.json", "estimate.csv"):
        assert (fast / name).read_bytes() == (full / name).read_bytes()


def test_estimate_wp_keeps_its_standard_error_at_large_p(tmp_path, capsys):
    # W_p^p is about 1e-165 at p = 700, so the squared deviations from its
    # mean fall below the smallest double
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": "she", "p": 700, "s": 0.75, "t": 1.0,
        "n_mc": 4, "depth": 4, "n_atoms": 16,
    })
    out = tmp_path / "o"
    assert main(["estimate", "--config", cfg, "--out", str(out),
                 "--seed", "5"]) == 0
    obj = json.loads((out / "estimate.json").read_text())
    assert obj["estimate"] == 0.5809629540225228
    assert 0 < obj["std_error"] < obj["estimate"]


@pytest.mark.parametrize("fixture", ["she", "heat"])
@pytest.mark.parametrize("target", ["wp", "besov_energy"])
def test_estimate_refuses_p_below_1_before_any_scenario(
    tmp_path, capsys, target, fixture
):
    cfg = write_config(tmp_path, {
        "target": target, "fixture": fixture, "p": 0.5, "alpha": 0.3,
        "n_mc": 2, "depth": 3, "n_atoms": 8,
    })
    out = tmp_path / "o"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: p must be >= 1\n"
    assert not any(out.iterdir())


def test_estimate_besov_energy_and_lift_energy(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "target": "besov_energy", "fixture": "heat", "alpha": 0.6,
        "p": 2.0, "n_mc": 2, "depth": 3, "n_atoms": 16,
    }, "c1.json")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    besov = json.loads((out / "estimate.json").read_text())
    assert besov["std_error"] == 0.0
    assert besov["norm"]["alpha"] == 0.6

    cfg = write_config(tmp_path, {
        "target": "lift_energy", "fixture": "she", "alpha": 0.6,
        "p": 2.0, "n_mc": 3, "depth": 3, "n_atoms": 8, "lift": "shuffled",
    }, "c2.json")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    shuffled = json.loads((out / "estimate.json").read_text())
    assert shuffled["lift"] == "shuffled"
    assert shuffled["estimate"] > besov["estimate"]


def test_estimate_error_paths(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"target": "entropy"}, "c1.json")
    assert main(["estimate", "--config", cfg, "--out", out]) == 2
    cfg = write_config(tmp_path, {
        "target": "besov_energy", "fixture": "heat", "n_mc": 1,
    }, "c2.json")
    assert main(["estimate", "--config", cfg, "--out", out]) == 2  # no alpha
    cfg = write_config(tmp_path, {
        "target": "lift_energy", "fixture": "heat", "alpha": 0.6,
        "n_mc": 1, "lift": "entropic",
    }, "c3.json")
    assert main(["estimate", "--config", cfg, "--out", out]) == 2
    cfg = write_config(tmp_path, {
        "target": "wp", "fixture": "heat", "s": 0.3, "n_mc": 1,
    }, "c4.json")
    assert main(["estimate", "--config", cfg, "--out", out]) == 2  # off-grid


@pytest.mark.parametrize("target", ["besov_energy", "wp"])
def test_estimate_refuses_a_non_finite_scenario(tmp_path, capsys, target):
    # W_p^p at p = 700 overflows; the bundle would hold Infinity and NaN
    cfg = write_config(tmp_path, {
        "target": target, "fixture": "she", "p": 700, "alpha": 0.3,
        "n_mc": 3, "depth": 4, "n_atoms": 16,
    })
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        code = main(["estimate", "--config", cfg, "--out", str(out),
                     "--seed", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite value" in err
    seed = _rng.derive_seed(5, 1)
    assert err.endswith(f" in scenario 1 (seed {seed})\n")
    assert not (out / "estimate.json").exists()


def test_bundles_are_strict_json(tmp_path, capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json_file("x.json", {"slope": float("nan")})
    assert not (tmp_path / "x.json").exists()
    # each scenario's lift energies are finite at p = 300, but their
    # spread overflows: std_error inf must reach no bundle file, and the
    # comparison table, made before demo.json, names its row
    cfg = write_config(tmp_path, {
        "preset": "heat", "p": 300, "alpha": 0.3, "depth": 3, "n_atoms": 8,
        "n_mc": 2, "count": 2, "paths_dump": 2,
    })
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["demo", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "demo_comparison.csv row 2: non-finite cell" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv,config,where", [
    (["lift"], {"p": 700, "depth": 5, "n_atoms": 32}, ""),
    (["demo", "--preset", "heat"],
     {"p": 700, "n_mc": 4, "depth": 5, "n_atoms": 32}, " in scenario 0 (seed "),
], ids=["lift", "demo"])
def test_an_overflowing_power_exits_2(tmp_path, capsys, argv, config, where):
    # the besov level weight 2^(m (alpha p - 1)) leaves the float range
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ") and "Traceback" not in err
    assert where in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv,config,where", [
    # std_error inf in the comparison table, which the parent wrote out
    (["demo", "--preset", "heat"],
     {"p": 250, "alpha": 0.01, "n_mc": 4, "depth": 5, "n_atoms": 32},
     "demo_comparison.csv row 2: non-finite cell"),
    # each level energy |dX|^1500 is inf
    (["lift"], {"p": 1500, "alpha": 0.0002, "depth": 3, "n_atoms": 8,
                "fixture": "she"},
     "lift_levels.csv row 1: non-finite cell"),
], ids=["demo", "lift"])
def test_a_failing_bundle_leaves_no_files(tmp_path, capsys, argv, config,
                                          where):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not any(out.iterdir())


def test_demo_rejects_an_off_grid_lag_origin(tmp_path, capsys):
    # s + h lands on the grid, s itself does not
    cfg = write_config(tmp_path, {
        "preset": "she", "depth": 3, "n_atoms": 8, "n_mc": 2, "s": -0.25,
    })
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "s=-0.25 is not a dyadic grid time" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the fixtures shared by lift, demo and estimate


@pytest.mark.parametrize("preset,p,alpha", [
    ("she", 4.0, 0.3),
    ("heat", 2.0, 0.6),
])
def test_demo_rows_are_estimate_runs(tmp_path, capsys, preset, p, alpha):
    sizes = {"p": p, "alpha": alpha, "depth": 3, "n_atoms": 8, "n_mc": 3,
             "count": 2, "seed": 5}
    cfg = write_config(tmp_path, {"preset": preset, "paths_dump": 2, **sizes},
                       "demo.json")
    assert main(["demo", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    comp = json.loads((tmp_path / "d" / "demo.json").read_text())["comparison"]
    runs = {
        "quantile": {"target": "lift_energy", "lift": "quantile"},
        "shuffled": {"target": "lift_energy", "lift": "shuffled"},
        "independent": {"target": "lift_energy", "lift": "independent"},
        "marginal_curve": {"target": "besov_energy"},
    }
    for row, target in runs.items():
        cfg = write_config(tmp_path, {"fixture": preset, **sizes, **target},
                           f"{row}.json")
        out = tmp_path / row
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["estimate"] == comp[row]["energy"], row
        assert est["std_error"] == comp[row]["std_error"], row


def test_heat_builds_one_curve_per_depth(tmp_path, capsys, monkeypatch):
    builds = Counter()
    build = cli.heat_flow_path

    def counted(depth, n):
        builds[depth, n] += 1
        return build(depth, n)

    monkeypatch.setattr(cli, "heat_flow_path", counted)
    sizes = {"depth": 3, "n_atoms": 8, "alpha": 0.6, "p": 2.0}
    cfg = write_config(tmp_path, {"fixture": "heat", **sizes}, "lift.json")
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
    # the finest curve only: the coarser levels are its sub-grid views
    assert builds == Counter({(3, 8): 1})
    for n_mc in (1, 4):
        builds.clear()
        cfg = write_config(tmp_path, {
            "preset": "heat", "n_mc": n_mc, "paths_dump": 2, "count": 2,
            **sizes,
        }, "demo.json")
        assert main(["demo", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        # the curve, and the path dump at paths_dump atoms
        assert builds == Counter({(3, 8): 1, (3, 2): 1})
        for target in (
            {"target": "besov_energy"},
            {"target": "lift_energy", "lift": "quantile"},
            {"target": "lift_energy", "lift": "shuffled"},
        ):
            builds.clear()
            cfg = write_config(tmp_path, {
                "fixture": "heat", "n_mc": n_mc, **sizes, **target,
            }, "estimate.json")
            out = str(tmp_path / "e")
            assert main(["estimate", "--config", cfg, "--out", out]) == 0
            assert builds == Counter({(3, 8): 1})

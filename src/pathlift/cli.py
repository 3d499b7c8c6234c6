"""Command-line driver: norms, transports, lifts, demos, SDE runs.

Each subcommand reads a single JSON config (``--config``), with
``--seed``/``--out``/``--preset`` as overrides, and writes plain CSV and
JSON for external plotting; no images are rendered here. Outputs are a
deterministic function of (config, seed): files carry no timestamps,
floats are written in shortest round-trip form, and reruns are
byte-identical. Every emitted JSON document carries "spec_version": 1.

Config values are typed by ``_codec.json_fields``: a key the subcommand
does not know, or a value of the wrong JSON type (a string or boolean
for a number, a fraction for an integer, a number for a list, anything
but true or false for a flag) is a config error that names the key.

``lift``, ``demo`` and ``estimate`` sample their fixture from one table,
``_Fixture``: "she" is the randomly forced heat flow N(W_t, t) and
"heat" the deterministic heat flow N(0, t). At a scenario seed s every
command sees the same curve, the same quantile, shuffled and independent
lifts and the same W_p marginals; the shuffled lift permutes with the
seed ``derive_seed(s, 1)``.

Exit codes: 0 on success, 2 for config or input errors, 3 when a
mathematical precondition fails (for example a coefficient preset that
violates parabolicity).
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import _rng
from ._codec import json_fields, write_table
from .errors import MathPreconditionError
from .lift_builder import (
    bound_factor,
    build_dyadic_lift,
    build_shuffled_lift,
    marginal_curve_energy,
    pm_to_csv,
    refine_and_track,
)
from .mc_estimator import (
    McConfig,
    compare_lifts,
    estimate_to_json,
    expected_lift_energy,
    expected_wp,
    process_besov_energy,
    scenario_seeds,
)
from .path_norms import NormSpec, _grid_index, path_from_csv
from .processes import (
    BrownianPath,
    brownian_bundle,
    coefficient_preset,
    euler_flow,
    gaussian_quantile,
    heat_flow_path,
    independent_particle_paths,
    preset_names,
    quantile_particle_paths,
    stochastic_heat_scenario,
)
from .quantile_transport import (
    QuantileMeasure,
    midpoint_grid,
    monotone_coupling,
    qm_from_csv,
    wasserstein_p,
)

SPEC_VERSION = 1

__all__ = ["main", "ConfigError", "SPEC_VERSION"]


class ConfigError(Exception):
    """Bad config file, flag combination or input data (exit code 2)."""


# ---------------------------------------------------------------------------
# config and output plumbing


def _load_config(path):
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def _check_keys(config, allowed, command):
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {', '.join(unknown)}"
        )


def _fields(config, command, **kinds):
    """Typed values of a config object (``json_fields``), no unknown keys."""
    if isinstance(config, dict):
        _check_keys(config, kinds, command)
    return json_fields(config, f"{command} config", **kinds)


def _write_file(out_dir, name, write):
    with open(out_dir / name, "w", encoding="utf-8", newline="") as f:
        write(f)
    return name


def _write_json(out_dir, name, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return _write_file(out_dir, name, lambda f: f.write(text))


def _write_csv(out_dir, name, header, rows):
    return _write_file(out_dir, name, lambda f: write_table(f, header, rows))


def _dyadic_index(t, depth, what):
    try:
        return _grid_index(t, depth)
    except ValueError:
        raise ConfigError(
            f"{what}={t} is not a dyadic grid time at depth {depth}"
        ) from None


def _norm_spec(obj):
    kind, p, alpha, gamma = _fields(
        obj, "norm entry", kind=str, p=float, alpha=(float, None),
        gamma=(float, None),
    )
    return NormSpec(kind=kind, p=p, alpha=alpha, gamma=gamma)


# ---------------------------------------------------------------------------
# fixtures


class _Fixture:
    """One command's samplers of a fixture: curve, lifts and W_p pair.

    "she" draws one scenario per seed; "heat" is the same at every seed.
    """

    def __init__(self, name, n_atoms):
        if name not in ("heat", "she"):
            raise ConfigError(f"unknown fixture {name!r}")
        self.name = name
        self._c = gaussian_quantile(midpoint_grid(n_atoms))
        # one entry each: a seed's samplers share its scenario, and heat
        # builds its curve and marginals once; the builders are looked up
        # in this module at call time, so tests can count the builds
        self.scenario = functools.lru_cache(maxsize=1)(
            lambda seed, depth: stochastic_heat_scenario(seed, depth, n_atoms)
        )
        self._heat_curve = functools.lru_cache(maxsize=1)(
            lambda depth: heat_flow_path(depth, n_atoms)
        )
        self._heat_marginals = functools.lru_cache(maxsize=1)(
            lambda s, t: tuple(
                QuantileMeasure(np.sqrt(u) * self._c) for u in (s, t)
            )
        )

    def curve(self, seed, depth):
        """The measure curve on the level-depth grid."""
        if self.name == "heat":
            return self._heat_curve(depth)
        return self.scenario(seed, depth).measure_path

    def lift(self, kind, seed, depth, count=None):
        """The quantile, shuffled or independent (count paths) lift."""
        if kind == "quantile":
            return build_dyadic_lift(self.curve(seed, depth), "quantile", depth)
        if kind == "shuffled":
            return build_shuffled_lift(
                self.curve(seed, depth), _rng.derive_seed(seed, 1)
            )
        if kind != "independent":
            raise ConfigError(
                "lift must be one of quantile, shuffled, independent"
            )
        if self.name == "heat":
            return brownian_bundle(seed, depth, count)
        return independent_particle_paths(
            self.scenario(seed, depth), seed, count
        )

    def marginals(self, seed, depth, s, t):
        """The marginals at the level-depth grid times s and t."""
        if self.name == "heat":
            return self._heat_marginals(s, t)
        w = BrownianPath(seed=seed, depth=depth).values[:, 0]
        return tuple(
            QuantileMeasure(w[_grid_index(u, depth)] + np.sqrt(u) * self._c)
            for u in (s, t)
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norms(config, out_dir, seed, preset):
    _check_keys(config, {"input", "norms"}, "norms")
    inputs = config.get("input")
    if isinstance(inputs, str):
        inputs = [inputs]
    if not isinstance(inputs, list) or not all(
        isinstance(inp, str) for inp in inputs
    ):
        raise ConfigError("'input' must be a path or a list of paths")
    norm_objs = config.get("norms")
    if not isinstance(norm_objs, list) or not norm_objs:
        raise ConfigError("'norms' must be a nonempty list")
    specs = [_norm_spec(o) for o in norm_objs]
    rows = []
    for inp in inputs:
        try:
            with open(inp, encoding="utf-8", newline="") as f:
                path = path_from_csv(f)
        except OSError as exc:
            raise ConfigError(f"cannot read path file {inp}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"cannot parse path file {inp}: {exc}") from exc
        for spec in specs:
            value = spec.seminorm(path)
            rows.append(
                [
                    inp,
                    spec.kind,
                    float(spec.p),
                    "" if spec.alpha is None else float(spec.alpha),
                    "" if spec.gamma is None else float(spec.gamma),
                    float(value),
                ]
            )
    name = _write_csv(
        out_dir, "norms.csv",
        ["input", "kind", "p", "alpha", "gamma", "value"], rows,
    )
    print(f"{name}: {len(rows)} rows")
    return 0


def _cmd_ot(config, out_dir, seed, preset):
    *fnames, p = _fields(config, "ot", mu=str, nu=str, p=(float, 2.0))
    measures = {}
    for key, fname in zip(("mu", "nu"), fnames):
        try:
            with open(fname, encoding="utf-8", newline="") as f:
                measures[key] = qm_from_csv(f)
        except OSError as exc:
            raise ConfigError(f"cannot read {key} file {fname}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"cannot parse {key} file {fname}: {exc}") from exc
    mu, nu = measures["mu"], measures["nu"]
    dist = wasserstein_p(mu, nu, p)
    coupling = monotone_coupling(mu, nu)
    files = [
        _write_csv(out_dir, "coupling.csv", ["x", "y"],
                   [[float(a), float(b)] for a, b in coupling.pairs]),
        _write_json(out_dir, "ot.json", {
            "spec_version": SPEC_VERSION,
            "p": p,
            "n_atoms": mu.grid_size,
            "w_p": float(dist),
            "coupling_cost": float(coupling.cost(p)),
        }),
    ]
    print(f"ot: W_{p:g} = {dist!r} ({', '.join(files)})")
    return 0


def _cmd_lift(config, out_dir, seed, preset):
    fixture, depth, n_atoms, alpha, p, dump_paths = _fields(
        config, "lift", fixture=(str, "heat"), depth=(int, 6),
        n_atoms=(int, 256), alpha=(float, 0.6), p=(float, 2.0),
        dump_paths=(bool, False),
    )
    fx = _Fixture(fixture, n_atoms)
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    levels = refine_and_track(lambda n: fx.curve(seed, n), spec, depth)
    # refine_and_track ends on the finest curve, which the fixture holds
    finest = fx.lift("quantile", seed, depth)
    final_energy = levels[-1].energy
    marg_energy = marginal_curve_energy(finest, spec)
    files = [
        _write_csv(out_dir, "lift_levels.csv", ["n", "energy", "bound", "ok"],
                   [[r.n, r.energy, r.bound, r.ok] for r in levels]),
        _write_json(out_dir, "lift.json", {
            "spec_version": SPEC_VERSION,
            "fixture": fixture,
            "depth": depth,
            "n_atoms": n_atoms,
            "alpha": alpha,
            "p": p,
            "seed": seed,
            "seed_rule": _rng.derivation_rule(),
            "bound_factor": bound_factor(alpha, p),
            "levels": [
                {"n": r.n, "energy": r.energy, "bound": r.bound, "ok": r.ok}
                for r in levels
            ],
            "final_energy": final_energy,
            "marginal_energy": marg_energy,
            "gap": final_energy - marg_energy,
        }),
    ]
    if dump_paths:
        files.append(_write_file(
            out_dir, "lift_paths.csv", lambda f: pm_to_csv(finest, f)
        ))
    print(f"lift: final energy {final_energy!r} ({', '.join(files)})")
    return 0


_DEMO_DEFAULTS = {
    "she": {"p": 4.0, "alpha": 0.3, "n_mc": 200},
    "heat": {"p": 2.0, "alpha": 0.6, "n_mc": 50},
}


def _holder_points(fx, p, depth, cfg, s, ks):
    points = []
    for k in ks:
        h = 2.0 ** -k
        _dyadic_index(s + h, depth, "s+h")
        if fx.name == "heat":
            # deterministic: one W_p, not n_mc equal ones
            dist = wasserstein_p(*fx.marginals(None, depth, s, s + h), p)
            points.append((h, float(dist), 0.0))
        else:
            est = expected_wp(
                lambda sd: fx.marginals(sd, depth, s, s + h), p, cfg
            )
            points.append((h, est.mean, est.std_error))
    return points


def _cmd_demo(config, out_dir, seed, preset):
    (cfg_preset, p, alpha, depth, n_atoms, n_mc, count, paths_dump, s,
     k_min, k_max) = _fields(
        config, "demo", preset=(str, None), p=(float, None),
        alpha=(float, None), depth=(int, 8), n_atoms=(int, 256),
        n_mc=(int, None), count=(int, 8), paths_dump=(int, 16),
        s=(float, 0.25), lag_k_min=(int, 2), lag_k_max=(int, None),
    )
    preset = preset or cfg_preset
    if preset not in ("heat", "she"):
        raise ConfigError("demo preset must be 'heat' or 'she'")
    defaults = _DEMO_DEFAULTS[preset]
    p = defaults["p"] if p is None else p
    if preset == "she" and p <= 2:
        raise ConfigError("α window empty for p ≤ 2 in S-HE demo")
    alpha = defaults["alpha"] if alpha is None else alpha
    n_mc = defaults["n_mc"] if n_mc is None else n_mc
    k_max = min(8, depth) if k_max is None else k_max
    if not 0 < k_min <= k_max <= depth:
        raise ConfigError("need 0 < lag_k_min <= lag_k_max <= depth")
    _dyadic_index(s, depth, "s")
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    cfg = McConfig(n_mc=n_mc, base_seed=seed, depth=depth, n_atoms=n_atoms)
    fx = _Fixture(preset, n_atoms)

    def lifts(kind):
        return lambda sd: fx.lift(kind, sd, depth, count)

    sd0 = scenario_seeds(cfg)[0]
    # drawn first, so the comparison's first seed sd0 finds its scenario
    independent_paths = fx.lift("independent", sd0, depth, count)
    if preset == "she":
        quantile_paths = quantile_particle_paths(
            fx.scenario(sd0, depth), paths_dump
        )
    else:
        quantile_paths = build_dyadic_lift(
            heat_flow_path(depth, paths_dump), "quantile", depth
        )

    comp = compare_lifts(
        lifts("quantile"), lifts("shuffled"), lambda sd: fx.curve(sd, depth),
        spec, cfg,
    )
    ind_est = expected_lift_energy(lifts("independent"), spec, cfg)

    points = _holder_points(fx, p, depth, cfg, s, range(k_min, k_max + 1))
    slope = float(np.polyfit(
        np.log([pt[0] for pt in points]),
        np.log([pt[1] for pt in points]), 1,
    )[0])

    files = []
    for name, pm in (
        ("demo_quantile_paths.csv", quantile_paths),
        ("demo_independent_paths.csv", independent_paths),
    ):
        files.append(_write_file(out_dir, name, lambda f: pm_to_csv(pm, f)))
    files.append(_write_csv(
        out_dir, "demo_comparison.csv",
        ["lift", "energy", "std_error"],
        [
            ["quantile", comp.energy_a.mean, comp.energy_a.std_error],
            ["shuffled", comp.energy_b.mean, comp.energy_b.std_error],
            ["independent", ind_est.mean, ind_est.std_error],
            ["marginal_curve", comp.marginal_energy.mean,
             comp.marginal_energy.std_error],
        ],
    ))
    files.append(_write_csv(
        out_dir, "demo_holder.csv",
        ["h", "wp", "std_error"],
        [list(pt) for pt in points],
    ))

    summary = {
        "spec_version": SPEC_VERSION,
        "preset": preset,
        "p": p,
        "alpha": alpha,
        "depth": depth,
        "n_atoms": n_atoms,
        "n_mc": n_mc,
        "count": count,
        "seed": seed,
        "seed_rule": _rng.derivation_rule(),
        "comparison": {
            "quantile": {"energy": comp.energy_a.mean,
                         "std_error": comp.energy_a.std_error},
            "shuffled": {"energy": comp.energy_b.mean,
                         "std_error": comp.energy_b.std_error},
            "independent": {"energy": ind_est.mean,
                            "std_error": ind_est.std_error},
            "marginal_curve": {"energy": comp.marginal_energy.mean,
                               "std_error": comp.marginal_energy.std_error},
            "lower_bound_ok": comp.lower_bound_ok,
            "smaller": "quantile" if comp.smaller == "a" else "shuffled",
            "attains_marginal": comp.attains_marginal,
        },
        "holder": {
            "s": s,
            "points": [list(pt) for pt in points],
            "slope": slope,
        },
        "files": sorted(files + ["demo.json"]),
    }
    if preset == "she":
        wp01 = expected_wp(lambda sd: fx.marginals(sd, 0, 0.0, 1.0), 2.0, cfg)
        summary["wp_01"] = {"estimate": wp01.mean,
                            "std_error": wp01.std_error, "n": wp01.n}
    files.append(_write_json(out_dir, "demo.json", summary))
    print(f"demo {preset}: slope {slope!r} ({', '.join(sorted(files))})")
    return 0


def _cmd_sde(config, out_dir, seed, preset):
    if type(config.get("x0")) in (int, float):  # one coordinate, bare
        config = {**config, "x0": [config["x0"]]}
    (cfg_preset, depth, substeps, t0, quantiles, x0, n_seeds, threshold,
     zero_noise) = _fields(
        config, "sde", preset=(str, None), depth=(int, 8),
        substeps=(int, 4096), t0=(float, None),
        quantiles=(list, np.array([0.1, 0.5, 0.9])), x0=(list, np.zeros(1)),
        n_seeds=(int, 3), threshold=(float, 5e-2), zero_noise=(bool, False),
    )
    preset = preset or cfg_preset
    if preset is None:
        raise ConfigError(
            f"missing preset; known: {', '.join(preset_names())}"
        )
    try:
        coeffs = coefficient_preset(preset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    form2 = preset == "she-form2"
    if t0 is None:
        t0 = 2.0 ** -10 if form2 else 0.0
    x0 = x0.reshape(-1)
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    if quantiles.ndim != 1 or not quantiles.size:
        raise ConfigError("quantiles must be a nonempty list of levels")
    quantiles = quantiles.tolist()
    if form2 and x0.size != 1:
        raise ConfigError("x0 must have one coordinate for she-form2")
    if form2:
        # each quantile run starts on its curve c(q) sqrt(t) + W_t at t0
        level = substeps.bit_length() - 1
        k0 = _dyadic_index(t0, level, "t0")
        c = gaussian_quantile(quantiles)
    path_rows, dev_rows, run_id = [], [], 0
    for i in range(n_seeds):
        sd = _rng.derive_seed(seed, i)
        w = BrownianPath(seed=sd, depth=depth, dim=x0.size)
        starts = x0[None, :]
        if form2:
            starts = (c * np.sqrt(t0) + w.refine(level).values[k0])[:, None]
        flow = euler_flow(
            coeffs, w, _rng.derive_seed(sd, 1), starts, substeps,
            t0=t0, zero_noise=zero_noise,
        )
        times = w.times()
        for j, path in enumerate(flow.paths):
            q = quantiles[j] if form2 else ""
            if form2:
                oracle = c[j] * np.sqrt(times) + w.values[:, 0]
                mask = times >= t0 - 1e-12
                dev = float(np.max(np.abs(path[:, 0] - oracle)[mask]))
                dev_rows.append([run_id, sd, q, dev])
            for t, row in zip(times, path):
                path_rows.append(
                    [run_id, sd, q, float(t)] + [float(v) for v in row]
                )
            run_id += 1

    files = [_write_csv(
        out_dir, "sde_paths.csv",
        ["run_id", "seed", "q", "t"] + [f"x_{i + 1}" for i in range(x0.size)],
        path_rows,
    )]
    summary = {
        "spec_version": SPEC_VERSION,
        "preset": preset,
        "depth": depth,
        "substeps": substeps,
        "t0": t0,
        "seed": seed,
        "seed_rule": _rng.derivation_rule(),
        "runs": run_id,
        "zero_noise": zero_noise,
    }
    if form2:
        files.append(_write_csv(
            out_dir, "sde_deviation.csv",
            ["run_id", "seed", "q", "max_deviation"], dev_rows,
        ))
        max_dev = max(r[3] for r in dev_rows)
        summary["threshold"] = threshold
        summary["max_deviation"] = max_dev
        summary["below_threshold"] = max_dev < threshold
    files.append(_write_json(out_dir, "sde.json", summary))
    print(f"sde {preset}: {run_id} runs ({', '.join(files)})")
    return 0


def _cmd_estimate(config, out_dir, seed, preset):
    (target, fixture, p, alpha, s, t, n_mc, depth, n_atoms, lift_kind,
     count) = _fields(
        config, "estimate", target=(str, None), fixture=(str, "she"),
        p=(float, 2.0), alpha=(float, None), s=(float, 0.0), t=(float, 1.0),
        n_mc=(int, 1000), depth=(int, 8), n_atoms=(int, 256),
        lift=(str, "quantile"), count=(int, 8),
    )
    if target not in ("wp", "besov_energy", "lift_energy"):
        raise ConfigError(
            "target must be one of wp, besov_energy, lift_energy"
        )
    fx = _Fixture(fixture, n_atoms)
    cfg = McConfig(n_mc=n_mc, base_seed=seed, depth=depth, n_atoms=n_atoms)

    if target == "wp":
        _dyadic_index(s, depth, "s")
        _dyadic_index(t, depth, "t")
        est = expected_wp(lambda sd: fx.marginals(sd, depth, s, t), p, cfg)
        extra = {"s": s, "t": t}
    elif alpha is None:
        raise ConfigError(f"target {target!r} needs 'alpha'")
    elif target == "besov_energy":
        est = process_besov_energy(
            lambda sd: fx.curve(sd, depth), alpha, p, cfg
        )
        extra = {"alpha": alpha}
    else:
        spec = NormSpec(kind="besov", p=p, alpha=alpha)
        est = expected_lift_energy(
            lambda sd: fx.lift(lift_kind, sd, depth, count), spec, cfg
        )
        extra = {"alpha": alpha, "lift": lift_kind}

    payload = estimate_to_json(est, cfg)
    payload.update(extra)
    payload["spec_version"] = SPEC_VERSION
    payload["target"] = target
    payload["fixture"] = fixture
    payload["p"] = p
    files = [
        _write_json(out_dir, "estimate.json", payload),
        _write_csv(
            out_dir, "estimate.csv",
            ["target", "fixture", "estimate", "std_error", "n"],
            [[target, fixture, est.mean, est.std_error, est.n]],
        ),
    ]
    print(
        f"estimate {target}/{fixture}: {est.mean!r} "
        f"± {est.std_error!r} ({', '.join(files)})"
    )
    return 0


_DISPATCH = {
    "norms": _cmd_norms,
    "ot": _cmd_ot,
    "lift": _cmd_lift,
    "demo": _cmd_demo,
    "sde": _cmd_sde,
    "estimate": _cmd_estimate,
}

_HELP = {
    "norms": "path seminorms from CSV path files",
    "ot": "1d Wasserstein distance and the monotone coupling",
    "lift": "dyadic lift refinement: energies, bound, optional paths",
    "demo": "heat / stochastic-heat demo bundle (paths, energies, slope)",
    "sde": "Euler-Maruyama runs for the coefficient presets",
    "estimate": "Monte Carlo estimators over scenario families",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathlift",
        description="dyadic path norms, 1d optimal transport and lifts of "
                    "measure-valued curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file")
        sp.add_argument("--seed", type=int, metavar="U64",
                        help="base seed (overrides the config)")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config)")
        sp.add_argument("--preset", metavar="NAME",
                        help="preset name (demo and sde)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        out, seed = json_fields(
            config, "config", out=(str, "."), seed=(int, 0)
        )
        out_dir = Path(out if args.out is None else args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = seed if args.seed is None else args.seed
        config = {k: v for k, v in config.items() if k not in ("out", "seed")}
        return _DISPATCH[args.command](config, out_dir, seed, args.preset)
    except MathPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

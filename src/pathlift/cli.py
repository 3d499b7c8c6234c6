"""Command-line driver: norms, transports, lifts, demos, SDE runs.

Each subcommand reads a single JSON config (``--config``), with
``--seed``/``--out``/``--preset`` as overrides, and writes plain CSV and
JSON for external plotting; no images are rendered here. Outputs are a
deterministic function of (config, seed): files carry no timestamps,
floats are written in shortest round-trip form, and reruns are
byte-identical. Every emitted JSON document carries "spec_version": 1.

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
from scipy.special import ndtri

from . import _rng
from ._codec import write_table
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
from .path_norms import NormSpec, path_from_csv
from .processes import (
    BrownianPath,
    brownian_bundle,
    coefficient_preset,
    euler_flow,
    gaussian_quantile,
    heat_flow_marginal,
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
    k = t * 2 ** depth
    if not 0.0 <= t <= 1.0 or abs(k - round(k)) > 1e-9:
        raise ConfigError(
            f"{what}={t} is not a dyadic grid time at depth {depth}"
        )
    return int(round(k))


def _norm_spec(obj):
    if not isinstance(obj, dict):
        raise ConfigError("norm entries must be JSON objects")
    unknown = sorted(set(obj) - {"kind", "p", "alpha", "gamma"})
    if unknown:
        raise ConfigError(f"unknown norm keys: {', '.join(unknown)}")
    if "kind" not in obj or "p" not in obj:
        raise ConfigError("norm entries need at least 'kind' and 'p'")
    alpha = obj.get("alpha")
    gamma = obj.get("gamma")
    return NormSpec(
        kind=obj["kind"],
        p=float(obj["p"]),
        alpha=None if alpha is None else float(alpha),
        gamma=None if gamma is None else float(gamma),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norms(config, out_dir, seed, preset):
    _check_keys(config, {"input", "norms", "out", "seed"}, "norms")
    inputs = config.get("input")
    if inputs is None:
        raise ConfigError("missing config key 'input'")
    if isinstance(inputs, str):
        inputs = [inputs]
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
    _check_keys(config, {"mu", "nu", "p", "out", "seed"}, "ot")
    p = float(config.get("p", 2.0))
    measures = {}
    for key in ("mu", "nu"):
        fname = config.get(key)
        if fname is None:
            raise ConfigError(f"missing config key {key!r}")
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
    _check_keys(
        config,
        {"fixture", "depth", "n_atoms", "alpha", "p", "dump_paths", "out",
         "seed"},
        "lift",
    )
    fixture = config.get("fixture", "heat")
    if fixture not in ("heat", "she"):
        raise ConfigError(f"unknown lift fixture {fixture!r}")
    depth = int(config.get("depth", 6))
    n_atoms = int(config.get("n_atoms", 256))
    alpha = float(config.get("alpha", 0.6))
    p = float(config.get("p", 2.0))
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    if fixture == "heat":
        provider = lambda n: heat_flow_path(n, n_atoms)
    else:
        provider = lambda n: stochastic_heat_scenario(
            seed, n, n_atoms
        ).measure_path
    # one entry: refine_and_track ends on the finest curve, reused below
    provider = functools.lru_cache(maxsize=1)(provider)
    levels = refine_and_track(provider, spec, depth)
    finest = build_dyadic_lift(provider(depth), "quantile", depth)
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
    if config.get("dump_paths", False):
        files.append(_write_file(
            out_dir, "lift_paths.csv", lambda f: pm_to_csv(finest, f)
        ))
    print(f"lift: final energy {final_energy!r} ({', '.join(files)})")
    return 0


_DEMO_DEFAULTS = {
    "she": {"p": 4.0, "alpha": 0.3, "n_mc": 200},
    "heat": {"p": 2.0, "alpha": 0.6, "n_mc": 50},
}


def _she_wp_sampler(depth, n_atoms, s, t):
    """seed -> the SHE marginals N(W_s, s) and N(W_t, t) at grid times s, t."""
    c = ndtri(midpoint_grid(n_atoms))
    i, j = round(s * 2 ** depth), round(t * 2 ** depth)

    def sampler(sd):
        wv = BrownianPath(seed=sd, depth=depth).values[:, 0]
        return (
            QuantileMeasure(wv[i] + np.sqrt(s) * c),
            QuantileMeasure(wv[j] + np.sqrt(t) * c),
        )

    return sampler


def _holder_points(preset, p, depth, n_atoms, cfg, s, ks):
    points = []
    for k in ks:
        h = 2.0 ** -k
        _dyadic_index(s + h, depth, "s+h")
        if preset == "she":
            sampler = _she_wp_sampler(depth, n_atoms, s, s + h)
            est = expected_wp(sampler, p, cfg)
            points.append((h, est.mean, est.std_error))
        else:
            dist = wasserstein_p(
                heat_flow_marginal(s, n_atoms),
                heat_flow_marginal(s + h, n_atoms),
                p,
            )
            points.append((h, float(dist), 0.0))
    return points


def _cmd_demo(config, out_dir, seed, preset):
    _check_keys(
        config,
        {"preset", "p", "alpha", "depth", "n_atoms", "n_mc", "count",
         "paths_dump", "s", "lag_k_min", "lag_k_max", "out", "seed"},
        "demo",
    )
    preset = preset or config.get("preset")
    if preset not in ("heat", "she"):
        raise ConfigError("demo preset must be 'heat' or 'she'")
    defaults = _DEMO_DEFAULTS[preset]
    p = float(config.get("p", defaults["p"]))
    if preset == "she" and p <= 2:
        raise ConfigError("α window empty for p ≤ 2 in S-HE demo")
    alpha = float(config.get("alpha", defaults["alpha"]))
    depth = int(config.get("depth", 8))
    n_atoms = int(config.get("n_atoms", 256))
    n_mc = int(config.get("n_mc", defaults["n_mc"]))
    count = int(config.get("count", 8))
    paths_dump = int(config.get("paths_dump", 16))
    s = float(config.get("s", 0.25))
    k_min = int(config.get("lag_k_min", 2))
    k_max = int(config.get("lag_k_max", min(8, depth)))
    if not 0 < k_min <= k_max <= depth:
        raise ConfigError("need 0 < lag_k_min <= lag_k_max <= depth")
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    cfg = McConfig(n_mc=n_mc, base_seed=seed, depth=depth, n_atoms=n_atoms)

    if preset == "she":
        # one entry, keyed on the seed: the samplers of one seed share it
        scenario = functools.lru_cache(maxsize=1)(
            lambda sd: stochastic_heat_scenario(sd, depth, n_atoms)
        )
        marginal_sampler = lambda sd: scenario(sd).measure_path
        q_sampler = lambda sd: build_dyadic_lift(
            scenario(sd).measure_path, "quantile", depth
        )
        sh_sampler = lambda sd: build_shuffled_lift(
            scenario(sd).measure_path, _rng.derive_seed(sd, 1)
        )
        ind_sampler = lambda sd: independent_particle_paths(
            scenario(sd), sd, count
        )
    else:
        curve = heat_flow_path(depth, n_atoms)
        qlift = build_dyadic_lift(curve, "quantile", depth)
        marginal_sampler = lambda sd: curve
        q_sampler = lambda sd: qlift
        sh_sampler = lambda sd: build_shuffled_lift(curve, sd)
        ind_sampler = lambda sd: brownian_bundle(sd, depth, count)

    sd0 = scenario_seeds(cfg)[0]
    if preset == "she":
        # drawn first, so the comparison's first seed sd0 finds it built
        scn = scenario(sd0)
        quantile_paths = quantile_particle_paths(scn, paths_dump)
        independent_paths = independent_particle_paths(scn, sd0, count)
    else:
        quantile_paths = build_dyadic_lift(
            heat_flow_path(depth, paths_dump), "quantile", depth
        )
        independent_paths = brownian_bundle(sd0, depth, count)

    comp = compare_lifts(q_sampler, sh_sampler, marginal_sampler, spec, cfg)
    ind_est = expected_lift_energy(ind_sampler, spec, cfg)

    points = _holder_points(
        preset, p, depth, n_atoms, cfg, s, range(k_min, k_max + 1)
    )
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
        wp01 = expected_wp(_she_wp_sampler(0, n_atoms, 0.0, 1.0), 2.0, cfg)
        summary["wp_01"] = {"estimate": wp01.mean,
                            "std_error": wp01.std_error, "n": wp01.n}
    files.append(_write_json(out_dir, "demo.json", summary))
    print(f"demo {preset}: slope {slope!r} ({', '.join(sorted(files))})")
    return 0


def _cmd_sde(config, out_dir, seed, preset):
    _check_keys(
        config,
        {"preset", "depth", "substeps", "t0", "quantiles", "x0", "n_seeds",
         "threshold", "zero_noise", "out", "seed"},
        "sde",
    )
    preset = preset or config.get("preset")
    if preset is None:
        raise ConfigError(
            f"missing preset; known: {', '.join(preset_names())}"
        )
    try:
        coeffs = coefficient_preset(preset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    depth = int(config.get("depth", 8))
    substeps = int(config.get("substeps", 4096))
    form2 = preset == "she-form2"
    t0 = float(config.get("t0", 2.0 ** -10 if form2 else 0.0))
    n_seeds = int(config.get("n_seeds", 3))
    threshold = float(config.get("threshold", 5e-2))
    zero_noise = bool(config.get("zero_noise", False))
    quantiles = [float(q) for q in config.get("quantiles", [0.1, 0.5, 0.9])]
    x0 = np.asarray(config.get("x0", [0.0]), dtype=float).reshape(-1)
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    if not quantiles:
        raise ConfigError("quantiles must not be empty")
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
    _check_keys(
        config,
        {"target", "fixture", "p", "alpha", "s", "t", "n_mc", "depth",
         "n_atoms", "lift", "count", "out", "seed"},
        "estimate",
    )
    target = config.get("target")
    if target not in ("wp", "besov_energy", "lift_energy"):
        raise ConfigError(
            "target must be one of wp, besov_energy, lift_energy"
        )
    fixture = config.get("fixture", "she")
    if fixture not in ("heat", "she"):
        raise ConfigError(f"unknown fixture {fixture!r}")
    p = float(config.get("p", 2.0))
    depth = int(config.get("depth", 8))
    n_atoms = int(config.get("n_atoms", 256))
    cfg = McConfig(
        n_mc=int(config.get("n_mc", 1000)), base_seed=seed,
        depth=depth, n_atoms=n_atoms,
    )

    if target == "wp":
        s = float(config.get("s", 0.0))
        t = float(config.get("t", 1.0))
        _dyadic_index(s, depth, "s")
        _dyadic_index(t, depth, "t")
        if fixture == "she":
            sampler = _she_wp_sampler(depth, n_atoms, s, t)
        else:
            mu = heat_flow_marginal(s, n_atoms)
            nu = heat_flow_marginal(t, n_atoms)
            sampler = lambda sd: (mu, nu)
        est = expected_wp(sampler, p, cfg)
        extra = {"s": s, "t": t}
    else:
        alpha = config.get("alpha")
        if alpha is None:
            raise ConfigError(f"target {target!r} needs 'alpha'")
        alpha = float(alpha)
        if fixture == "she":
            curve_sampler = lambda sd: stochastic_heat_scenario(
                sd, depth, n_atoms
            ).measure_path
        else:
            curve = heat_flow_path(depth, n_atoms)
            curve_sampler = lambda sd: curve
        if target == "besov_energy":
            est = process_besov_energy(curve_sampler, alpha, p, cfg)
            extra = {"alpha": alpha}
        else:
            lift_kind = config.get("lift", "quantile")
            count = int(config.get("count", 8))
            if lift_kind == "quantile":
                lift_sampler = lambda sd: build_dyadic_lift(
                    curve_sampler(sd), "quantile", depth
                )
            elif lift_kind == "shuffled":
                lift_sampler = lambda sd: build_shuffled_lift(
                    curve_sampler(sd), _rng.derive_seed(sd, 1)
                )
            elif lift_kind == "independent":
                if fixture == "she":
                    lift_sampler = lambda sd: independent_particle_paths(
                        stochastic_heat_scenario(sd, depth, n_atoms), sd,
                        count,
                    )
                else:
                    lift_sampler = lambda sd: brownian_bundle(
                        sd, depth, count
                    )
            else:
                raise ConfigError(
                    "lift must be one of quantile, shuffled, independent"
                )
            spec = NormSpec(kind="besov", p=p, alpha=alpha)
            est = expected_lift_energy(lift_sampler, spec, cfg)
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
        out = args.out if args.out is not None else config.get("out", ".")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
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

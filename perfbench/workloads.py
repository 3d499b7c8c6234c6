"""The four benchmark workloads: inputs, one timed operation, checks.

A workload makes every input from its seed. ``rounds()`` yields whole
rounds of operation arguments forever; ``op(arg)`` is the timed
operation; ``check(results)`` runs after the timed section and returns
(failed, notes), where failed counts failed operations plus failed
aggregate checks.

``op`` returns a few scalars, never arrays: numpy buffers kept alive
across a long run fragment the heap around the kernels' large
temporaries and slowed path-kernels from 22 to 14 op/s within 15 s.
Checks that need an input array make it again from the operation's seed.

Program calls go through the ``pathlift`` package and ``pathlift.cli``
module attributes, so the traced run sees them.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pathlift as pl
from pathlift import cli

import oracles

# how many standard errors a Monte Carlo mean may sit from its closed form;
# the standard error comes from the exact variance, not the sample
MC_SIGMAS = 5.0


def _seeds(gen, n):
    return [int(s) for s in gen.integers(0, 2 ** 63, size=n)]


class SheMc:
    """Criteria 03 and 04: SHE scenarios, curve energy, quantile and W + B lifts."""

    name = "she-mc"
    depth, atoms, alpha, p, particles = 8, 1024, 0.3, 4.0, 8

    def __init__(self, seed, workdir):
        self.gen = np.random.default_rng(seed)
        self.spec = pl.NormSpec(kind="besov", p=self.p, alpha=self.alpha)

    def warmup(self):
        self.op(_seeds(self.gen, 3))

    def rounds(self):
        while True:
            yield [_seeds(self.gen, 3)]

    def op(self, seeds):
        s_curve, s_small, s_noise = seeds
        scn = pl.stochastic_heat_scenario(
            s_curve, self.depth, self.atoms, with_lift=True
        )
        curve = pl.curve_besov_energy(scn.measure_path, self.alpha, self.p)
        lift = pl.lift_energy(scn.lift, self.spec)
        small = pl.stochastic_heat_scenario(s_small, self.depth, 8)
        ind = pl.lift_energy(
            pl.independent_particle_paths(small, s_noise, count=self.particles),
            self.spec,
        )
        return s_curve, curve, lift, ind

    def check(self, results):
        notes = []
        w = np.array([
            pl.BrownianPath(seed=r[0], depth=self.depth).values[:, 0]
            for r in results
        ])
        curve, lift, ind = (np.array([r[i] for r in results]) for i in (1, 2, 3))
        atoms = oracles.normal_atoms(self.atoms)
        expect = oracles.she_curve_energy(w, self.alpha, atoms)
        bad = (np.abs(lift - curve) > 1e-9) | (
            np.abs(curve - expect) > 1e-9 * expect
        )
        failed = int(bad.sum())
        if failed:
            notes.append(f"{failed} scenarios break lift = curve = expansion")

        # the closed forms of the acceptance suite, re-derived
        q_pop, _ = oracles.she_quantile_energy(self.depth, self.alpha)
        i_mean, i_sd = oracles.she_independent_energy(
            self.depth, self.alpha, self.particles
        )
        if abs(q_pop - oracles.SHE_QUANTILE_ENERGY) > 1e-10 or abs(
            i_mean - oracles.SHE_INDEPENDENT_ENERGY
        ) > 1e-10:
            raise AssertionError("closed forms disagree with the quoted values")
        # with 1024 atoms the grid moments sit below 1 and 3, which moves
        # the quantile mean from 20.2505 to 20.1899
        q_mean, q_sd = oracles.she_quantile_energy(
            self.depth, self.alpha, np.mean(atoms ** 2), np.mean(atoms ** 4)
        )
        n = len(results)
        for label, vals, mean, sd in (
            ("quantile", curve, q_mean, q_sd), ("independent", ind, i_mean, i_sd)
        ):
            z = (float(vals.mean()) - mean) / (sd / math.sqrt(n))
            if abs(z) > MC_SIGMAS:
                failed += 1
                notes.append(f"{label} MC mean is {z:.2f} standard errors off")
        if not float(ind.mean()) > oracles.SHE_QUANTILE_ENERGY:
            failed += 1
            notes.append("independent lift mean does not exceed 20.2505")
        return failed, notes


class PathKernels:
    """Criterion 07: embedding reports on 2^10-step Gaussian paths, p-variation."""

    name = "path-kernels"
    depth, coarse_depth = 10, 8
    reports = ((0.3, 4.0), (0.6, 2.0))
    pvar_p = 1.0 / 0.3
    loop_checked = 2  # the first paths of a run also get the loop checks

    def __init__(self, seed, workdir):
        self.gen = np.random.default_rng(seed)

    def _path(self, seed):
        k = 2 ** self.depth
        steps = np.random.default_rng(seed).standard_normal(k) * math.sqrt(1 / k)
        return np.concatenate([[0.0], np.cumsum(steps)])

    def _arg(self):
        seed = _seeds(self.gen, 1)[0]
        return seed, self._path(seed)

    def warmup(self):
        self.op(self._arg())

    def rounds(self):
        while True:
            yield [self._arg()]

    def op(self, arg):
        seed, values = arg
        path = pl.DyadicPath(self.depth, values)
        reps = [
            pl.embedding_report(path, alpha=a, p=p, include_pvar=False)
            for a, p in self.reports
        ]
        step = 2 ** (self.depth - self.coarse_depth)
        pvar = pl.p_variation(pl.DyadicPath(self.coarse_depth, values[::step]),
                              self.pvar_p)
        return seed, all(r.ok for r in reps), [r.w_energy for r in reps], pvar

    def check(self, results):
        notes = []
        failed = 0
        step = 2 ** (self.depth - self.coarse_depth)
        for i, (seed, ok, w_energies, pvar) in enumerate(results):
            values = self._path(seed)
            coarse = values[::step]
            dissections = oracles.dyadic_level_sums(coarse, self.pvar_p)
            ok &= pvar ** self.pvar_p >= max(dissections) * (1 - 1e-12)
            if i < self.loop_checked:
                ref = oracles.p_variation_loop(coarse, self.pvar_p)
                ok &= abs(pvar ** self.pvar_p - ref) <= 1e-12 * ref
                for w_energy, (a, p) in zip(w_energies, self.reports):
                    ref = oracles.sobolev_energy_loop(values, a, p)
                    ok &= abs(w_energy - ref) <= 1e-9 * ref
            if not ok:
                failed += 1
                notes.append(f"path {i} fails its embedding or kernel checks")
        return failed, notes


class EulerForm2:
    """Criterion 09: form-2 Euler-Maruyama at 2^12 and 2^13 substeps."""

    name = "euler-form2"
    depth, t0_depth = 8, 10
    t0 = 2.0 ** -t0_depth
    substeps = (2 ** 12, 2 ** 13)
    quantiles = (0.1, 0.5, 0.9)

    def __init__(self, seed, workdir):
        self.gen = np.random.default_rng(seed)
        self.coeffs = pl.coefficient_preset("she-form2")
        self.c = {q: NormalDist().inv_cdf(q) for q in self.quantiles}
        times = np.linspace(0.0, 1.0, 2 ** self.depth + 1)
        self.late = times >= self.t0
        self.root_t = np.sqrt(times[self.late])

    def _round(self):
        """One Brownian path and the start c(q) sqrt(t0) + W(t0) of each q.

        t0 is the first point of the level-10 grid, and bridge values on
        that grid are the same at every depth, so W(t0) is read there
        once, outside the timed operations.
        """
        seed = _seeds(self.gen, 1)[0]
        w = pl.BrownianPath(seed=seed, depth=self.depth)
        w_t0 = pl.BrownianPath(seed=seed, depth=self.t0_depth).values[1, 0]
        return [(seed, q, w, self.c[q] * math.sqrt(self.t0) + w_t0)
                for q in self.quantiles]

    def warmup(self):
        self.op(self._round()[0])

    def rounds(self):
        while True:
            yield self._round()

    def op(self, arg):
        seed, q, w, x0 = arg
        devs = []
        # the exact solution started on the quantile curve stays on it
        ref = self.c[q] * self.root_t + w.values[self.late, 0]
        for substeps in self.substeps:
            path = pl.euler_maruyama(
                self.coeffs, w, seed + 1, [x0], substeps, t0=self.t0
            )
            devs.append(float(np.max(np.abs(path.values[self.late, 0] - ref))))
        return (q, *devs)

    def check(self, results):
        notes = []
        failed = 0
        for i, (q, dev, dev_half) in enumerate(results):
            ok = dev < 5e-2
            if dev > 1e-8:
                ok &= 0.375 <= dev_half / dev <= 0.625
            if not ok:
                failed += 1
                notes.append(f"run {i} (q={q}): deviation {dev:.3e}, "
                             f"halved {dev_half:.3e}")
        return failed, notes


class CliMix:
    """In-process ``pathlift`` calls: demo, lift, norms and two estimates.

    Each kind of call is one fifth of the operations and forms its own
    latency cluster. The sizes keep the clusters apart, so that the median
    falls inside the besov ``estimate`` cluster and the 90th percentile
    inside the ``lift`` one, not on an edge where a few stray latencies
    would move them.
    """

    name = "cli-mix"
    path_depth, n_path_files = 10, 4
    configs = {
        "demo": {"p": 4.0, "alpha": 0.3, "depth": 8, "n_atoms": 256,
                 "n_mc": 2, "count": 8},
        "lift": {"fixture": "she", "depth": 7, "n_atoms": 256, "alpha": 0.3,
                 "p": 4.0, "dump_paths": True},
        "estimate-wp": {"target": "wp", "fixture": "she", "p": 2.0, "s": 0.0,
                        "t": 1.0, "n_mc": 100, "depth": 8, "n_atoms": 256},
        "estimate-besov": {"target": "besov_energy", "fixture": "she",
                           "p": 4.0, "alpha": 0.3, "n_mc": 10, "depth": 8,
                           "n_atoms": 256},
    }
    norms = [
        {"kind": "besov", "p": 2.0, "alpha": 0.6},
        {"kind": "holder", "p": 2.0, "gamma": 0.4},
        {"kind": "pvar", "p": 2.5},
        {"kind": "frac_sobolev", "p": 4.0, "alpha": 0.3},
    ]

    def __init__(self, seed, workdir):
        self.gen = np.random.default_rng(seed)
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True)
        self.cfg = {}
        for kind, obj in self.configs.items():
            self.cfg[kind] = self._write_json(f"{kind}.json", obj)
        # path files written here, not by pathlift, so reading them is
        # part of what the norms call is checked on
        k = 2 ** self.path_depth
        self.paths = []
        for i in range(self.n_path_files):
            steps = self.gen.standard_normal(k) * math.sqrt(1.0 / k)
            values = np.concatenate([[0.0], np.cumsum(steps)])
            name = self.dir / f"path{i}.csv"
            with open(name, "w", encoding="utf-8", newline="") as f:
                f.write("t,x_1\r\n")
                for j, v in enumerate(values):
                    f.write(f"{j / k!r},{float(v)!r}\r\n")
            self.paths.append(values)
            self.cfg[f"norms{i}"] = self._write_json(
                f"norms{i}.json", {"input": str(name), "norms": self.norms}
            )
        self.round = 0

    def _write_json(self, name, obj):
        path = self.dir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def _round(self, r, seed, tag):
        calls = [
            ("demo", ["demo", "--preset", "she", "--config", self.cfg["demo"]]),
            ("lift", ["lift", "--config", self.cfg["lift"]]),
            ("norms", ["norms", "--config",
                       self.cfg[f"norms{r % self.n_path_files}"]]),
            ("estimate-wp", ["estimate", "--config", self.cfg["estimate-wp"]]),
            ("estimate-besov",
             ["estimate", "--config", self.cfg["estimate-besov"]]),
        ]
        return [
            (kind, r, argv + ["--seed", str(seed),
                              "--out", str(self.dir / f"{tag}{r:05d}-{kind}")])
            for kind, argv in calls
        ]

    def warmup(self):
        for arg in self._round(0, _seeds(self.gen, 1)[0], "warmup"):
            self.op(arg)

    def rounds(self):
        while True:
            seed = _seeds(self.gen, 1)[0]
            self.round += 1
            yield self._round(self.round - 1, seed, "r")

    def op(self, arg):
        kind, r, argv = arg
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return kind, r, argv, code

    @staticmethod
    def _read_csv(path):
        with open(path, encoding="utf-8", newline="") as f:
            return list(csv.DictReader(f))

    def _bundle_ok(self, kind, r, out):
        if kind == "demo":
            doc = json.loads((out / "demo.json").read_text(encoding="utf-8"))
            cmp_ = doc["comparison"]
            q = cmp_["quantile"]["energy"]
            marg = cmp_["marginal_curve"]["energy"]
            return (
                abs(q - marg) <= 1e-9 * abs(marg)
                and cmp_["shuffled"]["energy"] > q
                and cmp_["lower_bound_ok"] is True
                and cmp_["attains_marginal"] is True
                and all((out / f).is_file() for f in doc["files"])
            )
        if kind == "lift":
            rows = self._read_csv(out / "lift_levels.csv")
            energies = [float(row["energy"]) for row in rows]
            return (
                len(rows) == self.configs["lift"]["depth"] + 1
                and all(row["ok"] == "True" for row in rows)
                and all(a <= b for a, b in zip(energies, energies[1:]))
                and (out / "lift.json").is_file()
                and (out / "lift_paths.csv").is_file()
            )
        if kind == "norms":
            rows = self._read_csv(out / "norms.csv")
            besov = [float(row["value"]) for row in rows if row["kind"] == "besov"]
            ref = oracles.besov_seminorm(
                self.paths[r % self.n_path_files], 0.6, 2.0
            )
            return (
                len(rows) == len(self.norms)
                and len(besov) == 1
                and abs(besov[0] - ref) <= 1e-12 * ref
            )
        doc = json.loads((out / "estimate.json").read_text(encoding="utf-8"))
        return (
            math.isfinite(doc["estimate"]) and doc["estimate"] > 0
            and doc["std_error"] >= 0
            and doc["n"] == self.configs[kind]["n_mc"]
            and (out / "estimate.csv").is_file()
        )

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def check(self, results):
        notes = []
        failed = 0
        for kind, r, argv, code in results:
            out = Path(argv[-1])
            try:
                ok = code == 0 and self._bundle_ok(kind, r, out)
            except (OSError, KeyError, ValueError) as exc:
                ok = False
                notes.append(f"{out.name}: {exc!r}")
            if not ok:
                failed += 1
                notes.append(f"{out.name}: exit {code}" if code
                             else f"{out.name}: bundle fails its checks")
        # determinism: the first round again, into fresh directories
        for kind, r, argv, code in (x for x in results if x[1] == 0):
            again = argv[:-1] + [argv[-1] + "-again"]
            self.op((kind, r, again))
            if self._files(Path(argv[-1])) != self._files(Path(again[-1])):
                failed += 1
                notes.append(f"{kind} bundle differs on a rerun")
        return failed, notes


WORKLOADS = {w.name: w for w in (SheMc, PathKernels, EulerForm2, CliMix)}

"""The least lift energy of a small curve over every lift, by linear program.

A lift of a curve of K slices, each of N equal-weight atoms, is a law on
the N^K paths through the atoms whose time marginals are the slices. Its
energy E_pi[f(path)] is linear in pi, so the least energy over all lifts
is the linear program

    min sum_c f_c pi_c  over pi >= 0 with, for every slice k and atom a,
    the sum of pi_c over the paths c through atom a of slice k = 1/N,

with one column per path. The costs f_c are the library's per-path
energies (``lift_energy`` of the one path), checked against the loop
oracles of ``kernel_oracles``. Tied atoms stay apart as labels; that
changes no minimum, since a coupling of the merged slices splits evenly
over its ties. N^K columns keep this to toy sizes.
"""

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from kernel_oracles import besov_walk, holder_rows, pvar_pull
from pathlift import PathMeasure, lift_energy


def path_columns(atoms):
    """(N^K, K) atom indices of every path through atoms (K, N) and the
    (N^K, K, 1) values of those paths."""
    k, n = atoms.shape
    index = np.array(list(itertools.product(range(n), repeat=k)))
    return index, atoms[np.arange(k), index][..., None]


def _oracle_energy(values, spec):
    """The energy of one path (K, 1) by the loop oracles."""
    if spec.kind == "besov":
        return besov_walk(values[None], np.ones(1), spec.alpha, spec.p)
    if spec.kind == "holder":
        h = 1.0 / (values.shape[0] - 1)
        return holder_rows(values, h, spec.gamma) ** spec.p
    return pvar_pull(values, spec.p)


def path_costs(values, spec):
    """Per-path energies of values (C, K, 1), the library's and the
    oracles' agreeing to 1e-12 relative."""
    depth = (values.shape[1] - 1).bit_length() - 1
    costs = np.array([
        lift_energy(PathMeasure(depth, v[None], np.ones(1)), spec)
        for v in values
    ])
    oracle = np.array([_oracle_energy(v, spec) for v in values])
    np.testing.assert_allclose(costs, oracle, rtol=1e-12, atol=1e-300)
    return costs


def min_lift_energy(atoms, spec):
    """(least energy, optimal pi over path_columns) of every lift of the
    curve whose slice k holds the N equal-weight atoms atoms[k]."""
    k, n = atoms.shape
    index, values = path_columns(atoms)
    cols = len(index)
    marginals = csr_matrix(
        (np.ones(cols * k), ((np.arange(k) * n + index).ravel(),
                             np.repeat(np.arange(cols), k))),
        shape=(k * n, cols),
    )
    res = linprog(path_costs(values, spec), A_eq=marginals,
                  b_eq=np.full(k * n, 1.0 / n), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun, res.x

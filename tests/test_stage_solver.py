"""The stage solver factors the transpose of a pencil, read from the
pencil's own CSR arrays, keeps the sparser of its MMD_AT_PLUS_A and COLAMD
factors, and its iterative refinement never fires on the pencils of the
benchmark workloads: each step calls `solve` once per pencil, and each
call is one triangular solve with the factor."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit import _stepping, experiments
from fieldcircuit._stepping import _StageSolver, _pencil_plan, method_from_tag
from fieldcircuit.integrators import simulate, to_linear_dae


def trapezoidal_pencil(**config):
    cfg = experiments.OscillatorConfig(**config)
    dae = to_linear_dae(experiments.build_oscillator(cfg).system)
    return sp.csc_matrix(dae.E_dae - (0.5 * cfg.tau) * dae.A_dae)


def test_kept_factor_is_the_sparser_on_a_fine_solid_core_pencil():
    pencil = trapezoidal_pencil(conductor_kind="solid", core_conductive=True,
                                mesh_h=0.5e-3)
    nnz = {spec: spla.splu(pencil, permc_spec=spec).nnz
           for spec in ("MMD_AT_PLUS_A", "COLAMD")}
    assert nnz["MMD_AT_PLUS_A"] < nnz["COLAMD"]
    assert _StageSolver(pencil, "solid 0.5 mm")._lu.nnz == min(nnz.values())


def test_kept_factor_is_colamd_on_a_coarse_stranded_pencil():
    # the factor is of the transpose: COLAMD orders the rows of the pencil
    pencil = trapezoidal_pencil(mesh_h=1.0e-3)
    colamd = spla.splu(pencil.T.tocsc(), permc_spec="COLAMD")
    kept = _StageSolver(pencil, "stranded 1 mm")._lu
    assert kept.nnz == colamd.nnz
    assert (kept.perm_c == colamd.perm_c).all()


def scrambled_csr(mat, rng):
    """`mat` as a CSR matrix with every entry stored as two halves, in a
    shuffled order within each row: duplicate and unsorted indices."""
    mat = sp.csr_array(mat)
    data, indices, indptr = [], [], [0]
    for i in range(mat.shape[0]):
        row = slice(mat.indptr[i], mat.indptr[i + 1])
        cols = np.tile(mat.indices[row], 2)
        vals = np.tile(mat.data[row] / 2.0, 2)
        order = rng.permutation(len(cols))
        indices.append(cols[order])
        data.append(vals[order])
        indptr.append(indptr[-1] + len(cols))
    return sp.csr_array((np.concatenate(data), np.concatenate(indices),
                         np.array(indptr)), shape=mat.shape)


@pytest.mark.parametrize("method", ["trapezoidal", "gauss4", "radau5"])
def test_scrambled_pencil_solves_to_round_off(rng, method):
    cfg = experiments.OscillatorConfig(conductor_kind="solid",
                                       core_conductive=True)
    dae = to_linear_dae(experiments.build_oscillator(cfg).system)
    for lam, _, _ in _pencil_plan(method_from_tag(method))[1]:
        pencil = dae.E_dae - (cfg.tau * lam) * dae.A_dae
        dense = pencil.toarray()
        scrambled = scrambled_csr(pencil, rng)
        assert not scrambled.has_canonical_format
        solver = _StageSolver(scrambled, f"scrambled {method}")
        # neither the kept pencil nor the input is changed by the factor
        assert (solver._mat.toarray() == dense).all()
        assert (scrambled.toarray() == dense).all()
        rhs = rng.standard_normal(len(dense))
        x = solver.solve(rhs)
        ref = np.linalg.solve(dense, rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class CountingLU:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, rhs, *args, **kwargs):
        self.solves += 1
        return self.lu.solve(rhs, *args, **kwargs)


@pytest.mark.parametrize("config,methods,steps", [
    # init-stranded
    (dict(mesh_h=0.4e-3), ("trapezoidal",), 500),
    # irk-solid
    (dict(conductor_kind="solid", core_conductive=True, mesh_h=0.5e-3),
     ("trapezoidal", "gauss4", "radau5"), 500),
    # the oscillator command of sweep-small
    (dict(), ("trapezoidal",), 500),
])
def test_refinement_never_fires_on_bench_pencils(sparse_stepper,
                                                 monkeypatch, config,
                                                 methods, steps):
    kept, solved = [], []
    init, solve = _StageSolver.__init__, _StageSolver.solve

    def counting_init(self, mat, context, permc_spec=None):
        init(self, mat, context, permc_spec)
        self._lu = CountingLU(self._lu)
        kept.append(self._lu)

    def counting_solve(self, rhs):
        solved.append(self._lu)
        return solve(self, rhs)

    monkeypatch.setattr(_stepping._StageSolver, "__init__", counting_init)
    monkeypatch.setattr(_stepping._StageSolver, "solve", counting_solve)
    cfg = experiments.OscillatorConfig(**config)
    parts = experiments.build_oscillator(cfg)
    for method in methods:
        kept.clear()
        solved.clear()
        simulate(parts.system, parts.z0, parts.u, cfg.tau, steps * cfg.tau,
                 method)
        # one `solve` per pencil per step
        assert kept and [solved.count(lu) for lu in kept] == \
            [steps] * len(kept)
        assert len(solved) == steps * len(kept)
        # one lu.solve per solve: no refinement
        assert [lu.solves for lu in kept] == [steps] * len(kept)

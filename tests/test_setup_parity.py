"""The stamped setup chain gives the arrays of the block-by-block one.

`mna_system` stamps its blocks, `_rearrange` places the blocks of J − R, E,
M1 and S by offsets, and `consistent_init` builds its bases from entry
arrays.  Against the references of `oracles` (one sparse matrix per element
column, per diagonal and per zero block), every EnergySystem block, E_dae,
A_dae, B_dae and the constraint rows (C, D) have the same `indptr`,
`indices` and `data` arrays and dtypes, and z0 is bit-identical: on every
corpus netlist (field ports with small conductor models), on netlists of
parallel branches, on the 1 mm stranded, solid-core and index-2
oscillators, and on random systems, half of them with a singular E and
two with a gradient state outside the pivot set.
"""
import pathlib

import numpy as np
import pytest

from fieldcircuit import _dae, coupling, experiments
from fieldcircuit.conductors import (SolidModel, StrandedModel, load_model,
                                     save_model, synth_foil)
from fieldcircuit._dae import constraint_basis
from fieldcircuit.integrators import consistent_init, to_linear_dae
from fieldcircuit.mna import (build_incidence, mna_system, parse_netlist,
                              read_netlist)
from fieldcircuit.structure import EnergySystem, StructureError
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from tests.conftest import random_energy_system
from tests.oracles import (reference_consistent_init,
                           reference_constraint_basis, reference_incidences,
                           reference_mna_system, reference_rearrange)

VALID = sorted((pathlib.Path(__file__).parent / "netlists" / "valid")
               .glob("*.cir"))
BLOCKS = ("E", "J", "R", "B", "M1", "M2", "S")


def assert_same_arrays(got, ref, dtypes=True):
    assert type(got) is type(ref)
    assert got.shape == ref.shape
    nnz = got.indptr[-1]
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices[:nnz], ref.indices[: ref.indptr[-1]])
    assert got.data[:nnz].tobytes() == ref.data[: ref.indptr[-1]].tobytes()
    if dtypes:
        assert (got.indptr.dtype, got.indices.dtype, got.data.dtype) == \
            (ref.indptr.dtype, ref.indices.dtype, ref.data.dtype)


def assert_same_setup(system, differential_values, u):
    """The rewrite, the constraint rows and z0 of `system` equal the
    references', array for array and bit for bit."""
    dae = to_linear_dae(system)
    ref = reference_rearrange(system)
    for got, want in zip((dae.E_dae, dae.A_dae, dae.B_dae), ref):
        assert_same_arrays(got, want)
    for got, want in zip(constraint_basis(dae),
                         reference_constraint_basis(*ref,
                                                    system.partition.n1)):
        assert_same_arrays(got, want)
    u_val = u(0.0) if callable(u) else u
    u_dot = u.derivative(0.0) if hasattr(u, "derivative") \
        else np.zeros(system.m)
    z0 = consistent_init(system, differential_values, u)
    want = reference_consistent_init(system, differential_values, u_val,
                                     u_dot)
    assert z0.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def port_models(tmp_path_factory):
    """One 4-dof model per model name of the field-port netlists, two of
    them conductive on part of their dofs, so the gradient-state pivots of
    `consistent_init` are eliminated."""
    rng = np.random.default_rng(11)

    def spd(n):
        g = rng.standard_normal((n, n))
        return g @ g.T + 0.1 * np.eye(n)

    k_nu, m_sig = spd(4), spd(4)
    m_part = np.zeros((4, 4))
    m_part[:2, :2] = spd(2)
    chi = rng.standard_normal((4, 1))
    models = {
        "coil": StrandedModel(m_part, k_nu, rng.standard_normal((4, 1)),
                              np.array([[0.1]])),
        "ws": StrandedModel(np.zeros((4, 4)), k_nu,
                            rng.standard_normal((4, 1)), np.array([[0.1]])),
        "xfmr": StrandedModel(np.zeros((4, 4)), k_nu,
                              rng.standard_normal((4, 2)), np.zeros((2, 2))),
        "bar": SolidModel(m_sig, k_nu, chi, chi.T @ m_sig @ chi),
    }
    models["sol"] = models["bar"]
    for name, seed in (("winding", 0), ("hv", 1), ("fl", 2)):
        models[name] = synth_foil(m_part, 1, seed, k_nu=k_nu)
    root = tmp_path_factory.mktemp("models")
    for name, model in models.items():
        save_model(model, str(root / name))
    return root


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_corpus_setup_matches_reference(path, port_models):
    nl = read_netlist(str(path))
    inc = build_incidence(nl)
    for got, want in zip((inc.a_c, inc.a_r, inc.a_l, inc.a_v, inc.a_i),
                         reference_incidences(nl, inc)):
        # the per-card columns were stacked with int64 indices
        assert_same_arrays(got, want, dtypes=False)
    circuit = mna_system(inc)
    ref = reference_mna_system(inc)
    for name in BLOCKS:
        assert_same_arrays(getattr(circuit, name), getattr(ref, name))
    models = {port.model_ref: load_model(str(port_models / port.model_ref))
              for port in inc.field_ports}
    try:
        _, systems, binding = coupling.bind_circuit(inc, models)
        system = coupling.couple(circuit, systems, binding)
    except StructureError:
        assert path.stem == "foil_second_terminal"
        return
    u = coupling.coupled_input_stack(binding, nl, inc)
    assert_same_setup(system, np.zeros(system.n), u)


def test_parallel_branches_sum_like_the_reference():
    # three R and three C on each of five node pairs: every entry of E and
    # R sums three or more stamps, in an order that shows in the last bits
    rng = np.random.default_rng(5)
    pairs = [(1, 0), (1, 2), (2, 3), (3, 0), (3, 1)]
    for _ in range(10):
        lines = ["V1 1 0 DC 1", "L1 2 0 1m"]
        for k in range(30):
            a, b = pairs[k % len(pairs)]
            lines.append(f"{'RC'[k % 2]}{k} {a} {b} "
                         f"{rng.uniform(0.1, 10.0):.17g}")
        inc = build_incidence(parse_netlist("\n".join(lines)))
        circuit, ref = mna_system(inc), reference_mna_system(inc)
        for name in BLOCKS:
            assert_same_arrays(getattr(circuit, name), getattr(ref, name))


@pytest.mark.parametrize("config,extra", [
    (dict(), ()),
    (dict(conductor_kind="solid", core_conductive=True), ()),
    (dict(v0=0.0), ("V1 1 0 SIN 0 1 50000",)),
], ids=["stranded", "solid-core", "index2"])
def test_oscillator_setup_matches_reference(config, extra):
    parts = experiments.build_oscillator(
        experiments.OscillatorConfig(mesh_h=1.0e-3, **config),
        extra_cards=extra)
    values = np.zeros(parts.system.n)
    values[parts.phi_index] = parts.config.v0
    assert_same_setup(parts.system, values, parts.u)


@pytest.mark.parametrize("singular_e", [False, True])
def test_random_system_setup_matches_reference(singular_e):
    rng = np.random.default_rng(20261019)
    for k in range(9):
        sys_r = random_energy_system(rng, n1=k % 3, n2=1 + k % 4,
                                     n3=k % 2 + 1, m=1 + k % 2,
                                     singular_e=singular_e)
        u = WaveformStack(tuple(Sinusoid(rng.uniform(-1, 1), 1.0, 0.3)
                                for _ in range(sys_r.m)))
        assert_same_setup(sys_r, rng.standard_normal(sys_r.n), u)


def test_coupled_pivot_rows_setup_matches_reference():
    # R vanishes on the second gradient state, so F11 has one zero on its
    # diagonal: the pivot rows reach that column through J11 (E[P, K] ≠ 0),
    # and the Schur update E[Q, P] X sums three pivot columns per row
    rng = np.random.default_rng(20261020)
    for singular_e in (False, True):
        sys_r = random_energy_system(rng, n1=4, n2=3, n3=2, m=2,
                                     singular_e=singular_e)
        g = rng.standard_normal((sys_r.n, sys_r.n))
        g[1] = 0.0
        r = g @ g.T + 0.5 * np.diag(np.arange(sys_r.n) != 1)
        sys_c = EnergySystem(sys_r.partition, E=sys_r.E, J=sys_r.J, R=r,
                             B=sys_r.B, M1=sys_r.M1, M2=sys_r.M2, S=sys_r.S)
        u = WaveformStack((Sinusoid(0.2, 1.0, 0.3), Sinusoid(-0.4, 0.5, 0.2)))
        assert_same_setup(sys_c, rng.standard_normal(sys_c.n), u)


def test_circuit_init_makes_one_factorization(monkeypatch):
    # no gradient states (n1 = 0): the least-squares system is the only
    # matrix factored; no empty pivot block is
    nl = read_netlist(str(VALID[0].parent / "rlc_series.cir"))
    system = mna_system(build_incidence(nl))
    assert system.partition.n1 == 0
    factored = []
    splu = _dae.spla.splu

    def recording_splu(mat, *args, **kwargs):
        factored.append(mat.shape)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(_dae.spla, "splu", recording_splu)
    consistent_init(system, np.zeros(system.n), np.zeros(system.m))
    assert len(factored) == 1 and factored[0][0] > 0

"""The audit of a span forms only the columns the power balance reads: its
outputs, dissipated powers and energies equal, byte for byte, those of the
full-width midpoint and flow (`oracles.reference_bookkeeping`); and
`row_dots` sums C-ordered products whatever the layout of its operands."""

import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit import _audit
from fieldcircuit._audit import energy_bookkeeping
from fieldcircuit.coupling import bind_circuit, couple, coupled_input_stack
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit.integrators import consistent_init, simulate
from fieldcircuit.mna import build_incidence, mna_system, read_netlist
from fieldcircuit.structure import Partition, block_rows, row_dots
from tests.conftest import random_energy_system
from tests.oracles import reference_bookkeeping

NETLISTS = pathlib.Path(__file__).parent / "netlists" / "valid"

# steps per block in the runs with short blocks, and a span length that is
# not a whole number of them
BLOCK = 5
STEPS = 2 * BLOCK + 3


def assert_same_audit(sys, states, tau):
    """Midpoint and endpoint audits equal the full-width reference's bytes."""
    for endpoint in (False, True):
        got = energy_bookkeeping(sys, states, tau, endpoint)
        want = reference_bookkeeping(sys, states, tau, endpoint)
        for name, a, b in zip(("y", "dissipated", "h"), got, want):
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), (name, endpoint)


@pytest.fixture
def short_blocks(monkeypatch):
    monkeypatch.setattr(_audit, "block_rows", lambda width: BLOCK)


@pytest.mark.parametrize("kind", ["stranded", "solid"])
@pytest.mark.parametrize("blocks", ["natural", "short"])
def test_oscillator_audit_equals_full_width(kind, blocks, monkeypatch):
    # lossless stranded (R stores nothing) and lossy solid, at 1 mm
    parts = build_oscillator(OscillatorConfig(
        conductor_kind=kind, core_conductive=kind == "solid", mesh_h=1e-3))
    sys, tau = parts.system, parts.config.tau
    assert (sys.R.nnz == 0) == (kind == "stranded")
    assert sys.m >= 2
    steps = block_rows(sys.n) + 7
    traj = simulate(sys, parts.z0, parts.u, tau, steps * tau, "trapezoidal")
    if blocks == "short":
        monkeypatch.setattr(_audit, "block_rows", lambda width: BLOCK)
    assert_same_audit(sys, traj.states, tau)
    assert_same_audit(sys, traj.states[: STEPS + 1], tau)


def test_corpus_rlc_audit_equals_full_width(short_blocks):
    nl = read_netlist(str(NETLISTS / "rlc_series.cir"))
    inc = build_incidence(nl)
    _, systems, binding = bind_circuit(inc, {})
    sys = couple(mna_system(inc), systems, binding)
    u = coupled_input_stack(binding, nl, inc)
    assert sys.R.nnz
    tau = 1e-6
    for method in ("trapezoidal", "implicit_euler"):
        traj = simulate(sys, consistent_init(sys, np.zeros(sys.n), u), u,
                        tau, STEPS * tau, method)
        assert_same_audit(sys, traj.states, tau)


def _with_r_on(rng, sys, lo, hi):
    """The system with an SPD R on the states [lo, hi) and none elsewhere."""
    g = rng.standard_normal((hi - lo, hi - lo))
    r = np.zeros((sys.n, sys.n))
    r[lo:hi, lo:hi] = g @ g.T + np.eye(hi - lo)
    return dataclasses.replace(sys, R=r)


@pytest.mark.parametrize("blocks", ["natural", "short"])
def test_random_audit_equals_full_width(rng, blocks, monkeypatch):
    if blocks == "short":
        monkeypatch.setattr(_audit, "block_rows", lambda width: BLOCK)
    tau = 0.05
    for n1, n2, n3, m in ((3, 3, 2, 2), (4, 2, 3, 3), (0, 3, 2, 2),
                          (3, 0, 2, 1), (2, 2, 0, 2)):
        base = random_energy_system(rng, n1, n2, n3, m)
        # B on a few rows only, so w leaves columns out
        b = base.B.toarray()
        b[rng.permutation(base.n)[: base.n // 2]] = 0.0
        base = dataclasses.replace(base, B=b)
        systems = [base, dataclasses.replace(base, R=np.zeros((base.n,) * 2))]
        if n1:
            systems.append(_with_r_on(rng, base, 0, n1))
        if n3:
            systems.append(_with_r_on(rng, base, n1 + n2, base.n))
        states = rng.standard_normal((STEPS + 1, base.n))
        for sys in systems:
            assert_same_audit(sys, states, tau)


def test_audit_without_ports_or_read_columns(rng):
    sys = random_energy_system(rng, 2, 2, 1, 2)
    lossless = np.zeros((sys.n, sys.n))
    states = rng.standard_normal((4, sys.n))
    # B and R store nothing: no column of w is formed
    assert_same_audit(dataclasses.replace(sys, B=np.zeros((sys.n, 2)),
                                          R=lossless), states, 0.1)
    # no ports at all
    assert_same_audit(dataclasses.replace(
        sys, partition=Partition(2, 2, 1, 0), B=np.zeros((sys.n, 0)),
        R=lossless), states, 0.1)


def test_row_dots_is_the_sum_of_contiguous_products(rng):
    base = rng.standard_normal((40, 23))
    other = rng.standard_normal((40, 23))
    operands = {
        "C": base,
        "F": np.asfortranarray(base),
        "view": rng.standard_normal((80, 69))[::2, ::3],
        "transposed": rng.standard_normal((23, 40)).T,
    }
    for name_x, x in operands.items():
        for name_y, y in (("C", other), ("F", np.asfortranarray(other)),
                          ("view", operands["view"])):
            want = np.sum(np.ascontiguousarray(x) * np.ascontiguousarray(y),
                          axis=1)
            got = row_dots(x, y)
            assert got.tobytes() == want.tobytes(), (name_x, name_y)
    # one row against a stack, as `simulate` sums the supplied power
    u = rng.standard_normal(23)
    want = np.sum(np.ascontiguousarray(operands["F"]) * u, axis=1)
    assert row_dots(operands["F"], u).tobytes() == want.tobytes()
    # rows longer than numpy's 8192-element reduction buffer
    x, y = rng.standard_normal((2, 3, 9000))
    want = np.sum(x * y, axis=1)
    assert row_dots(np.asfortranarray(x), y).tobytes() == want.tobytes()


def test_audit_reads_r_through_its_stored_entries(rng):
    # an R whose stored pattern is not symmetric: a column of R that no
    # stored row of R holds is still read through w
    sys = random_energy_system(rng, 3, 2, 2, 2)
    r = sp.csr_array(([2.0, 0.5], ([1, 1], [1, 5])), shape=(sys.n, sys.n))
    sys = dataclasses.replace(sys, R=r, B=np.zeros((sys.n, 2)))
    assert_same_audit(sys, rng.standard_normal((STEPS + 1, sys.n)), 0.1)

import os

import numpy as np
import pytest

from fieldcircuit import _stepping, serialization
from fieldcircuit.integrators import consistent_init
from fieldcircuit.structure import EnergySystem, Partition
from fieldcircuit.waveforms import Sinusoid, WaveformStack


def random_energy_system(rng, n1=3, n2=3, n3=2, m=2, singular_e=False,
                         lossless=False):
    """Random valid quadratic system: skew J, PSD R, SPD masses, EᵀS = M2.

    E is derived from (S, M2) as S^{-T} M2 so the effort compatibility holds
    exactly.  With `singular_e`, M2 gets a zero eigenvalue.  With `lossless`,
    R = 0.
    """
    n = n1 + n2 + n3

    def spd(k, singular=False):
        if k == 0:
            return np.zeros((0, 0))
        g = rng.standard_normal((k, k))
        mat = g @ g.T + k * np.eye(k)
        if singular and k > 0:
            w, v = np.linalg.eigh(mat)
            w[0] = 0.0
            mat = (v * w) @ v.T
            mat = 0.5 * (mat + mat.T)
        return mat

    m1 = spd(n1)
    m2 = spd(n2, singular=singular_e)
    s = spd(n2) + np.eye(n2)          # SPD, hence invertible
    e = np.linalg.solve(s.T, m2) if n2 else np.zeros((0, 0))
    a = rng.standard_normal((n, n))
    j = 0.5 * (a - a.T)
    if lossless:
        r = np.zeros((n, n))
    else:
        g = rng.standard_normal((n, n))
        r = g @ g.T + 0.5 * np.eye(n)  # SPD keeps the algebraic block regular
    b = rng.standard_normal((n, m))
    return EnergySystem(Partition(n1, n2, n3, m), E=e, J=j, R=r, B=b,
                        M1=m1, M2=m2, S=s)


def random_draws():
    """Twelve consistent (system, z0, u) draws, every other one with a
    singular E."""
    rng = np.random.default_rng(20261018)
    for k in range(12):
        singular = bool(k % 2)
        sys_r = random_energy_system(rng, n1=k % 3, n2=2 + k % 3,
                                     n3=1 + k % 2, m=1 + k % 2,
                                     singular_e=singular)
        u = WaveformStack(tuple(
            Sinusoid(rng.uniform(-1, 1), rng.uniform(0.2, 2.0),
                     rng.uniform(0.05, 0.5)) for _ in range(sys_r.m)))
        # with singular E, the null direction of E in z2 is solved too
        z0 = consistent_init(sys_r, rng.standard_normal(sys_r.n), u)
        yield sys_r, z0, u


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def sparse_stepper(monkeypatch):
    """`simulate` steps every system on its sparse path, the full pencils:
    the cost rules condense and reduce none."""
    monkeypatch.setattr(_stepping, "_condenses", lambda *args: False)
    monkeypatch.setattr(_stepping, "_reduces", lambda *args: False)


# the CSV writer splits a file only where it can fork
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="no os.fork or os.sched_getaffinity on this platform")


def force_csv_slices(monkeypatch, count):
    """Make the CSV writer format a file of at least `count` rows in
    `count` slices, whatever the CPUs of this host: every slice may be one
    value, and this process may run on `count` CPUs.  Returns the list the
    pid of each forked process is appended to."""
    monkeypatch.setattr(serialization, "_MIN_SLICE_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fieldcircuit.waveforms import (Constant, Sinusoid, Tabulated,
                                    WaveformStack, zero_input)


def test_constant():
    w = Constant(3.5)
    assert w(0.0) == 3.5
    assert w(1e9) == 3.5
    assert w.derivative(2.0) == 0.0


@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0.01, 1e4), st.floats(-3, 3), st.floats(-1, 1))
def test_sinusoid_matches_formula(off, amp, f, phase, t):
    w = Sinusoid(off, amp, f, phase)
    assert w(t) == pytest.approx(off + amp * np.sin(2 * np.pi * f * t + phase),
                                 rel=1e-12, abs=1e-12)


def test_sinusoid_derivative_finite_difference():
    w = Sinusoid(0.0, 2.0, 50e3, 0.3)
    t, eps = 1.7e-5, 1e-9
    fd = (w(t + eps) - w(t - eps)) / (2 * eps)
    assert w.derivative(t) == pytest.approx(fd, rel=1e-6)


def test_tabulated_interpolates():
    w = Tabulated((0.0, 1.0, 3.0), (0.0, 2.0, 2.0))
    assert w(0.5) == pytest.approx(1.0)
    assert w(2.0) == pytest.approx(2.0)
    assert w(-5.0) == 0.0       # clamped
    assert w(9.0) == 2.0
    assert w.derivative(0.5) == pytest.approx(2.0)
    assert w.derivative(9.0) == 0.0


def test_tabulated_rejects_unsorted():
    with pytest.raises(ValueError):
        Tabulated((0.0, 0.0), (1.0, 2.0))


def test_stack_evaluates_componentwise():
    u = WaveformStack((Constant(1.0), Sinusoid(0, 1, 1, 0)))
    assert u.dim == 2
    np.testing.assert_allclose(u(0.25), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(u.derivative(0.0), [0.0, 2 * np.pi],
                               rtol=1e-12)


def test_zero_input():
    u = zero_input(3)
    assert u.dim == 3
    assert np.all(u(1.23) == 0.0)


# --- array sampling: `at` is the per-time call, bit for bit ------------------

finite = st.floats(-1e6, 1e6, allow_nan=False)
time_arrays = st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                       max_size=40).map(lambda ts: np.array(ts, dtype=float))


def per_time(w, times):
    """What `simulate` read before `at`: one call per time."""
    return np.array([w(t) for t in times], dtype=np.float64)


@given(finite, time_arrays)
def test_constant_at_is_the_per_time_call(value, times):
    w = Constant(value)
    assert np.array_equal(w.at(times), per_time(w, times))


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.01, 1e6),
       st.floats(-3, 3), time_arrays)
def test_sinusoid_at_is_the_per_time_call(off, amp, f, phase, times):
    w = Sinusoid(off, amp, f, phase)
    assert np.array_equal(w.at(times), per_time(w, times))


@st.composite
def tables(draw):
    """A table of 1 to 8 increasing samples."""
    ts = sorted(draw(st.sets(st.floats(-100, 100, allow_nan=False),
                             min_size=1, max_size=8)))
    vs = draw(st.lists(finite, min_size=len(ts), max_size=len(ts)))
    return Tabulated(tuple(ts), tuple(vs))


@given(tables(), time_arrays)
def test_tabulated_at_is_the_per_time_call(w, times):
    # the times reach far outside the table, where it is held constant
    times = np.concatenate([times, w.times])
    assert np.array_equal(w.at(times), per_time(w, times))


def test_tabulated_at_with_one_sample_and_times_outside():
    w = Tabulated((2.0,), (-3.5,))
    times = np.array([-1e9, 1.999, 2.0, 2.001, 1e9])
    assert np.array_equal(w.at(times), per_time(w, times))
    assert np.array_equal(w.at(times), np.full(5, -3.5))


@given(finite, tables(), st.floats(0.01, 1e4), time_arrays)
def test_stack_at_is_the_per_time_call(value, table, f, times):
    u = WaveformStack((Constant(value), table, Sinusoid(0.1, 2.0, f, 0.3)))
    sampled = u.at(times)
    assert sampled.shape == (times.size, 3)
    assert np.array_equal(sampled, per_time(u, times).reshape(times.size, 3))


def test_empty_stack_at_has_no_columns():
    assert zero_input(0).at(np.arange(4.0)).shape == (4, 0)

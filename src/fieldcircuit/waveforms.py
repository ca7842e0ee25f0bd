"""Input waveforms: evaluable u(t) signals with closed-form derivatives.

Three primitives cover every experiment in the package: constants, sinusoids,
and tabulated signals with linear interpolation.  A WaveformStack bundles one
scalar waveform per input port into the vector-valued u(t) the integrators
consume.  Each also samples a whole array of times at once (`at`), with the
float expression of its per-time call, so the values are the same bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constant:
    value: float = 0.0

    def __call__(self, t: float) -> float:
        return self.value

    def at(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value, dtype=np.float64)

    def derivative(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Sinusoid:
    """offset + amplitude * sin(2π f t + phase)."""

    offset: float
    amplitude: float
    freq_hz: float
    phase_rad: float = 0.0

    def __call__(self, t: float) -> float:
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.freq_hz * t + self.phase_rad)

    def at(self, times: np.ndarray) -> np.ndarray:
        return self(np.asarray(times, dtype=np.float64))

    def derivative(self, t: float) -> float:
        w = 2.0 * np.pi * self.freq_hz
        return self.amplitude * w * np.cos(w * t + self.phase_rad)


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear interpolation of sample points; constant outside."""

    times: tuple
    values: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape or t.size < 1:
            raise ValueError("tabulated waveform needs matching 1-d samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tabulated times must be strictly increasing")
        object.__setattr__(self, "times", tuple(t))
        object.__setattr__(self, "values", tuple(v))

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def at(self, times: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(times, dtype=np.float64), self.times,
                         self.values)

    def derivative(self, t: float) -> float:
        ts = np.asarray(self.times)
        vs = np.asarray(self.values)
        if t <= ts[0] or t >= ts[-1] or ts.size == 1:
            return 0.0
        k = int(np.searchsorted(ts, t, side="right")) - 1
        k = min(k, ts.size - 2)
        return float((vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k]))


@dataclass(frozen=True)
class WaveformStack:
    """Vector-valued input u(t) assembled from per-port scalar waveforms."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def dim(self) -> int:
        return len(self.components)

    def __call__(self, t: float) -> np.ndarray:
        return np.array([w(t) for w in self.components], dtype=np.float64)

    def at(self, times: np.ndarray) -> np.ndarray:
        """u(t) at each of a 1-D array of times, one row per time."""
        out = np.empty((len(times), self.dim))
        for i, w in enumerate(self.components):
            out[:, i] = w.at(times)
        return out

    def derivative(self, t: float) -> np.ndarray:
        return np.array([w.derivative(t) for w in self.components], dtype=np.float64)


def zero_input(m: int) -> WaveformStack:
    return WaveformStack(tuple(Constant(0.0) for _ in range(m)))

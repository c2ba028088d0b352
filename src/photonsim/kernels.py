"""Closed-form scalar kernels of the network.

The linear frequency response of the two-qubit loop is a symmetric 2x2
unitary with entries (theta1, theta2); the two-photon nonlinearity enters
through a single rational kernel of four real frequencies.  Everything
here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, WindowTooNarrow
from .model import (
    FrequencyGrid,
    NetworkParams,
    PulseSpec,
    pulse_amplitude,
    pulse_tail_mass,
)


@dataclass(frozen=True)
class LinearResponse:
    """Row (theta1, theta2) of the network's unitary frequency response at
    one real frequency: theta1 is the same-channel amplitude, theta2 the
    cross-channel amplitude."""

    theta1: complex
    theta2: complex


def theta(omega: float, params: NetworkParams) -> LinearResponse:
    """Linear response at frequency ``omega``: theta_arrays at one point."""
    t1, t2 = theta_arrays(omega, params)
    return LinearResponse(complex(t1), complex(t2))


def theta_arrays(omegas: np.ndarray, params: NetworkParams):
    """Linear response (theta1, theta2) over an array of real frequencies.

    theta1 = (w + omega_c) / (w + omega_c - 2i*kappa)
    theta2 = 2i*kappa / (w + omega_c - 2i*kappa)

    kappa = 0 is a pass-through network; it is handled as an explicit
    branch returning (1, 0) so the 0/0 at omega = -omega_c resolves to the
    correct decoupled limit.
    """
    omegas = np.asarray(omegas, dtype=float)
    if params.kappa == 0.0:
        return np.ones(omegas.shape, dtype=complex), np.zeros(omegas.shape, dtype=complex)
    den = omegas + params.omega_c - 2j * params.kappa
    return (omegas + params.omega_c) / den, 2j * params.kappa / den


def cmul(x, y):
    """x * y, rounded as Python's complex product (up to the sign of a zero
    part) for scalars and arrays alike: numpy's vectorised complex multiply
    may fuse multiply-adds, so a batch would not round like the same
    values taken one at a time."""
    return x.real * y.real - x.imag * y.imag + 1j * (x.real * y.imag + x.imag * y.real)


def g_kernel(omega1, omega2, nu1, nu2, params: NetworkParams):
    """Two-photon nonlinear kernel of the feedback loop.

    Rational in all four real frequencies with poles a distance 2*kappa
    off the real axis, so it is finite everywhere on real arguments for
    kappa > 0.  Returns exactly 0 when kappa = 0 (the kappa^(3/2)
    prefactor).  Broadcasts over ndarray arguments.
    """
    k = params.kappa
    if k == 0.0:
        shape = np.broadcast(
            np.asarray(omega1), np.asarray(omega2), np.asarray(nu1), np.asarray(nu2)
        ).shape
        return np.zeros(shape, dtype=complex) if shape else 0.0j
    wc = params.omega_c
    two_ik = 2j * k
    s = nu1 + nu2 + 2.0 * wc
    out = (
        (-1j * k ** 1.5 / math.pi)
        * ((s - 4j * k) / cmul(omega1 + wc + two_ik, omega2 + wc - two_ik))
        * (s / ((nu1 + wc - two_ik) * (nu2 + wc - two_ik) * (s - two_ik)))
    )
    return out


@dataclass(frozen=True)
class SinglePhotonOutput:
    """Output spectra when a single photon enters the left channel.

    eta_l and eta_r are the left/right output-channel amplitudes sampled
    on ``grid``; tail_mass is the input-pulse intensity outside the grid.
    """

    grid: FrequencyGrid
    eta_l: np.ndarray
    eta_r: np.ndarray
    tail_mass: float

    def __post_init__(self):
        for name in ("eta_l", "eta_r"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (self.grid.n,):
                raise ShapeMismatch(f"{name} must have shape ({self.grid.n},)")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def single_photon_output(
    pulse: PulseSpec, grid: FrequencyGrid, params: NetworkParams
) -> SinglePhotonOutput:
    """Pointwise map of an input pulse through the linear response.

    eta_l = theta1 * amplitude, eta_r = theta2 * amplitude on the grid.
    The grid should cover the pulse (tail below ~1e-4) when the arrays
    are meant to represent the full output state; the reported tail_mass
    makes the truncation visible, and grids missing more than 1e-2 of the
    pulse intensity are rejected as too narrow.
    """
    tail = pulse_tail_mass(pulse, grid.min, grid.max)
    if tail > 1e-2:
        raise WindowTooNarrow(
            f"grid misses {tail:.3e} of the input pulse intensity", tail_bound=tail
        )
    pts = grid.points
    t1, t2 = theta_arrays(pts, params)
    xi = pulse_amplitude(pulse, pts)
    return SinglePhotonOutput(grid=grid, eta_l=t1 * xi, eta_r=t2 * xi, tail_mass=tail)

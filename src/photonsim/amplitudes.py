"""Joint spectral amplitudes of the steady-state two-photon output.

Each output channel pair (LL, LR, RR) has an amplitude built from two
single-photon scattering products plus one shared nonlinear convolution
term.  On frequency vectors, with a = theta1 * pulse and b = theta2 *
pulse of each input side, the linear part of a channel is a sum of two
outer products x(omega1) y(omega2), its (x, y) table (CHANNEL_PAIRS):

    LL: (a_l, b_r) + (b_r, a_l)   LR: (a_l, a_r) + (b_r, b_l)
    RR: (b_l, a_r) + (a_r, b_l)

``assemble`` is the one place that adds prefactor * J, with J the
reduced convolution at s = omega1 + omega2, to the linear parts.  The
prefactor is u(omega1) u(omega2) s' F(s) (see sum_factor): callers pass
F * J, one value per sum, and assemble multiplies in u u s' per node.
Grid fills and the tabulated probabilities window take J from one
batched Gauss-Kronrod ladder (``ladder``: quadrature.j_lines with one
rung per distinct frequency sum, 2n - 1 on an n-point grid), and
amplitudes_at and t_ll/t_lr/t_rr one rung per point; no output path
uses the closed-form oracle.residue_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .kernels import theta_arrays
from .model import (
    FrequencyGrid,
    NetworkParams,
    TwoPhotonInput,
    pulse_amplitude,
)
# j_line is re-exported: perfbench/tracing.py patches it at this import site.
from .quadrature import QuadConfig, j_line, j_lines  # noqa: F401


class Channel(Enum):
    LL = "ll"
    LR = "lr"
    RR = "rr"


@dataclass(frozen=True)
class JointAmplitude:
    """Amplitude matrix of one output-channel pair on grid1 x grid2.

    values[i, j] is the amplitude at (grid1.points[i], grid2.points[j]);
    max_point_error is the worst convolution error estimate over the grid.
    """

    channel: Channel
    grid1: FrequencyGrid
    grid2: FrequencyGrid
    values: np.ndarray
    max_point_error: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid1.n, self.grid2.n):
            raise ValidationError(
                f"values shape {values.shape} != ({self.grid1.n}, {self.grid2.n})"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("amplitude matrix contains non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def t_ll(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """Both photons in the left output channel."""
    return complex(amplitudes_at(omega1, omega2, inp, params, cfg).ll[0])


def t_lr(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """One photon in each output channel (omega1 on the left)."""
    return complex(amplitudes_at(omega1, omega2, inp, params, cfg).lr[0])


def t_rr(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """Both photons in the right output channel."""
    return complex(amplitudes_at(omega1, omega2, inp, params, cfg).rr[0])


def sum_factor(sums, params: NetworkParams):
    """F(s) = (-2i kappa^2 / pi) (s' - 4i kappa) / (s' - 2i kappa), s' = s + 2 omega_c:
    the factor of the convolution prefactor that depends on the pair only
    through s = omega1 + omega2.  The whole prefactor (the channel factor
    times oracle.conv_prefactor) is u(omega1) u(omega2) s' F(s), with
    u(omega) = 1 / (omega + omega_c - 2i kappa)."""
    k = params.kappa
    s = np.asarray(sums, dtype=float) + 2.0 * params.omega_c
    return (-2j * k**2 / math.pi) * (s - 4j * k) / (s - 2j * k)


# The (x, y) table of the module docstring as indices into single_factors.
_A_L, _B_L, _A_R, _B_R = range(4)
CHANNEL_PAIRS = (
    ((_A_L, _B_R), (_B_R, _A_L)),  # LL
    ((_A_L, _A_R), (_B_R, _B_L)),  # LR
    ((_B_L, _A_R), (_A_R, _B_L)),  # RR
)


def single_factors(w, inp: TwoPhotonInput, params: NetworkParams):
    """(a_l, b_l, a_r, b_r) at the frequencies w: a = theta1 * pulse (same
    channel), b = theta2 * pulse (crossed), for the left and right pulse."""
    w = np.asarray(w, dtype=float)
    t1, t2 = theta_arrays(w, params)
    xi_l, xi_r = pulse_amplitude(inp.left, w), pulse_amplitude(inp.right, w)
    return t1 * xi_l, t2 * xi_l, t1 * xi_r, t2 * xi_r


def linear_parts(w1: np.ndarray, w2: np.ndarray, inp: TwoPhotonInput, params: NetworkParams):
    """Independent-scattering parts of all three channel amplitudes at the
    broadcast pairs (w1, w2), without the convolution term: w[:, None] and
    w[None, :] give the outer product, equal shapes give point values."""
    f1, f2 = single_factors(w1, inp, params), single_factors(w2, inp, params)
    return tuple(f1[x] * f2[y] + f1[x2] * f2[y2] for (x, y), (x2, y2) in CHANNEL_PAIRS)


def ladder(grid: FrequencyGrid, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None):
    """The convolution ladder of grid x grid: node (i, j) sits on rung i + j
    of the 2n - 1 frequency sums.  Returns s' (the sums plus 2 omega_c),
    sum_factor times J, and its error estimate, one value per rung; the
    convolution term at node (i, j) is u_i u_j s' F J on its rung."""
    sums = 2.0 * grid.min + grid.spacing * np.arange(2 * grid.n - 1)
    j_values, j_errors, _ = j_lines(sums, inp, params, cfg)
    f = sum_factor(sums, params)
    return sums + 2.0 * params.omega_c, f * j_values, np.abs(f) * j_errors


@dataclass(frozen=True)
class GridAssembly:
    """All three channel amplitudes at broadcast pairs plus the
    convolution term and its pointwise error estimate."""

    ll: np.ndarray
    lr: np.ndarray
    rr: np.ndarray
    conv: np.ndarray | None
    point_err: np.ndarray


def assemble(w1, w2, inp: TwoPhotonInput, params: NetworkParams, j=None, j_err=None) -> GridAssembly:
    """The three channel amplitudes at the broadcast pairs (w1, w2) (see
    linear_parts): the linear parts plus u(w1) u(w2) s' times ``j``, i.e.
    sum_factor times J at w1 + w2, with error estimate ``j_err``; s' is
    formed per node, so the term is exactly 0 where s' is.  j = None drops
    it; j_err comes with every j.  The term is added in place to the fresh
    linear parts (flat peak memory).
    """
    ll, lr, rr = linear_parts(w1, w2, inp, params)
    if j is None:
        return GridAssembly(ll, lr, rr, None, np.zeros(np.shape(ll)))
    den = params.omega_c - 2j * params.kappa
    conv = (1.0 / (w1 + den)) * (1.0 / (w2 + den))
    conv *= w1 + w2 + 2.0 * params.omega_c
    point_err = np.abs(conv) * j_err
    conv *= j
    ll += conv
    lr += conv
    rr += conv
    return GridAssembly(ll, lr, rr, conv, point_err)


def amplitudes_at(w1, w2, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> GridAssembly:
    """All three channel amplitudes at the broadcast pairs (w1, w2), with
    one j_lines rung per pair; scalars come back as 1-element arrays."""
    w1, w2 = np.atleast_1d(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
    if params.kappa == 0.0:
        return assemble(w1, w2, inp, params)
    sums = w1 + w2
    j, j_err, _ = j_lines(sums.ravel(), inp, params, cfg)
    f = sum_factor(sums, params)
    return assemble(w1, w2, inp, params, f * j.reshape(sums.shape), np.abs(f) * j_err.reshape(sums.shape))


def channel_matrices(
    grid: FrequencyGrid,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> GridAssembly:
    """All three amplitude matrices on grid x grid with one shared
    convolution ladder.

    The linear terms are assembled from single-photon scattering
    products, which equals the direct rational form up to rounding; with
    identical input pulses the LL and RR matrices come out bitwise equal.
    NoConvergence from the ladder sets ``.node`` to the lowest failing
    rung, whose frequency sum is that of the nodes (i, j) with
    i + j = node.
    """
    w = grid.points
    j = j_err = None
    if params.kappa != 0.0:
        # The sliding windows index the ladder by i + j without copying it.
        _, fj, fj_err = ladder(grid, inp, params, cfg)
        j, j_err = (sliding_window_view(a, grid.n) for a in (fj, fj_err))
    return assemble(w[:, None], w[None, :], inp, params, j, j_err)


def amplitude_grid(
    channel: Channel | str,
    grid: FrequencyGrid,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> JointAmplitude:
    """Fill one channel's amplitude matrix over grid x grid."""
    channel = Channel(channel) if not isinstance(channel, Channel) else channel
    ga = channel_matrices(grid, inp, params, cfg)
    values = {Channel.LL: ga.ll, Channel.LR: ga.lr, Channel.RR: ga.rr}[channel]
    return JointAmplitude(
        channel=channel,
        grid1=grid,
        grid2=grid,
        values=values,
        max_point_error=float(ga.point_err.max()) if ga.point_err.size else 0.0,
    )

"""Joint spectral amplitudes of the steady-state two-photon output.

Each output channel pair (LL, LR, RR) has an amplitude built from two
single-photon scattering products plus one shared nonlinear convolution
term.  The convolution depends on the evaluation node only through
omega1 + omega2; grid fills therefore compute one adaptive integral per
distinct frequency sum (2n - 1 of them on an n-point shared grid) and
the three channels reuse the same ladder.  The ladder is one batched
Gauss-Kronrod run (quadrature.j_lines) that refines all rungs together
in vectorised sweeps, in a single thread; the ``threads`` parameters
below are accepted for call compatibility and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .kernels import theta_arrays
from .model import (
    FrequencyGrid,
    NetworkParams,
    PulseSpec,
    TwoPhotonInput,
    pulse_amplitude,
)
# j_line is re-exported: perfbench/tracing.py patches it at this import site.
from .quadrature import QuadConfig, convolve_g, j_line, j_lines  # noqa: F401


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
    params: NetworkParams
    input: TwoPhotonInput
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


def _conv_term(omega1: float, omega2: float, inp, params, cfg) -> complex:
    """Channel-independent convolution term including its prefactor."""
    if params.kappa == 0.0:
        return 0.0j
    k = params.kappa
    wc = params.omega_c
    pref = 2.0 * math.sqrt(k) * (omega1 + wc + 2j * k) / (omega1 + wc - 2j * k)
    return pref * convolve_g(omega1, omega2, inp, params, cfg).value


def t_ll(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """Both photons in the left output channel."""
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        return 0.0j
    k, wc = params.kappa, params.omega_c
    d = (omega1 + wc - 2j * k) * (omega2 + wc - 2j * k)
    lin = (
        pulse_amplitude(inp.left, omega1) * pulse_amplitude(inp.right, omega2)
        * (2j * k * (omega1 + wc)) / d
        + pulse_amplitude(inp.left, omega2) * pulse_amplitude(inp.right, omega1)
        * (2j * k * (omega2 + wc)) / d
    )
    return lin + _conv_term(omega1, omega2, inp, params, cfg)


def t_lr(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """One photon in each output channel (omega1 on the left)."""
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        return complex(
            pulse_amplitude(inp.left, omega1) * pulse_amplitude(inp.right, omega2)
        )
    k, wc = params.kappa, params.omega_c
    d = (omega1 + wc - 2j * k) * (omega2 + wc - 2j * k)
    lin = (
        pulse_amplitude(inp.left, omega1) * pulse_amplitude(inp.right, omega2)
        * ((omega1 + wc) * (omega2 + wc)) / d
        - pulse_amplitude(inp.left, omega2) * pulse_amplitude(inp.right, omega1)
        * (2.0 * k) ** 2 / d
    )
    return lin + _conv_term(omega1, omega2, inp, params, cfg)


def t_rr(omega1: float, omega2: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """Both photons in the right output channel."""
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        return 0.0j
    k, wc = params.kappa, params.omega_c
    d = (omega1 + wc - 2j * k) * (omega2 + wc - 2j * k)
    lin = (
        pulse_amplitude(inp.left, omega1) * pulse_amplitude(inp.right, omega2)
        * (2j * k * (omega2 + wc)) / d
        + pulse_amplitude(inp.left, omega2) * pulse_amplitude(inp.right, omega1)
        * (2j * k * (omega1 + wc)) / d
    )
    return lin + _conv_term(omega1, omega2, inp, params, cfg)


def t_lr_identical(omega1: float, omega2: float, pulse: PulseSpec, params: NetworkParams, cfg: QuadConfig | None = None) -> complex:
    """Specialized coincidence amplitude for identical input pulses.

    Algebraically equal to t_lr with both channels fed the same pulse;
    kept separate so the two forms can cross-check each other.
    """
    cfg = cfg or QuadConfig()
    inp = TwoPhotonInput(pulse, pulse)
    if params.kappa == 0.0:
        return complex(pulse_amplitude(pulse, omega1) * pulse_amplitude(pulse, omega2))
    k, wc = params.kappa, params.omega_c
    d = (omega1 + wc - 2j * k) * (omega2 + wc - 2j * k)
    lin = (
        pulse_amplitude(pulse, omega1)
        * pulse_amplitude(pulse, omega2)
        * ((omega1 + wc) * (omega2 + wc) - (2.0 * k) ** 2)
        / d
    )
    return lin + _conv_term(omega1, omega2, inp, params, cfg)


def scattered_components(pulse: PulseSpec, omegas: np.ndarray, params: NetworkParams):
    """Same-channel and cross-channel single-photon products
    (theta1 * amplitude, theta2 * amplitude) on an array of frequencies."""
    t1, t2 = theta_arrays(omegas, params)
    xi = pulse_amplitude(pulse, omegas)
    return t1 * xi, t2 * xi


def _combined_conv_prefactor(w1: np.ndarray, w2: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Channel prefactor times the kernel's nu-independent rational factor.

    The (omega1 + omega_c + 2i kappa) factors cancel between the two,
    leaving an expression symmetric in (omega1, omega2); this is the form
    used for whole-grid fills.
    """
    k, wc = params.kappa, params.omega_c
    s = w1 + w2 + 2.0 * wc
    d = (w1 + wc - 2j * k) * (w2 + wc - 2j * k)
    return (-2j * k**2 / math.pi) * (s - 4j * k) * s / (d * (s - 2j * k))


def linear_parts(w1: np.ndarray, w2: np.ndarray, inp: TwoPhotonInput, params: NetworkParams):
    """Independent-scattering parts of all three channel amplitudes at the
    broadcast pairs (w1, w2), without the convolution term: w[:, None] and
    w[None, :] give the outer product, equal shapes give point values."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    a_l, b_l = scattered_components(inp.left, w1, params)
    a_r, b_r = scattered_components(inp.right, w1, params)
    a_l2, b_l2 = scattered_components(inp.left, w2, params)
    a_r2, b_r2 = scattered_components(inp.right, w2, params)
    ll = a_l * b_r2 + b_r * a_l2
    lr = a_l * a_r2 + b_r * b_l2
    rr = b_l * a_r2 + a_r * b_l2
    return ll, lr, rr


@dataclass(frozen=True)
class GridAssembly:
    """All three channel matrices on a shared grid plus the convolution
    term and its pointwise error estimate."""

    ll: np.ndarray
    lr: np.ndarray
    rr: np.ndarray
    conv: np.ndarray | None
    point_err: np.ndarray


def channel_matrices(
    grid: FrequencyGrid,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
    threads: int | None = None,
    include_convolution: bool = True,
) -> GridAssembly:
    """All three amplitude matrices on grid x grid with one shared
    convolution ladder.

    The linear terms are assembled from single-photon scattering
    products, which equals the direct rational form up to rounding; with
    identical input pulses the LL and RR matrices come out bitwise equal.
    ``threads`` is ignored (the ladder runs in one vectorised thread).
    NoConvergence from the ladder sets ``.node`` to the lowest failing
    rung, whose frequency sum is that of the nodes (i, j) with
    i + j = node.
    """
    cfg = cfg or QuadConfig()
    w = grid.points
    ll, lr, rr = linear_parts(w[:, None], w[None, :], inp, params)
    if include_convolution and params.kappa != 0.0:
        # Rung i + j holds the frequency sum of node (i, j).
        sums = 2.0 * grid.min + grid.spacing * np.arange(2 * grid.n - 1)
        j_values, j_errors, _ = j_lines(sums, inp, params, cfg)
        idx = np.add.outer(np.arange(grid.n), np.arange(grid.n))
        pref = _combined_conv_prefactor(w[:, None], w[None, :], params)
        conv = pref * j_values[idx]
        point_err = np.abs(pref) * j_errors[idx]
        return GridAssembly(ll + conv, lr + conv, rr + conv, conv, point_err)
    return GridAssembly(ll, lr, rr, None, np.zeros((grid.n, grid.n)))


def amplitude_grid(
    channel: Channel | str,
    grid: FrequencyGrid,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
    threads: int | None = None,
) -> JointAmplitude:
    """Fill one channel's amplitude matrix over grid x grid."""
    channel = Channel(channel) if not isinstance(channel, Channel) else channel
    ga = channel_matrices(grid, inp, params, cfg, threads)
    values = {Channel.LL: ga.ll, Channel.LR: ga.lr, Channel.RR: ga.rr}[channel]
    return JointAmplitude(
        channel=channel,
        grid1=grid,
        grid2=grid,
        values=values,
        params=params,
        input=inp,
        max_point_error=float(ga.point_err.max()) if ga.point_err.size else 0.0,
    )

"""Physical quantities derived from the joint amplitudes.

Channel probabilities integrate |T|^2 over the plane.  The trapezoid
window on the shared grid captures the bulk; the pulse-shaped tails
beyond it (about gamma/(pi*W) of the mass per photon) are integrated
explicitly over the four half-infinite strips and four corners, with
the closed-form residue convolution supplying the amplitude out there
for Lorentzian inputs: amplitudes.sum_factor times oracle.residue_j, both
rational in omega1 + omega2 alone, which amplitudes.assemble scales by
u(omega1) u(omega2) s' per node.  Strips and corners run on the batched
Gauss-Kronrod engine (quadrature.integrate_half_line_multi): the strips
as one batch of four mapped half-lines, the corners as one batch of four
outer half-lines whose integrand integrates the inner half-line of
every outer node as one more batch.  The result is a full-plane integral
rather than a windowed one, which is what makes probability
conservation meaningful at practical window sizes.

The window builds no n x n array (window_terms).  On node (i, j) of the
uniform grid each channel is T = sum_t x_t(i) y_t(j) + u_i u_j h_{i+j},
with the (x, y) pairs of amplitudes.CHANNEL_PAIRS, u = 1 / (omega +
omega_c - 2i kappa) and h_k = s'_k F_k J_k on ladder rung k.  With
trapezoid weights w and <x, y> = sum w conj(x) y,

    sum_ij w_i w_j |T_ij|^2 = sum_{t,t'} <x_t, x_t'> <y_t, y_t'>
                              + 2 Re sum_k h_k A_k + sum_k |h_k|^2 P_k,

where A = sum_t (w conj(x_t) u) * (w conj(y_t) u) and P = (w |u|^2) *
(w |u|^2) are discrete convolutions over the 2n - 1 rungs.  To first
order a ladder error e_k moves the sum by at most 2 e_k |B_k|, with
B_k = A_k + conj(h_k) P_k.
These sums (np.convolve, numpy's own loop) and the strip sums (einsum)
avoid OpenBLAS's threaded sizes, whose idle spin doubled a Lorentzian
op's CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py patches channel_matrices and linear_parts at this import site.
from .amplitudes import (  # noqa: F401
    CHANNEL_PAIRS, JointAmplitude, assemble, channel_matrices, ladder, linear_parts, single_factors, sum_factor,
)
from .errors import ValidationError, WindowTooNarrow, ZeroAmplitude
from .kernels import theta_arrays
from .model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    PulseSpec,
    SampledPulse,
    TwoPhotonInput,
    pulse_amplitude,
    pulse_center,
    pulse_support,
    pulse_width,
)
from .oracle import residue_j
# integrate_half_line_multi is called through this module's name, where
# perfbench/tracing.py patches it.
from .quadrature import QuadConfig, integrate_half_line_multi, integrate_lines, trapezoid_weights


@dataclass(frozen=True)
class ScatteringProbabilities:
    """Channel probabilities of the steady-state two-photon output."""

    p_ll: float
    p_lr: float
    p_rr: float
    total: float
    est_error: float

    def __post_init__(self):
        for name in ("p_ll", "p_lr", "p_rr"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -1e-9:
                raise ValidationError(f"{name} = {v} is not a probability")


@dataclass(frozen=True)
class HomScanRow:
    kappa: float
    omega_c: float
    p_lr: float
    p_ll: float
    p_rr: float

    def __post_init__(self):
        for name in ("p_lr", "p_ll", "p_rr"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1.0 + 1e-6:
                raise ValidationError(f"{name} = {v} is not a probability")


@dataclass(frozen=True)
class SchmidtReport:
    """Spectral (Schmidt) decomposition of one amplitude matrix.

    singular_values are normalized so their squares sum to one; entropy
    is the base-2 Shannon entropy of the squared values and
    schmidt_number their participation ratio.  The metric discretizes
    the amplitude as an integral operator on the grid (values times the
    quadrature cell size).
    """

    singular_values: np.ndarray
    entropy: float
    schmidt_number: float


_CORRECTION_CFG = QuadConfig(rel_tol=1e-6, abs_tol=1e-16, max_subdivisions=400)


def _block_densities(w1, w2, inp, params, include_conv, conv_exact):
    """(|T_LL|^2, |T_LR|^2, |T_RR|^2) at the broadcast pairs (w1, w2) (see
    linear_parts), using the closed-form convolution when available."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    j = None
    if include_conv and conv_exact and params.kappa > 0.0:
        left, right = inp.left, inp.right
        s = w1 + w2
        j = sum_factor(s, params) * residue_j(s, left.gamma, right.gamma, left.omega_o, params, omega_o_r=right.omega_o)
    ga = assemble(w1, w2, inp, params, j)
    return np.abs(ga.ll) ** 2, np.abs(ga.lr) ** 2, np.abs(ga.rr) ** 2


def _tail_corrections(inp, params, grid, include_conv, conv_exact):
    """Mass of (|T_LL|^2, |T_LR|^2, |T_RR|^2) outside the window.

    Integrates the four half-infinite strips (one frequency beyond the
    window, the other on the grid) as one batch of half-lines, and the
    four corners (both beyond) as one batch of outer half-lines whose
    integrand runs the inner half-line of every outer node as one more
    batch.  Returns (values (3,), quadrature error estimate).
    """
    w = grid.points
    wt = trapezoid_weights(grid)
    scale = max(grid.max - grid.min, 10.0)
    # Half-line side 0 lies above the window, side 1 below it.
    edges = np.array([grid.max, grid.min])
    directions = np.array([1.0, -1.0])

    def densities(w1, w2):
        return _block_densities(w1, w2, inp, params, include_conv, conv_exact)

    # Strip 2 * side + j: omega1 beyond the edge for j = 0, omega2 for j = 1.
    def strip_f(x, strip):
        out = np.empty(x.shape + (3,))
        rows = strip[:, 0] % 2 == 0
        for sel, beyond_first in ((rows, True), (~rows, False)):
            if sel.any():
                xs = x[sel].reshape(-1, 1)
                dens = densities(xs, w) if beyond_first else densities(w, xs)
                out[sel] = np.stack([np.einsum("ij,j->i", d, wt) for d in dens], axis=-1).reshape(-1, 15, 3)
        return out

    sides = np.repeat([0, 1], 2)
    v, e, _ = integrate_half_line_multi(
        strip_f, edges[sides], directions[sides], scale, _CORRECTION_CFG
    )
    values = v.real.sum(axis=0)
    err = float(e.sum())

    # Corner 2 * side1 + side2: omega1 beyond edges[side1], omega2 beyond edges[side2].
    side1, side2 = np.repeat([0, 1], 2), np.tile([0, 1], 2)

    def corner_f(x1, corner):
        at = x1.ravel()
        inner = side2[np.broadcast_to(corner, x1.shape).ravel()]

        def inner_f(x2, node):
            return np.stack(densities(at[node], x2), axis=-1)

        mass, _, _ = integrate_half_line_multi(
            inner_f, edges[inner], directions[inner], scale, _CORRECTION_CFG
        )
        return mass.real.reshape(x1.shape + (3,))

    v, e, _ = integrate_half_line_multi(
        corner_f, edges[side1], directions[side1], scale, _CORRECTION_CFG
    )
    return values + v.real.sum(axis=0), err + float(e.sum())


@dataclass(frozen=True)
class WindowTerms:
    """Trapezoid sums of |T_LL|^2, |T_LR|^2, |T_RR|^2 over grid x grid, the
    refinement and ladder (quadrature) error terms of est_error, and the
    mass of |conv|^2 along the four window edges."""

    masses: tuple
    refinement: float
    quadrature: float
    edge_mass: float


def _window_sums(f, u, h, wt):
    """Per channel, the weighted sum of |T|^2 and, when there is a
    convolution term h, the rung sums B (see the module docstring)."""
    g = [wt * np.conj(v) for v in f]
    gram = [[gi @ v for v in f] for gi in g]
    if h is not None:
        gu = [gi * u for gi in g]
        p = np.convolve(wt * np.abs(u) ** 2, wt * np.abs(u) ** 2)
    masses, rung_sums = [], []
    for xy in CHANNEL_PAIRS:
        mass = sum(gram[x][x2] * gram[y][y2] for x, y in xy for x2, y2 in xy).real
        if h is not None:
            a = sum(np.convolve(gu[x], gu[y]) for x, y in xy)
            mass += 2.0 * (h @ a).real + np.abs(h) ** 2 @ p
            rung_sums.append(a + np.conj(h) * p)
        masses.append(float(mass))
    return masses, rung_sums


def window_terms(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
    include_convolution: bool = True,
) -> WindowTerms:
    """The window part of probabilities from the per-frequency factors and
    the 2n - 1 ladder rungs, without any n x n array (kappa > 0).

    The refinement term compares the trapezoid sums with those on every
    second node; an even point count has no such sub-grid, so both then
    use the leading n - 1 points; fewer than 5 points give no estimate.
    """
    w, wt = grid.points, trapezoid_weights(grid)
    f = single_factors(w, inp, params)
    u = 1.0 / (w + (params.omega_c - 2j * params.kappa))
    h = err = None
    if include_convolution and params.kappa != 0.0:
        s_prime, fj, fj_err = ladder(grid, inp, params, cfg)
        h, err = s_prime * fj, np.abs(s_prime) * fj_err
    masses, rung_sums = _window_sums(f, u, h, wt)
    quadrature = float(sum(2.0 * c * (err @ np.abs(b)) for c, b in zip((0.5, 1.0, 0.5), rung_sums)))
    edge_mass = 0.0
    if h is not None:
        # Rows 0 and n - 1 of |conv|^2 are |u_0 u_j h_j|^2 and |u_{n-1} u_j h_{n-1+j}|^2;
        # columns 0 and n - 1 mirror them.
        hh, uu = np.abs(h) ** 2, np.abs(u) ** 2
        edge_mass = 2.0 * float((wt * uu) @ (uu[0] * hh[: grid.n] + uu[-1] * hh[grid.n - 1 :]))

    m = grid.n - 1 + grid.n % 2
    top = grid.max if m == grid.n else grid.max - grid.spacing

    def sub_masses(step, sub):
        hs = None if h is None else h[: 2 * m - 1 : step]
        return _window_sums([v[:m:step] for v in f], u[:m:step], hs, trapezoid_weights(sub))[0]

    refinement = 0.0
    if m >= 5:
        fine = masses if m == grid.n else sub_masses(1, FrequencyGrid(grid.min, top, m))
        coarse = sub_masses(2, FrequencyGrid(grid.min, top, (m - 1) // 2 + 1))
        refinement = sum(abs(a - b) / 3.0 for a, b in zip(fine, coarse))
    return WindowTerms(tuple(masses), refinement, quadrature, edge_mass)


def probabilities(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
    include_convolution: bool = True,
) -> ScatteringProbabilities:
    """Output-channel probabilities (P_LL, P_LR, P_RR).

    P_LR integrates |T_LR|^2; T_LL and T_RR are symmetric in (omega1,
    omega2), so P_LL and P_RR are half the integrals of their |T|^2.
    ``include_convolution`` exists as a diagnostic switch that drops the
    nonlinear term everywhere.
    """
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        # Pass-through network: the photons keep their (unit-norm) pulse
        # shapes and channels, so the split is exact.
        return ScatteringProbabilities(p_ll=0.0, p_lr=1.0, p_rr=0.0, total=1.0, est_error=0.0)
    win = window_terms(inp, params, grid, cfg, include_convolution)
    p_ll, p_lr, p_rr = 0.5 * win.masses[0], win.masses[1], 0.5 * win.masses[2]

    both_lorentzian = isinstance(inp.left, LorentzianPulse) and isinstance(
        inp.right, LorentzianPulse
    )
    supports_inside = all(
        pulse_support(p) is not None
        and grid.min <= pulse_support(p)[0]
        and pulse_support(p)[1] <= grid.max
        for p in (inp.left, inp.right)
    )
    if supports_inside:
        # Compact supports inside the window: the linear terms vanish out there.
        tails, strip_err = np.zeros(3), 0.0
    else:
        # Sampled amplitudes are zero beyond their support, so their linear
        # strips are still well defined; Lorentzian tails get the closed-form
        # convolution too.
        tails, strip_err = _tail_corrections(inp, params, grid, include_convolution, both_lorentzian)
    # Sampled pulses leave the convolution mass beyond the window unmodeled.
    # It is bounded from the edges: |conv|^2 decays like the fourth power of
    # the outgoing frequency, so a strip holds about its edge mass * W / 3.
    model_err = 0.0 if both_lorentzian else win.edge_mass * 0.5 * (grid.max - grid.min) / 3.0
    if model_err > 1e-2:
        raise WindowTooNarrow(
            f"unmodeled out-of-window mass bound {model_err:.3e} exceeds 1e-2",
            tail_bound=model_err,
        )
    p_ll += 0.5 * tails[0]
    p_lr += tails[1]
    p_rr += 0.5 * tails[2]

    est_error = win.quadrature + win.refinement + strip_err + model_err

    total = p_ll + p_lr + p_rr
    return ScatteringProbabilities(
        p_ll=p_ll, p_lr=p_lr, p_rr=p_rr, total=total, est_error=est_error
    )


def conservation_check(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
) -> float:
    """|P_LL + P_LR + P_RR - 1|, the numerical normalization witness."""
    return abs(probabilities(inp, params, grid, cfg).total - 1.0)


def hom_scan(
    kappas,
    ratio: float,
    pulse: PulseSpec,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
) -> list[HomScanRow]:
    """Coincidence scan over coupling strengths with omega_c = ratio * kappa.

    Uses the same pulse in both input channels (the two-photon
    interference setting); kappas must be strictly increasing and > 0.
    """
    kappas = [float(k) for k in kappas]
    if not kappas or any(k <= 0 for k in kappas):
        raise ValidationError("kappas must be positive")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise ValidationError("kappas must be strictly increasing")
    inp = TwoPhotonInput(pulse, pulse)
    rows = []
    for k in kappas:
        params = NetworkParams(kappa=k, omega_c=ratio * k, omega_o=getattr(pulse, "omega_o", 0.0))
        p = probabilities(inp, params, grid, cfg)
        rows.append(
            HomScanRow(kappa=k, omega_c=ratio * k, p_lr=p.p_lr, p_ll=p.p_ll, p_rr=p.p_rr)
        )
    return rows


def schmidt_report(amp: JointAmplitude) -> SchmidtReport:
    """Quadrature-weighted SVD of an amplitude matrix.

    Raises ZeroAmplitude when the matrix is numerically zero (for
    example the same-channel amplitude of a pass-through network).
    Singular values below 1e-12 of the largest are dropped before
    normalization.
    """
    cell = math.sqrt(amp.grid1.spacing * amp.grid2.spacing)
    s = np.linalg.svd(amp.values * cell, compute_uv=False)
    if s.size == 0 or s[0] <= 1e-150:
        raise ZeroAmplitude("amplitude matrix is numerically zero")
    s = s[s >= 1e-12 * s[0]]
    s = s / math.sqrt(float(np.sum(s**2)))
    p = s**2
    entropy = max(0.0, float(-np.sum(p * np.log2(p))))
    schmidt_number = float(1.0 / np.sum(p**2))
    s.setflags(write=False)
    return SchmidtReport(singular_values=s, entropy=entropy, schmidt_number=schmidt_number)


def single_photon_probabilities(
    pulse: PulseSpec,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
) -> tuple[float, float]:
    """(p_left, p_right) for a single photon entering the left channel.

    Both channel masses are integrated adaptively over the grid's window
    and normalized to their sum, i.e. the split is conditional on the
    photon landing inside the window; by construction
    p_left + p_right = 1.
    """
    cfg = cfg or QuadConfig()

    def f(nu, _line):
        t1, t2 = theta_arrays(nu, params)
        xi2 = np.abs(pulse_amplitude(pulse, nu)) ** 2
        return np.stack([np.abs(t1) ** 2 * xi2, np.abs(t2) ** 2 * xi2], axis=-1)

    seeds = [pulse_center(pulse), -params.omega_c]
    if isinstance(pulse, SampledPulse):
        seeds.extend(pulse.grid.points)
    v, _, _ = integrate_lines(f, grid.min, grid.max, cfg, seeds=[seeds])
    i_l, i_r = float(v[0, 0].real), float(v[0, 1].real)
    total = i_l + i_r
    if total <= 0.0:
        raise ValidationError("no pulse mass inside the window")
    return i_l / total, i_r / total


def single_photon_norm(pulse: PulseSpec, params: NetworkParams, cfg: QuadConfig | None = None) -> float:
    """Whole-line norm of the single-photon output state,
    integral of |eta_L|^2 + |eta_R|^2; equals one for a unit-norm input
    up to quadrature error because the response is pointwise unitary.
    The window around the pulse and its two mapped tails run as one
    integrate_lines batch."""
    cfg = cfg or QuadConfig()

    def f(nu, _line):
        t1, t2 = theta_arrays(nu, params)
        xi2 = np.abs(pulse_amplitude(pulse, nu)) ** 2
        return (np.abs(t1) ** 2 + np.abs(t2) ** 2) * xi2

    if isinstance(pulse, SampledPulse):
        # The unit norm of a sampled pulse is defined by the trapezoid rule
        # on its own grid, so the output norm uses the same convention.
        pts = pulse.grid.points
        t1, t2 = theta_arrays(pts, params)
        dens = (np.abs(t1) ** 2 + np.abs(t2) ** 2) * np.abs(pulse.values) ** 2
        return float(np.trapezoid(dens, pts))
    center = pulse_center(pulse)
    half = max(
        200.0 * pulse_width(pulse),
        20.0 * params.kappa,
        4.0 * abs(params.omega_c) + 10.0,
    )
    v, _, _ = integrate_lines(
        f, center - half, center + half, cfg, seeds=[[center, -params.omega_c]], tails=True
    )
    return float(v[0].real)

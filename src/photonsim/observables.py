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

Window sums (quadrature.integrate_grid_2d) and strip sums (einsum) avoid
OpenBLAS's threaded sizes, whose idle spin doubled a Lorentzian op's CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py patches channel_matrices and linear_parts at this import site.
from .amplitudes import JointAmplitude, assemble, channel_matrices, linear_parts, sum_factor  # noqa: F401
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
from .quadrature import (
    QuadConfig,
    integrate_grid_2d,
    integrate_half_line,
    integrate_half_line_multi,
    integrate_line,
    integrate_lines,
    trapezoid_weights,
)


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


def _conv_strip_bound(conv, grid) -> float:
    """Crude bound on the convolution mass in the strips, from its
    boundary rows and columns (|conv|^2 decays like the fourth power of
    the outgoing frequency, so each strip is about edge mass * W / 3)."""
    if conv is None:
        return 0.0
    wt = trapezoid_weights(grid)
    dens = np.abs(conv) ** 2
    edge = float(wt @ (dens[0] + dens[-1] + dens[:, 0] + dens[:, -1]))
    half_width = 0.5 * (grid.max - grid.min)
    return edge * half_width / 3.0


def _trapezoid_refinement_error(dens, grid) -> float:
    """Richardson-style estimate: compare the trapezoid integral with the
    one on every second grid point.  An even point count has no such
    sub-grid, so both integrals then use the leading n - 1 points,
    [min, max - spacing]; fewer than 5 points give no estimate."""
    if grid.n % 2 == 0:
        dens = dens[:-1, :-1]
        grid = FrequencyGrid(grid.min, grid.max - grid.spacing, grid.n - 1)
    if grid.n < 5:
        return 0.0
    sub = FrequencyGrid(grid.min, grid.max, (grid.n - 1) // 2 + 1)
    fine = integrate_grid_2d(dens, grid, grid).real
    coarse = integrate_grid_2d(dens[::2, ::2], sub, sub).real
    return abs(fine - coarse) / 3.0


def probabilities(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
    include_convolution: bool = True,
    use_shortcut: bool | None = None,
) -> ScatteringProbabilities:
    """Output-channel probabilities (P_LL, P_LR, P_RR).

    P_LR integrates |T_LR|^2; the same-channel probabilities use the
    symmetrized quarter-sum of |T|^2 and conj(T)[w1,w2] T[w2,w1], or the
    equivalent half |T|^2 shortcut when the two input pulses are
    structurally identical (``use_shortcut`` overrides the automatic
    choice).  ``include_convolution`` exists as a diagnostic switch that
    drops the nonlinear term everywhere.
    """
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        # Pass-through network: the photons keep their (unit-norm) pulse
        # shapes and channels, so the split is exact.
        return ScatteringProbabilities(p_ll=0.0, p_lr=1.0, p_rr=0.0, total=1.0, est_error=0.0)
    ga = channel_matrices(grid, inp, params, cfg, include_convolution)

    def win2(m):
        return integrate_grid_2d(m, grid, grid).real

    # |T| once per channel, squared in place after quad_err (keeps peak memory flat).
    abs_ll, abs_lr, abs_rr = np.abs(ga.ll), np.abs(ga.lr), np.abs(ga.rr)
    quad_err = win2(2.0 * (0.5 * abs_ll + abs_lr + 0.5 * abs_rr) * ga.point_err)
    dens_ll, dens_lr, dens_rr = (np.square(a, out=a) for a in (abs_ll, abs_lr, abs_rr))
    if use_shortcut is None:
        use_shortcut = inp.identical
    if use_shortcut:
        p_ll = 0.5 * win2(dens_ll)
        p_rr = 0.5 * win2(dens_rr)
    else:
        swap_ll = np.real(np.conj(ga.ll) * ga.ll.T)
        swap_rr = np.real(np.conj(ga.rr) * ga.rr.T)
        p_ll = 0.25 * (win2(dens_ll) + win2(swap_ll))
        p_rr = 0.25 * (win2(dens_rr) + win2(swap_rr))
    p_lr = win2(dens_lr)

    both_lorentzian = isinstance(inp.left, LorentzianPulse) and isinstance(
        inp.right, LorentzianPulse
    )
    supports_inside = all(
        pulse_support(p) is not None
        and grid.min <= pulse_support(p)[0]
        and pulse_support(p)[1] <= grid.max
        for p in (inp.left, inp.right)
    )
    model_err = 0.0
    strip_err = 0.0
    if both_lorentzian:
        tails, strip_err = _tail_corrections(inp, params, grid, include_convolution, True)
    elif supports_inside:
        # Compact supports inside the window: the linear terms vanish out
        # there and only a small convolution leak remains unmodeled.
        tails = np.zeros(3)
        model_err = _conv_strip_bound(ga.conv, grid)
    else:
        # Mixed or out-of-window sampled pulses: linear strips are still
        # well defined (sampled amplitudes are zero beyond their support);
        # the convolution part out there has no closed form and is bounded.
        tails, strip_err = _tail_corrections(inp, params, grid, include_convolution, False)
        model_err = _conv_strip_bound(ga.conv, grid)
    if model_err > 1e-2:
        raise WindowTooNarrow(
            f"unmodeled out-of-window mass bound {model_err:.3e} exceeds 1e-2",
            tail_bound=model_err,
        )
    p_ll += 0.5 * tails[0]
    p_lr += tails[1]
    p_rr += 0.5 * tails[2]

    trapz_err = sum(_trapezoid_refinement_error(d, grid) for d in (dens_ll, dens_lr, dens_rr))
    est_error = quad_err + trapz_err + strip_err + model_err

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
    up to quadrature error because the response is pointwise unitary."""
    cfg = cfg or QuadConfig()

    def f(nu):
        nu = np.asarray(nu, dtype=float)
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
    lo, hi = center - half, center + half
    core = integrate_line(f, lo, hi, cfg, seeds=[center, -params.omega_c])
    left = integrate_half_line(f, lo, -1, half, cfg)
    right = integrate_half_line(f, hi, +1, half, cfg)
    return float((core.value + left.value + right.value).real)

"""Physical quantities derived from the joint amplitudes.

Each channel is T = sum_t x_t(omega1) y_t(omega2) + u(omega1) u(omega2)
h(omega1 + omega2), with the (x, y) pairs of amplitudes.CHANNEL_PAIRS,
u = 1 / (omega + omega_c - 2i kappa) and h = s' F J on the reduced
convolution J (amplitudes.sum_factor).  Over the plane

    integral |T|^2 = sum_{t,t'} <x_t, x_t'> <y_t, y_t'>
                     + integral ds [2 Re h(s) A(s) + |h(s)|^2 P(s)],

A(s) = sum_t integral conj(x_t(nu) y_t(s - nu)) u(nu) u(s - nu) dnu and
P(s) = integral |u(nu) u(s - nu)|^2 dnu = pi / (kappa (s'^2 + 16 kappa^2)).
Lorentzian probabilities take this form without a grid: one engine line
with mapped tails gives the 16 Gram entries of single_factors, and one
outer line over s does the rest, each of its sweeps integrating J and the
three A at its nodes as one inner batch (quadrature.convolution_lines,
which folds each line at nu = s / 2, so the inner integrands are summed
with their images under nu <-> s - nu).  They are rows of one array,
formed in real arithmetic from the Lorentzian pair products and u u;
identical pulses integrate three rows, J, A_LL and A_LR, and copy A_LL
into A_RR, which leaves every value and error estimate as it was.  J
stays on the engine, so --tol and NoConvergence hold, and the residue
oracle stays independent.  est_error bounds the outer error plus how far
the inner and Gram errors move the masses; the outer line integrates
that bound as a down-weighted fourth row (_BOUND_WEIGHT), so the bound's
own rough error never steers where the line refines.

Sampled pulses keep the trapezoid window (window_terms), the same algebra
on the grid without any n x n array: with weights w, the Gram products
plus 2 Re sum_k h_k A_k + sum_k |h_k|^2 P_k over the 2n - 1 ladder rungs,
A = sum_t (w conj(x_t) u) * (w conj(y_t) u), P = (w |u|^2) * (w |u|^2).
A ladder error e_k moves it by at most 2 e_k |A_k + conj(h_k) P_k| to
first order.  Their linear mass beyond the window is exact (the pair
sums of G_in + G_out less those of G_in, G_out from the two half-lines);
their convolution out there stays unmodeled, bounded from the edges.
These sums (np.convolve, numpy's own loop) avoid OpenBLAS's threaded
sizes, whose idle spin doubled a Lorentzian op's CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py patches channel_matrices and linear_parts at this
# import site, so both stay importable here although no path below calls them.
from .amplitudes import (  # noqa: F401
    CHANNEL_PAIRS, JointAmplitude, channel_matrices, ladder, linear_parts, single_factors, sum_factor,
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
    lorentzian_pair,
    pulse_amplitude,
    pulse_center,
    pulse_width,
)
# perfbench/tracing.py also patches residue_j here: it counts closed-form
# evaluations, which no production path makes any more.
from .oracle import residue_j  # noqa: F401
# integrate_half_line_multi is called through this module's name, where
# perfbench/tracing.py patches it.
from .quadrature import (
    QuadConfig, convolution_lines, graded_seeds, integrate_half_line_multi, integrate_lines,
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


# The channel weights of p_ll, p_lr and p_rr in the masses of |T|^2.
_CHANNEL_WEIGHTS = np.array([0.5, 1.0, 0.5])

# The outer line's error-bound row is integrated at this weight and divided
# back out (exactly: a power of two), so that its panel errors, rough where
# the inner error estimates jump from node to node, do not steer the line's
# refinement.  On seeded HOM-scan points that cut the inner evaluations by
# 9 % and the outer sweeps by 40 %.
_BOUND_WEIGHT = 2.0**-13

# The linear mass beyond a tabulated window is a small correction.
_CORRECTION_CFG = QuadConfig(rel_tol=1e-6, abs_tol=1e-16, max_subdivisions=400)


def _pair_masses(gram):
    """Per channel, sum_{t,t'} <x_t, x_t'> <y_t, y_t'> over the (x, y) pairs
    of CHANNEL_PAIRS, from the 4 x 4 Gram matrix of single_factors."""
    return np.array([sum(gram[x][x2] * gram[y][y2] for x, y in xy for x2, y2 in xy).real for xy in CHANNEL_PAIRS])


def _gram_error(gram, err):
    """Bound on the move of _pair_masses when every Gram entry moves by at
    most err: the masses are bilinear in the entries."""
    return _pair_masses(np.abs(gram) + err) - _pair_masses(np.abs(gram))


def _gram_density(x, inp, params):
    """The 16 Gram integrands conj(f_a) f_b of single_factors at x."""
    fa = single_factors(x, inp, params)
    return np.stack([np.conj(a) * b for a in fa for b in fa])


def _graded_line(f, features, distances, cfg):
    """(value, error estimate) of f over the real line: a window spanning
    the graded seeds of the features plus its two mapped tails."""
    seeds = graded_seeds(features, distances)
    v, e, _ = integrate_lines(f, seeds.min(), seeds.max(), cfg, seeds=seeds[None, :], tails=(-1.0, 1.0))
    return v[0], e[0]


def _whole_plane_masses(inp, params, cfg, include_convolution):
    """Masses of |T_LL|^2, |T_LR|^2, |T_RR|^2 over the whole plane for
    Lorentzian inputs, and the bound on their weighted error."""
    k, wc = params.kappa, params.omega_c
    c_l, c_r, g_l, g_r = pulse_center(inp.left), pulse_center(inp.right), inp.left.gamma / 2, inp.right.gamma / 2
    g, g_err = _graded_line(lambda x, _line: _gram_density(x, inp, params), [c_l, c_r, -wc], [g_l, g_r, 2 * k], cfg)
    gram = g.reshape(4, 4)
    masses, err = _pair_masses(gram), _CHANNEL_WEIGHTS @ _gram_error(gram, g_err)
    if not include_convolution:
        return masses, err
    k4, rows = 4.0 * k * k, 3 if inp.identical else 4

    def conv_density(s, _line):
        # Per node: 2 Re h A + |h|^2 P per channel, and a bound on how far the
        # inner errors e (max over J and the A) move their weighted sum.
        sums = s.ravel()

        def inner(nu, mu, _line):
            # J's reduced integrand and the conj(L_c) u u of LL, LR and (for
            # distinct pulses) RR, each plus its image under nu <-> mu
            # (convolution_lines folds at nu = s / 2), in real arithmetic.
            # With a = nu + omega_c, b = mu + omega_c, theta1 = a u and
            # theta2 = 2i kappa u, all come from p1 = xi_L(nu) xi_R(mu),
            # p2 = xi_R(nu) xi_L(mu) and u u = r + i t: r = (a b - 4 kappa^2) q,
            # t = 2 kappa (a + b) q, q = |u u|^2 = 1 / ((a^2 + 4 kappa^2)(b^2 + 4 kappa^2)).
            a, b = nu + wc, mu + wc
            q = 1.0 / ((a * a + k4) * (b * b + k4))
            r, mt = (a * b - k4) * q, (-2.0 * k) * (a + b) * q
            out = np.empty((rows,) + nu.shape, dtype=complex)
            p1 = lorentzian_pair(inp.left, inp.right, nu, mu)
            if inp.identical:
                both, mean = p1 + p1, out[1]
            else:
                p2 = lorentzian_pair(inp.right, inp.left, nu, mu)
                both, mean = p1 + p2, np.empty(nu.shape, dtype=complex)
                # LL = -4 kappa q i conj(a p1 + b p2), RR = -4 kappa q i conj(b p1 + a p2).
                q *= -4.0 * k
                for row, x, y in ((out[1], a, b), (out[3], b, a)):
                    row.real, row.imag = q * (x * p1.imag + y * p2.imag), q * (x * p1.real + y * p2.real)
            # (LL + RR) / 2 = -t i conj(both): the LL row itself for identical pulses.
            np.multiply(mt, both.imag, out=mean.real)
            np.multiply(mt, both.real, out=mean.imag)
            # LR = r conj(both) and J = u u both = conj(LR + (LL + RR) / 2).
            np.conjugate(both, out=out[2])
            out[2].real *= r
            out[2].imag *= r
            np.add(out[2], mean, out=out[0])
            np.conjugate(out[0], out=out[0])
            return out

        v, e, _ = convolution_lines(inner, sums, inp, params, cfg)
        if inp.identical:
            # The RR row equals the LL row, and their max-norm error is LL's.
            v = v[:, [0, 1, 2, 1]]
        sp = sums + 2.0 * wc
        spf = sp * sum_factor(sums, params)
        h, a = spf * v[:, 0], v[:, 1:]
        p = math.pi / (k * (sp**2 + 16.0 * k**2))
        dens = 2.0 * (h[:, None] * a).real + (np.abs(h) ** 2 * p)[:, None]
        bound = 2.0 * e * (np.abs(spf) * (np.abs(a) @ _CHANNEL_WEIGHTS + 2.0 * np.abs(h) * p) + 2.0 * np.abs(h))
        return np.concatenate([dens.T, _BOUND_WEIGHT * bound[None, :]]).reshape((4,) + s.shape)

    features = [c_l + c_r, -2.0 * wc, c_l - wc, c_r - wc]  # the poles of h, A and P in s
    v, v_err = _graded_line(conv_density, features, [g_l + g_r, 2 * k, g_l + 2 * k, g_r + 2 * k], cfg)
    # The channel weights sum to 2.
    return masses + v[:3].real, err + v[3].real / _BOUND_WEIGHT + 2.0 * v_err


@dataclass(frozen=True)
class WindowTerms:
    """Trapezoid sums of |T_LL|^2, |T_LR|^2, |T_RR|^2 over grid x grid, the
    refinement and ladder (quadrature) error terms of est_error, the
    mass of |conv|^2 along the four window edges, and the trapezoid Gram
    matrix of single_factors on the grid."""

    masses: tuple
    refinement: float
    quadrature: float
    edge_mass: float
    gram: np.ndarray | None = None


def _window_sums(f, u, h, wt):
    """Per channel, the weighted sum of |T|^2 with the convolution term h
    and the rung sums B (see the module docstring); and the trapezoid Gram
    matrix of f."""
    g = [wt * np.conj(v) for v in f]
    gram = np.array([[gi @ v for v in f] for gi in g])
    masses, rung_sums = _pair_masses(gram), []
    gu = [gi * u for gi in g]
    p = np.convolve(wt * np.abs(u) ** 2, wt * np.abs(u) ** 2)
    for c, xy in enumerate(CHANNEL_PAIRS):
        a = sum(np.convolve(gu[x], gu[y]) for x, y in xy)
        masses[c] += 2.0 * (h @ a).real + np.abs(h) ** 2 @ p
        rung_sums.append(a + np.conj(h) * p)
    return masses, rung_sums, gram


def window_terms(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid,
    cfg: QuadConfig | None = None,
) -> WindowTerms:
    """The window part of probabilities from the per-frequency factors and
    the 2n - 1 ladder rungs, without any n x n array.  It needs kappa > 0
    (ValidationError otherwise): there is no convolution term at kappa = 0.

    The refinement term compares the trapezoid sums with those on every
    second node; an even point count has no such sub-grid, so both then
    use the leading n - 1 points; fewer than 5 points give no estimate.
    """
    if params.kappa <= 0.0:
        raise ValidationError(f"window_terms needs kappa > 0, got {params.kappa}")
    w, wt = grid.points, trapezoid_weights(grid)
    f = single_factors(w, inp, params)
    u = 1.0 / (w + (params.omega_c - 2j * params.kappa))
    s_prime, fj, fj_err = ladder(grid, inp, params, cfg)
    h, err = s_prime * fj, np.abs(s_prime) * fj_err
    masses, rung_sums, gram = _window_sums(f, u, h, wt)
    quadrature = float(sum(2.0 * c * (err @ np.abs(b)) for c, b in zip(_CHANNEL_WEIGHTS, rung_sums)))
    # Rows 0 and n - 1 of |conv|^2 are |u_0 u_j h_j|^2 and |u_{n-1} u_j h_{n-1+j}|^2;
    # columns 0 and n - 1 mirror them.
    hh, uu = np.abs(h) ** 2, np.abs(u) ** 2
    edge_mass = 2.0 * float((wt * uu) @ (uu[0] * hh[: grid.n] + uu[-1] * hh[grid.n - 1 :]))

    m = grid.n - 1 + grid.n % 2
    top = grid.max if m == grid.n else grid.max - grid.spacing

    def sub_masses(step, sub):
        return _window_sums([v[:m:step] for v in f], u[:m:step], h[: 2 * m - 1 : step], trapezoid_weights(sub))[0]

    refinement = 0.0
    if m >= 5:
        fine = masses if m == grid.n else sub_masses(1, FrequencyGrid(grid.min, top, m))
        coarse = sub_masses(2, FrequencyGrid(grid.min, top, (m - 1) // 2 + 1))
        refinement = sum(abs(a - b) / 3.0 for a, b in zip(fine, coarse))
    return WindowTerms(tuple(float(x) for x in masses), refinement, quadrature, edge_mass, gram)


def _window_masses(inp, params, grid, cfg):
    """Masses for sampled pulses and the bound on their weighted error: the
    trapezoid window plus the exact linear mass beyond it, the pair sums of
    G_in + G_out less those of G_in, with G_out from the two half-lines."""
    win = window_terms(inp, params, grid, cfg)
    g, g_err, _ = integrate_half_line_multi(
        lambda x, _line: _gram_density(x, inp, params), [grid.max, grid.min], [1.0, -1.0],
        max(grid.max - grid.min, 10.0), _CORRECTION_CFG,
    )
    gram = win.gram + g.sum(axis=0).reshape(4, 4)
    # The convolution mass beyond the window stays unmodeled.  It is bounded
    # from the edges: |conv|^2 decays like the fourth power of the outgoing
    # frequency, so a strip holds about its edge mass * W / 3.
    model_err = win.edge_mass * 0.5 * (grid.max - grid.min) / 3.0
    if model_err > 1e-2:
        raise WindowTooNarrow(
            f"unmodeled out-of-window mass bound {model_err:.3e} exceeds 1e-2", tail_bound=model_err
        )
    masses = np.add(win.masses, _pair_masses(gram) - _pair_masses(win.gram))
    return masses, win.quadrature + win.refinement + _CHANNEL_WEIGHTS @ _gram_error(gram, g_err.sum()) + model_err


def uses_grid(inp: TwoPhotonInput) -> bool:
    """Whether probabilities sums a window on its grid: sampled pulses do,
    Lorentzian pairs are integrated over the whole plane without one."""
    return not (isinstance(inp.left, LorentzianPulse) and isinstance(inp.right, LorentzianPulse))


def probabilities(
    inp: TwoPhotonInput,
    params: NetworkParams,
    grid: FrequencyGrid | None = None,
    cfg: QuadConfig | None = None,
    include_convolution: bool = True,
) -> ScatteringProbabilities:
    """Output-channel probabilities (P_LL, P_LR, P_RR).

    P_LR integrates |T_LR|^2; T_LL and T_RR are symmetric in (omega1,
    omega2), so P_LL and P_RR are half the integrals of their |T|^2.
    ``grid`` is the trapezoid window of sampled pulses, which need it;
    Lorentzian pairs do not use it (uses_grid).
    ``include_convolution=False`` drops the nonlinear term: a diagnostic
    switch for Lorentzian pairs only, which sampled pulses reject.
    """
    if uses_grid(inp) and (grid is None or not include_convolution):
        raise ValidationError("sampled pulses need a grid and keep the convolution term")
    if params.kappa == 0.0:
        # Pass-through network: the photons keep their (unit-norm) pulse
        # shapes and channels, so the split is exact.
        return ScatteringProbabilities(p_ll=0.0, p_lr=1.0, p_rr=0.0, total=1.0, est_error=0.0)
    if uses_grid(inp):
        masses, est_error = _window_masses(inp, params, grid, cfg)
    else:
        masses, est_error = _whole_plane_masses(inp, params, cfg, include_convolution)
    p_ll, p_lr, p_rr = (float(x) for x in _CHANNEL_WEIGHTS * masses)
    total = p_ll + p_lr + p_rr
    return ScatteringProbabilities(
        p_ll=p_ll, p_lr=p_lr, p_rr=p_rr, total=total, est_error=float(est_error)
    )


def hom_scan(
    kappas,
    ratio: float,
    pulse: PulseSpec,
    grid: FrequencyGrid | None = None,
    cfg: QuadConfig | None = None,
) -> list[HomScanRow]:
    """Coincidence scan over coupling strengths with omega_c = ratio * kappa.

    Uses the same pulse in both input channels (the two-photon
    interference setting); kappas must be strictly increasing and > 0.
    ``grid`` is as in probabilities: a sampled pulse needs one.
    """
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValidationError("kappas is empty: give at least one coupling strength")
    if any(k <= 0 for k in kappas):
        raise ValidationError("kappas must be positive")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise ValidationError("kappas must be strictly increasing")
    inp = TwoPhotonInput(pulse, pulse)
    rows = []
    for k in kappas:
        p = probabilities(inp, NetworkParams(kappa=k, omega_c=ratio * k), grid, cfg)
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

    def f(nu, _line):
        t1, t2 = theta_arrays(nu, params)
        xi2 = np.abs(pulse_amplitude(pulse, nu)) ** 2
        return np.stack([np.abs(t1) ** 2 * xi2, np.abs(t2) ** 2 * xi2])

    seeds = graded_seeds([pulse_center(pulse), -params.omega_c], [0.5 * pulse_width(pulse), 2.0 * params.kappa])
    if isinstance(pulse, SampledPulse):
        seeds = np.concatenate([seeds, pulse.grid.points])
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
    A Lorentzian pulse's integral is one _graded_line."""

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
    v, _ = _graded_line(f, [pulse_center(pulse), -params.omega_c], [0.5 * pulse.gamma, 2.0 * params.kappa], cfg)
    return float(v.real)

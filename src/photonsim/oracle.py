"""Closed-form convolution for Lorentzian inputs via contour integration.

The nu-dependent part of the nonlinear convolution is a rational function
with four simple poles: one from each pulse factor and two from the
kernel denominators.  The integrand decays like |nu|^-4, so closing the
contour in the upper half-plane reduces the integral to two residues.
This module evaluates that closed form independently of the adaptive
quadrature path and provides grid-level comparisons between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from .quadrature import QuadConfig, convolve_g

# Two raw pole locations closer than this (relative to the largest pole
# magnitude) are merged into one double pole; below this separation the
# derivative formula is better conditioned than two nearly-cancelling
# simple-pole terms.
POLE_MERGE_TOL = 1e-9


class PoleOrigin(Enum):
    XI_L = "left pulse"
    XI_R = "right pulse"
    G_NU1 = "kernel nu1 factor"
    G_NU2 = "kernel nu2 factor"


@dataclass(frozen=True)
class Pole:
    location: complex
    order: int
    origin: PoleOrigin


@dataclass(frozen=True)
class PoleSet:
    poles: tuple[Pole, ...]
    degenerate: bool


def _pole_locations(omega_sum, gamma_l, gamma_r, omega_o_l, omega_o_r, params: NetworkParams):
    """Raw pole locations in nu of the convolution integrand.

    p_l (left pulse, lower half), p_r (right pulse, upper half),
    q_u (kernel, upper half), q_l (kernel, lower half).
    """
    p_l = -omega_o_l - 0.5j * gamma_l
    p_r = omega_sum + omega_o_r + 0.5j * gamma_r
    q_u = -params.omega_c + 2j * params.kappa
    q_l = omega_sum + params.omega_c - 2j * params.kappa
    return p_l, p_r, q_u, q_l


def poles_for(
    omega1: float,
    omega2: float,
    gamma_l: float,
    gamma_r: float,
    omega_o: float,
    params: NetworkParams,
) -> PoleSet:
    """Analytic pole structure of the convolution integrand at one node."""
    if params.kappa <= 0 or gamma_l <= 0 or gamma_r <= 0:
        raise ValidationError("poles are only off the real axis for kappa, gamma > 0")
    p_l, p_r, q_u, q_l = _pole_locations(omega1 + omega2, gamma_l, gamma_r, omega_o, omega_o, params)
    scale = max(abs(p_l), abs(p_r), abs(q_u), abs(q_l), 1.0)
    degenerate = abs(p_r - q_u) < POLE_MERGE_TOL * scale
    if degenerate:
        merged = 0.5 * (p_r + q_u)
        poles = (
            Pole(p_l, 1, PoleOrigin.XI_L),
            Pole(merged, 2, PoleOrigin.XI_R),
            Pole(q_l, 1, PoleOrigin.G_NU2),
        )
    else:
        poles = (
            Pole(p_l, 1, PoleOrigin.XI_L),
            Pole(p_r, 1, PoleOrigin.XI_R),
            Pole(q_u, 1, PoleOrigin.G_NU1),
            Pole(q_l, 1, PoleOrigin.G_NU2),
        )
    return PoleSet(poles=poles, degenerate=degenerate)


def residue_j(
    omega_sum, gamma_l, gamma_r, omega_o, params: NetworkParams, close="upper", *, omega_o_r=None
):
    """Closed form of the reduced convolution (see quadrature.j_lines).

    Vectorized over ``omega_sum``.  ``omega_o`` is the left pulse's
    centre parameter and ``omega_o_r`` the right one's (default: the
    same); the right pulse pole sits at omega_sum + omega_o_r +
    i gamma_r / 2.  ``close`` selects the half-plane used to close the
    contour; both must agree, which is exercised as an internal
    consistency check in the tests.
    """
    omega_sum = np.asarray(omega_sum, dtype=float)
    if omega_o_r is None:
        omega_o_r = omega_o
    p_l, p_r, q_u, q_l = _pole_locations(omega_sum, gamma_l, gamma_r, omega_o, omega_o_r, params)
    p_l = np.broadcast_to(np.asarray(p_l, dtype=complex), omega_sum.shape)
    q_u = np.broadcast_to(np.asarray(q_u, dtype=complex), omega_sum.shape)
    scale = np.maximum.reduce([np.abs(p_l), np.abs(p_r), np.abs(q_u), np.abs(q_l), np.ones_like(omega_sum)])
    degenerate = np.abs(p_r - q_u) < POLE_MERGE_TOL * scale

    front = -1j * math.sqrt(gamma_l * gamma_r)
    if close == "upper":
        gap = np.where(degenerate, 1.0, p_r - q_u)  # guarded; replaced below
        res_pr = 1.0 / ((p_r - p_l) * gap * (p_r - q_l))
        res_qu = 1.0 / ((q_u - p_l) * (-gap) * (q_u - q_l))
        value = front * (res_pr + res_qu)
        if np.any(degenerate):
            p = 0.5 * (p_r + q_u)
            # Merged double pole: d/dnu [1/((nu-p_l)(nu-q_l))] evaluated at p.
            res2 = -(1.0 / ((p - p_l) ** 2 * (p - q_l)) + 1.0 / ((p - p_l) * (p - q_l) ** 2))
            value = np.where(degenerate, front * res2, value)
    elif close == "lower":
        # Both lower poles stay simple even on the degenerate manifold (the
        # merge happens in the upper half-plane), so no special case.
        res_pl = 1.0 / ((p_l - p_r) * (p_l - q_u) * (p_l - q_l))
        res_ql = 1.0 / ((q_l - p_l) * (q_l - p_r) * (q_l - q_u))
        value = -front * (res_pl + res_ql)
    else:
        raise ValueError("close must be 'upper' or 'lower'")
    return value if value.ndim else complex(value)


def conv_prefactor(omega1, omega2, params: NetworkParams):
    """Rational factor relating the reduced convolution to the full one.

    The kernel's nu-independent factors evaluated at nu1 + nu2 =
    omega1 + omega2; full convolution = prefactor * reduced integral.
    """
    k = params.kappa
    wc = params.omega_c
    s = np.asarray(omega1, dtype=float) + np.asarray(omega2, dtype=float) + 2.0 * wc
    return (
        (-1j * k ** 1.5 / math.pi)
        * (s - 4j * k)
        * s
        / ((np.asarray(omega1) + wc + 2j * k) * (np.asarray(omega2) + wc - 2j * k) * (s - 2j * k))
    )


def residue_convolution(
    omega1: float,
    omega2: float,
    gamma_l: float,
    gamma_r: float,
    omega_o: float,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> complex:
    """Closed-form value of the convolution integral for Lorentzian inputs.

    Independent of the adaptive quadrature path; used to validate it.
    The degenerate double-pole case (gamma_r = 4*kappa with the frequency
    sum on the matching resonance) is handled by the derivative formula.
    """
    del cfg  # accepted for signature parity with the quadrature path
    if params.kappa <= 0:
        raise ValidationError("residue form requires kappa > 0")
    if gamma_l <= 0 or gamma_r <= 0:
        raise ValidationError("residue form requires gamma > 0")
    pref = conv_prefactor(omega1, omega2, params)
    j = residue_j(omega1 + omega2, gamma_l, gamma_r, omega_o, params)
    return complex(pref * j)


@dataclass(frozen=True)
class NodeComparison:
    omega1: float
    omega2: float
    quadrature: complex
    residue: complex
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_err: float
    max_rel_err: float
    worst_node: tuple[float, float]
    near_zero: bool
    nodes: tuple[NodeComparison, ...]  # sorted by decreasing relative error


def compare_on_grid(
    grid: FrequencyGrid,
    gamma_l: float,
    gamma_r: float,
    omega_o: float,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> ComparisonReport:
    """Evaluate both convolution paths on grid x grid and report errors.

    Relative errors are measured against the larger magnitude at each
    node, with nodes below 1e-12 of the grid-wide peak treated as exact
    zeros.  ``near_zero`` flags regimes (e.g. vanishing coupling) where
    both paths are uniformly below 1e-8 in absolute value.
    """
    cfg = cfg or QuadConfig()
    pts = grid.points
    inp = TwoPhotonInput(
        LorentzianPulse(gamma=gamma_l, omega_o=omega_o),
        LorentzianPulse(gamma=gamma_r, omega_o=omega_o),
    )
    records = []
    peak = 0.0
    for w1 in pts:
        for w2 in pts:
            q = convolve_g(float(w1), float(w2), inp, params, cfg).value
            r = residue_convolution(float(w1), float(w2), gamma_l, gamma_r, omega_o, params)
            records.append((float(w1), float(w2), q, r))
            peak = max(peak, abs(r), abs(q))
    floor = 1e-12 * peak
    nodes = []
    for w1, w2, q, r in records:
        abs_err = abs(q - r)
        denom = max(abs(q), abs(r))
        rel_err = 0.0 if denom <= floor else abs_err / denom
        nodes.append(NodeComparison(w1, w2, q, r, abs_err, rel_err))
    nodes.sort(key=lambda nc: nc.rel_err, reverse=True)
    worst = nodes[0]
    return ComparisonReport(
        max_abs_err=max(nc.abs_err for nc in nodes),
        max_rel_err=worst.rel_err,
        worst_node=(worst.omega1, worst.omega2),
        near_zero=peak <= 1e-8,
        nodes=tuple(nodes),
    )

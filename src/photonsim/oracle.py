"""Closed-form convolution for Lorentzian inputs via contour integration.

Up to a constant, the nu-dependent part of the nonlinear convolution is
1 / ((nu - p_l)(nu - p_r)(nu - q_u)(nu - q_l)), with the simple poles of
_pole_locations: p_r, q_u above the real axis and p_l, q_l below.  It
decays like |nu|^-4, so either half-plane closes onto two residues.  With
f(nu) = 1 / ((nu - p_l)(nu - q_l)) the upper two add up to
(f(p_r) - f(q_u)) / (p_r - q_u), whose numerator carries the factor
p_r - q_u; it cancels and leaves one rational in s = omega1 + omega2,

    J(s) = -i sqrt(gamma_L gamma_R) N / (c_R c_L (s + a)(s + 2 omega_c - 4i kappa)),
    a = omega_o,L + omega_o,R + i (gamma_L + gamma_R) / 2,  N = a - 2 omega_c + 4i kappa,
    c_R = p_r - q_l and c_L = q_u - p_l, both independent of s,

which is regular where p_r meets q_u (gamma_R = 4 kappa, the degenerate
manifold).  The lower closure keeps the raw residue sum as a cross-check.
This module evaluates that closed form independently of the adaptive
quadrature path.  compare_on_grid checks convolve_g against it on a grid,
each path in one batched call; kernels.cmul keeps a batch rounding like
the same values taken one at a time, so the report does not depend on
batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .kernels import cmul
from .model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from .quadrature import QuadConfig, convolve_g

# poles_for reports two raw pole locations closer than this (relative to
# the largest pole magnitude) as one double pole.
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
    """Raw poles in nu of the convolution integrand: p_l (left pulse), p_r
    (right pulse), q_u and q_l (kernel), at omega_sum = omega1 + omega2."""
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
    same).  ``close`` selects the half-plane that closes the contour:
    "upper" is the two-pole form of the module docstring, "lower" the raw
    sum of the two lower residues; both must agree.
    """
    omega_sum = np.asarray(omega_sum, dtype=float)
    if omega_o_r is None:
        omega_o_r = omega_o
    front = -1j * math.sqrt(gamma_l * gamma_r)
    if close == "upper":
        k, wc = params.kappa, params.omega_c
        a = omega_o + omega_o_r + 0.5j * (gamma_l + gamma_r)
        b = 2.0 * wc - 4j * k
        c_r = omega_o_r - wc + 1j * (0.5 * gamma_r + 2.0 * k)
        c_l = omega_o - wc + 1j * (0.5 * gamma_l + 2.0 * k)
        value = (front * (a - b) / (c_r * c_l)) / cmul(omega_sum + a, omega_sum + b)
    elif close == "lower":
        # Both lower poles stay simple on the degenerate manifold.
        p_l, p_r, q_u, q_l = _pole_locations(omega_sum, gamma_l, gamma_r, omega_o, omega_o_r, params)
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
    den = cmul(cmul(np.asarray(omega1) + wc + 2j * k, np.asarray(omega2) + wc - 2j * k), s - 2j * k)
    return (-1j * k ** 1.5 / math.pi) * (s - 4j * k) * s / den


def residue_convolution(omega1, omega2, gamma_l: float, gamma_r: float, omega_o: float, params: NetworkParams):
    """Closed-form value of the convolution integral for Lorentzian inputs,
    broadcast over (omega1, omega2); a complex for scalar inputs.

    Independent of the adaptive quadrature path; used to validate it.
    """
    if params.kappa <= 0:
        raise ValidationError("residue form requires kappa > 0")
    if gamma_l <= 0 or gamma_r <= 0:
        raise ValidationError("residue form requires gamma > 0")
    pref = conv_prefactor(omega1, omega2, params)
    value = cmul(pref, residue_j(np.add(omega1, omega2), gamma_l, gamma_r, omega_o, params))
    return value if np.ndim(value) else complex(value)


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

    Each path is one batched call over the grid's pairs.  Relative errors
    are measured against the larger magnitude at each node, with nodes
    below 1e-12 of the grid-wide peak treated as exact zeros.
    ``near_zero`` flags regimes (e.g. vanishing coupling) where both paths
    are uniformly below 1e-8 in absolute value.
    """
    w1, w2 = (w.ravel() for w in np.meshgrid(grid.points, grid.points, indexing="ij"))
    inp = TwoPhotonInput(LorentzianPulse(gamma_l, omega_o), LorentzianPulse(gamma_r, omega_o))
    q = convolve_g(w1, w2, inp, params, cfg).value
    r = residue_convolution(w1, w2, gamma_l, gamma_r, omega_o, params)
    # hypot rounds like abs() on one complex; numpy's vectorised abs may not.
    abs_err, qa, ra = (np.hypot(z.real, z.imag) for z in (q - r, q, r))
    denom = np.maximum(qa, ra)
    peak = float(denom.max())
    rel_err = np.divide(abs_err, denom, out=np.zeros_like(abs_err), where=denom > 1e-12 * peak)
    columns = (a.tolist() for a in (w1, w2, q, r, abs_err, rel_err))
    nodes = sorted(map(NodeComparison, *columns), key=lambda nc: nc.rel_err, reverse=True)
    worst = nodes[0]
    return ComparisonReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=worst.rel_err,
        worst_node=(worst.omega1, worst.omega2),
        near_zero=peak <= 1e-8,
        nodes=tuple(nodes),
    )

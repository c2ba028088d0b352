"""Closed-form convolution for Lorentzian inputs via contour integration.

Up to a constant, the nu-dependent part of the nonlinear convolution is
1 / ((nu - p_l)(nu - p_r)(nu - q_u)(nu - q_l)), with p_r, q_u above the
real axis and p_l, q_l below.  It decays like |nu|^-4, so either
half-plane closes onto two residues; residue_j evaluates both closures.
With f(nu) = 1 / ((nu - p_l)(nu - q_l)) the upper two add up to
(f(p_r) - f(q_u)) / (p_r - q_u), whose numerator carries the factor
p_r - q_u; it cancels and leaves one rational in s = omega1 + omega2,

    J(s) = -i sqrt(gamma_L gamma_R) N / (c_R c_L (s + a)(s + 2 omega_c - 4i kappa)),
    a = omega_o,L + omega_o,R + i (gamma_L + gamma_R) / 2,  N = a - 2 omega_c + 4i kappa,
    c_R = p_r - q_l and c_L = q_u - p_l, both independent of s,

which is regular where p_r meets q_u (gamma_R = 4 kappa, the degenerate
manifold).  The lower closure keeps the raw residue sum at the poles of
_pole_locations as a cross-check; its two poles stay simple there.
This module evaluates that closed form without quadrature and imports
no engine module, so it shares no code with the path it checks;
kernels.cmul keeps a batch rounding like the same values taken one at
a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernels import cmul
from .model import LorentzianPulse, NetworkParams, pulse_amplitude


def _pole_locations(omega_sum, gamma_l, gamma_r, omega_o_l, omega_o_r, params: NetworkParams):
    """Raw poles in nu of the convolution integrand: p_l (left pulse), p_r
    (right pulse), q_u and q_l (kernel), at omega_sum = omega1 + omega2."""
    p_l = -omega_o_l - 0.5j * gamma_l
    p_r = omega_sum + omega_o_r + 0.5j * gamma_r
    q_u = -params.omega_c + 2j * params.kappa
    q_l = omega_sum + params.omega_c - 2j * params.kappa
    return p_l, p_r, q_u, q_l


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


def residue_conv_term(omega1, omega2, gamma_l: float, gamma_r: float, omega_o: float, params: NetworkParams):
    """The convolution term of every channel amplitude (GridAssembly.conv)
    for Lorentzian inputs: the channel factor times residue_convolution."""
    k, wc = params.kappa, params.omega_c
    channel = 2.0 * np.sqrt(k) * (omega1 + wc + 2j * k) / (omega1 + wc - 2j * k)
    return channel * residue_convolution(omega1, omega2, gamma_l, gamma_r, omega_o, params)


def residue_t_lr(omega1: float, omega2: float, pulse: LorentzianPulse, params: NetworkParams) -> complex:
    """Closed-form coincidence amplitude for identical Lorentzian inputs.

    Algebraically equal to amplitudes_at(...).lr with both channels fed
    ``pulse``, by a separate formula and no quadrature: the linear part
    in its own rational form plus residue_conv_term.
    """
    xi = pulse_amplitude(pulse, omega1) * pulse_amplitude(pulse, omega2)
    if params.kappa == 0.0:
        return complex(xi)
    k, wc = params.kappa, params.omega_c
    lin = xi * ((omega1 + wc) * (omega2 + wc) - (2.0 * k) ** 2) / ((omega1 + wc - 2j * k) * (omega2 + wc - 2j * k))
    return lin + residue_conv_term(omega1, omega2, pulse.gamma, pulse.gamma, pulse.omega_o, params)

"""Tests for the linear response, the nonlinear kernel, and the
single-photon output map."""

import math

import numpy as np
import pytest

from photonsim.errors import WindowTooNarrow
from photonsim.kernels import (
    g_kernel,
    single_photon_output,
    theta_arrays,
)
from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, pulse_amplitude
from photonsim.observables import single_photon_norm
from photonsim.quadrature import trapezoid_weights


def test_theta_resonance_is_mirror():
    t1, t2 = theta_arrays(-0.0, NetworkParams(kappa=1.0, omega_c=0.0))
    assert t1 == 0.0
    assert t2 == pytest.approx(-1.0)
    t1, t2 = theta_arrays(-3.0, NetworkParams(kappa=1.0, omega_c=3.0))
    assert t1 == 0.0
    assert t2 == pytest.approx(-1.0)


def test_theta_decoupled_limit():
    assert theta_arrays(5.0, NetworkParams(kappa=0.0, omega_c=0.0)) == (1.0 + 0.0j, 0.0j)
    # The 0/0 corner at resonance resolves through the same branch.
    assert theta_arrays(0.0, NetworkParams(kappa=0.0, omega_c=0.0)) == (1.0 + 0.0j, 0.0j)


def test_theta_hand_value():
    t1, t2 = theta_arrays(2.0, NetworkParams(kappa=1.0, omega_c=0.0))
    assert t1 == pytest.approx(0.5 + 0.5j, abs=1e-15)
    assert t2 == pytest.approx(-0.5 + 0.5j, abs=1e-15)
    assert abs(t1) ** 2 + abs(t2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_theta_unitarity_random():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        omega = rng.uniform(-100, 100)
        params = NetworkParams(rng.uniform(1e-6, 50), rng.uniform(-20, 20))
        t1, t2 = theta_arrays(omega, params)
        assert abs(abs(t1) ** 2 + abs(t2) ** 2 - 1) < 1e-12
        cross = t1 * np.conj(t2) + t2 * np.conj(t1)
        assert abs(cross) < 1e-12


def test_theta_continuity_at_resonance():
    params = NetworkParams(kappa=0.5, omega_c=1.3)
    for eps in (1e-3, 1e-5, 1e-7):
        omegas = np.linspace(-params.omega_c - eps, -params.omega_c + eps, 41)
        t1, t2 = theta_arrays(omegas, params)
        assert np.max(np.abs(np.diff(t1))) < 10.0 * eps
        assert np.max(np.abs(np.diff(t2))) < 10.0 * eps


def test_g_kernel_zero_coupling():
    assert g_kernel(1.0, 2.0, 3.0, 4.0, NetworkParams(kappa=0.0)) == 0.0j


def test_g_kernel_zero_on_sum_resonance():
    # The frequency-sum factor in the numerator vanishes.
    val = g_kernel(0.7, -0.2, 1.0, -1.0, NetworkParams(kappa=1.0, omega_c=0.0))
    assert val == 0.0j
    val = g_kernel(0.7, -0.2, 2.0, -4.0, NetworkParams(kappa=2.0, omega_c=1.0))
    assert val == 0.0j


def _g_direct(w1, w2, n1, n2, kappa, wc):
    """Independent transcription of the kernel used to cross-check the
    packaged one."""
    num1 = n1 + n2 + 2 * wc - 4j * kappa
    den1 = (w1 + wc + 2j * kappa) * (w2 + wc - 2j * kappa)
    num2 = n1 + n2 + 2 * wc
    den2 = (n1 + wc - 2j * kappa) * (n2 + wc - 2j * kappa) * (n1 + n2 + 2 * wc - 2j * kappa)
    return -1j * kappa ** 1.5 / math.pi * (num1 / den1) * (num2 / den2)


def test_g_kernel_dual_evaluation():
    rng = np.random.default_rng(9)
    for _ in range(500):
        w1, w2, n1, n2 = rng.uniform(-8, 8, 4)
        kappa = rng.uniform(0.05, 10)
        wc = rng.uniform(-5, 5)
        a = g_kernel(w1, w2, n1, n2, NetworkParams(kappa, wc))
        b = _g_direct(w1, w2, n1, n2, kappa, wc)
        assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1.0)


def test_g_kernel_sign_reflection_conjugates():
    # Negating all four frequencies and the detuning conjugates the kernel
    # (two numerator factors, five denominator factors, each picking up a
    # -conj under the reflection, times the overall -i).
    rng = np.random.default_rng(10)
    for _ in range(300):
        w1, w2, n1, n2 = rng.uniform(-8, 8, 4)
        kappa = rng.uniform(0.05, 10)
        wc = rng.uniform(-5, 5)
        g = g_kernel(w1, w2, n1, n2, NetworkParams(kappa, wc))
        g_neg = g_kernel(-w1, -w2, -n1, -n2, NetworkParams(kappa, -wc))
        assert abs(g_neg - np.conj(g)) <= 1e-12 * max(abs(g), 1e-30)


def test_g_kernel_far_tail_no_overflow():
    val = g_kernel(1e6, -1e6, 5e5, 2e5, NetworkParams(1.0, 0.0))
    assert np.isfinite(val)


def test_single_photon_output_pass_through():
    grid = FrequencyGrid(-60.0, 60.0, 601)
    pulse = LorentzianPulse(1.0)
    out = single_photon_output(pulse, grid, NetworkParams(kappa=0.0))
    xi = pulse_amplitude(pulse, grid.points)
    assert np.array_equal(out.eta_l, xi)
    assert not np.any(out.eta_r)


def test_single_photon_output_strong_coupling_reflection():
    # eta_r approaches -amplitude; the residual is the same-channel leak.
    grid = FrequencyGrid(-40.0, 40.0, 801)
    pulse = LorentzianPulse(1.0)
    out = single_photon_output(pulse, grid, NetworkParams(kappa=100.0))
    xi = pulse_amplitude(pulse, grid.points)
    wt = trapezoid_weights(grid)
    leak = float(wt @ np.abs(out.eta_r + xi) ** 2)
    assert leak <= 1e-3


def test_single_photon_norm_unitary():
    for gamma in (0.5, 1.0, 2.0):
        for kappa in (0.1, 1.0, 10.0):
            norm = single_photon_norm(LorentzianPulse(gamma), NetworkParams(kappa, 0.0))
            assert norm == pytest.approx(1.0, abs=1e-6)


def test_single_photon_output_window_too_narrow():
    grid = FrequencyGrid(-1.0, 1.0, 11)
    with pytest.raises(WindowTooNarrow):
        single_photon_output(LorentzianPulse(1.0), grid, NetworkParams(1.0))

"""Tests for the joint spectral amplitudes and grid fills."""

import numpy as np
import pytest

from photonsim.amplitudes import (
    Channel,
    amplitude_grid,
    amplitudes_at,
    channel_matrices,
    linear_parts,
)
from photonsim.errors import NoConvergence
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    pulse_amplitude,
)
from photonsim.oracle import residue_t_lr
from photonsim.quadrature import QuadConfig, integrate_grid_2d, trapezoid_weights

PULSE = LorentzianPulse(1.0, 0.0)
IDENTICAL = TwoPhotonInput(PULSE, PULSE)
FIG_PARAMS = NetworkParams(1.5, 0.0, 0.0)


def test_zero_coupling_amplitudes():
    at = amplitudes_at(0.3, -0.2, IDENTICAL, NetworkParams(0.0))
    assert at.ll[0] == 0.0j
    assert at.rr[0] == 0.0j
    want = pulse_amplitude(PULSE, 0.3) * pulse_amplitude(PULSE, -0.2)
    assert at.lr[0] == pytest.approx(want)


def test_zero_coupling_grid_all_zero():
    grid = FrequencyGrid(-6.0, 6.0, 21)
    amp = amplitude_grid(Channel.LL, grid, IDENTICAL, NetworkParams(0.0))
    assert not np.any(amp.values)
    assert amp.max_point_error == 0.0


def test_linear_parts_match_literal_rational_form():
    # The factored single-photon products must reproduce the direct
    # rational expressions for all three channels.
    rng = np.random.default_rng(13)
    inp = TwoPhotonInput(LorentzianPulse(1.0, 0.3), LorentzianPulse(2.0, 0.3))
    params = NetworkParams(1.7, -0.9)
    k, wc = params.kappa, params.omega_c
    w1 = rng.uniform(-6, 6, 7)
    w2 = rng.uniform(-6, 6, 9)
    ll, lr, rr = linear_parts(w1[:, None], w2[None, :], inp, params)
    for i in range(7):
        for j in range(9):
            a, b = w1[i], w2[j]
            d = (a + wc - 2j * k) * (b + wc - 2j * k)
            xl1 = pulse_amplitude(inp.left, a)
            xl2 = pulse_amplitude(inp.left, b)
            xr1 = pulse_amplitude(inp.right, a)
            xr2 = pulse_amplitude(inp.right, b)
            ll_lit = xl1 * xr2 * (2j * k * (a + wc)) / d + xl2 * xr1 * (2j * k * (b + wc)) / d
            lr_lit = xl1 * xr2 * ((a + wc) * (b + wc)) / d - xl2 * xr1 * (2 * k) ** 2 / d
            rr_lit = xl1 * xr2 * (2j * k * (b + wc)) / d + xl2 * xr1 * (2j * k * (a + wc)) / d
            assert abs(ll[i, j] - ll_lit) <= 1e-14 * max(abs(ll_lit), 1.0)
            assert abs(lr[i, j] - lr_lit) <= 1e-14 * max(abs(lr_lit), 1.0)
            assert abs(rr[i, j] - rr_lit) <= 1e-14 * max(abs(rr_lit), 1.0)


def test_identical_pulses_ll_equals_rr_pointwise():
    w1, w2 = np.random.default_rng(14).uniform(-6, 6, (25, 2)).T
    at = amplitudes_at(w1, w2, IDENTICAL, FIG_PARAMS)
    assert np.all(np.abs(at.ll - at.rr) <= 1e-12 * np.maximum(np.abs(at.ll), 1.0))


def test_identical_pulses_ll_equals_rr_grid_bitwise():
    grid = FrequencyGrid(-6.0, 6.0, 31)
    ga = channel_matrices(grid, IDENTICAL, FIG_PARAMS)
    assert np.array_equal(ga.ll, ga.rr)


def test_swap_product_identity():
    # conj(T)[w1,w2] * T[w2,w1] equals |T[w1,w2]|^2 for identical pulses
    # (the amplitude is exchange symmetric).
    w1, w2 = np.random.default_rng(15).uniform(-6, 6, (25, 2)).T
    t12 = amplitudes_at(w1, w2, IDENTICAL, FIG_PARAMS).rr
    t21 = amplitudes_at(w2, w1, IDENTICAL, FIG_PARAMS).rr
    assert np.all(np.abs(np.conj(t12) * t21 - np.abs(t12) ** 2) <= 1e-8 * np.maximum(np.abs(t12) ** 2, 1e-12))


def test_general_equals_specialized_coincidence_form():
    rng = np.random.default_rng(16)
    for params in (FIG_PARAMS, NetworkParams(1.5, 3.0)):
        w1, w2 = rng.uniform(-6, 6, (10, 2)).T
        a = amplitudes_at(w1, w2, IDENTICAL, params).lr
        b = [residue_t_lr(x, y, PULSE, params) for x, y in zip(w1, w2)]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0))


def test_grid_matches_pointwise_evaluation():
    grid = FrequencyGrid(-6.0, 6.0, 13)
    ga = channel_matrices(grid, IDENTICAL, FIG_PARAMS)
    pts = grid.points
    for i in (0, 4, 9):
        for j in (2, 6, 12):
            at = amplitudes_at(float(pts[i]), float(pts[j]), IDENTICAL, FIG_PARAMS)
            assert abs(ga.lr[i, j] - at.lr[0]) <= 1e-12
            assert abs(ga.ll[i, j] - at.ll[0]) <= 1e-12


@pytest.mark.parametrize(
    "inp, params",
    [
        (IDENTICAL, FIG_PARAMS),
        (TwoPhotonInput(LorentzianPulse(0.7, 0.3), LorentzianPulse(1.3, -0.2)), NetworkParams(3.0, 1.0)),
        (IDENTICAL, NetworkParams(0.0)),
    ],
    ids=["identical", "distinct", "pass-through"],
)
def test_amplitudes_at_matches_grid_fill(inp, params):
    # One rung per pair must give the grid fill's ladder values.
    grid = FrequencyGrid(-6.0, 6.0, 13)
    pts = grid.points
    ga = channel_matrices(grid, inp, params)
    at = amplitudes_at(pts[:, None], pts[None, :], inp, params)
    for name in ("ll", "lr", "rr"):
        assert np.abs(getattr(at, name) - getattr(ga, name)).max() <= 1e-12
    assert abs(amplitudes_at(pts[3], pts[8], inp, params).lr[0] - at.lr[3, 8]) <= 1e-12


def test_fig_style_grid_is_sane():
    grid = FrequencyGrid(-6.0, 6.0, 121)
    amp = amplitude_grid(Channel.LR, grid, IDENTICAL, FIG_PARAMS)
    dens = np.abs(amp.values) ** 2
    assert np.all(np.isfinite(dens))
    assert dens.max() > 0
    assert amp.max_point_error < 1e-8


def test_grid_refinement_consistency():
    coarse = FrequencyGrid(-6.0, 6.0, 121)
    fine = FrequencyGrid(-6.0, 6.0, 241)
    amp_c = amplitude_grid(Channel.LR, coarse, IDENTICAL, FIG_PARAMS)
    amp_f = amplitude_grid(Channel.LR, fine, IDENTICAL, FIG_PARAMS)
    mass_c = integrate_grid_2d(np.abs(amp_c.values) ** 2, coarse, coarse).real
    mass_f = integrate_grid_2d(np.abs(amp_f.values) ** 2, fine, fine).real
    assert abs(mass_c - mass_f) < 1e-3


def test_weak_coupling_limit():
    grid = FrequencyGrid(-6.0, 6.0, 120)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    ga = channel_matrices(grid, inp, NetworkParams(1e-4, 0.0))
    xi = pulse_amplitude(PULSE, grid.points)
    wt = trapezoid_weights(grid)
    dist = float(wt @ np.abs(ga.lr - np.outer(xi, xi)) ** 2 @ wt)
    assert dist <= 1e-3
    same_channel = float(wt @ (np.abs(ga.ll) ** 2 + np.abs(ga.rr) ** 2) @ wt)
    assert same_channel <= 1e-3


def test_strong_coupling_limit_distinct_pulses():
    grid = FrequencyGrid(-12.0, 12.0, 121)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(2.0))
    ga = channel_matrices(grid, inp, NetworkParams(100.0, 0.0))
    xi_l = pulse_amplitude(inp.left, grid.points)
    xi_r = pulse_amplitude(inp.right, grid.points)
    wt = trapezoid_weights(grid)
    # T_LR approaches xi_L(w2) xi_R(w1): the photons swap channels.
    dist = float(wt @ np.abs(ga.lr - np.outer(xi_r, xi_l)) ** 2 @ wt)
    assert dist <= 1e-2
    same_channel = float(wt @ (np.abs(ga.ll) ** 2 + np.abs(ga.rr) ** 2) @ wt)
    assert same_channel <= 1e-2


def test_no_convergence_names_the_failing_rung():
    grid = FrequencyGrid(-2.0, 2.0, 5)
    cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=2)
    with pytest.raises(NoConvergence) as exc_info:
        channel_matrices(grid, IDENTICAL, FIG_PARAMS, cfg)
    assert exc_info.value.node is not None

"""Tests for the residue-calculus convolution oracle."""

import numpy as np
import pytest

from photonsim.amplitudes import channel_matrices
from photonsim.errors import ValidationError
from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from photonsim.oracle import (
    residue_conv_term,
    residue_convolution,
    residue_j,
    residue_t_lr,
)
from photonsim.quadrature import j_lines


def test_poles_require_positive_rates():
    with pytest.raises(ValidationError):
        residue_convolution(0.0, 0.1, 1.0, 1.0, 0.0, NetworkParams(0.0))
    with pytest.raises(ValidationError):
        residue_convolution(0.0, 0.1, -1.0, 1.0, 0.0, NetworkParams(1.0))


def test_contour_side_consistency():
    rng = np.random.default_rng(6)
    for _ in range(300):
        params = NetworkParams(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        gl, gr = rng.uniform(0.3, 4, 2)
        wo = rng.uniform(-2, 2)
        s = rng.uniform(-12, 12)
        up = residue_j(s, gl, gr, wo, params)
        down = residue_j(s, gl, gr, wo, params, close="lower")
        assert abs(up - down) <= 1e-10 * max(abs(up), 1e-30)


def test_randomized_agreement_with_quadrature():
    # The ladder's J against the closed form on 1,000 draws with distinct
    # widths, and its error estimate against the true error on every draw.
    rng = np.random.default_rng(12)
    for _ in range(200):
        params = NetworkParams(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        gl, gr = rng.uniform(0.3, 4, 2)
        wo = rng.uniform(-2, 2)
        inp = TwoPhotonInput(LorentzianPulse(gl, wo), LorentzianPulse(gr, wo))
        sums = rng.uniform(-6, 6, (5, 2)).sum(axis=1)
        q, est, _ = j_lines(sums, inp, params)
        r = residue_j(sums, gl, gr, wo, params)
        err = np.abs(q - r)
        assert np.all(err <= np.maximum(1e-5 * np.maximum(np.abs(q), np.abs(r)), 1e-10))
        assert np.all(err <= 10.0 * est + 1e-14)


def test_vanishing_on_sum_resonance():
    # The frequency-sum numerator factor is common to both paths.
    params = NetworkParams(1.2, 0.7)
    w1 = 0.4
    w2 = -w1 - 2 * params.omega_c
    assert residue_convolution(w1, w2, 1.0, 2.0, 0.0, params) == 0.0j


def test_near_zero_coupling():
    params = NetworkParams(1e-6, 0.0)
    val = residue_convolution(0.5, -0.3, 1.0, 1.0, 0.0, params)
    assert abs(val) <= 1e-8


def test_degenerate_double_pole_bracketed():
    kappa, wc, wo, gl = 0.5, 0.8, -0.2, 1.0
    gr = 4 * kappa
    params = NetworkParams(kappa, wc, wo)
    s0 = -wc - wo
    j0 = residue_j(s0, gl, gr, wo, params)
    jp = residue_j(s0 + 1e-4, gl, gr, wo, params)
    jm = residue_j(s0 - 1e-4, gl, gr, wo, params)
    mid = 0.5 * (jp + jm)
    assert abs(j0 - mid) <= 1e-6 * abs(j0)
    # And the ladder agrees right on the degenerate manifold.
    inp = TwoPhotonInput(LorentzianPulse(gl, wo), LorentzianPulse(gr, wo))
    q = j_lines(s0, inp, params)[0][0]
    assert abs(q - j0) <= 1e-6 * abs(j0)


@pytest.mark.parametrize(
    "kappa, wc, wo_l, wo_r, gl",
    [(0.5, 0.8, -0.2, -0.2, 1.0), (2.3, -1.7, 0.4, 1.1, 0.35), (0.05, 3.0, 0.0, -2.0, 3.2)],
)
def test_upper_closure_accurate_near_double_pole(kappa, wc, wo_l, wo_r, gl):
    # On gamma_r = 4 kappa the upper pulse and kernel poles merge at
    # s = -omega_c - omega_o,R.  Summed term by term, the two nearly
    # cancelling upper residues lost up to 4.9e-9 relative accuracy at
    # these points (offset 1e-7); the lower closure has no merge.
    params = NetworkParams(kappa, wc, wo_l)
    s = -wc - wo_r + np.array([0.0, 1e-12, 1e-9, 1e-7, 1e-5])
    up = residue_j(s, gl, 4 * kappa, wo_l, params, omega_o_r=wo_r)
    down = residue_j(s, gl, 4 * kappa, wo_l, params, close="lower", omega_o_r=wo_r)
    assert np.all(np.abs(up - down) <= 1e-13 * np.abs(down))


def test_residue_convolution_batch_equals_per_pair_calls():
    params = NetworkParams(0.9, 0.4)
    w = np.linspace(-5.0, 5.0, 9)
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    batch = residue_convolution(w1, w2, 0.7, 1.9, 0.2, params)
    assert batch.shape == (9, 9)
    for idx in np.ndindex(9, 9):
        one = residue_convolution(float(w1[idx]), float(w2[idx]), 0.7, 1.9, 0.2, params)
        assert type(one) is complex and one == batch[idx]


@pytest.mark.parametrize(
    "pulse, params",
    [(LorentzianPulse(1.0), NetworkParams(1.5, 0.0)), (LorentzianPulse(0.7, 0.4), NetworkParams(0.8, -1.3))],
)
def test_conv_term_and_t_lr_batch_equal_one_node_calls(pulse, params):
    # verify compares a batch of amplitudes with residue_t_lr; the oracle's
    # values must not depend on how its nodes are batched.
    w1, w2 = np.random.default_rng(8).uniform(-6.0, 6.0, (2, 500))
    conv = residue_conv_term(w1, w2, pulse.gamma, pulse.gamma, pulse.omega_o, params)
    lr = residue_t_lr(w1, w2, pulse, params)
    for i, (a, b) in enumerate(zip(w1.tolist(), w2.tolist())):
        one_conv = residue_conv_term(a, b, pulse.gamma, pulse.gamma, pulse.omega_o, params)
        one_lr = residue_t_lr(a, b, pulse, params)
        assert type(one_conv) is complex and one_conv == conv[i]
        assert type(one_lr) is complex and one_lr == lr[i]


def test_grid_fill_near_zero_coupling():
    # Even node count keeps omega = -omega_c off the grid; on that line
    # the channel prefactor contributes 1/kappa and the amplitude only
    # vanishes like sqrt(kappa) instead of kappa^(3/2).  Both sides sit far
    # below any relative floor, so the bound is absolute.
    grid = FrequencyGrid(-2.0, 2.0, 4)
    params = NetworkParams(1e-6, 0.0)
    want = residue_conv_term(grid.points[:, None], grid.points[None, :], 1.0, 1.0, 0.0, params)
    got = channel_matrices(grid, TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0)), params).conv
    assert np.abs(want).max() <= 1e-8
    assert np.abs(got - want).max() <= 1e-8

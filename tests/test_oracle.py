"""Tests for the residue-calculus convolution oracle."""

import numpy as np
import pytest

from photonsim.errors import ValidationError
from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from photonsim.oracle import (
    compare_on_grid,
    residue_convolution,
    residue_j,
)
from photonsim.quadrature import convolve_g


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
    rng = np.random.default_rng(12)
    for _ in range(200):
        params = NetworkParams(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        gl, gr = rng.uniform(0.3, 4, 2)
        wo = rng.uniform(-2, 2)
        inp = TwoPhotonInput(LorentzianPulse(gl, wo), LorentzianPulse(gr, wo))
        for _ in range(5):
            w1, w2 = rng.uniform(-6, 6, 2)
            q = convolve_g(float(w1), float(w2), inp, params).value
            r = residue_convolution(float(w1), float(w2), gl, gr, wo, params)
            assert abs(q - r) <= max(1e-5 * max(abs(q), abs(r)), 1e-10)


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
    # And the quadrature path agrees right on the degenerate manifold.
    inp = TwoPhotonInput(LorentzianPulse(gl, wo), LorentzianPulse(gr, wo))
    w1 = 0.3
    w2 = s0 - w1
    q = convolve_g(w1, w2, inp, params).value
    r = residue_convolution(w1, w2, gl, gr, wo, params)
    assert abs(q - r) <= 1e-6 * abs(r)


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


def test_compare_on_grid_small():
    grid = FrequencyGrid(-6.0, 6.0, 5)
    report = compare_on_grid(grid, 1.0, 1.0, 0.0, NetworkParams(1.5, 0.0))
    assert report.max_rel_err <= 1e-6
    assert not report.near_zero


def test_residue_convolution_batch_equals_per_pair_calls():
    params = NetworkParams(0.9, 0.4)
    w = np.linspace(-5.0, 5.0, 9)
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    batch = residue_convolution(w1, w2, 0.7, 1.9, 0.2, params)
    assert batch.shape == (9, 9)
    for idx in np.ndindex(9, 9):
        one = residue_convolution(float(w1[idx]), float(w2[idx]), 0.7, 1.9, 0.2, params)
        assert type(one) is complex and one == batch[idx]


@pytest.mark.parametrize("wc", [0.0, 3.0])
def test_compare_on_grid_matches_per_node_calls(wc):
    # The batched report holds what scalar calls of both paths give; the
    # worst node is the first of the largest relative errors in row-major
    # order, which the stable sort keeps first.
    grid = FrequencyGrid(-6.0, 6.0, 7)
    params = NetworkParams(1.5, wc)
    report = compare_on_grid(grid, 1.0, 1.0, 0.0, params)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    rows = []
    for w1 in grid.points:
        for w2 in grid.points:
            q = convolve_g(float(w1), float(w2), inp, params).value
            r = residue_convolution(float(w1), float(w2), 1.0, 1.0, 0.0, params)
            rows.append((float(w1), float(w2), q, r, abs(q - r), max(abs(q), abs(r))))
    floor = 1e-12 * max(row[5] for row in rows)
    want = [(*row[:5], 0.0 if row[5] <= floor else row[4] / row[5]) for row in rows]
    want.sort(key=lambda row: row[5], reverse=True)
    assert report.max_abs_err == max(row[4] for row in want)
    assert (report.max_rel_err, report.worst_node) == (want[0][5], want[0][:2])


def test_compare_on_grid_near_zero_regime():
    # Even node count keeps omega = -omega_c off the grid; on that line
    # the channel prefactor contributes 1/kappa and the amplitude only
    # vanishes like sqrt(kappa) instead of kappa^(3/2).
    grid = FrequencyGrid(-2.0, 2.0, 4)
    report = compare_on_grid(grid, 1.0, 1.0, 0.0, NetworkParams(1e-6, 0.0))
    assert report.near_zero
    assert report.max_abs_err <= 1e-8

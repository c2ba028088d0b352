"""Tests for the out-of-window strip and corner integrals and the error
estimate of the probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonsim.observables
from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from photonsim.observables import _block_densities, _tail_corrections, probabilities
from photonsim.oracle import conv_prefactor, residue_j

WIDE = FrequencyGrid(-40.0, 40.0, 801)


def lorentzians(gamma_l, gamma_r, omega_o_l=0.0, omega_o_r=0.0):
    return TwoPhotonInput(LorentzianPulse(gamma_l, omega_o_l), LorentzianPulse(gamma_r, omega_o_r))


# Out-of-window masses (LL, LR, RR) on -40:40:801, recorded from the
# nested scalar integrals these batched ones replaced.
@pytest.mark.parametrize(
    "inp, params, want",
    [
        (
            lorentzians(1.0, 1.0),
            NetworkParams(2.0, 4.0),
            (0.00789700511990583, 0.008015122240208271, 0.00789700511990583),
        ),
        (
            lorentzians(1.0, 1.0),
            NetworkParams(20.0, 40.0),  # kernel pole at the window edge
            (0.008784466762886401, 0.008984554400289769, 0.008784466762886401),
        ),
        (
            lorentzians(0.6, 1.8),
            NetworkParams(7.0, -15.0),
            (0.004738784674290369, 0.010784020820477079, 0.012743672101173529),
        ),
        (
            lorentzians(1.0, 1.0, 0.3, -0.4),
            NetworkParams(1.5, 0.0),
            (0.013477108338950364, 0.0023893206895110827, 0.013554063886771587),
        ),
    ],
)
def test_tail_masses_match_recorded_values(inp, params, want):
    got, err = _tail_corrections(inp, params, WIDE, True, True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert 0 < err < 1e-8


@pytest.mark.parametrize("n", [160, 800])
def test_est_error_covers_conservation_on_even_grids(n):
    # An even point count has no every-second-point sub-grid; the
    # trapezoid part of est_error must still be there.
    p = probabilities(lorentzians(1.0, 1.0), NetworkParams(2.0, 4.0), FrequencyGrid(-40.0, 40.0, n))
    assert abs(p.total - 1.0) <= 5.0 * p.est_error


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kappa=st.floats(0.5, 20.0),
    detuning=st.floats(-3.0, 3.0),
    gamma_l=st.floats(0.5, 2.0),
    gamma_r=st.floats(0.5, 2.0),
)
def test_conservation_within_error_estimate(kappa, detuning, gamma_l, gamma_r):
    p = probabilities(lorentzians(gamma_l, gamma_r), NetworkParams(kappa, detuning * kappa), WIDE)
    assert abs(p.total - 1.0) <= max(5.0 * p.est_error, 2e-3)


# Out-of-window frequencies: with omega_c = -1.25, 42.5, 42.0 and 40.7 meet
# the grid points -40, -39.5 and -38.2 at s' = omega1 + omega2 + 2 omega_c
# = 0 exactly, as do the corner pairs (50, -47.5) and (-47.5, 50).
BEYOND = np.array([42.5, 42.0, 40.7, 55.0, 310.0, 4e3, -40.3, -47.5, -90.0, -2.5e3])


@pytest.mark.parametrize("params", [NetworkParams(0.7, -1.25), NetworkParams(4.2, 8.4)])
@pytest.mark.parametrize("shape", ["strip-rows", "strip-columns", "corners"])
def test_tail_convolution_term_matches_oracle(monkeypatch, params, shape):
    # The out-of-window amplitude is built on the path that ships: the
    # convolution term that _block_densities hands through assemble must
    # equal the channel factor times the oracle's own prefactor and its
    # lower-closure residue J, independent of that path's factorisation.
    inp = lorentzians(0.6, 1.8, 0.3, -0.4)
    w = WIDE.points
    if shape == "strip-rows":
        w1, w2 = BEYOND[:, None], w
    elif shape == "strip-columns":
        w1, w2 = w, BEYOND[:, None]
    else:
        w1 = np.concatenate([BEYOND, [50.0, -47.5]])
        w2 = np.concatenate([BEYOND[::-1], [-47.5, 50.0]])
    seen = []
    real = photonsim.observables.assemble

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(photonsim.observables, "assemble", spy)
    dens = _block_densities(w1, w2, inp, params, True, True)
    (ga,) = seen
    assert np.array_equal(dens[1], np.abs(ga.lr) ** 2)

    k, wc = params.kappa, params.omega_c
    w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
    channel = 2.0 * np.sqrt(k) * (w1 + wc + 2j * k) / (w1 + wc - 2j * k)
    j = residue_j(w1 + w2, 0.6, 1.8, 0.3, params, close="lower", omega_o_r=-0.4)
    want = channel * conv_prefactor(w1, w2, params) * j
    got = ga.conv
    assert got.shape == want.shape
    zero = w1 + w2 + 2.0 * wc == 0.0
    assert np.all(got[zero] == 0.0) and np.all(want[zero] == 0.0)
    if wc == -1.25:
        assert zero.sum() == (2 if shape == "corners" else 3)
    scale = np.maximum(np.abs(got), np.abs(want))
    rel = np.abs(got - want)[~zero] / scale[~zero]
    assert rel.max() <= 1e-12

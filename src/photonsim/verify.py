"""Self-verification suite: oracle comparisons and invariant checks.

Each check returns its worst observed deviation together with the
threshold it must stay under; the CLI renders the results as a PASS/FAIL
table and a machine-readable report.  The full suite targets a two-minute
budget, the quick subset about ten seconds.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .amplitudes import t_ll, t_lr, t_lr_identical, t_rr
from .model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from .observables import (
    conservation_check,
    hom_scan,
    probabilities,
    single_photon_norm,
    single_photon_probabilities,
)
from .oracle import compare_on_grid, residue_j
from .quadrature import integrate_grid_2d
from .amplitudes import channel_matrices


def _check_linear_unitarity(quick):
    rng = np.random.default_rng(2024)
    n = 1000 if quick else 10000
    worst = 0.0
    for _ in range(n):
        omega = rng.uniform(-50, 50)
        params = NetworkParams(rng.uniform(1e-3, 20), rng.uniform(-10, 10))
        t = kernels.theta(omega, params)
        worst = max(
            worst,
            abs(abs(t.theta1) ** 2 + abs(t.theta2) ** 2 - 1.0),
            abs(t.theta1 * np.conj(t.theta2) + t.theta2 * np.conj(t.theta1)),
        )
    return worst, 1e-12, f"{n} random (omega, kappa, omega_c) draws"


def _check_kernel_conjugation(quick):
    rng = np.random.default_rng(7)
    n = 200 if quick else 2000
    worst = 0.0
    for _ in range(n):
        w1, w2, n1, n2 = rng.uniform(-8, 8, 4)
        k = rng.uniform(0.05, 10)
        wc = rng.uniform(-5, 5)
        g = kernels.g_kernel(w1, w2, n1, n2, NetworkParams(k, wc))
        g_neg = kernels.g_kernel(-w1, -w2, -n1, -n2, NetworkParams(k, -wc))
        scale = max(abs(g), 1e-30)
        worst = max(worst, abs(g_neg - np.conj(g)) / scale)
    return worst, 1e-12, f"{n} sign-reflection draws"


def _check_oracle_match(quick):
    n = 5 if quick else 11
    grid = FrequencyGrid(-6.0, 6.0, n)
    worst = 0.0
    for wc in (0.0, 3.0):
        report = compare_on_grid(grid, 1.0, 1.0, 0.0, NetworkParams(1.5, wc))
        worst = max(worst, report.max_rel_err)
    return worst, 1e-6, f"residue vs quadrature on {n}x{n} nodes, omega_c in (0, 3)"


def _check_contour_sides(quick):
    rng = np.random.default_rng(3)
    n = 50 if quick else 300
    worst = 0.0
    for _ in range(n):
        params = NetworkParams(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        gl, gr = rng.uniform(0.3, 4, 2)
        wo = rng.uniform(-2, 2)
        s = rng.uniform(-10, 10)
        up = residue_j(s, gl, gr, wo, params)
        down = residue_j(s, gl, gr, wo, params, close="lower")
        worst = max(worst, abs(up - down) / max(abs(up), 1e-30))
    return worst, 1e-10, f"{n} upper-vs-lower contour closures"


def _check_conservation(quick):
    n = 301 if quick else 401
    grid = FrequencyGrid(-40.0, 40.0, n)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    dev = conservation_check(inp, NetworkParams(1.5, 0.0), grid)
    return dev, 2e-3, f"|P_LL+P_LR+P_RR - 1| on n={n}"


def _check_coupling_limits(quick):
    from .model import pulse_amplitude

    grid = FrequencyGrid(-12.0, 12.0, 60 if quick else 120)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(2.0))
    xi_l = pulse_amplitude(inp.left, grid.points)
    xi_r = pulse_amplitude(inp.right, grid.points)
    # weak coupling: coincidence amplitude reverts to the input product
    ga = channel_matrices(grid, inp, NetworkParams(1e-4, 0.0))
    dev_weak = integrate_grid_2d(np.abs(ga.lr - np.outer(xi_l, xi_r)) ** 2, grid, grid).real
    # strong coupling: photons swap channels, T_LR -> xi_L(w2) xi_R(w1)
    ga = channel_matrices(grid, inp, NetworkParams(100.0, 0.0))
    dev_strong = integrate_grid_2d(np.abs(ga.lr - np.outer(xi_r, xi_l)) ** 2, grid, grid).real
    return max(dev_weak / 1e-3, dev_strong / 1e-2), 1.0, "weak/strong coupling limit distances (scaled)"


def _check_identical_identities(quick):
    rng = np.random.default_rng(5)
    pulse = LorentzianPulse(1.0)
    inp = TwoPhotonInput(pulse, pulse)
    params = NetworkParams(1.5, 0.0)
    n = 10 if quick else 50
    worst = 0.0
    for _ in range(n):
        w1, w2 = rng.uniform(-6, 6, 2)
        a = t_ll(w1, w2, inp, params)
        b = t_rr(w1, w2, inp, params)
        c = t_lr(w1, w2, inp, params)
        d = t_lr_identical(w1, w2, pulse, params)
        swap = t_rr(w2, w1, inp, params)
        worst = max(
            worst,
            abs(a - b) / 1e-12,
            abs(c - d) / 1e-12,
            abs(np.conj(a) * swap - abs(a) ** 2) / 1e-8,
        )
    return worst, 1.0, f"channel identities at {n} random nodes (scaled)"


def _check_single_photon(quick):
    worst = 0.0
    gammas = (1.0,) if quick else (0.5, 1.0, 2.0)
    kappas = (1.0,) if quick else (0.1, 1.0, 10.0)
    for g in gammas:
        for k in kappas:
            norm = single_photon_norm(LorentzianPulse(g), NetworkParams(k, 0.0))
            worst = max(worst, abs(norm - 1.0))
    grid = FrequencyGrid(-40.0, 40.0, 801)
    p_left, _ = single_photon_probabilities(LorentzianPulse(1.0), NetworkParams(100.0, 0.0), grid)
    reflect_ok = p_left <= 1e-3
    return worst if reflect_ok else 1.0, 1e-6, "output norms and strong-coupling reflection"


def _check_hom_monotone(quick):
    grid = FrequencyGrid(-40.0, 40.0, 201 if quick else 801)
    kappas = [0.5, 20.0] if quick else [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    rows = hom_scan(kappas, 2.0, LorentzianPulse(1.0), grid)
    decreasing = all(b.p_lr < a.p_lr for a, b in zip(rows, rows[1:]))
    tail_ok = rows[-1].p_lr < 0.1
    return (0.0 if (decreasing and tail_ok) else 1.0), 0.5, f"coincidence scan over kappa={kappas}"


def _check_convolution_effect(quick):
    # Diagnostic negative control: the nonlinear term must visibly move the
    # coincidence probability (probability conservation alone cannot see it,
    # because the independent-scattering part is itself unitary).
    grid = FrequencyGrid(-40.0, 40.0, 101 if quick else 401)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    params = NetworkParams(1.5, 0.0)
    full = probabilities(inp, params, grid)
    lin = probabilities(inp, params, grid, include_convolution=False)
    shift = abs(full.p_lr - lin.p_lr)
    return (0.0 if shift > 1e-2 else 1.0), 0.5, f"dropping the convolution shifts P_LR by {shift:.3f}"


_CHECKS = [
    ("linear-response-unitarity", _check_linear_unitarity),
    ("kernel-conjugation-identity", _check_kernel_conjugation),
    ("oracle-vs-quadrature", _check_oracle_match),
    ("contour-side-consistency", _check_contour_sides),
    ("probability-conservation", _check_conservation),
    ("coupling-limits", _check_coupling_limits),
    ("identical-pulse-identities", _check_identical_identities),
    ("single-photon-unitarity", _check_single_photon),
    ("hom-monotonicity", _check_hom_monotone),
    ("convolution-effect", _check_convolution_effect),
]


def run_verify(quick: bool = False, threads: int | None = None) -> dict:
    """Run every check; returns a report dict with per-check margins.

    ``threads`` is accepted for call compatibility and ignored.
    """
    checks = []
    all_passed = True
    for name, fn in _CHECKS:
        value, threshold, detail = fn(quick)
        passed = bool(value <= threshold)
        all_passed = all_passed and passed
        checks.append(
            {
                "name": name,
                "passed": passed,
                "value": float(value),
                "threshold": float(threshold),
                "margin": float(threshold - value),
                "detail": detail,
            }
        )
    return {"all_passed": all_passed, "quick": quick, "checks": checks}

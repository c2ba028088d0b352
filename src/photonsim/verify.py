"""Self-verification suite: oracle comparisons and invariant checks.

Each check returns its worst observed deviation together with the
threshold it must stay under; the CLI renders the results as a PASS/FAIL
table and a machine-readable report.  The full suite takes about 0.44 s
of CPU and the quick subset about 0.16 s (in-process, median of 5,
2-core x86 host, Python 3.11).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .amplitudes import amplitudes_at, channel_matrices
from .model import (
    FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput, pulse_amplitude, tabulate_pulse,
)
from .observables import (
    WindowTerms,
    hom_scan,
    probabilities,
    single_photon_norm,
    single_photon_probabilities,
    window_terms,
)
from .oracle import conv_prefactor, residue_conv_term, residue_j, residue_t_lr
from .quadrature import integrate_grid_2d, trapezoid_weights


def _check_linear_unitarity(quick):
    rng = np.random.default_rng(2024)
    n = 10 if quick else 100
    worst = 0.0
    for _ in range(n):
        omegas = rng.uniform(-50, 50, 100)
        params = NetworkParams(rng.uniform(1e-3, 20), rng.uniform(-10, 10))
        t1, t2 = kernels.theta_arrays(omegas, params)
        worst = max(
            worst,
            float(np.max(np.abs(np.abs(t1) ** 2 + np.abs(t2) ** 2 - 1.0))),
            float(np.max(np.abs(t1 * np.conj(t2) + t2 * np.conj(t1)))),
        )
    return worst, 1e-12, f"{n} random (kappa, omega_c) draws x 100 frequencies"


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


def _check_kernel_factorisation(quick):
    # g(omega1, omega2, nu, s - nu) = conv_prefactor(omega1, omega2) u(nu) u(s - nu)
    # with u(w) = 1 / (w + omega_c - 2i kappa): the identity that lets every
    # output integrate the reduced J instead of the full kernel.  Frequencies
    # sit on a 2^-20 lattice, so nu + (s - nu) rounds to s exactly.
    rng = np.random.default_rng(19)
    n = 20 if quick else 200
    worst = 0.0
    for _ in range(n):
        params = NetworkParams(10.0 ** rng.uniform(-6, 6), rng.uniform(-10, 10))
        w1, w2, nu = np.round(rng.uniform(-20, 20, (3, 100)) * 2**20) / 2**20
        mu = w1 + w2 - nu
        den = params.omega_c - 2j * params.kappa
        want = conv_prefactor(w1, w2, params) / ((nu + den) * (mu + den))
        got = kernels.g_kernel(w1, w2, nu, mu, params)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return worst, 1e-12, f"{n} (kappa, omega_c) draws x 100 frequencies, kappa in [1e-6, 1e6]"


def _check_oracle_match(quick):
    # The grid fill's conv term against the channel factor times the
    # residue closed form (the oracle's own prefactor times its J).
    n = 5 if quick else 11
    grid = FrequencyGrid(-6.0, 6.0, n)
    w1, w2 = grid.points[:, None], grid.points[None, :]
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    worst = 0.0
    for wc in (0.0, 3.0):
        params = NetworkParams(1.5, wc)
        want = residue_conv_term(w1, w2, 1.0, 1.0, 0.0, params)
        got = channel_matrices(grid, inp, params).conv
        scale = np.maximum(np.abs(got), np.abs(want))
        # Exact zeros (omega1 + omega2 = -2 omega_c) sit under the floor.
        rel = np.abs(got - want) / np.maximum(scale, 1e-12 * scale.max())
        worst = max(worst, float(rel.max()))
    return worst, 1e-6, f"residue vs grid fill on {n}x{n} nodes, omega_c in (0, 3)"


def _check_contour_sides(quick):
    # Random draws, then draws on the degenerate manifold gamma_r = 4 kappa
    # at fixed offsets from the double pole s = -omega_c - omega_o.
    rng = np.random.default_rng(3)
    n, n_deg = (50, 5) if quick else (300, 30)
    worst = 0.0
    for i in range(n + n_deg):
        params = NetworkParams(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        gl, gr = rng.uniform(0.3, 4, 2)
        wo = rng.uniform(-2, 2)
        s = rng.uniform(-10, 10)
        if i >= n:
            gr = 4.0 * params.kappa
            s = -params.omega_c - wo + np.array([0.0, 1e-12, 1e-9, 1e-7, 1e-5])
        up = residue_j(s, gl, gr, wo, params)
        down = residue_j(s, gl, gr, wo, params, close="lower")
        worst = max(worst, float(np.max(np.abs(up - down) / np.maximum(np.abs(up), 1e-30))))
    return worst, 1e-10, f"{n} upper-vs-lower contour closures, {n_deg} more near the double pole"


def _check_conservation(quick):
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    dev = abs(probabilities(inp, NetworkParams(1.5, 0.0)).total - 1.0)
    return dev, 2e-3, "|P_LL+P_LR+P_RR - 1| over the whole plane"


def _check_coupling_limits(quick):
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
    w1, w2 = rng.uniform(-6, 6, (n, 2)).T
    at = amplitudes_at(w1, w2, inp, params)
    swap = amplitudes_at(w2, w1, inp, params).rr
    oracle_lr = residue_t_lr(w1, w2, pulse, params)
    worst = max(
        float(np.max(np.abs(at.ll - at.rr))) / 1e-12,
        float(np.max(np.abs(at.lr - oracle_lr))) / 1e-12,
        float(np.max(np.abs(np.conj(at.ll) * swap - np.abs(at.ll) ** 2))) / 1e-8,
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
    kappas = [0.5, 20.0] if quick else [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    rows = hom_scan(kappas, 2.0, LorentzianPulse(1.0))
    decreasing = all(b.p_lr < a.p_lr for a, b in zip(rows, rows[1:]))
    tail_ok = rows[-1].p_lr < 0.1
    detail = f"coincidence scan over kappa={kappas} over the whole plane"
    return (0.0 if (decreasing and tail_ok) else 1.0), 0.5, detail


def _check_convolution_effect(quick):
    # Diagnostic negative control: the nonlinear term must visibly move the
    # coincidence probability (probability conservation alone cannot see it,
    # because the independent-scattering part is itself unitary).
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    params = NetworkParams(1.5, 0.0)
    full = probabilities(inp, params)
    lin = probabilities(inp, params, include_convolution=False)
    shift = abs(full.p_lr - lin.p_lr)
    detail = f"dropping the convolution shifts P_LR by {shift:.3f} over the whole plane"
    return (0.0 if shift > 1e-2 else 1.0), 0.5, detail


def grid_window_reference(inp, params, grid) -> WindowTerms:
    """window_terms the pointwise way, from the n x n channel_matrices."""
    ga = channel_matrices(grid, inp, params)
    absolute = [np.abs(t) for t in (ga.ll, ga.lr, ga.rr)]
    dens = [a**2 for a in absolute]
    m = grid.n - 1 + grid.n % 2
    fine = grid if m == grid.n else FrequencyGrid(grid.min, grid.max - grid.spacing, m)
    sub = FrequencyGrid(fine.min, fine.max, (m - 1) // 2 + 1)

    def trapezoid(values, g, step=1):
        cut = slice(0, g.n * step, step)
        return integrate_grid_2d(values[cut, cut], g, g).real

    refinement = sum(abs(trapezoid(d, fine) - trapezoid(d, sub, 2)) / 3.0 for d in dens) if m >= 5 else 0.0
    c2 = np.abs(ga.conv) ** 2
    edge_mass = float(trapezoid_weights(grid) @ (c2[0] + c2[-1] + c2[:, 0] + c2[:, -1]))
    weight = 2.0 * (0.5 * absolute[0] + absolute[1] + 0.5 * absolute[2])
    masses = tuple(trapezoid(d, grid) for d in dens)
    return WindowTerms(masses, refinement, trapezoid(weight * ga.point_err, grid), edge_mass)


def _check_window_vs_grid(quick):
    # The factored window of probabilities against the n x n forms: masses,
    # refinement and edge terms agree to rounding, and the quadrature term is
    # at most the pointwise one.  Identical, distinct, double-pole
    # (gamma_r = 4 kappa) and tabulated inputs; the full suite adds random
    # draws and two sampled pairs, the only inputs the CLI sums on a window.
    lor = LorentzianPulse
    tab = tabulate_pulse(lor(1.3, 0.5), FrequencyGrid(-20.0, 20.0, 81))
    cases = [
        ((lor(1.0), lor(1.0)), (1.5, 3.0)),
        ((lor(0.6, 0.4), lor(1.8, -0.7)), (0.7, -1.3)),
        ((lor(1.0), lor(2.0)), (0.5, 0.8)),
        ((tab, lor(1.0)), (1.2, 0.4)),
    ]
    rng = np.random.default_rng(11)
    for _ in range(0 if quick else 6):
        gl, wl, gr, wr, k, wc = rng.uniform([0.3, -2, 0.3, -2, 0.3, -5], [4, 2, 4, 2, 4, 5])
        cases.append(((lor(gl, wl), lor(gr, wr)), (k, wc)))
    if not quick:
        tab2 = tabulate_pulse(lor(0.7, -0.4), FrequencyGrid(-20.0, 20.0, 81))
        cases += [((tab, tab), (1.5, 0.5)), ((tab, tab2), (0.8, -1.1))]
    grid = FrequencyGrid(-40.0, 40.0, 161)
    worst = 0.0
    for pulses, (k, wc) in cases:
        inp, params = TwoPhotonInput(*pulses), NetworkParams(k, wc)
        got, want = window_terms(inp, params, grid), grid_window_reference(inp, params, grid)
        for a, b in zip(got.masses + (got.refinement, got.edge_mass), want.masses + (want.refinement, want.edge_mass)):
            worst = max(worst, abs(a - b))
        worst = max(worst, got.quadrature - want.quadrature)
    return worst, 1e-13, f"factored vs n x n window terms, {len(cases)} inputs on n={grid.n}"


_CHECKS = [
    ("linear-response-unitarity", _check_linear_unitarity),
    ("kernel-conjugation-identity", _check_kernel_conjugation),
    ("kernel-factorisation", _check_kernel_factorisation),
    ("oracle-vs-quadrature", _check_oracle_match),
    ("contour-side-consistency", _check_contour_sides),
    ("probability-conservation", _check_conservation),
    ("window-vs-grid", _check_window_vs_grid),
    ("coupling-limits", _check_coupling_limits),
    ("identical-pulse-identities", _check_identical_identities),
    ("single-photon-unitarity", _check_single_photon),
    ("hom-monotonicity", _check_hom_monotone),
    ("convolution-effect", _check_convolution_effect),
]


def run_verify(quick: bool = False) -> dict:
    """Run every check; returns a report dict with per-check margins."""
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

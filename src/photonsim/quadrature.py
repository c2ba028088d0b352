"""Complex-valued numerical integration.

Adaptive Gauss-Kronrod (7/15 embedded pair) line integrals drive the
nonlinear convolution; plain tensor trapezoid rules handle the outer 2D
integrals, which reuse one uniform grid across emission, spectral
analysis, and probabilities.  All routines are stateless; integrand
closures must be pure and accept ndarray arguments.

Two adaptive engines share the rule.  ``integrate_line`` refines one
integral, worst panel first; it serves single integrals and the
pointwise ``convolve_g`` that the residue oracle checks.
``integrate_lines`` refines many integrals at once: the open panels of
all of them live in flat arrays, every sweep evaluates the new panels
with one integrand call per block of ``_BLOCK`` panels, and each
unconverged integral then bisects every panel whose error exceeds its
fair share of the tolerance.  The convolution ladder (``j_lines``: one
reduced convolution per distinct frequency sum of a grid) runs on it,
with the mapped tails as panels of the same batch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NoConvergence, ShapeMismatch
from .model import (
    FrequencyGrid,
    NetworkParams,
    SampledPulse,
    TwoPhotonInput,
    pulse_amplitude,
    pulse_center,
    pulse_support,
    pulse_width,
)

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (positive half; the rule
# is symmetric).  Kronrod nodes exclude the interval endpoints, which lets
# mapped half-line integrands avoid their singular endpoint.
_KRONROD_NODES = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_GAUSS_WEIGHTS = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_NODES = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])  # ascending, 15
_WK = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
# Gauss-7 nodes sit at the odd Kronrod positions.
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_GAUSS_WEIGHTS[:-1], _GAUSS_WEIGHTS[::-1]])


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive line integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    window_halfwidth: float | None = None  # None means automatic

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


def _gk_panel(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel; returns (value, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = np.asarray(f(c + h * _NODES))
    val = h * np.sum(_WK * fx)
    err = abs(val - h * np.sum(_WG * fx[_GAUSS_IDX]))
    return complex(val), float(err)


def integrate_line(f, a: float, b: float, cfg: QuadConfig | None = None, seeds=()) -> QuadResult:
    """Adaptively integrate a complex-valued f over [a, b].

    ``f`` must accept an ndarray of abscissae and return an ndarray.
    Optional ``seeds`` are interior break points used for the initial
    subdivision (placing them on known features avoids blind bisection).
    Converged means the summed panel error is below
    max(abs_tol, rel_tol * |value|); otherwise NoConvergence carries the
    partial result.
    """
    cfg = cfg or QuadConfig()
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    breaks = [a] + sorted(x for x in set(float(s) for s in seeds) if a < x < b) + [b]
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    evals = 0
    tie = 0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, err = _gk_panel(f, lo, hi)
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tie, lo, hi, val, err))
        tie += 1
    splits = len(breaks) - 2
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            raise NoConvergence(
                f"line integral did not converge after {splits} subdivisions "
                f"(error estimate {total_err:.3e})",
                partial=QuadResult(total, total_err, evals),
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vl, el = _gk_panel(f, lo, mid)
        vr, er = _gk_panel(f, mid, hi)
        evals += 30
        total += vl + vr - val
        total_err += el + er - err
        heapq.heappush(heap, (-el, tie, lo, mid, vl, el))
        heapq.heappush(heap, (-er, tie + 1, mid, hi, vr, er))
        tie += 2
        splits += 1
    return QuadResult(total, total_err, evals)


def _gk_panel_multi(f, a: float, b: float):
    """Gauss-Kronrod panel for an f returning one row of k values per node;
    the error estimate is the max-norm difference of the embedded rules."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = np.asarray(f(c + h * _NODES))
    val = h * (_WK @ fx)
    err = float(np.max(np.abs(val - h * (_WG @ fx[_GAUSS_IDX]))))
    return val, err


def integrate_line_multi(f, a: float, b: float, cfg: QuadConfig | None = None, seeds=()):
    """Adaptive integral of a vector-valued integrand over [a, b].

    ``f`` maps an (m,) abscissa array to an (m, k) value array; all k
    components share one panel subdivision driven by the worst component.
    Returns (values (k,), error, evaluations).
    """
    cfg = cfg or QuadConfig()
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    breaks = [a] + sorted(x for x in set(float(s) for s in seeds) if a < x < b) + [b]
    heap = []
    total = None
    total_err = 0.0
    evals = 0
    tie = 0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, err = _gk_panel_multi(f, lo, hi)
        evals += 15
        total = val if total is None else total + val
        total_err += err
        heapq.heappush(heap, (-err, tie, lo, hi, val, err))
        tie += 1
    splits = len(breaks) - 2
    while total_err > max(cfg.abs_tol, cfg.rel_tol * float(np.max(np.abs(total)))):
        if splits >= cfg.max_subdivisions:
            raise NoConvergence(
                f"vector line integral did not converge after {splits} subdivisions "
                f"(error estimate {total_err:.3e})",
                partial=QuadResult(complex(np.sum(total)), total_err, evals),
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vl, el = _gk_panel_multi(f, lo, mid)
        vr, er = _gk_panel_multi(f, mid, hi)
        evals += 30
        total = total + vl + vr - val
        total_err += el + er - err
        heapq.heappush(heap, (-el, tie, lo, mid, vl, el))
        heapq.heappush(heap, (-er, tie + 1, mid, hi, vr, er))
        tie += 2
        splits += 1
    return total, total_err, evals


def integrate_half_line_multi(f, edge: float, direction: int, scale: float, cfg: QuadConfig, seeds=()):
    """Vector-valued analogue of integrate_half_line."""
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")

    def mapped(u):
        u = np.asarray(u, dtype=float)
        x = edge + direction * scale * (1.0 - u) / u
        return np.asarray(f(x)) * (scale / u**2)[:, None]

    useeds = [scale / (scale + abs(s - edge)) for s in seeds]
    return integrate_line_multi(mapped, 0.0, 1.0, cfg, seeds=useeds)


def integrate_half_line(f, edge: float, direction: int, scale: float, cfg: QuadConfig) -> QuadResult:
    """Integrate f over (edge, +inf) or (-inf, edge) via u = scale/(scale+|x-edge|).

    Requires |f| to decay at least ~1/x^2 so the mapped integrand stays
    bounded toward u -> 0 (the Kronrod rule never evaluates u = 0 itself).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")

    def mapped(u):
        u = np.asarray(u, dtype=float)
        x = edge + direction * scale * (1.0 - u) / u
        return np.asarray(f(x)) * (scale / u**2)

    # With this substitution du carries +scale/u^2 for either direction, so
    # the mapped result already equals the half-line integral.
    return integrate_line(mapped, 0.0, 1.0, cfg)


# Panels per integrand call in integrate_lines.  It bounds the (block, 15)
# node and value arrays; larger blocks were no faster and raised peak
# memory (4096 panels: +27% resident set on a tabulated-pulse fill).
_BLOCK = 256

# Half-line tails get a small fixed budget: their mapped integrands are
# smooth, so needing more subdivisions means the window was misplaced.
_TAIL_SUBDIVISIONS = 50

_SEGMENT_NAMES = ("window", "left tail", "right tail")


def _initial_panels(lo, hi, seeds):
    """(line, a, b) of the seeded window panels, built without a Python
    loop: per line, the sorted distinct break points inside (lo, hi)."""
    m = lo.size
    cols = [lo[:, None], hi[:, None]]
    if seeds is not None:
        inner = np.asarray(seeds, dtype=float)
        cols.append(np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner, np.nan))
    pts = np.sort(np.concatenate(cols, axis=1), axis=1)  # NaN sorts last
    a, b = pts[:, :-1], pts[:, 1:]
    keep = (b > a) & (hi > lo)[:, None]  # drops NaN, repeated seeds and empty windows
    line = np.broadcast_to(np.arange(m)[:, None], a.shape)[keep]
    return line, a[keep], b[keep]


def _gk_blocks(f, seg, a, b, seg_line, tail, edge, step):
    """Gauss-Kronrod 7/15 values and error estimates of panels [a, b] of
    segments ``seg``.  Tail segments integrate in the mapped variable u,
    x = edge + step * (1 - u) / u with step = +-scale."""
    val = np.empty(seg.size, dtype=complex)
    err = np.empty(seg.size)
    for start in range(0, seg.size, _BLOCK):
        sl = slice(start, start + _BLOCK)
        s = seg[sl]
        h = 0.5 * (b[sl] - a[sl])
        x = (0.5 * (a[sl] + b[sl]))[:, None] + h[:, None] * _NODES
        mapped = tail[s]
        if mapped.any():
            u = x[mapped]
            st = step[s[mapped]][:, None]
            x[mapped] = edge[s[mapped]][:, None] + st * (1.0 - u) / u
        fx = np.asarray(f(x, seg_line[s][:, None]), dtype=complex)
        if mapped.any():
            fx[mapped] *= np.abs(st) / u**2
        kron = h * (fx @ _WK)
        val[sl] = kron
        err[sl] = np.abs(kron - h * (fx[:, _GAUSS_IDX] @ _WG))
    return val, err


def integrate_lines(f, lo, hi, cfg: QuadConfig | None = None, seeds=None, tails: bool = False):
    """Adaptively integrate m complex-valued integrands at once.

    ``f(x, line)`` receives abscissae x of shape (k, 15) and the integer
    line index of each row, shape (k, 1), and returns values shaped like
    x.  Line i is integrated over the window [lo[i], hi[i]] (a window
    with hi <= lo is empty and adds zero); ``seeds`` is an (m, s) array of
    initial break points, NaN or out-of-window entries ignored.  With
    ``tails`` each line also gets the half-lines beyond lo and hi,
    mapped onto u in (0, 1] as in integrate_half_line with scale
    max(|edge|, 10).

    Each window and each tail is its own integral with integrate_line's
    rule: converged when its summed panel error is at most
    max(abs_tol, rel_tol * |value|).  A window may split
    cfg.max_subdivisions times (its seeds count), a tail
    min(cfg.max_subdivisions, 50) times.  Every sweep bisects, in each
    unconverged integral, the panels whose error exceeds tol / npanels,
    worst first and within its remaining budget.  Decisions for one
    integral never depend on the others, so a line fails in a batch
    exactly when it fails alone.

    Returns (values (m,), error estimates (m,), evaluations (m,)).
    Raises NoConvergence for the lowest failing line, with ``.node`` its
    index and ``.partial`` its QuadResult.
    """
    cfg = cfg or QuadConfig()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = lo.size
    seg, a, b = _initial_panels(lo, hi, seeds)
    # Segment j covers line j % m: windows first, then left and right tails.
    nseg = 3 * m if tails else m
    seg_line = np.arange(nseg) % m
    kind = np.arange(nseg) // m
    tail = kind > 0
    edge = np.where(kind == 1, lo[seg_line], hi[seg_line])
    step = np.maximum(np.abs(edge), 10.0) * np.where(kind == 1, -1.0, 1.0)
    budget = np.where(tail, min(cfg.max_subdivisions, _TAIL_SUBDIVISIONS), cfg.max_subdivisions)
    if tails:
        seg = np.concatenate([seg, np.arange(m, nseg)])
        a = np.concatenate([a, np.zeros(2 * m)])
        b = np.concatenate([b, np.ones(2 * m)])
    splits = np.bincount(seg, minlength=nseg) - 1
    values = np.zeros(nseg, dtype=complex)
    errors = np.zeros(nseg)
    evals = 15 * (splits + 1)
    failed = np.zeros(nseg, dtype=bool)
    val, err = _gk_blocks(f, seg, a, b, seg_line, tail, edge, step)
    while seg.size:
        npan = np.bincount(seg, minlength=nseg)
        total = np.bincount(seg, val.real, nseg) + 1j * np.bincount(seg, val.imag, nseg)
        total_err = np.bincount(seg, err, nseg)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = (npan > 0) & ((total_err <= tol) | (splits >= budget))
        failed |= done & (total_err > tol)
        values[done] = total[done]
        errors[done] = total_err[done]
        open_ = (npan > 0) & ~done
        if failed.any():
            # Only the lowest failing line is reported; higher ones can stop.
            open_ &= seg_line < seg_line[failed].min()
        live = open_[seg]
        seg, a, b, val, err = seg[live], a[live], b[live], val[live], err[live]
        if not seg.size:
            break
        # Rank each panel within its segment by decreasing error.
        order = np.lexsort((-err, seg))
        ranked = seg[order]
        npan = np.bincount(seg, minlength=nseg)
        rank = np.arange(seg.size) - (np.cumsum(npan) - npan)[ranked]
        pick = (rank == 0) | (err[order] > (tol / np.maximum(npan, 1))[ranked])
        pick &= rank < (budget - splits)[ranked]
        pick = order[pick]
        splits += np.bincount(seg[pick], minlength=nseg)
        mid = 0.5 * (a[pick] + b[pick])
        c_seg = np.concatenate([seg[pick], seg[pick]])
        c_a = np.concatenate([a[pick], mid])
        c_b = np.concatenate([mid, b[pick]])
        c_val, c_err = _gk_blocks(f, c_seg, c_a, c_b, seg_line, tail, edge, step)
        evals += 15 * np.bincount(c_seg, minlength=nseg)
        keep = np.ones(seg.size, dtype=bool)
        keep[pick] = False
        seg = np.concatenate([seg[keep], c_seg])
        a = np.concatenate([a[keep], c_a])
        b = np.concatenate([b[keep], c_b])
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])

    def per_line(x):
        return x.reshape(-1, m).sum(axis=0)

    line_values, line_errors, line_evals = per_line(values), per_line(errors), per_line(evals)
    if failed.any():
        j = int(np.flatnonzero(failed)[np.argmin(seg_line[failed])])
        i = int(seg_line[j])
        raise NoConvergence(
            f"line integral did not converge after {splits[j]} subdivisions of its "
            f"{_SEGMENT_NAMES[kind[j]]} (error estimate {errors[j]:.3e})",
            partial=QuadResult(complex(line_values[i]), float(line_errors[i]), int(line_evals[i])),
            node=i,
        )
    return line_values, line_errors, line_evals


def trapezoid_weights(grid: FrequencyGrid) -> np.ndarray:
    """Composite trapezoid weights for the grid (half weight at the ends)."""
    w = np.full(grid.n, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate_grid_2d(values: np.ndarray, grid1: FrequencyGrid, grid2: FrequencyGrid) -> complex:
    """Tensor composite trapezoid rule over grid1 x grid2."""
    values = np.asarray(values)
    if values.shape != (grid1.n, grid2.n):
        raise ShapeMismatch(
            f"values shape {values.shape} does not match grids ({grid1.n}, {grid2.n})"
        )
    w1 = trapezoid_weights(grid1)
    w2 = trapezoid_weights(grid2)
    return complex(w1 @ values @ w2)


def convolution_windows(omega_sums, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig):
    """Integration windows and feature seeds for the nonlinear convolution.

    The integrand peaks where either pulse factor is centered and has
    kernel structure of width ~kappa at -omega_c and omega_sum + omega_c.
    The window covers all four features with a half-width of
    max(50 * max pulse width, 50 * kappa, 10 * |omega_c|) (or the
    configured override) and is clipped to the pulses' compact supports
    when they have any.  Vectorised over ``omega_sums`` (m,): returns
    (lo (m,), hi (m,), seeds (m, k)); a window with hi <= lo is empty
    (the product of supports is empty), and seeds may fall outside
    their window.
    """
    sums = np.atleast_1d(np.asarray(omega_sums, dtype=float))
    features = np.stack(
        np.broadcast_arrays(
            pulse_center(inp.left),
            sums - pulse_center(inp.right),
            -params.omega_c,
            sums + params.omega_c,
        ),
        axis=1,
    )
    half = cfg.window_halfwidth
    if half is None:
        half = max(
            50.0 * max(pulse_width(inp.left), pulse_width(inp.right)),
            50.0 * params.kappa,
            10.0 * abs(params.omega_c),
        )
    lo = features.min(axis=1) - half
    hi = features.max(axis=1) + half
    sup_l = pulse_support(inp.left)
    if sup_l is not None:
        lo, hi = np.maximum(lo, sup_l[0]), np.minimum(hi, sup_l[1])
    sup_r = pulse_support(inp.right)
    if sup_r is not None:
        lo, hi = np.maximum(lo, sums - sup_r[1]), np.minimum(hi, sums - sup_r[0])
    seeds = [features]
    # Sampled pulses are piecewise linear; seeding every interpolation
    # kink keeps the panels smooth instead of letting adaptivity chase
    # the kinks one bisection at a time.
    if isinstance(inp.left, SampledPulse):
        seeds.append(np.broadcast_to(inp.left.grid.points, (sums.size, inp.left.grid.n)))
    if isinstance(inp.right, SampledPulse):
        seeds.append(sums[:, None] - inp.right.grid.points)
    return lo, hi, np.concatenate(seeds, axis=1)


def convolution_window(omega_sum: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig):
    """convolution_windows for one frequency sum: (lo, hi, seeds inside
    the window) or None when the window is empty."""
    lo, hi, seeds = convolution_windows(omega_sum, inp, params, cfg)
    lo, hi = float(lo[0]), float(hi[0])
    if not lo < hi:
        return None
    return lo, hi, [float(x) for x in seeds[0] if lo < x < hi]


def _line_with_tails(integrand, lo: float, hi: float, seeds, compact: bool, cfg: QuadConfig) -> QuadResult:
    """Windowed adaptive integral plus numerically integrated tails.

    The convolution integrands decay like 1/nu^4, so a bare window leaves
    an O(W^-3) truncation error that can exceed the requested relative
    tolerance; mapping each tail onto (0, 1] and integrating it removes
    that error instead of merely bounding it.  Compact-support integrands
    skip the tails.
    """
    res = integrate_line(integrand, lo, hi, cfg, seeds=seeds)
    if compact:
        return res
    tail_cfg = QuadConfig(
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, max_subdivisions=min(cfg.max_subdivisions, 50)
    )
    scale_lo = max(abs(lo), 10.0)
    scale_hi = max(abs(hi), 10.0)
    left = integrate_half_line(integrand, lo, -1, scale_lo, tail_cfg)
    right = integrate_half_line(integrand, hi, +1, scale_hi, tail_cfg)
    return QuadResult(
        res.value + left.value + right.value,
        res.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate,
        res.evaluations + left.evaluations + right.evaluations,
    )


def convolve_g(
    omega1: float,
    omega2: float,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> QuadResult:
    """Nonlinear convolution integral shared by all three output channels.

    Integrates amplitude_L(nu) * amplitude_R(omega1+omega2-nu) *
    g_kernel(omega1, omega2, nu, omega1+omega2-nu) over the real line,
    without the channel prefactor applied by the amplitude assembly.
    Returns exactly zero for kappa = 0.
    """
    cfg = cfg or QuadConfig()
    if params.kappa == 0.0:
        return QuadResult(0.0j, 0.0, 0)
    omega_sum = omega1 + omega2
    win = convolution_window(omega_sum, inp, params, cfg)
    if win is None:
        return QuadResult(0.0j, 0.0, 0)
    lo, hi, seeds = win

    def integrand(nu):
        nu = np.asarray(nu, dtype=float)
        return (
            pulse_amplitude(inp.left, nu)
            * pulse_amplitude(inp.right, omega_sum - nu)
            * kernels.g_kernel(omega1, omega2, nu, omega_sum - nu, params)
        )

    compact = pulse_support(inp.left) is not None or pulse_support(inp.right) is not None
    return _line_with_tails(integrand, lo, hi, seeds, compact, cfg)


def j_lines(omega_sums, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None):
    """Reduced convolution over nu of
    amplitude_L(nu) * amplitude_R(omega_sum-nu) /
    ((nu + omega_c - 2i kappa)(omega_sum - nu + omega_c - 2i kappa))
    for every frequency sum in ``omega_sums``.

    The full convolution factors as a rational prefactor in
    (omega1, omega2) times this integral, which depends on the node only
    through omega1 + omega2; grid fills exploit that by computing one
    rung per distinct frequency sum, all rungs in one integrate_lines
    batch (windows and seeds from convolution_windows, tails unless a
    pulse has compact support).  Returns (values, error estimates,
    evaluations), one per sum.  NoConvergence names the lowest failing
    frequency sum and sets ``.node`` to its index.
    """
    cfg = cfg or QuadConfig()
    sums = np.atleast_1d(np.asarray(omega_sums, dtype=float))
    if params.kappa == 0.0:
        return np.zeros(sums.size, dtype=complex), np.zeros(sums.size), np.zeros(sums.size, dtype=int)
    lo, hi, seeds = convolution_windows(sums, inp, params, cfg)
    wc = params.omega_c
    two_ik = 2j * params.kappa

    def integrand(nu, rung):
        s = sums[rung]
        return (
            pulse_amplitude(inp.left, nu)
            * pulse_amplitude(inp.right, s - nu)
            / ((nu + wc - two_ik) * (s - nu + wc - two_ik))
        )

    compact = pulse_support(inp.left) is not None or pulse_support(inp.right) is not None
    try:
        return integrate_lines(integrand, lo, hi, cfg, seeds=seeds, tails=not compact)
    except NoConvergence as exc:
        raise NoConvergence(
            f"convolution did not converge at frequency sum {sums[exc.node]:g} "
            f"(ladder rung {exc.node}): {exc}",
            partial=exc.partial,
            node=exc.node,
        ) from exc


def j_line(
    omega_sum: float,
    inp: TwoPhotonInput,
    params: NetworkParams,
    cfg: QuadConfig | None = None,
) -> QuadResult:
    """One rung of j_lines: the reduced convolution at one frequency sum."""
    values, errors, evals = j_lines(omega_sum, inp, params, cfg)
    return QuadResult(complex(values[0]), float(errors[0]), int(evals[0]))

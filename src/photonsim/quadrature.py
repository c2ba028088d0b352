"""Complex-valued numerical integration.

One batched adaptive Gauss-Kronrod (7/15) engine, ``_refine``, does every
line integral.  ``integrate_lines`` (windows, plus a mapped tail per side
in ``tails``) and ``integrate_half_line_multi`` (mapped half-lines) refine many
integrals at once, each with k >= 1 components and its own subdivision
budget: the open panels of all of them live in flat arrays, every sweep
evaluates the new panels with one integrand call per block of ``_BLOCK``
panels, and each unconverged integral then bisects every panel whose
error exceeds its fair share of the tolerance.  A k-component integrand
returns (k,) + x.shape: each component's node values are contiguous.

``convolution_lines`` is the one entry for integrals over nu at a set of
frequency sums s, with windows, seeds and tails from
``convolution_windows``.  It folds each line at nu = s / 2: its callers
supply the integrand symmetrised under nu <-> s - nu, and it integrates
nu >= s / 2 with the seeds mirrored there, where mirror-image features
fall together, plus one mapped tail.  It runs the convolution ladder
(``j_lines``: one reduced convolution per distinct frequency sum) and
the inner batch of the whole-plane probabilities.  ``graded_seeds`` is
the one seeding rule around features of known pole distance: break
points graded geometrically toward it, so bisection starts near the
scale it must reach; break points that agree up to rounding are merged
into one.
``integrate_grid_2d`` is the tensor trapezoid rule on the shared grid.

Every BLAS call in photonsim stays on one core: after a threaded call
OpenBLAS's second worker spins for about 0.1 s, which doubled the CPU of
a Lorentzian ``probabilities`` op.  The engine's weight product stays
below the threaded sizes (see ``_BLOCK``), ``integrate_grid_2d`` sums on
numpy's own loops and ``observables.schmidt_report`` sets one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ShapeMismatch
from .model import (
    FrequencyGrid,
    LorentzianPulse,
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
# Weights (15, 2): column 0 applies the Kronrod rule, column 1 the
# embedded Gauss rule, whose 7 nodes sit at the odd Kronrod positions.
_WKG = np.zeros((15, 2))
_WKG[:, 0] = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
_WKG[1::2, 1] = np.concatenate([_GAUSS_WEIGHTS[:-1], _GAUSS_WEIGHTS[::-1]])


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive line integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError(f"tolerances must be finite and > 0, got {self.rel_tol}, {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


# Panels per integrand call in the batched engine.  It bounds the
# (block, 15) node and value arrays; larger blocks were no faster and
# raised peak memory (4096 panels: +27% resident set on a tabulated-pulse
# fill).  It also keeps the (_BLOCK * k, 15) @ (15, 2) weight product of
# k <= 4 components below OpenBLAS's gemm threading cutoff (2048 rows run
# on one core, 4096 on two); the 16-component Gram lines of observables
# need fewer than 128 panels a sweep.  test_probabilities_runs_on_one_core
# guards it.
_BLOCK = 256

# The ladder's half-line tails get a small fixed budget: their mapped
# integrands are smooth, so needing more subdivisions means the window
# was misplaced.
_TAIL_SUBDIVISIONS = 50


def graded_seeds(features, distances):
    """Break points at the features c (..., f) and at c +- d 3^j, with d
    (f,) each feature's pole distance and j = 0..J, J = max(5,
    ceil(log3(max(d) / d))): shape (..., f + 2 sum(J + 1)).  They start
    the panels near the scale that bisection would reach, instead of
    halving from the window width.  Every feature is graded out to the
    widest one's scale: a Lorentzian tail beyond its last break point can
    slip between the nodes of one wide panel, whose Gauss and Kronrod sums
    then agree on nearly zero and hide the missing mass."""
    features = np.asarray(features, dtype=float)
    top = max(distances)
    depth = [max(5, math.ceil(math.log(top / d, 3))) if d > 0 else 5 for d in distances]
    powers = [3.0 ** np.arange(j + 1) for j in depth]
    steps = np.concatenate([d * np.concatenate([-p, p]) for d, p in zip(distances, powers)])
    graded = np.repeat(features, 2 * np.add(depth, 1), axis=-1) + steps
    return np.concatenate([features, graded], axis=-1)


# Break points closer than this, relative to their magnitude, are one
# point: seeds that agree up to rounding (mirrored kernel features, kinks
# of two tabulated pulses) would each cost a sliver panel of 15 evaluations.
_MERGE_TOL = 16 * np.finfo(float).eps


def _initial_panels(lo, hi, seeds):
    """(line, a, b) of the seeded window panels, built without a Python
    loop: per line, the sorted distinct break points inside (lo, hi); a
    seed within _MERGE_TOL of the point below it, or of hi above it, is
    dropped."""
    m = lo.size
    pts = [lo[:, None], hi[:, None]]
    if seeds is not None:
        inner = np.asarray(seeds, dtype=float)
        pts.append(np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner, np.nan))
    pts = np.concatenate(pts, axis=1)
    pts.sort(axis=1)  # NaN sorts last; in place, as these arrays set a fill's peak memory
    near = np.abs(pts[:, 1:])
    near *= _MERGE_TOL
    near = np.diff(pts, axis=1) <= near
    at_hi = pts[:, 1:] == hi[:, None]
    drop = near & ~at_hi
    drop[:, :-1] |= (near & at_hi)[:, 1:]
    if drop.any():
        # A dropped point takes the value of the last point kept below it,
        # so the panel ending there repeats a point and goes below.
        pts[:, 1:][drop] = -np.inf
        np.maximum.accumulate(pts, axis=1, out=pts)
    a, b = pts[:, :-1], pts[:, 1:]
    keep = (b > a) & (hi > lo)[:, None]  # drops NaN, repeated seeds and empty windows
    line = np.broadcast_to(np.arange(m)[:, None], a.shape)[keep]
    return line, a[keep], b[keep]


def _gk_blocks(f, seg, a, b, seg_line, edge, step):
    """Gauss-Kronrod 7/15 values (panels, k) and error estimates (panels,)
    of panels [a, b] of segments ``seg``; a panel's error is the max-norm
    over the k components of the Kronrod-Gauss difference.  Segments with
    step != 0 integrate in the mapped variable u,
    x = edge + step * (1 - u) / u with step = +-scale.  Values (k,) + x.shape
    reshape to (k, r, 15) uncopied, one weight-product row per component and
    panel; values that do not end in x.shape raise ShapeMismatch."""
    val, err = None, np.empty(0)
    seg_mapped = step != 0.0
    for start in range(0, seg.size, _BLOCK):
        sl = slice(start, start + _BLOCK)
        s = seg[sl]
        h = 0.5 * (b[sl] - a[sl])
        x = (0.5 * (a[sl] + b[sl]))[:, None] + h[:, None] * _NODES
        mapped = seg_mapped[s]
        if mapped.any():
            u = x[mapped]
            st = step[s[mapped]][:, None]
            x[mapped] = edge[s[mapped]][:, None] + st * (1.0 - u) / u
        fx = np.asarray(f(x, seg_line[s][:, None]), dtype=complex)
        if fx.shape[fx.ndim - 2 :] != x.shape:
            raise ShapeMismatch(f"integrand values of shape {fx.shape} do not end in the nodes' {x.shape}")
        fx = fx.reshape(-1, s.size, 15)
        if mapped.any():
            fx[:, mapped] *= np.abs(st) / u**2
        kg = (fx.reshape(-1, 15) @ _WKG).reshape(fx.shape[0], -1, 2) * h[:, None]
        if val is None:
            val, err = np.empty((seg.size, fx.shape[0]), dtype=complex), np.empty(seg.size)
        val[sl] = kg[..., 0].T
        err[sl] = np.abs(kg[..., 0] - kg[..., 1]).max(axis=0)
    return val, err


def _segment_sums(seg, val, nseg):
    """Per-segment sums (nseg, k) of panel values (panels, k), with one
    bincount over (segment, component) bins for all k components."""
    k = val.shape[1]
    bins = (seg[:, None] * k + np.arange(k)).ravel()
    sums = np.bincount(bins, val.real.ravel(), nseg * k) + 1j * np.bincount(bins, val.imag.ravel(), nseg * k)
    return sums.reshape(nseg, k)


def _refine(f, m, seg, a, b, edge, step, budget, cfg, labels):
    """The batched adaptive Gauss-Kronrod engine behind integrate_lines
    and integrate_half_line_multi.

    Segment j (a window, or a half-line mapped onto u in (0, 1] when
    step[j] != 0) is its own integral and adds to line j % m; labels[j // m]
    names it in errors.  (seg, a, b) are the initial panels.  A segment
    converges when its summed panel error is at most
    max(abs_tol, rel_tol * max_k |value_k|) and may split budget[j] times
    (its initial panels count); one with a non-finite error fails at once,
    as bisection cannot repair it.  Every sweep bisects, in each unconverged
    segment, its worst panel and the panels whose error exceeds
    tol / npanels, worst first and within its remaining budget; decisions
    for one segment never depend on the others.  Only those split
    candidates are sorted, not every live panel.
    """
    nseg = edge.size
    seg_line = np.arange(nseg) % m
    splits = np.bincount(seg, minlength=nseg) - 1
    evals = 15 * (splits + 1)
    failed = np.zeros(nseg, dtype=bool)
    val, err = _gk_blocks(f, seg, a, b, seg_line, edge, step)
    k = 1 if val is None else val.shape[1]
    values = np.zeros((nseg, k), dtype=complex)
    errors = np.zeros(nseg)
    while seg.size:
        npan = np.bincount(seg, minlength=nseg)
        total = _segment_sums(seg, val, nseg)
        total_err = np.bincount(seg, err, nseg)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total).max(axis=1))
        converged = total_err <= tol
        done = (npan > 0) & (converged | (splits >= budget) | ~np.isfinite(total_err))
        failed |= done & ~converged
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
        # Rank the split candidates within their segment by decreasing
        # error: the panels above tol / npanels, and every panel of a
        # segment that has none (only rounding lets an unconverged segment
        # have none).  They form a prefix of each segment's worst-first
        # order, so ranking them alone keeps every rank that the rule reads.
        share = (tol / np.maximum(np.bincount(seg, minlength=nseg), 1))[seg]
        cand = err > share
        cand |= (np.bincount(seg[cand], minlength=nseg) == 0)[seg]
        cand = np.flatnonzero(cand)
        order = cand[np.lexsort((-err[cand], seg[cand]))]
        ranked = seg[order]
        ncand = np.bincount(ranked, minlength=nseg)
        rank = np.arange(order.size) - (np.cumsum(ncand) - ncand)[ranked]
        pick = (rank == 0) | (err[order] > share[order])
        pick &= rank < (budget - splits)[ranked]
        pick = order[pick]
        splits += np.bincount(seg[pick], minlength=nseg)
        mid = 0.5 * (a[pick] + b[pick])
        c_seg = np.concatenate([seg[pick], seg[pick]])
        c_a = np.concatenate([a[pick], mid])
        c_b = np.concatenate([mid, b[pick]])
        c_val, c_err = _gk_blocks(f, c_seg, c_a, c_b, seg_line, edge, step)
        evals += 15 * np.bincount(c_seg, minlength=nseg)
        keep = np.ones(seg.size, dtype=bool)
        keep[pick] = False
        seg = np.concatenate([seg[keep], c_seg])
        a = np.concatenate([a[keep], c_a])
        b = np.concatenate([b[keep], c_b])
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])

    line_values = values.reshape(-1, m, k).sum(axis=0)
    line_errors = errors.reshape(-1, m).sum(axis=0)
    line_evals = evals.reshape(-1, m).sum(axis=0)
    if failed.any():
        j = int(np.flatnonzero(failed)[np.argmin(seg_line[failed])])
        i = int(seg_line[j])
        partial = line_values[i] if k > 1 else complex(line_values[i, 0])
        raise NoConvergence(
            f"line integral did not converge after {splits[j]} subdivisions of its "
            f"{labels[j // m]} (error estimate {errors[j]:.3e})",
            partial=QuadResult(partial, float(line_errors[i]), int(line_evals[i])),
            node=i,
        )
    return (line_values if k > 1 else line_values[:, 0]), line_errors, line_evals


def integrate_lines(f, lo, hi, cfg: QuadConfig | None = None, seeds=None, tails=()):
    """Adaptively integrate m integrands at once.

    ``f(x, line)`` receives abscissae x of shape (r, 15) and the integer
    line index of each row, shape (r, 1), and returns values shaped like
    x, or (k,) + x.shape (component-major) for k components; other shapes
    raise ShapeMismatch.
    Line i is integrated over the window [lo[i], hi[i]] (a window with
    hi <= lo is empty and adds zero); ``seeds`` is an (m, s) array of
    initial break points, NaN or out-of-window entries ignored.  ``tails``
    lists the sides that each line also integrates beyond its window: -1
    the half-line below lo, +1 the half-line above hi, each mapped as in
    integrate_half_line_multi with scale max(|edge|, 10).

    Each window and each tail is its own integral: converged when its
    summed panel error (max-norm over components) is at most
    max(abs_tol, rel_tol * max_k |value_k|).  A window may split
    cfg.max_subdivisions times (its seeds count), a tail
    min(cfg.max_subdivisions, 50) times.  A line fails in a batch exactly
    when it fails alone.

    Returns (values (m,) or (m, k), error estimates (m,), evaluations
    (m,)); values are scalar zeros when no window has a panel.  Raises
    NoConvergence for the lowest failing line, with ``.node`` its index
    and ``.partial`` its QuadResult (whose value holds the k components
    of a vector-valued integrand).
    """
    cfg = cfg or QuadConfig()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m, t = lo.size, len(tails)
    seg, a, b = _initial_panels(lo, hi, seeds)
    edges = [lo if d < 0 else hi for d in tails]
    edge = np.concatenate([np.zeros(m), *edges])
    step = np.concatenate([np.zeros(m), *(d * np.maximum(np.abs(e), 10.0) for d, e in zip(tails, edges))])
    tail_budget = min(cfg.max_subdivisions, _TAIL_SUBDIVISIONS)
    budget = np.repeat([cfg.max_subdivisions] + [tail_budget] * t, m)
    seg = np.concatenate([seg, np.arange(m, (t + 1) * m)])
    a = np.concatenate([a, np.zeros(t * m)])
    b = np.concatenate([b, np.ones(t * m)])
    labels = ("window", *("left tail" if d < 0 else "right tail" for d in tails))
    return _refine(f, m, seg, a, b, edge, step, budget, cfg, labels)


def integrate_half_line_multi(f, edge, direction, scale, cfg: QuadConfig | None = None):
    """Integrate m integrands over half-lines at once.

    Line i covers (edge[i], +inf) for direction[i] = +1 and
    (-inf, edge[i]) for -1, mapped onto u in (0, 1] by
    u = scale / (scale + |x - edge|); edge, direction and scale broadcast.
    ``f`` is called as in integrate_lines and may be vector-valued,
    returning (k,) + x.shape; it must decay at least like 1/x^2.  Each
    line is its own integral with integrate_lines' rule and a budget of
    cfg.max_subdivisions.

    Returns (values (m,) or (m, k), error estimates (m,), total
    evaluations as one int).  NoConvergence names the lowest failing line
    in ``.node``.
    """
    cfg = cfg or QuadConfig()
    edge, direction, scale = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (edge, direction, scale))
    )
    if np.any(np.abs(direction) != 1.0):
        raise ValueError("direction must be +1 or -1")
    m = edge.size
    budget = np.full(m, cfg.max_subdivisions)
    values, errors, evals = _refine(
        f, m, np.arange(m), np.zeros(m), np.ones(m), edge, direction * scale, budget, cfg,
        ("half-line",),
    )
    return values, errors, int(evals.sum())


def trapezoid_weights(grid: FrequencyGrid) -> np.ndarray:
    """Composite trapezoid weights for the grid (half weight at the ends)."""
    w = np.full(grid.n, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate_grid_2d(values: np.ndarray, grid1: FrequencyGrid, grid2: FrequencyGrid) -> complex:
    """Tensor composite trapezoid rule over grid1 x grid2; the row sums
    run on numpy's own loops (einsum without ``optimize`` never calls BLAS)."""
    values = np.asarray(values)
    if values.shape != (grid1.n, grid2.n):
        raise ShapeMismatch(
            f"values shape {values.shape} does not match grids ({grid1.n}, {grid2.n})"
        )
    w1 = trapezoid_weights(grid1)
    w2 = trapezoid_weights(grid2)
    return complex(w1 @ np.einsum("ij,j->i", values, w2))


def convolution_windows(omega_sums, inp: TwoPhotonInput, params: NetworkParams):
    """Integration windows and feature seeds for the nonlinear convolution.

    The integrand peaks where either pulse factor is centered and has
    kernel structure of width ~kappa at -omega_c and omega_sum + omega_c.
    The window covers all four features with a half-width of
    max(50 * max pulse width, 50 * kappa, 10 * |omega_c|) and is clipped
    to the pulses' compact supports when they have any.  Vectorised over
    ``omega_sums`` (m,): returns (lo (m,), hi (m,), seeds (m, k)); a
    window with hi <= lo is empty (the product of supports is empty), and
    seeds may fall outside their window or repeat.

    The seeds are the four features, graded (graded_seeds) when both
    pulses are Lorentzian: pole distance gamma / 2 at a pulse centre, 2
    kappa at a kernel feature.  Sampled pulses get their interpolation
    kinks instead: a tabulated ladder usually converges on its kink panels
    alone, so grading around the kernel features only added evaluations.
    """
    sums = np.atleast_1d(np.asarray(omega_sums, dtype=float))
    wc = params.omega_c
    centres = (pulse_center(inp.left), sums - pulse_center(inp.right), -wc, sums + wc)
    features = np.stack(np.broadcast_arrays(*centres), axis=1)
    half = max(50.0 * max(pulse_width(inp.left), pulse_width(inp.right)), 50.0 * params.kappa, 10.0 * abs(wc))
    lo = features.min(axis=1) - half
    hi = features.max(axis=1) + half
    sup_l = pulse_support(inp.left)
    if sup_l is not None:
        lo, hi = np.maximum(lo, sup_l[0]), np.minimum(hi, sup_l[1])
    sup_r = pulse_support(inp.right)
    if sup_r is not None:
        lo, hi = np.maximum(lo, sums - sup_r[1]), np.minimum(hi, sums - sup_r[0])
    seeds = [features]
    if isinstance(inp.left, LorentzianPulse) and isinstance(inp.right, LorentzianPulse):
        d = [inp.left.gamma / 2, inp.right.gamma / 2, 2 * params.kappa, 2 * params.kappa]
        seeds = [graded_seeds(features, d)]
    # Sampled pulses are piecewise linear; seeding every interpolation
    # kink keeps the panels smooth instead of letting adaptivity chase
    # the kinks one bisection at a time.
    if isinstance(inp.left, SampledPulse):
        seeds.append(np.broadcast_to(inp.left.grid.points, (sums.size, inp.left.grid.n)))
    if isinstance(inp.right, SampledPulse):
        seeds.append(sums[:, None] - inp.right.grid.points)
    return lo, hi, np.concatenate(seeds, axis=1)


def convolution_lines(integrand, omega_sums, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None):
    """Integrate over nu at every frequency sum s in ``omega_sums`` (m,) as
    one integrate_lines batch, folded at nu = s / 2.

    The integral of f(nu, s - nu) over the real line equals that of the
    symmetrised f(nu, s - nu) + f(s - nu, nu) over nu >= s / 2, and
    ``integrand(nu, mu, line)`` must return that symmetrised integrand at
    mu = s - nu, shaped as integrate_lines' x and line; it may be
    vector-valued, (k,) + nu.shape.  Each line's window is
    convolution_windows' window and its mirror image through s / 2, above
    s / 2: [s / 2, max(hi, s - lo)], empty where the window is; the seeds
    are mirrored onto nu >= s / 2, where mirror-image features such as
    -omega_c and s + omega_c, or the centres of identical pulses, fall
    together.  A mapped tail beyond the window follows unless a pulse has
    compact support: the convolution integrands decay like 1/nu^4, so a
    bare window would leave an O(W^-3) truncation error.  Returns what
    integrate_lines returns, or exact zeros for kappa = 0, where the
    convolution term vanishes.  NoConvergence names the lowest failing
    frequency sum and sets ``.node`` to its index.
    """
    sums = np.atleast_1d(np.asarray(omega_sums, dtype=float))
    if params.kappa == 0.0:
        return np.zeros(sums.size, dtype=complex), np.zeros(sums.size), np.zeros(sums.size, dtype=int)
    lo, hi, seeds = convolution_windows(sums, inp, params)
    half = 0.5 * sums
    hi = np.where(hi > lo, np.maximum(hi, sums - lo), half)
    seeds = half[:, None] + np.abs(seeds - half[:, None])
    compact = pulse_support(inp.left) is not None or pulse_support(inp.right) is not None
    try:
        return integrate_lines(
            lambda nu, line: integrand(nu, sums[line] - nu, line), half, hi, cfg, seeds, () if compact else (1.0,)
        )
    except NoConvergence as exc:
        raise NoConvergence(
            f"convolution did not converge at frequency sum {sums[exc.node]:g} "
            f"(line {exc.node} of {sums.size}): {exc}",
            partial=exc.partial,
            node=exc.node,
        ) from exc


def j_lines(omega_sums, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None):
    """Reduced convolution over nu of
    amplitude_L(nu) * amplitude_R(omega_sum-nu) /
    ((nu + omega_c - 2i kappa)(omega_sum - nu + omega_c - 2i kappa))
    for every frequency sum in ``omega_sums``.

    The full convolution factors as a rational prefactor in
    (omega1, omega2) times this integral, which depends on the node only
    through omega1 + omega2; grid fills exploit that by computing one
    rung per distinct frequency sum, all rungs in one convolution_lines
    batch.  Returns (values, error estimates, evaluations), one per sum;
    NoConvergence names the lowest failing rung as convolution_lines does.
    """
    wc = params.omega_c
    two_ik = 2j * params.kappa

    def integrand(nu, mu, _line):
        # The pulse product symmetrised under nu <-> mu, as convolution_lines needs it.
        p1 = pulse_amplitude(inp.left, nu) * pulse_amplitude(inp.right, mu)
        p2 = p1 if inp.identical else pulse_amplitude(inp.right, nu) * pulse_amplitude(inp.left, mu)
        return (p1 + p2) / ((nu + wc - two_ik) * (mu + wc - two_ik))

    return convolution_lines(integrand, omega_sums, inp, params, cfg)


def j_line(omega_sum: float, inp: TwoPhotonInput, params: NetworkParams, cfg: QuadConfig | None = None) -> QuadResult:
    """One rung of j_lines: the reduced convolution at one frequency sum."""
    values, errors, evals = j_lines(omega_sum, inp, params, cfg)
    return QuadResult(complex(values[0]), float(errors[0]), int(evals[0]))

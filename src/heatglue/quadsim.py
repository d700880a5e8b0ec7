"""Adaptive convolution quadrature over time simplices.

Computes (f_1 * ... * f_n)(t), the integral of the product of n time
densities over {t_i > 0, sum t_i = t}, for factors outside the
exponential-polynomial class handled algebraically elsewhere.  Factors
declare their small-time behavior so endpoint singularities can be
transformed away before the quadrature sees them:

``regular``
    bounded near 0 (or at worst continuous);
``inverse_pow_gaussian`` with parameters (c, alpha)
    behaves like t^(-alpha) e^(-c/t) as t -> 0.  With c > 0 the local
    substitution u = c/t turns this into a plain decaying exponential in
    u; with c = 0 (requires alpha < 1) the power substitution
    t = sigma^(1/(1-alpha)) absorbs the algebraic singularity.

Every routine runs many integrals in lockstep.  :func:`adaptive` refines
each integral of a batch on its own, in the panel order a one-integral
run would take, but evaluates the panels that one round splits together:
the integrand is called as ``f(x, rows)`` with x of shape (k, p), the
nodes of k panels, and ``rows[j]`` the index of the integral that row j
belongs to; it returns values of x's shape.  No call sees more than
``BLOCK_POINTS`` nodes, which bounds the temporaries of the integrand.
:func:`conv_n` takes an array of times; each level integrates all its
remaining times as one batch, and the nodes of one evaluation block
become one batch of the level below.  A scalar is a batch of one.

Delta atoms are deliberately not representable here; convolving against
an atom collapses one simplex dimension and belongs to the exact algebra,
not to quadrature.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BLOCK_POINTS",
    "MAX_PANELS",
    "ConvergenceError",
    "TimeFactor",
    "adaptive",
    "half_integral",
    "regular",
    "inverse_pow_gaussian",
    "conv_n",
]

#: Subdivision budget of each integral of an adaptive batch.
MAX_PANELS = 2**14

#: Most nodes handed to an integrand in one call: 64 panels of 15 nodes.
BLOCK_POINTS = 960


class ConvergenceError(RuntimeError):
    """The panel budget ran out before the error target was met."""


@dataclass(frozen=True)
class TimeFactor:
    """A density on (0, infinity) with a declared small-time tag.

    The evaluator must accept numpy arrays of positive times.
    """

    evaluator: Callable
    kind: str = "regular"
    c: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("regular", "inverse_pow_gaussian"):
            raise ValueError(f"unknown singularity tag {self.kind!r}")
        if self.kind == "inverse_pow_gaussian":
            if self.c < 0.0:
                raise ValueError("c must be >= 0")
            if self.alpha >= 1.0 and self.c == 0.0:
                raise ValueError(
                    "alpha >= 1 needs c > 0 to be integrable at 0")


def regular(evaluator: Callable) -> TimeFactor:
    return TimeFactor(evaluator)


def inverse_pow_gaussian(evaluator: Callable, c: float,
                         alpha: float) -> TimeFactor:
    return TimeFactor(evaluator, "inverse_pow_gaussian", float(c),
                      float(alpha))


# ---------------------------------------------------------------------------
# 7/15 Gauss-Kronrod panel rule
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
])
_WGK_CENTER = 0.2094821410847278
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
])
_WG_CENTER = 0.4179591836734694

_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_KW = np.concatenate([_WGK, [_WGK_CENTER], _WGK[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_GW = np.concatenate([_WG, [_WG_CENTER], _WG[::-1]])


def _evaluate(f: Callable, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """f on the (k, p) node array x, at most BLOCK_POINTS nodes per call."""
    step = max(1, BLOCK_POINTS // x.shape[1])
    return np.concatenate([np.asarray(f(x[i:i + step], rows[i:i + step]),
                                      dtype=float)
                           for i in range(0, x.shape[0], step)])


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """Kronrod value, |Kronrod - Gauss| estimate and absolute mass of each
    panel (a[i], b[i]) of integral rows[i]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = _evaluate(f, mid[:, None] + half[:, None] * _NODES, rows)
    vk = half * (fv * _KW).sum(axis=1)
    vg = half * (fv[:, _GAUSS_IDX] * _GW).sum(axis=1)
    return vk, np.abs(vk - vg), half * (np.abs(fv) * _KW).sum(axis=1)


def _per_integral(*arrays) -> list[np.ndarray]:
    return [np.array(v, dtype=float).ravel()
            for v in np.broadcast_arrays(*arrays)]


def adaptive(f: Callable, a, b, tol, max_panels: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over (a[i], b[i]) and their error estimates.

    Each integral is refined on its own by Gauss-Kronrod 7/15 panels,
    bisecting its worst panel first (ties go to the older panel) until its
    summed estimate is below tol[i] or a rounding floor; rows with
    b[i] <= a[i] are 0.  The integrals run in lockstep: each round calls
    f(x, rows) on the nodes of every panel split in that round, x of shape
    (k, 15) and rows[j] the integral that row j belongs to, in blocks of
    at most BLOCK_POINTS nodes.  Raises ConvergenceError when an integral
    needs more than max_panels panels or a panel too narrow to split.
    """
    a, b, tol = _per_integral(a, b, tol)
    total, total_err, total_mass = np.zeros((3, a.size))
    active = np.flatnonzero(b > a)
    if not active.size:
        return total, total_err
    total[active], total_err[active], total_mass[active] = _gk15(
        f, a[active], b[active], active)
    heaps = {i: [(-total_err[i], 0, a[i], b[i], total[i], total_err[i])]
             for i in active.tolist()}
    panels = 1
    while True:
        floor = 50.0 * 2.220446049250313e-16 * (total_mass[active] + 1e-300)
        active = active[~(total_err[active] <= np.maximum(tol[active], floor))]
        if not active.size:
            return total, total_err
        if panels >= max_panels:
            i = active[0]
            raise ConvergenceError(
                f"no convergence after {panels} panels "
                f"(error {total_err[i]:.3e}, target {tol[i]:.3e})")
        _, _, pa, pb, pval, perr = (np.array(c) for c in zip(
            *[heapq.heappop(heaps[i]) for i in active.tolist()]))
        pm = 0.5 * (pa + pb)
        stuck = ~((pa < pm) & (pm < pb))  # interval at float resolution
        if stuck.any():
            j = int(np.argmax(stuck))
            raise ConvergenceError(
                f"panel [{pa[j]!r}, {pb[j]!r}] cannot be split further "
                f"(error {total_err[active[j]]:.3e}, "
                f"target {tol[active[j]]:.3e})")
        n = active.size
        v, e, m = _gk15(f, np.concatenate([pa, pm]), np.concatenate([pm, pb]),
                        np.concatenate([active, active]))
        total[active] += v[:n] + v[n:] - pval
        total_err[active] += e[:n] + e[n:] - perr
        total_mass[active] += m[:n] + m[n:]
        # every live integral has split once per round, so all share one
        # panel count and one pair of tie counters
        c1, c2 = 2 * panels - 1, 2 * panels
        cut = (pa.tolist(), pm.tolist(), pb.tolist())
        for i, lo, mid, hi, v1, v2, e1, e2 in zip(
                active.tolist(), *cut, v[:n].tolist(), v[n:].tolist(),
                e[:n].tolist(), e[n:].tolist()):
            heapq.heappush(heaps[i], (-e1, c1, lo, mid, v1, e1))
            heapq.heappush(heaps[i], (-e2, c2, mid, hi, v2, e2))
        panels += 1


# ---------------------------------------------------------------------------
# endpoint handling
# ---------------------------------------------------------------------------


def _endpoint_tag(factors: Sequence[TimeFactor]):
    """Small-time behavior of the convolution of the given factors.

    Any factor with c > 0 flattens the whole bundle to all orders at 0.
    Otherwise the algebraic powers compose: a convolution of t^(-a_i)
    factors behaves like t to the power sum(1 - a_i) - (m - 1).
    """
    if len(factors) == 1:
        f = factors[0]
        if f.kind == "regular":
            return ("regular",)
        if f.c > 0.0:
            return ("inverse", f.c, f.alpha)
        return ("power", f.alpha) if f.alpha > 0.0 else ("regular",)
    if any(f.kind == "inverse_pow_gaussian" and f.c > 0.0 for f in factors):
        return ("regular",)
    alphas = [f.alpha if f.kind == "inverse_pow_gaussian" else 0.0
              for f in factors]
    net = sum(1.0 - a for a in alphas) - (len(factors) - 1)
    return ("power", -net) if net < 0.0 else ("regular",)


def half_integral(integrand: Callable, half, tag, tol,
                  max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over (0, half[i]) with the singular end at 0 handled by tag.

    integrand(s, rows) follows the contract of :func:`adaptive`; rows with
    half[i] <= 0 are 0.
    """
    half, tol = _per_integral(half, tol)
    val, est = np.zeros((2, half.size))
    live = np.flatnonzero(half > 0.0)
    if not live.size:
        return val, est
    half, tol = half[live], tol[live]

    def at(x, rows):
        return integrand(x, live[rows])

    if tag[0] == "regular":
        val[live], est[live] = adaptive(at, 0.0, half, tol, max_panels)
        return val, est
    if tag[0] == "power":
        alpha = tag[1]
        q = 1.0 / (1.0 - alpha)

        def g(sigma, rows):
            return at(sigma**q, rows) * q * sigma**(q - 1.0)

        val[live], est[live] = adaptive(g, 0.0, half**(1.0 - alpha), tol,
                                        max_panels)
        return val, est
    # inverse: u = c/s maps (0, half] to [c/half, infinity)
    _, c, alpha = tag
    lo = c / half
    span = np.maximum(40.0, -np.log(np.maximum(tol, 1e-300))
                      + 8.0 * (1.0 + abs(alpha)))
    hi = lo + span

    def g(u, rows):
        return at(c / u, rows) * (c / u**2)

    v, e = adaptive(g, lo, hi, tol, max_panels)
    tail = np.abs(_evaluate(g, hi[:, None], np.arange(hi.size))[:, 0]) * 2.0
    val[live], est[live] = v, e + tail
    return val, est


# ---------------------------------------------------------------------------
# the simplex convolution
# ---------------------------------------------------------------------------


def conv_n(factors: Sequence[TimeFactor], t, tol: float, *,
           max_panels: int = MAX_PANELS):
    """Iterated adaptive quadrature of the n-fold convolution at time t.

    t is a scalar or an array of times; the result has its shape.  Each
    level integrates its factor's duration over (0, remaining time), split
    at the midpoint so that each half has at most one singular endpoint,
    handled by that side's declared substitution.  A level runs the
    integrals of all its remaining times as one :func:`adaptive` batch,
    and the nodes of each evaluation block become one batch of the next
    level.  Error targets halve per level, and each integral's estimate
    takes in the largest estimate of the inner integrals at its nodes,
    times its remaining time.  Factor evaluators are called on 1-d arrays
    of at most BLOCK_POINTS times.

    Returns (value, error estimate); raises :class:`ConvergenceError`
    when some level exhausts its panel budget.
    """
    factors = list(factors)
    if len(factors) < 2:
        raise ValueError("conv_n needs at least two factors")
    for f in factors:
        if not isinstance(f, TimeFactor):
            raise TypeError("factors must be TimeFactor instances")
    times = np.asarray(t, dtype=float)
    if not np.all((times > 0.0) & np.isfinite(times)):
        raise ValueError(f"need t > 0, got {t}")
    if not (tol > 0.0):
        raise ValueError(f"need tol > 0, got {tol}")

    def ev(factor: TimeFactor, tau: np.ndarray) -> np.ndarray:
        return np.asarray(factor.evaluator(tau.ravel()),
                          dtype=float).reshape(tau.shape)

    def level(fs: list, remaining: np.ndarray, t_root: np.ndarray,
              depth: int) -> tuple[np.ndarray, np.ndarray]:
        tol_lv = tol / (2.0**(depth + 1) * (1.0 + t_root))
        head, rest = fs[0], fs[1:]
        inner = np.zeros(remaining.size)

        def bundle(tau, rows):
            # the convolution of `rest` at the (k, p) times tau
            if len(rest) == 1:
                return ev(rest[0], tau)
            owner = np.repeat(rows, tau.shape[1])
            v, e = level(rest, tau.ravel(), t_root[owner], depth + 1)
            np.maximum.at(inner, owner, e)
            return v.reshape(tau.shape)

        def from_head(s, rows):
            return ev(head, s) * bundle(remaining[rows, None] - s, rows)

        def from_tail(v, rows):
            return ev(head, remaining[rows, None] - v) * bundle(v, rows)

        half = 0.5 * remaining
        lv, le = half_integral(from_head, half, _endpoint_tag([head]),
                               0.5 * tol_lv, max_panels)
        rv, re_ = half_integral(from_tail, half, _endpoint_tag(rest),
                                0.5 * tol_lv, max_panels)
        return lv + rv, le + re_ + remaining * inner

    flat = times.ravel()
    value, est = level(factors, flat, flat, 0)
    if times.ndim == 0:
        return float(value[0]), float(est[0])
    return value.reshape(times.shape), est.reshape(times.shape)

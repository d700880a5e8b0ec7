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

Delta atoms are deliberately not representable here; convolving against
an atom collapses one simplex dimension and belongs to the exact algebra,
not to quadrature.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MAX_PANELS",
    "ConvergenceError",
    "TimeFactor",
    "adaptive",
    "half_integral",
    "regular",
    "inverse_pow_gaussian",
    "conv_n",
]

#: Subdivision budget of a single adaptive level.
MAX_PANELS = 2**14


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


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float, float]:
    """Kronrod value, |Kronrod - Gauss| estimate, absolute mass."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = np.asarray(f(mid + half * _NODES), dtype=float)
    vk = half * float(_KW @ fv)
    vg = half * float(_GW @ fv[_GAUSS_IDX])
    return vk, abs(vk - vg), half * float(_KW @ np.abs(fv))


def adaptive(f: Callable, a: float, b: float, tol: float,
             max_panels: int) -> tuple[float, float]:
    """Integral of f over (a, b) and its error estimate, by Gauss-Kronrod
    7/15 panels bisected worst first (deterministic tie order) until the
    summed estimate is below tol; ConvergenceError past max_panels."""
    if not (b > a):
        return 0.0, 0.0
    vk, err, mass = _gk15(f, a, b)
    counter = 0
    heap = [(-err, counter, a, b, vk, err)]
    total = vk
    total_err = err
    total_mass = mass
    panels = 1
    while True:
        floor = 50.0 * 2.220446049250313e-16 * (total_mass + 1e-300)
        if total_err <= max(tol, floor):
            return total, total_err
        if panels >= max_panels:
            raise ConvergenceError(
                f"no convergence after {panels} panels "
                f"(error {total_err:.3e}, target {tol:.3e})")
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if not (pa < pm < pb):  # interval at float resolution
            raise ConvergenceError(
                f"panel [{pa!r}, {pb!r}] cannot be split further "
                f"(error {total_err:.3e}, target {tol:.3e})")
        v1, e1, m1 = _gk15(f, pa, pm)
        v2, e2, m2 = _gk15(f, pm, pb)
        total += v1 + v2 - pval
        total_err += e1 + e2 - perr
        total_mass += m1 + m2
        counter += 1
        heap.append((-e1, counter, pa, pm, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, pm, pb, v2, e2))
        heapq.heapify(heap)
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


def half_integral(integrand: Callable, half: float, tag, tol: float,
                  max_panels: int) -> tuple[float, float]:
    """Integrate over (0, half) with the singular end at 0 handled by tag."""
    if tag[0] == "regular":
        return adaptive(integrand, 0.0, half, tol, max_panels)
    if tag[0] == "power":
        alpha = tag[1]
        q = 1.0 / (1.0 - alpha)

        def g(sigma):
            s = sigma**q
            return integrand(s) * q * sigma**(q - 1.0)

        return adaptive(g, 0.0, half**(1.0 - alpha), tol, max_panels)
    # inverse: u = c/s maps (0, half] to [c/half, infinity)
    _, c, alpha = tag
    lo = c / half
    span = max(40.0, -math.log(max(tol, 1e-300)) + 8.0 * (1.0 + abs(alpha)))
    hi = lo + span

    def g(u):
        s = c / u
        return integrand(s) * (c / u**2)

    val, est = adaptive(g, lo, hi, tol, max_panels)
    tail = abs(float(np.asarray(g(np.array([hi])))[0])) * 2.0
    return val, est + tail


# ---------------------------------------------------------------------------
# the simplex convolution
# ---------------------------------------------------------------------------


def conv_n(factors: Sequence[TimeFactor], t: float, tol: float, *,
           max_panels: int = MAX_PANELS) -> tuple[float, float]:
    """Iterated adaptive quadrature of the n-fold convolution at time t.

    Each level integrates its factor's duration over (0, remaining time),
    split at the midpoint so that each half has at most one singular
    endpoint, handled by that side's declared substitution.  Error
    targets halve per level and inner evaluation errors are propagated
    into the returned estimate.

    Returns (value, error estimate); raises :class:`ConvergenceError`
    when some level exhausts its panel budget.
    """
    factors = list(factors)
    if len(factors) < 2:
        raise ValueError("conv_n needs at least two factors")
    for f in factors:
        if not isinstance(f, TimeFactor):
            raise TypeError("factors must be TimeFactor instances")
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"need t > 0, got {t}")
    if not (tol > 0.0):
        raise ValueError(f"need tol > 0, got {tol}")

    inner_ests: list[float] = []

    def bundle_eval(rest: list, tau, depth: int):
        # value of the convolution of `rest` at scalar or array times
        if len(rest) == 1:
            return rest[0].evaluator(tau)
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        taus = np.atleast_1d(tau)
        out = np.empty_like(taus)
        for i, tv in enumerate(taus):
            v, e = level(rest, float(tv), depth)
            out[i] = v
            inner_ests.append(e)
        return out[0] if scalar else out

    def level(fs: list, remaining: float, depth: int) -> tuple[float, float]:
        if remaining <= 0.0:
            return 0.0, 0.0
        tol_lv = tol / (2.0**(depth + 1) * (1.0 + t))
        head, rest = fs[0], fs[1:]
        half = 0.5 * remaining

        mark = len(inner_ests)

        def from_head(s):
            return head.evaluator(s) * bundle_eval(rest, remaining - s,
                                                   depth + 1)

        def from_tail(v):
            return head.evaluator(remaining - v) * bundle_eval(rest, v,
                                                               depth + 1)

        lv, le = half_integral(from_head, half, _endpoint_tag([head]),
                                0.5 * tol_lv, max_panels)
        rv, re_ = half_integral(from_tail, half, _endpoint_tag(rest),
                                 0.5 * tol_lv, max_panels)
        inner = max(inner_ests[mark:], default=0.0)
        del inner_ests[mark:]
        return lv + rv, le + re_ + remaining * inner

    value, est = level(factors, t, 0)
    return value, float(est)

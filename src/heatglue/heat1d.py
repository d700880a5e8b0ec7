"""One-dimensional heat kernels and the gluing and cutting checks built on them.

The closed form on the line, image and eigenmode series on the interval
and the circle (each with an explicit truncation bound), interface kernels
for two intervals joined at a point, and the reconstruction checks: a
glued interval rebuilt from boundary-flux convolutions, two rays glued into
a line, an arc cut out of a circle, and the cylinder factorization and
spectrum checks.  Wherever a formula admits two independent routes both are
kept.  Each route returns what it computes once, its value and, where it
certifies one, its bound; the cheap direct kernel that checks a gluing or
cutting route (:func:`glue_direct`, :func:`arc_direct`) is the caller's to
evaluate, and so is the residual.

One cut rule for every 1d series: each interval and circle kernel and
reference is an image sum, _images, keeping each family's images within
_reach(t) of its nearest one, or a mode sum, _modes, keeping the modes
with q k^2 <= q + 50: a term left out is below e^-50 of the largest, and
the rest is bounded in closed form.  One lattice builder, _lattice, gives
every image family its kept n as a range, and one term budget, _MAX_IMAGES,
holds for every sum and composition: past it, TruncationError before any
term is formed.  _images, _modes and _cylinder_joint take each term by math
and add by math.fsum, so none of their bits follows numpy's CPU kernels.
One rounding rule for every route that returns a bound: its Gaussian sums
are evaluated at t by _ImageSum.at and added by math.fsum; and one rule,
:func:`heatglue.errors.below_prior`, refuses a bound that certifies nothing
(route II applies it, and the caller of the circle cut).  One interface
series, _interface_series, sums the second gluing formula for both of its
1d routes: route II at the junction point, the circle cut at its two cut
points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from heatglue.errors import TruncationError, below_prior, nonnegative, positive

__all__ = [
    "k_line",
    "k_interval",
    "k_circle",
    "interface_two_intervals",
    "glue_direct",
    "glue_intervals_I",
    "glue_intervals_II",
    "glue_rays",
    "arc_coordinates",
    "arc_direct",
    "cut_circle_to_arc",
    "cylinder_factorization_check",
    "dn_cylinder",
    "DnCylinderReport",
]


# ---------------------------------------------------------------------------
# the closed form on the line
# ---------------------------------------------------------------------------


def k_line(x: float, y: float, t: float) -> float:
    """Free kernel (4 pi t)^(-1/2) exp(-(x-y)^2/4t)."""
    (t,) = positive(t=t)
    try:  # a square past the float range raises; the kernel there is 0
        return math.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    except OverflowError:
        return 0.0


# ---------------------------------------------------------------------------
# interval and circle series, both representations
# ---------------------------------------------------------------------------


# the most terms one sum may keep, and the most images one composition may
# form before merging: far above the gated and benchmarked cases (under a
# thousand), and small enough that one sum stays within a few hundred MB
_MAX_IMAGES = 1 << 22


def _reach(t_max: float) -> float:
    """Distance past which exp(-d^2/4tau) is below e^-50 for every
    tau <= t_max."""
    return math.sqrt(200.0 * t_max)


def _check_terms(count: float, label: str) -> None:
    """TruncationError when a sum or composition would form up to count
    terms, more than _MAX_IMAGES."""
    if not count <= _MAX_IMAGES:
        raise TruncationError(f"{label}: up to {count:.6g} terms, past the "
                              f"budget of {_MAX_IMAGES}")


def _lattice(families: Sequence[tuple], label: str) -> list[range]:
    """The integers n that each family keeps, one range per family, the one
    count of the 1d image sums: (offset, period, cut) keeps the n with
    |offset + n period| <= cut, (offset, period, cut, first) those from
    first on, as many at any offset.  TruncationError, before any range is
    formed, when the families keep more than _MAX_IMAGES in all."""
    spans, count = [], 0.0
    for offset, period, cut, *first in families:
        # floor by // 1, which keeps a span without end a float, inf or nan
        lo = max([-((cut + offset) / period // 1), *first])
        hi = (cut - offset) / period // 1
        spans.append((lo, hi))
        count += max(hi - lo + 1.0, 0.0)
    _check_terms(count, label)
    return [range(int(lo), int(hi) + 1) for lo, hi in spans]


def _side_tail(a: float, period: float, t: float) -> float:
    """Bound on sum_(k >= 0) exp(-(a + k period)^2/4t), a >= 0, falling in
    a: (a + k period)^2 >= a^2 + k (2 a period + period^2)."""
    return math.exp(-a * a / (4.0 * t)) \
        / -math.expm1(-(2.0 * a + period) * period / (4.0 * t))


def _images(t: float, families: Sequence[tuple], label: str
            ) -> tuple[float, float]:
    """(4 pi t)^(-1/2) sum_f sign_f sum_n exp(-(offset_f + n period_f)^2/4t)
    over the families (offset, period, sign), all n, and (offset, period,
    sign, first), n >= first, each image by math.exp and all added by one
    math.fsum: (value, bound on the images left out).  Each family keeps
    its images within _reach(t) of its nearest one (:func:`_lattice`), so
    an image left out is below e^-50 times the largest of its family and
    the cut is relative, however small the sum; each side cut there adds
    at most :func:`_side_tail` of its first image."""
    reach = _reach(t)
    ns = _lattice([(o, p, abs(o + p * max([round(-o / p), *first])) + reach,
                    *first) for o, p, _, *first in families], label)
    value = math.fsum([sign * math.exp(-(d := o + k * p) * d / (4.0 * t))
                       for (o, p, sign, *_), n in zip(families, ns) for k in n])
    bound = 0.0
    for (o, p, _, *first), n in zip(families, ns):
        bound += _side_tail(o + (n[-1] + 1) * p, p, t)
        if n[0] not in first:  # a side cut at first leaves nothing out
            bound += _side_tail(-(o + (n[0] - 1) * p), p, t)
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    return pref * value, pref * bound


def _modes(q: float, amplitude: Callable[[int], float], scale: float,
           label: str) -> tuple[float, float]:
    """scale sum_(k >= 1) amplitude(k) exp(-q k^2), each amplitude at most
    1 in modulus, each mode by math.exp and all added by math.fsum: (value,
    bound on the modes left out).  The sum keeps the K modes with
    q k^2 <= q + 50 (:func:`_lattice`), so a mode left out is below e^-50
    times the first.  (K + 1 + j)^2 >= (K + 1)^2 + j (2K + 3), so the modes
    left out add at most scale exp(-q (K + 1)^2) / (1 - exp(-q (2K + 3)))."""
    (ks,) = _lattice([(0.0, 1.0, math.sqrt(1.0 + 50.0 / q) if q else math.inf,
                       1)], label)
    value = scale * math.fsum([math.exp(-q * k * k) * amplitude(k) for k in ks])
    return value, scale * math.exp(-q * (len(ks) + 1) ** 2) \
        / -math.expm1(-q * (2.0 * len(ks) + 3.0))


def k_interval(L: float, x: float, y: float, t: float,
               rep: str = "auto") -> tuple[float, float]:
    """Dirichlet kernel on [0, L]: (value, bound on the terms left out).

    rep is "images" (the images x - y + 2nL, +, and x + y + 2nL, -, by
    :func:`_images`), "spectral" (the sine modes, by :func:`_modes`), or
    "auto", which picks images for t < L^2/pi and the mode sum beyond that,
    the crossover where both tails are about exp(-pi).  The bound covers
    truncation only, not rounding."""
    L, t = positive(L=L, t=t)
    if not (0.0 <= x <= L and 0.0 <= y <= L):
        raise ValueError("x and y must lie in [0, L]")
    if rep == "auto":
        rep = "images" if t < L * L / math.pi else "spectral"
    if rep == "images":
        return _images(t, ((x - y, 2.0 * L, 1.0), (x + y, 2.0 * L, -1.0)),
                       "interval image sum")
    if rep == "spectral":
        return _modes(math.pi * math.pi * t / (L * L),
                      lambda k: math.sin(math.pi * k * x / L)
                      * math.sin(math.pi * k * y / L),
                      2.0 / L, "interval mode sum")
    raise ValueError(f"unknown representation {rep!r}")


def _wrap_diff(d: float, L: float) -> float:
    return (d + 0.5 * L) % L - 0.5 * L


def k_circle(L: float, x: float, y: float, t: float,
             rep: str = "auto") -> tuple[float, float]:
    """Periodic kernel on a circle of circumference L: (value, bound on the
    terms left out).

    rep is "images" (the images d + nL of the wrapped difference d, by
    :func:`_images`), "spectral" (1/L plus the cosine modes, by
    :func:`_modes`), or "auto", images for t < L^2/4pi.  The bound covers
    truncation only, not rounding."""
    L, t = positive(L=L, t=t)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("x and y must be finite")
    d = _wrap_diff(x - y, L)
    if rep == "auto":
        rep = "images" if t < L * L / (4.0 * math.pi) else "spectral"
    if rep == "images":
        return _images(t, ((d, L, 1.0),), "circle image sum")
    if rep == "spectral":
        value, bound = _modes(4.0 * math.pi * math.pi * t / (L * L),
                              lambda k: math.cos(2.0 * math.pi * k * d / L),
                              2.0 / L, "circle mode sum")
        return 1.0 / L + value, bound
    raise ValueError(f"unknown representation {rep!r}")


# ---------------------------------------------------------------------------
# interface kernel of two joined intervals
# ---------------------------------------------------------------------------


def interface_two_intervals(L1: float, L2: float, t: float,
                            form: str = "residues") -> tuple[float, float]:
    """Kernel of the glued interval evaluated at the junction point: the
    kernel of [0, L1 + L2] at (L1, L1), by :func:`k_interval`.

    Two convergent forms of the same function: "residues" is its mode sum
    ("spectral"), "poisson" its resummation into images ("images"), fast
    at small t.  Returns (value, bound on the terms left out); the bound
    covers truncation only."""
    L1, L2, t = positive(L1=L1, L2=L2, t=t)
    reps = {"residues": "spectral", "poisson": "images"}
    if form not in reps:
        raise ValueError(f"unknown form {form!r}")
    return k_interval(L1 + L2, L1, L1, t, reps[form])


# ---------------------------------------------------------------------------
# gluing two intervals, route I: exact image resummation
# ---------------------------------------------------------------------------


def _check_depths(L2: float, *depths: float) -> None:
    """ValueError unless every depth lies in the second piece, [0, L2]."""
    if not all(0.0 <= z <= L2 for z in depths):
        raise ValueError("x and y must lie in [0, L2]")


def glue_direct(L1: float, L2: float, x: float, y: float, t: float) -> float:
    """K_S(L1 + x, L1 + y) - K_L2(x, y), S = L1 + L2, the check on both
    gluing routes, in the representation :func:`k_interval` takes at S.

    For t < S^2/pi, one image sum (:func:`_images`): with a = x - y and
    b = x + y, K_S has images a + 2kS (+) and b - 2 L2 + 2kS (-), K_L2
    a + 2kL2 (-) and b + 2(k - 1) L2 (+), k != 0, as the k = 0 images of
    the two cancel.  Their k > 0 and k < 0 are eight half-families, each
    offset +-a, b + 2 L1, 2 L2 - b or +-b formed from a or b and one shift,
    so the nearest image, b, is exact.  For t >= S^2/pi, K_S - K_L2 by
    :func:`_modes`, K_S at L2 - x and L2 - y from the shared end."""
    L1, L2, t = positive(L1=L1, L2=L2, t=t)
    _check_depths(L2, x, y)
    S = L1 + L2
    if t < S * S / math.pi:
        a, b, joint, side = x - y, x + y, 2.0 * S, 2.0 * L2
        return _images(t, (
            (a, joint, 1.0, 1), (-a, joint, 1.0, 1), (a, side, -1.0, 1),
            (-a, side, -1.0, 1), (b + 2.0 * L1, joint, -1.0, 0),
            (2.0 * L2 - b, joint, -1.0, 1), (b, side, 1.0, 0),
            (-b, side, 1.0, 2)), "direct difference")[0]
    joint, side = (_modes(math.pi * math.pi * t / (L * L),
                          lambda k: math.sin(math.pi * k * p / L)
                          * math.sin(math.pi * k * q / L), 2.0 / L,
                          "direct difference")[0]
                   for L, p, q in ((S, L2 - x, L2 - y), (L2, x, y)))
    return joint - side


def _flux_pair(L: float, x: float, y: float, cut: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """The flux pulse out of depth x composed with the one into depth y,
    0 <= x, y <= L, in closed form, out to the cut distance: (distances,
    integer weights), equal distances of different families not merged.

    The pulse at a depth 0 < z <= L has the legs z + 2kL (+), k >= 0, and
    2kL - z (-), k >= 1; at z = 0 it is the delta at the junction, one leg
    at 0.  Distances add under composition, so the pair is the families
    +-x +- y + 2mL (:func:`_lattice`), m from the sum of the legs' first k,
    each weighted by its splits k1 + k2 = m (one when a pulse is the delta),
    all from legs within the cut, as no leg is negative.  No leg is formed.
    """
    if x == y == 0.0:
        return np.zeros(1), np.ones(1)
    # each family of legs: offset, sign, first k
    legs = [((z, 1.0, 0), (-z, -1.0, 1)) if z else ((0.0, 1.0, 0),)
            for z in (x, y)]
    fams = [(ox + oy, sx * sy, kx + ky)
            for ox, sx, kx in legs[0] for oy, sy, ky in legs[1]]
    period = 2.0 * L
    ms = _lattice([(off, period, cut, first) for off, _, first in fams],
                  "flux pair")
    d = [off + float(m) * period for (off, _, _), kept in zip(fams, ms)
         for m in kept]
    w = [sign * (m - first + 1.0) if x and y else sign
         for (_, sign, first), kept in zip(fams, ms) for m in kept]
    return np.array(d), np.array(w)


def _route_I(L1: float, L2: float, t: float,
             depths: Sequence[tuple[float, float]]) -> list[float]:
    """Route I at checked lengths and time, at each depth pair (x, y).

    The flux pairs (:func:`_flux_pair`) are built first, then the junction
    sum once, the images of :func:`interface_two_intervals` folded onto
    n >= 0, exact at n = 0: 0 (+1), 2nS (+2, n >= 1), 2 L1 + 2nS (-1) and
    2 L2 + 2nS (-1); each pair against it is one bilinear form
    w_pair . exp(-(d_i + m_j)^2/4t) . w_mid in the image budget
    (:func:`_check_terms`).  Both are cut at _reach(t) + 2 L2, so every
    path within _reach(t) of the nearest one, x + y <= 2 L2, is kept.
    """
    S, cut = L1 + L2, _reach(t) + 2.0 * L2
    _check_depths(L2, *(z for depth in depths for z in depth))
    pairs = [_flux_pair(L2, x, y, cut) for x, y in depths]
    offsets, period = (0.0, 2.0 * L1, 2.0 * L2), 2.0 * S
    ns = _lattice([(offset, period, cut, 0) for offset in offsets],
                  "junction sum")
    mid_d = np.array([o + float(n) * period
                      for o, kept in zip(offsets, ns) for n in kept])
    mid_w = np.array([1.0] + [2.0] * (len(ns[0]) - 1)
                     + [-1.0] * (len(ns[1]) + len(ns[2])))
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    values = []
    for d, w in pairs:
        _check_terms(d.size * mid_d.size,
                     f"composing {d.size} by {mid_d.size} images")
        gauss = np.exp(np.square(np.add.outer(d, mid_d)) / (-4.0 * t))
        values.append(pref * float(w @ gauss @ mid_w))
    return values


def glue_intervals_I(L1: float, L2: float, x: float, y: float,
                     t: float) -> float:
    """Glued-interval correction rebuilt from its convolution factors.

    The correction K_joint(L1+x, L1+y) - K_side2(x, y) for x, y in the
    second piece is a triple convolution of pulse trains, flux out of x,
    transport through the junction and flux into y, whose distances add:
    one bilinear image sum (:func:`_route_I`).  Returns the value; its
    check is the direct two-kernel difference :func:`glue_direct`.
    """
    L1, L2, t = positive(L1=L1, L2=L2, t=t)
    return _route_I(L1, L2, t, [(x, y)])[0]


# ---------------------------------------------------------------------------
# gluing two intervals, route II: alternating flux series of image sums
# ---------------------------------------------------------------------------


_U = 2.0**-53  # unit roundoff


@dataclass(frozen=True, eq=False)
class _ImageSum:
    """The sum sum_i w_i k_(d_i)(tau) of one kernel at merged distances.

    kind "g" sums Gaussians g_d(tau) = (4 pi tau)^(-1/2) exp(-d^2/4tau),
    kind "h" first-passage densities h_d(tau) = d (4 pi)^(-1/2)
    tau^(-3/2) exp(-d^2/4tau), h_0 being the delta at 0.  Distances add
    under convolution, h_a * h_b = h_(a+b) and h_a * g_b = g_(a+b) (the
    stable-1/2 semigroup, Feller vol. II), and sums of such compositions
    are formed raw and merged once (:func:`_compose_sum`), so every 1d
    gluing integral here is one such sum, exact up to rounding, and
    evaluated only by :meth:`at`, the one rounding rule of the 1d routes.
    Distances past reach are dropped first (a NaN distance at any reach),
    then exactly equal distances are merged, their weights added in the
    order given, and zero weights dropped; a step that keeps every image
    copies nothing.  A finite reach stands for the images negligible up to
    its time (:func:`_reach`).
    """

    kind: str
    d: np.ndarray
    w: np.ndarray
    reach: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in ("g", "h"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        d = np.asarray(self.d, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        near = d <= self.reach
        if np.count_nonzero(near) < d.size:
            d, w = d[near], w[near]
        order = np.argsort(d, kind="stable")
        d, w = d[order], w[order]
        first = np.empty(d.size, dtype=bool)
        first[:1] = True
        np.not_equal(d[1:], d[:-1], out=first[1:])
        if np.count_nonzero(first) < d.size:
            # each run of equal distances summed in input order, as a
            # scatter add does it (np.add.reduceat sums long runs pairwise)
            d, w = d[first], np.bincount(np.cumsum(first) - 1, weights=w)
        if np.count_nonzero(w) < w.size:
            keep = w != 0.0
            d, w = d[keep], w[keep]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "w", w)

    def at(self, t: float, steps: np.ndarray | float) -> tuple[float, float]:
        """A sum of Gaussians at one time t, added by math.fsum, and a
        bound on its rounding error.

        The weights must be integers below 2^53, so that merging added
        them exactly, and steps bounds, in units of U, the relative error
        of each distance d against the true distance of every path merged
        into it.  A Gaussian's exponent E = d^2/4t is then off by at most
        2 (steps + 1) U E; exp, the prefactor and the weight add at most
        8 U, and fsum rounds the total once.  So the error is at most
        U (sum_i (2 (steps_i + 1) E_i + 8) |w_i g_i| + |value|), which
        weights every kept image by its own term, 0 where g_i is 0.
        """
        if self.kind != "g":
            raise ValueError("only a sum of Gaussians is evaluated at one time")
        with np.errstate(over="ignore"):  # e is inf past the float range
            e = np.square(self.d) / (4.0 * t)
        terms = self.w * np.exp(-e) / math.sqrt(4.0 * math.pi * t)
        value = math.fsum(terms.tolist())
        kappa = np.where(terms != 0.0, 2.0 * (steps + 1.0) * e + 8.0, 0.0)
        return value, _U * (float(kappa @ np.abs(terms)) + abs(value))

    def sup(self, t: float) -> float:
        """Bound on |sum * g_0| over (0, t], the Gaussians g_d at the
        sum's distances and weights (the sum itself for kind g), when no
        image lies at distance 0, image by image: g_d rises until d^2/2,
        so sum_i |w_i| g_(d_i)(min(t, d_i^2/2))."""
        peak = np.minimum(t, 0.5 * self.d**2)
        return float(np.sum(np.abs(self.w) * np.exp(-self.d**2 / (4.0 * peak))
                            / np.sqrt(4.0 * math.pi * peak)))


def _compose_sum(*pairs: tuple[_ImageSum, _ImageSum]) -> _ImageSum:
    """sum_i a_i * b_i over the pairs (a_i, b_i), each with one sum of
    kind h at least and all of one composed kind: every pair formed raw,
    distances added and weights multiplied, and the whole merged once.
    Weights that are integers below 2^53 add exactly in any order, so this
    is, bit for bit, the pairs composed and merged one by one and then
    added.  TruncationError when a pair would form more than _MAX_IMAGES
    images before merging, checked for every pair before any is formed."""
    kinds = set()
    for a, b in pairs:
        if "h" not in (a.kind, b.kind):
            raise ValueError("Gaussians do not compose into an image sum")
        kinds.add("h" if a.kind == b.kind else "g")
        _check_terms(a.d.size * b.d.size,
                     f"composing {a.d.size} by {b.d.size} images")
    if len(kinds) != 1:
        raise ValueError("only sums of one kind add")
    return _ImageSum(kinds.pop(),
                     np.concatenate([np.add.outer(a.d, b.d).ravel()
                                     for a, b in pairs]),
                     np.concatenate([np.multiply.outer(a.w, b.w).ravel()
                                     for a, b in pairs]),
                     min(min(a.reach, b.reach) for a, b in pairs))


_G0 = _ImageSum("g", [0.0], [1.0])  # the flat junction pulse


def _interface_series(hops: Sequence[Sequence[_ImageSum]],
                      closes: Sequence[_ImageSum],
                      n_max: int) -> list[_ImageSum]:
    """The interface series of the second gluing formula, at each interface
    point u one image sum: sum_(n <= n_max) (-1)^n (H^n close)_u.

    A path from an interface point to the far end crosses the interface
    some number of times.  H_uv sums the hops from u to the next crossing,
    at v (pulses of kind h, each at a positive distance with a positive
    integer weight), and close_v the last leg, from v on.  The kernel's
    interface part is the alternating Neumann series of (1 + H)^(-1) close,
    the products being convolutions in time, and each is exact in image
    sums: distances add and weights multiply (:class:`_ImageSum`).  Order n
    is (H^n close)_u = sum_v H_uv * (H^(n-1) close)_v, the pairs of each u
    composed and merged once (:func:`_compose_sum`).  Every hop moves a
    path out, so once all sums of an order lie past the reach, so do those
    of every later order, and the series stops there.  Each point's kept
    orders, signed, are then merged once, at the least reach of the hops;
    every weight stays an integer, so the merge adds them exactly.
    TruncationError, from :func:`_compose_sum`, before a pair would form
    more than _MAX_IMAGES images."""
    orders = [list(closes)]
    while len(orders) <= n_max and any(s.d.size for s in orders[-1]):
        orders.append([_compose_sum(*zip(row, orders[-1])) for row in hops])
    return [_ImageSum(sums[0].kind, np.concatenate([s.d for s in sums]),
                      np.concatenate([(-1.0) ** n * s.w
                                      for n, s in enumerate(sums)]),
                      min(hop.reach for row in hops for hop in row))
            for sums in zip(*orders)]


def _echo_pulse(t_max: float, *lengths: float) -> _ImageSum:
    """Round trips across intervals of the given lengths: the pulses
    h_2kL, k >= 1, of each length out to _reach(t_max) (:func:`_lattice`)."""
    reach = _reach(t_max)
    ks = _lattice([(0.0, 2.0 * L, reach, 1) for L in lengths], "round trips")
    d = [2.0 * L * k for L, kept in zip(lengths, ks) for k in kept]
    return _ImageSum("h", d, [1.0] * len(d), reach)


_R_SQRT_T = np.geomspace(1e-2, 1e4, 601)  # the Laplace tails' search grid
_LOG_MAX = math.log(sys.float_info.max)


def _geometric_tail(sup: float, t: float, r: np.ndarray, log_lam: np.ndarray,
                    m: int, log_a: np.ndarray | float = 0.0) -> float:
    """sup · min_r e^(r^2 t) a lam^m / (1 - lam) over the r with lam < 1,
    infinite when there are none.  This bounds the orders m, m + 1, ... of
    a nonnegative series whose order k transforms at s = r^2 to at most
    a lam^k, once convolved with a factor bounded by sup on (0, t): the
    mass of a density on (0, t) is at most e^(st) times its transform.
    Infinite too when the least tail is past the float range."""
    conv = log_lam < 0.0
    log_past = (r * r * t + log_a + m * log_lam
                - np.log(-np.expm1(np.where(conv, log_lam, -1.0))))
    least = float(log_past[conv].min()) if conv.any() else math.inf
    return sup * math.exp(least) if least < _LOG_MAX else math.inf


def _log_geometric_sum(log_lam: np.ndarray, orders: int) -> np.ndarray:
    """log sum_(k <= orders) lam^k in closed form, O(1) work per lam: with
    a = |log lam|, the sum is e^(max(0, orders log lam)) (1 - e^(-(orders
    + 1) a)) / (1 - e^(-a)), and no factor overflows on either side of 1.
    At lam = 1 it is the limit orders + 1, from a floor of 1e-300 on a."""
    a = np.maximum(np.abs(log_lam), 1e-300)
    return (np.maximum(orders * log_lam, 0.0)
            + np.log(-np.expm1(-(orders + 1.0) * a)) - np.log(-np.expm1(-a)))


def _dropped_images(t: float, r: np.ndarray, log_lam: np.ndarray,
                    orders: int, *log_factors: np.ndarray) -> float:
    """Bound on the images past R = _reach(t) that a Gaussian sum of the
    orders 0 .. orders leaves out, when the paths of order k, each an
    image of weight +-1 at its distance D, transform at s = r^2 to at most
    prod(factors) lam^k.  For D > R and r <= R/2t, exp(-D^2/4t) <=
    exp(r (R - D) - R^2/4t), so the images past R add at most
    (4 pi t)^(-1/2) e^(rR - R^2/4t) prod(factors) sum_k lam^k, at its
    least value over the fixed grid of r."""
    reach = _reach(t)
    near = r <= reach / (2.0 * t)
    log_drop = r[near] * reach - reach**2 / (4.0 * t)
    for log_factor in (*log_factors, _log_geometric_sum(log_lam, orders)):
        log_drop = log_drop + log_factor[near]
    return math.exp(float(log_drop.min())) / math.sqrt(4.0 * math.pi * t)


def _log_gap(L: float, r: np.ndarray) -> np.ndarray:
    """log(1 - e^(-rL)): pulses spaced L apart transform at s = r^2 to a
    geometric series of ratio e^(-rL), and this is the log of one minus
    it.  Each length's is taken once per grid of r and shared."""
    return np.log(-np.expm1(-r * L))


def glue_intervals_II(L1: float, L2: float, x: float, y: float, t: float,
                      n_max: int) -> tuple[float, float]:
    """Glued-interval correction as an alternating series of echo orders.

    The interface is the junction point.  Its hop is the round trips
    phi = sum_k h_2kL1 + h_2kL2 (:func:`_echo_pulse`) and its close the flat
    junction pulse g_0, so :func:`_interface_series` gives the signed echo
    sum, sum_(n <= n_max) (-1)^n phi^(*n) * g_0.  The flux pulses out of x
    and into y compose into one signed sum (:func:`_flux_pair`), and that
    composed with the echo sum is the series at t, one Gaussian sum with no
    quadrature; at x = y = 0 the pair is the delta at the junction and the
    series is the echo sum itself.

    Returns (value, bound); the check is the direct two-kernel difference
    :func:`glue_direct`, as for route I.  The bound adds the orders past
    n_max, the images past the reach that the kept orders drop
    (:func:`_dropped_images`) and the rounding part of
    :meth:`_ImageSum.at`.  At s = r^2 the round trips transform to
    lam = sum_L e^(-2Lr) / (1 - e^(-2Lr)), from the :func:`_log_gap` of
    2 L1 and 2 L2, taken once on the grid of r for both parts.  So order n
    is at most sup_(0,t)(|pair| * g_0) int_0^t phi^(*n) <= S e^(st) lam^n,
    and the orders past n_max sum to at most
    S e^(st) lam^(n_max+1) / (1 - lam) (:func:`_geometric_tail`).  With
    pair the delta, the bounded factor is phi * g_0 instead: S is its
    supremum and the power of lam one less.  S comes from the merged
    pulses themselves (:meth:`_ImageSum.sup`), and the tail takes its
    least value over the grid of r.  Domain monotonicity gives
    0 <= K_S - K_L2 <= g_|x-y|(t), so a bound at or above that proves
    nothing: TruncationError, checked on the two truncation parts before
    the echo chains are built and again on the whole bound.  The image
    budget is checked before those parts: composed with the order 0 of the
    echo sum and, when n_max > 0, its order 1, the pair alone forms
    pair.d.size (1 + phi.d.size) images.
    """
    L1, L2, t = positive(L1=L1, L2=L2, t=t)
    _check_depths(L2, x, y)
    (n_max,) = nonnegative(n_max=n_max)
    label = f"echo series at order {n_max}"
    prior = k_line(x, y, t)
    # at x = y = 0 both pulses are the delta at the junction
    reach = _reach(t)
    pair = None if x == y == 0.0 else \
        _ImageSum("h", *_flux_pair(L2, x, y, reach), reach)
    phi = _echo_pulse(t, L1, L2)
    if pair is not None:
        echoes = 1 + phi.d.size * (n_max > 0)
        _check_terms(pair.d.size * echoes,
                     f"composing {pair.d.size} by {echoes} images")
    # a path past the reach crosses one flux image on each side, each side
    # transforming to sum_k e^(-r |z + 2kL2|), and n round trips
    r = _R_SQRT_T / math.sqrt(t)
    log_gaps = [_log_gap(2.0 * L, r) for L in (L1, L2)]
    log_lam = np.logaddexp(*(-2.0 * L * r - log_gap
                             for L, log_gap in zip((L1, L2), log_gaps)))
    legs = () if pair is None else tuple(
        _log_ring_transform(2.0 * L2, z, r, log_gaps[1]) for z in (x, y))
    pulses, power = (phi, n_max) if pair is None else (pair, n_max + 1)
    tail = below_prior(
        _geometric_tail(pulses.sup(t), t, r, log_lam, power)
        + _dropped_images(t, r, log_lam, n_max, *legs), prior, label)
    (total,) = _interface_series([[phi]], [_G0], n_max)
    series = total if pair is None else _compose_sum((pair, total))
    # a distance adds two flux legs, each off by at most 3 U, and at most
    # d / 2 min(L1, L2) round trips, each off by U, in as many roundings
    value, rounding = series.at(t, series.d / (2.0 * min(L1, L2)) + 4.0)
    return value, below_prior(tail + rounding, prior, label)


# ---------------------------------------------------------------------------
# gluing two rays into a line
# ---------------------------------------------------------------------------


def glue_rays(x: float, y: float, t: float) -> tuple[float, float]:
    """Two half lines joined at the origin, rebuilt by composition.

    The flux pulses at distances x and y and the flat junction pulse
    compose exactly, h_x * h_y * g_0 = g_(x+y) (:func:`_compose_sum`),
    whose check is the closed form (4 pi t)^(-1/2) exp(-(x+y)^2/4t).
    Returns (value, bound); the bound is the rounding part of
    :meth:`_ImageSum.at`, the one distance x + y being off by at most U.
    """
    x, y, t = positive(x=x, y=y, t=t)
    line = _compose_sum((_compose_sum((_ImageSum("h", [x], [1.0]),
                                       _ImageSum("h", [y], [1.0]))), _G0))
    return line.at(t, 1.0)


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def _ring(kind: str, L: float, delta: float, reach: float,
          skip_zero: bool = False) -> _ImageSum:
    """sum_n k_|delta + nL| over the images within reach: the circle kernel
    (kind g) or the first-passage pulses around the circle (kind h) at
    offset delta, n from :func:`_lattice`; skip_zero leaves out n = 0."""
    (ns,) = _lattice([(delta, L, reach)], "circle ring")
    d = [abs(delta + n * L) for n in ns if n or not skip_zero]
    return _ImageSum(kind, d, [1.0] * len(d), reach)


def _log_ring_transform(L: float, delta: float, r: np.ndarray,
                        log_gap: np.ndarray) -> np.ndarray:
    """log sum_n exp(-r |delta + nL|) over all n, in closed form: the
    Laplace transform at s = r^2 of the kind-h ring, given the
    :func:`_log_gap` of L."""
    d = delta % L
    return (-r * min(d, L - d) + np.log1p(np.exp(-r * abs(L - 2.0 * d)))
            - log_gap)


def _cut_tail(L: float, cuts: Sequence[float], x: float, y: float,
              close: Sequence[_ImageSum], t: float, k_max: int) -> float:
    """Bound on what the cut series at order k_max leaves out.

    Every term is nonnegative.  At s = r^2 the pulses h_d transform to
    exp(-r d), so the states after k hops transform to a^T H^k, with
    a_u = sum_n exp(-r |x - c_u + nL|) and H_uv = sum_n exp(-r |c_u - c_v
    + nL|), n != 0 when u = v; every row of H sums to lam = H_00 + H_01.
    A state's mass on (0, t) is at most e^(st) times its transform, so the
    terms past k_max sum to at most
    e^(st) sup_(0,t) close · sum(a) lam^(k_max+1) / (1 - lam) when lam < 1.
    The kept terms drop their images at D > R = _reach(t), where
    exp(-D^2/4t) <= exp(r (R - D) - R^2/4t) for r <= R/2t, so they drop
    at most (4 pi t)^(-1/2) e^(rR - R^2/4t) sum(a) max(b) sum_k lam^k,
    b_u = sum_n exp(-r |c_u - y + nL|).  Each part takes its least value
    over the fixed grid of r; the five ring transforms and H_00 share one
    :func:`_log_gap` of L.  A close's supremum is :meth:`_ImageSum.sup`
    plus its images past R at t, where they peak (:func:`_side_tail`).
    """
    r = _R_SQRT_T / math.sqrt(t)
    log_gap = _log_gap(L, r)
    log_a = np.logaddexp(*(_log_ring_transform(L, x - c, r, log_gap)
                           for c in cuts))
    log_b = np.maximum(*(_log_ring_transform(L, c - y, r, log_gap)
                         for c in cuts))
    log_lam = np.logaddexp(math.log(2.0) - r * L - log_gap, _log_ring_transform(
        L, cuts[0] - cuts[1], r, log_gap))
    sup = max(c.sup(t) for c in close) \
        + 2.0 * _side_tail(_reach(t), L, t) / math.sqrt(4.0 * math.pi * t)
    return _geometric_tail(sup, t, r, log_lam, k_max + 1, log_a) \
        + _dropped_images(t, r, log_lam, k_max, log_a, log_b)


def _spread_steps(spread: np.ndarray | float, d: np.ndarray) -> np.ndarray:
    """2 spread / d at each distance d > 0, 0 at d = 0: the part of the
    steps of :meth:`_ImageSum.at` that a ring offset adds to the rounding
    of a distance (:func:`cut_circle_to_arc`)."""
    return np.divide(2.0 * spread, d, out=np.zeros(d.size), where=d > 0.0)


def arc_coordinates(L_total: float, cuts: Sequence[float], x: float,
                    y: float) -> tuple[float, float, float]:
    """(length, x, y) on the arc that holds x and y of a circle cut at two
    distinct points; ValueError unless both lie strictly inside one arc."""
    (L,) = positive(L_total=L_total)
    if len(cuts) != 2:
        raise ValueError("exactly two cut points are required to cut the "
                         f"circle into two arcs, got {len(cuts)}")
    c0, c1 = sorted(float(c) % L for c in cuts)
    if c0 == c1:
        raise ValueError("cut points must be distinct")
    x = float(x) % L
    y = float(y) % L
    if c0 < x < c1 and c0 < y < c1:
        return c1 - c0, x - c0, y - c0
    xs, ys = (x - c1) % L, (y - c1) % L
    ell = L - (c1 - c0)
    if not (0.0 < xs < ell and 0.0 < ys < ell):
        raise ValueError("x and y must lie strictly inside one arc")
    return ell, xs, ys


def arc_direct(L_total: float, cuts: Sequence[float], x: float, y: float,
               t: float) -> float:
    """The Dirichlet kernel of the arc that holds x and y, its terms cut
    at e^-50 of the largest (:func:`k_interval`): the check on
    :func:`cut_circle_to_arc`."""
    ell, xl, yl = arc_coordinates(L_total, cuts, x, y)
    return k_interval(ell, xl, yl, t)[0]


def cut_circle_to_arc(L_total: float, cuts: Sequence[float], x: float,
                      y: float, t: float, k_max: int) -> tuple[float, float]:
    """Arc kernel rebuilt by cutting the circle at two points.

    The circle kernel, its images x - y + nL within _reach(t) of the
    nearest one as :func:`k_circle` keeps them, minus the interface series
    at the two cut points c_u (:func:`_interface_series`): the hops are
    H_uv = sum_n h_|c_u - c_v + nL| (n != 0 when u = v), the closes
    sum_n g_|c_u - y + nL|, and the series is composed with the flux states
    sum_n h_|x - c_u + nL| in one :func:`_compose_sum`, images out to
    _reach(t).  The circle and that one signed sum, all weights integers,
    go through :meth:`_ImageSum.at`.  Returns (value, bound), checked by
    :func:`arc_direct`; the caller refuses a bound not below the circle
    kernel (:func:`~heatglue.errors.below_prior`).  The bound adds
    :func:`_cut_tail`, taken before anything is composed (TruncationError
    when not finite), the circle's images past its cut (:func:`_side_tail`),
    the rounding parts and U |value| for the difference.  The image budget
    is checked before the tail, on each state with its close.

    A ring distance d = |delta + nL|, delta the float x - c, c - y,
    c_0 - c_1 or x - y, rounds in delta, nL and the sum, each by U times
    its result, and |nL| <= |delta| + d: d is off by at most
    U (2 |delta| + 3 d), however much delta + nL cancels near a cut.  A
    path of order k adds k + 2 ring distances in k + 1 roundings, so its
    distance D is off by at most U (2 A + (k + 4) D),
    A = max_u |x - c_u| + k |c_0 - c_1| + max_u |c_u - y|.  Each of its k
    hops is at least the shortest kept one, L or the nearest cross hop, so
    k <= min(k_max, D / shortest hop) for every path merged into D, and
    that k gives D its steps, 2 A / D + k + 4; the circle's are
    2 |x - y| / d + 3.  The square of that error, at most (2 U A)^2/4t on
    an exponent, D = 0 included, adds 2 (U A)^2/t times |value| of each
    sum, A the largest of the sum's.
    """
    arc_coordinates(L_total, cuts, x, y)  # both points inside one arc
    L, t = positive(L_total=L_total, t=t)
    (k_max,) = nonnegative(k_max=k_max)
    reach = _reach(t)
    state = [_ring("h", L, x - c, reach) for c in cuts]
    same = _ring("h", L, 0.0, reach, skip_zero=True)
    cross = _ring("h", L, cuts[0] - cuts[1], reach)
    close = [_ring("g", L, c - y, reach) for c in cuts]
    for s, c in zip(state, close):
        _check_terms(s.d.size * c.d.size,
                     f"composing {s.d.size} by {c.d.size} images")
    tail = _cut_tail(L, cuts, x, y, close, t, k_max)
    if not math.isfinite(tail):
        raise TruncationError(f"circle cut at order {k_max}: its truncation "
                              f"tail has no finite bound", tail)
    delta = x - y
    near = abs(delta - L * round(delta / L))
    circle = _ring("g", L, delta, near + reach)
    kernel, rounding = circle.at(t, _spread_steps(abs(delta), circle.d) + 3.0)
    series = _compose_sum(*zip(state, _interface_series(
        [[same, cross], [cross, same]], close, k_max)))
    k = np.minimum(k_max, series.d / np.min(cross.d, initial=L))
    spread = max(abs(x - c) for c in cuts) + k * abs(cuts[0] - cuts[1]) \
        + max(abs(c - y) for c in cuts)
    term, term_rounding = series.at(
        t, _spread_steps(spread, series.d) + k + 4.0)
    value, widest = kernel - term, float(np.max(spread, initial=0.0))
    return value, tail + rounding + term_rounding + _U * abs(value) + 2.0 * (
        _U**2 / t * (delta**2 * kernel + widest**2 * abs(term))
        + _side_tail(near + reach, L, t) / math.sqrt(4.0 * math.pi * t))


# ---------------------------------------------------------------------------
# cylinder: tensor factorization and boundary spectrum
# ---------------------------------------------------------------------------


def _cylinder_joint(LI: float, LC: float,
                    points: Sequence[Sequence[float]], t: float) -> list[float]:
    """Joint eigenmode double sums at the points (X, Y, g1, g2) over the
    modes j >= 1, k >= 0 with lam_j + mu_k <= cap.  Each j keeps k = 0 ..
    K(j), K falling in j, so a point's sum is separable: one running sum P
    of c_k e^(-mu_k t) from k = 0 up, then the a_j e^(-lam_j t) P(K(j))
    added by math.fsum, O(J + K) work.  The modes and their decays are taken
    once, and each point's sum is the one it gives alone, bit for bit.
    TruncationError, before anything is summed, when the mode grid of all
    the points would hold more than _MAX_IMAGES terms."""
    lam_cap = (50.0 + abs(math.log(max(1e-6, LI * LC)))) / t
    jmax = max(1, int(math.ceil(LI * math.sqrt(lam_cap) / math.pi)))
    kmax = max(1, int(math.ceil(LC * math.sqrt(lam_cap) / (2.0 * math.pi))))
    _check_terms(jmax * (kmax + 1.0) * len(points), "cylinder joint mode sum")
    mu = [(4.0 * math.pi ** 2 / LC ** 2) * (k * k) for k in range(kmax + 1)]
    decay, modes, last = [math.exp(-m * t) for m in mu], [], kmax
    for j in range(1, jmax + 1):  # modes: (j, e^(-lam_j t), K(j) >= 0)
        lam = (math.pi ** 2 / LI ** 2) * (j * j)
        while last >= 0 and not lam + mu[last] <= lam_cap:
            last -= 1
        modes += [(j, math.exp(-lam * t), last)] if last >= 0 else []
    joints = []
    for X, Y, g1, g2 in points:
        P = list(accumulate(
            e * (2.0 / LC) * math.cos(2.0 * math.pi * k * (g1 - g2) / LC)
            if k else e / LC for k, e in enumerate(decay)))
        joints.append(math.fsum([(2.0 / LI) * math.sin(math.pi * j * X / LI)
                                 * math.sin(math.pi * j * Y / LI) * e * P[K]
                                 for j, e, K in modes]))
    return joints


def cylinder_factorization_check(L1: float, L2: float, circle_L: float,
                                 points: Sequence[Sequence[float]],
                                 t: float) -> float:
    """Largest residual of the product structure of the cylinder kernel.

    Each point is (x, y, g1, g2): x and y are interval coordinates
    measured from the junction into the second piece, g1 and g2 are
    positions on the circle slice.  Two comparisons per point: the joint
    eigenmode double sum against the product of the 1D kernels, and the
    glued-interval route times the slice kernel against the direct
    product.  The joint spectrum and route I's junction sum are built once
    for all points; route I at a point is one bilinear image sum
    (:func:`glue_intervals_I`).
    """
    L1, L2, circle_L, t = positive(L1=L1, L2=L2, circle_L=circle_L, t=t)
    S = L1 + L2
    glued = _route_I(L1, L2, t, [(xx, yy) for xx, yy, _, _ in points])
    joints = _cylinder_joint(S, circle_L, [(L1 + xx, L1 + yy, g1, g2)
                                           for xx, yy, g1, g2 in points], t)
    worst = 0.0
    for (xx, yy, g1, g2), joint, glue_val in zip(points, joints, glued):
        ki, _ = k_interval(S, L1 + xx, L1 + yy, t)
        kc, _ = k_circle(circle_L, g1, g2, t)
        worst = max(worst, abs(joint - ki * kc))
        part, _ = k_interval(L2, xx, yy, t)
        worst = max(worst, abs((glue_val + part) * kc - ki * kc))
    return worst


@dataclass(frozen=True)
class DnCylinderReport:
    """Boundary response spectrum of a finite cylinder.

    lambdas are the response eigenvalues mu_k coth(L mu_k) with
    mu_k = sqrt(m2 + omega_k); gaps are lambda_k - mu_k, the departures
    from the half-infinite reference; ratio is sup_k gap_k / m.
    """

    lambdas: tuple
    gaps: tuple
    ratio: float


def dn_cylinder(L: float, omegas: Sequence[float], m2: float) -> DnCylinderReport:
    """Exact boundary response eigenvalues of the cylinder of depth L.

    Uses coth(z) - 1 = 2 / (e^(2z) - 1) through expm1, so the
    exponentially small gaps survive in floating point.
    """
    L, m2 = positive(L=L, m2=m2)
    m = math.sqrt(m2)
    lambdas = []
    gaps = []
    for w in omegas:
        w = float(w)
        if w < 0.0:
            raise ValueError("slice eigenvalues must be nonnegative")
        mu = math.sqrt(m2 + w)
        gap = 2.0 * mu / math.expm1(2.0 * L * mu)
        lambdas.append(mu + gap)
        gaps.append(gap)
    ratio = max(gaps) / m if gaps else 0.0
    return DnCylinderReport(tuple(lambdas), tuple(gaps), ratio)

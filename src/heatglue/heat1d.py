"""One-dimensional heat kernels and the gluing and cutting checks built on them.

Closed forms on the line and the half line, image and eigenmode series on
the interval and the circle (each with an explicit truncation bound),
interface kernels for two intervals joined at a point, and the
reconstruction checks: a glued interval rebuilt from boundary-flux
convolutions, two rays glued into a line, an arc cut out of a circle, and
the cylinder factorization and spectrum checks.  Wherever a formula admits
two independent routes both are kept and compared, and every convolution
route reports a residual against the cheap direct kernel instead of being
trusted on its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EvalParams",
    "TruncationError",
    "k_line",
    "k_ray",
    "dk_ray",
    "k_interval",
    "dk_interval",
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

_ROOT_PI = math.sqrt(math.pi)


class TruncationError(RuntimeError):
    """A series hit its term cap before reaching the requested accuracy."""

    def __init__(self, message: str, achievable: float):
        super().__init__(message)
        self.achievable = achievable


@dataclass(frozen=True)
class EvalParams:
    """Series evaluation budget: absolute truncation target and term cap."""

    eps_abs: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_abs", float(self.eps_abs))
        object.__setattr__(self, "max_terms", int(self.max_terms))
        if not (self.eps_abs >= 1e-15):
            raise ValueError("eps_abs must be at least 1e-15")
        if not (1 <= self.max_terms <= 10**6):
            raise ValueError("max_terms must lie in [1, 1e6]")


_DEFAULT = EvalParams()
_TIGHT = EvalParams(eps_abs=1e-13, max_terms=10**6)


def _params(p: EvalParams | None) -> EvalParams:
    return _DEFAULT if p is None else p


def _check_time(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive and finite")
    return t


def _check_length(L: float, name: str = "L") -> float:
    L = float(L)
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return L


# ---------------------------------------------------------------------------
# closed forms: line and ray
# ---------------------------------------------------------------------------


def k_line(x: float, y: float, t: float) -> float:
    """Free kernel (4 pi t)^(-1/2) exp(-(x-y)^2/4t)."""
    t = _check_time(t)
    return math.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def k_ray(x: float, y: float, t: float) -> float:
    """Dirichlet kernel on the half line, by the image charge at -y."""
    t = _check_time(t)
    if x < 0.0 or y < 0.0:
        raise ValueError("ray coordinates must be nonnegative")
    return k_line(x, y, t) - k_line(x, -y, t)


def dk_ray(x: float, t: float) -> float:
    """Outward normal derivative of the ray kernel at the boundary end.

    This is -d/dy k_ray(x, y, t) at y = 0, which is nonpositive: the kernel
    is positive inside and vanishes at the wall, so it grows into the
    domain.  Its magnitude is the first-passage pulse at distance x.
    """
    t = _check_time(t)
    if x < 0.0:
        raise ValueError("ray coordinate must be nonnegative")
    return -x * math.exp(-x * x / (4.0 * t)) / (2.0 * _ROOT_PI * t**1.5)


# ---------------------------------------------------------------------------
# interval and circle series, both representations
# ---------------------------------------------------------------------------


def _converge(eval_at: Callable[[int], tuple[float, float]], K0: int,
              K_cap: int, p: EvalParams, label: str) -> tuple[float, float]:
    """Grow a geometric-tail series until its bound meets eps_abs/2.

    eval_at(K) returns (value, bound), with an infinite bound while the
    tail ratio is still too close to 1.  Raises TruncationError carrying
    the best achievable bound when the term cap binds first.
    """
    K_cap = max(1, K_cap)
    K = max(1, min(K0, K_cap))
    value, bound = math.nan, math.inf
    for _ in range(10):
        value, bound = eval_at(K)
        if bound <= 0.5 * p.eps_abs:
            return value, bound
        if K >= K_cap:
            raise TruncationError(
                f"{label}: cap of {p.max_terms} terms reached before "
                f"eps_abs={p.eps_abs:g}; achievable bound {bound:g}", bound)
        K = min(2 * K, K_cap)
    raise TruncationError(
        f"{label}: no convergence to eps_abs={p.eps_abs:g} after widening "
        f"to {K} terms; achievable bound {bound:g}", bound)


def _interval_images(L: float, x: float, y: float, t: float,
                     p: EvalParams) -> tuple[float, float]:
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(16.0 * pref / p.eps_abs)))

    def eval_at(K: int) -> tuple[float, float]:
        ks = np.arange(-K, K + 1)
        odd = np.exp(-np.square(x - y + 2.0 * ks * L) / (4.0 * t))
        evn = np.exp(-np.square(x + y + 2.0 * ks * L) / (4.0 * t))
        value = pref * float(odd.sum() - evn.sum())
        a1 = 2.0 * (K + 1) * L - abs(x - y)
        a2 = abs(2.0 * (K + 1) * L - abs(x + y))
        r = math.exp(-(min(a1, a2) * L + L * L) / t)
        if r >= 0.95:
            return value, math.inf
        return value, 2.0 * pref * (math.exp(-a1 * a1 / (4.0 * t)) +
                                    math.exp(-a2 * a2 / (4.0 * t))) / (1.0 - r)

    return _converge(eval_at, int((acut + 2.0 * L) / (2.0 * L)) + 2,
                     (p.max_terms - 1) // 2, p, "interval image sum")


def _interval_spectral(L: float, x: float, y: float, t: float,
                       p: EvalParams) -> tuple[float, float]:
    q = math.pi * math.pi * t / (L * L)

    def eval_at(K: int) -> tuple[float, float]:
        ks = np.arange(1, K + 1)
        value = (2.0 / L) * float(np.sum(
            np.exp(-q * ks * ks) * np.sin(math.pi * ks * x / L)
            * np.sin(math.pi * ks * y / L)))
        r = math.exp(-q * (2.0 * K + 3.0))
        if r >= 0.95:
            return value, math.inf
        return value, (2.0 / L) * math.exp(-q * (K + 1) ** 2) / (1.0 - r)

    K0 = int(math.sqrt(max(1.0, math.log(8.0 / (L * p.eps_abs))) / q)) + 2
    return _converge(eval_at, K0, p.max_terms, p, "interval mode sum")


def k_interval(L: float, x: float, y: float, t: float, rep: str = "auto",
               p: EvalParams | None = None) -> tuple[float, float]:
    """Dirichlet kernel on [0, L]: (value, truncation bound).

    rep is "images" (wrapped Gaussian differences), "spectral" (sine
    eigenmode sum), or "auto", which picks images for t < L^2/pi and the
    eigenmode sum beyond that, the crossover where both tails are about
    exp(-pi).
    """
    L = _check_length(L)
    t = _check_time(t)
    p = _params(p)
    if not (0.0 <= x <= L and 0.0 <= y <= L):
        raise ValueError("x and y must lie in [0, L]")
    if rep == "auto":
        rep = "images" if t < L * L / math.pi else "spectral"
    if rep == "images":
        return _interval_images(L, x, y, t, p)
    if rep == "spectral":
        return _interval_spectral(L, x, y, t, p)
    raise ValueError(f"unknown representation {rep!r}")


def _interval_images_dk(L: float, x: float, t: float,
                        p: EvalParams) -> tuple[float, float]:
    pref = 1.0 / (math.sqrt(4.0 * math.pi) * t**1.5)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(
        16.0 * pref * (1.0 + 4.0 * math.sqrt(t) + 4.0 * L) / p.eps_abs)))

    def eval_at(K: int) -> tuple[float, float]:
        ks = np.arange(-K, K + 1)
        a = x + 2.0 * ks * L
        value = -pref * float(np.sum(a * np.exp(-np.square(a) / (4.0 * t))))
        am = 2.0 * (K + 1) * L - x
        r = (1.0 + 2.0 * L / am) * math.exp(-(am * L + L * L) / t)
        if r >= 0.95:
            return value, math.inf
        first = (am + 2.0 * L) * math.exp(-am * am / (4.0 * t))
        return value, 4.0 * pref * first / (1.0 - r)

    return _converge(eval_at, int((acut + 2.0 * L) / (2.0 * L)) + 2,
                     (p.max_terms - 1) // 2, p, "boundary flux image sum")


def _interval_spectral_dk(L: float, x: float, t: float,
                          p: EvalParams) -> tuple[float, float]:
    q = math.pi * math.pi * t / (L * L)

    def eval_at(K: int) -> tuple[float, float]:
        ks = np.arange(1, K + 1)
        value = -(2.0 * math.pi / (L * L)) * float(np.sum(
            ks * np.exp(-q * ks * ks) * np.sin(math.pi * ks * x / L)))
        r = (1.0 + 1.0 / (K + 1.0)) * math.exp(-q * (2.0 * K + 3.0))
        if r >= 0.95:
            return value, math.inf
        return value, (2.0 * math.pi / (L * L)) * (K + 1) \
            * math.exp(-q * (K + 1) ** 2) / (1.0 - r)

    K0 = int(math.sqrt(
        max(1.0, math.log(16.0 * math.pi / (L * L * p.eps_abs))) / q)) + 2
    return _converge(eval_at, K0, p.max_terms, p, "boundary flux mode sum")


def dk_interval(L: float, x: float, t: float, rep: str = "auto",
                p: EvalParams | None = None) -> tuple[float, float]:
    """Outward normal derivative of the interval kernel at the 0 end.

    Returns (value, truncation bound).  The value is nonpositive, with
    leading behavior -x exp(-x^2/4t) / (2 sqrt(pi) t^(3/2)) for small x
    and t, matching dk_ray.
    """
    L = _check_length(L)
    t = _check_time(t)
    p = _params(p)
    if not (0.0 <= x <= L):
        raise ValueError("x must lie in [0, L]")
    if rep == "auto":
        rep = "images" if t < L * L / math.pi else "spectral"
    if rep == "images":
        return _interval_images_dk(L, x, t, p)
    if rep == "spectral":
        return _interval_spectral_dk(L, x, t, p)
    raise ValueError(f"unknown representation {rep!r}")


def _wrap_diff(d: float, L: float) -> float:
    return (d + 0.5 * L) % L - 0.5 * L


def _circle_images(L: float, d: float, t: float,
                   p: EvalParams) -> tuple[float, float]:
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(16.0 * pref / p.eps_abs)))

    def eval_at(N: int) -> tuple[float, float]:
        ns = np.arange(-N, N + 1)
        value = pref * float(np.sum(np.exp(-np.square(d + ns * L) / (4.0 * t))))
        a1 = (N + 1) * L - abs(d)
        r = math.exp(-(2.0 * a1 * L + L * L) / (4.0 * t))
        if r >= 0.95:
            return value, math.inf
        return value, 2.0 * pref * math.exp(-a1 * a1 / (4.0 * t)) / (1.0 - r)

    return _converge(eval_at, int((acut + L) / L) + 2,
                     (p.max_terms - 1) // 2, p, "circle image sum")


def _circle_spectral(L: float, d: float, t: float,
                     p: EvalParams) -> tuple[float, float]:
    q = 4.0 * math.pi * math.pi * t / (L * L)

    def eval_at(K: int) -> tuple[float, float]:
        ks = np.arange(1, K + 1)
        value = (1.0 + 2.0 * float(np.sum(
            np.exp(-q * ks * ks) * np.cos(2.0 * math.pi * ks * d / L)))) / L
        r = math.exp(-q * (2.0 * K + 3.0))
        if r >= 0.95:
            return value, math.inf
        return value, (2.0 / L) * math.exp(-q * (K + 1) ** 2) / (1.0 - r)

    K0 = int(math.sqrt(max(1.0, math.log(8.0 / (L * p.eps_abs))) / q)) + 2
    return _converge(eval_at, K0, p.max_terms, p, "circle mode sum")


def k_circle(L: float, x: float, y: float, t: float, rep: str = "auto",
             p: EvalParams | None = None) -> tuple[float, float]:
    """Periodic kernel on a circle of circumference L: (value, bound)."""
    L = _check_length(L)
    t = _check_time(t)
    p = _params(p)
    d = _wrap_diff(x - y, L)
    if rep == "auto":
        rep = "images" if t < L * L / (4.0 * math.pi) else "spectral"
    if rep == "images":
        return _circle_images(L, d, t, p)
    if rep == "spectral":
        return _circle_spectral(L, d, t, p)
    raise ValueError(f"unknown representation {rep!r}")


# ---------------------------------------------------------------------------
# interface kernel of two joined intervals
# ---------------------------------------------------------------------------


def interface_two_intervals(L1: float, L2: float, t: float,
                            form: str = "residues",
                            p: EvalParams | None = None) -> tuple[float, float]:
    """Kernel of the glued interval evaluated at the junction point.

    Two convergent forms of the same function: "residues" is the
    alternating eigenmode sum over the joint interval, "poisson" is its
    resummation into Gaussian differences, fast at small t.  Returns
    (value, truncation bound).
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    p = _params(p)
    S = L1 + L2
    if form == "residues":
        q = math.pi * math.pi * t / (S * S)

        def eval_at(K: int) -> tuple[float, float]:
            ks = np.arange(1, K + 1)
            value = (2.0 / S) * float(np.sum(
                (-1.0) ** (ks + 1) * np.exp(-q * ks * ks)
                * np.sin(math.pi * ks * L1 / S)
                * np.sin(math.pi * ks * L2 / S)))
            r = math.exp(-q * (2.0 * K + 3.0))
            if r >= 0.95:
                return value, math.inf
            return value, (2.0 / S) * math.exp(-q * (K + 1) ** 2) / (1.0 - r)

        K0 = int(math.sqrt(max(1.0, math.log(8.0 / (S * p.eps_abs))) / q)) + 2
        return _converge(eval_at, K0, p.max_terms, p, "interface mode sum")
    if form == "poisson":
        pref = 1.0 / math.sqrt(4.0 * math.pi * t)

        def eval_at(N: int) -> tuple[float, float]:
            ns = np.arange(-N, N + 1)
            plus = np.exp(-np.square(S * ns) / t)
            minus = np.exp(-np.square(L1 + ns * S) / t)
            value = pref * float(plus.sum() - minus.sum())
            a1 = (N + 1) * S
            a2 = (N + 1) * S - L1
            r = math.exp(-(2.0 * a2 * S + S * S) / t)
            if r >= 0.95:
                return value, math.inf
            return value, 2.0 * pref * (math.exp(-a1 * a1 / t) +
                                        math.exp(-a2 * a2 / t)) / (1.0 - r)

        acut = math.sqrt(t * max(1.0, math.log(16.0 * pref / p.eps_abs)))
        return _converge(eval_at, int((acut + S + L1) / S) + 2,
                         (p.max_terms - 2) // 4, p, "interface image sum")
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# gluing two intervals, route I: exact image resummation
# ---------------------------------------------------------------------------


def glue_direct(L1: float, L2: float, x: float, y: float, t: float) -> float:
    """K_S(L1 + x, L1 + y) - K_L2(x, y), S = L1 + L2, over the images of
    both kernels: the check on both gluing routes.

    With a = x - y and b = x + y - 2 L2, the joint kernel's images lie at
    a + 2kS (+) and b + 2kS (-), those of the second piece at a + 2kL2 (-)
    and b + 2kL2 (+).  The k = 0 images of the two kernels are the same and
    cancel exactly, so they are left out, and the difference is never
    taken between two kernel values that agree to many digits.  The images
    past _reach(t), each below e^-50 (4 pi t)^(-1/2), are left out too.
    Each b-image is formed from x + y and one shift, x + y + 2(k - 1) L2
    and (x + y) + (2kS - 2 L2), so the nearest one, x + y at k = 1, is
    exact and none loses x + y to rounding at the scale of 2 L2.  The
    reference of both routes in ``heatglue interval glue``.
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    if not (0.0 <= x <= L2 and 0.0 <= y <= L2):
        raise ValueError("x and y must lie in [0, L2]")
    n = int(math.ceil(_reach(t) / (2.0 * L2))) + 2
    k = np.concatenate([np.arange(-n, 0.0), np.arange(1.0, n + 1.0)])
    shift = np.concatenate([2.0 * (L1 + L2) * k, 2.0 * L2 * k])
    mirror = np.concatenate([2.0 * (L1 + L2) * k - 2.0 * L2,
                             2.0 * L2 * (k - 1.0)])
    pulses = (np.exp(-np.square(x - y + shift) / (4.0 * t))
              - np.exp(-np.square(x + y + mirror) / (4.0 * t)))
    return float(np.repeat([1.0, -1.0], k.size) @ pulses) \
        / math.sqrt(4.0 * math.pi * t)


def _flux_pair(L: float, x: float, y: float, K: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """The flux pulse out of depth x composed with the one into depth y,
    0 <= x, y <= L, in closed form: (distances, integer weights).

    The pulse at a depth 0 < z <= L has the legs z + 2kL (+) and 2kL - z
    (-), k = 0 .. K and 1 .. K; at z = 0 it is the delta at the junction,
    one leg at 0.  Distances add under composition, so the pair is the
    four families +-x +- y + 2mL, and the weight at m counts the (k1, k2)
    of its family with k1 + k2 = m, m + 1, m, m and m - 1 below the cut:
    no outer product of the legs is formed and nothing is sorted.  Equal
    distances of different families are not merged.
    """
    def legs(z: float) -> tuple:
        # each family of legs: offset, sign, first k, last k
        return ((0.0, 1.0, 0, 0),) if z == 0.0 else \
            ((z, 1.0, 0, K), (-z, -1.0, 1, K))

    fam = np.array([(ox + oy, sx * sy, lx, hx, ly, hy)
                    for ox, sx, lx, hx in legs(x)
                    for oy, sy, ly, hy in legs(y)]).T[:, :, None]
    off, sign, lx, hx, ly, hy = fam
    m = np.arange(hx.max() + hy.max() + 1.0)
    count = np.minimum(hx, m - ly) - np.maximum(lx, m - hy) + 1.0
    keep = count > 0.0
    return (off + 2.0 * m * L)[keep], (sign * count)[keep]


def _route_I(L1: float, L2: float, t: float,
             p: EvalParams) -> Callable[[float, float], float]:
    """Route I at checked lengths and time, as a function of the depths.

    The junction sum, distance 0 (+1), 2nS (+2), 2(L1 + nS) (-1) and
    2(nS - L1) (-1), and the cut K of the legs are built once; each depth
    pair then composes its flux pair (:func:`_flux_pair`) with the junction
    sum as one bilinear form w_pair . exp(-(d_i + m_j)^2/4t) . w_mid.
    """
    S = L1 + L2
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(256.0 * pref / p.eps_abs))) + 2.0 * S
    K = int(acut / (2.0 * L2)) + 2
    n = np.arange(int(acut / (2.0 * S)) + 3.0)
    mid_d = np.concatenate([2.0 * S * n, 2.0 * (L1 + n * S),
                            2.0 * (n[1:] * S - L1)])
    mid_w = np.repeat([1.0, 2.0, -1.0], [1, n.size - 1, 2 * n.size - 1])

    def value(x: float, y: float) -> float:
        if not (0.0 <= x <= L2 and 0.0 <= y <= L2):
            raise ValueError("x and y must lie in [0, L2]")
        d, w = _flux_pair(L2, x, y, K)
        gauss = np.exp(np.square(np.add.outer(d, mid_d)) / (-4.0 * t))
        return pref * float(w @ gauss @ mid_w)

    return value


def glue_intervals_I(L1: float, L2: float, x: float, y: float, t: float,
                     p: EvalParams | None = None,
                     reference: float | None = None) -> tuple[float, float]:
    """Glued-interval correction rebuilt from its convolution factors.

    The correction K_joint(L1+x, L1+y) - K_side2(x, y) for x, y in the
    second piece is a triple convolution: flux pulses out of x, transport
    through the junction, flux pulses into y.  All three factors are pulse
    trains whose distances add under convolution, so the triple integral
    collapses to one bilinear image sum: the flux pair in closed form
    (:func:`_flux_pair`) against the junction sum, converging like
    exp(-distance^2/4t).  Returns (value, residual against reference, by
    default the direct two-kernel difference :func:`glue_direct`).
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    value = _route_I(L1, L2, t, _params(p))(x, y)
    if reference is None:
        reference = glue_direct(L1, L2, x, y, t)
    return value, abs(value - reference)


# ---------------------------------------------------------------------------
# gluing two intervals, route II: alternating flux series of image sums
# ---------------------------------------------------------------------------


_ROOT_4PI = math.sqrt(4.0 * math.pi)
_U = 2.0**-53  # unit roundoff
# the most images one composition may form before merging: far above what
# the gated and benchmarked cases form (under a thousand), and small enough
# that the arrays of one composition stay within a few hundred MB
_MAX_IMAGES = 1 << 22


def _reach(t_max: float) -> float:
    """Distance past which exp(-d^2/4tau) is below e^-50 for every
    tau <= t_max."""
    return math.sqrt(200.0 * t_max)


def _check_images(m: int, n: int) -> None:
    """TruncationError when composing m by n images would form more than
    _MAX_IMAGES before merging."""
    if m * n > _MAX_IMAGES:
        raise TruncationError(
            f"composing {m} by {n} images would form {m * n}, past the "
            f"budget of {_MAX_IMAGES}", math.inf)


@dataclass(frozen=True, eq=False)
class _ImageSum:
    """The sum sum_i w_i k_(d_i)(tau) of one kernel at merged distances.

    kind "g" sums Gaussians g_d(tau) = (4 pi tau)^(-1/2) exp(-d^2/4tau),
    kind "h" first-passage densities h_d(tau) = d (4 pi)^(-1/2)
    tau^(-3/2) exp(-d^2/4tau), h_0 being the delta at 0.  Distances add
    under convolution, h_a * h_b = h_(a+b) and h_a * g_b = g_(a+b) (the
    stable-1/2 semigroup, Feller vol. II): :meth:`compose`, and sums of
    such compositions are formed raw and merged once
    (:func:`_compose_sum`), so every 1d gluing integral here is one such
    sum, exact up to rounding.  Distances past reach are dropped first (a
    NaN distance at any reach), then exactly equal distances are merged,
    their weights added in the order given, and zero weights dropped; a
    step that keeps every image copies nothing.  A finite reach stands
    for the images negligible up to its time (:func:`_reach`).
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

    def compose(self, other: _ImageSum) -> _ImageSum:
        """The convolution of two sums, one of them of kind h at least:
        :func:`_compose_sum` of the one pair."""
        return _compose_sum((self, other))

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        """The sum at an array of times, zero at times <= 0."""
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape)
        pos = tau > 0.0
        if pos.any():
            tp = tau[pos]
            pulses = np.exp(np.divide.outer(-0.25 * np.square(self.d), tp))
            if self.kind == "g":
                out[pos] = self.w @ pulses / np.sqrt(4.0 * math.pi * tp)
            else:
                out[pos] = (self.w * self.d) @ pulses \
                    / (_ROOT_4PI * tp * np.sqrt(tp))
        return out

    def at(self, t: float, steps: np.ndarray | float) -> tuple[float, float]:
        """A sum of Gaussians at one time t, added by math.fsum, and a
        bound on its rounding error.

        The weights must be integers below 2^53, so that merging added
        them exactly, the paths merged into one image must share its true
        distance, and steps bounds the relative error of each distance in
        units of U.  A Gaussian's exponent E = d^2/4t is then off by at
        most 2 (steps + 1) U E; exp, the prefactor and the weight add at
        most 8 U, and fsum rounds the total once.  So the error is at most
        U (sum_i (2 (steps_i + 1) E_i + 8) |w_i g_i| + |value|), which
        weights every kept image by its own term.
        """
        if self.kind != "g":
            raise ValueError("only a sum of Gaussians is evaluated at one time")
        e = np.square(self.d) / (4.0 * t)
        terms = self.w * np.exp(-e) / math.sqrt(4.0 * math.pi * t)
        value = math.fsum(terms.tolist())
        kappa = 2.0 * (steps + 1.0) * e + 8.0
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
        _check_images(a.d.size, b.d.size)
    if len(kinds) != 1:
        raise ValueError("only sums of one kind add")
    return _ImageSum(kinds.pop(),
                     np.concatenate([np.add.outer(a.d, b.d).ravel()
                                     for a, b in pairs]),
                     np.concatenate([np.multiply.outer(a.w, b.w).ravel()
                                     for a, b in pairs]),
                     min(min(a.reach, b.reach) for a, b in pairs))


_G0 = _ImageSum("g", [0.0], [1.0])  # the flat junction pulse


def _echo_pulse(t_max: float, *lengths: float) -> _ImageSum:
    """Round trips across intervals of the given lengths: the pulses
    h_2kL, k >= 1, of each length."""
    reach = _reach(t_max)
    d = np.concatenate([2.0 * L * np.arange(1.0, reach / (2.0 * L) + 1.0)
                        for L in lengths])
    return _ImageSum("h", d, np.ones(d.size), reach)


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
    log_kept = np.logaddexp.reduce(
        np.multiply.outer(np.arange(orders + 1.0), log_lam[near]), axis=0)
    log_drop = r[near] * reach - reach**2 / (4.0 * t)
    for log_factor in log_factors:
        log_drop = log_drop + log_factor[near]
    log_drop = log_drop + log_kept
    return math.exp(float(log_drop.min())) / math.sqrt(4.0 * math.pi * t)


def _log_gap(L: float, r: np.ndarray) -> np.ndarray:
    """log(1 - e^(-rL)): pulses spaced L apart transform at s = r^2 to a
    geometric series of ratio e^(-rL), and this is the log of one minus
    it.  Each length's is taken once per grid of r and shared."""
    return np.log(-np.expm1(-r * L))


def _log_round_trips(L1: float, L2: float, r: np.ndarray,
                     log_gaps: Sequence[np.ndarray]) -> np.ndarray:
    """log lam, lam = sum_L e^(-2Lr) / (1 - e^(-2Lr)): the round trips
    phi = sum_k h_2kL1 + h_2kL2 transformed at s = r^2, from the
    :func:`_log_gap` of 2 L1 and 2 L2."""
    return np.logaddexp(*(-2.0 * L * r - log_gap
                          for L, log_gap in zip((L1, L2), log_gaps)))


def _flux_pair_eval(L: float, x: float, y: float, t_max: float) -> _ImageSum:
    """The flux pulse out of depth x convolved with the one into depth y,
    out to _reach(t_max): :func:`_flux_pair`, its legs cut past the reach.
    A depth of 0 is the delta at the junction, which leaves the other
    pulse.
    """
    reach = _reach(t_max)
    K = int(math.ceil((reach + L) / (2.0 * L))) + 2
    return _ImageSum("h", *_flux_pair(L, x, y, K), reach)


def _echo_tail(pair: _ImageSum | None, phi: _ImageSum, t: float,
               r: np.ndarray, log_lam: np.ndarray, n_max: int) -> float:
    """Bound on what the echo series at order n_max leaves out at t; pair
    None stands for the delta at the junction.

    At s = r^2 the round trips phi = sum_k h_2kL1 + h_2kL2 transform to
    lam = sum_L e^(-2Lr) / (1 - e^(-2Lr)), log_lam on the grid r
    (:func:`_log_round_trips`, taken once by the caller).  So order n is
    at most sup_(0,t)(|pair| * g_0) int_0^t phi^(*n) <= S e^(st) lam^n,
    and the orders past n_max sum to at most
    S e^(st) lam^(n_max+1) / (1 - lam).  With pair the delta, the bounded
    factor is phi * g_0 instead: S is its supremum and the power of lam
    one less.  S comes from the merged pulses themselves
    (:meth:`_ImageSum.sup`), and the tail takes its least value over the
    grid of r.
    """
    pulses = phi if pair is None else pair
    return _geometric_tail(pulses.sup(t), t, r, log_lam,
                           n_max + (pair is not None))


def _below_prior(bound: float, prior: float, label: str) -> float:
    """bound, unless it is positive and not below the a-priori bound prior
    of the quantity: a certificate that allows every possible value
    raises TruncationError instead."""
    if not (bound < prior or bound == 0.0):
        raise TruncationError(f"{label}: bound {bound:g} is not below the "
                              f"a-priori bound {prior:g}", bound)
    return bound


def glue_intervals_II(L1: float, L2: float, x: float, y: float, t: float,
                      n_max: int, reference: float | None = None
                      ) -> tuple[float, float, float]:
    """Glued-interval correction as an alternating series of echo orders.

    Term n convolves the flux pulse out of x, the echo chain E_n and the
    flux pulse into y; the sign alternates with n.  E_n composes n round
    trips phi = sum_k h_2kL1 + h_2kL2 (:func:`_echo_pulse`) with the flat
    junction pulse g_0 into one exact Gaussian sum, and the kept orders
    add, signed, into one Gaussian sum sum_n (-1)^n E_n.  The two flux
    pulses compose into one signed sum (:func:`_flux_pair_eval`), and that
    composed with the echo sum is the series at t, one Gaussian sum with
    no quadrature; at x = y = 0 the pair is the delta at the junction and
    the series is the echo sum itself.  Images past _reach(t) are dropped,
    and with them every order whose images all lie past it.

    Returns (value, bound, residual against reference, by default the
    direct two-kernel difference :func:`glue_direct`).  The bound adds the
    orders past n_max (:func:`_echo_tail`), the images past the reach that
    the kept orders drop (:func:`_dropped_images`) and the rounding part
    of :meth:`_ImageSum.at`.  Domain monotonicity gives
    0 <= K_S - K_L2 <= g_|x-y|(t), so a bound at or above that proves
    nothing: TruncationError, checked on the two truncation parts before
    the echo chains are built and again on the whole bound.  The image
    budget is checked before those parts: composed with the order 0 of the
    echo sum and, when n_max > 0, its order 1, the pair alone forms
    pair.d.size (1 + phi.d.size) images.
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    if not (0.0 <= x <= L2 and 0.0 <= y <= L2):
        raise ValueError("x and y must lie in [0, L2]")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    label = f"echo series at order {n_max}"
    prior = k_line(x, y, t)
    # at x = y = 0 both pulses are the delta at the junction
    pair = None if x == y == 0.0 else _flux_pair_eval(L2, x, y, t)
    phi = _echo_pulse(t, L1, L2)
    if pair is not None:
        _check_images(pair.d.size, 1 + phi.d.size * (n_max > 0))
    # a path past the reach crosses one flux image on each side, each side
    # transforming to sum_k e^(-r |z + 2kL2|), and n round trips
    r = _R_SQRT_T / math.sqrt(t)
    log_gaps = [_log_gap(2.0 * L, r) for L in (L1, L2)]
    log_lam = _log_round_trips(L1, L2, r, log_gaps)
    legs = () if pair is None else tuple(
        _log_ring_transform(2.0 * L2, z, r, log_gaps[1]) for z in (x, y))
    tail = _below_prior(
        _echo_tail(pair, phi, t, r, log_lam, n_max)
        + _dropped_images(t, r, log_lam, n_max, *legs), prior, label)
    chains = [_G0]
    for _ in range(n_max):
        chain = phi.compose(chains[-1])
        if not chain.d.size:  # every later order lies past the reach too
            break
        chains.append(chain)
    total = _ImageSum("g", np.concatenate([c.d for c in chains]),
                      np.concatenate([(-1.0) ** n * c.w
                                      for n, c in enumerate(chains)]),
                      phi.reach)
    series = total if pair is None else pair.compose(total)
    # a distance adds two flux legs, each off by at most 3 U, and at most
    # d / 2 min(L1, L2) round trips, each off by U, in as many roundings
    value, rounding = series.at(t, series.d / (2.0 * min(L1, L2)) + 4.0)
    bound = _below_prior(tail + rounding, prior, label)
    if reference is None:
        reference = glue_direct(L1, L2, x, y, t)
    return value, bound, abs(value - reference)


# ---------------------------------------------------------------------------
# gluing two rays into a line
# ---------------------------------------------------------------------------


def glue_rays(x: float, y: float, t: float) -> tuple[float, float, float]:
    """Two half lines joined at the origin, rebuilt by composition.

    The flux pulses at distances x and y and the flat junction pulse
    compose exactly, h_x * h_y * g_0 = g_(x+y) (:meth:`_ImageSum.compose`),
    and the result is compared with the closed form
    (4 pi t)^(-1/2) exp(-(x+y)^2/4t).  Returns (value, bound, residual);
    the bound is the rounding part of :meth:`_ImageSum.at`, the one
    distance x + y being off by at most U.
    """
    t = _check_time(t)
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    line = _ImageSum("h", [x], [1.0]).compose(
        _ImageSum("h", [y], [1.0])).compose(_G0)
    value, bound = line.at(t, 1.0)
    closed = math.exp(-((x + y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return value, bound, abs(value - closed)


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def _ring(kind: str, L: float, delta: float, reach: float,
          skip_zero: bool = False) -> _ImageSum:
    """sum_n k_|delta + nL| over the images within reach: the circle kernel
    (kind g) or the first-passage pulses around the circle (kind h) at
    offset delta.  skip_zero leaves out n = 0."""
    n = int(math.ceil((reach + abs(delta)) / L)) + 1
    ns = np.arange(-n, n + 1)
    if skip_zero:
        ns = ns[ns != 0]
    return _ImageSum(kind, np.abs(delta + ns * L), np.ones(ns.size), reach)


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
    :func:`_log_gap` of L.
    """
    r = _R_SQRT_T / math.sqrt(t)
    log_gap = _log_gap(L, r)
    log_a = np.logaddexp(*(_log_ring_transform(L, x - c, r, log_gap)
                           for c in cuts))
    log_b = np.maximum(*(_log_ring_transform(L, c - y, r, log_gap)
                         for c in cuts))
    log_self = math.log(2.0) - r * L - log_gap
    log_lam = np.logaddexp(
        log_self, _log_ring_transform(L, cuts[0] - cuts[1], r, log_gap))
    # the supremum of each close over (0, t); the images past the reach
    # add at most their values at t
    reach = _reach(t)
    sup = max(c.sup(t) for c in close)
    sup += 2.0 * math.exp(-reach**2 / (4.0 * t)) \
        / (-math.expm1(-reach * L / (2.0 * t)) * math.sqrt(4.0 * math.pi * t))
    past = _geometric_tail(sup, t, r, log_lam, k_max + 1, log_a)
    return past + _dropped_images(t, r, log_lam, k_max, log_a, log_b)


def arc_coordinates(L_total: float, cuts: Sequence[float], x: float,
                    y: float) -> tuple[float, float, float]:
    """(length, x, y) on the arc that holds x and y of a circle cut at two
    distinct points; ValueError unless both lie strictly inside one arc."""
    L = _check_length(L_total, "L_total")
    if len(cuts) != 2:
        raise ValueError("exactly two cut points are required; one point "
                         "does not separate the circle")
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
    """The Dirichlet kernel of the arc that holds x and y, to 1e-13: the
    check on :func:`cut_circle_to_arc`."""
    ell, xl, yl = arc_coordinates(L_total, cuts, x, y)
    return k_interval(ell, xl, yl, t, "auto", _TIGHT)[0]


def cut_circle_to_arc(L_total: float, cuts: Sequence[float], x: float,
                      y: float, t: float, k_max: int,
                      reference: float | None = None
                      ) -> tuple[float, float, float]:
    """Arc kernel rebuilt by cutting the circle at two points.

    Subtracts from the circle kernel the alternating interface series.
    Term k composes the flux state sum_n h_|x - c_u + nL| at the cut points
    c_u, k hops sum_n h_|c_u - c_v + nL| (n != 0 when u = v) and the close
    sum_n g_|c_u - y + nL| into one exact Gaussian sum at t, images out to
    _reach(t); each new state and each close adds two compositions,
    formed and merged once (:func:`_compose_sum`).  Returns (value, bound,
    residual against reference, by default the Dirichlet kernel of the
    arc, :func:`arc_direct`); the bound adds :func:`_cut_tail`, the circle
    kernel's bound and a rounding part 3 gamma max(1, scale).  The tail is taken before anything is
    composed, once the first compositions are known to fit the image
    budget, and a tail that is not finite raises TruncationError.
    """
    arc_coordinates(L_total, cuts, x, y)  # both points inside one arc
    L = float(L_total)
    t = _check_time(t)
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    reach = _reach(t)
    state = [_ring("h", L, x - c, reach) for c in cuts]
    same = _ring("h", L, 0.0, reach, skip_zero=True)
    cross = _ring("h", L, cuts[0] - cuts[1], reach)
    close = [_ring("g", L, c - y, reach) for c in cuts]
    for s, c in zip(state, close):
        _check_images(s.d.size, c.d.size)
    tail = _cut_tail(L, cuts, x, y, close, t, k_max)
    if not math.isfinite(tail):
        raise TruncationError(f"circle cut at order {k_max}: its truncation "
                              f"tail has no finite bound", tail)
    at_t = np.array([t])
    terms = []
    images = 0
    for k in range(k_max + 1):
        if k:
            state = [_compose_sum((state[0], same), (state[1], cross)),
                     _compose_sum((state[0], cross), (state[1], same))]
        closed = _compose_sum((state[0], close[0]), (state[1], close[1]))
        images = max(images, closed.d.size)
        terms.append(float(closed(at_t)[0]))
    correction = sum((-1.0) ** k * term for k, term in enumerate(terms))
    circle_val, circle_bound = k_circle(L, x, y, t, "auto", _TIGHT)
    value = circle_val - correction
    # a distance sums k_max + 2 images of two roundings each and its
    # exponent stays below 50, so a Gaussian is off by 100 (k_max + 5) + 4
    # roundings; a term adds one per image, the alternating sum k_max + 2
    gamma = _U * (101.0 * (k_max + 6) + images)
    bound = tail + circle_bound + 3.0 * gamma * max(1.0, circle_val + sum(terms))
    if reference is None:
        reference = arc_direct(L, cuts, x, y, t)
    return value, bound, abs(value - reference)


# ---------------------------------------------------------------------------
# cylinder: tensor factorization and boundary spectrum
# ---------------------------------------------------------------------------


def _cylinder_joint(LI: float, LC: float,
                    points: Sequence[Sequence[float]], t: float) -> list[float]:
    """Joint eigenmode double sums at the points (X, Y, g1, g2), small terms
    first, one truncation ball.  The kept eigenvalues, their order and
    their decays depend only on (LI, LC, t) and are taken once; only the
    amplitudes are taken per point, and each point's sum is the one a
    single point would give, bit for bit."""
    lam_cap = (50.0 + abs(math.log(max(1e-6, LI * LC)))) / t
    jmax = max(1, int(math.ceil(LI * math.sqrt(lam_cap) / math.pi)))
    kmax = max(1, int(math.ceil(LC * math.sqrt(lam_cap) / (2.0 * math.pi))))
    js = np.arange(1, jmax + 1)
    ks = np.arange(0, kmax + 1)
    lam = (math.pi ** 2 / LI ** 2) * np.square(js)[:, None] \
        + (4.0 * math.pi ** 2 / LC ** 2) * np.square(ks)[None, :]
    keep = lam <= lam_cap
    lam_f = lam[keep]
    order = np.argsort(lam_f)[::-1]
    decay = np.exp(-lam_f[order] * t)
    X, Y, g1, g2 = (np.array(c, dtype=float)[:, None] for c in zip(*points))
    amp_i = (2.0 / LI) * np.sin(math.pi * js * X / LI) \
        * np.sin(math.pi * js * Y / LI)
    amp_c = np.where(ks == 0, 1.0 / LC,
                     (2.0 / LC) * np.cos(2.0 * math.pi * ks * (g1 - g2) / LC))
    amp = amp_i[:, :, None] * amp_c[:, None, :]
    return [float(np.sum(a[keep][order] * decay)) for a in amp]


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
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    circle_L = _check_length(circle_L, "circle_L")
    t = _check_time(t)
    S = L1 + L2
    route = _route_I(L1, L2, t, _DEFAULT)
    joints = _cylinder_joint(S, circle_L, [(L1 + xx, L1 + yy, g1, g2)
                                           for xx, yy, g1, g2 in points], t)
    worst = 0.0
    for (xx, yy, g1, g2), joint in zip(points, joints):
        ki, _ = k_interval(S, L1 + xx, L1 + yy, t, "auto", _TIGHT)
        kc, _ = k_circle(circle_L, g1, g2, t, "auto", _TIGHT)
        worst = max(worst, abs(joint - ki * kc))
        glue_val = route(xx, yy)
        part, _ = k_interval(L2, xx, yy, t, "auto", _TIGHT)
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
    L = _check_length(L)
    m2 = float(m2)
    if not (m2 > 0.0):
        raise ValueError("m2 must be positive")
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

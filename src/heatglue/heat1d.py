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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from heatglue.path_sum import exp_tail
from heatglue.quadsim import (
    MAX_PANELS,
    TimeFactor,
    adaptive,
    conv_n,
    half_integral,
    inverse_pow_gaussian,
)

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
    "glue_intervals_I",
    "glue_intervals_II",
    "glue_rays",
    "cut_circle_to_arc",
    "cylinder_factorization_check",
    "dn_cylinder",
    "DnCylinderReport",
    "echo_density",
    "echo_sup",
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


def _circle_dist(a: float, b: float, L: float) -> float:
    d = abs(a - b) % L
    return min(d, L - d)


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


def _reflection_legs(z: float, L: float, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed reflection distances of the boundary-flux pulse train.

    At z = 0 the pulse train degenerates to a single unit pulse at
    distance zero (the factor becomes the identity of the convolution).
    """
    if z == 0.0:
        return np.array([0.0]), np.array([1.0])
    ks = np.arange(-K, K + 1)
    vals = z + 2.0 * ks * L
    return np.abs(vals), np.sign(vals)


def _glue_direct(L1: float, L2: float, x: float, y: float, t: float) -> float:
    S = L1 + L2
    whole, _ = k_interval(S, L1 + x, L1 + y, t, "auto", _TIGHT)
    part, _ = k_interval(L2, x, y, t, "auto", _TIGHT)
    return whole - part


def glue_intervals_I(L1: float, L2: float, x: float, y: float, t: float,
                     p: EvalParams | None = None) -> tuple[float, float]:
    """Glued-interval correction rebuilt from its convolution factors.

    The correction K_joint(L1+x, L1+y) - K_side2(x, y) for x, y in the
    second piece is a triple convolution: flux pulses out of x, transport
    through the junction, flux pulses into y.  All three factors are pulse
    trains whose distances add under convolution, so the triple integral
    collapses to a signed Gaussian triple sum which converges like
    exp(-distance^2/4t).  Returns (value, residual against the direct
    two-kernel difference).
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    p = _params(p)
    if not (0.0 <= x <= L2 and 0.0 <= y <= L2):
        raise ValueError("x and y must lie in [0, L2]")
    S = L1 + L2
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(256.0 * pref / p.eps_abs))) + 2.0 * S
    a0, s0 = _reflection_legs(x, L2, int(acut / (2.0 * L2)) + 2)
    a2, s2 = _reflection_legs(y, L2, int(acut / (2.0 * L2)) + 2)
    ns = np.arange(-(int(acut / (2.0 * S)) + 2), int(acut / (2.0 * S)) + 3)
    dmid = np.concatenate([2.0 * S * np.abs(ns), 2.0 * np.abs(L1 + ns * S)])
    smid = np.concatenate([np.ones(ns.size), -np.ones(ns.size)])
    total = a0[:, None, None] + dmid[None, :, None] + a2[None, None, :]
    gauss = np.exp(-np.square(total) / (4.0 * t))
    value = pref * float(np.einsum("i,j,k,ijk->", s0, smid, s2, gauss))
    return value, abs(value - _glue_direct(L1, L2, x, y, t))


# ---------------------------------------------------------------------------
# gluing two intervals, route II: alternating flux series through quadrature
# ---------------------------------------------------------------------------


def _vec(ev: Callable[[np.ndarray], np.ndarray]) -> Callable:
    def wrapped(tau):
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        out = ev(arr)
        return out if np.ndim(tau) else float(out[0])
    return wrapped


def _flat_eval(tau: np.ndarray) -> np.ndarray:
    out = np.zeros_like(tau)
    pos = tau > 0.0
    out[pos] = 1.0 / np.sqrt(4.0 * math.pi * tau[pos])
    return out


_FLAT = inverse_pow_gaussian(_vec(_flat_eval), c=0.0, alpha=0.5)


def echo_density(L: float, t):
    """Pulse train of round trips across an interval of length L.

    The k-th pulse sits at distance 2kL: (2kL/sqrt(4 pi)) t^(-3/2)
    exp(-k^2 L^2 / t).  Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if pos.any():
        tp = arr[pos]
        kcap = int(math.ceil(math.sqrt(60.0 * float(tp.max())) / L)) + 2
        kl = np.arange(1.0, kcap + 1.0) * L
        pulses = np.exp(np.multiply.outer(-np.square(kl), 1.0 / tp))
        out[pos] = ((2.0 / math.sqrt(4.0 * math.pi)) * kl) @ pulses \
            / (tp * np.sqrt(tp))
    return out if np.ndim(t) else float(out[0])


@lru_cache(maxsize=32)
def echo_sup(L1: float, L2: float) -> float:
    """Supremum over t of echo_density(L1, t) + echo_density(L2, t)."""
    lo = 1e-3 * min(L1, L2) ** 2
    hi = 50.0 * max(L1, L2) ** 2
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 4001))
    vals = echo_density(L1, grid) + echo_density(L2, grid)
    i = int(np.argmax(vals))
    a, b = grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(80):
        m1 = b - phi * (b - a)
        m2 = a + phi * (b - a)
        f1 = echo_density(L1, m1) + echo_density(L2, m1)
        f2 = echo_density(L1, m2) + echo_density(L2, m2)
        if f1 < f2:
            a = m1
        else:
            b = m2
    tm = 0.5 * (a + b)
    return (echo_density(L1, tm) + echo_density(L2, tm)) * (1.0 + 1e-9)


class _DecayInterp:
    """Chebyshev interpolant in u = 1/tau for exponentially dying profiles.

    The declared envelope exp(-c/tau) is peeled off before fitting so the
    interpolated part stays tame; below the point where the envelope is
    negligible (u > uhi) the profile is treated as zero, and past t_max
    (u < ulo) it keeps its value at t_max.  Works for signed values.  fn is
    called once, on the array of all node times, and returns the profile
    there.

    Evaluation is the second barycentric formula (Berrut and Trefethen,
    SIAM Review 46, 2004) with the table [w*h, w] stored once: a block of
    points takes the reciprocals of u - u_j in place and one matmul
    against the table gives numerator and denominator together.  A point
    within rounding of a node takes that node's value; the sorted interior
    nodes bracket each point, so no pass over the table finds it.  Blocks
    hold _BLOCK points so that the (points x nodes) temporary stays small.
    """

    _BLOCK = 256

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], t_max: float,
                 c: float, n_nodes: int = 65):
        if not (c > 0.0):
            raise ValueError("envelope constant must be positive")
        self.c = c
        self.ulo = 1.0 / t_max
        self.uhi = self.ulo + 46.0 / c
        j = np.arange(n_nodes)
        self.u = self.ulo + (self.uhi - self.ulo) * 0.5 \
            * (1.0 - np.cos(math.pi * j / (n_nodes - 1)))
        vals = np.asarray(fn(1.0 / self.u), dtype=float)
        self.h = vals * np.exp(c * (self.u - self.ulo))
        w = np.where(j % 2 == 0, 1.0, -1.0)
        w[0] *= 0.5
        w[-1] *= 0.5
        self._table = np.column_stack([w * self.h, w])
        self._shift = np.vstack([np.ones(n_nodes), -self.u])
        self._interior = self.u[1:-1]
        self._hit_tol = 1e-14 * (self.uhi - self.ulo)

    def _inside(self, uu: np.ndarray, out: np.ndarray) -> None:
        """Interpolant at the points uu of [ulo, uhi], written to out."""
        u = self.u
        # u[k] <= uu <= u[k + 1] for every point, ends included
        k = np.searchsorted(self._interior, uu)
        lo = np.flatnonzero(uu - u[k] < self._hit_tol)
        hi = np.flatnonzero(u[k + 1] - uu < self._hit_tol)
        # uu - u_j as the product [uu, 1] @ [1; -u]: both products are by
        # 1.0, so every entry is uu - u_j rounded once, as a subtraction
        # gives, and BLAS forms it faster than a broadcast subtraction
        pts = np.ones((uu.size, 2))
        pts[:, 0] = uu
        r = pts @ self._shift
        r[lo, k[lo]] = 1.0
        r[hi, k[hi] + 1] = 1.0
        np.reciprocal(r, out=r)
        nd = r @ self._table
        np.divide(nd[:, 0], nd[:, 1], out=out)
        out[lo] = self.h[k[lo]]
        out[hi] = self.h[k[hi] + 1]
        out *= np.exp(self.c * (self.ulo - uu))

    def __call__(self, tau):
        arr = np.asarray(tau, dtype=float)
        out = np.zeros(arr.shape)
        flat = out.reshape(-1)
        t = arr.reshape(-1)
        idx = np.flatnonzero(t > 0.0)
        uu = 1.0 / t[idx]
        keep = uu <= self.uhi
        idx, uu = idx[keep], np.maximum(uu[keep], self.ulo)
        vals = np.empty(uu.size)
        for i in range(0, uu.size, self._BLOCK):
            self._inside(uu[i:i + self._BLOCK], vals[i:i + self._BLOCK])
        flat[idx] = vals
        return out if np.ndim(tau) else float(out)


def _flux_pulse_eval(L: float, z: float) -> Callable:
    """Positive image-sum form of the boundary flux magnitude at depth z."""
    def ev(tau: np.ndarray) -> np.ndarray:
        out = np.zeros_like(tau)
        pos = tau > 0.0
        if pos.any():
            tp = tau[pos]
            K = int(math.ceil((math.sqrt(200.0 * float(tp.max())) + z)
                              / (2.0 * L))) + 2
            a = z + 2.0 * L * np.arange(-K, K + 1)
            pulses = np.exp(np.multiply.outer(-0.25 * np.square(a), 1.0 / tp))
            out[pos] = a @ pulses / (math.sqrt(4.0 * math.pi) * tp * np.sqrt(tp))
        return out
    return ev


def _flux_factor(L: float, z: float) -> TimeFactor | None:
    if z == 0.0:
        return None
    return inverse_pow_gaussian(_vec(_flux_pulse_eval(L, z)),
                                c=min(z, 2.0 * L - z) ** 2 / 4.0, alpha=1.5)


# one entry per echo order: the chains up to order 6 of four (L1, L2, t_build)
# fit, so a request that glues one (L1, L2) twice builds its chain once
@lru_cache(maxsize=32)
def _echo_chain_factor(L1: float, L2: float, t_build: float,
                       n: int) -> TimeFactor:
    """n-fold echo convolution smoothed by the flat pulse, as a factor."""
    if n == 0:
        return _FLAT
    min_l2 = min(L1, L2) ** 2
    phi_fac = inverse_pow_gaussian(
        lambda tau: echo_density(L1, tau) + echo_density(L2, tau),
        c=min_l2, alpha=1.5)
    prev = _echo_chain_factor(L1, L2, t_build, n - 1)

    def fn(tau: np.ndarray) -> np.ndarray:
        return conv_n([phi_fac, prev], tau, 1e-10)[0]

    interp = _DecayInterp(fn, t_build, 0.8 * n * n * min_l2, n_nodes=97)
    return inverse_pow_gaussian(interp, c=0.8 * n * n * min_l2, alpha=1.5)


def glue_intervals_II(L1: float, L2: float, x: float, y: float, t: float,
                      n_max: int) -> tuple[float, float, float]:
    """Glued-interval correction as an alternating series of echo orders.

    Term n convolves the flux pulse out of x, n round-trip echo factors
    smoothed by the flat junction pulse, and the flux pulse into y; the
    sign alternates with n.  All convolutions run through the adaptive
    simplex quadrature.  Returns (value, bound, residual against the
    direct two-kernel difference).  The bound is the truncation tail plus
    the quadrature error: the tail sums C^n t^(n-1) / (n-1)! over
    n > n_max with C the echo supremum, so it is loose at large t and
    sharp at small t; the quadrature part sums the error estimates of the
    kept terms' convolutions.  The error of the echo-chain interpolants
    that stand in for the middle factors is not yet part of the bound.
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    t = _check_time(t)
    if not (0.0 <= x <= L2 and 0.0 <= y <= L2):
        raise ValueError("x and y must lie in [0, L2]")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    t_build = 4.0 if t <= 4.0 else 2.0 ** math.ceil(math.log2(t))
    fx = _flux_factor(L2, x)
    fy = _flux_factor(L2, y)
    value = 0.0
    quadrature = 0.0
    for n in range(n_max + 1):
        mid = _echo_chain_factor(L1, L2, t_build, n)
        factors = [f for f in (fx, mid, fy) if f is not None]
        if len(factors) == 1:
            term = float(np.atleast_1d(factors[0].evaluator(np.array([t])))[0])
        else:
            term, est = conv_n(factors, t, 3e-9)
            quadrature += est
        value += (-1.0) ** n * term
    C = echo_sup(L1, L2)
    bound = C * exp_tail(C * t, n_max) + quadrature
    residual = abs(value - _glue_direct(L1, L2, x, y, t))
    return value, bound, residual


# ---------------------------------------------------------------------------
# gluing two rays into a line
# ---------------------------------------------------------------------------


def glue_rays(x: float, y: float, t: float) -> tuple[float, float]:
    """Two half lines joined at the origin, rebuilt by triple quadrature.

    Convolves the flux pulse at distance x, the flat junction pulse, and
    the flux pulse at distance y over the time simplex and compares with
    the closed form (4 pi t)^(-1/2) exp(-(x+y)^2/4t).  Returns
    (value, residual).
    """
    t = _check_time(t)
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")

    def pulse(z: float) -> TimeFactor:
        def ev(tau: np.ndarray) -> np.ndarray:
            out = np.zeros_like(tau)
            pos = tau > 0.0
            out[pos] = (z / math.sqrt(4.0 * math.pi)) * tau[pos]**-1.5 \
                * np.exp(-z * z / (4.0 * tau[pos]))
            return out
        return inverse_pow_gaussian(_vec(ev), c=z * z / 4.0, alpha=1.5)

    value, _ = conv_n([pulse(x), _FLAT, pulse(y)], t, 1e-10)
    closed = math.exp(-((x + y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return value, abs(value - closed)


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def _circle_pulse(L: float, delta: float, drop_center: bool = False) -> Callable:
    """Vectorized image-sum evaluator of the circle kernel at offset delta.

    drop_center removes the n = 0 image, which turns the diagonal into
    the comparison kernel of the cut interface.
    """
    d = _wrap_diff(delta, L)

    def ev(tau):
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.zeros_like(arr)
        pos = arr > 0.0
        if pos.any():
            tp = arr[pos]
            n_img = int(math.ceil(
                (math.sqrt(200.0 * float(tp.max())) + abs(d)) / L)) + 2
            ns = np.arange(-n_img, n_img + 1)
            if drop_center:
                ns = ns[ns != 0]
            a = d + ns * L
            pulses = np.exp(np.multiply.outer(-0.25 * np.square(a), 1.0 / tp))
            out[pos] = np.ones(a.size) @ pulses / np.sqrt(4.0 * math.pi * tp)
        return out if np.ndim(tau) else float(out[0])

    return ev


def _dn_flat_conv(psi: Callable, tau, tol: float,
                  max_panels: int = MAX_PANELS):
    """Convolve psi with the flat-boundary response pulse, at a time or an
    array of times tau.

    The pulse is the inverse transform of 2 sqrt(s), a finite-part kernel
    -(1/sqrt(pi)) s^(-3/2); subtracting psi(tau) regularizes the endpoint
    and leaves an integrable square-root singularity.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    pt = np.asarray(psi(taus), dtype=float)

    def left(s, rows):
        return s**-1.5 * (psi(taus[rows, None] - s) - pt[rows, None])

    def right(v, rows):
        return (taus[rows, None] - v)**-1.5 * (psi(v) - pt[rows, None])

    half = 0.5 * taus
    lv, _ = half_integral(left, half, ("power", 0.5), 0.5 * tol, max_panels)
    rv, _ = adaptive(right, 0.0, half, 0.5 * tol, max_panels)
    out = -(lv + rv) / _ROOT_PI + 2.0 * pt / (_ROOT_PI * np.sqrt(taus))
    return out if np.ndim(tau) else float(out[0])


class _CutChain:
    """Shared state of the cut-circle series at one geometry and time.

    Keeps the two-component pulse profiles of the interface chain as
    interpolants so that extending k_max reuses every earlier hop.
    """

    def __init__(self, L: float, cuts: tuple[float, float], x: float,
                 y: float, t: float, tol: float):
        self.L, self.t, self.tol = L, t, tol
        dcut = _circle_dist(cuts[0], cuts[1], L)
        self._tilde = {}
        for i in range(2):
            for j in range(2):
                if i == j:
                    fac = inverse_pow_gaussian(
                        _circle_pulse(L, 0.0, drop_center=True),
                        c=L * L / 4.0, alpha=0.5)
                    self._tilde[i, j] = (fac, L)
                else:
                    fac = inverse_pow_gaussian(
                        _circle_pulse(L, cuts[i] - cuts[j]),
                        c=dcut * dcut / 4.0, alpha=0.5)
                    self._tilde[i, j] = (fac, dcut)
        self._close = []
        for u in range(2):
            dyu = _circle_dist(cuts[u], y, L)
            self._close.append(inverse_pow_gaussian(
                _circle_pulse(L, cuts[u] - y), c=dyu * dyu / 4.0, alpha=0.5))
        self._state = []
        for u in range(2):
            dxu = _circle_dist(x, cuts[u], L)
            self._state.append((_circle_pulse(L, x - cuts[u]),
                                dxu * dxu / 4.0))
        self._after_flux: list | None = None
        self.terms: list[float] = []

    def _apply_flux(self) -> None:
        out = []
        for psi, c in self._state:
            interp = _DecayInterp(
                lambda tt, f=psi: _dn_flat_conv(f, tt, self.tol),
                self.t, 0.8 * c, n_nodes=161)
            out.append((interp, c))
        self._after_flux = out

    def _advance(self) -> None:
        prev = self._after_flux
        new = []
        for v in range(2):
            parts = []
            for u in range(2):
                fac, _ = self._tilde[u, v]
                qfac = inverse_pow_gaussian(prev[u][0], c=0.8 * prev[u][1],
                                            alpha=1.5)
                parts.append((qfac, fac))

            def fn(tt: np.ndarray, pieces=tuple(parts)) -> np.ndarray:
                return sum(conv_n([q, f], tt, self.tol)[0] for q, f in pieces)

            c_new = min((math.sqrt(prev[u][1]) + self._tilde[u, v][1] / 2.0) ** 2
                        for u in range(2))
            new.append((_DecayInterp(fn, self.t, 0.8 * c_new, n_nodes=161),
                        c_new))
        self._state = new
        self._after_flux = None

    def term(self, k: int) -> float:
        while len(self.terms) <= k:
            if self.terms:
                self._advance()
            if self._after_flux is None:
                self._apply_flux()
            total = 0.0
            for u in range(2):
                interp, c = self._after_flux[u]
                qfac = inverse_pow_gaussian(interp, c=0.8 * c, alpha=1.5)
                total += conv_n([qfac, self._close[u]], self.t, self.tol)[0]
            self.terms.append(total)
        return self.terms[k]


@lru_cache(maxsize=8)
def _cut_chain(L: float, c0: float, c1: float, x: float, y: float,
               t: float) -> _CutChain:
    """The cut series at one geometry and time, kept so that a larger k_max
    extends the terms already computed."""
    return _CutChain(L, (c0, c1), x, y, t, tol=1e-9)


def cut_circle_to_arc(L_total: float, cuts: Sequence[float], x: float,
                      y: float, t: float, k_max: int) -> tuple[float, float]:
    """Arc kernel rebuilt by cutting the circle at two points.

    Subtracts from the circle kernel the alternating interface series:
    transport to a cut point, the flat-boundary response pulse, and k
    comparison-kernel hops between the cut points.  Returns (value,
    residual against the Dirichlet kernel of the arc containing x and y).
    Partial sums approach the arc kernel, so the residual is expected to
    fall as k_max grows.

    No truncation bound is returned, because none is known for this
    series yet.  Each hop composes the flat-boundary response pulse, a
    finite-part kernel of no fixed sign, with the comparison kernel, so
    the terms neither sit under a positive envelope that the factors
    supply nor alternate with falling size.  A bound would need an
    envelope E of one composed hop, |hop(s)| <= E(s) with mass q < 1 on
    (0, t), which makes the dropped terms a geometric tail of ratio q,
    plus the quadrature and interpolation errors of the stored hop
    profiles, which the chain does not keep.
    """
    L = _check_length(L_total, "L_total")
    t = _check_time(t)
    if len(cuts) != 2:
        raise ValueError("exactly two cut points are required; one point "
                         "does not separate the circle")
    c0, c1 = sorted(float(c) % L for c in cuts)
    if c0 == c1:
        raise ValueError("cut points must be distinct")
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    x = float(x) % L
    y = float(y) % L
    if c0 < x < c1 and c0 < y < c1:
        ell, xl, yl = c1 - c0, x - c0, y - c0
    else:
        xs, ys = (x - c1) % L, (y - c1) % L
        ell = L - (c1 - c0)
        if not (0.0 < xs < ell and 0.0 < ys < ell):
            raise ValueError("x and y must lie strictly inside one arc")
        xl, yl = xs, ys
    chain = _cut_chain(L, c0, c1, x, y, t)
    correction = sum((-1.0) ** k * chain.term(k) for k in range(k_max + 1))
    circle_val, _ = k_circle(L, x, y, t, "auto", _TIGHT)
    value = circle_val - correction
    oracle, _ = k_interval(ell, xl, yl, t, "auto", _TIGHT)
    return value, abs(value - oracle)


# ---------------------------------------------------------------------------
# cylinder: tensor factorization and boundary spectrum
# ---------------------------------------------------------------------------


def _cylinder_joint(LI: float, LC: float, X: float, Y: float, g1: float,
                    g2: float, t: float) -> float:
    """Joint eigenmode double sum, small terms first, one truncation ball."""
    lam_cap = (50.0 + abs(math.log(max(1e-6, LI * LC)))) / t
    jmax = max(1, int(math.ceil(LI * math.sqrt(lam_cap) / math.pi)))
    kmax = max(1, int(math.ceil(LC * math.sqrt(lam_cap) / (2.0 * math.pi))))
    js = np.arange(1, jmax + 1)
    ks = np.arange(0, kmax + 1)
    lam = (math.pi ** 2 / LI ** 2) * np.square(js)[:, None] \
        + (4.0 * math.pi ** 2 / LC ** 2) * np.square(ks)[None, :]
    amp_i = (2.0 / LI) * np.sin(math.pi * js * X / LI) \
        * np.sin(math.pi * js * Y / LI)
    amp_c = np.where(ks == 0, 1.0 / LC,
                     (2.0 / LC) * np.cos(2.0 * math.pi * ks * (g1 - g2) / LC))
    amp = amp_i[:, None] * amp_c[None, :]
    keep = lam <= lam_cap
    lam_f, amp_f = lam[keep], amp[keep]
    order = np.argsort(lam_f)[::-1]
    return float(np.sum(amp_f[order] * np.exp(-lam_f[order] * t)))


def cylinder_factorization_check(L1: float, L2: float, circle_L: float,
                                 points: Sequence[Sequence[float]],
                                 t: float) -> float:
    """Largest residual of the product structure of the cylinder kernel.

    Each point is (x, y, g1, g2): x and y are interval coordinates
    measured from the junction into the second piece, g1 and g2 are
    positions on the circle slice.  Two comparisons per point: the joint
    eigenmode double sum against the product of the 1D kernels, and the
    glued-interval route times the slice kernel against the direct
    product.
    """
    L1 = _check_length(L1, "L1")
    L2 = _check_length(L2, "L2")
    circle_L = _check_length(circle_L, "circle_L")
    t = _check_time(t)
    S = L1 + L2
    worst = 0.0
    for xx, yy, g1, g2 in points:
        ki, _ = k_interval(S, L1 + xx, L1 + yy, t, "auto", _TIGHT)
        kc, _ = k_circle(circle_L, g1, g2, t, "auto", _TIGHT)
        joint = _cylinder_joint(S, circle_L, L1 + xx, L1 + yy, g1, g2, t)
        worst = max(worst, abs(joint - ki * kc))
        glue_val, _ = glue_intervals_I(L1, L2, xx, yy, t)
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

"""Exact algebra of exponential-polynomial time profiles with a point mass at zero.

The class handled here is

    f(t) = atom * delta(t) + sum_j coef_j * t^power_j * exp(-rate_j * t)

with integer powers >= 0 and rates >= 0.  It is closed under convolution on
[0, inf), and every convolution here is built from one primitive,
:func:`convolve_exponential`: in the basis t^p/p! * exp(-u t), convolving
with a pure exponential exp(-z t) moves the row at z up one power and
re-expands every other row by Horner in 1/(z - u), the divided difference of
exp(-x t).  A term t^q/q! * exp(-z t) is q + 1 such convolutions.  Rates
closer than a relative tolerance are treated as one pole (confluent), which
is what keeps the re-expansion well conditioned.

Everything is immutable; all functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from heatglue.errors import ConfluentOverflowError, positive

__all__ = [
    "EPS_MERGE",
    "MAX_POWER",
    "POWER_LIMIT",
    "ExpTerm",
    "ExpMix",
    "convolve",
    "evaluate",
    "evaluate_basis",
    "convolve_exponential",
    "from_basis",
    "from_dict",
    "laplace",
    "rate_universe",
    "structural_max_diff",
]

EPS_MERGE = 1e-9
MAX_POWER = 64

# Hard ceiling on representable powers.  The confluent product of two terms of
# power p has power 2p + 1, and its coefficient carries 1/(2p+1)!; 170! is the
# largest factorial a double holds, so 84 is the largest power at which the
# product of any two representable terms still has a finite factorial.
POWER_LIMIT = 84

# p! for every power such a product reaches: the t^p/p! basis of the dense arrays
_FACT = np.array([float(math.factorial(k)) for k in range(2 * POWER_LIMIT + 2)])


@dataclass(frozen=True)
class ExpTerm:
    """One profile term ``coef * t**power * exp(-rate*t)``."""

    coef: float
    power: int
    rate: float

    def __post_init__(self) -> None:
        coef = float(self.coef)
        rate = float(self.rate)
        power = int(self.power)
        if not math.isfinite(coef):
            raise ValueError(f"term coefficient must be finite, got {coef}")
        if not math.isfinite(rate) or rate < 0.0:
            raise ValueError(f"term rate must be finite and >= 0, got {rate}")
        if power < 0:
            raise ValueError(f"term power must be >= 0, got {power}")
        if power > POWER_LIMIT:
            raise ConfluentOverflowError(
                f"power {power} exceeds the representable limit {POWER_LIMIT}"
            )
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "rate", rate + 0.0)  # normalize -0.0


def _cluster_sorted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain-merge sorted rates at relative ``EPS_MERGE``; returns
    (cluster means, cluster of each rate)."""
    split = np.diff(values) >= EPS_MERGE * (1.0 + values[1:])
    assign = np.concatenate([[0], np.cumsum(split)])[: len(values)]
    reps = np.bincount(assign, weights=values) / np.bincount(assign)
    return reps, assign


def _canonical_terms(raw: Iterable[tuple[float, int, float]]) -> tuple[ExpTerm, ...]:
    terms = sorted((ExpTerm(c, p, r) for (c, p, r) in raw if float(c) != 0.0),
                   key=lambda e: (e.rate, e.power))
    if not terms:
        return ()
    reps, assign = _cluster_sorted(np.array([e.rate for e in terms]))
    buckets: dict[tuple[int, int], list[float]] = {}
    for e, a in zip(terms, assign):
        buckets.setdefault((a, e.power), []).append(e.coef)
    out = []
    for (a, p), coefs in sorted(buckets.items()):
        total = math.fsum(coefs)
        if total != 0.0:
            out.append(ExpTerm(total, p, reps[a]))
    return tuple(out)


@dataclass(frozen=True)
class ExpMix:
    """Canonical profile ``atom*delta(t) + sum coef * t**power * exp(-rate*t)``.

    The constructor canonicalizes: terms are merged by (rate, power) with rates
    within a relative ``EPS_MERGE`` collapsed to their mean, zero coefficients
    dropped, and the result sorted by (rate, power).  ``terms`` may be given as
    ``ExpTerm`` objects or plain ``(coef, power, rate)`` triples.
    """

    atom: float = 0.0
    terms: tuple[ExpTerm, ...] = ()

    def __post_init__(self) -> None:
        atom = float(self.atom)
        if not math.isfinite(atom):
            raise ValueError(f"atom must be finite, got {atom}")
        raw = [(t.coef, t.power, t.rate) if isinstance(t, ExpTerm) else t
               for t in self.terms]
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "terms", _canonical_terms(raw))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coefs = np.array([t.coef for t in self.terms])
        powers = np.array([t.power for t in self.terms], dtype=int)
        rates = np.array([t.rate for t in self.terms])
        return coefs, powers, rates

    @property
    def min_rate(self) -> float:
        return self.terms[0].rate if self.terms else math.inf

    def is_zero(self) -> bool:
        return self.atom == 0.0 and not self.terms


ZERO = ExpMix()


# ---------------------------------------------------------------------------
# Dense coefficients on a shared rate universe.
#
# A coefficient array coef[..., x, p] holds the profile
# sum coef[x, p] * t^p/p! * exp(-universe[x] * t).  In this basis the
# convolution with one pure exponential is a single Horner step
# (:func:`convolve_exponential`), and every other convolution is built from it.
# ---------------------------------------------------------------------------


def rate_universe(rates: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Merged rates of ``rates`` and the row of each input rate among them.

    Rates are chain-merged at relative ``EPS_MERGE``, each cluster
    represented by its mean, as the canonical form does; the universe is
    sorted.
    """
    rates = np.asarray(rates, dtype=float)
    order = np.argsort(rates, kind="stable")
    universe, assign = _cluster_sorted(rates[order])
    rows = np.empty(len(rates), dtype=int)
    rows[order] = assign
    return universe, rows


def convolve_exponential(coef: np.ndarray, universe: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
    """Convolve a batch of profiles, each with one exponential of the universe.

    ``coef[..., x, p]`` is the coefficient of ``t^p/p! * exp(-u_x t)`` with
    ``u = universe``; ``rows`` broadcasts against ``coef.shape[:-2]`` and
    names the rate z = u[rows] that each profile is convolved with.  Returns
    the coefficients of ``coef * exp(-z t)``, one power wider: the row at z
    moves up one power, every other row is re-expanded by Horner in
    1/(z - u_x), and the row at z collects minus the order-0 Horner value.
    Raises :class:`ConfluentOverflowError` on a non-finite result, which
    means two rates too close for the re-expansion.
    """
    coef = np.asarray(coef, dtype=float)
    rows = np.asarray(rows)[..., None]
    shape = np.broadcast_shapes(coef.shape[:-1], rows.shape)
    same = rows == np.arange(len(universe))
    out = np.zeros(shape + (coef.shape[-1] + 1,))
    acc = np.zeros(shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.where(same, 0.0, 1.0 / (universe[rows] - universe))
        for p in range(coef.shape[-1] - 1, -1, -1):
            acc = (coef[..., p] - acc) * inv
            out[..., p] = acc
        out[..., 1:] += np.where(same[..., None], coef, 0.0)
        out[..., 0] -= same * acc.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(out)):
        raise ConfluentOverflowError(
            "non-finite coefficients from near-confluent rates"
        )
    return out


def from_basis(coef: np.ndarray, universe: np.ndarray, atom: float = 0.0) -> ExpMix:
    """The profile ``atom*delta(t) + sum coef[x, p] * t^p/p! * exp(-u_x t)``.

    Powers up to ``2 * POWER_LIMIT + 1`` convert; the result keeps the
    canonical form's limit ``POWER_LIMIT``.
    """
    rows, pows = np.nonzero(coef)
    vals = coef[rows, pows] / _FACT[pows]
    return ExpMix(atom, tuple(zip(vals.tolist(), pows.tolist(),
                                  universe[rows].tolist())))


def evaluate_basis(coef: np.ndarray, universe: np.ndarray, t: float) -> np.ndarray:
    """Values at ``t > 0`` of the batch of profiles ``coef[..., x, p]``.

    Each profile is ``sum coef[x, p] * t^p/p! * exp(-u_x t)`` and is summed
    compensated, as :func:`evaluate` sums one mix; returns an array of shape
    ``coef.shape[:-2]``.
    """
    (t,) = positive(t=t)
    width = coef.shape[-1]
    basis = np.exp(-universe * t)[:, None] * (t ** np.arange(width) / _FACT[:width])
    terms = (coef * basis).reshape(-1, basis.size)
    return np.array([math.fsum(r) for r in terms.tolist()]).reshape(coef.shape[:-2])


def _dense(f: ExpMix, rows: np.ndarray, size: int, width: int) -> np.ndarray:
    """Coefficients of ``t^p`` of f, term j in row ``rows[j]``."""
    out = np.zeros((size, width))
    cs, ps, _ = f._arrays
    np.add.at(out, (rows, ps), cs)
    return out


def _joint(f: ExpMix, g: ExpMix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Joint rate universe of f and g, the universe rows of their terms, and
    the width that holds every power of either."""
    universe, rows = rate_universe(np.concatenate([f._arrays[2], g._arrays[2]]))
    width = 1 + max([0] + [t.power for t in f.terms + g.terms])
    return universe, rows[: len(f.terms)], rows[len(f.terms):], width


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def convolve(f: ExpMix, g: ExpMix) -> ExpMix:
    """Convolution ``(f * g)(t) = int_0^t f(s) g(t-s) ds`` plus atom rules.

    A term ``t^q/q! * exp(-zt)`` of g is q + 1 convolutions with
    ``exp(-zt)``, so the product is a loop of :func:`convolve_exponential`
    over the powers of the factor of lower degree.  Rates of the two
    operands within ``EPS_MERGE`` (relative) are treated as the same pole.
    Raises :class:`ConfluentOverflowError` when the confluent degree growth
    would exceed ``MAX_POWER``.
    """
    if f.is_zero() or g.is_zero():
        return ZERO
    universe, rows_f, rows_g, width = _joint(f, g)
    pf, pg = f._arrays[1], g._arrays[1]
    same = rows_f[:, None] == rows_g[None, :]
    top = int((pf[:, None] + pg[None, :] + 1)[same].max(initial=0))
    if top > MAX_POWER:
        raise ConfluentOverflowError(
            f"confluent convolution needs power {top} > MAX_POWER={MAX_POWER}"
        )
    size = len(universe)
    a = _dense(f, rows_f, size, width) * _FACT[:width]
    b = _dense(g, rows_g, size, width) * _FACT[:width]
    out = np.zeros((size, 2 * width))
    out[:, :width] = f.atom * b + g.atom * a
    if f.terms and g.terms:
        if pg.max() > pf.max():
            a, b = b, a
        chain = np.nonzero(b.any(axis=1))[0]
        h = a
        for q in range(1 + min(pf.max(), pg.max())):
            h = convolve_exponential(h, universe, chain)
            out[:, : h.shape[-1]] += np.einsum("r,rxp->xp", b[chain, q], h)
    return from_basis(out, universe, f.atom * g.atom)


def evaluate(f: ExpMix, t: float) -> float:
    """Value of the non-atomic part at ``t > 0`` (compensated summation)."""
    (t,) = positive(t=t)
    if not f.terms:
        return 0.0
    cs, ps, rs = f._arrays
    with np.errstate(over="ignore"):  # e^{-inf} = 0 where a rate t overflows
        decay = np.exp(-rs * t)
    vals = cs * t**ps * decay
    return math.fsum(vals.tolist())


def laplace(f: ExpMix, s: float) -> float:
    """Laplace image ``atom + sum coef * power! / (s+rate)^(power+1)``.

    ``s`` must lie strictly right of every pole: ``s > -min(rate)``.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"need finite s, got {s}")
    if f.terms and s <= -f.min_rate:
        raise ValueError(
            f"s={s} is at or below the rightmost pole {-f.min_rate}"
        )
    if not f.terms:
        return f.atom
    cs, ps, rs = f._arrays
    vals = cs * _FACT[ps] / (s + rs) ** (ps + 1.0)
    return f.atom + math.fsum(vals.tolist())


def structural_max_diff(f: ExpMix, g: ExpMix) -> float:
    """Max absolute coefficient difference after joint canonicalization."""
    universe, rows_f, rows_g, width = _joint(f, g)
    dmat = np.abs(_dense(f, rows_f, len(universe), width)
                  - _dense(g, rows_g, len(universe), width))
    return max(float(dmat.max(initial=0.0)), abs(f.atom - g.atom))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def from_dict(d: dict) -> ExpMix:
    if not isinstance(d, dict) or "atom" not in d or "terms" not in d:
        raise ValueError("expected {'atom': ..., 'terms': [...]}")
    terms = tuple(
        (item["coef"], item["power"], item["rate"]) for item in d["terms"]
    )
    return ExpMix(d["atom"], terms)

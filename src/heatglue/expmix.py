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

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EPS_MERGE",
    "MAX_POWER",
    "POWER_LIMIT",
    "ConfluentOverflowError",
    "ExpTerm",
    "ExpMix",
    "add",
    "allclose",
    "convolve",
    "cumulative",
    "delta",
    "evaluate",
    "evaluate_basis",
    "evaluate_grid",
    "convolve_exponential",
    "exponential",
    "from_basis",
    "from_dict",
    "from_json",
    "laplace",
    "laplace_basis",
    "mix_sum",
    "rate_universe",
    "scale",
    "simplex_convolve",
    "to_dict",
    "to_json",
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


class ConfluentOverflowError(ValueError):
    """A monomial power exceeded the cap in force (growth cap or hard limit).

    Repeated convolution at a shared rate raises the polynomial degree by one
    per factor; hitting the cap usually means either the cap is too low for
    the series being summed or two rates that should be distinct were merged.
    """


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
    triples = [(float(c), int(p), float(r)) for (c, p, r) in raw if float(c) != 0.0]
    if not triples:
        return ()
    for c, p, r in triples:
        if p > POWER_LIMIT:
            raise ConfluentOverflowError(
                f"power {p} exceeds the limit {POWER_LIMIT}"
            )
        if not math.isfinite(c) or not math.isfinite(r):
            raise ValueError("non-finite coefficient or rate")
        if r < 0.0:
            raise ValueError(f"negative rate {r}")
        if p < 0:
            raise ValueError(f"negative power {p}")
    triples.sort(key=lambda t: (t[2], t[1]))
    rates = np.array([t[2] for t in triples])
    reps, assign = _cluster_sorted(rates)
    buckets: dict[tuple[int, int], list[float]] = {}
    for (c, p, _), a in zip(triples, assign):
        buckets.setdefault((a, p), []).append(c)
    out = []
    for (a, p), coefs in sorted(buckets.items()):
        total = math.fsum(coefs)
        if total != 0.0:
            out.append(ExpTerm(total, p, max(reps[a], 0.0)))
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
        raw = []
        for t in self.terms:
            if isinstance(t, ExpTerm):
                raw.append((t.coef, t.power, t.rate))
            else:
                c, p, r = t
                raw.append((float(c), int(p), float(r)))
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


def delta(c: float = 1.0) -> ExpMix:
    """The point mass ``c * delta(t)``, the convolution identity for c=1."""
    return ExpMix(atom=c)


def exponential(coef: float, rate: float) -> ExpMix:
    return ExpMix(terms=((coef, 0, rate),))


ZERO = ExpMix()


def scale(f: ExpMix, c: float) -> ExpMix:
    c = float(c)
    if c == 0.0:
        return ZERO
    return ExpMix(f.atom * c, tuple((t.coef * c, t.power, t.rate) for t in f.terms))


def add(f: ExpMix, g: ExpMix) -> ExpMix:
    return ExpMix(f.atom + g.atom, f.terms + g.terms)


def mix_sum(mixes: Iterable[ExpMix]) -> ExpMix:
    atom = 0.0
    raw: list[tuple[float, int, float]] = []
    for m in mixes:
        atom += m.atom
        raw.extend((t.coef, t.power, t.rate) for t in m.terms)
    return ExpMix(atom, tuple(raw))


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
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"evaluate needs t > 0, got {t}; the atom sits at t=0")
    width = coef.shape[-1]
    basis = np.exp(-universe * t)[:, None] * (t ** np.arange(width) / _FACT[:width])
    terms = (coef * basis).reshape(-1, basis.size)
    return np.array([math.fsum(r) for r in terms.tolist()]).reshape(coef.shape[:-2])


def laplace_basis(coef: np.ndarray, universe: np.ndarray, s: float) -> np.ndarray:
    """Laplace images at s of the batch of profiles ``coef[..., x, p]``:
    ``sum coef[x, p] / (s + u_x)^(p+1)``, without atoms.

    ``s`` must lie strictly right of every pole that carries a coefficient.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"need finite s, got {s}")
    live = coef.reshape(-1, *coef.shape[-2:]).any(axis=(0, 2))
    if live.any() and s <= -universe[live].min():
        raise ValueError(
            f"s={s} is at or below the rightmost pole {-universe[live].min()}"
        )
    base = np.where(live, s + universe, 1.0)
    return np.einsum("...xp,xp->...", coef,
                     base[:, None] ** -np.arange(1.0, coef.shape[-1] + 1.0))


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


def simplex_convolve(fs: Sequence[ExpMix]) -> ExpMix:
    """Iterated convolution of ``fs``; a single factor is returned unchanged.

    Equals the integral of the product of the factors over the simplex
    ``{t_i >= 0, sum t_i = t}``.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("simplex_convolve needs at least one factor")
    acc = fs[0]
    for g in fs[1:]:
        acc = convolve(acc, g)
    return acc


def evaluate(f: ExpMix, t: float) -> float:
    """Value of the non-atomic part at ``t > 0`` (compensated summation)."""
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"evaluate needs t > 0, got {t}; the atom sits at t=0")
    if not f.terms:
        return 0.0
    cs, ps, rs = f._arrays
    vals = cs * t**ps * np.exp(-rs * t)
    return math.fsum(vals.tolist())


def evaluate_grid(f: ExpMix, ts: Sequence[float]) -> np.ndarray:
    """Vectorized :func:`evaluate` over a grid of positive times."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (not np.all(np.isfinite(ts)) or ts.min() <= 0.0):
        raise ValueError("evaluate needs t > 0")
    if not f.terms:
        return np.zeros(ts.shape)
    cs, ps, rs = f._arrays
    tt = ts.reshape(-1, 1)
    vals = (cs[None, :] * tt ** ps[None, :] * np.exp(-rs[None, :] * tt)).sum(axis=1)
    return vals.reshape(ts.shape)


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


def cumulative(f: ExpMix, t: float) -> float:
    """Mass on [0, t]: the atom plus ``int_0^t`` of the smooth part, t > 0."""
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"cumulative needs t > 0, got {t}")
    total = [f.atom]
    for term in f.terms:
        k, lam, c = term.power, term.rate, term.coef
        x = lam * t
        if lam == 0.0:
            total.append(c * t ** (k + 1) / (k + 1))
        elif x < 0.5 * (k + 1) + 5.0:
            # alternating series in lam*t, free of the 1 - exp cancellation
            ssum = 0.0
            num = 1.0
            for mth in range(0, 400):
                ssum += num / (k + 1 + mth)
                num *= -x / (mth + 1)
                if abs(num) < 1e-17 * (1.0 + abs(ssum)):
                    break
            total.append(c * t ** (k + 1) * ssum)
        else:
            partial = math.fsum(x**i / math.factorial(i) for i in range(k + 1))
            total.append(
                c * math.factorial(k) / lam ** (k + 1) * (1.0 - math.exp(-x) * partial)
            )
    return math.fsum(total)


def allclose(f: ExpMix, g: ExpMix, *, atol: float = 1e-12, rtol: float = 1e-9) -> bool:
    """Structural comparison after joint rate clustering.

    Coefficients are compared per (rate cluster, power) with an absent term
    treated as zero; atoms are compared with the same tolerances.
    """
    diff = structural_max_diff(f, g)
    scale_ref = max(
        [abs(f.atom), abs(g.atom)]
        + [abs(t.coef) for t in f.terms]
        + [abs(t.coef) for t in g.terms]
        + [0.0]
    )
    return diff <= atol + rtol * scale_ref


def structural_max_diff(f: ExpMix, g: ExpMix) -> float:
    """Max absolute coefficient difference after joint canonicalization."""
    universe, rows_f, rows_g, width = _joint(f, g)
    dmat = np.abs(_dense(f, rows_f, len(universe), width)
                  - _dense(g, rows_g, len(universe), width))
    return max(float(dmat.max(initial=0.0)), abs(f.atom - g.atom))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_dict(f: ExpMix) -> dict:
    return {
        "atom": f.atom,
        "terms": [
            {"coef": t.coef, "power": t.power, "rate": t.rate} for t in f.terms
        ],
    }


def from_dict(d: dict) -> ExpMix:
    if not isinstance(d, dict) or "atom" not in d or "terms" not in d:
        raise ValueError("expected {'atom': ..., 'terms': [...]}")
    terms = tuple(
        (item["coef"], item["power"], item["rate"]) for item in d["terms"]
    )
    return ExpMix(d["atom"], terms)


def to_json(f: ExpMix) -> str:
    return json.dumps(to_dict(f))


def from_json(text: str) -> ExpMix:
    return from_dict(json.loads(text))

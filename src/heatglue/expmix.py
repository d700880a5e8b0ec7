"""Exact algebra of exponential-polynomial time profiles with a point mass at zero.

The class handled here is

    f(t) = atom * delta(t) + sum_j coef_j * t^power_j * exp(-rate_j * t)

with integer powers >= 0 and rates >= 0.  It is closed under convolution on
[0, inf): Laplace images are rational with poles at the negated rates, so a
convolution is a product of images followed by a partial-fraction re-expansion,
which is done here with closed-form residue/derivative formulas rather than
linear solves.  Rates closer than a relative tolerance are treated as one pole
(confluent), which is what keeps the re-expansion well conditioned.

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
    "evaluate_grid",
    "exponential",
    "from_dict",
    "from_json",
    "integrate_against_exp",
    "laplace",
    "mix_sum",
    "scale",
    "simplex_convolve",
    "to_dict",
    "to_json",
]

EPS_MERGE = 1e-9
MAX_POWER = 64

# Hard ceiling on representable powers.  Convolving two terms of power p needs
# factorials up to (2p+2)!, and 170! is the largest factorial a double holds,
# so 84 is the largest power for which every internal table entry stays finite.
POWER_LIMIT = 84

_FACT = np.array([float(math.factorial(k)) for k in range(2 * POWER_LIMIT + 3)])


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


def _cluster_sorted(values: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Chain-merge sorted rates; returns (representatives, assignment)."""
    n = len(values)
    assign = np.zeros(n, dtype=int)
    cid = 0
    for i in range(1, n):
        gap = values[i] - values[i - 1]
        if gap >= eps * (1.0 + values[i]):
            cid += 1
        assign[i] = cid
    reps = np.zeros(cid + 1)
    for c in range(cid + 1):
        reps[c] = values[assign == c].mean()
    return reps, assign


def _canonical_terms(
    raw: Iterable[tuple[float, int, float]],
    eps_merge: float,
    max_power: int,
) -> tuple[ExpTerm, ...]:
    triples = [(float(c), int(p), float(r)) for (c, p, r) in raw if float(c) != 0.0]
    if not triples:
        return ()
    for c, p, r in triples:
        if p > max_power:
            raise ConfluentOverflowError(
                f"power {p} exceeds the limit {max_power}"
            )
        if not math.isfinite(c) or not math.isfinite(r):
            raise ValueError("non-finite coefficient or rate")
        if r < 0.0:
            raise ValueError(f"negative rate {r}")
        if p < 0:
            raise ValueError(f"negative power {p}")
    triples.sort(key=lambda t: (t[2], t[1]))
    rates = np.array([t[2] for t in triples])
    reps, assign = _cluster_sorted(rates, eps_merge)
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
        object.__setattr__(self, "terms", _canonical_terms(raw, EPS_MERGE, POWER_LIMIT))

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
# Internal dense representation on a shared rate universe.
#
# A table is (coef, atom) where coef has shape (n_rates, n_powers); row r holds
# the polynomial in t multiplying exp(-universe[r] * t).  All table operations
# assume the same universe, which is what lets repeated convolutions (series
# summation, matrix products) skip re-clustering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    universe: np.ndarray  # sorted cluster representative rates
    coef: np.ndarray  # (len(universe), width)
    atom: float


def _universe_from_rates(rate_sets: Sequence[np.ndarray], eps_merge: float) -> np.ndarray:
    nonempty = [np.asarray(r, dtype=float) for r in rate_sets if len(r)]
    if not nonempty:
        return np.zeros(0)
    allr = np.sort(np.concatenate(nonempty))
    reps, _ = _cluster_sorted(allr, eps_merge)
    return reps


def _table_from_mix(f: ExpMix, universe: np.ndarray, width: int) -> _Table:
    coef = np.zeros((len(universe), width))
    if f.terms:
        cs, ps, rs = f._arrays
        if len(universe):
            mids = (universe[1:] + universe[:-1]) / 2.0
            rows = np.searchsorted(mids, rs)
        else:
            raise ValueError("empty universe for mix with terms")
        np.add.at(coef, (rows, ps), cs)
    return _Table(universe, coef, f.atom)


def _table_to_mix(tab: _Table) -> ExpMix:
    rows, pows = np.nonzero(tab.coef)
    raw = [
        (tab.coef[r, p], int(p), float(tab.universe[r]))
        for r, p in zip(rows, pows)
    ]
    return ExpMix(tab.atom, tuple(raw))


def _table_add(a: _Table, b: _Table) -> _Table:
    w = max(a.coef.shape[1], b.coef.shape[1])
    coef = np.zeros((len(a.universe), w))
    coef[:, : a.coef.shape[1]] += a.coef
    coef[:, : b.coef.shape[1]] += b.coef
    return _Table(a.universe, coef, a.atom + b.atom)


def _row_degrees(coef: np.ndarray) -> np.ndarray:
    """Highest nonzero power per row, -1 for empty rows."""
    nz = coef != 0.0
    width = coef.shape[1]
    return np.where(nz.any(axis=1), width - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _table_convolve(a: _Table, b: _Table, max_power: int = MAX_POWER) -> _Table:
    """Convolution of two profiles over a shared rate universe."""
    rates = a.universe
    da = _row_degrees(a.coef)
    db = _row_degrees(b.coef)
    rows_a = np.nonzero(da >= 0)[0]
    rows_b = np.nonzero(db >= 0)[0]

    conf = np.intersect1d(rows_a, rows_b)
    if len(conf):
        top = int((da[conf] + db[conf]).max()) + 1
        if top > max_power:
            raise ConfluentOverflowError(
                f"confluent convolution needs power {top} > max_power={max_power}; "
                "raise max_power or loosen the rate merge"
            )
    width = 1
    if len(rows_a):
        width = max(width, int(da[rows_a].max()) + 1)
    if len(rows_b):
        width = max(width, int(db[rows_b].max()) + 1)
    if len(conf):
        width = max(width, int((da[conf] + db[conf]).max()) + 2)
    out = np.zeros((len(rates), width))
    atom = a.atom * b.atom
    if a.atom != 0.0 and len(rows_b):
        bw = int(db[rows_b].max()) + 1
        out[:, :bw] += a.atom * b.coef[:, :bw]
    if b.atom != 0.0 and len(rows_a):
        aw = int(da[rows_a].max()) + 1
        out[:, :aw] += b.atom * a.coef[:, :aw]

    if len(rows_a) == 0 or len(rows_b) == 0:
        return _Table(rates, out, atom)

    a0 = rows_a[da[rows_a] == 0]
    ahi = rows_a[da[rows_a] > 0]
    b0 = rows_b[db[rows_b] == 0]
    bhi = rows_b[db[rows_b] > 0]

    # pure-exponential pairs at distinct rates, all at once
    if len(a0) and len(b0):
        ca = a.coef[a0, 0]
        cb = b.coef[b0, 0]
        drate = rates[b0][None, :] - rates[a0][:, None]
        same = a0[:, None] == b0[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(same, 0.0, (ca[:, None] * cb[None, :]) / drate)
        np.add.at(out[:, 0], a0, w.sum(axis=1))
        np.add.at(out[:, 0], b0, -w.sum(axis=0))

    # confluent pairs (same pole): weighted polynomial product, degree grows
    for r in conf:
        u = a.coef[r, : da[r] + 1] * _FACT[: da[r] + 1]
        v = b.coef[r, : db[r] + 1] * _FACT[: db[r] + 1]
        w = np.convolve(u, v)
        out[r, 1 : len(w) + 1] += w / _FACT[1 : len(w) + 1]

    # polynomial row against exponential rows: Horner in 1/(rate gap)
    def _poly_vs_exp(i: int, poly: np.ndarray, other_rows: np.ndarray,
                     other_coefs: np.ndarray) -> None:
        mask = other_rows != i
        rows_o = other_rows[mask]
        if len(rows_o) == 0:
            return
        co = other_coefs[mask]
        dr = rates[rows_o] - rates[i]
        wpoly = poly * _FACT[: len(poly)]
        npow = len(wpoly)
        R = np.zeros((npow, len(rows_o)))
        R[npow - 1] = wpoly[npow - 1] / dr
        for p in range(npow - 2, -1, -1):
            R[p] = (wpoly[p] - R[p + 1]) / dr
        out[i, :npow] += (R * co[None, :]).sum(axis=1) / _FACT[:npow]
        np.add.at(out[:, 0], rows_o, -co * R[0])

    for i in ahi:
        _poly_vs_exp(i, a.coef[i, : da[i] + 1], b0, b.coef[b0, 0])
    for j in bhi:
        _poly_vs_exp(j, b.coef[j, : db[j] + 1], a0, a.coef[a0, 0])

    # two polynomial rows at distinct rates: full residue re-expansion.
    # With gap = mu - lambda, the lambda-side coefficient of t^p is
    #   C_p = (1/p!) sum_u pa[p+u] (p+u)! S_u,
    #   S_u = ((-1)^u / u!) sum_k pb[k] (u+k)! gap^-(u+k+1),
    # and the mu side is the mirror (roles swapped, gap negated).
    def _one_side(pa: np.ndarray, pb: np.ndarray, gap: float) -> np.ndarray:
        A, B = len(pa), len(pb)
        m = np.arange(A + B - 1)
        with np.errstate(over="ignore"):
            h = _FACT[m] * (1.0 / gap) ** (m + 1)
        idx = np.arange(A)[:, None] + np.arange(B)[None, :]
        S = ((-1.0) ** np.arange(A)) / _FACT[:A] * (h[idx] @ pb)
        wa = pa * _FACT[:A]
        return np.array([wa[p:].dot(S[: A - p]) for p in range(A)]) / _FACT[:A]

    def _poly_vs_poly(i: int, j: int, pa: np.ndarray, pb: np.ndarray) -> None:
        gap = rates[j] - rates[i]
        out[i, : len(pa)] += _one_side(pa, pb, gap)
        out[j, : len(pb)] += _one_side(pb, pa, -gap)

    if len(ahi) and len(bhi):
        for i in ahi:
            for j in bhi:
                if i != j:
                    _poly_vs_poly(i, j, a.coef[i, : da[i] + 1], b.coef[j, : db[j] + 1])

    if not np.all(np.isfinite(out)):
        raise ConfluentOverflowError(
            "non-finite coefficients from near-confluent partial fractions; "
            "loosen eps_merge so the colliding rates merge"
        )
    return _Table(rates, out, atom)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def convolve(f: ExpMix, g: ExpMix, *, eps_merge: float = EPS_MERGE,
             max_power: int = MAX_POWER) -> ExpMix:
    """Convolution ``(f * g)(t) = int_0^t f(s) g(t-s) ds`` plus atom rules.

    Computed by multiplying Laplace images and re-expanding in partial
    fractions; rates of the two operands within ``eps_merge`` (relative) are
    treated as the same pole.  Raises :class:`ConfluentOverflowError` when the
    confluent degree growth would exceed ``max_power``.
    """
    if max_power > POWER_LIMIT:
        raise ValueError(
            f"max_power={max_power} exceeds the representable limit {POWER_LIMIT}"
        )
    if f.is_zero() or g.is_zero():
        return ZERO
    universe = _universe_from_rates([f._arrays[2], g._arrays[2]], eps_merge)
    width = int(max([1] + [t.power + 1 for t in f.terms + g.terms]))
    ta = _table_from_mix(f, universe, width)
    tb = _table_from_mix(g, universe, width)
    return _table_to_mix(_table_convolve(ta, tb, max_power))


def simplex_convolve(fs: Sequence[ExpMix], *, eps_merge: float = EPS_MERGE,
                     max_power: int = MAX_POWER) -> ExpMix:
    """Iterated convolution of ``fs``; a single factor is returned unchanged.

    Equals the integral of the product of the factors over the simplex
    ``{t_i >= 0, sum t_i = t}``.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("simplex_convolve needs at least one factor")
    acc = fs[0]
    for g in fs[1:]:
        acc = convolve(acc, g, eps_merge=eps_merge, max_power=max_power)
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


def integrate_against_exp(f: ExpMix, m2: float) -> float:
    """``int_0^inf f(t) exp(-m2*t) dt`` including the atom; needs m2 > -min rate."""
    return laplace(f, m2)


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


def allclose(f: ExpMix, g: ExpMix, *, atol: float = 1e-12, rtol: float = 1e-9,
             eps_merge: float = EPS_MERGE) -> bool:
    """Structural comparison after joint rate clustering.

    Coefficients are compared per (rate cluster, power) with an absent term
    treated as zero; atoms are compared with the same tolerances.
    """
    diff = structural_max_diff(f, g, eps_merge=eps_merge)
    scale_ref = max(
        [abs(f.atom), abs(g.atom)]
        + [abs(t.coef) for t in f.terms]
        + [abs(t.coef) for t in g.terms]
        + [0.0]
    )
    return diff <= atol + rtol * scale_ref


def structural_max_diff(f: ExpMix, g: ExpMix, *, eps_merge: float = EPS_MERGE) -> float:
    """Max absolute coefficient difference after joint canonicalization."""
    universe = _universe_from_rates([f._arrays[2], g._arrays[2]], eps_merge) \
        if (f.terms or g.terms) else np.zeros(0)
    width = int(max([1] + [t.power + 1 for t in f.terms + g.terms]))
    if len(universe):
        ta = _table_from_mix(f, universe, width)
        tb = _table_from_mix(g, universe, width)
        dmat = float(np.abs(ta.coef - tb.coef).max())
    else:
        dmat = 0.0
    return max(dmat, abs(f.atom - g.atom))


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

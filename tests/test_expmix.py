from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gl_convolve_value
from heatglue import expmix as em
from heatglue.expmix import (
    ConfluentOverflowError,
    ExpMix,
    ExpTerm,
    allclose,
    convolve,
    convolve_exponential,
    cumulative,
    delta,
    evaluate,
    evaluate_grid,
    exponential,
    from_basis,
    from_dict,
    from_json,
    laplace,
    mix_sum,
    scale,
    simplex_convolve,
    to_dict,
    to_json,
)

EXACT = 1e-13
VALUE_TOL = 1e-11

# Values below were produced by scipy.integrate.quad applied to the defining
# integral int_0^t f(s) g(t-s) ds (reported quadrature error <= 9e-15).
QUAD_E1_E2 = {0.5: 0.23865121854119112, 1.0: 0.23254415793482963, 2.0: 0.1170196443478785}
QUAD_E1_E1 = {0.5: 0.30326532985631666, 1.0: 0.36787944117144233, 2.0: 0.2706705664732254}
QUAD_RAMP = {0.5: 0.2017690905052648, 1.0: 0.47307437242676853, 2.0: 0.7982364512334141}
QUAD_TRIPLE_T1 = 0.13533528323661267


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_terms_sorted_and_merged():
    f = ExpMix(0.0, ((1.0, 1, 2.0), (2.0, 0, 1.0), (3.0, 0, 2.0)))
    assert [(t.power, t.rate) for t in f.terms] == [(0, 1.0), (0, 2.0), (1, 2.0)]


def test_close_rates_collapse_to_mean():
    f = ExpMix(0.0, ((1.0, 0, 1.0), (1.0, 0, 1.0 + 1e-12)))
    assert len(f.terms) == 1
    assert f.terms[0].coef == 2.0
    assert f.terms[0].rate == pytest.approx(1.0 + 5e-13, abs=1e-15)


def test_distant_rates_stay_separate():
    f = ExpMix(0.0, ((1.0, 0, 1.0), (1.0, 0, 1.1)))
    assert len(f.terms) == 2


def test_zero_coefficients_dropped():
    f = ExpMix(0.0, ((0.0, 0, 1.0), (1.0, 0, 2.0), (-1.0, 0, 2.0)))
    assert f.terms == ()
    assert f.is_zero()


def test_canonicalization_idempotent():
    f = ExpMix(0.5, ((1.0, 2, 3.0), (0.25, 0, 0.0), (-2.0, 2, 3.0)))
    g = ExpMix(f.atom, f.terms)
    assert g == f


def test_rejects_bad_terms():
    with pytest.raises(ValueError):
        ExpTerm(1.0, 0, -0.5)
    with pytest.raises(ValueError):
        ExpTerm(1.0, -1, 0.5)
    with pytest.raises(ValueError):
        ExpTerm(math.nan, 0, 0.5)
    with pytest.raises(ValueError):
        ExpMix(math.inf)
    with pytest.raises(ConfluentOverflowError):
        ExpMix(0.0, ((1.0, em.POWER_LIMIT + 1, 1.0),))
    with pytest.raises(ConfluentOverflowError):
        ExpTerm(1.0, em.POWER_LIMIT + 1, 1.0)


def test_negative_zero_rate_normalized():
    assert ExpTerm(1.0, 0, -0.0).rate == 0.0
    f = ExpMix(0.0, ((1.0, 0, -0.0), (1.0, 0, 0.0)))
    assert len(f.terms) == 1


# ---------------------------------------------------------------------------
# evaluation folds
# ---------------------------------------------------------------------------


def test_evaluate_basic():
    f = ExpMix(5.0, ((2.0, 1, 1.0),))  # atom ignored by evaluate
    assert evaluate(f, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    grid = evaluate_grid(f, [0.5, 1.0, 2.0])
    assert grid[1] == pytest.approx(evaluate(f, 1.0), rel=1e-15)


def test_evaluate_rejects_nonpositive_time():
    f = exponential(1.0, 1.0)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            evaluate(f, t)
    with pytest.raises(ValueError):
        evaluate_grid(f, [1.0, 0.0])


def test_laplace_values_and_pole_guard():
    f = ExpMix(0.25, ((3.0, 2, 2.0),))
    # 0.25 + 3 * 2! / (s+2)^3 at s = 1
    assert laplace(f, 1.0) == pytest.approx(0.25 + 6.0 / 27.0, rel=1e-15)
    with pytest.raises(ValueError):
        laplace(f, -2.0)
    with pytest.raises(ValueError):
        laplace(f, -2.5)
    assert laplace(delta(2.0), -100.0) == 2.0


def test_cumulative_against_quadrature():
    f = ExpMix(0.75, ((1.5, 2, 3.0), (-0.5, 0, 0.0), (2.0, 5, 0.4)))
    nodes, weights = np.polynomial.legendre.leggauss(80)
    for t in (0.3, 1.7, 6.0):
        s = 0.5 * t * (nodes + 1.0)
        w = 0.5 * t * weights
        ref = 0.75 + float(np.dot(w, [evaluate(f, si) for si in s]))
        assert cumulative(f, t) == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_cumulative_tends_to_total_mass():
    f = ExpMix(0.0, ((1.0, 3, 2.0), (0.5, 0, 1.0)))
    assert cumulative(f, 200.0) == pytest.approx(laplace(f, 0.0), rel=1e-13)


# ---------------------------------------------------------------------------
# convolution against the frozen quadrature values
# ---------------------------------------------------------------------------


def test_convolve_distinct_rates_values():
    h = convolve(exponential(1.0, 1.0), exponential(1.0, 2.0))
    for t, ref in QUAD_E1_E2.items():
        assert evaluate(h, t) == pytest.approx(ref, abs=VALUE_TOL)
    # and the closed form it must equal structurally
    assert allclose(h, ExpMix(0.0, ((1.0, 0, 1.0), (-1.0, 0, 2.0))), atol=EXACT)


def test_convolve_equal_rates_values():
    h = convolve(exponential(1.0, 1.0), exponential(1.0, 1.0))
    for t, ref in QUAD_E1_E1.items():
        assert evaluate(h, t) == pytest.approx(ref, abs=VALUE_TOL)
    assert allclose(h, ExpMix(0.0, ((1.0, 1, 1.0),)), atol=EXACT)
    assert evaluate(h, 1.0) == pytest.approx(0.36787944117144233, abs=1e-15)


def test_convolve_ramp_against_zero_rate_mix():
    f = ExpMix(0.0, ((2.0, 1, 1.0),))
    g = ExpMix(0.0, ((1.0, 0, 3.0), (0.5, 0, 0.0)))
    h = convolve(f, g)
    for t, ref in QUAD_RAMP.items():
        assert evaluate(h, t) == pytest.approx(ref, abs=VALUE_TOL)


def test_simplex_convolve_triple():
    h = simplex_convolve([exponential(1.0, 1.0), exponential(1.0, 1.0), exponential(1.0, 2.0)])
    assert evaluate(h, 1.0) == pytest.approx(QUAD_TRIPLE_T1, abs=VALUE_TOL)


def test_simplex_convolve_single_and_empty():
    f = exponential(2.0, 1.0)
    assert simplex_convolve([f]) == f
    with pytest.raises(ValueError):
        simplex_convolve([])


def test_confluent_power_growth():
    f = ExpMix(0.0, ((1.0, 2, 1.0),))
    g = ExpMix(0.0, ((1.0, 3, 1.0),))
    h = convolve(f, g)
    # t^2 e^-t * t^3 e^-t = (2! 3! / 6!) t^6 e^-t
    assert allclose(h, ExpMix(0.0, ((1.0 / 60.0, 6, 1.0),)), atol=EXACT)


def test_delta_is_identity():
    f = ExpMix(0.5, ((1.0, 2, 3.0), (-2.0, 0, 1.0)))
    assert allclose(convolve(delta(), f), f, atol=0.0, rtol=0.0)
    assert allclose(convolve(f, delta()), f, atol=0.0, rtol=0.0)


def test_atom_scales_partner():
    f = ExpMix(2.0)  # 2 delta(t)
    g = ExpMix(0.5, ((1.0, 1, 1.0),))
    h = convolve(f, g)
    assert h.atom == pytest.approx(1.0)
    assert allclose(h, ExpMix(1.0, ((2.0, 1, 1.0),)), atol=EXACT)


def test_zero_annihilates():
    assert convolve(em.ZERO, exponential(1.0, 1.0)).is_zero()


def test_overflow_past_power_cap():
    f = ExpMix(0.0, ((1.0, 32, 1.0),))
    g = ExpMix(0.0, ((1.0, 33, 1.0),))
    with pytest.raises(ConfluentOverflowError):
        convolve(f, g)


def test_near_but_not_merged_rates_stay_accurate():
    eps = 1e-6
    h = convolve(exponential(1.0, 1.0), exponential(1.0, 1.0 + eps))
    ref = convolve(exponential(1.0, 1.0), exponential(1.0, 1.0))
    assert evaluate(h, 1.0) == pytest.approx(evaluate(ref, 1.0), abs=1e-5)


def test_polynomial_cross_pair_against_quadrature():
    f = ExpMix(0.0, ((1.0, 4, 0.5), (-0.5, 2, 0.5)))
    g = ExpMix(0.0, ((2.0, 3, 2.0), (1.0, 0, 4.0)))
    h = convolve(f, g)
    for t in (0.25, 1.0, 3.0):
        assert evaluate(h, t) == pytest.approx(gl_convolve_value(f, g, t), abs=1e-12)


# ---------------------------------------------------------------------------
# the convolution primitive
# ---------------------------------------------------------------------------

UNIVERSE = np.array([0.0, 0.5, 1.25, 3.0])


def test_convolve_exponential_confluent_row_moves_up_one_power():
    coef = np.zeros((4, 3))
    coef[2] = [0.7, -1.5, 2.0]
    out = convolve_exponential(coef, UNIVERSE, 2)
    expected = np.zeros((4, 4))
    expected[2, 1:] = coef[2]
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("row", [0, 1, 3])
def test_convolve_exponential_distinct_row_against_quadrature(row):
    coef = np.zeros((4, 3))
    coef[2] = [0.7, -1.5, 2.0]
    coef[0, 0] = 0.4
    out = convolve_exponential(coef, UNIVERSE, row)
    f = from_basis(coef, UNIVERSE)
    g = exponential(1.0, UNIVERSE[row])
    for t in (0.25, 1.0, 3.0):
        assert evaluate(from_basis(out, UNIVERSE), t) == pytest.approx(
            gl_convolve_value(f, g, t), abs=1e-12)


def test_convolve_exponential_batch_equals_single_calls():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(5, 4, 3))
    rows = np.array([0, 3, 1, 1, 2])
    out = convolve_exponential(coef, UNIVERSE, rows)
    for b, r in enumerate(rows):
        assert np.array_equal(out[b], convolve_exponential(coef[b], UNIVERSE, r))


def test_convolve_exponential_non_finite_raises():
    universe = np.array([1.0, 1.0 + 1e-8])
    coef = np.zeros((2, 41))
    coef[0, 40] = 1.0
    with pytest.raises(ConfluentOverflowError):
        convolve_exponential(coef, universe, 1)


# ---------------------------------------------------------------------------
# algebra laws under randomized inputs
# ---------------------------------------------------------------------------

_coefs = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-6 or x == 0.0)
_grid_rate = st.integers(0, 40).map(lambda k: k / 8.0)
_term = st.tuples(_coefs, st.integers(0, 3), _grid_rate)
_mix = st.builds(
    lambda atom, terms: ExpMix(atom, tuple(terms)),
    st.floats(-2.0, 2.0),
    st.lists(_term, min_size=0, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(_mix, _mix, st.floats(0.1, 3.0))
def test_convolution_matches_quadrature(f, g, t):
    h = convolve(f, g)
    scale_ref = max([1.0] + [abs(x.coef) for x in h.terms])
    got = evaluate(h, t) if h.terms else 0.0
    ref = gl_convolve_value(f, g, t)
    assert got == pytest.approx(ref, abs=1e-10 * scale_ref)


@settings(max_examples=60, deadline=None)
@given(_mix, _mix)
def test_laplace_turns_convolution_into_product(f, g):
    h = convolve(f, g)
    # partial-fraction coefficients can be large with cancellation; accuracy
    # is relative to that scale, not to the evaluated values
    scale_ref = max([1.0] + [abs(x.coef) for x in h.terms])
    for s in (0.5, 1.7, 4.0):
        assert laplace(h, s) == pytest.approx(
            laplace(f, s) * laplace(g, s), rel=1e-9, abs=1e-9 * scale_ref
        )


@settings(max_examples=60, deadline=None)
@given(_mix, _mix)
def test_convolution_commutes(f, g):
    assert allclose(convolve(f, g), convolve(g, f), atol=1e-12, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(_mix, _mix, _mix)
def test_convolution_associates(f, g, h):
    lhs = convolve(convolve(f, g), h)
    rhs = convolve(f, convolve(g, h))
    assert allclose(lhs, rhs, atol=1e-10, rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(_mix, _mix, _mix)
def test_convolution_distributes_over_sum(f, g, h):
    lhs = convolve(f, mix_sum([g, h]))
    rhs = mix_sum([convolve(f, g), convolve(f, h)])
    assert allclose(lhs, rhs, atol=1e-11, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(_mix, st.floats(-3.0, 3.0))
def test_scale_is_linear(f, c):
    assert allclose(scale(f, c), mix_sum([scale(f, c / 2.0), scale(f, c / 2.0)]),
                    atol=1e-13, rtol=1e-12)


@settings(max_examples=80, deadline=None)
@given(_mix)
def test_serialization_round_trip(f):
    assert from_dict(to_dict(f)) == f
    assert from_json(to_json(f)) == f


def test_json_schema_shape():
    f = ExpMix(0.5, ((1.5, 2, 3.0),))
    d = json.loads(to_json(f))
    assert d == {"atom": 0.5, "terms": [{"coef": 1.5, "power": 2, "rate": 3.0}]}
    with pytest.raises(ValueError):
        from_dict({"terms": []})

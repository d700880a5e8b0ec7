"""Tests for the 1D heat kernels and the gluing and cutting checks."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_python
from heatglue import heat1d as h

SQRT_4PI = math.sqrt(4.0 * math.pi)


def at_times(pulses, taus):
    """An image sum at each of the times taus, image by image and added by
    math.fsum, 0 at a time <= 0; a density h_0, the delta, is 0 at every
    positive time."""
    def one(tau):
        if tau <= 0.0:
            return 0.0
        scale = 1.0 / math.sqrt(4.0 * math.pi * tau)
        if pulses.kind == "h":
            scale /= tau
        return math.fsum(w * (d if pulses.kind == "h" else 1.0)
                         * math.exp(-d * d / (4.0 * tau)) * scale
                         for d, w in zip(pulses.d.tolist(), pulses.w.tolist()))

    return np.array([one(tau) for tau in np.atleast_1d(taus).tolist()])


def convolution(f, g, t, tol):
    """(f * g)(t) = int_0^t f(s) g(t - s) ds and an estimate of its error,
    by scipy's adaptive quadrature to absolute tolerance ``tol``; f and g
    are image sums (:func:`at_times`) or take arrays of times.  Each half
    of (0, t) is taken in u with s = u^2 from its end, which removes the
    s^(-1/2) of a Gaussian pulse at distance 0 there."""
    f, g = ((lambda taus, s=s: at_times(s, taus))
            if isinstance(s, h._ImageSum) else s for s in (f, g))

    def at(a, b):
        return lambda u: 2.0 * u * float(a(np.array([u * u]))[0]
                                         * b(np.array([t - u * u]))[0])

    parts = [scipy.integrate.quad(part, 0.0, math.sqrt(0.5 * t),
                                  epsabs=0.5 * tol, epsrel=0.0, limit=200)
             for part in (at(f, g), at(g, f))]
    return sum(v for v, _ in parts), sum(e for _, e in parts)


def gauss_integral(f, a, b, n=200):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    z = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(weights * np.array([f(v) for v in z])))


def laplace_in_time(kernel, m, umax=8.0, n=400):
    """Numeric transform int_0^inf e^(-m^2 t) kernel(t) dt via t = u^2."""
    return gauss_integral(
        lambda u: 2.0 * u * math.exp(-m * m * u * u) * kernel(u * u),
        0.0, umax, n)


# each gluing or cutting route returns (value, bound); its residual is
# taken here against the check the command line reports, and so against
# the same reference


def echo_series(L1, L2, x, y, t, n_max):
    """Route II's value and bound, and its residual against glue_direct."""
    value, bound = h.glue_intervals_II(L1, L2, x, y, t, n_max)
    return value, bound, abs(value - h.glue_direct(L1, L2, x, y, t))


def rays(x, y, t):
    """The glued rays' value and bound, and the residual against the
    Gaussian closed form."""
    value, bound = h.glue_rays(x, y, t)
    closed = math.exp(-((x + y) ** 2) / (4.0 * t)) \
        / math.sqrt(4.0 * math.pi * t)
    return value, bound, abs(value - closed)


def circle_cut(L, cuts, x, y, t, k_max):
    """The cut's value and bound, and its residual against arc_direct."""
    value, bound = h.cut_circle_to_arc(L, cuts, x, y, t, k_max)
    return value, bound, abs(value - h.arc_direct(L, cuts, x, y, t))


# ---------------------------------------------------------------------------
# the closed form on the line
# ---------------------------------------------------------------------------


def test_line_kernel_peak_value():
    assert abs(h.k_line(0.3, 0.3, 1.0) - 1.0 / SQRT_4PI) < 1e-15


def test_line_kernel_symmetry():
    assert h.k_line(0.2, 1.4, 0.7) == h.k_line(1.4, 0.2, 0.7)


def test_line_kernel_laplace_transform():
    for x, y in [(0.0, 0.7), (1.2, 0.4)]:
        got = laplace_in_time(lambda t: h.k_line(x, y, t), 1.0)
        assert abs(got - 0.5 * math.exp(-abs(x - y))) < 1e-10


def test_time_validation():
    for t in (0.0, -0.5):
        with pytest.raises(ValueError, match="t must be"):
            h.k_line(0.0, 0.0, t)


# ---------------------------------------------------------------------------
# interval kernel, both representations
# ---------------------------------------------------------------------------


def test_interval_representations_agree_at_reference_point():
    vi, bi = h.k_interval(1.0, 0.3, 0.7, 0.5, "images")
    vs, bs = h.k_interval(1.0, 0.3, 0.7, 0.5, "spectral")
    assert abs(vi - vs) < 1e-12
    assert bi >= 0.0 and bs >= 0.0


def test_interval_vanishes_at_dirichlet_ends():
    for rep in ("images", "spectral"):
        v0, b0 = h.k_interval(1.0, 0.0, 0.4, 0.3, rep)
        vL, bL = h.k_interval(1.0, 0.6, 1.0, 0.3, rep)
        assert abs(v0) <= b0 + 1e-15
        assert abs(vL) <= bL + 1e-15


def test_interval_large_time_is_dominated_by_the_slowest_mode():
    L, x, y, t = 1.0, 0.3, 0.6, 4.0
    v, _ = h.k_interval(L, x, y, t, "spectral")
    lead = (2.0 / L) * math.exp(-math.pi**2 * t / L**2) \
        * math.sin(math.pi * x / L) * math.sin(math.pi * y / L)
    assert abs(v - lead) < 1e-4 * abs(lead)


@settings(max_examples=60, deadline=None)
@given(
    L=st.floats(0.5, 2.0),
    t=st.floats(0.05, 5.0),
    xf=st.floats(0.0, 1.0),
    yf=st.floats(0.0, 1.0),
)
def test_interval_representation_duality(L, t, xf, yf):
    vi, _ = h.k_interval(L, xf * L, yf * L, t, "images")
    vs, _ = h.k_interval(L, xf * L, yf * L, t, "spectral")
    assert abs(vi - vs) < 1e-11


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.5, 2.0),
    t=st.floats(0.05, 5.0),
    xf=st.floats(0.0, 1.0),
    yf=st.floats(0.0, 1.0),
)
def test_interval_positivity_within_bound(L, t, xf, yf):
    v, b = h.k_interval(L, xf * L, yf * L, t, "auto")
    assert v >= -b - 1e-15


def test_interval_semigroup_composition():
    L, x, y = 1.0, 0.3, 0.8
    for t1, t2 in [(0.2, 0.3), (0.5, 1.1)]:
        composed = gauss_integral(
            lambda z: h.k_interval(L, x, z, t1, "auto")[0]
            * h.k_interval(L, z, y, t2, "auto")[0], 0.0, L)
        direct, _ = h.k_interval(L, x, y, t1 + t2, "auto")
        assert abs(composed - direct) < 1e-8


def test_interval_auto_switches_representation_smoothly():
    L = 1.0
    below = L * L / math.pi * 0.999
    above = L * L / math.pi * 1.001
    va, _ = h.k_interval(L, 0.4, 0.5, below, "auto")
    vb, _ = h.k_interval(L, 0.4, 0.5, above, "auto")
    assert abs(va - vb) < 5e-3


# ---------------------------------------------------------------------------
# circle kernel
# ---------------------------------------------------------------------------


def test_circle_representations_agree():
    for L, xy, t in [(2.0, (0.2, 1.5), 0.15), (2.0, (0.2, 1.5), 2.0),
                     (1.0, (0.9, 0.05), 0.4)]:
        vi, _ = h.k_circle(L, xy[0], xy[1], t, "images")
        vs, _ = h.k_circle(L, xy[0], xy[1], t, "spectral")
        assert abs(vi - vs) < 1e-12


def test_circle_wraparound_symmetry():
    v1, _ = h.k_circle(2.0, 0.1, 1.9, 0.3)
    v2, _ = h.k_circle(2.0, 0.1, -0.1, 0.3)
    assert abs(v1 - v2) < 1e-15


def test_circle_mass_is_conserved():
    total = gauss_integral(
        lambda z: h.k_circle(2.0, 0.3, z, 0.7, "auto")[0], 0.0, 2.0)
    assert abs(total - 1.0) < 1e-10


def test_circle_semigroup_composition():
    L, x, y = 2.0, 0.3, 1.2
    for t1, t2 in [(0.2, 0.4), (0.9, 0.6)]:
        composed = gauss_integral(
            lambda z: h.k_circle(L, x, z, t1, "auto")[0]
            * h.k_circle(L, z, y, t2, "auto")[0], 0.0, L)
        direct, _ = h.k_circle(L, x, y, t1 + t2, "auto")
        assert abs(composed - direct) < 1e-8


# ---------------------------------------------------------------------------
# evaluation budget and dispatch
# ---------------------------------------------------------------------------


def test_kernel_dispatch_and_validation():
    # "auto" takes the image sum below t = L^2/pi and the mode sum above
    for t, rep in ((0.2, "images"), (0.5, "spectral")):
        assert h.k_interval(1.0, 0.3, 0.7, t) == h.k_interval(1.0, 0.3, 0.7, t, rep)
    for kernel in (lambda rep: h.k_interval(1.0, 0.3, 0.7, 0.5, rep),
                   lambda rep: h.k_circle(1.0, 0.3, 0.7, 0.5, rep)):
        with pytest.raises(ValueError, match="unknown representation"):
            kernel("modal")
    # a point off the circle has no wrapped difference, in either form
    for rep in ("images", "spectral"):
        with pytest.raises(ValueError, match="finite"):
            h.k_circle(1.0, math.nan, 0.7, 0.5, rep)
        with pytest.raises(ValueError, match="finite"):
            h.k_circle(1.0, 0.3, math.inf, 0.5, rep)


def test_a_sum_past_the_term_budget_raises_before_forming_any_array():
    # about 2.1e7 modes at t = 1e-13 and 9.4e6 images at t = 1e12, both
    # past the 2^22 terms of the budget: refused at once, not summed; route
    # I and its reference alike (the reference at t = 1e10 took 1.1 GB)
    for call in (lambda: h.interface_two_intervals(1.0, 2.0, 1e-13, "residues"),
                 lambda: h.interface_two_intervals(1.0, 2.0, 1e12, "poisson"),
                 lambda: h.k_interval(1.0, 0.3, 0.7, 1e-13, "spectral"),
                 lambda: h.k_circle(1.0, 0.3, 0.7, 1e12, "images"),
                 lambda: h.glue_intervals_I(0.05, 0.05, 0.02, 0.03, 1e4),
                 lambda: h.glue_direct(1.0, 0.01, 0.005, 0.005, 1e10)):
        start = time.perf_counter()
        with pytest.raises(h.TruncationError, match="past the budget") as info:
            call()
        assert time.perf_counter() - start < 0.1
        assert info.value.achievable == math.inf


def test_the_term_budget_counts_the_modes_a_sum_keeps(monkeypatch):
    # the modes with q k^2 <= q + 50 are kept, 22 at q = pi^2 / 100
    q = math.pi**2 * 0.01
    kept = sum(1 for k in range(1, 100) if q * k * k <= q + 50.0)
    assert kept == 22
    monkeypatch.setattr(h, "_MAX_IMAGES", kept)
    h.k_interval(1.0, 0.3, 0.7, 0.01, "spectral")
    monkeypatch.setattr(h, "_MAX_IMAGES", kept - 1)
    with pytest.raises(h.TruncationError, match="past the budget"):
        h.k_interval(1.0, 0.3, 0.7, 0.01, "spectral")
    # the images within _reach(t) = 10 of each family's nearest one at
    # t = 0.5, x - y = -0.4 and x + y = 1 on the lattice 2L, 11 + 12 of them
    ns = range(-50, 51)
    kept = sum(1 for offset in (-0.4, 1.0) for n in ns
               if abs(offset + 2.0 * n) <= 10.0 + min(abs(offset + 2.0 * k)
                                                      for k in ns))
    assert kept == 23
    monkeypatch.setattr(h, "_MAX_IMAGES", kept)
    h.k_interval(1.0, 0.3, 0.7, 0.5, "images")
    monkeypatch.setattr(h, "_MAX_IMAGES", kept - 1)
    with pytest.raises(h.TruncationError, match="past the budget"):
        h.k_interval(1.0, 0.3, 0.7, 0.5, "images")


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(-0.5, 0.5), st.integers(-10**6, 10**6),
       st.floats(0.0, 20.0), st.none() | st.integers(-25, 25))
def test_lattice_keeps_the_integers_an_enumeration_keeps(period, frac, turns,
                                                         periods, first):
    # the n with |offset + n period| <= cut, from first on: at an offset of
    # up to 1e6 periods, all of them, and no other, save the images that
    # lie within rounding of the cut
    offset, cut = (frac + turns) * period, periods * period
    family = (offset, period, cut) + (() if first is None else (first,))
    (got,) = h._lattice([family], "lattice")
    near = -round(offset / period)
    slack = 8.0 * 2.0**-53 * (abs(offset) + cut + period)
    kept, left = set(), set()
    for n in range(near - 25, near + 26):
        d = abs(offset + n * period)
        if (first is not None and n < first) or d > cut + slack:
            left.add(n)
        elif d <= cut - slack:
            kept.add(n)
    got = got.tolist()
    assert all(b == a + 1 for a, b in zip(got, got[1:]))
    assert kept <= set(got) and not left & set(got)


U = 2.0**-53


def exact_images(t, period, families):
    """(4 pi t)^(-1/2) sum_f sign_f sum_n exp(-(offset_f + n period)^2/4t)
    in 50 digits, each family out to sqrt(1200 t) past its nearest image,
    where the images left out are below e^-300 of it."""
    with mp.workdps(50):
        t, period = mp.mpf(t), mp.mpf(period)
        total = mp.mpf(0)
        span = int(mp.sqrt(1200 * t) / period) + 2
        for offset, sign in families:
            offset = mp.mpf(offset)
            n0 = int(mp.nint(-offset / period))
            total += sign * mp.fsum(
                mp.exp(-(offset + n * period) ** 2 / (4 * t))
                for n in range(n0 - span, n0 + span + 1))
        return total / mp.sqrt(4 * mp.pi * t)


def exact_modes(q, amplitude, scale):
    """scale sum_k amplitude(k) exp(-q k^2) in 50 digits, out to the modes
    below e^-300 of the first."""
    with mp.workdps(50):
        return scale * mp.fsum(mp.exp(-q * k * k) * amplitude(k)
                               for k in range(1, int(mp.sqrt(1 + 300 / q)) + 2))


def exact_interval(L, x, y, t):
    """The Dirichlet kernel of [0, L] at the float inputs, in 50 digits: the
    image sum for t <= L^2, the sine modes beyond."""
    with mp.workdps(50):
        L, x, y, t = (mp.mpf(v) for v in (L, x, y, t))
        if t <= L * L:
            return exact_images(t, 2 * L, ((x - y, 1), (x + y, -1)))
        return exact_modes(mp.pi**2 * t / L**2, lambda k: mp.sin(
            mp.pi * k * x / L) * mp.sin(mp.pi * k * y / L), 2 / L)


def exact_circle(L, x, y, t):
    """The periodic kernel of circumference L in 50 digits, likewise."""
    with mp.workdps(50):
        L, x, y, t = (mp.mpf(v) for v in (L, x, y, t))
        if t <= L * L:
            return exact_images(t, L, ((x - y, 1),))
        return 1 / L + exact_modes(4 * mp.pi**2 * t / L**2, lambda k: mp.cos(
            2 * mp.pi * k * (x - y) / L), 2 / L)


def image_allowance(t, period, families, length):
    """Rounding allowance of a float image sum over the images it keeps,
    each family within _reach(t) of its nearest image:
    U sum_i |g_i| (7 E_i + 4 length |d_i| / t + 8 + 2 log2 N), E_i = d_i^2/4t.

    A distance d = offset + n period, each of its inputs within length of
    the domain, is off by at most U (3 |d| + 4 length), which moves E by at
    most U (6 E + 2 length |d| / t); forming E, exp and the prefactor add
    at most 6 U per image and the pairwise sum of N terms 2 log2 N.  An
    image that underflows is off by at most the least subnormal, 2^-1074,
    times the prefactor."""
    reach = h._reach(t)
    total, count = 0.0, 0
    for offset, _ in families:
        near = abs(offset - period * round(offset / period))
        n = np.arange(math.ceil((-near - reach - offset) / period),
                      math.floor((near + reach - offset) / period) + 1)
        d = np.abs(offset + n * period)
        e = np.square(d) / (4.0 * t)
        total += float(np.sum(np.exp(-e) * (7.0 * e + 4.0 * length * d / t)))
        total += 8.0 * float(np.sum(np.exp(-e)))
        count += n.size
        total += 2.0 * math.log2(count) * float(np.sum(np.exp(-e)))
    return (U * total + count * 2.0**-1074) / math.sqrt(4.0 * math.pi * t)


def mode_allowance(q, scale):
    """Rounding allowance of a float mode sum over the modes it keeps,
    q k^2 <= q + 50, with amplitudes products of sines or a cosine of
    arguments at most pi k: U scale sum_k e^(-q k^2) (7 q k^2 + 20 pi k
    + 8 + 2 log2 K).  q is off by at most 5 U and the exponent by 7 U q k^2;
    each argument is off by at most 10 U pi k, which moves an amplitude of
    modulus at most 1 by as much (twice for a product); the rest as for
    the images."""
    K = int(math.sqrt(1.0 + 50.0 / q))
    k = np.arange(1.0, K + 1.0)
    return scale * (U * float(np.sum(np.exp(-q * k * k) * (
        7.0 * q * k * k + 20.0 * math.pi * k + 8.0 + 2.0 * math.log2(K))))
        + K * 2.0**-1074)


def bound_cases(seed, count):
    """Seeded (L, x, y, t): L from 0.05 to 20 and t from 1e-4 to 1e3, both
    log-uniform, and the points drawn, on a wall, at x = y and far apart
    in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        L = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        t = float(np.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
        x, y = (float(v) for v in rng.uniform(0.0, L, 2))
        x, y = [(x, y), (0.0, y), (x, L), (x, x), (0.02 * L, 0.98 * L)][i % 5]
        yield L, x, y, t


def test_interval_and_circle_bounds_hold_in_fifty_digits():
    # the float value lies within its truncation bound plus the stated
    # rounding allowance of the infinite sum, in both forms
    for L, x, y, t in bound_cases(25, 120):
        want = exact_interval(L, x, y, t)
        for rep, allowance in (
                ("images", image_allowance(t, 2.0 * L, ((x - y, 1.0),
                                                        (x + y, -1.0)), L)),
                ("spectral", mode_allowance(math.pi**2 * t / L**2, 2.0 / L))):
            value, bound = h.k_interval(L, x, y, t, rep)
            assert abs(value - want) <= bound + allowance, (L, x, y, t, rep)
        want = exact_circle(L, x, y, t)
        d = h._wrap_diff(x - y, L)
        for rep, allowance in (
                ("images", image_allowance(t, L, ((d, 1.0),), L)),
                # and 1/L plus the modes rounds 1/L and the sum once each
                ("spectral", mode_allowance(4.0 * math.pi**2 * t / L**2,
                                            2.0 / L) + U * (1.0 / L + want))):
            value, bound = h.k_circle(L, x, y, t, rep)
            assert abs(value - want) <= bound + allowance, (L, x, y, t, rep)


def test_interface_bounds_hold_in_fifty_digits():
    rng = np.random.default_rng(26)
    for _ in range(60):
        L1, L2 = (float(v) for v in np.exp(rng.uniform(math.log(0.05),
                                                       math.log(20.0), 2)))
        t = float(np.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
        S = L1 + L2
        with mp.workdps(50):
            want = exact_interval(mp.mpf(L1) + mp.mpf(L2), L1, L1, t)
        poisson = ((0.0, 1.0), (2.0 * L1, -1.0))
        for form, allowance in (
                ("residues", mode_allowance(math.pi**2 * t / S**2, 2.0 / S)),
                ("poisson", image_allowance(t, 2.0 * S, poisson, S))):
            value, bound = h.interface_two_intervals(L1, L2, t, form)
            assert abs(value - want) <= bound + allowance, (L1, L2, t, form)


def test_residues_at_small_t_give_the_junction_density():
    # 6.7e5 modes, past the 200,000 terms the series were once capped at:
    # the density (4 pi t)^(-1/2) = 28209.479... of the free peak
    t = 1e-10
    value, bound = h.interface_two_intervals(1.0, 2.0, t, "residues")
    want = exact_images(t, 6.0, ((0.0, 1.0), (2.0, -1.0)))
    assert abs(value - want) <= bound + mode_allowance(math.pi**2 * t / 9.0,
                                                       2.0 / 3.0)
    assert abs(value - 28209.479177387813) < 1e-6


def test_tiny_kernels_keep_their_relative_accuracy():
    # e^-160 below the prefactor: each family is cut relative to its
    # nearest image, where a cut at an absolute e^-50 would leave 0
    value, bound = h.k_circle(2.0, 0.1, 0.9, 0.001)
    want = exact_circle(2.0, 0.1, 0.9, 0.001)
    assert value == 2.9058819242011834e-69
    assert abs(value - want) <= 1e-13 * want and bound <= 1e-20 * want
    value = h.arc_direct(2.0, (0.0, 1.0), 0.1, 0.9, 0.001)
    want = exact_interval(1.0, 0.1, 0.9, 0.001)
    assert abs(value - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# interface kernel of two joined intervals
# ---------------------------------------------------------------------------


def test_interface_forms_agree_at_reference_point():
    vr, _ = h.interface_two_intervals(1.0, 1.0, 0.3, "residues")
    vp, _ = h.interface_two_intervals(1.0, 1.0, 0.3, "poisson")
    assert abs(vr - vp) < 1e-12


@pytest.mark.parametrize("L1,L2", [(0.5, 0.5), (0.5, 2.0), (2.0, 1.0)])
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 3.0])
def test_interface_forms_agree_on_grid(L1, L2, t):
    vr, _ = h.interface_two_intervals(L1, L2, t, "residues")
    vp, _ = h.interface_two_intervals(L1, L2, t, "poisson")
    assert abs(vr - vp) < 1e-12


def test_interface_is_the_joint_kernel_at_the_junction():
    for L1, L2, t in [(1.0, 1.0, 0.3), (0.7, 1.4, 0.8), (2.0, 0.5, 0.1)]:
        vi, _ = h.interface_two_intervals(L1, L2, t, "residues")
        vk, _ = h.k_interval(L1 + L2, L1, L1, t, "auto")
        assert abs(vi - vk) < 1e-13


def test_interface_equal_sides_kill_even_modes():
    # with L1 = L2 = L the series is the length-2L kernel at its midpoint,
    # where sin(pi k / 2) removes every even mode
    for L, t in [(1.0, 0.4), (0.8, 1.3)]:
        vi, _ = h.interface_two_intervals(L, L, t, "residues")
        vk, _ = h.k_interval(2.0 * L, L, L, t, "spectral")
        assert abs(vi - vk) < 1e-13


def test_interface_short_time_limit_is_the_free_peak():
    t = 1e-4
    v, _ = h.interface_two_intervals(1.0, 1.0, t, "poisson")
    assert abs(v * math.sqrt(4.0 * math.pi * t) - 1.0) < 1e-12


def test_interface_form_validation():
    with pytest.raises(ValueError, match="form"):
        h.interface_two_intervals(1.0, 1.0, 0.3, "modal")


# ---------------------------------------------------------------------------
# gluing two intervals, image-resummation route
# ---------------------------------------------------------------------------


def test_glue_intervals_reference_point():
    v = h.glue_intervals_I(1.0, 1.0, 0.4, 0.6, 0.7)
    direct = h.glue_direct(1.0, 1.0, 0.4, 0.6, 0.7)
    assert abs(v - direct) < 1e-12


@pytest.mark.parametrize("L1,L2,x,y,t", [
    (1.0, 2.0, 5 / 3, 5 / 3, 0.2), (1.0, 2.0, 4 / 3, 5 / 3, 0.2),
    (1.0, 1.0, 0.4, 0.6, 0.7), (0.6, 1.3, 0.2, 1.1, 0.05),
    (1.0, 1.0, 0.5, 0.5, 2.0), (2.0, 0.4, 0.0, 0.3, 0.01)])
def test_direct_difference_matches_forty_digits(L1, L2, x, y, t):
    # K_S - K_L2 in 40 digits at the joint points L1 + x, L1 + y taken
    # exactly; two kernel values differenced in floating point miss it by
    # 3.3e-16 at the first case, 5.7e-10 of its correction 5.8e-7
    got = h.glue_direct(L1, L2, x, y, t)
    with mp.workdps(40):
        L1, L2, x, y, t = (mp.mpf(v) for v in (L1, L2, x, y, t))

        def kernel(L, p, q):
            return mp.fsum(mp.exp(-(p - q + 2 * k * L) ** 2 / (4 * t))
                           - mp.exp(-(p + q + 2 * k * L) ** 2 / (4 * t))
                           for k in range(-60, 61)) / mp.sqrt(4 * mp.pi * t)

        want = kernel(L1 + L2, L1 + x, L1 + y) - kernel(L2, x, y)
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("L1,L2,x,y,t", [
    (7.748908902871454, 2.8213163033739366, 0.047089546858612316,
     0.04107829463208869, 0.00038250662773810836),
    (3.0, 5.0, 0.01, 0.02, 1e-4), (1.0, 10.0, 0.003, 0.001, 1e-5),
    (0.5, 4.0, 0.0, 0.05, 2e-4), (2.0, 3.3, 0.11, 0.07, 3e-3),
    (0.9, 6.1, 0.02, 0.0, 5e-4)])
def test_direct_difference_near_the_junction_matches_fifty_digits(L1, L2, x,
                                                                  y, t):
    # at small t near the junction the correction is about g_(x+y)(t), the
    # image at x + y; formed as (x + y - 2 L2) + 2 L2 it lost x + y to
    # rounding at the scale of 2 L2 and missed by 8.5e-15 to 2.7e-13 of
    # the value here (4.5e-15 absolute at the first case), formed directly
    # it misses by at most 4.7e-16
    got = h.glue_direct(L1, L2, x, y, t)
    with mp.workdps(50):
        L1, L2, x, y, t = (mp.mpf(v) for v in (L1, L2, x, y, t))

        def kernel(L, p, q):
            return mp.fsum(mp.exp(-(p - q + 2 * k * L) ** 2 / (4 * t))
                           - mp.exp(-(p + q + 2 * k * L) ** 2 / (4 * t))
                           for k in range(-20, 21)) / mp.sqrt(4 * mp.pi * t)

        want = kernel(L1 + L2, L1 + x, L1 + y) - kernel(L2, x, y)
        assert abs(got - want) <= 2e-15 * abs(want)


def test_glue_intervals_junction_point_equals_interface():
    for L1, L2, t in [(1.0, 2.0, 0.4), (0.6, 0.9, 1.1)]:
        v = h.glue_intervals_I(L1, L2, 0.0, 0.0, t)
        vi, _ = h.interface_two_intervals(L1, L2, t, "poisson")
        assert abs(v - vi) < 1e-14


def test_glue_intervals_short_time_residual():
    res = abs(h.glue_intervals_I(1.0, 1.0, 0.2, 0.8, 0.01)
              - h.glue_direct(1.0, 1.0, 0.2, 0.8, 0.01))
    assert res < 1e-10


def test_glue_intervals_side_grid():
    for t in (0.2, 0.7, 2.0):
        for x in np.linspace(0.0, 2.0, 5):
            res = abs(h.glue_intervals_I(1.0, 2.0, float(x), 1.3, t)
                      - h.glue_direct(1.0, 2.0, float(x), 1.3, t))
            assert res < 1e-8


def test_glue_intervals_domain_validation():
    with pytest.raises(ValueError, match="lie in"):
        h.glue_intervals_I(1.0, 1.0, 1.2, 0.5, 0.3)
    with pytest.raises(ValueError, match="lie in"):
        h.glue_direct(1.0, 1.0, 1.2, 0.5, 0.3)
    with pytest.raises(ValueError, match="positive"):
        h.glue_direct(1.0, 1.0, 0.2, 0.5, 0.0)


def test_reflection_sum_is_the_route_I_value():
    # several depth pairs on one junction sum, each as on its own
    for L1, L2, x, y, t in [(1.0, 1.3, 0.3, 0.9, 0.5), (0.6, 2.0, 0.0, 1.7, 2.0),
                            (2.0, 0.4, 0.4, 0.1, 0.01)]:
        values = h._route_I(L1, L2, t, [(x, y), (y, x), (0.0, 0.0)])
        assert values == [h.glue_intervals_I(L1, L2, *depths, t)
                          for depths in ((x, y), (y, x), (0.0, 0.0))]


def reflection_legs(z, L, K):
    """The signed legs of the flux pulse at depth z, k = -K .. K, as route I
    built them before its pair was taken in closed form."""
    if z == 0.0:
        return np.array([0.0]), np.array([1.0])
    vals = z + 2.0 * np.arange(-K, K + 1) * L
    return np.abs(vals), np.sign(vals)


def flux_pair(L, x, y, t_max):
    """The flux pair out to _reach(t_max), as route II takes it."""
    reach = h._reach(t_max)
    return h._ImageSum("h", *h._flux_pair(L, x, y, reach), reach)


def merged_pair(L, x, y, Kx, Ky, reach=math.inf):
    """The pair as the merged outer sum of its two pulses' legs."""
    (a, s), (b, r) = reflection_legs(x, L, Kx), reflection_legs(y, L, Ky)
    return unique_merge(np.add.outer(a, b), np.outer(s, r), reach)


def dyadic_depths():
    """(L, x, y) on a grid of 1/64, where every leg and every sum of two
    legs is exact, so that the legs' outer sum merges each family's images
    exactly: seeded draws, then x or y at 0 and at L, and x = y."""
    rng = np.random.default_rng(18)
    for _ in range(40):
        n = int(rng.integers(16, 129))
        x, y = rng.integers(0, n + 1, 2)
        yield n / 64, x / 64, y / 64
    for n, k in ((64, 23), (100, 37), (128, 64)):
        L, z = n / 64, k / 64
        for x, y in ((0.0, z), (z, 0.0), (0.0, 0.0), (L, z), (z, L),
                     (L, L), (0.0, L), (z, z)):
            yield L, x, y


def test_closed_form_pair_is_the_merged_outer_sum():
    # the same distances and integer weights as the merged outer sum of
    # the legs, cut at a distance: at dyadic cuts, where images lie on the
    # cut, and at route II's reach; legs past the cut are never needed
    for L, x, y in dyadic_depths():
        for cut in (3.0 * L, 5.5 * L,
                    *(h._reach(t) for t in (0.05, 0.7, 2.0))):
            K = int(cut / (2.0 * L)) + 2
            want_d, want_w = merged_pair(L, x, y, K, K, cut)
            got = h._ImageSum("h", *h._flux_pair(L, x, y, cut))
            assert got.d.tobytes() == want_d.tobytes(), (L, x, y, cut)
            assert got.w.tobytes() == want_w.tobytes(), (L, x, y, cut)


def einsum_route_I(L1, L2, x, y, t, eps_abs=1e-12):
    """Route I as the signed Gaussian triple sum over the legs of x, the
    junction images and the legs of y, reduced by one einsum: the form the
    bilinear image sum replaced."""
    S = L1 + L2
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(256.0 * pref / eps_abs))) + 2.0 * S
    a0, s0 = reflection_legs(x, L2, int(acut / (2.0 * L2)) + 2)
    a2, s2 = reflection_legs(y, L2, int(acut / (2.0 * L2)) + 2)
    ns = np.arange(-(int(acut / (2.0 * S)) + 2), int(acut / (2.0 * S)) + 3)
    dmid = np.concatenate([2.0 * S * np.abs(ns), 2.0 * np.abs(L1 + ns * S)])
    smid = np.concatenate([np.ones(ns.size), -np.ones(ns.size)])
    total = a0[:, None, None] + dmid[None, :, None] + a2[None, None, :]
    gauss = np.exp(-np.square(total) / (4.0 * t))
    return pref * float(np.einsum("i,j,k,ijk->", s0, smid, s2, gauss))


def test_route_I_matches_the_triple_sum():
    # the same images summed, so the two differ by rounding only
    rng = np.random.default_rng(7)
    for i in range(500):
        L1, L2 = rng.uniform(0.5, 2.0, 2)
        x, y = rng.uniform(0.0, L2, 2)
        if i % 10 == 0:
            x, y = [(0.0, y), (x, L2), (x, x), (0.0, 0.0), (L2, L2)][i // 10 % 5]
        t = rng.uniform(0.05, 2.0)
        value = h.glue_intervals_I(L1, L2, x, y, t)
        assert abs(value - einsum_route_I(L1, L2, x, y, t)) <= 1e-15, \
            (L1, L2, x, y, t)


# ---------------------------------------------------------------------------
# gluing two intervals, echo-series route
# ---------------------------------------------------------------------------


def echo_rate(L, t):
    """Sharp-pulse form of the round trips, before flat smoothing: its
    convolution with the flat pulse 1/sqrt(4 pi t) is the echo pulse."""
    tp = np.asarray(t, dtype=float)
    kcap = int(math.ceil(math.sqrt(70.0 * float(tp.max())) / L)) + 2
    kk = np.square(np.arange(1.0, kcap + 1.0)[:, None] * L)
    pulses = (2.0 / SQRT_4PI) * (2.0 * kk / tp - 1.0) * np.exp(-kk / tp)
    return pulses.sum(axis=0) * tp**-1.5


def test_echo_density_two_routes_agree():
    got, _ = convolution(h._G0, lambda tau: echo_rate(1.0, tau), 1.0, 1e-11)
    direct = float(at_times(h._echo_pulse(1.0, 1.0), 1.0)[0])
    term_sum = 2.0 * sum(
        k * math.exp(-k * k) for k in range(1, 12)) / SQRT_4PI
    assert abs(direct - term_sum) < 1e-15
    assert abs(got - direct) < 1e-9


def test_echo_series_reference_point():
    v, tail, res = echo_series(1.0, 1.0, 0.4, 0.6, 0.7, 6)
    assert res < max(1e-6, tail)
    assert tail < 1e-5


@pytest.mark.parametrize("L1,L2,x,y,t", [(1.0, 2.0, 1 / 3, 1 / 3, 0.7),
                                         (1.0, 1.0, 1 / 6, 1 / 6, 0.2)])
def test_echo_series_bound_covers_its_residual(L1, L2, x, y, t):
    # at n_max 8 the truncation tail is negligible here (2.0e-51 and
    # 5.0e-174); the rounding part, 4.8e-16 and 7.3e-16, covers the
    # residuals 5.6e-17 and 0
    _, bound, res = echo_series(L1, L2, x, y, t, 8)
    assert res <= bound


def test_echo_series_bound_covers_its_residual_on_the_gate_08_sweep():
    # the cases of gate 08 at three orders; the largest residual/bound
    # among them is 0.094
    for n_max in (4, 6, 8):
        for L1, L2 in ((1.0, 1.0), (1.0, 2.0)):
            zs = [L2 * i / 6.0 for i in range(1, 6)]
            for x in zs:
                for y in zs:
                    for t in (0.2, 0.7, 2.0):
                        _, bound, res = echo_series(L1, L2, x, y, t, n_max)
                        assert res <= bound, (n_max, L1, L2, x, y, t)


@pytest.mark.parametrize("L,x,y", [(1.0, 0.4, 0.6), (2.0, 1 / 3, 5 / 3),
                                   (1.0, 1.0, 0.3), (1.0, 0.5, 0.5),
                                   (0.7, 0.1, 0.7)])
def test_flux_pair_is_the_convolution_of_its_two_pulses(L, x, y):
    taus = np.array([0.05, 0.2, 0.7, 2.0])
    got = at_times(flux_pair(L, x, y, 2.0), taus)
    pulses = [flux_pair(L, z, 0.0, 2.0) for z in (x, y)]
    want = [convolution(*pulses, tau, 1e-13)[0] for tau in taus]
    assert np.all(np.abs(got - want) <= 1e-12)


@pytest.mark.parametrize("L,z", [(1.0, 0.3), (1.7, 1.1)])
def test_flux_pair_at_the_junction_is_the_other_pulse(L, z):
    taus = np.array([0.02, 0.05, 0.2, 0.7, 2.0])
    ref = np.array([flux_reference(L, z, t) for t in taus])
    for x, y in ((0.0, z), (z, 0.0)):
        got = at_times(flux_pair(L, x, y, 2.0), taus)
        assert np.all(np.abs(got - ref) <= 1e-12)
    delta = flux_pair(L, 0.0, 0.0, 2.0)  # both at the junction
    assert delta.d.tolist() == [0.0] and delta.w.tolist() == [1.0]


def test_echo_series_tail_bound_shrinks_with_order():
    tails = [h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, 0.7, n)[1]
             for n in (0, 2, 4, 6)]
    assert all(b > a for a, b in zip(tails[1:], tails[:-1]))


def test_echo_series_junction_point():
    v, tail, res = echo_series(1.0, 1.0, 0.0, 0.0, 0.7, 6)
    assert res < max(1e-6, tail)
    vi, _ = h.interface_two_intervals(1.0, 1.0, 0.7, "residues")
    assert abs(v - vi) < max(1e-6, tail)


def test_echo_series_far_wall_is_zero():
    v, _, res = echo_series(1.0, 1.0, 1.0, 0.3, 0.7, 2)
    assert abs(v) < 1e-12
    assert res < 1e-12


def echo_chains(L1, L2, t_max, n_last):
    """The echo chains E_0 .. E_n_last at reach _reach(t_max), composed
    one round trip at a time; empty past the reach."""
    phi = h._echo_pulse(t_max, L1, L2)
    chains = [h._G0]
    for _ in range(n_last):
        chains.append(phi.compose(chains[-1]))
    return chains


@pytest.mark.parametrize("L1,L2", [(1.0, 1.0), (1.0, 2.0)])
def test_echo_tail_covers_the_dropped_orders_summed_exactly(L1, L2):
    # the dropped orders summed out to order 60 at a wider reach, pair and
    # chain composed exactly; at most 0.27 of the tail off the junction,
    # 0.68 at it, over a grid that also had (L1, L2) = (0.6, 1.3)
    zs = [L2 * i / 6.0 for i in (1, 3, 5)]
    for t in (0.2, 0.7, 2.0):
        chains = echo_chains(L1, L2, 4.0 * t, 60)
        phi = h._echo_pulse(t, L1, L2)
        r = h._R_SQRT_T / math.sqrt(t)
        log_lam = h._log_round_trips(
            L1, L2, r, [h._log_gap(2.0 * L, r) for L in (L1, L2)])
        for x, y in [(x, y) for x in zs for y in zs] + [(0.0, 0.0)]:
            junction = x == y == 0.0
            wide = None if junction else flux_pair(L2, x, y, 4.0 * t)
            terms = [abs(float(at_times(c if junction else wide.compose(c),
                                        t)[0])) for c in chains]
            pair = None if junction else flux_pair(L2, x, y, t)
            for n_max in (0, 2, 4, 6, 8):
                tail = h._echo_tail(pair, phi, t, r, log_lam, n_max)
                assert math.fsum(terms[n_max + 1:]) <= tail, (x, y, t, n_max)


@pytest.mark.parametrize("L1,L2,x,y,t,n_max", [
    (1.0, 1.0, 0.5, 0.5, 1e-3, 6), (1.0, 1.0, 0.3, 0.9, 1e-3, 6),
    (2.1, 2.606, 0.1913, 1.3513, 0.0118, 10),
    (0.376, 1.022, 0.5631, 0.9888, 0.0116, 5),
    (2.628, 1.301, 0.9232, 1.1088, 0.0256, 9)])
def test_echo_series_bound_covers_the_images_past_the_reach(L1, L2, x, y, t,
                                                            n_max):
    # at small t every image, or the last ones that matter, lies past
    # _reach(t): the value is 0 or misses the correction (2.4e-108 to
    # 3.3e-22 here) by about what the dropped images add
    _, bound, res = echo_series(L1, L2, x, y, t, n_max)
    assert res <= bound


def test_echo_series_bound_is_informative_at_large_time():
    # twice the squared lengths: the bound is 2.5e-9, the residual 1.5e-11
    _, bound, res = echo_series(1.0, 1.0, 0.5, 0.5, 2.0, 6)
    assert res <= bound < 1e-8


def added(a, b):
    """Two image sums of one kind added and merged: the sum's own merge of
    the two concatenated."""
    assert a.kind == b.kind
    return h._ImageSum(a.kind, np.concatenate([a.d, b.d]),
                       np.concatenate([a.w, b.w]), min(a.reach, b.reach))


def signed_echo_sum(L1, L2, t, n_max):
    """sum_n (-1)^n E_n over the kept orders, as one Gaussian sum."""
    total = h._G0
    for n, chain in enumerate(echo_chains(L1, L2, t, n_max)[1:], 1):
        if not chain.d.size:
            break
        total = added(total, h._ImageSum("g", chain.d, (-1.0) ** n * chain.w,
                                         chain.reach))
    return total


def test_echo_terms_match_the_exact_composition_on_the_gate_08_cases():
    # the route's value on the gate-08 cases at n_max 6 is the exact
    # composition of the flux pair with the signed echo sum; one
    # independent quadrature level of the same convolution agrees with it
    # to within its estimate
    for L1, L2 in ((1.0, 1.0), (1.0, 2.0)):
        zs = [L2 * i / 6.0 for i in range(1, 6)]
        for t in (0.2, 0.7, 2.0):
            total = signed_echo_sum(L1, L2, t, 6)
            for x in zs:
                for y in zs:
                    pair = flux_pair(L2, x, y, t)
                    exact, _ = pair.compose(total).at(t, 0.0)
                    value, est = convolution(total, pair, t, 3e-9)
                    assert abs(value - exact) <= est + 1e-14, (L1, L2, x, y, t)
                    assert exact == h.glue_intervals_II(L1, L2, x, y, t, 6)[0]


@pytest.mark.parametrize("n_max", range(9))
def test_echo_series_is_one_image_sum(n_max):
    # off the junction the flux pair composed with the signed echo sum, at
    # it the echo sum alone, each evaluated once at t; at order 0 the
    # junction's bound is vacuous (see the next test)
    cases = [(1.0, 1.0, 0.4, 0.6, 0.7), (1.0, 2.0, 0.0, 1.5, 0.2),
             (0.6, 1.3, 1.3, 0.0, 2.0)] + [(1.0, 1.0, 0.0, 0.0, 0.7)] * (n_max > 0)
    for L1, L2, x, y, t in cases:
        total = signed_echo_sum(L1, L2, t, n_max)
        if x or y:
            total = flux_pair(L2, x, y, t).compose(total)
        value, _ = h.glue_intervals_II(L1, L2, x, y, t, n_max)
        assert value == total.at(t, 0.0)[0]


@pytest.mark.parametrize("L1,L2,x,y,t,n_max", [
    (1.0, 1.0, 0.0, 0.0, 0.7, 0),  # tail 0.48 against g_0(0.7) = 0.34
    (0.1, 0.1, 0.03, 0.04, 10.0, 6),
    (1.0, 1.0, 0.5, 0.5, 100.0, 6)])
def test_echo_series_raises_on_a_vacuous_bound(L1, L2, x, y, t, n_max):
    # 0 <= K_S - K_L2 <= g_|x-y|(t): a bound at or above that proves
    # nothing, and it is known from the tail before any echo chain is built
    start = time.perf_counter()
    with pytest.raises(h.TruncationError, match="a-priori bound") as info:
        h.glue_intervals_II(L1, L2, x, y, t, n_max)
    assert time.perf_counter() - start < 1.0
    assert info.value.achievable >= h.k_line(x, y, t)


GUARD_SCRIPT = """
import time
from heatglue import heat1d as h
for call in (lambda: h.glue_intervals_II(0.05, 0.07, 0.03, 0.04, 1000.0, 6),
             lambda: h.cut_circle_to_arc(0.3, (0.0, 0.1), 0.03, 0.07, 1000.0, 6),
             lambda: h.glue_intervals_I(1.0, 0.01, 0.005, 0.005, 1e10),
             lambda: h.glue_intervals_II(1.0, 0.01, 0.005, 0.005, 1e10, 6)):
    start = time.perf_counter()
    try:
        call()
    except h.TruncationError as exc:
        assert "past the budget" in str(exc), exc
    else:
        raise AssertionError("no TruncationError")
    assert time.perf_counter() - start < 2.0
start = time.perf_counter()
h.cut_circle_to_arc(1.0, (0, 0.5), 0.2 + 1e8, 0.3, 0.1, 4)
assert time.perf_counter() - start < 2.0
"""


def test_image_count_guard_raises_before_allocating():
    # the image counts grow like (reach/L)^2 with reach = sqrt(200 t), so
    # the first two would compose tens of millions of images; the flux
    # pairs at L2 = 0.01, t = 1e10 hold 2.8e8, and a ring 1e8 turns from
    # the origin keeps only the images near x.  Under a 2 GB address-space
    # limit each must raise TruncationError or return, not MemoryError
    run = fresh_python(GUARD_SCRIPT, limit_kb=2000000, capture_output=True,
                       text=True)
    assert run.returncode == 0, run.stderr


def test_glue_rays_is_one_image_sum():
    # h_x * h_y * g_0 is the single Gaussian g_(x+y)
    value, _ = h.glue_rays(0.8, 1.1, 0.6)
    assert value == h._ImageSum("g", [0.8 + 1.1], [1.0]).at(0.6, 0.0)[0]


# ---------------------------------------------------------------------------
# image sums against the merge they replace and against per-image loops
# ---------------------------------------------------------------------------


def unique_merge(d, w, reach):
    """The merge of an image sum as np.unique and a scatter add, the form
    the sort-and-segment merge replaced: the reference bit for bit."""
    d, pos = np.unique(np.asarray(d, dtype=float).ravel(), return_inverse=True)
    w = np.bincount(pos.ravel(), minlength=d.size,
                    weights=np.asarray(w, dtype=float).ravel())
    keep = (d <= reach) & (w != 0.0)
    return d[keep], w[keep]


def merge_cases():
    """Draws with ties up to dozens deep (past the 8 at which
    np.add.reduceat starts to sum pairwise), zero and exactly cancelling
    weights, distances past the reach and 1-D and 2-D shapes, then empty,
    cancelled and out-of-reach inputs."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(0, 25, size=1 + seed % 2))
        pool = rng.uniform(0.0, 10.0, int(rng.integers(1, 40)))
        d = rng.choice(pool, size=shape)
        w = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        w[rng.random(shape) < 0.2] = 0.0
        whole = rng.random(shape) < 0.3
        w[whole] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=int(whole.sum()))
        reach = float(rng.choice([math.inf, 5.0, float(pool[0])]))
        yield pytest.param(d, w, reach, id=f"seed{seed}")
    yield pytest.param([], [], 5.0, id="empty")
    yield pytest.param(np.zeros((0, 3)), np.zeros((0, 3)), 5.0, id="empty-2d")
    yield pytest.param([1.0, 1.0], [1.0, -1.0], 5.0, id="cancelled")
    yield pytest.param([7.0], [1.0], 5.0, id="past-reach")
    # a NaN distance is dropped at any reach, an infinite one kept at an
    # infinite reach only, and -0.0 merges with 0.0 under the sign of the
    # first given
    for reach in (math.inf, 5.0):
        tag = "infinite" if reach == math.inf else "finite"
        yield pytest.param([0.0, -0.0, 3.0, math.nan, 3.0, -0.0],
                           [1.0, 2.0, -1.0, 4.0, 1.0, -2.0], reach,
                           id=f"signed-zero-{tag}-reach")
        yield pytest.param([-0.0, 0.0, math.inf, 2.0, math.inf, math.nan],
                           [2.0, 1.0, 1.0, 0.5, 2.0, math.nan], reach,
                           id=f"inf-nan-{tag}-reach")
        yield pytest.param([math.nan, math.nan], [1.0, 1.0], reach,
                           id=f"all-nan-{tag}-reach")


@pytest.mark.parametrize("d,w,reach", merge_cases())
def test_image_sum_merge_is_the_unique_form_bit_for_bit(d, w, reach):
    got = h._ImageSum("h", d, w, reach)
    want_d, want_w = unique_merge(d, w, reach)
    assert got.d.dtype == got.w.dtype == np.float64
    assert got.d.shape == want_d.shape
    assert got.d.tobytes() == want_d.tobytes()
    assert got.w.tobytes() == want_w.tobytes()


def flux_reference(L, z, tau):
    total = math.fsum(a * math.exp(-a * a / (4.0 * tau))
                      for a in (z + 2.0 * k * L for k in range(-60, 61)))
    return total / (math.sqrt(4.0 * math.pi) * tau**1.5)


def circle_reference(L, d, tau, drop_center):
    total = math.fsum(math.exp(-(d + n * L) ** 2 / (4.0 * tau))
                      for n in range(-60, 61) if n or not drop_center)
    return total / math.sqrt(4.0 * math.pi * tau)


def echo_reference(L, tau):
    total = math.fsum(2.0 * k * L * math.exp(-k * k * L * L / tau)
                      for k in range(1, 121))
    return total / (math.sqrt(4.0 * math.pi) * tau**1.5)


# every sum below is well conditioned at its times: its terms share one
# sign or its leading term dominates, and no exponent that matters passes
# about 25, so 1e-14 relative is within reach of any summation order
TAUS = np.concatenate([np.geomspace(0.15, 1.0, 41), [0.0, -0.3]])


@pytest.mark.parametrize("L,z", [(1.0, 0.3), (1.7, 1.1), (0.6, 0.45)])
def test_flux_pulse_image_sum_matches_a_per_image_loop(L, z):
    # the signed images cancel once tau passes about L^2/4
    taus = np.concatenate([L * L * np.geomspace(0.02, 0.15, 41), [0.0, -0.3]])
    # y = 0: the pulse at z alone
    got = at_times(flux_pair(L, z, 0.0, float(taus.max())), taus)
    ref = [flux_reference(L, z, t) for t in taus[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L,delta,drop", [(2.0, 0.0, True), (2.0, 0.7, False),
                                          (3.1, -1.2, False)])
def test_circle_pulse_image_sum_matches_a_per_image_loop(L, delta, drop):
    got = at_times(h._ring("g", L, delta, h._reach(1.0), skip_zero=drop),
                   TAUS)
    d = h._wrap_diff(delta, L)
    ref = [circle_reference(L, d, t, drop) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L", [0.5, 1.0, 1.9])
def test_echo_density_matches_a_per_image_loop(L):
    got = at_times(h._echo_pulse(float(TAUS.max()), L), TAUS)
    ref = [echo_reference(L, t) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


# ---------------------------------------------------------------------------
# gluing two rays
# ---------------------------------------------------------------------------


def test_glue_rays_reference_point():
    v, _, res = rays(1.0, 1.0, 1.0)
    assert abs(v - math.exp(-1.0) / SQRT_4PI) < 1e-8
    assert res < 1e-8


def test_glue_rays_grid():
    for x in (0.5, 2.0):
        for y in (0.5, 1.0):
            for t in (0.5, 1.0):
                _, _, res = rays(x, y, t)
                assert res < 1e-8


def test_glue_rays_reconstructs_a_linearly_vanishing_wall_kernel():
    # k_line minus the glued value is the Dirichlet ray kernel, which
    # must die linearly in x at the wall
    y, t = 0.8, 0.5
    gaps = []
    for x in (4e-3, 2e-3, 1e-3):
        v, _ = h.glue_rays(x, y, t)
        gaps.append((h.k_line(x, y, t) - v) / x)
    assert abs(gaps[1] / gaps[2] - 1.0) < 5e-3
    # the slope at the wall is the first-passage pulse at distance y,
    # y e^{-y^2/4t} / (2 sqrt(pi) t^{3/2})
    slope = (y * math.exp(-y * y / (4.0 * t))
             / (2.0 * math.sqrt(math.pi) * t**1.5))
    assert abs(gaps[2] - slope) / abs(gaps[2]) < 1e-2


def test_glue_rays_extends_to_half_space_products():
    # in n dimensions the half-space kernel factorizes, and the glued
    # 1D value supplies the mirrored term of the first coordinate
    x = (0.7, 0.2, -0.4)
    y = (0.5, -0.1, 0.3)
    t = 0.6
    v, _ = h.glue_rays(x[0], y[0], t)
    rest = h.k_line(x[1], y[1], t) * h.k_line(x[2], y[2], t)
    # the Dirichlet ray kernel is k_line(x, y) - k_line(x, -y), by the image
    # charge at -y
    ray = h.k_line(x[0], y[0], t) - h.k_line(x[0], -y[0], t)
    direct = (h.k_line(x[0], y[0], t) - ray) * rest
    assert abs(v * rest - direct) < 1e-12


@pytest.mark.parametrize("x,y,t", [(x, y, t) for x in (0.5, 1.0, 2.0)
                                   for y in (0.5, 1.0, 2.0) for t in (0.5, 1.0)]
                         + [(x, 0.8, 0.5) for x in (4e-3, 2e-3, 1e-3)])
def test_glue_rays_bound_covers_its_residual(x, y, t):
    # the gate-09 grid and the points near the wall
    v, bound, res = rays(x, y, t)
    exact = float(at_times(h._ImageSum("g", [x + y], [1.0]), t)[0])
    assert res <= bound < 1e-8
    assert abs(v - exact) <= bound


def test_glue_rays_validation():
    with pytest.raises(ValueError, match="positive"):
        h.glue_rays(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def test_cut_circle_reference_point():
    v, _, res = circle_cut(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 4)
    assert res < 1e-5
    oracle, _ = h.k_interval(1.0, 0.3, 0.7, 0.4, "auto")
    assert abs(v - oracle) == res


def test_cut_circle_residual_is_non_increasing_in_depth():
    residuals = [circle_cut(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, k)[2]
                 for k in range(5)]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] > 1e-2  # depth zero misses the interface entirely


def test_cut_circle_antipodal_symmetry():
    # cuts at 0 and 1 on a circle of length 2 sit antipodally: the half
    # turn z -> z + 1 swaps them and maps each arc onto the other, and the
    # reflection z -> 1 - z swaps x and y
    v, bound = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 2)
    for x, y in ((0.7, 0.3), (1.3, 1.7), (1.7, 1.3)):
        vv, bb = h.cut_circle_to_arc(2.0, (0.0, 1.0), x, y, 0.4, 2)
        assert abs(vv - v) < 1e-15
        assert abs(bb - bound) <= 1e-12 * bound


def test_cut_circle_other_arc():
    v, _, res = circle_cut(2.0, (0.0, 1.0), 1.2, 1.9, 0.3, 3)
    assert res < 1e-4
    assert v > 0.0


@pytest.mark.parametrize("delta", [0.0, 0.7, 1.3])
def test_cut_hop_and_close_are_the_convolutions_of_their_pieces(delta):
    # h * h = h over summed distances for a hop, h * g = g for a close
    L, reach = 2.0, h._reach(1.0)
    taus = np.array([0.05, 0.2, 0.7, 1.0])
    state = h._ring("h", L, 0.3, reach)
    hop = h._ring("h", L, delta, reach, skip_zero=delta == 0.0)
    close = h._ring("g", L, delta - 0.45, reach)
    for piece in (hop, close):
        got = at_times(state.compose(piece), taus)
        want = [convolution(state, piece, tau, 1e-13)[0] for tau in taus]
        assert np.all(np.abs(got - want) <= 1e-12)


def continuum_cuts(seed, count):
    """Circle cuts from the ranges of the continuum benchmark workload."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        L = round(rng.uniform(1.5, 3.0), 3)
        c1 = round(L * rng.uniform(0.3, 0.7), 4)
        a, b = (0.0, c1) if rng.random() < 0.5 else (c1, L)
        x, y = (round(a + (b - a) * rng.uniform(0.1, 0.9), 4) for _ in "xy")
        yield L, (0.0, c1), x, y, round(rng.uniform(0.1, 0.8), 3)


def test_cut_circle_bound_covers_the_dropped_terms():
    # the terms past k_max come from a run 30 orders deeper than any k_max;
    # 37 of the 210 bounds are not below the circle kernel, which bounds
    # the arc kernel a priori, and the command line refuses those
    vacuous = 0
    for L, cuts, x, y, t in continuum_cuts(7919, 30):
        deep, _ = h.cut_circle_to_arc(L, cuts, x, y, t, 36)
        arc = h.arc_direct(L, cuts, x, y, t)
        circle, _ = h.k_circle(L, x, y, t)
        for k_max in range(7):
            v, bound = h.cut_circle_to_arc(L, cuts, x, y, t, k_max)
            assert abs(v - deep) <= bound, (L, cuts, x, y, t, k_max)
            assert abs(v - arc) <= bound, (L, cuts, x, y, t, k_max)
            vacuous += not bound < circle
    assert vacuous == 37


README_CUT = (2.0, (0.0, 1.0), 0.3, 0.7, 0.4)  # the README's circle cut


def composed(a, b):
    """One pair composed and merged on its own, the image budget checked
    first: the composition that the fused sums replace."""
    h._check_images(a.d.size, b.d.size)
    return h._ImageSum("h" if a.kind == b.kind else "g",
                       np.add.outer(a.d, b.d), np.outer(a.w, b.w),
                       min(a.reach, b.reach))


def cut_sums_one_by_one(L, cuts, x, y, t, k_max):
    """The new states and the close of each order of a circle cut, in the
    order cut_circle_to_arc forms them, each pair composed and merged on
    its own and the two then added and merged again."""
    reach = h._reach(t)
    state = [h._ring("h", L, x - c, reach) for c in cuts]
    same = h._ring("h", L, 0.0, reach, skip_zero=True)
    cross = h._ring("h", L, cuts[0] - cuts[1], reach)
    close = [h._ring("g", L, c - y, reach) for c in cuts]
    for s, c in zip(state, close):
        h._check_images(s.d.size, c.d.size)
    sums = []
    for k in range(k_max + 1):
        if k:
            state = [added(composed(state[0], same), composed(state[1], cross)),
                     added(composed(state[0], cross), composed(state[1], same))]
            sums += state
        sums.append(added(composed(state[0], close[0]),
                          composed(state[1], close[1])))
    return sums


def fused_cut_sums(monkeypatch, L, cuts, x, y, t, k_max):
    """The sums that cut_circle_to_arc composes, in the order it forms
    them, the sums it evaluates at t with their values, in order, and the
    value it returns."""
    sums, evaluated = [], []
    fuse, at = h._compose_sum, h._ImageSum.at

    def record(*pairs):
        sums.append(fuse(*pairs))
        return sums[-1]

    def record_at(self, *args):
        evaluated.append((self, at(self, *args)[0]))
        return at(self, *args)

    with monkeypatch.context() as m:
        m.setattr(h, "_compose_sum", record)
        m.setattr(h._ImageSum, "at", record_at)
        value, _ = h.cut_circle_to_arc(L, cuts, x, y, t, k_max)
    return sums, evaluated, value


def test_cut_sums_merged_once_are_the_sums_merged_one_by_one(monkeypatch):
    # every weight is an integer, so one merge of the two compositions of a
    # state or a close gives, byte for byte, what merging each composition
    # and then their sum gave; the cut evaluates the circle's images and
    # each close once, by _ImageSum.at, and adds the signed values by fsum
    for case in [*continuum_cuts(7919, 30), README_CUT]:
        L, _, x, y, t = case
        want = cut_sums_one_by_one(*case, 8)
        circle, _ = h.k_circle(L, x, y, t, "images")
        for k_max in range(9):
            got, evaluated, value = fused_cut_sums(monkeypatch, *case, k_max)
            assert len(got) == 3 * k_max + 1
            for g, w in zip(got, want):
                assert (g.kind, g.reach) == (w.kind, w.reach)
                assert g.d.tobytes() == w.d.tobytes(), (case, k_max)
                assert g.w.tobytes() == w.w.tobytes(), (case, k_max)
            assert [s for s, _ in evaluated[1:]] == got[::3]
            assert abs(evaluated[0][1] - circle) <= 1e-15 * circle
            assert value == math.fsum(
                [evaluated[0][1]] + [(-1.0) ** (k + 1) * term for k, (_, term)
                                     in enumerate(evaluated[1:])])


def test_cut_refuses_at_the_image_budget_where_one_by_one_did(monkeypatch):
    # each pair is checked against the budget before it is formed, so a
    # lowered budget refuses the same cuts, at the same pair, as before
    outcomes = []
    for budget in (40, 150, 400, 1200, 4000):
        monkeypatch.setattr(h, "_MAX_IMAGES", budget)
        for case in [*continuum_cuts(7919, 30), README_CUT]:
            for k_max in (0, 2, 4, 8):
                refusals = []
                for build in (cut_sums_one_by_one,
                              lambda *a: fused_cut_sums(monkeypatch, *a)[0]):
                    try:
                        build(*case, k_max)
                        refusals.append(None)
                    except h.TruncationError as exc:
                        assert "past the budget" in str(exc)
                        refusals.append(str(exc))
                assert refusals[0] == refusals[1], (budget, case, k_max)
                outcomes.append(refusals[0] is None)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("k_max", range(9))
def test_cut_merges_each_state_and_close_once(monkeypatch, k_max):
    # six rings and the circle's images, then one close at order 0 and two
    # states and a close at every later order: 8 + 3 k_max image sums, 20
    # at k_max 4 (it was 45 while each composition was merged before the
    # two were added, and one less while the circle was k_circle's)
    merge = h._ImageSum.__post_init__
    count = [0]

    def counted(self):
        count[0] += 1
        merge(self)

    monkeypatch.setattr(h._ImageSum, "__post_init__", counted)
    for case in [README_CUT, *continuum_cuts(7919, 3)]:
        count[0] = 0
        h.cut_circle_to_arc(*case, k_max)
        assert count[0] <= 8 + 3 * k_max, case


def test_grid_factors_are_taken_once(monkeypatch):
    # route II takes its round trips once, for the echo tail and the
    # dropped images alike, and log(1 - e^(-rL)) once per length; the
    # circle cut takes that of its one length once
    calls = {}
    for name in ("_log_round_trips", "_log_gap"):
        def counted(*args, _f=getattr(h, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(h, name, counted)
    for case in [(1.0, 2.0, 0.5, 0.7, 0.4), (1.0, 1.0, 0.0, 0.0, 0.7),
                 (0.6, 1.3, 1.3, 0.0, 2.0)]:
        calls.clear()
        h.glue_intervals_II(*case, 6)
        assert calls == {"_log_round_trips": 1, "_log_gap": 2}, case
    calls.clear()
    h.cut_circle_to_arc(*README_CUT, 4)
    assert calls == {"_log_gap": 1}


def test_cut_circle_converges_to_rounding_at_depth_eight():
    _, bound, res = circle_cut(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 8)
    assert res <= 1e-13
    assert res <= bound < 1e-11


@pytest.mark.parametrize("t,k_max", [(0.01, 2), (0.02, 3), (0.05, 6),
                                     (0.4, 8)])
def test_cut_bound_covers_the_fifty_digit_error_relative_to_the_arc(t,
                                                                    k_max):
    # the rounding part weights every image of the circle and of each close
    # by its own term, with no floor at 1: at t = 0.01, x = 0.1, y = 0.9 the
    # bound is 1.9e-20 against an error of 1.0e-21 and an arc kernel of
    # 3.2e-7, where a floor at 1 made it 2.7e-13
    for x, y in ((0.1, 0.9), (0.3, 0.7), (0.5, 0.5)):
        value, bound = h.cut_circle_to_arc(2.0, (0.0, 1.0), x, y, t, k_max)
        want = exact_interval(1.0, x, y, t)
        assert abs(value - want) <= bound < 1e-9 * want, (x, y)


@pytest.mark.parametrize("k_max", [16, 32, 64])
def test_cut_bound_is_rounding_level_at_a_deep_order(k_max):
    # L = 1.53 and t = 0.78 leave a slow series: the tail is negligible
    # from order 16, and the rounding part weights each image by its own
    # term, 1.9e-13 to 3.0e-13, where one uniform gamma for every term
    # made it 6.7e-12 to 1.9e-11
    value, bound = h.cut_circle_to_arc(1.53, (0.0, 0.6), 0.2, 0.4, 0.78, k_max)
    assert abs(value - exact_interval(0.6, 0.2, 0.4, 0.78)) <= bound <= 1e-12


def test_arc_coordinates_measure_along_the_arc_of_both_points():
    assert h.arc_coordinates(2.0, (1.0, 0.0), 0.3, 0.7) == (1.0, 0.3, 0.7)
    ell, xl, yl = h.arc_coordinates(2.0, (0.0, 1.0), 1.2, 1.9)
    assert (ell, round(xl, 12), round(yl, 12)) == (1.0, 0.2, 0.9)
    ell, xl, yl = h.arc_coordinates(3.0, (2.5, 0.5), -0.25, 0.25)
    assert (ell, round(xl, 12), round(yl, 12)) == (1.0, 0.25, 0.75)
    with pytest.raises(ValueError, match="inside one arc"):
        h.arc_coordinates(2.0, (0.0, 1.0), 0.5, 1.0)


def test_cut_circle_validation():
    with pytest.raises(ValueError, match="two cut points"):
        h.cut_circle_to_arc(2.0, (0.5,), 0.3, 0.7, 0.4, 2)
    with pytest.raises(ValueError, match="distinct"):
        h.cut_circle_to_arc(2.0, (0.5, 0.5), 0.3, 0.7, 0.4, 2)
    with pytest.raises(ValueError, match="inside one arc"):
        h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 1.7, 0.4, 2)
    with pytest.raises(ValueError, match="inside one arc"):
        h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.0, 0.5, 0.4, 2)


# ---------------------------------------------------------------------------
# cylinder checks
# ---------------------------------------------------------------------------


def test_cylinder_factorization_on_grid():
    pts = [(x, y, g1, g2)
           for x in (0.3, 0.9) for y in (0.5, 1.1)
           for g1, g2 in ((0.2, 1.7), (0.0, 0.8))]
    res = h.cylinder_factorization_check(1.0, 1.3, 2.0, pts, 0.5)
    assert res < 1e-9


def test_cylinder_check_evaluates_each_interval_kernel_once(monkeypatch):
    # the whole and the side kernel per point, and no residual against the
    # direct two-kernel difference besides
    calls = []
    k_interval = h.k_interval

    def counted(*args):
        calls.append(args[0])
        return k_interval(*args)

    monkeypatch.setattr(h, "k_interval", counted)
    pts = [(0.3, 0.9, 0.2, 1.7), (1.1, 0.5, 0.0, 0.8)]
    assert h.cylinder_factorization_check(1.0, 1.3, 2.0, pts, 0.5) < 1e-9
    assert calls == [2.3, 1.3, 2.3, 1.3]


def point_joint(LI, LC, X, Y, g1, g2, t):
    """The joint eigenmode double sum at one point, spectrum and all, as
    the check took it point by point before the batch."""
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


def test_batched_cylinder_check_is_the_point_by_point_check():
    rng = np.random.default_rng(11)
    for _ in range(40):
        L1, L2, LC = rng.uniform(0.5, 2.0, 3)
        t = rng.uniform(0.05, 2.0)
        pts = [(x, y, g1, g2) for x, y, g1, g2 in zip(
            *rng.uniform(0.0, L2, (2, 4)), *rng.uniform(0.0, LC, (2, 4)))]
        joints = h._cylinder_joint(L1 + L2, LC, [(L1 + x, L1 + y, g1, g2)
                                                 for x, y, g1, g2 in pts], t)
        assert joints == [point_joint(L1 + L2, LC, L1 + x, L1 + y, g1, g2, t)
                          for x, y, g1, g2 in pts]
        assert h.cylinder_factorization_check(L1, L2, LC, pts, t) == max(
            h.cylinder_factorization_check(L1, L2, LC, [p], t) for p in pts)


def test_cylinder_factorization_is_slice_independent():
    pts = [(0.3, 0.5, 0.2, 0.7)]
    for circle_L in (1.0, 2.0, 3.5):
        assert h.cylinder_factorization_check(1.0, 1.3, circle_L, pts, 0.5) < 1e-9


def test_cylinder_joint_sum_respects_the_semigroup_in_each_factor():
    # t-additivity holds factor by factor, so composing the interval and
    # circle parts separately must land on the joint kernel at t1 + t2
    S, LC = 2.3, 2.0
    X, Y, g1, g2 = 0.8, 1.5, 0.3, 1.1
    t1, t2 = 0.3, 0.45
    interval_part = gauss_integral(
        lambda z: h.k_interval(S, X, z, t1, "auto")[0]
        * h.k_interval(S, z, Y, t2, "auto")[0], 0.0, S)
    circle_part = gauss_integral(
        lambda g: h.k_circle(LC, g1, g, t1, "auto")[0]
        * h.k_circle(LC, g, g2, t2, "auto")[0], 0.0, LC)
    (joint,) = h._cylinder_joint(S, LC, [(X, Y, g1, g2)], t1 + t2)
    assert abs(interval_part * circle_part - joint) < 1e-8


def test_dn_cylinder_reference_eigenvalue():
    rep = h.dn_cylinder(1.0, [0.0], 1.0)
    assert abs(rep.lambdas[0] - 1.0 / math.tanh(1.0)) < 1e-14
    assert abs(rep.lambdas[0] - 1.3130353) < 1e-7


def test_dn_cylinder_gap_asymptotics():
    L, m2 = 1.0, 1.0
    omegas = [24.0, 35.0, 99.0]  # mu = 5, 6, 10, all with mu L > 4
    rep = h.dn_cylinder(L, omegas, m2)
    for w, gap in zip(omegas, rep.gaps):
        mu = math.sqrt(m2 + w)
        approx = 2.0 * mu * math.exp(-2.0 * L * mu)
        assert abs(gap - approx) < 0.05 * approx


def test_dn_cylinder_ratio_decreases_with_mass():
    omegas = [(2.0 * math.pi * k / 2.0) ** 2 for k in range(6)]
    ratios = [h.dn_cylinder(1.0, omegas, float(m * m)).ratio
              for m in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_dn_cylinder_validation():
    with pytest.raises(ValueError, match="m2"):
        h.dn_cylinder(1.0, [0.0], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        h.dn_cylinder(1.0, [-1.0], 1.0)
    with pytest.raises(ValueError, match="L must be"):
        h.dn_cylinder(0.0, [0.0], 1.0)

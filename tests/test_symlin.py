from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import taylor_expm
from heatglue.graph_heat import random_decomposition
from heatglue.symlin import (
    ConvergenceError,
    SymMatrix,
    eigh,
)

RESIDUAL_TOL = 1e-11
ORTHO_TOL = 1e-12

LINE3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def random_symmetric(rng: np.random.Generator, n: int) -> SymMatrix:
    b = rng.standard_normal((n, n))
    return SymMatrix(b + b.T)


def test_line3_spectrum():
    w, q = eigh(SymMatrix(LINE3))
    assert np.allclose(w, [0.0, 1.0, 3.0], atol=RESIDUAL_TOL)
    v0 = q[:, 0]
    assert np.abs(v0 - v0.mean()).max() < 1e-11  # constant on the component


def test_identity_is_fixed_point():
    w, q = eigh(SymMatrix(np.eye(4)))
    assert np.array_equal(w, np.ones(4))
    assert np.array_equal(q, np.eye(4))


def test_an_empty_matrix_has_an_empty_spectrum():
    # a graph with no vertex: LAPACK's empty pair passes both checks
    w, q = eigh(SymMatrix(np.zeros((0, 0))))
    assert w.shape == (0,) and q.shape == (0, 0)


def test_residuals_on_random_matrices():
    rng = np.random.default_rng(20240817)
    for n in (2, 3, 5, 8, 13):
        a = random_symmetric(rng, n)
        w, q = eigh(a)
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(q.T @ q - np.eye(n)).max() < ORTHO_TOL
        res = a.entries @ q - q * w[None, :]
        amax = np.abs(a.entries).max()
        assert np.abs(res).max() < RESIDUAL_TOL * (1.0 + amax)


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 6)
    w1, q1 = eigh(a)
    w2, q2 = eigh(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(q1, q2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reconstruction_property(n, seed):
    a = random_symmetric(np.random.default_rng(seed), n)
    w, q = eigh(a)
    back = (q * w) @ q.T
    assert np.abs(back - a.entries).max() < RESIDUAL_TOL * (1.0 + np.abs(a.entries).max())


def test_spectral_inverse_matches_direct():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    # PSD, so A+I is invertible; its upper triangle mirrored, so that it is
    # exactly symmetric
    psd = np.triu(b.T @ b)
    a = SymMatrix(psd + np.triu(psd, 1).T)
    w, q = eigh(a)
    inv = (q / (w + 1.0)) @ q.T
    direct = np.linalg.inv(a.entries + np.eye(6))
    assert np.abs(inv - direct).max() < 1e-10


def test_heat_semigroup():
    w, q = eigh(SymMatrix(LINE3))
    k1, k2, k12 = ((q * np.exp(-s * w)) @ q.T for s in (0.4, 1.1, 1.5))
    assert np.abs(k1 @ k2 - k12).max() < 1e-10


def test_heat_matches_taylor_exponential():
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 7)
    w, q = eigh(a)
    for t in (0.25, 1.0):
        k = (q * np.exp(-t * w)) @ q.T
        ref = taylor_expm(-t * a.entries)
        assert np.abs(k - ref).max() < 1e-11 * np.abs(ref).max().clip(1.0, None)


def test_trace_preserved():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 9)
    w, q = eigh(a)
    phi = lambda x: 1.0 / (1.0 + x * x)
    k = (q * [phi(x) for x in w]) @ q.T
    assert np.trace(k) == pytest.approx(sum(phi(x) for x in w), abs=1e-11)


def test_symmetry_enforced():
    bad = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
    with pytest.raises(ValueError, match="not exactly symmetric"):
        SymMatrix(bad)
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.inf]]))


def test_matrices_are_immutable():
    m = SymMatrix(LINE3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
    w, q = eigh(m)
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        q[0, 0] = 1.0


def _gate_draw_side_block() -> np.ndarray:
    """Side block of the glued Laplacian of the 14th gate-02 decomposition
    (seed 20260822); rotations on it meet a subnormal off-diagonal entry."""
    rng = np.random.default_rng(20260822)
    for _ in range(14):
        d = random_decomposition(rng, 12)
    g = d.ordered_graph
    side = [g.index[v] for v in d.side1 + d.side2]
    return g.laplacian.entries[np.ix_(side, side)]


@pytest.mark.parametrize("make", [
    lambda: np.array([[1.0, 1e-310, 0.0], [1e-310, 2.0, 1.0], [0.0, 1.0, 3.0]]),
    _gate_draw_side_block,
], ids=["subnormal-entry", "gate-draw"])
def test_eigh_tiny_offdiagonal_does_not_overflow(make):
    # (a_rr - a_pp) / (2 a_pq) overflows for such a_pq; the solver must
    # neither warn nor lose accuracy on them
    a = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, q = eigh(SymMatrix(a))
    assert np.abs(a @ q - q * w[None, :]).max() < RESIDUAL_TOL
    assert np.abs(q.T @ q - np.eye(len(w))).max() < ORTHO_TOL


def test_eigh_lapack_failure_is_a_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigh(SymMatrix(LINE3))


def test_a_block_is_solved_as_the_matrix_it_is():
    # eigh on a principal block gives the bits of eigh on that block made
    # a matrix of its own, and hands out LAPACK's arrays read-only and
    # C-ordered, so later products keep their bits
    a = random_symmetric(np.random.default_rng(13), 9)
    keep = [0, 2, 3, 7]
    got = eigh(a, keep)
    want = eigh(SymMatrix(a.entries[np.ix_(keep, keep)]))
    for x, y in zip(got, want):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        assert x.flags.c_contiguous and not x.flags.writeable


@pytest.mark.parametrize("spoil,message", [
    (lambda w, q: (w, q * 1.01), "orthonormality"),
    (lambda w, q: (w + 1e-6, q), "residual")], ids=["columns", "pairs"])
def test_eigh_checks_what_lapack_returns(monkeypatch, spoil, message):
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: spoil(*solve(m)))
    with pytest.raises(ConvergenceError, match=message):
        eigh(SymMatrix(LINE3), [0, 1])

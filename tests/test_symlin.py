from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import taylor_expm
from heatglue.graph_heat import laplacian, random_decomposition
from heatglue.symlin import (
    ConvergenceError,
    SymMatrix,
    block,
    eigh,
    spectral_apply,
)

RESIDUAL_TOL = 1e-11
ORTHO_TOL = 1e-12

LINE3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def random_symmetric(rng: np.random.Generator, n: int) -> SymMatrix:
    b = rng.standard_normal((n, n))
    return SymMatrix(b + b.T, symmetrize=False)


def test_line3_spectrum():
    d = eigh(SymMatrix(LINE3))
    assert np.allclose(d.eigenvalues, [0.0, 1.0, 3.0], atol=RESIDUAL_TOL)
    v0 = d.eigenvectors[:, 0]
    assert np.abs(v0 - v0.mean()).max() < 1e-11  # constant on the component


def test_identity_is_fixed_point():
    d = eigh(SymMatrix(np.eye(4)))
    assert np.array_equal(d.eigenvalues, np.ones(4))
    assert np.array_equal(d.eigenvectors, np.eye(4))


def test_residuals_on_random_matrices():
    rng = np.random.default_rng(20240817)
    for n in (2, 3, 5, 8, 13):
        a = random_symmetric(rng, n)
        d = eigh(a)
        assert np.all(np.diff(d.eigenvalues) >= 0.0)
        q = d.eigenvectors
        assert np.abs(q.T @ q - np.eye(n)).max() < ORTHO_TOL
        res = a.entries @ q - q * d.eigenvalues[None, :]
        amax = np.abs(a.entries).max()
        assert np.abs(res).max() < RESIDUAL_TOL * (1.0 + amax)


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 6)
    d1 = eigh(a)
    d2 = eigh(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reconstruction_property(n, seed):
    a = random_symmetric(np.random.default_rng(seed), n)
    d = eigh(a)
    back = spectral_apply(d, lambda w: w)
    assert np.abs(back - a.entries).max() < RESIDUAL_TOL * (1.0 + np.abs(a.entries).max())


def test_spectral_inverse_matches_direct():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    a = SymMatrix(b.T @ b, symmetrize=True)  # PSD, so A+I is invertible
    d = eigh(a)
    inv = spectral_apply(d, lambda w: 1.0 / (w + 1.0))
    direct = np.linalg.inv(a.entries + np.eye(6))
    assert np.abs(inv - direct).max() < 1e-10


def test_heat_semigroup():
    d = eigh(SymMatrix(LINE3))
    k1 = spectral_apply(d, lambda w: math.exp(-0.4 * w))
    k2 = spectral_apply(d, lambda w: math.exp(-1.1 * w))
    k12 = spectral_apply(d, lambda w: math.exp(-1.5 * w))
    assert np.abs(k1 @ k2 - k12).max() < 1e-10


def test_heat_matches_taylor_exponential():
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 7)
    d = eigh(a)
    for t in (0.25, 1.0):
        k = spectral_apply(d, lambda w: math.exp(-t * w))
        ref = taylor_expm(-t * a.entries)
        assert np.abs(k - ref).max() < 1e-11 * np.abs(ref).max().clip(1.0, None)


def test_trace_preserved():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 9)
    d = eigh(a)
    phi = lambda w: 1.0 / (1.0 + w * w)
    k = spectral_apply(d, phi)
    assert np.trace(k) == pytest.approx(sum(phi(w) for w in d.eigenvalues), abs=1e-11)


def test_spectral_apply_rejects_nonfinite_phi():
    d = eigh(SymMatrix(LINE3))
    with pytest.raises(ValueError):
        spectral_apply(d, lambda w: math.inf if w < 0.5 else 1.0)


def test_block_extraction():
    m = SymMatrix(LINE3 + np.eye(3))  # m^2 = 1
    assert block(m, [1], [1])[0, 0] == 3.0
    assert np.array_equal(block(m, [0, 1, 2], [0, 1, 2]), m.entries)
    sub = block(m, [2, 0], [1])
    assert sub.shape == (2, 1)
    assert sub[0, 0] == m.entries[2, 1]
    assert sub[1, 0] == m.entries[0, 1]
    assert block(m, [], [1]).shape == (0, 1)


def test_block_random_lookup():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((8, 8))
    rows = [5, 1, 1, 7]
    cols = [0, 6, 2]
    sub = block(a, rows, cols)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert sub[i, j] == a[r, c]


def test_block_rejects_bad_indices():
    with pytest.raises(IndexError):
        block(LINE3, [0, 3], [0])
    with pytest.raises(IndexError):
        block(LINE3, [0], [-1])


def test_symmetry_enforced():
    bad = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
    with pytest.raises(ValueError):
        SymMatrix(bad)
    fixed = SymMatrix(bad, symmetrize=True)
    assert fixed.entries[0, 1] == fixed.entries[1, 0]
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.inf]]))


def test_matrices_are_immutable():
    m = SymMatrix(LINE3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
    d = eigh(m)
    with pytest.raises(ValueError):
        d.eigenvalues[0] = 1.0


def _gate_draw_side_block() -> np.ndarray:
    """Side block of the glued Laplacian of the 14th gate-02 decomposition
    (seed 20260822); rotations on it meet a subnormal off-diagonal entry."""
    rng = np.random.default_rng(20260822)
    for _ in range(14):
        d = random_decomposition(rng, 12)
    g = d.ordered_graph
    side = [g.index[v] for v in d.side1 + d.side2]
    return laplacian(g).entries[np.ix_(side, side)]


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
        d = eigh(SymMatrix(a))
    q, w = d.eigenvectors, d.eigenvalues
    assert np.abs(a @ q - q * w[None, :]).max() < RESIDUAL_TOL
    assert np.abs(q.T @ q - np.eye(len(w))).max() < ORTHO_TOL


def test_eigh_lapack_failure_is_a_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigh(SymMatrix(LINE3))

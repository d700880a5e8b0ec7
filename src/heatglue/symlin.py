"""Small dense symmetric eigen-solver and spectral calculus.

Sizes here are graph-sized (tens, occasionally a couple hundred).  The solver
is LAPACK's symmetric eigensolver via :func:`numpy.linalg.eigh`; its result is
checked for orthonormal eigenvectors and small eigenpair residuals before it
is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "SymMatrix",
    "SpectralDecomp",
    "eigh",
    "spectral_apply",
    "block",
]


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge, or its result failed a check."""


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SymMatrix:
    """An exactly symmetric real matrix.

    Parameters
    ----------
    entries : array_like
        Square matrix.  Rejected unless exactly symmetric; pass
        ``symmetrize=True`` to average ``(A + A^T)/2`` instead.
    """

    entries: np.ndarray
    symmetrize: bool = False

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if self.symmetrize:
            a = (a + a.T) / 2.0
        elif not np.array_equal(a, a.T):
            raise ValueError(
                "matrix is not exactly symmetric; pass symmetrize=True to average"
            )
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _frozen_array(self.eigenvectors))


def eigh(a: SymMatrix) -> SpectralDecomp:
    """Full eigendecomposition by LAPACK's symmetric solver, through numpy.

    Eigenvalues come back in ascending order.  The result is then checked:
    the eigenvector columns must be orthonormal to 1e-12 and every eigenpair
    residual ``|A q - w q|`` must be below ``1e-11 (1 + max|A|)``.  Raises
    :class:`ConvergenceError` if LAPACK does not converge or a check fails.
    """
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    n = a.n
    if n == 1 or not a.entries.any():
        return SpectralDecomp(np.diag(a.entries).copy(), np.eye(n))
    try:
        w, q = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh failed: {exc}") from exc

    amax = float(np.abs(a.entries).max())
    if np.abs(q.T @ q - np.eye(n)).max() > 1e-12:
        raise ConvergenceError("eigenvector columns lost orthonormality")
    if np.abs(a.entries @ q - q * w[None, :]).max() > 1e-11 * (1.0 + amax):
        raise ConvergenceError("eigenpair residual above tolerance")
    return SpectralDecomp(w, q)


def spectral_apply(d: SpectralDecomp, phi: Callable[[float], float]) -> np.ndarray:
    """Q diag(phi(omega)) Q^T; rejects phi values that are not finite."""
    vals = np.array([float(phi(float(w))) for w in d.eigenvalues])
    if not np.all(np.isfinite(vals)):
        bad = d.eigenvalues[~np.isfinite(vals)]
        raise ValueError(f"phi is not finite at eigenvalue(s) {bad}")
    q = d.eigenvectors
    return (q * vals[None, :]) @ q.T


def block(a, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Submatrix with rows and columns in the given index order."""
    mat = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    ri = np.asarray(list(rows), dtype=int)
    ci = np.asarray(list(cols), dtype=int)
    if ri.size and (ri.min() < 0 or ri.max() >= mat.shape[0]):
        raise IndexError(f"row set {ri.tolist()} out of range for shape {mat.shape}")
    if ci.size and (ci.min() < 0 or ci.max() >= mat.shape[1]):
        raise IndexError(f"column set {ci.tolist()} out of range for shape {mat.shape}")
    if not ri.size or not ci.size:
        return np.zeros((ri.size, ci.size))
    return mat[np.ix_(ri, ci)].copy()

"""Small dense symmetric eigensolver.

Sizes here are graph-sized (tens, occasionally a couple hundred).  The solver
is LAPACK's symmetric eigensolver via :func:`numpy.linalg.eigh`; its result is
checked for orthonormal eigenvectors and small eigenpair residuals before it
is handed out.  Functions of a matrix are formed by the caller from the
eigenpairs, Q f(W) Q^T.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from heatglue.errors import ConvergenceError

__all__ = [
    "SymMatrix",
    "SpectralDecomp",
    "eigh",
]


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
        Square matrix.  Rejected unless exactly symmetric.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
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


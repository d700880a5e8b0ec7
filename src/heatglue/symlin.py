"""Small dense symmetric eigensolver.

Sizes here are graph-sized (tens, occasionally a couple hundred).  The solver
is LAPACK's symmetric eigensolver via :func:`numpy.linalg.eigh`, run once on
a :class:`SymMatrix` or on one of its principal blocks; its two arrays are
checked for orthonormal eigenvectors and small eigenpair residuals and handed
out as they are, read-only.  Functions of a matrix are formed by the caller
from the eigenpairs, Q f(W) Q^T.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from heatglue.errors import ConvergenceError

__all__ = [
    "SymMatrix",
    "eigh",
]


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


def eigh(a: SymMatrix, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of ``a``, or of its principal block on the
    indices ``keep``, by LAPACK's symmetric solver, through numpy.

    A principal block of an exactly symmetric, finite matrix is one too, so
    it is not validated again.  Returns LAPACK's ``(w, q)``, both read-only:
    the eigenvalues in ascending order and the eigenvector columns, C-ordered.
    They are checked first: the columns must be orthonormal to 1e-12 and
    every eigenpair residual ``|A q - w q|`` must be below
    ``1e-11 (1 + max|A|)``.  Raises :class:`ConvergenceError` if LAPACK does
    not converge or a check fails.
    """
    m = a.entries if keep is None else a.entries.take(keep, 0).take(keep, 1)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh failed: {exc}") from exc

    amax = float(np.abs(m).max(initial=0.0))
    if np.abs(q.T @ q - np.eye(len(w))).max(initial=0.0) > 1e-12:
        raise ConvergenceError("eigenvector columns lost orthonormality")
    if np.abs(m @ q - q * w[None, :]).max(initial=0.0) > 1e-11 * (1.0 + amax):
        raise ConvergenceError("eigenpair residual above tolerance")
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q

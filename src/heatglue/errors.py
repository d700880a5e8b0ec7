"""The typed numerical failures of the package and its one a-priori rule.

Each route raises one of these classes where it cannot certify a result;
the command line reports any of them as a case with status "error" and
exits 3.  They live apart from the routes, with :func:`below_prior`, so
that a module which raises or catches one does not import the route that
raises it: the graph routes need nothing of the 1d kernels.
"""

from __future__ import annotations

import math

__all__ = [
    "TruncationError",
    "ConvergenceError",
    "ConfluentOverflowError",
    "LengthCapError",
    "below_prior",
]


class TruncationError(RuntimeError):
    """A sum or composition would keep more terms than its budget, or its
    bound certifies nothing (it is not finite, or not below an a-priori
    bound of the quantity); achievable is that bound, infinite when none
    was taken."""

    def __init__(self, message: str, achievable: float = math.inf):
        super().__init__(message)
        self.achievable = achievable


class ConvergenceError(RuntimeError):
    """The eigensolver (:func:`heatglue.symlin.eigh`) did not converge, or
    its result failed a check."""


class ConfluentOverflowError(ValueError):
    """A monomial power of :mod:`heatglue.expmix` exceeded the cap in force
    (growth cap or hard limit).

    Repeated convolution at a shared rate raises the polynomial degree by one
    per factor; hitting the cap usually means either the cap is too low for
    the series being summed or two rates that should be distinct were merged.
    """


class LengthCapError(ValueError):
    """Raised when a requested accuracy needs paths longer than the cap of
    :mod:`heatglue.path_sum`.

    ``achievable`` holds the row-sum deficit at the cap, the best
    truncation bound reachable there, so the caller can decide whether the
    truncated answer is still useful.
    """

    def __init__(self, message: str, achievable: float | None = None) -> None:
        super().__init__(message)
        self.achievable = achievable


def below_prior(bound: float, prior: float, label: str) -> float:
    """bound, unless it is positive and not below the a-priori bound prior
    of the quantity: a certificate that allows every possible value
    raises TruncationError instead: the one such rule of the package,
    the graph series and the circle cut included."""
    if not (bound < prior or bound == 0.0):
        raise TruncationError(f"{label}: bound {bound:.15g} is not below the "
                              f"a-priori bound {prior:g}", bound)
    return bound

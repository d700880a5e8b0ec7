"""The typed numerical failures of the package, its one a-priori rule and
its input rules.

Each route raises one of these classes where it cannot certify a result;
the command line reports any of them as a case with status "error" and
exits 3.  They live apart from the routes, with :func:`below_prior`, so
that a module which raises or catches one does not import the route that
raises it: the graph routes need nothing of the 1d kernels.  The input
rules :func:`positive` and :func:`nonnegative` refuse a length, time or
mass and a count or order with a ValueError, which the command line
reports as unusable input (exit 2).
"""

from __future__ import annotations

import math

__all__ = [
    "TruncationError",
    "ConvergenceError",
    "ConfluentOverflowError",
    "below_prior",
    "positive",
    "nonnegative",
]


class TruncationError(RuntimeError):
    """A sum or composition would keep more terms than its budget (a 1d
    term budget, or the path length cap of :mod:`heatglue.path_sum`), or
    its bound certifies nothing (it is not finite, or not below an
    a-priori bound of the quantity); achievable is the best bound it
    reached, infinite when none was taken."""

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


def below_prior(bound: float, prior: float, label: str) -> float:
    """bound, unless it is positive and not below the a-priori bound prior
    of the quantity: a certificate that allows every possible value
    raises TruncationError instead: the one such rule of the package,
    the graph series and the circle cut included."""
    if not (bound < prior or bound == 0.0):
        raise TruncationError(f"{label}: bound {bound:.15g} is not below the "
                              f"a-priori bound {prior:g}", bound)
    return bound


def positive(**values: float) -> list[float]:
    """Each value as a float; ValueError at one not positive and finite."""
    out = []
    for name, value in values.items():
        value = float(value)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite")
        out.append(value)
    return out


def nonnegative(**counts: int) -> list[int]:
    """Each count as an int; ValueError at one below zero."""
    out = []
    for name, count in counts.items():
        count = int(count)
        if count < 0:
            raise ValueError(f"{name} must be nonnegative")
        out.append(count)
    return out

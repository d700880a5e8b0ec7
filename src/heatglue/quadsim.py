"""What is left of the simplex convolution quadrature: two names.

No route convolves numerically any more: the 1d gluings are exact
image-sum compositions and the graph gluings exact or spectral.  The
benchmark tracer (``perfbench/tracer.py``) still reads this module and
hooks ``TimeFactor.__post_init__``, so the module keeps an empty
``TimeFactor`` and the ``ConvergenceError`` that ``cli`` lists among its
numerical failures, which keeps it loaded.  Both names exist only for that
hook and go with it (ROADMAP item 6).
"""

from __future__ import annotations

__all__ = ["ConvergenceError", "TimeFactor"]


class ConvergenceError(RuntimeError):
    """A numerical convolution did not meet its error target."""


class TimeFactor:
    """Hooked by the benchmark tracer; no code builds one."""

    def __post_init__(self) -> None:
        pass

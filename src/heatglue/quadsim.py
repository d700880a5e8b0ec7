"""What is left of the simplex convolution quadrature: one name.

No route convolves numerically any more: the 1d gluings are exact
image-sum compositions and the graph gluings exact or spectral.  The
benchmark tracer (``perfbench/tracer.py``) still reads this module and
hooks ``TimeFactor.__post_init__``, so the module keeps an empty
``TimeFactor``, and ``cli`` registers the module so that the tracer finds
it.  The name exists only for that hook and goes with it (ROADMAP item 6).
"""

from __future__ import annotations

__all__ = ["TimeFactor"]


class TimeFactor:
    """Hooked by the benchmark tracer; no code builds one."""

    def __post_init__(self) -> None:
        pass

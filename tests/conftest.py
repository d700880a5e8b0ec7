"""Shared numerical helpers for the test suite.

These are deliberately independent of the package internals: convolutions are
done with fixed-order Gauss-Legendre quadrature and matrix exponentials with a
scaling-and-squaring Taylor sum, so they can serve as oracles for the exact
algebra and the graph kernels.  The dense walk takes only the number of
Taylor orders from the package, so that it sums the same terms.  The
subprocess runner starts a fresh interpreter on this checkout's package,
under an address-space limit where a test asks for one.
"""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np

import heatglue
from heatglue.expmix import ExpMix, evaluate, structural_max_diff
from heatglue.graph_heat import _poisson_order

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)


def gl_convolve_value(f: ExpMix, g: ExpMix, t: float) -> float:
    """(f*g)(t) by quadrature of the defining integral, plus atom rules.

    Only the non-atomic value at t is returned (atoms of both factors act as
    point masses at zero, so f.atom*g(t) + g.atom*f(t) appears here while
    f.atom*g.atom would sit in the atom of the product).
    """
    s = 0.5 * t * (_GL_NODES + 1.0)
    w = 0.5 * t * _GL_WEIGHTS
    fa = np.array([evaluate(f, si) for si in s]) if f.terms else np.zeros_like(s)
    gb = np.array([evaluate(g, t - si) for si in s]) if g.terms else np.zeros_like(s)
    total = float(np.dot(w, fa * gb))
    if f.atom:
        total += f.atom * (evaluate(g, t) if g.terms else 0.0)
    if g.atom:
        total += g.atom * (evaluate(f, t) if f.terms else 0.0)
    return total


def allclose(f: ExpMix, g: ExpMix, *, atol: float = 1e-12,
             rtol: float = 1e-9) -> bool:
    """Structural comparison after joint rate clustering: coefficients per
    (rate cluster, power), an absent term counting as zero, and the atoms,
    within atol plus rtol times the largest coefficient or atom of either."""
    scale_ref = max([abs(f.atom), abs(g.atom)]
                    + [abs(t.coef) for t in f.terms + g.terms])
    return structural_max_diff(f, g) <= atol + rtol * scale_ref


def taylor_expm(a: np.ndarray, order: int = 24) -> np.ndarray:
    """exp(a) by scaling and squaring of a plain Taylor sum."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=1).max() if a.size else 0.0
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    b = a / (2.0**squarings)
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def dense_walk(step, advance, start, layers, theta, t):
    """:func:`heatglue.graph_heat.uniformized_walk` over all layers at every
    Taylor order, one order at a time: each layer takes its matrix step from
    order 0 on, reached or not.  It keeps the package's Poisson order, so the
    two sum the same terms and differ by rounding only; the rounding count
    is that of the order-by-order walk, n + 5 per order."""
    m, n = start.shape
    x = np.zeros((layers * m, n))
    x[:m] = start
    lam = theta * t
    if lam == 0.0:
        return x.reshape(layers, m, n), 0.0
    step = step / theta
    advance = advance / theta
    order = _poisson_order(lam)
    acc = np.zeros_like(x)
    log_lam = math.log(lam)
    for p in range(order):
        w = math.exp(p * log_lam - math.lgamma(p + 1.0) - lam)
        if w > 0.0:
            acc += w * x
        if p + 1 == order:
            break
        nxt = x @ step
        nxt[m:] += x[:-m] @ advance
        x = nxt
    log_mag = (order - 1) * (abs(log_lam) + 1.0) + math.lgamma(order) + lam
    gamma = 2.0**-53 * (order * (n + 5) + layers + 2 + 8.0 * log_mag)
    return acc.reshape(layers, m, n), gamma


def fresh_python(code, *args, limit_kb=None, **kwargs):
    """``python -c code args`` in a fresh interpreter with this checkout's
    package first on the path and one BLAS thread, under an address-space
    limit of limit_kb KiB (``ulimit -v``) when one is given: the result of
    subprocess.run, to which kwargs are passed."""
    src = str(pathlib.Path(heatglue.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    command = [sys.executable, "-c", code, *args]
    if limit_kb is not None:
        command = ["bash", "-c", f'ulimit -v {limit_kb} && exec "$@"', "bash",
                   *command]
    return subprocess.run(command, env=env, timeout=120, **kwargs)

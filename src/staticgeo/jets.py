"""Truncated Taylor arithmetic.

A jet of order K at a point s is the array of normalized Taylor
coefficients [f(s), f'(s)/1!, f''(s)/2!, ..., f^(K)(s)/K!] stored along
the leading axis, with any trailing axes broadcasting (so a jet can carry
a whole evaluation grid at once).  Multiplication is Cauchy convolution,
division is the usual recursive inversion.  This keeps the chain rules of
the curvature formulas exact without hand-derived derivative expressions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jet_from_derivatives",
    "derivatives_from_jet",
    "jconst",
    "jmul",
    "jdiv",
    "jder",
    "jet_of",
]


def jet_from_derivatives(derivs) -> np.ndarray:
    """Stack plain derivative values f, f', f'', ... into a jet."""
    rows = [np.asarray(d, dtype=float) / math.factorial(k) for k, d in enumerate(derivs)]
    return np.stack(rows)


def derivatives_from_jet(jet: np.ndarray) -> np.ndarray:
    """Inverse of jet_from_derivatives: row k becomes f^(k)."""
    facs = np.array([math.factorial(k) for k in range(jet.shape[0])])
    return jet * facs.reshape((-1,) + (1,) * (jet.ndim - 1))


def jconst(value, order: int, like: np.ndarray | None = None) -> np.ndarray:
    """Jet of a constant, shaped to broadcast against `like` if given."""
    tail = like.shape[1:] if like is not None else ()
    out = np.zeros((order + 1,) + tail)
    out[0] = value
    return out


def _common_order(*jets: np.ndarray) -> int:
    return min(j.shape[0] for j in jets) - 1


def jmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product jet, truncated to the shorter operand; a -0.0 product keeps its sign."""
    order = _common_order(a, b)
    out = np.empty((order + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for k in range(order + 1):
        out[k] = a[0] * b[k]
        for i in range(1, k + 1):
            out[k] += a[i] * b[k - i]
    return out


def jdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient jet a/b (b[0] must be nonzero everywhere)."""
    order = _common_order(a, b)
    out = np.zeros((order + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    out[0] = a[0] / b[0]
    for k in range(1, order + 1):
        acc = np.asarray(a[k], dtype=float).copy()
        for i in range(k):
            acc = acc - out[i] * b[k - i]
        out[k] = acc / b[0]
    return out


def jder(a: np.ndarray) -> np.ndarray:
    """Jet of the derivative; drops one order."""
    k = np.arange(1, a.shape[0])
    return a[1:] * k.reshape((-1,) + (1,) * (a.ndim - 1))


def _rows(fn, s, orders) -> list[np.ndarray]:
    """The given derivative orders of fn (anything with .derivative(s, d)) at s, as floats."""
    return [np.asarray(fn.derivative(s, d), dtype=float) for d in orders]


def jet_of(profile, s, order: int) -> np.ndarray:
    """Jet of a Profile (or anything with .derivative(s, d)) at s."""
    return jet_from_derivatives(_rows(profile, s, range(order + 1)))

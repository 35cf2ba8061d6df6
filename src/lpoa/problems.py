"""Test problems: generic instance container plus the three built-in CVOPs.

Each instance bundles the objective map, a closed-form weighted-sum
minimizer, the slice parameters bounding the region to approximate and the
ideal point: what the dual distance solver and the initial simplex read,
and nothing else.  Both oracles are written once, coordinate first: they
map a sequence of coordinates to a tuple of coordinates, each a Python
float (one point, for the dual solver) or an array (a plane of points, for
the frontier search).  They use only +, -, *, / and ** 0.5, with sums left
to right, so a plane entry rounds as the float call does, up to numpy's
exact square root where Python's ** 0.5 can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

__all__ = ["ProblemInstance", "by_key", "PROBLEM_KEYS", "sum_left"]


@dataclass(frozen=True)
class ProblemInstance:
    """A convex vector optimization problem with orthant ordering cone.

    The upper image is gamma(X) + R^q_+ and the approximated region A is its
    intersection with the slice {y : w_bar . y <= gamma_slice}.  The ideal
    point, which the built-ins compute from their oracles, bounds the upper
    image from below and gives the initial simplex its coordinate faces.
    """

    key: str
    q: int
    gamma_eval: Callable[[Sequence], tuple]
    w_bar: np.ndarray
    gamma_slice: float
    # closed-form minimizer of omega . gamma(x) over X
    ws_closed_form: Callable[[Sequence], tuple]
    # y_i = gamma_i(x*(e_i)), the least i-th coordinate over the upper image
    ideal: np.ndarray

    # not fields: names perfbench/spans.py looks up, and skips when None
    gamma_jacobian = feasible_project = upper_project = None


# ---------------------------------------------------------------------------
# the built-in problems


def _instance(key: str, gamma_eval, w_bar: np.ndarray,
              ws_closed_form) -> ProblemInstance:
    """The instance from the frontier points gamma(x*(e_i)) of the coordinate
    directions: the ideal point is their diagonal, and gamma_slice is the
    largest of their q offsets w_bar . gamma(x*(e_i)) plus a quarter of the
    spread of these offsets."""
    points = [gamma_eval(ws_closed_form(e_i))
              for e_i in np.eye(len(w_bar)).tolist()]
    offsets = [float(w_bar @ y) for y in points]
    spread = max(offsets) - min(offsets)
    return ProblemInstance(key=key, q=len(w_bar), gamma_eval=gamma_eval,
                           w_bar=w_bar,
                           gamma_slice=max(offsets) + 0.25 * spread,
                           ws_closed_form=ws_closed_form,
                           ideal=np.array(points).diagonal().copy())


def sum_left(terms):
    """The sum of terms (floats or arrays), left to right."""
    return reduce(add, terms)


def _ball_minimizer(omega):
    """Example 1: the identity over the unit Euclidean ball centered at
    (1, ..., 1), in any q."""
    scale = sum_left([w * w for w in omega]) ** 0.5
    return tuple([1.0 - w / scale for w in omega])


# the identity over the 45-degree-rotated ellipse x = M t + (2, 2), with
# M = [[-1/2, 1/2], [1/2, 1/2]] and squared semi-axes (10, 6)
_ELLIPSE_AXES_SQ = (10.0, 6.0)


def _ellipse_minimizer(omega):
    # c = omega M and t = -A c / (c . A c)^(1/2), with A = diag(axes^2)
    w1, w2 = omega
    c1, c2 = -0.5 * w1 + 0.5 * w2, 0.5 * w1 + 0.5 * w2
    a1, a2 = _ELLIPSE_AXES_SQ
    scale = (a1 * c1 * c1 + a2 * c2 * c2) ** 0.5
    t1, t2 = -a1 * c1 / scale, -a2 * c2 / scale
    return (t1 * -0.5 + t2 * 0.5) + 2.0, (t1 * 0.5 + t2 * 0.5) + 2.0


# Example 2: squared distances to the anchors a_i over the polygon
# X = {x : x1 + 2 x2 <= 10, 0 <= x1 <= 10, 0 <= x2 <= 4}, which contains
# their convex hull
_ANCHORS = ((1.0, 1.0), (2.0, 3.0), (4.0, 2.0))


def _anchor_distances(x):
    x1, x2 = x
    d = [(a1 - x1, a2 - x2) for a1, a2 in _ANCHORS]
    return tuple([d1 * d1 + d2 * d2 for d1, d2 in d])


def _centroid(omega):
    # the unconstrained minimizer of sum omega_i ||x - a_i||^2 is the
    # weighted centroid, which lies in the anchor hull and hence in the
    # polygon
    w1, w2, w3 = omega
    (a11, a12), (a21, a22), (a31, a32) = _ANCHORS
    total = w1 + w2 + w3
    return ((w1 * a11 + w2 * a21 + w3 * a31) / total,
            (w1 * a12 + w2 * a22 + w3 * a32) / total)


# key -> (gamma_eval, w_bar, ws_closed_form); tuple is the identity map
_BUILTINS = {
    "example1-q2": (tuple, np.ones(2) / 2, _ball_minimizer),
    "example1-q3": (tuple, np.ones(3) / 3, _ball_minimizer),
    "ellipse": (tuple, np.array([0.5, 0.5]), _ellipse_minimizer),
    "example2": (_anchor_distances, np.ones(3) / 3.0, _centroid),
}
PROBLEM_KEYS = tuple(_BUILTINS)


@lru_cache(maxsize=None)
def by_key(key: str) -> ProblemInstance:
    """Problem instances are cached: repeated lookups return one instance."""
    if key not in _BUILTINS:
        raise KeyError(f"unknown problem key {key!r}; "
                       f"expected one of {PROBLEM_KEYS}")
    return _instance(key, *_BUILTINS[key])

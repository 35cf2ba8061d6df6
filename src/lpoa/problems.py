"""Test problems: generic instance container plus the three built-in CVOPs.

Each instance bundles the objective map, a closed-form weighted-sum
minimizer, the slice parameters bounding the region to approximate and the
ideal point: what the dual distance solver and the initial simplex read,
and nothing else.  Both oracles map rows: an (m, .) array gives one row per
input row, bit for bit the 1-D result of that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["ProblemInstance", "by_key", "PROBLEM_KEYS"]


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
    gamma_eval: Callable[[np.ndarray], np.ndarray]
    w_bar: np.ndarray
    gamma_slice: float
    # closed-form minimizer of omega . gamma(x) over X
    ws_closed_form: Callable[[np.ndarray], np.ndarray]
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
    points = [gamma_eval(ws_closed_form(e_i)) for e_i in np.eye(len(w_bar))]
    offsets = [float(w_bar @ y) for y in points]
    spread = max(offsets) - min(offsets)
    return ProblemInstance(key=key, q=len(w_bar), gamma_eval=gamma_eval,
                           w_bar=w_bar,
                           gamma_slice=max(offsets) + 0.25 * spread,
                           ws_closed_form=ws_closed_form,
                           ideal=np.array(points).diagonal().copy())


def _identity(x):
    return np.asarray(x, dtype=float)


def _ball_minimizer(omega):
    """Example 1: the identity over the unit Euclidean ball centered at
    (1, ..., 1), in any q."""
    # not np.linalg.norm: its axis=-1 form differs from the 1-D one in the
    # last bit
    return 1.0 - omega / np.sqrt(np.vecdot(omega, omega))[..., None]


# the identity over the 45-degree-rotated ellipse x = M t + (2, 2) with
# squared semi-axes (10, 6)
_ELLIPSE_AXES_SQ = np.array([10.0, 6.0])
_ELLIPSE_M = np.array([[-0.5, 0.5], [0.5, 0.5]])
_ELLIPSE_X0 = np.array([2.0, 2.0])


def _ellipse_minimizer(omega):
    c = omega @ _ELLIPSE_M
    scale = np.sqrt((_ELLIPSE_AXES_SQ * c * c).sum(-1, keepdims=True))
    return (-_ELLIPSE_AXES_SQ * c / scale) @ _ELLIPSE_M.T + _ELLIPSE_X0


# Example 2: squared distances to the anchors a_i over the polygon
# X = {x : x1 + 2 x2 <= 10, 0 <= x1 <= 10, 0 <= x2 <= 4}, which contains
# their convex hull
_ANCHORS = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 2.0]])


def _anchor_distances(x):
    d = _ANCHORS - np.asarray(x, dtype=float)[..., None, :]
    d *= d
    # the sum of two squares: one rounding, as in np.add.reduce
    return d[..., 0] + d[..., 1]


def _centroid(omega):
    # unconstrained minimizer of sum omega_i ||x - a_i||^2 is the weighted
    # centroid, which lies in the anchor hull and hence in the polygon
    return (omega @ _ANCHORS) / np.add.reduce(omega, -1, keepdims=True)


# key -> (gamma_eval, w_bar, ws_closed_form)
_BUILTINS = {
    "example1-q2": (_identity, np.ones(2) / 2, _ball_minimizer),
    "example1-q3": (_identity, np.ones(3) / 3, _ball_minimizer),
    "ellipse": (_identity, np.array([0.5, 0.5]), _ellipse_minimizer),
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

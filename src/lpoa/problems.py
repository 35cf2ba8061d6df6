"""Test problems: generic instance container plus the three built-in CVOPs.

Each instance bundles the objective map, a closed-form weighted-sum
minimizer and the slice parameters bounding the region to approximate:
what the dual distance solver reads, and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "ProblemInstance",
    "example1",
    "rotated_ellipse",
    "example2",
    "by_key",
    "PROBLEM_KEYS",
    "weighted_sum",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A convex vector optimization problem with orthant ordering cone.

    The upper image is gamma(X) + R^q_+ and the approximated region A is its
    intersection with the slice {y : w_bar . y <= gamma_slice}.
    """

    key: str
    q: int
    gamma_eval: Callable[[np.ndarray], np.ndarray]
    w_bar: np.ndarray
    gamma_slice: float
    # closed-form minimizer of omega . gamma(x) over X
    ws_closed_form: Callable[[np.ndarray], np.ndarray]

    # not fields: names perfbench/spans.py looks up, and skips when None
    gamma_jacobian = feasible_project = upper_project = None


def weighted_sum(prob: ProblemInstance, omega):
    """Minimize omega . gamma(x) over X.

    Returns (x_star, support_offset) with support_offset = omega.gamma(x*),
    defining the supporting halfspace {y : omega . y >= support_offset} of
    the upper image.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (prob.q,) or np.any(omega < 0) or np.all(omega == 0.0):
        raise ValueError("omega must be a nonzero nonnegative q-vector")
    x = prob.ws_closed_form(omega)
    return x, float(omega @ prob.gamma_eval(x))


# ---------------------------------------------------------------------------
# slice construction


def _attach_slice(build):
    """Finalize an instance: compute slice offset from coordinate supports."""
    inst = build(gamma_slice=np.inf)
    offsets = []
    for i in range(inst.q):
        e_i = np.zeros(inst.q)
        e_i[i] = 1.0
        x_star, _ = weighted_sum(inst, e_i)
        offsets.append(float(inst.w_bar @ inst.gamma_eval(x_star)))
    spread = max(offsets) - min(offsets)
    return build(gamma_slice=max(offsets) + 0.25 * spread)


# ---------------------------------------------------------------------------
# Example 1: identity objective over a unit ball


def example1(q: int) -> ProblemInstance:
    """Identity objective on the unit Euclidean ball centered at (1, ..., 1)."""
    if q not in (2, 3):
        raise ValueError("example1 supports q in {2, 3}")
    e = np.ones(q)

    def ws_closed_form(omega):
        return e - omega / np.linalg.norm(omega)

    def build(gamma_slice):
        return ProblemInstance(
            key=f"example1-q{q}",
            q=q,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            w_bar=e / q,
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# Rotated ellipse: identity objective over a rotated ellipse in R^2

_ELLIPSE_AXES_SQ = np.array([10.0, 6.0])
_ELLIPSE_M = np.array([[-0.5, 0.5], [0.5, 0.5]])       # x = M t + (2, 2)
_ELLIPSE_X0 = np.array([2.0, 2.0])


def rotated_ellipse() -> ProblemInstance:
    """Identity objective over the 45-degree-rotated ellipse centered at (2,2)."""

    def ws_closed_form(omega):
        c = _ELLIPSE_M.T @ omega
        scale = math.sqrt(float(np.sum(_ELLIPSE_AXES_SQ * c * c)))
        return _ELLIPSE_M @ (-_ELLIPSE_AXES_SQ * c / scale) + _ELLIPSE_X0

    def build(gamma_slice):
        return ProblemInstance(
            key="ellipse",
            q=2,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            w_bar=np.array([0.5, 0.5]),
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# Example 2: squared distances to three anchors over a polygon

# the anchors a_i; X = {x : x1 + 2 x2 <= 10, 0 <= x1 <= 10, 0 <= x2 <= 4}
# contains their convex hull
_ANCHORS = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 2.0]])


def example2() -> ProblemInstance:
    """Three squared-distance objectives over a polygonal feasible set."""

    def ws_closed_form(omega):
        # unconstrained minimizer of sum omega_i ||x - a_i||^2 is the weighted
        # centroid, which lies in the anchor hull and hence in the polygon
        return (omega @ _ANCHORS) / float(np.sum(omega))

    def gamma(x):
        d = _ANCHORS - np.asarray(x, dtype=float)
        return np.add.reduce(d * d, axis=1)

    def build(gamma_slice):
        return ProblemInstance(
            key="example2",
            q=3,
            gamma_eval=gamma,
            w_bar=np.ones(3) / 3.0,
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# registry

PROBLEM_KEYS = ("example1-q2", "example1-q3", "ellipse", "example2")


@lru_cache(maxsize=None)
def by_key(key: str) -> ProblemInstance:
    """Problem instances are cached: repeated lookups return one instance."""
    if key == "example1-q2":
        return example1(2)
    if key == "example1-q3":
        return example1(3)
    if key == "ellipse":
        return rotated_ellipse()
    if key == "example2":
        return example2()
    raise KeyError(f"unknown problem key {key!r}; expected one of {PROBLEM_KEYS}")


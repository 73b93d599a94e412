"""Achievable profit-satisfaction regions and tradeoff curves.

For the homogeneous bilinear family (qualities on a uniform ladder,
margins proportional to quality, tariff d_p * theta * s) the achievable
(b, m) region has a linear boundary

    m * (4 * quality_range * L^2) + b * (L / d_p) = demand_range

whose extremes are the zero-profit satisfaction cap ``m0`` and the
zero-satisfaction profit cap ``b0``.  For arbitrary scenarios the region
is mapped on a (b, m) grid by broadcasting the profile solver's own
achievability predicate over the whole grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ScenarioError
from .functions import _coefficient, check_integer, check_size
from .profile import ProfileScenario, _conditions

# upper bounds of the boundary points and of each empirical grid axis
MAX_POINTS = 10 ** 5
MAX_REGION_AXIS = 2048


def _margin_scale(quality_range: float, n: float) -> float:
    """The boundary's margin factor ``4 * quality_range * L^2`` for L = n,
    squared as given: exactly for an int, rounded once for a float."""
    return 4.0 * quality_range * (n * n)


@dataclass(frozen=True)
class TradeoffCurve:
    """Boundary of the achievable (m, b) region, homogeneous bilinear case."""

    quality_range: float
    demand_range: float
    n_types: int
    d_p: float
    points: tuple[tuple[float, float], ...]
    m0: float
    b0: float

    def normalized_m(self, m: float) -> float:
        """Satisfaction margin rescaled by 4 * quality_range * L^2."""
        return _margin_scale(self.quality_range, self.n_types) * m

    def to_dict(self) -> dict:
        return {
            "quality_range": self.quality_range,
            "demand_range": self.demand_range,
            "n_types": self.n_types,
            "d_p": self.d_p,
            "m0": self.m0,
            "b0": self.b0,
            "points": [{"m": m, "b": b, "normalized_m": self.normalized_m(m)}
                       for m, b in self.points],
        }

    def csv_rows(self) -> list[tuple]:
        return [(m, b, self.normalized_m(m), True) for m, b in self.points]


def homogeneous_region(quality_range: float, demand_range: float,
                       n_types: int, d_p: float,
                       n_points: int = 50) -> TradeoffCurve:
    """Boundary points of the achievable region, from (m0, .) to (0, b0).

    ``n_points`` satisfaction margins are spaced uniformly between the
    zero-profit cap ``m0 = min(1, demand_range / (4 * quality_range * L^2))``
    and zero; each carries the boundary profit
    ``b = (demand_range - 4 * quality_range * L^2 * m) * d_p / L``.
    """
    quality_range = _coefficient("quality_range", quality_range, positive=True)
    demand_range = _coefficient("demand_range", demand_range, positive=True)
    check_integer("n_types", n_types)
    if n_types < 1:
        raise ScenarioError("n_types must be at least 1")
    d_p = _coefficient("d_p", d_p, positive=True)
    check_size("n_points", n_points, 2, MAX_POINTS)

    try:
        n = float(n_types)
    except OverflowError:  # beyond the float range: the boundary is not finite
        n = np.inf
    coef_m = _margin_scale(quality_range, n)
    m0 = min(1.0, demand_range / coef_m)
    b0 = demand_range * d_p / n
    ms = np.linspace(m0, 0.0, n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        bs = (demand_range - coef_m * ms) * d_p / n
    if not np.isfinite(np.r_[coef_m, m0, b0, bs]).all():
        raise ScenarioError("the tradeoff boundary of these quality_range, "
                            "demand_range, n_types and d_p is not finite")
    points = tuple((float(m), float(b)) for m, b in zip(ms, bs))
    return TradeoffCurve(quality_range, demand_range, n_types, d_p,
                         points, float(m0), float(b0))


def empirical_region(scenario_template: ProfileScenario,
                     b_grid: Sequence[float],
                     m_grid: Sequence[float]) -> np.ndarray:
    """Achievability matrix over a (b, m) grid for an arbitrary scenario.

    Cell (i, j) reports whether the margins ``b_k = b_grid[i] * s_k``,
    ``m_k = m_grid[j] * s_k`` pass the full achievability check of the
    profile solver, each step's savings premium being the profit
    increment ``b_k - b_{k-1}``; the template must be a valid scenario,
    and its own margins are ignored.  The conditions are assembled by the
    profile solver's own code, once, on the broadcast grid, so the matrix
    is exactly the set of scenarios
    :func:`~contractpricing.profile.build_profile` accepts.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    m_grid = np.asarray(m_grid, dtype=float)
    for name, grid in (("b_grid", b_grid), ("m_grid", m_grid)):
        if grid.ndim != 1:
            raise ScenarioError(f"{name} must be a 1-D grid")
        check_size(f"{name} length", grid.size, 1, MAX_REGION_AXIS)
        if not (grid[0] > 0 and np.all(np.diff(grid) > 0) and grid[-1] < np.inf):
            raise ScenarioError(f"{name} must be finite, positive and increasing")

    # profit floors vary down the rows, half-widths across the columns
    b = [b_grid[:, None] * s for s in scenario_template.qualities]
    m = [m_grid[None, :] * s for s in scenario_template.qualities]
    marginal, _, (entry_ok, _), (spare_ok, _) = _conditions(
        scenario_template, b, m)
    return marginal.passed & entry_ok & spare_ok


def _empirical_artifacts(template: ProfileScenario, b_grid: Sequence[float],
                         m_grid: Sequence[float]) -> tuple[dict, list[tuple]]:
    """The grids and matrix of :func:`empirical_region` as a JSON block,
    and its cells, b-major, as rows like :meth:`TradeoffCurve.csv_rows`,
    whose normalized margins must be finite."""
    matrix = empirical_region(template, b_grid, m_grid)
    scale = _margin_scale(template.box.quality_range, len(template.qualities))
    if not np.isfinite(scale * max(m_grid)):
        raise ScenarioError("empirical: normalized margin "
                            "4 * quality_range * L^2 * m is not finite")
    return ({"b_grid": list(b_grid), "m_grid": list(m_grid),
             "achievable": matrix.tolist()},
            [(m, b, scale * m, bool(matrix[i, j]))
             for i, b in enumerate(b_grid) for j, m in enumerate(m_grid)])

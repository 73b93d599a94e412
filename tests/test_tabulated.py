"""Tabulated families: values and derivatives of their own interpolant.

The oracles (``oracles.py``) are the finite-difference formulas the tabulated
families used before they differentiated their interpolant directly
(central differences with relative step ``FD_STEP``, one-sided at the
table ends).  Where the interpolant is differentiable the difference
quotient equals the segment or cell slope up to rounding; on an interior
knot the central quotient straddles the knot symmetrically and equals
the mean of the two one-sided slopes.  The tolerances are fixed from
float64 rounding before any comparison is made.
"""

import numpy as np
import pytest

from contractpricing import ScenarioError, TabulatedFunction, TabulatedTariff
from oracles import FD_STEP, bilinear_value, broadcast_first, fd_derivative, fd_partials

EPS = np.finfo(float).eps

A, E, C = 1.7, 1.6, 0.7

#: non-uniform knots; the sampled function a * theta**e * s**c is not bilinear
THETAS = np.geomspace(0.5, 2.5, 17)
SS = np.linspace(0.4, 3.0, 11) ** 1.3
VALUES = A * np.outer(THETAS ** E, SS ** C)

XS = np.geomspace(0.2, 6.0, 40)
YS = A * XS ** 0.6

RNG = np.random.default_rng(2024)


def adjacent_cells(grid, x):
    """Cells [grid[k], grid[k+1]] that contain ``x``: two on an interior knot."""
    return [k for k in range(len(grid) - 1) if grid[k] <= x <= grid[k + 1]]


def random_off_knots(grid, n):
    """``n`` uniform points inside the table, each farther than two
    difference steps from every knot (where the oracle's quotient would
    straddle a knot)."""
    x = RNG.uniform(grid[0], grid[-1], 4 * n)
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    gap = np.min(np.abs(x[:, None] - grid[None, :]), axis=1)
    return x[gap > 2.0 * h][:n]


def tolerance(values, coords, slopes):
    """Rounding bound of a difference quotient with step >= FD_STEP.

    Each interpolated value carries a few ulps of max|value|, and the
    rounded step endpoints perturb the quotient by about
    ulp(max|coord|) * max|slope| / step.
    """
    scale = np.max(np.abs(values)) + np.max(np.abs(coords)) * np.max(np.abs(slopes))
    return 16.0 * EPS * scale / FD_STEP


class TestTabulatedFunction:
    FUNC = TabulatedFunction(XS, YS)
    TOL = tolerance(YS, XS, np.diff(YS) / np.diff(XS))

    def points(self):
        return {
            "interior": random_off_knots(XS, 200),
            "interior knots": XS[1:-1],
            "table ends": XS[[0, -1]],
        }

    def test_value_is_np_interp(self):
        s = np.concatenate(list(self.points().values()))
        np.testing.assert_array_equal(self.FUNC._value(s), np.interp(s, XS, YS))

    @pytest.mark.parametrize("where", ["interior", "interior knots", "table ends"])
    def test_derivative_matches_difference_oracle(self, where):
        s = self.points()[where]
        assert s.size > 0
        got = np.asarray(self.FUNC.derivative(s))
        want = fd_derivative(self.FUNC, s)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=self.TOL)

    def test_knot_is_mean_of_one_sided_slopes(self):
        slopes = np.diff(YS) / np.diff(XS)
        for k in range(1, XS.size - 1):
            assert self.FUNC.derivative(float(XS[k])) == 0.5 * (slopes[k - 1] + slopes[k])
        assert self.FUNC.derivative(float(XS[0])) == slopes[0]
        assert self.FUNC.derivative(float(XS[-1])) == slopes[-1]

    def test_scalar_in_scalar_out(self):
        assert isinstance(self.FUNC.derivative(1.0), float)

    def test_non_finite_data_rejected(self):
        ys = YS.copy()
        ys[7] = np.inf
        with pytest.raises(ScenarioError, match="tabulated data must be finite"):
            TabulatedFunction(XS, ys)

    def test_single_knot_rejected(self):
        with pytest.raises(ScenarioError, match="two equal 1-D columns"):
            TabulatedFunction([0.5], [1.0])


class TestTabulatedTariff:
    TARIFF = TabulatedTariff(THETAS, SS, VALUES)
    SLOPES = np.concatenate([
        (np.diff(VALUES, axis=0) / np.diff(THETAS)[:, None]).ravel(),
        (np.diff(VALUES, axis=1) / np.diff(SS)[None, :]).ravel()])
    TOL = tolerance(VALUES, np.concatenate([THETAS, SS]), SLOPES)

    def points(self):
        """(theta, s) pairs by location, as two equal-length arrays."""
        th_knots = np.repeat(THETAS[1:-1], 3)
        s_knots = np.repeat(SS[1:-1], 3)
        edge_s = SS[[0, 3, 6, -1]]
        return {
            "interior": (random_off_knots(THETAS, 200), random_off_knots(SS, 200)),
            "theta knots": (th_knots, random_off_knots(SS, th_knots.size)),
            "s knots": (random_off_knots(THETAS, s_knots.size), s_knots),
            "both knots": tuple(np.ravel(g) for g in np.meshgrid(THETAS[1:-1], SS[1:-1])),
            "table edges": (np.concatenate([THETAS[[0, -1]].repeat(4), np.full(4, THETAS[5])]),
                            np.concatenate([edge_s, edge_s, SS[[0, -1, 0, -1]]])),
            "corners": tuple(np.ravel(g) for g in np.meshgrid(THETAS[[0, -1]], SS[[0, -1]])),
        }

    LOCATIONS = ["interior", "theta knots", "s knots", "both knots",
                 "table edges", "corners"]

    @pytest.mark.parametrize("where", LOCATIONS)
    def test_value_matches_interpolation_formula(self, where):
        th, sv = self.points()[where]
        np.testing.assert_array_equal(self.TARIFF._value(th, sv),
                                      bilinear_value(THETAS, SS, VALUES, th, sv))

    @pytest.mark.parametrize("where", LOCATIONS)
    def test_first_partials_match_difference_oracle(self, where):
        th, sv = self.points()[where]
        assert th.size == sv.size > 0
        f_theta, f_s, _ = self.TARIFF.partials(th, sv)
        want_theta, want_s = fd_partials(self.TARIFF, th, sv)
        np.testing.assert_allclose(f_theta, want_theta, rtol=0.0, atol=self.TOL)
        np.testing.assert_allclose(f_s, want_s, rtol=0.0, atol=self.TOL)

    @pytest.mark.parametrize("where", LOCATIONS)
    def test_cross_partial_is_mean_cell_cross_slope(self, where):
        th, sv = self.points()[where]
        _, _, f_2 = self.TARIFF.partials(th, sv)
        want = []
        for t, s in zip(th, sv):
            slopes = [(VALUES[i + 1, j + 1] - VALUES[i + 1, j]
                       - VALUES[i, j + 1] + VALUES[i, j])
                      / ((THETAS[i + 1] - THETAS[i]) * (SS[j + 1] - SS[j]))
                      for i in adjacent_cells(THETAS, t)
                      for j in adjacent_cells(SS, s)]
            want.append(sum(slopes) / len(slopes))
        # four rounded table entries over the smallest cell area
        tol = 16.0 * EPS * np.max(np.abs(VALUES)) / (
            np.min(np.diff(THETAS)) * np.min(np.diff(SS)))
        np.testing.assert_allclose(f_2, want, rtol=0.0, atol=tol)

    def shapes(self):
        """(theta, s) arguments of every shape the callers pass: on knots,
        on the grid edges and inside cells."""
        th = np.concatenate([THETAS, random_off_knots(THETAS, 9)])
        sv = np.concatenate([SS[[0, 4, -1]], random_off_knots(SS, 6), SS[[1, -1]]])
        th_pairs = np.concatenate([THETAS[[0, 3, -1]], th[-sv.size + 3:]])
        return {
            "scalar_knot": (np.asarray(THETAS[4]), np.asarray(SS[-1])),
            "scalar_edge": (np.asarray(THETAS[-1]), np.asarray(SS[0])),
            "scalar_inside": (np.asarray(th[-1]), np.asarray(sv[5])),
            "n_by_n": (th_pairs, sv),
            "n_by_scalar": (th, np.asarray(SS[2])),
            "n1_by_1m": (th[:, None], sv[None, :]),
            "1m_by_n1": (th[None, :], sv[:, None]),
        }

    @pytest.mark.parametrize("shape", ["scalar_knot", "scalar_edge", "scalar_inside",
                                       "n_by_n", "n_by_scalar",
                                       "n1_by_1m", "1m_by_n1"])
    def test_unbroadcast_lookups_match_broadcast_first(self, shape):
        th, sv = self.shapes()[shape]
        value, partials = broadcast_first(self.TARIFF)
        want = (value(th, sv),) + partials(th, sv)
        got = (self.TARIFF._value(th, sv),) + self.TARIFF._partials(th, sv)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            np.testing.assert_array_equal(g, w)

    def test_scalar_and_broadcast_shapes(self):
        ft, fs, f2 = self.TARIFF.partials(1.0, 1.5)
        assert all(isinstance(x, float) for x in (ft, fs, f2))
        thetas = np.linspace(THETAS[0], THETAS[-1], 7)
        for part in self.TARIFF.partials(thetas, 1.5):
            assert np.shape(part) == (7,)

    def test_single_knot_axis_rejected(self):
        with pytest.raises(ScenarioError, match="knots per axis"):
            TabulatedTariff([0.5], [1.0, 2.0], [[1.0, 2.0]])

    def test_non_finite_value_rejected(self):
        values = VALUES.copy()
        values[3, 4] = np.nan
        with pytest.raises(ScenarioError, match="grids and values must be finite"):
            TabulatedTariff(THETAS, SS, values)

    def test_non_increasing_grid_rejected(self):
        thetas = THETAS.copy()
        thetas[5] = thetas[4]
        with pytest.raises(ScenarioError, match="grids must be strictly increasing"):
            TabulatedTariff(thetas, SS, VALUES)

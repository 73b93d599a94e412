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

from contractpricing import (
    BilinearTariff,
    LinearFunction,
    LogFunction,
    PowerFunction,
    ScaledFunction,
    ScenarioError,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
)
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
        f_theta, f_s = self.TARIFF.partials(th, sv)
        want_theta, want_s = fd_partials(self.TARIFF, th, sv)
        np.testing.assert_allclose(f_theta, want_theta, rtol=0.0, atol=self.TOL)
        np.testing.assert_allclose(f_s, want_s, rtol=0.0, atol=self.TOL)

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
        ft, fs = self.TARIFF.partials(1.0, 1.5)
        assert all(isinstance(x, float) for x in (ft, fs))
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


class TestKnots:
    """The points where a family may bend, strictly inside (lo, hi)."""

    LO, HI = 0.9, 1.7

    def test_tabulated_function_knots(self):
        want = XS[(XS > self.LO) & (XS < self.HI)]
        assert want.size > 2
        func = TabulatedFunction(XS, YS)
        assert np.array_equal(func.knots(self.LO, self.HI), want)
        assert np.array_equal(ScaledFunction(func, 2.0).knots(self.LO, self.HI), want)

    def test_knots_on_the_ends_are_left_out(self):
        func = TabulatedFunction(XS, YS)
        assert np.array_equal(func.knots(XS[3], XS[6]), XS[4:6])

    def test_tariff_theta_knots(self):
        want = THETAS[(THETAS > self.LO) & (THETAS < self.HI)]
        assert want.size > 2
        tabulated = TabulatedTariff(THETAS, SS, VALUES)
        separable = SeparableTariff(TabulatedFunction(THETAS, THETAS ** E),
                                    LinearFunction(1.0))
        for tariff in (tabulated, separable):
            assert np.array_equal(tariff.theta_knots(self.LO, self.HI), want)

    def test_closed_forms_have_no_knots(self):
        closed = (LinearFunction(1.0), LogFunction(2.0), PowerFunction(1.0, 0.5),
                  ScaledFunction(LogFunction(2.0), 3.0))
        for func in closed:
            assert func.knots(self.LO, self.HI).size == 0
        for tariff in (BilinearTariff(4.0),
                       SeparableTariff(PowerFunction(1.0, 2.0), LinearFunction(1.0))):
            assert tariff.theta_knots(self.LO, self.HI).size == 0

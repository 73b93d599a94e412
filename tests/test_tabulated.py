"""Tabulated families: values and derivatives of their own interpolant.

The oracles below are the finite-difference formulas the tabulated
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

#: relative step of the finite-difference oracle
FD_STEP = 1e-5

EPS = np.finfo(float).eps

A, E, C = 1.7, 1.6, 0.7

#: non-uniform knots; the sampled function a * theta**e * s**c is not bilinear
THETAS = np.geomspace(0.5, 2.5, 17)
SS = np.linspace(0.4, 3.0, 11) ** 1.3
VALUES = A * np.outer(THETAS ** E, SS ** C)

XS = np.geomspace(0.2, 6.0, 40)
YS = A * XS ** 0.6

RNG = np.random.default_rng(2024)


def fd_derivative(func, s):
    """Central difference of ``func._value``, one-sided at the domain ends."""
    lo, hi = func.domain
    h = FD_STEP * np.maximum(1.0, np.abs(s))
    left = np.maximum(s - h, lo)
    right = np.minimum(s + h, hi)
    return (func._value(right) - func._value(left)) / (right - left)


def fd_partials(tariff, th, sv):
    """Central differences of ``tariff._value`` clipped to the grid box."""
    th, sv = np.broadcast_arrays(th, sv)
    t_lo, t_hi = tariff.theta_domain
    s_lo, s_hi = tariff.s_domain
    ht = FD_STEP * np.maximum(1.0, np.abs(th))
    hs = FD_STEP * np.maximum(1.0, np.abs(sv))
    t0, t1 = np.maximum(th - ht, t_lo), np.minimum(th + ht, t_hi)
    s0, s1 = np.maximum(sv - hs, s_lo), np.minimum(sv + hs, s_hi)
    f_theta = (tariff._value(t1, sv) - tariff._value(t0, sv)) / (t1 - t0)
    f_s = (tariff._value(th, s1) - tariff._value(th, s0)) / (s1 - s0)
    return f_theta, f_s


def bilinear_value(thetas, ss, v, th, sv):
    """The bilinear interpolation formula, written out on its own."""
    th, sv = np.broadcast_arrays(np.asarray(th, float), np.asarray(sv, float))
    i = np.clip(np.searchsorted(thetas, th, side="right") - 1, 0, thetas.size - 2)
    j = np.clip(np.searchsorted(ss, sv, side="right") - 1, 0, ss.size - 2)
    t0, t1 = thetas[i], thetas[i + 1]
    s0, s1 = ss[j], ss[j + 1]
    wt = (th - t0) / (t1 - t0)
    ws = (sv - s0) / (s1 - s0)
    return ((1 - wt) * (1 - ws) * v[i, j]
            + wt * (1 - ws) * v[i + 1, j]
            + (1 - wt) * ws * v[i, j + 1]
            + wt * ws * v[i + 1, j + 1])


def broadcast_first(tariff):
    """``TabulatedTariff``'s ``_value`` and ``_partials`` as they were when
    both broadcast theta and s before their two cell lookups."""
    def cell(grid, x):
        k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
        return k, (x - grid[k]) / (grid[k + 1] - grid[k])

    def value(th, sv):
        th, sv = np.broadcast_arrays(np.asarray(th, float), np.asarray(sv, float))
        (i, wt), (j, ws) = cell(tariff.thetas, th), cell(tariff.ss, sv)
        v = tariff.values_grid
        return ((1 - wt) * (1 - ws) * v[i, j]
                + wt * (1 - ws) * v[i + 1, j]
                + (1 - wt) * ws * v[i, j + 1]
                + wt * ws * v[i + 1, j + 1])

    def partials(th, sv):
        th, sv = np.broadcast_arrays(th, sv)
        (i, wt), (j, ws) = cell(tariff.thetas, th), cell(tariff.ss, sv)
        il, jl = i - ((wt == 0) & (i > 0)), j - ((ws == 0) & (j > 0))
        st, ss, sc = tariff.theta_slopes, tariff.s_slopes, tariff.cross_slopes
        f_theta = 0.5 * ((1 - ws) * (st[i, j] + st[il, j])
                         + ws * (st[i, j + 1] + st[il, j + 1]))
        f_s = 0.5 * ((1 - wt) * (ss[i, j] + ss[i, jl])
                     + wt * (ss[i + 1, j] + ss[i + 1, jl]))
        f_2 = 0.25 * ((sc[i, j] + sc[il, j]) + (sc[i, jl] + sc[il, jl]))
        return f_theta, f_s, f_2

    return value, partials


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

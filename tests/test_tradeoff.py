"""Tradeoff curves and the empirical achievability region."""

import dataclasses

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    MarginSpec,
    ProfileScenario,
    ScenarioError,
    TabulatedTariff,
    build_profile,
    check_achievability,
    empirical_region,
    homogeneous_region,
)
from contractpricing.tradeoff import MAX_REGION_AXIS
from conftest import make_separable_profile_scenario


def boundary_residual(curve):
    coef = 4.0 * curve.quality_range * curve.n_types ** 2
    return [m * coef + b * curve.n_types / curve.d_p - curve.demand_range
            for m, b in curve.points]


def make_template(d_p=12.0, grid_n=64):
    return ProfileScenario(
        qualities=(1.0, 2.0, 3.0),
        tariff=BilinearTariff(d_p),
        cost=LinearFunction(1.0),
        box=DomainBox(1.0 / 3.0, 1.0, 1.0, 3.0),
        margins=MarginSpec(b=(0.1, 0.2, 0.3), m=(0.01, 0.02, 0.03)),
        grid_n=grid_n,
    )


def make_tabulated_template():
    """The bilinear template with its tariff sampled on a 40 x 40 grid."""
    thetas = np.linspace(1.0 / 3.0, 1.0, 40)
    ss = np.linspace(0.5, 3.5, 40)
    return dataclasses.replace(
        make_template(d_p=4.0),
        tariff=TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss)))


def oracle_region(template, b_grid, m_grid):
    """Reference matrix: the solver's predicate on one scenario per cell."""
    s = np.asarray(template.qualities)
    result = np.zeros((len(b_grid), len(m_grid)), dtype=bool)
    for i, b in enumerate(b_grid):
        for j, m in enumerate(m_grid):
            margins = MarginSpec(b=tuple(b * s), m=tuple(m * s))
            scenario = dataclasses.replace(template, margins=margins)
            result[i, j] = check_achievability(scenario).passed
    return result


class TestHomogeneousRegion:
    def test_reference_boundary_relation(self):
        # with three types and d_p = 3 the boundary collapses to
        # 36 m quality_range + b = demand_range
        curve = homogeneous_region(2.0, 2.0 / 3.0, 3, 3.0, 11)
        for m, b in curve.points:
            assert 36.0 * m * 2.0 + b == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_boundary_relation_general(self):
        for quality_range, demand_range, n_types, d_p in [
                (1.0, 0.5, 2, 2.0), (3.0, 1.5, 4, 5.0), (0.4, 2.0, 1, 1.5)]:
            curve = homogeneous_region(quality_range, demand_range, n_types,
                                       d_p, 17)
            for r in boundary_residual(curve):
                assert abs(r) <= 1e-12

    def test_extremes(self):
        curve = homogeneous_region(2.0, 2.0 / 3.0, 3, 3.0, 5)
        assert curve.b0 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert curve.m0 == pytest.approx((2.0 / 3.0) / 72.0, abs=1e-12)
        assert curve.m0 == pytest.approx(0.009259, abs=1e-6)
        first_m, first_b = curve.points[0]
        last_m, last_b = curve.points[-1]
        assert (first_m, first_b) == (pytest.approx(curve.m0), pytest.approx(0.0))
        assert (last_m, last_b) == (0.0, pytest.approx(curve.b0))

    def test_points_inside_extremes(self):
        curve = homogeneous_region(1.3, 0.9, 2, 4.0, 33)
        for m, b in curve.points:
            assert -1e-15 <= m <= curve.m0 + 1e-15
            assert -1e-12 <= b <= curve.b0 + 1e-12

    def test_satisfaction_cap_saturates_at_one(self):
        curve = homogeneous_region(0.001, 10.0, 1, 1.0, 5)
        assert curve.m0 == 1.0

    def test_profit_grows_with_demand_range(self):
        # wider demand ranges help at every satisfaction level
        narrow = homogeneous_region(2.0, 0.5, 3, 3.0, 9)
        wide = homogeneous_region(2.0, 1.0, 3, 3.0, 9)
        for m in (0.0, 0.002, 0.004):
            b_narrow = (narrow.demand_range - 72.0 * m) * 1.0
            b_wide = (wide.demand_range - 72.0 * m) * 1.0
            assert b_wide > b_narrow

    def test_profit_shrinks_with_quality_range(self):
        small = homogeneous_region(1.0, 1.0, 3, 3.0, 9)
        large = homogeneous_region(2.0, 1.0, 3, 3.0, 9)
        for m in (0.002, 0.004):
            b_small = small.demand_range - 36.0 * m * 1.0
            b_large = large.demand_range - 36.0 * m * 2.0
            assert b_large < b_small

    def test_parameter_validation(self):
        with pytest.raises(ScenarioError):
            homogeneous_region(0.0, 1.0, 3, 3.0)
        with pytest.raises(ScenarioError):
            homogeneous_region(1.0, 1.0, 3, 3.0, n_points=1)


class TestEmpiricalRegion:
    def test_tiny_margins_achievable(self):
        matrix = empirical_region(make_template(), [1e-4], [1e-5])
        assert matrix.shape == (1, 1)
        assert matrix[0, 0]

    def test_oversized_margins_fail(self):
        matrix = empirical_region(make_template(), [50.0], [0.5])
        assert not matrix[0, 0]

    def test_downward_closure(self):
        b_grid = np.linspace(0.03, 0.9, 12)
        m_grid = np.linspace(0.001, 0.03, 12)
        matrix = empirical_region(make_template(d_p=4.0), b_grid, m_grid)
        assert matrix.any() and not matrix.all()
        # a pass at (b, m) implies a pass at any smaller b and m
        for i in range(len(b_grid)):
            for j in range(len(m_grid)):
                if matrix[i, j]:
                    assert matrix[: i + 1, : j + 1].all()

    def test_analytic_region_is_empirically_achievable(self):
        # boundary points of the closed-form region must pass the exact
        # solver-side predicate (the closed form over-estimates the
        # demand budget), d_p large enough that entry is never binding
        template = make_template(d_p=12.0)
        curve = homogeneous_region(2.0, 2.0 / 3.0, 3, 12.0, 9)
        interior = [(m, b) for m, b in curve.points if m > 0 and b > 0]
        assert interior
        for m, b in interior:
            matrix = empirical_region(template, [b], [m])
            assert matrix[0, 0], (m, b)

    def test_achievable_cells_build_certified_profiles(self):
        template = make_template(d_p=4.0)
        b_grid = [0.05, 0.2]
        m_grid = [0.002, 0.008]
        matrix = empirical_region(template, b_grid, m_grid)
        for i, b in enumerate(b_grid):
            for j, m in enumerate(m_grid):
                assert matrix[i, j]
                margins = MarginSpec(
                    b=tuple(b * s for s in template.qualities),
                    m=tuple(m * s for s in template.qualities))
                scenario = dataclasses.replace(template, margins=margins)
                build_profile(scenario)  # certified or raises

    @pytest.mark.parametrize("template, b_max, m_max", [
        (make_template(d_p=4.0), 0.6, 0.03),
        (make_separable_profile_scenario(), 1.0, 0.015),
        (make_tabulated_template(), 0.6, 0.03),
    ], ids=["bilinear", "separable", "tabulated"])
    def test_matches_per_cell_oracle(self, template, b_max, m_max):
        # the coarsest scan keeps the per-cell oracle cheap on a fine grid
        template = dataclasses.replace(template, grid_n=16)
        b_grid = np.linspace(0.02, b_max, 15)
        m_grid = np.linspace(0.001, m_max, 15)
        matrix = empirical_region(template, b_grid, m_grid)
        assert matrix.any() and not matrix.all()
        assert np.array_equal(matrix, oracle_region(template, b_grid, m_grid))

    def test_failing_marginal_budget_rejects_every_cell(self):
        template = make_template(d_p=1.0)
        b_grid = [1e-4, 1e-3]
        m_grid = [1e-5, 1e-4, 1e-3]
        matrix = empirical_region(template, b_grid, m_grid)
        assert matrix.shape == (2, 3)
        assert not matrix.any()
        assert np.array_equal(matrix, oracle_region(template, b_grid, m_grid))

    def test_single_quality_matches_oracle(self):
        template = dataclasses.replace(
            make_template(d_p=4.0), qualities=(2.0,),
            margins=MarginSpec(b=(0.1,), m=(0.01,)))
        b_grid = np.linspace(0.01, 0.5, 7)
        m_grid = np.linspace(0.01, 0.5, 7)
        matrix = empirical_region(template, b_grid, m_grid)
        assert matrix.any() and not matrix.all()
        assert np.array_equal(matrix, oracle_region(template, b_grid, m_grid))

    def test_grid_validation(self):
        with pytest.raises(ScenarioError):
            empirical_region(make_template(), [0.1, 0.05], [0.01])
        with pytest.raises(ScenarioError):
            empirical_region(make_template(), [], [0.01])
        with pytest.raises(ScenarioError, match="b_grid must be finite"):
            empirical_region(make_template(), [0.05, np.nan, 0.1], [0.01])


class TestSizingBounds:
    def test_n_points_bound(self):
        with pytest.raises(ScenarioError, match="n_points"):
            homogeneous_region(1.0, 1.0, 3, 3.0, n_points=10 ** 20)

    @pytest.mark.parametrize("axis", ["b_grid", "m_grid"])
    def test_grid_length_bound(self, axis):
        grids = {"b_grid": [1e-4], "m_grid": [1e-5]}
        grids[axis] = np.linspace(1e-6, 1e-4, MAX_REGION_AXIS + 1)
        with pytest.raises(ScenarioError, match=axis):
            empirical_region(make_template(), **grids)

    def test_template_grid_n_bound(self):
        with pytest.raises(ScenarioError, match="grid_n"):
            empirical_region(make_template(grid_n=10 ** 20), [1e-4], [1e-5])

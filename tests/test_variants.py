"""Rank-3 variants: constraint tables, projections, closure."""

import numpy as np
import pytest

from kmln.core import ParamSet, assemble, compose, numeric_rank, random_params
from kmln.variants import (
    VARIANT_IDS,
    constraint_residual,
    construct_variant,
    matching_variants,
    parse_variant,
    sample_variant,
    variant_constraints,
    variant_membership,
    variant_name,
)

COMPONENTS = [f"{vec}{idx}" for vec in "kmnl" for idx in range(4)]


def table_matrix(vid):
    rows = []
    for equation in variant_constraints(vid):
        row = np.zeros(16, dtype=complex)
        for coeff, comp in equation:
            row[COMPONENTS.index(comp)] += coeff
        rows.append(row)
    return np.array(rows)


def params_from_vector(x):
    return ParamSet(k=x[0:4], m=x[4:8], n=x[8:12], l=x[12:16])


class TestIds:
    def test_sixteen_ids_row_major(self):
        assert len(VARIANT_IDS) == 16
        assert VARIANT_IDS[0] == (0, 0)
        assert VARIANT_IDS[1] == (0, 1)
        assert VARIANT_IDS[4] == (1, 0)

    def test_parse_and_name(self):
        assert parse_variant("02") == (0, 2)
        assert parse_variant((3, 1)) == (3, 1)
        assert variant_name((2, 3)) == "23"
        for bad in ("4", "44", "ab", (0, 4), 7, None):
            with pytest.raises(ValueError):
                parse_variant(bad)


class TestConstraintTables:
    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_seven_independent_equations(self, vid):
        a = table_matrix(vid)
        assert a.shape == (7, 16)
        assert np.linalg.matrix_rank(a) == 7

    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_table_solutions_have_the_zero_lines(self, vid):
        # every parameter set satisfying the table assembles with row i and
        # column j zero
        i, j = vid
        a = table_matrix(vid)
        _, _, vh = np.linalg.svd(a, full_matrices=True)
        null_basis = vh[7:, :].conj().T
        rng = np.random.default_rng(hash(vid) & 0xFFFF)
        for _ in range(5):
            x = null_basis @ (rng.standard_normal(9) + 1j * rng.standard_normal(9))
            g = assemble(params_from_vector(x))
            line = max(float(np.abs(g[i, :]).max()), float(np.abs(g[:, j]).max()))
            assert line <= 1e-12 * max(float(np.linalg.norm(g)), 1.0)

    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_zero_line_matrices_satisfy_the_table(self, vid):
        rng = np.random.default_rng(200 + 16 * vid[0] + vid[1])
        for _ in range(5):
            p = sample_variant(vid, rng)
            assert constraint_residual(vid, p) <= 1e-13

    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_generic_parameters_violate_the_table(self, vid):
        rng = np.random.default_rng(300)
        for _ in range(5):
            assert constraint_residual(vid, random_params(rng)) > 1e-3


class TestProjection:
    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_zero_pattern(self, vid):
        i, j = vid
        rng = np.random.default_rng(17)
        g = assemble(construct_variant(vid, random_params(rng)))
        line = max(float(np.abs(g[i, :]).max()), float(np.abs(g[:, j]).max()))
        assert line <= 1e-13 * float(np.linalg.norm(g))

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(18)
        p = random_params(rng)
        once = construct_variant((1, 2), p)
        twice = construct_variant((1, 2), once)
        assert np.allclose(once.components(), twice.components(), atol=1e-13)

    def test_projection_keeps_other_entries(self):
        rng = np.random.default_rng(19)
        p = random_params(rng)
        g_before = assemble(p)
        g_after = assemble(construct_variant((0, 3), p))
        mask = np.ones((4, 4), dtype=bool)
        mask[0, :] = False
        mask[:, 3] = False
        assert np.allclose(g_after[mask], g_before[mask], atol=1e-13)


class TestMembershipAndClosure:
    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_membership(self, vid):
        rng = np.random.default_rng(20)
        g = assemble(sample_variant(vid, rng))
        assert variant_membership(vid, g)
        full = assemble(random_params(rng))
        assert not variant_membership(vid, full)
        assert matching_variants(g) == (vid,)

    def test_zero_matrix_in_all_variants(self):
        assert matching_variants(np.zeros((4, 4))) == VARIANT_IDS

    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_closure_under_composition(self, vid):
        i, j = vid
        rng = np.random.default_rng(21)
        for _ in range(20):
            prod = compose(sample_variant(vid, rng), sample_variant(vid, rng))
            g = assemble(prod)
            scale = max(float(np.linalg.norm(g)), 1.0)
            line = max(float(np.abs(g[i, :]).max()), float(np.abs(g[:, j]).max()))
            assert line <= 1e-12 * scale
            assert constraint_residual(vid, prod) <= 1e-12

    @pytest.mark.parametrize("vid", VARIANT_IDS)
    def test_generic_rank_three(self, vid):
        rng = np.random.default_rng(22)
        ranks = {numeric_rank(assemble(sample_variant(vid, rng)))
                 for _ in range(10)}
        assert max(ranks) == 3

    def test_real_sampling(self):
        from kmln.core import is_real_conditions

        rng = np.random.default_rng(23)
        p = sample_variant((2, 1), rng, real=True)
        assert is_real_conditions(p)
        assert float(np.abs(assemble(p).imag).max()) <= 1e-12

    def test_membership_validates_shape(self):
        with pytest.raises(ValueError):
            variant_membership((0, 0), np.eye(3))
        with pytest.raises(ValueError):
            matching_variants(np.eye(3))


def per_variant(g, tol):
    """Reference for matching_variants: one variant_membership call per id."""
    return tuple(v for v in VARIANT_IDS if variant_membership(v, g, tol))


def near_threshold_inputs(tol):
    """Variant members with row i or column j raised to 0.5x or 2x the
    membership threshold tol * |g|."""
    rng = np.random.default_rng(24)
    for vid in VARIANT_IDS:
        i, j = vid
        g = assemble(sample_variant(vid, rng))
        thr = tol * float(np.linalg.norm(g))
        for factor in (0.5, 2.0):
            for line in (np.s_[i, :], np.s_[:, j]):
                h = g.copy()
                e = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
                h[line] = factor * thr * e / np.linalg.norm(e)
                yield vid, factor, h


class TestMatchingVariants:
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_agrees_with_the_per_variant_loop(self, tol):
        rng = np.random.default_rng(25)
        inputs = [np.zeros((4, 4)), np.eye(4)]
        inputs += [assemble(sample_variant(vid, rng)) for vid in VARIANT_IDS]
        inputs += [h for _, _, h in near_threshold_inputs(tol)]
        for g in inputs:
            assert matching_variants(g, tol) == per_variant(g, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_threshold_is_relative_to_the_matrix(self, tol):
        for vid, factor, h in near_threshold_inputs(tol):
            assert (vid in matching_variants(h, tol)) == (factor < 1)

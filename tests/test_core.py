"""Block parameterization, parameter-space product, helpers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmln import core
from kmln.core import (
    SIGMA,
    TOL_FLOOR,
    AssembleOverflowError,
    ComposeOverflowError,
    ParamSet,
    assemble,
    compose,
    det_block,
    disassemble,
    identity_params,
    is_real_conditions,
    numeric_rank,
    param_norm,
    random_params,
    random_real_params,
    zero_params,
)

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
cvec4 = st.lists(complexes, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex)
)
paramsets = st.builds(ParamSet, k=cvec4, m=cvec4, l=cvec4, n=cvec4)
stacks = st.integers(1, 6).flatmap(
    lambda n: st.lists(paramsets, min_size=n, max_size=n)
)


# where each parameter vector's block sits in the assembled 4x4 matrix
BLOCKS = {
    "k": np.s_[:2, :2],
    "m": np.s_[2:, 2:],
    "l": np.s_[2:, :2],
    "n": np.s_[:2, 2:],
}


def only(name, cv):
    """ParamSet with vector `name` set to cv and the other three zero."""
    return ParamSet(**{v: cv if v == name else np.zeros(4) for v in "kmln"})


def pauli_expansion(cv):
    return cv[0] * np.eye(2) + sum(cv[i + 1] * SIGMA[i] for i in range(3))


def rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(
        float(np.linalg.norm(np.asarray(b))), 1.0
    )


class TestBlocks:
    def test_pauli_matrices(self):
        for s in SIGMA:
            assert np.allclose(s @ s.conj().T, np.eye(2))
            assert np.allclose(s @ s, np.eye(2))
        # sigma1 sigma2 = i sigma3 and cyclic
        assert np.allclose(SIGMA[0] @ SIGMA[1], 1j * SIGMA[2])
        assert np.allclose(SIGMA[1] @ SIGMA[2], 1j * SIGMA[0])
        assert np.allclose(SIGMA[2] @ SIGMA[0], 1j * SIGMA[1])

    @given(paramsets)
    def test_block_is_linear_combination(self, p):
        g = assemble(p)
        for name, at in BLOCKS.items():
            assert np.allclose(g[at], pauli_expansion(getattr(p, name)),
                               atol=1e-12)

    def test_block_entries(self):
        cv = np.array([1 + 2j, 3, 4j, 5 - 1j])
        for name, at in BLOCKS.items():
            g = assemble(only(name, cv))
            b = g[at]
            assert b[0, 0] == (1 + 2j) + (5 - 1j)
            assert b[1, 1] == (1 + 2j) - (5 - 1j)
            assert b[0, 1] == 3 - 1j * 4j
            assert b[1, 0] == 3 + 1j * 4j
            b[...] = 0
            assert not g.any()

    @given(cvec4)
    def test_disassemble_inverts_each_block(self, cv):
        for name, at in BLOCKS.items():
            g = np.zeros((4, 4), dtype=complex)
            g[at] = pauli_expansion(cv)
            back = disassemble(g)
            for v in "kmln":
                want = cv if v == name else np.zeros(4)
                assert np.allclose(getattr(back, v), want, atol=1e-12)

    @given(cvec4)
    def test_det_block(self, cv):
        for name, at in BLOCKS.items():
            block = assemble(only(name, cv))[at]
            assert abs(det_block(cv) - np.linalg.det(block)) <= 1e-10

    def test_basis_times_its_adjoint_is_twice_identity(self):
        # U rebuilt column by column from the 16 unit component vectors
        u = np.column_stack([
            assemble(ParamSet(*e.reshape(4, 4))).ravel()
            for e in np.eye(16, dtype=complex)
        ])
        assert np.array_equal(u @ u.conj().T, 2 * np.eye(16))


class TestAssembly:
    @given(paramsets)
    def test_round_trip_params(self, p):
        back = disassemble(assemble(p))
        assert np.allclose(back.components(), p.components(), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_matrix(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        assert rel(assemble(disassemble(g)), g) <= 1e-14

    def test_block_layout(self):
        p = ParamSet(k=[1, 0, 0, 0], m=[2, 0, 0, 0],
                     l=[3, 0, 0, 0], n=[4, 0, 0, 0])
        g = assemble(p)
        assert np.allclose(g[:2, :2], np.eye(2))
        assert np.allclose(g[2:, 2:], 2 * np.eye(2))
        assert np.allclose(g[2:, :2], 3 * np.eye(2))
        assert np.allclose(g[:2, 2:], 4 * np.eye(2))

    def test_disassemble_validates(self):
        with pytest.raises(ValueError):
            disassemble(np.eye(3))
        with pytest.raises(ValueError):
            disassemble(np.full((4, 4), np.nan))


class TestCompose:
    @given(paramsets, paramsets)
    def test_matches_dense_product(self, p1, p2):
        dense = assemble(p1) @ assemble(p2)
        assert rel(assemble(compose(p1, p2)), dense) <= 1e-12

    @given(paramsets, paramsets, paramsets)
    @settings(max_examples=25)
    def test_associative(self, p1, p2, p3):
        a = compose(compose(p1, p2), p3)
        b = compose(p1, compose(p2, p3))
        assert np.allclose(a.components(), b.components(),
                           atol=1e-9, rtol=1e-9)

    @given(paramsets)
    def test_identity_and_zero(self, p):
        e = identity_params()
        assert np.allclose(compose(e, p).components(), p.components(),
                           atol=1e-12)
        assert np.allclose(compose(p, e).components(), p.components(),
                           atol=1e-12)
        z = zero_params()
        assert np.allclose(compose(z, p).components(), 0, atol=1e-12)

    def test_left_factor_convention(self):
        # compose(a, b) must be the matrix product (a b), not (b a)
        rng = np.random.default_rng(0)
        a, b = random_params(rng), random_params(rng)
        ab = assemble(compose(a, b))
        assert rel(ab, assemble(a) @ assemble(b)) <= 1e-12
        assert rel(ab, assemble(b) @ assemble(a)) > 1e-3


def unit_params(i):
    e = np.zeros(16, dtype=complex)
    e[i] = 1
    return ParamSet(k=e[0:4], m=e[4:8], l=e[8:12], n=e[12:16])


def components(ps):
    return np.stack([p.components() for p in ps])


class TestProductLaw:
    def test_compiled_law_has_128_terms_8_per_output(self):
        assert core._LAW_LEFT.shape == core._LAW_RIGHT.shape == (128,)
        assert core._LAW_COEFF.shape == (128,)
        assert np.all(core._LAW_COEFF != 0)
        # the structure tensor of the dense product, one basis pair at a time
        tensor = np.zeros((16, 16, 16), dtype=complex)
        for i in range(16):
            for j in range(16):
                g = assemble(unit_params(i)) @ assemble(unit_params(j))
                tensor[:, i, j] = disassemble(g).components()
        out, left, right = np.nonzero(tensor)
        assert np.array_equal(np.bincount(out), np.full(16, 8))
        assert np.array_equal(left, core._LAW_LEFT)
        assert np.array_equal(right, core._LAW_RIGHT)
        assert np.array_equal(tensor[out, left, right], core._LAW_COEFF)

    @given(stacks, st.data())
    def test_stacked_equals_pairwise_and_dense(self, lefts, data):
        rights = data.draw(st.lists(paramsets, min_size=len(lefts),
                                    max_size=len(lefts)))
        stacked = compose(components(lefts), components(rights))
        assert stacked.shape == (len(lefts), 16)
        pairwise = [compose(p, q) for p, q in zip(lefts, rights)]
        assert np.array_equal(stacked, components(pairwise))
        for p, q, pq in zip(lefts, rights, pairwise):
            dense = assemble(p) @ assemble(q)
            assert rel(assemble(pq), dense) <= 1e-12
        # a ParamSet broadcasts against a stack
        mixed = compose(lefts[0], components(rights))
        assert np.array_equal(
            mixed, components([compose(lefts[0], q) for q in rights])
        )

    @given(stacks, st.data())
    @settings(max_examples=50)
    def test_stacked_associative_to_1e12(self, ps, data):
        qs, rs = (data.draw(st.lists(paramsets, min_size=len(ps),
                                     max_size=len(ps))) for _ in range(2))
        a, b, c = components(ps), components(qs), components(rs)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        # rounding error is bounded by the product of the operand norms
        scale = np.maximum(np.linalg.norm(a, axis=-1)
                           * np.linalg.norm(b, axis=-1)
                           * np.linalg.norm(c, axis=-1), TOL_FLOOR)
        err = np.linalg.norm(left - right, axis=-1) / scale
        assert float(err.max()) <= 1e-12

    def test_rejects_bad_arrays(self):
        p = identity_params()
        with pytest.raises(ValueError, match="shape"):
            compose(p, np.zeros((3, 15)))
        with pytest.raises(ValueError, match="non-finite"):
            compose(np.full(16, np.nan), p)


class TestOverflow:
    def test_assemble_overflow_raises_named_error_without_warnings(self):
        big = ParamSet(k=[1e308] * 4, m=[0] * 4, l=[0] * 4, n=[0] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssembleOverflowError,
                               match="assemble.*overflow"):
                assemble(big)
            # half-sums of the largest finite entries, of either sign, stay
            # finite
            signs = np.random.default_rng(0).choice([-1.0, 1.0], (2, 4, 4))
            g = np.finfo(float).max * (signs[0] + 1j * signs[1])
            assert np.all(np.isfinite(disassemble(g).components()))
        assert issubclass(AssembleOverflowError, ValueError)

    def test_overflow_raises_named_error_without_warnings(self):
        big = ParamSet(k=[1e200] * 4, m=[1e200] * 4,
                       l=[1e200] * 4, n=[1e200] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComposeOverflowError, match="compose.*overflow"):
                compose(big, big)
            with pytest.raises(ComposeOverflowError):
                compose(np.stack([big.components()] * 3), big)
        assert issubclass(ComposeOverflowError, ValueError)

    @given(paramsets, paramsets, st.floats(100, 300))
    @settings(max_examples=50)
    def test_large_operands_compose_or_raise_cleanly(self, p, q, exponent):
        s = 10.0 ** exponent
        p = ParamSet(k=s * p.k, m=s * p.m, l=s * p.l, n=s * p.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = compose(p, q)
            except ComposeOverflowError:
                return
        assert np.all(np.isfinite(out.components()))


class TestRank:
    def test_reference_points(self):
        assert numeric_rank(np.zeros((4, 4))) == 0
        assert numeric_rank(np.eye(4)) == 4
        u = np.arange(1, 5, dtype=complex)
        assert numeric_rank(np.outer(u, u)) == 1
        g = np.diag([1, 1, 1e-15, 1e-15])
        assert numeric_rank(g) == 2

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        g[3] = g[0] + g[1]
        assert numeric_rank(g) == numeric_rank(1e8 * g) == numeric_rank(1e-8 * g)

    def test_extreme_scales(self):
        # the SVD runs on the matrix divided by a power of two, so entries
        # near the float limit neither overflow nor lose their rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numeric_rank(np.full((4, 4), 1e308)) == 1
            assert numeric_rank(np.full((4, 4), 1e308 - 1e308j)) == 1
            assert numeric_rank(1e-300 * np.eye(4)) == 4
            assert numeric_rank(5e-324 * np.eye(4)) == 4

    def test_tol_validation(self):
        for tol in (0, -1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError,
                               match="tol must be finite and positive"):
                numeric_rank(np.eye(4), tol=tol)


class TestReality:
    def test_real_params_give_real_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_real_params(rng)
            assert is_real_conditions(p)
            assert float(np.abs(assemble(p).imag).max()) <= 1e-12

    def test_real_matrix_gives_conditioned_params(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(-1, 1, (4, 4)).astype(complex)
            assert is_real_conditions(disassemble(g))

    def test_violations_detected(self):
        p = ParamSet(k=[1, 0, 1j, 0], m=[1, 0, 0, 0],
                     l=[0, 0, 0, 0], n=[0, 0, 0, 0])
        assert is_real_conditions(p)  # component 2 purely imaginary is fine
        bad = ParamSet(k=[1, 0, 0.5, 0], m=[1, 0, 0, 0],
                       l=[0, 0, 0, 0], n=[0, 0, 0, 0])
        assert not is_real_conditions(bad)
        bad2 = ParamSet(k=[1 + 0.5j, 0, 0, 0], m=[1, 0, 0, 0],
                        l=[0, 0, 0, 0], n=[0, 0, 0, 0])
        assert not is_real_conditions(bad2)

    def test_threshold_is_relative(self):
        p = ParamSet(k=[1e8, 0, 0, 0], m=[1e-6, 0, 0, 0],
                     l=[0, 0, 0, 0], n=[0, 0, 0, 0])
        assert is_real_conditions(p)

    @pytest.mark.parametrize("scale", [1, 1e-6, 1e-10, 1e-300])
    def test_answer_does_not_depend_on_scale(self, scale):
        p = random_real_params(np.random.default_rng(3))
        off = p._array.copy()
        off[1] += 1e-6j  # k1 must be real
        assert is_real_conditions(ParamSet._own(p._array * scale), 1e-9)
        assert not is_real_conditions(ParamSet._own(off * scale), 1e-9)
        stack = np.stack([p._array, off]) * scale
        assert is_real_conditions(stack, 1e-9).tolist() == [True, False]

    @pytest.mark.parametrize("tol", [-1, math.nan, math.inf])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError,
                           match="tol must be finite and non-negative"):
            is_real_conditions(identity_params(), tol)

    def test_zero_set_is_real(self):
        assert is_real_conditions(zero_params(), 0.0)
        assert is_real_conditions(np.zeros((2, 16)), 0.0).tolist() == \
            [True, True]


class TestParamSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSet(k=[1, 2, 3], m=[0] * 4, l=[0] * 4, n=[0] * 4)
        with pytest.raises(ValueError):
            ParamSet(k=[np.inf, 0, 0, 0], m=[0] * 4, l=[0] * 4, n=[0] * 4)

    def test_immutable(self):
        p = identity_params()
        with pytest.raises((ValueError, AttributeError)):
            p.k[0] = 5

    def test_components_order(self):
        p = ParamSet(k=[1, 2, 3, 4], m=[5, 6, 7, 8],
                     l=[9, 10, 11, 12], n=[13, 14, 15, 16])
        assert np.array_equal(p.components(),
                              np.arange(1, 17, dtype=complex))
        assert param_norm(p) == pytest.approx(np.linalg.norm(np.arange(1, 17)))

    def test_eq_and_hash(self):
        a = ParamSet(k=[1, 0, 0, 0], m=[0] * 4, l=[0] * 4, n=[0] * 4)
        b = ParamSet(k=[1, 0, 0, 0], m=[0] * 4, l=[0] * 4, n=[0] * 4)
        assert a == b and hash(a) == hash(b)
        assert a != zero_params()

    def test_floor_constant(self):
        assert 0 < TOL_FLOOR < 1e-9

    def test_fields_are_read_only_views_of_one_array(self):
        p = random_params(np.random.default_rng(4))
        for q in (p, compose(p, p)):
            base = q.k.base
            assert base.shape == (16,) and not base.flags.writeable
            for i, vec in enumerate((q.k, q.m, q.l, q.n)):
                assert vec.base is base
                assert not vec.flags.writeable
                assert np.array_equal(vec, base[4 * i:4 * i + 4])
                with pytest.raises(ValueError):
                    vec.flags.writeable = True

    def test_components_is_an_independent_copy(self):
        p = ParamSet(k=[1, 2, 3, 4], m=[0] * 4, l=[0] * 4, n=[0] * 4)
        c = p.components()
        c[0] = 99
        assert p.k[0] == 1
        assert not np.shares_memory(c, p.k)

    def test_constructor_copies_its_input(self):
        k = np.array([1, 2, 3, 4], dtype=complex)
        p = ParamSet(k=k, m=[0] * 4, l=[0] * 4, n=[0] * 4)
        k[0] = 99
        assert p.k[0] == 1

    def test_replace_revalidates(self):
        p = random_params(np.random.default_rng(5))
        q = dataclasses.replace(p, l=[1, 2, 3, 4])
        assert np.array_equal(q.l, [1, 2, 3, 4])
        assert np.array_equal(q.k, p.k) and not np.shares_memory(q.k, p.k)
        assert q.l.base is q.k.base and not q.l.flags.writeable
        with pytest.raises(ValueError, match="l: expected 4 components"):
            dataclasses.replace(p, l=[1, 2, 3])
        with pytest.raises(ValueError, match="l: non-finite component"):
            dataclasses.replace(p, l=[1, np.nan, 3, 4])

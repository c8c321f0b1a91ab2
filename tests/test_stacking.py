"""Stacked forms against the per-item forms, bit for bit.

Every function that takes leading axes must give, for each item of a
stack, the bytes it gives for that item alone; every bulk draw must
consume the random stream exactly as the loop of single draws it replaces.
The single draws as they were written before stacking are kept here as the
oracle.
"""

import dataclasses

import numpy as np
import pytest

from kmln.core import (
    ParamSet,
    assemble,
    disassemble,
    is_real_conditions,
    numeric_rank,
    random_params,
    random_real_params,
)
from kmln.families import (
    _SLOTS,
    _VEC_AT,
    FAMILIES,
    FAMILY_TAGS,
    _coeff_parts,
    construct,
    sample_constants,
    sample_instance,
)
from kmln.variants import (
    VARIANT_IDS,
    _lines_vanish,
    constraint_residual,
    construct_variant,
    sample_variant,
    variant_membership,
)

N = 12


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


# --- the per-item draw loop, as written before the draws were stacked -------

def loop_cvec4(rng):
    return rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)


def loop_real_cvec4(rng):
    cv = rng.uniform(-1, 1, 4).astype(complex)
    cv[2] = 1j * rng.uniform(-1, 1)
    return cv


def loop_params(rng, real=False):
    draw = loop_real_cvec4 if real else loop_cvec4
    return np.concatenate([draw(rng) for _ in range(4)])


def loop_constants(tag, rng, real=False):
    constants = {}
    for name in FAMILIES[tag].constants:
        mag = rng.uniform(0.5, 2.0)
        if real:
            constants[name] = complex(mag * rng.choice([-1.0, 1.0]))
        else:
            constants[name] = mag * np.exp(2j * np.pi * rng.uniform())
    return constants


def loop_instance(tag, rng, constants=None, real=False):
    if constants is None:
        constants = loop_constants(tag, rng, real)
    draw = loop_real_cvec4 if real else loop_cvec4
    return dict(constants), {v: draw(rng) for v in FAMILIES[tag].bases}


def streams(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestDraws:
    @pytest.mark.parametrize("real", [False, True])
    def test_params_stream(self, real):
        draw = random_real_params if real else random_params
        rng, oracle = streams(11)
        single = draw(rng)
        assert isinstance(single, ParamSet)
        assert same_bits(single._array, loop_params(oracle, real))
        stack = draw(rng, (N, 2))
        expected = [[loop_params(oracle, real) for _ in range(2)]
                    for _ in range(N)]
        assert same_bits(stack, np.array(expected))
        # the stream continues where the loop would continue it
        assert rng.uniform() == oracle.uniform()

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_instance_stream_with_drawn_constants(self, tag):
        rng, oracle = streams(12)
        stack = sample_instance(tag, rng, size=N)
        for i in range(N):
            constants, base = loop_instance(tag, oracle)
            for name, value in constants.items():
                assert same_bits(stack.constants[name][i], value)
            for v, cv in base.items():
                assert same_bits(stack.base[v][i], cv)
        assert rng.uniform() == oracle.uniform()

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("tag", ["K-7", "KM-5", "NLM-1", "KMN-1"])
    def test_instance_stream_with_given_constants(self, tag, real):
        rng, oracle = streams(13)
        constants = sample_constants(tag, rng, real)
        given = loop_constants(tag, oracle, real)
        assert constants == given
        stack = sample_instance(tag, rng, constants, real, size=(N, 2))
        for i in range(N):
            for side in (0, 1):
                _, base = loop_instance(tag, oracle, given, real)
                for v, cv in base.items():
                    assert same_bits(stack.base[v][i, side], cv)
        assert rng.uniform() == oracle.uniform()

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("tag", ["K-1", "K-7", "N-4", "NLK-1"])
    def test_single_instance_stream(self, tag, real):
        rng, oracle = streams(14)
        for _ in range(3):
            inst = sample_instance(tag, rng, real=real)
            constants, base = loop_instance(tag, oracle, None, real)
            assert inst.constants.keys() == constants.keys()
            for name, value in constants.items():
                assert complex(inst.constants[name]) == complex(value)
            for v, cv in base.items():
                assert same_bits(inst.base[v], cv)
        assert rng.uniform() == oracle.uniform()

    def test_stacked_real_members_need_constants(self):
        with pytest.raises(ValueError, match="constants"):
            sample_instance("K-4", np.random.default_rng(0), real=True, size=3)

    @pytest.mark.parametrize("real", [False, True])
    def test_variant_stream(self, real):
        rng, oracle = streams(15)
        for vid in VARIANT_IDS[::5]:
            stack = sample_variant(vid, rng, real, size=N)
            for row in stack:
                p = ParamSet(*loop_params(oracle, real).reshape(4, 4))
                assert same_bits(row, construct_variant(vid, p)._array)


def stacked_inputs():
    rng = np.random.default_rng(16)
    p = random_params(rng, N)
    # rank-deficient, zero, tiny and huge members among generic ones
    p[1, 4:] = 0
    p[2] = 0
    p[3] *= 1e-300
    p[4] *= 1e300
    p[5, 8:] = p[5, :8]
    return p


class TestCore:
    def test_assemble_and_disassemble(self):
        p = stacked_inputs()
        g = assemble(p)
        assert g.shape == (N, 4, 4)
        back = disassemble(g)
        assert back.shape == (N, 16)
        for row, gi, bi in zip(p, g, back):
            single = ParamSet(*row.reshape(4, 4))
            assert same_bits(gi, assemble(single))
            assert same_bits(bi, disassemble(gi)._array)
        assert same_bits(assemble(p.reshape(3, 4, 16)), g.reshape(3, 4, 4, 4))

    def test_numeric_rank(self):
        g = assemble(stacked_inputs())
        ranks = numeric_rank(g)
        assert ranks.shape == (N,)
        assert [numeric_rank(gi) for gi in g] == ranks.tolist()
        assert ranks[2] == 0 and ranks[1] == 2
        assert numeric_rank(g.reshape(3, 4, 4, 4)).tolist() == \
            ranks.reshape(3, 4).tolist()
        assert isinstance(numeric_rank(g[0]), int)

    def test_reality_and_variant_reductions(self):
        p = random_real_params(np.random.default_rng(17), N)
        p[3, 1] += 1e-3j
        ok = is_real_conditions(p)
        assert ok.tolist() == [is_real_conditions(ParamSet(*r.reshape(4, 4)))
                               for r in p]
        assert not ok[3] and ok.sum() == N - 1
        vid = (2, 1)
        members = sample_variant(vid, np.random.default_rng(18), size=N)
        g = assemble(members)
        g[4, 2, 3] = 1.0
        ok = _lines_vanish(vid, g, 1e-9)
        assert ok.tolist() == [variant_membership(vid, gi) for gi in g]
        assert not ok[4] and ok.sum() == N - 1
        res = constraint_residual(vid, members)
        assert res.tolist() == [
            constraint_residual(vid, ParamSet(*r.reshape(4, 4)))
            for r in members]


def constants_stack(tag, real, rng):
    draws = [sample_constants(tag, rng, real) for _ in range(N)]
    return {name: np.array([d[name] for d in draws])
            for name in FAMILIES[tag].constants}


def loop_construct(tag, constants, base):
    """construct as written before stacking: one member, its coefficients
    in Python complex arithmetic."""
    fam = FAMILIES[tag]
    constants = {name: complex(c) for name, c in constants.items()}
    arr = np.zeros(16, dtype=complex)
    for v in fam.bases:
        arr[_VEC_AT[v]] = base[v]
    for slot, terms in fam.rules.items():
        acc = 0
        for coeff, src in terms:
            acc = acc + _coeff_parts(coeff, constants)[0] * arr[_SLOTS[src]]
        arr[_SLOTS[slot]] = acc
    return arr


def assert_stack_matches_items(tag, constants, base):
    stack = construct(tag, constants, base)
    assert stack.shape == (N, 16)
    for i in range(N):
        constants_i = {name: c[i] if np.ndim(c) else c
                       for name, c in constants.items()}
        base_i = {v: cv[i] for v, cv in base.items()}
        single = construct(tag, constants_i, base_i)
        assert same_bits(stack[i], single._array)
        assert same_bits(stack[i], loop_construct(tag, constants_i, base_i))


class TestConstruct:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_stack_matches_items(self, tag, real):
        rng = np.random.default_rng(19)
        base = {v: random_params(rng, N)[:, :4] for v in FAMILIES[tag].bases}
        # constants per member, then one set shared by the stack
        assert_stack_matches_items(tag, constants_stack(tag, real, rng), base)
        assert_stack_matches_items(tag, sample_constants(tag, rng, real), base)

    def test_rule_swap_reaches_the_stack(self, monkeypatch):
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules, n0=(("2*A", "k0"),), n=(("2*A", "k"),))
        monkeypatch.setitem(FAMILIES, "K-4",
                            dataclasses.replace(fam, rules=rules))
        rng = np.random.default_rng(20)
        constants = constants_stack("K-4", False, rng)
        base = {"k": random_params(rng, N)[:, :4]}
        assert_stack_matches_items("K-4", constants, base)
        p = construct("K-4", constants, base)
        assert np.allclose(p[:, 12:], 2 * constants["A"][:, None] * p[:, :4])

    def test_single_member_is_a_paramset(self):
        p = construct("K-5", {"A": 2j, "D": -1}, {"k": [1, 2, 3, 4]})
        assert isinstance(p, ParamSet)
        stack = construct("K-5", {"A": 2j, "D": -1}, {"k": [[1, 2, 3, 4]]})
        assert same_bits(stack, p._array[None])

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="k: expected 4 components"):
            construct("K-1", base={"k": np.zeros((3, 5))})
        with pytest.raises(ValueError, match="k: non-finite component"):
            construct("K-1", base={"k": [[0, 0, 0, 0], [0, np.nan, 0, 0]]})
        from kmln.families import ZeroConstantError

        with pytest.raises(ZeroConstantError):
            construct("K-7", {"A": [1, 0], "alpha": 1}, {"k": [1, 0, 0, 0]})

"""Classifier: ranks, reality, memberships, ordering, false positives,
scale, and classify's one pass over the catalog against per-tag
membership."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmln.classify import classify
from kmln.core import (
    ParamSet,
    assemble,
    disassemble,
    random_params,
    random_real_params,
)
from kmln.families import (
    FAMILIES,
    FAMILY_TAGS,
    GROUP_TAGS,
    _gram_schmidt,
    _memberships,
    _plan,
    construct,
    instance_params,
    membership,
    sample_instance,
)
from kmln.variants import VARIANT_IDS, sample_variant
from test_stacking import assert_same_as_loop, unit

TOLS = (1e-12, 1e-9, 1e-6, 1e-3)
# families whose near misses have the vector parts of n and l nearly parallel
NEAR_PARALLEL = ("K-5", "K-6", "K-7", "M-5", "M-6", "M-7", "N-2", "N-3",
                 "N-4", "L-2", "L-3", "L-4", "KM-5")


class TestSpecialMatrices:
    def test_identity(self):
        rep = classify(np.eye(4))
        assert rep.rank == 4
        assert rep.real
        assert set(rep.family_tags) == set(GROUP_TAGS)
        assert rep.variants == ()
        assert list(rep.family_tags) == [t for t in FAMILY_TAGS
                                         if t in set(GROUP_TAGS)]

    def test_zero(self):
        rep = classify(np.zeros((4, 4)))
        assert rep.rank == 0
        assert rep.real
        assert set(rep.family_tags) == set(FAMILY_TAGS)
        assert rep.variants == VARIANT_IDS


class TestMembershipReporting:
    def test_constructed_member_is_found_with_constants(self):
        p = construct("K-3", {"D": 2.5 - 1j}, {"k": [1, 0.5j, -2, 0.25]})
        rep = classify(assemble(p))
        assert "K-3" in rep.family_tags
        mb = rep.families[rep.family_tags.index("K-3")]
        assert abs(mb.constants["D"] - (2.5 - 1j)) <= 1e-9
        assert rep.rank == 2

    def test_families_in_catalog_order(self):
        # a K-5 member lies in several families, each at a residual of
        # rounding size: they are listed in catalog order, not by residual
        rng = np.random.default_rng(41)
        rep = classify(assemble(instance_params(sample_instance("K-5", rng))))
        assert len(rep.families) > 1
        assert list(rep.family_tags) == [t for t in FAMILY_TAGS
                                         if t in rep.family_tags]

    def test_every_family_detected(self):
        rng = np.random.default_rng(42)
        for tag in FAMILY_TAGS:
            p = instance_params(sample_instance(tag, rng))
            rep = classify(assemble(p))
            assert tag in rep.family_tags, tag

    def test_variant_detected(self):
        rng = np.random.default_rng(43)
        rep = classify(assemble(sample_variant((1, 3), rng)))
        assert rep.variants == ((1, 3),)
        assert rep.rank == 3


class TestNoFalsePositives:
    def test_generic_full_rank_matrices_match_nothing(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            rep = classify(g)
            assert rep.rank == 4
            assert rep.families == ()
            assert rep.variants == ()
            # no family comes anywhere near
            assert classify(g, tol=1e-2).families == ()


class TestBehaviour:
    def test_scale_invariance(self):
        rng = np.random.default_rng(45)
        g = assemble(instance_params(sample_instance("KM-3", rng)))
        small, big = classify(1e-7 * g), classify(1e7 * g)
        assert small.family_tags == big.family_tags
        assert small.rank == big.rank
        assert small.variants == big.variants

    def test_real_flag(self):
        rng = np.random.default_rng(46)
        assert classify(rng.uniform(-1, 1, (4, 4))).real
        assert not classify(rng.uniform(-1, 1, (4, 4)) + 0.5j * np.eye(4)).real

    @pytest.mark.parametrize("s", [1, 1e-3, 1e-6, 1e-100, 1e-300])
    def test_real_flag_does_not_depend_on_scale(self, s):
        # imaginary parts at 5e-12 against tol * norm = 2e-12 stay complex
        # below the 1e-14 floor too; a real matrix stays real
        g = np.eye(4) + 5e-12j * np.ones((4, 4))
        assert not classify(s * g, tol=1e-12).real
        real = np.random.default_rng(47).uniform(-1, 1, (4, 4))
        assert classify(s * real, tol=1e-12).real
        assert classify(s * real).real

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(("generic", "zero") + FAMILY_TAGS
                                + VARIANT_IDS),
           seed=st.integers(0, 2**32 - 1),
           real=st.booleans(),
           power=st.floats(-300, 300))
    def test_scale_free_property(self, kind, seed, real, power):
        # every decision is relative to the norm, with no absolute floor,
        # from 1e-300 to 1e300
        rng = np.random.default_rng(seed)
        if kind == "generic":
            g = assemble((random_real_params if real else random_params)(rng))
        elif kind == "zero":
            g = np.zeros((4, 4))
        elif kind in FAMILY_TAGS:
            g = assemble(instance_params(sample_instance(kind, rng,
                                                         real=real)))
        else:
            g = assemble(sample_variant(kind, rng, real))
        want, got = classify(g), classify(10.0 ** power * g)
        assert (got.rank, got.real, got.family_tags, got.variants) == \
            (want.rank, want.real, want.family_tags, want.variants)

    def test_zero_matrix_is_real(self):
        assert classify(np.zeros((4, 4))).real
        assert classify(np.zeros((4, 4)), tol=1e-15).real

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(np.eye(3))
        with pytest.raises(ValueError):
            classify(np.full((4, 4), np.nan))
        with pytest.raises(ValueError):
            classify(np.eye(4), tol=0)

    def test_tol_widens_membership(self):
        p = construct("K-4", {"A": 1.5}, {"k": [1, 1, 1, 1]})
        g = assemble(p)
        noisy = g + 1e-6 * np.ones((4, 4))
        assert "K-4" not in classify(noisy, tol=1e-9).family_tags
        assert "K-4" in classify(noisy, tol=1e-3).family_tags

    def test_report_scale(self):
        g = 3.0 * np.eye(4)
        assert classify(g).scale == pytest.approx(6.0)
        assert classify(np.full((4, 4), 1e308)).scale == np.inf

    def test_column_major_input(self):
        g = assemble(construct("K-3", {"D": 2}, {"k": [1, 0.5j, -2, 0.25]}))
        assert repr(classify(g.T)) == repr(classify(g.T.copy()))


def perturbed(g, rel, rng):
    e = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    return g + rel * np.linalg.norm(g) / np.linalg.norm(e) * e


def screen_inputs():
    """Members of every family (complex and real), near misses at 1e-10,
    1e-9 and 1e-8 relative, sparse unit inputs, zero and identity."""
    rng = np.random.default_rng(47)
    out = [np.zeros((4, 4)), np.eye(4)]
    for tag in FAMILY_TAGS:
        for real in (False, True):
            out.append(assemble(instance_params(
                sample_instance(tag, rng, real=real))))
        g = out[-2]
        out += [perturbed(g, rel, rng) for rel in (1e-10, 1e-9, 1e-8)]
    units = np.eye(16, dtype=complex)
    sparse = list(units) + [units[i] + 1j * units[(5 * i + 3) % 16]
                            for i in range(16)]
    out += [assemble(ParamSet(*a.reshape(4, 4))) for a in sparse]
    return out


def classify_params(g):
    """The parameter set classify() tests: the matrix divided by the power
    of two of its largest real or imaginary part, up or down."""
    g = np.ascontiguousarray(g, dtype=complex)
    top = float(np.abs(g.view(float)).max())
    return disassemble(np.ldexp(g.view(float), -math.frexp(top)[1])
                       .view(complex))


def assert_classify_matches_membership(g, tol):
    """classify() reports exactly the members per-tag membership() finds,
    with the same bits, in catalog order; and membership() gives every
    tag what the loop oracle of test_stacking gives it."""
    p = classify_params(g)
    per_tag = [membership(tag, p, tol) for tag in FAMILY_TAGS]
    for mb in per_tag:
        assert_same_as_loop(mb, p._array, tol, (mb.tag, tol))
    members = [mb for mb in per_tag if mb.member]
    assert repr(classify(g, tol).families) == repr(tuple(members)), tol


class TestScreen:
    """classify() tests all 39 families in one pass of the membership
    kernel, which a lower bound on every residual may stop early; it must
    report what membership() reports family by family."""

    @pytest.mark.parametrize("tol", TOLS)
    def test_never_drops_a_member(self, tol):
        for g in screen_inputs():
            assert_classify_matches_membership(g, tol)

    @settings(max_examples=60, deadline=None)
    @given(tag=st.sampled_from(FAMILY_TAGS),
           seed=st.integers(0, 2**32 - 1),
           real=st.booleans(),
           rel=st.sampled_from([0.0, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6]),
           scale=st.integers(-100, 100),
           tol=st.sampled_from(TOLS))
    def test_never_drops_a_member_property(self, tag, seed, real, rel, scale,
                                           tol):
        rng = np.random.default_rng(seed)
        g = assemble(instance_params(sample_instance(tag, rng, real=real)))
        g = perturbed(g, rel, rng) * 10.0 ** scale
        assert_classify_matches_membership(g, tol)

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.sampled_from([0, 0, 0, 1, -1, 1j, 0.5 - 2j]),
                          min_size=16, max_size=16),
           tol=st.sampled_from(TOLS))
    def test_never_drops_a_member_sparse_property(self, parts, tol):
        g = assemble(ParamSet(*np.reshape(parts, (4, 4))))
        assert_classify_matches_membership(g, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_classify_matches_the_unscreened_loop(self, tol):
        rng = np.random.default_rng(48)
        inputs = screen_inputs()
        inputs += [assemble(sample_variant(vid, rng)) for vid in VARIANT_IDS]
        inputs += [rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
                   for _ in range(20)]
        for g in inputs:
            assert_classify_matches_membership(g, tol)

    def test_bound_stops_the_pass_on_generic_matrices(self):
        # no constant is read, and each residual reported is a lower bound;
        # near misses of these families have n and l nearly parallel, which
        # the NLK-1 and NLM-1 bound must see apart over all four lanes
        rng = np.random.default_rng(49)
        inputs = [rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
                  for _ in range(50)]
        inputs += [perturbed(assemble(instance_params(sample_instance(
            tag, rng))), 1e-6, rng) for tag in NEAR_PARALLEL for _ in range(8)]
        for g in inputs:
            a = classify_params(g)._array
            cut = _memberships(a, FAMILY_TAGS, 1e-9, members_only=True)
            full = _memberships(a, FAMILY_TAGS, 1e-9)
            assert not cut.member.any()
            assert all(c is None for d in cut.constants(0, range(39))
                       for c in d.values())
            assert (cut.residual <= full.residual).all()

    def test_bound_is_below_every_residual(self):
        # on the scaled row x: sqrt(bound) <= residual*|x| + 1e-13*|x| for
        # every family, members at extreme scales, near misses, sparse and
        # generic rows included
        rng = np.random.default_rng(51)
        rows = [classify_params(g)._array for g in screen_inputs()]
        for tag in FAMILY_TAGS:
            for real in (False, True):
                inst = sample_instance(tag, rng, real=real)
                rows += [instance_params(inst)._array * s
                         for s in (1e200, 1e-200)]
            rows += [classify_params(perturbed(assemble(instance_params(
                sample_instance(tag, rng))), rel, rng))._array
                for rel in (1e-8, 1e-6, 1e-4)]
        rows += list(rng.choice([0, 0, 0, 1, -1, 1j, 0.5 - 2j], (400, 16)))
        rows += list(rng.uniform(-1, 1, (100, 16))
                     + 1j * rng.uniform(-1, 1, (100, 16)))
        x = np.array([unit(a) for a in rows])
        plan = _plan(FAMILY_TAGS)
        at, coeff = plan.forms
        bound = _gram_schmidt(plan, (coeff * x.take(at, axis=1)).sum(1))[-1]
        norm = np.linalg.norm(x, axis=1)[:, None]
        residual = _memberships(x, FAMILY_TAGS, 1e-9).residual
        assert (np.sqrt(bound) <= (residual + 1e-13) * norm).all()

    def test_rule_swap_is_honoured(self, monkeypatch):
        # K-4 with m tied to k as well: a member of the swapped family is not
        # a member of the catalog's K-4, and the reverse
        swapped = construct("K-4", {"A": 1.5}, {"k": [1, 0.5j, -2, 0.25]})
        swapped = ParamSet(k=swapped.k, m=swapped.k, l=swapped.l, n=swapped.n)
        original = construct("K-4", {"A": 1.5}, {"k": [0.5, 1, 1j, -1]})
        g, h = assemble(swapped), assemble(original)
        assert "K-4" not in classify(g).family_tags
        assert "K-4" in classify(h).family_tags
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules, m0=(("1", "k0"),), m=(("1", "k"),))
        with monkeypatch.context() as patch:
            patch.setitem(FAMILIES, "K-4",
                          dataclasses.replace(fam, rules=rules))
            assert "K-4" in classify(g).family_tags
            assert "K-4" not in classify(h).family_tags
        assert "K-4" not in classify(g).family_tags
        assert "K-4" in classify(h).family_tags

    def test_rule_swap_reaches_membership(self, monkeypatch):
        # K-4 with n = 2*A*k: the constant is read through the swapped
        # rules, so a member built with A = 1.5 gives back A = 1.5
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules, n0=(("2*A", "k0"),), n=(("2*A", "k"),))
        with monkeypatch.context() as patch:
            patch.setitem(FAMILIES, "K-4",
                          dataclasses.replace(fam, rules=rules))
            p = construct("K-4", {"A": 1.5}, {"k": [1, 0.5j, -2, 0.25]})
            assert np.allclose(p.n, 3 * p.k)
            mb = membership("K-4", p)
            assert mb.member
            assert mb.constants["A"] == pytest.approx(1.5, rel=1e-15)
            assert "K-4" in classify(assemble(p)).family_tags
        mb = membership("K-4", p)
        assert mb.member
        assert mb.constants["A"] == pytest.approx(3, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-140, 1e140])
    def test_extreme_scale_raises_no_warning(self, scale):
        inputs = [scale * g for g in screen_inputs()[::7]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in inputs:
                assert_classify_matches_membership(g, 1e-9)

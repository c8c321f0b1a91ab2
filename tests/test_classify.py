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

from kmln import families
from kmln.classify import classify
from kmln.core import (
    ParamSet,
    assemble,
    disassemble,
    numeric_rank,
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
from kmln.variants import VARIANT_IDS, matching_variants, sample_variant
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
        g = draw(kind, np.random.default_rng(seed), real)
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
        for tol in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="tol must be finite and positive"):
                classify(np.eye(4), tol=tol)

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


def draw(kind, rng, real):
    """A matrix of one kind: "generic", "zero", "near" (a complex member
    of a random family, perturbed by 1e-10 to 1e-6 relative), a family tag
    or a variant id."""
    if kind == "generic":
        return assemble((random_real_params if real else random_params)(rng))
    if kind == "zero":
        return np.zeros((4, 4))
    if kind == "near":
        tag = FAMILY_TAGS[rng.integers(len(FAMILY_TAGS))]
        return perturbed(assemble(instance_params(sample_instance(tag, rng))),
                         rng.choice([1e-10, 1e-9, 1e-8, 1e-6]), rng)
    if kind in FAMILY_TAGS:
        return assemble(instance_params(sample_instance(kind, rng,
                                                        real=real)))
    return assemble(sample_variant(kind, rng, real))


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


class TestShortcuts:
    """classify() reads the rank and the variants from the matrix it has
    already scaled, and with members_only the kernel skips the split
    solves where the bound rules out NLK-1 and NLM-1: neither may move a
    reported bit."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(("generic", "zero", "near") + FAMILY_TAGS
                                + VARIANT_IDS),
           seed=st.integers(0, 2**32 - 1),
           real=st.booleans(),
           power=st.sampled_from([-300, -150, -12, 0, 12, 150, 300]))
    def test_rank_and_variants_match_the_public_calls(self, kind, seed, real,
                                                      power):
        g = 10.0 ** power * draw(kind, np.random.default_rng(seed), real)
        for tol in (1e-12, 1e-9, 1e-6):
            report = classify(g, tol)
            assert report.rank == numeric_rank(g, tol)
            assert report.variants == matching_variants(g, tol)

    @staticmethod
    def split_gate_rows():
        """Two stacks of rows, each as classify() hands it to the kernel:
        members of NLK-1 and NLM-1, of K-6 (also an NLK-1 member) and N-2
        (which the NLK-1 bound admits), a near miss at 1e-9 and the zero
        row; then members of K-1, M-1, KM-1 and KML-1, a near miss at
        1e-6, a variant member and a generic row, which the bound rules out
        of NLK-1 and NLM-1."""
        rng = np.random.default_rng(52)

        def members(*tags):
            return [assemble(instance_params(sample_instance(
                tag, rng, real=real))) for tag in tags for real in (False, True)]

        admitted = members("NLK-1", "NLM-1", "K-6", "N-2")
        admitted += [perturbed(admitted[0], 1e-9, rng), np.zeros((4, 4))]
        gated = members("K-1", "M-1", "KM-1", "KML-1")
        gated += [perturbed(admitted[0], 1e-6, rng),
                  assemble(sample_variant((1, 2), rng)),
                  rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))]
        return tuple(np.array([classify_params(g)._array for g in gs])
                     for gs in (admitted, gated))

    @staticmethod
    def assert_same_members(cut, full):
        assert (cut.member == full.member).all()
        found = full.member
        assert cut.residual[found].tobytes() == full.residual[found].tobytes()
        for row in range(len(found)):
            tags = found[row].nonzero()[0].tolist()
            assert repr(cut.constants(row, tags)) == \
                repr(full.constants(row, tags))

    @pytest.mark.parametrize("tol", TOLS)
    def test_members_only_keeps_every_member_bit(self, tol):
        rows = np.concatenate(self.split_gate_rows())
        full = _memberships(rows, FAMILY_TAGS, tol)
        assert full.member[:4, FAMILY_TAGS.index("NLK-1")].all()
        self.assert_same_members(
            _memberships(rows, FAMILY_TAGS, tol, members_only=True), full)
        for row in range(len(rows)):
            self.assert_same_members(_memberships(
                rows[row:row + 1], FAMILY_TAGS, tol, members_only=True),
                _memberships(rows[row:row + 1], FAMILY_TAGS, tol))

    def test_split_solves_run_only_where_the_bound_admits_them(
            self, monkeypatch):
        admitted, gated = self.split_gate_rows()
        full = _memberships(gated, FAMILY_TAGS, 1e-9)
        assert full.member[:8].any(1).all()
        calls = []
        original = families._split_reads

        def spy(plan, first, second, thr):
            calls.append(len(thr))
            return original(plan, first, second, thr)

        monkeypatch.setattr(families, "_split_reads", spy)
        cut = _memberships(gated, FAMILY_TAGS, 1e-9, members_only=True)
        assert calls == []
        self.assert_same_members(cut, full)
        # one admitted row makes the whole stack pay for the solves, as
        # one member does for the whole pass; so does the full pass
        for row in admitted:
            stack = np.concatenate([gated, row[None]])
            _memberships(stack, FAMILY_TAGS, 1e-9, members_only=True)
            assert calls.pop() == len(stack)
        _memberships(gated, FAMILY_TAGS, 1e-9)
        assert calls == [len(gated)]

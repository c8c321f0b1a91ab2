"""Catalog families: construction, membership, closure, ranks."""

import dataclasses

import mpmath
import numpy as np
import pytest

from kmln.core import (
    ParamSet,
    assemble,
    compose,
    disassemble,
    identity_params,
    numeric_rank,
    zero_params,
)
from kmln.families import (
    _SLOTS,
    FAMILIES,
    FAMILY_TAGS,
    GROUP_TAGS,
    RANK_TWO_TAGS,
    ClosureViolation,
    MissingConstantError,
    UnknownTagError,
    ZeroConstantError,
    _memberships,
    _parse_coeff,
    closure_check,
    construct,
    descriptor,
    instance_params,
    membership,
    rank1_restrict,
    rank_profile,
    sample_constants,
    sample_instance,
)

#: Families whose blocks are all scalar multiples of a single base block;
#: these, and only these, collapse to rank <= 1 under the determinant
#: restriction.  Every other rank-two family mixes two non-proportional
#: blocks and keeps rank 2 on generic bases.
COLLAPSING_TAGS = ("K-1", "K-3", "K-4", "K-5", "M-1", "M-3", "M-4", "M-7",
                   "N-1", "N-2", "L-1", "L-2")


class TestCatalogShape:
    def test_counts(self):
        assert len(FAMILY_TAGS) == 39
        assert len(RANK_TWO_TAGS) == 25
        assert len(GROUP_TAGS) == 14
        assert set(RANK_TWO_TAGS) | set(GROUP_TAGS) == set(FAMILY_TAGS)

    def test_descriptor_lookup(self):
        assert descriptor("K-5").tag == "K-5"
        assert descriptor(" k-5 ").tag == "K-5"
        with pytest.raises(UnknownTagError, match="K-1"):
            descriptor("K-99")

    def test_inverted_constants_derived_from_rules(self):
        inverting = {"K-6": "A", "K-7": "A", "M-5": "A", "M-6": "A",
                     "KM-3": "B", "LN-1": "A", "LN-2": "B", "NLK-1": "A",
                     "NLM-1": "A"}
        for tag in FAMILY_TAGS:
            want = {inverting[tag]} if tag in inverting else set()
            assert FAMILIES[tag].inverted == want, tag

    def test_flags_consistent(self):
        for tag in FAMILY_TAGS:
            fam = FAMILIES[tag]
            assert fam.generic_rank in (2, 4)
            assert fam.claimed_rank in (2, 4)
            assert fam.inverted <= set(fam.constants)
            assert not (fam.rank1_collapses and fam.generic_rank == 4)
            # every constant gets the split solve or at least one route
            assert set(fam.routes) == set(fam.constants)
            assert all(fam.routes.values()), tag
        assert set(COLLAPSING_TAGS) == {
            t for t in FAMILY_TAGS if FAMILIES[t].rank1_collapses
        }


class TestConstruct:
    def test_validation(self):
        with pytest.raises(UnknownTagError):
            construct("XX-1", base={"k": [1, 0, 0, 0]})
        with pytest.raises(MissingConstantError):
            construct("K-3", base={"k": [1, 0, 0, 0]})
        with pytest.raises(ZeroConstantError):
            construct("K-7", {"A": 0, "alpha": 1}, {"k": [1, 0, 0, 0]})
        with pytest.raises(ValueError, match="base vectors"):
            construct("K-3", {"D": 2}, {"m": [1, 0, 0, 0]})
        with pytest.raises(ValueError, match="constants"):
            construct("K-3", {"D": 2, "Q": 1}, {"k": [1, 0, 0, 0]})

    def test_k5_blocks(self):
        p = construct("K-5", {"A": 2j, "D": -1}, {"k": [1, 2, 3, 4]})
        assert np.allclose(p.n, 2j * p.k)
        assert np.allclose(p.l, -p.k)
        assert np.allclose(p.m, -2j * p.k)

    def test_members_recover_constants(self):
        rng = np.random.default_rng(11)
        for tag in FAMILY_TAGS:
            inst = sample_instance(tag, rng)
            mb = membership(tag, instance_params(inst))
            assert mb.member, tag
            assert mb.residual <= 1e-12, tag
            for name, given in inst.constants.items():
                got = mb.constants[name]
                assert got is not None, (tag, name)
                assert abs(got - given) <= 1e-9 * max(1.0, abs(given)), (tag, name)


def exact_residual(tag, a, constants):
    """The rule residual of the component array a at the given constants,
    relative to the norm of a, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        x = [mpmath.mpc(z) for z in a.tolist()]
        total = 0
        for slot, terms in FAMILIES[tag].rules.items():
            coeffs = []
            for expr, src in terms:
                sign, factors = _parse_coeff(expr)
                c = mpmath.mpc(sign)
                for divides, token, literal in factors:
                    f = mpmath.mpc(constants[token] if literal is None
                                   else literal)
                    c = c / f if divides else c * f
                coeffs.append((c, _SLOTS[src].start))
            for i in range(_SLOTS[slot].start, _SLOTS[slot].stop):
                lane = x[i] - sum(c * x[i - _SLOTS[slot].start + j]
                                  for c, j in coeffs)
                total += abs(lane) ** 2
        return float(mpmath.sqrt(total / sum(abs(z) ** 2 for z in x)))


class TestMembership:
    def test_generic_params_belong_nowhere(self):
        from kmln.core import random_params

        rng = np.random.default_rng(12)
        for _ in range(25):
            p = random_params(rng)
            assert not any(membership(t, p).member for t in FAMILY_TAGS)

    def test_zero_belongs_everywhere_indeterminately(self):
        z = zero_params()
        for tag in FAMILY_TAGS:
            mb = membership(tag, z)
            assert mb.member, tag
            assert all(v is None for v in mb.constants.values()), tag

    def test_identity_memberships(self):
        e = identity_params()
        members = {t for t in FAMILY_TAGS if membership(t, e).member}
        assert members == set(GROUP_TAGS)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        inst = sample_instance("K-6", rng)
        p = instance_params(inst)
        for s in (1e-7, 1e7, 2 - 3j):
            scaled = dataclasses.replace(
                p, k=s * p.k, m=s * p.m, l=s * p.l, n=s * p.n
            )
            mb = membership("K-6", scaled)
            assert mb.member
            assert abs(mb.constants["A"] - inst.constants["A"]) <= 1e-9

    def test_near_member_rejected_at_tol(self):
        p = construct("K-3", {"D": 2}, {"k": [1, 2, 3, 4]})
        # bump one component only, so l is no longer proportional to k
        bump = np.zeros(4, dtype=complex)
        bump[0] = 1e-5
        bumped = dataclasses.replace(p, l=p.l + bump)
        assert not membership("K-3", bumped, tol=1e-9).member
        assert membership("K-3", bumped, tol=1e-2).member

    def test_split_estimator_indeterminate(self):
        # NLK-1 with zero n and l degenerates to m = k; A is unreadable
        p = construct("NLK-1", {"A": 3}, {
            "k": [1, 2, 3, 4], "n": [0, 0, 0, 0], "l": [0, 0, 0, 0],
        })
        mb = membership("NLK-1", p)
        assert mb.member
        assert mb.constants["A"] is None

    def test_indeterminate_with_zero_source_skips_cleanly(self):
        # K-3 with zero base: D unreadable, nonzero l unexplained
        p = ParamSet(k=[0] * 4, m=[0] * 4, l=[1, 2, 3, 4], n=[0] * 4)
        mb = membership("K-3", p)
        assert not mb.member
        assert mb.constants["D"] is None
        assert mb.residual == pytest.approx(1.0)

    @pytest.mark.parametrize("tag, constants, base", [
        # n-vector zero: A falls back from k = A*n to m = -A*n
        ("N-3", {"A": 1.5, "alpha": -0.5j}, {"n": [2, 0, 0, 0]}),
        # k-vector zero: A falls back from n = A*k to the inverted l = -k/A
        ("K-7", {"A": 1.25 - 0.5j, "alpha": 2}, {"k": [1 - 1j, 0, 0, 0]}),
        ("M-6", {"A": -0.75j, "alpha": 1 + 1j}, {"m": [0.5, 0, 0, 0]}),
        # m zero: B falls back from n = B*m to the inverted l = k/B
        ("KM-3", {"B": 2 - 1j},
         {"k": [1, 0.5j, -2, 0.25], "m": [0, 0, 0, 0]}),
        # l zero: A falls back from k = A*l to the inverted m = n/A
        ("LN-1", {"A": 0.8j}, {"l": [0, 0, 0, 0], "n": [0.5, 1, 1j, -1]}),
    ])
    def test_fallback_route_recovers_constants(self, tag, constants, base):
        mb = membership(tag, construct(tag, constants, base))
        assert mb.member
        assert mb.residual <= 1e-15
        for name, given in constants.items():
            assert mb.constants[name] == pytest.approx(given, rel=1e-15), name

    @pytest.mark.parametrize("tag, want", [("KN-1", 0.5), ("ML-1", 2.0)])
    def test_routes_over_distinct_sources_are_stacked(self, tag, want):
        # an M-4 member (n = 2m, k = l = 0) lies in KN-1 with m = n/2 and in
        # ML-1 with n = 2m.  Perturbed, its near-zero k and l carry no
        # information about A; only the route that stacks both targets
        # reads A from the large ones.
        rng = np.random.default_rng(51)
        for _ in range(50):
            m = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            a = construct("M-4", {"A": 2}, {"m": m})._array
            e = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
            a = a + 1e-10 * np.linalg.norm(a) / np.linalg.norm(e) * e
            mb = membership(tag, ParamSet(*a.reshape(4, 4)))
            assert mb.member
            assert abs(mb.constants["A"] - want) <= 1e-8

    def test_indeterminate_with_nonzero_source_is_infeasible(self):
        # K-7 with l = 0 leaves A unreadable while the m0 rule still needs
        # to divide by it on a nonzero source
        p = ParamSet(k=[1, 0, 0, 0], m=[-1, 0, 0, 0], l=[0] * 4, n=[0] * 4)
        mb = membership("K-7", p)
        assert not mb.member
        assert mb.constants["A"] is None
        assert mb.residual == np.inf

    @pytest.mark.filterwarnings("error")
    def test_member_near_the_float_limit(self):
        # a row this large is divided by a power of two before any square
        p = construct("K-3", {"D": 2}, {"k": [1, 2, 3, 4]})
        mb = membership("K-3", ParamSet._own(p._array * 1e200))
        assert mb.member
        assert mb.constants == {"D": 2 + 0j}
        assert mb.residual == 0.0

    @pytest.mark.filterwarnings("error")
    def test_tiny_near_misses_raise_no_warning(self):
        # near 1e-152 the split solve's squares are subnormal, and no
        # quotient may overflow on them
        from kmln.classify import classify

        rng = np.random.default_rng(50)
        for tag in FAMILY_TAGS:
            g = assemble(instance_params(sample_instance(tag, rng)))
            e = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            g = (g + 1e-6 * np.linalg.norm(g) / np.linalg.norm(e) * e) \
                * 1e-152
            classify(g)
            for split in ("NLK-1", "NLM-1"):
                membership(split, disassemble(g))

    @pytest.mark.parametrize("tag", ["KM-2", "KM-4", "KM-5"])
    def test_cancelling_terms_keep_their_digits(self, tag):
        # near members with |k - m| about 1e-7 |k| and constants near 3e5:
        # the terms c*k and -c*m are 3e12 times the rule's sum c*(k - m)
        rng = np.random.default_rng(64)
        rows = []
        for _ in range(200):
            k, e = rng.uniform(-1, 1, (2, 4)) + 1j * rng.uniform(-1, 1, (2, 4))
            m = k + 1e-7 * np.linalg.norm(k) / np.linalg.norm(e) * e
            constants = {c: 3e5 * np.exp(2j * np.pi * rng.uniform())
                         for c in FAMILIES[tag].constants}
            a = construct(tag, constants, {"k": k, "m": m})._array
            e = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
            rows.append(a + 1e-9 * np.linalg.norm(a) / np.linalg.norm(e) * e)
        got = _memberships(np.array(rows), (tag,), 1e-9)
        for i, a in enumerate(rows):
            want = exact_residual(tag, a, got.constants(i, [0])[0])
            assert abs(got.residual[i, 0] - want) <= 1e-15, i

    def test_split_solve_calls_no_lapack(self, monkeypatch):
        # NLK-1 and NLM-1 read A in closed form, in classify and in closure
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        from kmln.classify import classify

        rng = np.random.default_rng(62)
        for tag in ("NLK-1", "NLM-1"):
            for real in (False, True):
                inst = sample_instance(tag, rng, real=real)
                rep = classify(assemble(instance_params(inst)))
                mb = rep.families[rep.family_tags.index(tag)]
                assert abs(mb.constants["A"] - inst.constants["A"]) \
                    <= 1e-9 * abs(inst.constants["A"])
        assert closure_check("NLM-1").max_constant_drift <= 1e-12

    def test_split_solve_needs_c_before_its_inverse(self, monkeypatch):
        # the split solve reads c from its item's first column
        fam = FAMILIES["NLK-1"]
        rules = dict(fam.rules)
        rules["m0"], rules["m"] = (
            tuple(terms[:1] + terms[2:] + terms[1:2])
            for terms in (fam.rules["m0"], fam.rules["m"]))
        assert [c for c, _ in rules["m"]] == ["1", "-1/A", "A"]
        monkeypatch.setitem(FAMILIES, "NLK-1",
                            dataclasses.replace(fam, rules=rules))
        with pytest.raises(ValueError, match="a split solve reads one item"):
            _memberships(np.ones((1, 16)), ("NLK-1",), 1e-9)


class TestClosure:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_family_closes(self, tag):
        rep = closure_check(tag, samples=60, seed=101)
        assert rep.worst_residual <= 1e-9
        assert rep.max_constant_drift <= 1e-9

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_family_closes_real(self, tag):
        rep = closure_check(tag, samples=25, seed=102, real=True)
        assert rep.worst_residual <= 1e-9

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="samples must be positive"):
            closure_check("K-3", samples=0)

    def test_violation_carries_the_pair(self):
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules)
        rules["m0"], rules["m"] = (("1", "k0"),), (("1", "k"),)
        FAMILIES["K-4"] = dataclasses.replace(fam, rules=rules)
        try:
            with pytest.raises(ClosureViolation) as exc:
                closure_check("K-4", samples=10, seed=1)
            assert exc.value.tag == "K-4"
            assert exc.value.left.tag == "K-4"
            assert exc.value.residual > 1e-3
            # the first pair a pair-by-pair loop draws from seed 1, after
            # the constant's magnitude and phase
            rng = np.random.default_rng(1)
            rng.uniform(0.5, 2.0), rng.uniform()
            for side in (exc.value.left, exc.value.right):
                k = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
                assert side.base.keys() == {"k"}
                assert np.array_equal(side.base["k"], k)
        finally:
            FAMILIES["K-4"] = fam

    def test_drift_carries_the_pair(self, monkeypatch):
        # with m = D*k as the only tie, a product of two members has
        # m = D**2 * k: it is a member, but D is read off as D**2
        fam = FAMILIES["K-3"]
        rules = dict.fromkeys(fam.rules, ())
        rules["m0"], rules["m"] = (("D", "k0"),), (("D", "k"),)
        monkeypatch.setitem(FAMILIES, "K-3",
                            dataclasses.replace(fam, rules=rules))
        with pytest.raises(ClosureViolation) as exc:
            closure_check("K-3", samples=10, seed=1)
        assert exc.value.reason == "constant D drifted under composition"
        rng = np.random.default_rng(1)
        d = sample_constants("K-3", rng)["D"]
        for side in (exc.value.left, exc.value.right):
            k = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            assert np.array_equal(side.base["k"], k)
            assert side.constants == {"D": d}
        product = compose(instance_params(exc.value.left),
                          instance_params(exc.value.right))
        got = membership("K-3", product).constants["D"]
        # the drift is numpy's elementwise |got - d|, which rounds apart
        # from the scalar abs() on about a third of complex values
        assert exc.value.residual == np.abs(np.array([got]) - d)[0]
        assert exc.value.residual == pytest.approx(abs(d * d - d), rel=1e-12)

    def test_violation_in_the_middle_of_the_stack(self):
        # at a tol between the products' residuals, closure fails on the
        # pair, and with the residual, that a product-by-product loop
        # meets first
        rng = np.random.default_rng(3)
        pairs = sample_instance("KMN-2", rng, {}, size=(30, 2))
        members = instance_params(pairs)
        products = compose(members[:, 0], members[:, 1])
        residuals = [membership("KMN-2", ParamSet._own(p)).residual
                     for p in products]
        tol = sorted(residuals)[20]
        first = next(i for i, r in enumerate(residuals) if r > tol)
        assert first > 0
        with pytest.raises(ClosureViolation) as exc:
            closure_check("KMN-2", samples=30, seed=3, tol=tol)
        assert exc.value.reason == "product failed membership"
        assert exc.value.residual == residuals[first]
        for side, member in zip((exc.value.left, exc.value.right),
                                members[first]):
            assert np.array_equal(instance_params(side)._array, member)

    def test_m6_sign_flip_does_not_close(self):
        # the lower-left block of M-6 must be -M/A; the +M/A variant is not
        # closed under multiplication
        rng = np.random.default_rng(7)
        consts = {"A": 1.3 - 0.4j, "alpha": 0.8 + 0.2j}

        def flipped(base_m):
            p = construct("M-6", consts, {"m": base_m})
            return dataclasses.replace(p, l=-p.l)

        left = flipped(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        right = flipped(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        prod = compose(left, right)
        back = dataclasses.replace(prod, l=-prod.l)
        assert not membership("M-6", back, tol=1e-6).member


class TestRanks:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_generic_rank_matches_record(self, tag):
        assert rank_profile(tag, seed=5, instances=15) == \
            FAMILIES[tag].generic_rank

    def test_disputed_labels_are_marked(self):
        disputed = {t for t in FAMILY_TAGS
                    if FAMILIES[t].claimed_rank != FAMILIES[t].generic_rank}
        assert disputed == {"KM-2", "KM-4", "KM-5", "KN-1", "KN-2",
                            "ML-1", "ML-2", "KMN-2", "KML-2",
                            "NLK-1", "NLM-1"}


class TestRank1Restriction:
    def test_restricted_bases_have_zero_determinant(self):
        from kmln.core import det_block

        rng = np.random.default_rng(21)
        for tag in RANK_TWO_TAGS:
            inst = rank1_restrict(sample_instance(tag, rng))
            for cv in inst.base.values():
                assert abs(det_block(cv)) <= 1e-12 * max(
                    np.linalg.norm(cv) ** 2, 1.0
                )

    def test_idempotent_and_preserves_degenerate_bases(self):
        inst = sample_instance("K-5", np.random.default_rng(22))
        once = rank1_restrict(inst)
        twice = rank1_restrict(once)
        for name in once.base:
            assert np.allclose(once.base[name], twice.base[name])
        zeroed = dataclasses.replace(inst, base={"k": np.zeros(4, complex)})
        kept = rank1_restrict(zeroed)
        assert np.allclose(kept.base["k"], 0)

    def test_rejected_for_group_families(self):
        inst = sample_instance("KM-1", np.random.default_rng(23))
        with pytest.raises(ValueError, match="rank"):
            rank1_restrict(inst)

    @pytest.mark.parametrize("tag", RANK_TWO_TAGS)
    def test_collapse_record(self, tag):
        rng = np.random.default_rng(24)
        worst = 0
        for _ in range(10):
            inst = rank1_restrict(sample_instance(tag, rng))
            worst = max(worst, numeric_rank(assemble(instance_params(inst))))
        if tag in COLLAPSING_TAGS:
            assert worst <= 1
        else:
            assert worst == 2

    def test_restricted_members_still_multiply_inside(self):
        rng = np.random.default_rng(25)
        consts = sample_constants("K-5", rng)
        a = instance_params(rank1_restrict(sample_instance("K-5", rng, consts)))
        b = instance_params(rank1_restrict(sample_instance("K-5", rng, consts)))
        prod = compose(a, b)
        assert membership("K-5", prod).member
        assert numeric_rank(assemble(prod)) <= 1


class TestSampling:
    def test_constant_magnitudes(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            consts = sample_constants("K-7", rng)
            for v in consts.values():
                assert 0.5 <= abs(v) <= 2.0

    def test_real_sampling(self):
        from kmln.core import is_real_conditions

        rng = np.random.default_rng(32)
        consts = sample_constants("K-5", rng, real=True)
        assert all(v.imag == 0 for v in consts.values())
        inst = sample_instance("K-5", rng, real=True)
        assert is_real_conditions(instance_params(inst))

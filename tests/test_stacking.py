"""Stacked forms against the per-item forms, bit for bit.

Every function that takes leading axes must give, for each item of a
stack, the bytes it gives for that item alone; every bulk draw must
consume the random stream exactly as the loop of single draws it replaces.
The single draws as they were written before stacking are kept here as the
oracle, and so is membership() as it was written before the catalog was
compiled into one kernel, with the constant reads it used (_read,
_split_plan, _split_solve) copied as they were.  The kernel gives a row
the same bits alone as in a stack, but its arithmetic is not the loop's:
it is held to the loop within 1e-12 (assert_same_as_loop).
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from kmln.core import (
    TOL_FLOOR,
    ParamSet,
    assemble,
    compose,
    disassemble,
    is_real_conditions,
    numeric_rank,
    param_norm,
    random_params,
    random_real_params,
)
from kmln.families import (
    _INDET_REL,
    _SLOTS,
    _VEC_AT,
    FAMILIES,
    FAMILY_TAGS,
    Membership,
    _coeff_parts,
    _combine,
    _memberships,
    construct,
    descriptor,
    instance_params,
    membership,
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


# --- membership as written before the catalog was compiled into one kernel -

def _read(a, routes, thr):
    """A constant read along its routes; the first route whose source part
    has norm above thr decides, and None means every route is degenerate."""
    for power, pieces in routes:
        if power == 0:
            return _split_solve(a, pieces, thr)
        w = np.concatenate([_combine(a, terms) for _, terms in pieces])
        y = np.concatenate([a[_SLOTS[target]] for target, _ in pieces])
        denom = float(np.real(np.vdot(w, w)))
        if math.sqrt(denom) <= thr:
            continue
        x = complex(np.vdot(w, y) / denom)
        if power == 1:
            return x
        return None if abs(x) <= TOL_FLOOR else 1 / x
    return None


@functools.cache
def _split_plan(pieces):
    """Gathers for the split solve from the float view of a component
    array: the target indices, then the real known parts and indices of
    the base, direct and inverse terms, each stacked over the pieces."""
    def at(slot):
        return np.arange(2 * _SLOTS[slot].start, 2 * _SLOTS[slot].stop)

    plan = [np.concatenate([at(target) for target, *_ in pieces])]
    for terms in list(zip(*pieces))[1:]:
        plan.append(np.concatenate([np.full(len(at(src)), known.real)
                                    for known, src in terms]))
        plan.append(np.concatenate([at(src) for _, src in terms]))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _split_solve(a, pieces, thr):
    """c from target - base = c*u + (1/c)*v, solving for (c, 1/c) jointly
    and falling back to whichever column is non-degenerate.

    The terms are scaled on the float view: complex products would turn the
    -0 of -a[source] into +0, and the sign of a zero steers LAPACK's
    Householder reflections."""
    at, kb, base, ku, direct, kv, inverse = _split_plan(pieces)
    x = a.view(float)
    y = (x[at] - kb * x[base]).view(complex)
    u = (ku * x[direct]).view(complex)
    v = (kv * x[inverse]).view(complex)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu <= thr and nv <= thr:
        return None
    design = np.column_stack([u, v])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    x1, x2 = complex(sol[0]), complex(sol[1])
    if nu > thr and abs(x1) > TOL_FLOOR:
        return x1
    if nv > thr and abs(x2) > TOL_FLOOR:
        return 1 / x2
    if nu > thr:
        return x1
    return None


def loop_membership(tag, p: ParamSet, tol: float = 1e-9,
                    consts=None) -> Membership:
    """membership() as the loop wrote it; with ``consts``, the residual at
    those constants instead of the ones the loop reads."""
    fam = descriptor(tag)
    a = p._array
    scale = max(param_norm(p), TOL_FLOOR)
    thr = _INDET_REL * scale
    if consts is None:
        consts = {name: _read(a, routes, thr)
                  for name, routes in fam.routes.items()}

    total = 0.0
    feasible = True
    for slot, terms in fam.rules.items():
        target = a[_SLOTS[slot]]
        acc = np.zeros_like(target)
        pending = {}
        for coeff, src in terms:
            known, unknown = _coeff_parts(coeff, consts)
            if not unknown:
                acc = acc + known * a[_SLOTS[src]]
                continue
            # Terms sharing one indeterminate factor stand or fall together:
            # c*(u - v) vanishes for every c when u == v.
            combined = pending.get(unknown)
            contrib = known * a[_SLOTS[src]]
            pending[unknown] = contrib if combined is None else combined + contrib
        for combined in pending.values():
            if float(np.linalg.norm(combined)) > thr:
                feasible = False
                break
        if not feasible:
            break
        total += float(np.linalg.norm(target - acc) ** 2)
    residual = math.inf if not feasible else math.sqrt(total) / scale
    return Membership(
        tag=fam.tag,
        member=feasible and residual <= tol,
        constants=consts,
        residual=residual,
    )


def unit(a):
    """A component array divided by the power of two of its largest part,
    as the kernel takes every row first."""
    a = np.ascontiguousarray(a, dtype=complex).view(float)
    return np.ldexp(a, -np.frexp(np.abs(a).max(initial=0.0))[1]).view(
        complex)


def loop_reference(tag, a, tol=1e-9, consts=None):
    """loop_membership of a component array as the kernel takes it, scaled
    by a power of two: the loop floors the norm at TOL_FLOOR, so on rows
    below it its answer depends on the scale, where the kernel's does not."""
    return loop_membership(tag, ParamSet._own(unit(a)), tol, consts)


def membership_bits(member, residual, constants):
    return (bool(member), float(residual).hex(),
            {name: None if c is None else (c.real.hex(), c.imag.hex())
             for name, c in constants.items()})


def term_size(tag, a, consts):
    """The largest rule term at the constants, relative to the norm of a
    as the kernel takes it: the loop rounds each term it sums, so its
    residual is good to a few eps times this."""
    a = unit(a)
    return max((abs(_coeff_parts(coeff, consts)[0])
                * np.linalg.norm(a[_SLOTS[src]])
                for terms in FAMILIES[tag].rules.values()
                for coeff, src in terms), default=0.0) \
        / max(np.linalg.norm(a), TOL_FLOOR)


def assert_same_as_loop(got, a, tol, where):
    """membership() of the component array ``a`` against the loop's: the
    same member flag, None pattern and infinite residuals; on members,
    constants within 1e-12 relative; and the residual within 1e-12 of the
    loop's residual at the same constants, relative to the largest of 1,
    that residual and the largest rule term.  The kernel sums each rule's
    columns before it multiplies them (c*k - c*m as c*(k - m)) and reads
    NLK-1 and NLM-1 in closed form where the loop calls LAPACK, so the
    last digits move, and on an ill-conditioned non-member the two reads
    differ.  Returns the loop's Membership."""
    want = loop_reference(got.tag, a, tol)
    at = loop_reference(got.tag, a, tol, got.constants)
    assert got.member == want.member, where
    assert math.isinf(got.residual) == math.isinf(want.residual) \
        == math.isinf(at.residual), where
    if not math.isinf(got.residual):
        size = max(1.0, at.residual, term_size(got.tag, a, got.constants))
        assert abs(got.residual - at.residual) <= 1e-12 * size, where
    for name, c in want.constants.items():
        assert (got.constants[name] is None) == (c is None), (where, name)
        if want.member and c is not None:
            assert abs(got.constants[name] - c) <= 1e-12 * abs(c), \
                (where, name)
    return want


def assert_membership_matches_loop(tag, stack, tol=1e-9):
    """The kernel gives every row of the stack the bits membership() gives
    it alone, and what the loop gives it (see assert_same_as_loop);
    returns the loop's results."""
    got = _memberships(stack, (tag,), tol)
    assert got.member.shape == got.residual.shape == (len(stack), 1)
    want = []
    for i, row in enumerate(stack):
        kernel = membership_bits(got.member[i, 0], got.residual[i, 0],
                                 got.constants(i, [0])[0])
        single = membership(tag, ParamSet._own(row.copy()), tol)
        assert membership_bits(single.member, single.residual,
                               single.constants) == kernel, (tag, i)
        want.append(assert_same_as_loop(single, row, tol, (tag, i)))
    return want


def closure_products(tag, samples, seed, real=False):
    """The products closure_check tests, drawn as it draws them."""
    rng = np.random.default_rng(seed)
    constants = sample_constants(tag, rng, real)
    pairs = sample_instance(tag, rng, constants, real, size=(samples, 2))
    members = instance_params(pairs)
    return compose(members[:, 0], members[:, 1])


def signatures(tag, results):
    """The distinct indeterminate-factor patterns of the rows' coefficients."""
    return {tuple(_coeff_parts(coeff, mb.constants)[1]
                  for terms in FAMILIES[tag].rules.values()
                  for coeff, _ in terms)
            for mb in results}


def mixed_stack(tag):
    """Generic rows, members at several scales, the zero set, members with
    one base zeroed (indeterminate constants) and members whose tied
    vectors are shrunk until a constant read from them is too small to
    invert, in one stack."""
    fam = FAMILIES[tag]
    rng = np.random.default_rng(24)
    rows = [random_params(rng)._array, np.zeros(16, dtype=complex)]
    for j in range(6):
        inst = sample_instance(tag, rng)
        a = instance_params(inst)._array
        rows.append(a * 10.0 ** (40 * j - 100))
        base = dict(inst.base, **{fam.bases[j % len(fam.bases)]:
                                  np.zeros(4, dtype=complex)})
        rows.append(construct(tag, inst.constants, base)._array)
        tied = a.copy()
        for v in "kmln":
            if v not in fam.bases:
                tied[_VEC_AT[v]] *= 1e-15
        rows.append(tied)
        rows.append(random_params(rng)._array)
    return np.array(rows)


class TestMembership:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_closure_products_match_loop(self, tag, real):
        results = assert_membership_matches_loop(
            tag, closure_products(tag, 40, 23, real))
        assert all(mb.member for mb in results)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_mixed_stack_matches_loop(self, tag):
        fam = FAMILIES[tag]
        results = assert_membership_matches_loop(tag, mixed_stack(tag))
        if fam.constants:
            assert any(c is None for mb in results
                       for c in mb.constants.values())
        if tag in ("K-6", "K-7", "M-5", "M-6", "KM-3", "LN-1", "LN-2"):
            assert any(c is not None and 0 < abs(c) <= TOL_FLOOR
                       for mb in results for c in mb.constants.values())
            assert len(signatures(tag, results)) > 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_power_of_two_scale_keeps_the_bits(self, tag):
        stack = mixed_stack(tag)
        want = _memberships(stack, (tag,), 1e-9)
        for k in (-600, -1, 1, 600):
            scaled = np.ldexp(stack.view(float), k).view(complex)
            got = _memberships(scaled, (tag,), 1e-9)
            for name in ("member", "residual", "table"):
                assert same_bits(getattr(got, name), getattr(want, name)), \
                    (k, name)

    def test_rule_swapped_family_matches_loop(self, monkeypatch):
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules, n0=(("2*A", "k0"),), n=(("2*A", "k"),),
                     m0=(("1/A", "k0"),), m=(("1/A", "k"),))
        monkeypatch.setitem(FAMILIES, "K-4",
                            dataclasses.replace(fam, rules=rules))
        rng = np.random.default_rng(25)
        members = instance_params(sample_instance("K-4", rng, size=N))
        stack = np.concatenate([members, random_params(rng, N),
                                closure_products("K-4", N, 26)])
        results = assert_membership_matches_loop("K-4", stack)
        assert all(mb.member for mb in results[:N])
        assert not any(mb.member for mb in results[N:2 * N])

    def test_empty_stack(self):
        got = _memberships(np.zeros((0, 16), dtype=complex), ("K-5",), 1e-9)
        assert got.member.shape == got.residual.shape == (0, 1)
        assert len(got.table) == 0

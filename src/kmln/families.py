"""Catalog of degenerate matrix families closed under multiplication.

Each family ties some of the four parameter vectors (k, m, l, n) to a small
set of free base vectors through linear rules whose coefficients are built
from named constants.  A family descriptor records

* the free base vectors,
* the tie rules, slot by slot (a slot is either the scalar part ``x0`` or
  the 3-component vector part ``x`` of one parameter vector),
* the rank label the catalog assigns to generic members (``claimed_rank``)
  next to the rank generic members actually have (``generic_rank``); the
  verification harness reports every mismatch between the two instead of
  hiding it.

Rule coefficients are written in a tiny expression form: products and
quotients of constant names and integer literals with an optional leading
minus, e.g. ``"A*D"``, ``"-1/A"``, ``"beta*A"``.

The rules are the whole entry: how each constant is recovered from a
parameter set is derived from them (``Family.routes``).  Each term is
parsed once into a known part and the constants it carries.  A constant
c with a slot of the form target = base + c*u + v/c (NLK-1, NLM-1) is
solved for c and 1/c jointly over those slots.  Any other c is read by
least squares: the target vectors are walked in block order k, n, l, m
(the layout [[K, N], [L, M]]); in each, the slots whose terms all carry
exactly c form one direct candidate (target ~ c*w) and those whose terms
all carry exactly 1/c one inverted candidate (target ~ w/c).  Route r of
each kind stacks the r-th candidate over each set of source vectors, so
candidates over distinct sources are read together and a later one over
the same sources is a fallback; direct routes come first, and the first
route whose sources do not vanish decides.

One catalog entry deserves a note: the two-constant family M-6 is stored
here in the form forced by the multiplication law (the mirror image of
K-7, with ``l = -m/A`` and ``k0 = -(alpha/A)*m0``).  The closure equations
admit no member with the lower-left block equal to ``+M/A``; a variant with
that sign fails numeric closure outright, which the harness would expose.

All descriptor data is immutable; every function is pure.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from kmln.core import (
    _DRAWS,
    TOL_FLOOR,
    ParamSet,
    _cvec4_from_draws,
    _shape,
    assemble,
    compose,
    numeric_rank,
    param_norm,
)

__all__ = [
    "Family",
    "FamilyInstance",
    "Membership",
    "ClosureReport",
    "UnknownTagError",
    "MissingConstantError",
    "ZeroConstantError",
    "ClosureViolation",
    "FAMILY_TAGS",
    "FAMILIES",
    "RANK_TWO_TAGS",
    "GROUP_TAGS",
    "descriptor",
    "construct",
    "membership",
    "candidate_tags",
    "sample_constants",
    "sample_instance",
    "instance_params",
    "rank1_restrict",
    "closure_check",
    "rank_profile",
]

_VECS = ("k", "m", "n", "l")

# Where each vector, and each slot, lies in a parameter set's (16,)
# component array, ordered k, m, l, n: slot ``x0`` is the scalar part of
# vector x, slot ``x`` its vector part.
_VEC_AT = {v: slice(4 * i, 4 * i + 4) for i, v in enumerate("kmln")}
_SLOTS = {
    slot: slice(4 * i + lo, 4 * i + hi)
    for i, v in enumerate("kmln")
    for slot, lo, hi in ((v + "0", 0, 1), (v, 1, 4))
}

# Relative threshold under which a least-squares source is considered
# degenerate and the constant it would determine is reported indeterminate.
_INDET_REL = 1e-12


class UnknownTagError(ValueError):
    """Raised for a tag string that names no catalog family."""


class MissingConstantError(ValueError):
    """Raised when construct() is called without a constant the tag needs."""


class ZeroConstantError(ValueError):
    """Raised when a constant that gets inverted is given as (near) zero."""


class ClosureViolation(Exception):
    """A composed pair of members left the family; carries the pair."""

    def __init__(self, tag, left, right, residual,
                 reason="product failed membership"):
        super().__init__(f"{tag}: {reason} (residual {residual:.3e})")
        self.tag = tag
        self.left = left
        self.right = right
        self.residual = residual
        self.reason = reason


@dataclass(frozen=True)
class Family:
    """Descriptor of one catalog family."""

    tag: str
    bases: tuple
    constants: tuple = ()
    rules: Mapping[str, tuple] = field(default_factory=dict)
    claimed_rank: int = 2
    generic_rank: int = 2
    rank1_collapses: bool = False
    note: str = ""

    @functools.cached_property
    def parsed(self) -> dict:
        """Each rule slot's terms as (known, signature, source), parsed once
        with every constant unknown (see _coeff_parts): ``"-1/A"`` is known
        part -1 with signature (("A", -1),)."""
        unknown = dict.fromkeys(self.constants)
        return {slot: tuple((*_coeff_parts(coeff, unknown), src)
                            for coeff, src in terms)
                for slot, terms in self.rules.items()}

    @functools.cached_property
    def inverted(self) -> frozenset:
        """Constants some rule divides by; they must stay away from zero."""
        return frozenset(name for terms in self.parsed.values()
                         for _, signature, _ in terms
                         for name, power in signature if power < 0)

    @functools.cached_property
    def routes(self) -> dict:
        """How membership() reads each constant, derived from the rules.

        Maps each constant c to its routes, tried in order.  A route is
        (power, pieces): power 1 reads target ~ c*w and power -1 target ~
        w/c by least squares over pieces (target slot, terms), w summing
        known*source over the terms; power 0 is the joint solve for c and
        1/c over pieces (target slot, base, direct and inverse term), each
        term (known, source).
        """
        return {c: _derive_routes(self.parsed, c) for c in self.constants}


@dataclass(frozen=True)
class Membership:
    """Result of testing one parameter set against one family."""

    tag: str
    member: bool
    constants: Mapping[str, complex]
    residual: float


@dataclass(frozen=True)
class FamilyInstance:
    """A family member given by tag, constants and free base vectors."""

    tag: str
    constants: Mapping[str, complex]
    base: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a seeded closure run over random member pairs."""

    tag: str
    constants: Mapping[str, complex]
    samples: int
    worst_residual: float
    recovered: Mapping[str, complex]
    max_constant_drift: float


# --- coefficient expressions -------------------------------------------------

_TOKEN = re.compile(r"([*/]?)([A-Za-z]+|\d+(?:\.\d+)?)")


@functools.cache
def _parse_coeff(expr):
    """Sign and factors of a coefficient expression, parsed once per string.

    Returns (sign, factors); each factor is (divides, token, literal), with
    literal the value of a number token and None for a constant name.  The
    cache is keyed by the expression itself, so a family whose rules are
    replaced is read afresh; the catalog holds a few dozen expressions.
    """
    body = expr
    sign = complex(1)
    if body.startswith("-"):
        sign = complex(-1)
        body = body[1:]
    factors = []
    pos = 0
    for match in _TOKEN.finditer(body):
        op, token = match.group(1), match.group(2)
        if match.start() != pos:
            raise ValueError(f"bad coefficient expression {expr!r}")
        pos = match.end()
        literal = complex(float(token)) if token[0].isdigit() else None
        factors.append((op == "/", token, literal))
    if pos != len(body):
        raise ValueError(f"bad coefficient expression {expr!r}")
    return sign, tuple(factors)


def _coeff_parts(expr, consts):
    """Split a coefficient expression into (known scalar, unknown signature).

    The known part multiplies every determined factor.  Constants that are
    indeterminate (None), and divisors too small to invert, go into the
    signature as (name, +1/-1) exponent pairs; an empty signature means the
    coefficient is fully determined.
    """
    value, factors = _parse_coeff(expr)
    unknown = []
    for divides, token, factor in factors:
        if factor is None:
            if token not in consts:
                raise ValueError(f"unknown constant {token!r} in {expr!r}")
            factor = consts[token]
        if divides:
            if factor is None or abs(factor) <= TOL_FLOOR:
                unknown.append((token, -1))
            else:
                value /= factor
        else:
            if factor is None:
                unknown.append((token, 1))
            else:
                value *= factor
    return value, tuple(sorted(unknown))


# --- table-building helpers --------------------------------------------------


def _prop(*terms):
    """Whole-vector tie: same coefficients for the scalar and vector slots."""
    return _split(terms, terms)


def _split(scal, vec):
    """Tie with distinct scalar-slot and vector-slot terms."""
    return tuple((c, s + "0") for c, s in scal), tuple(vec)


def _fam(tag, bases, ties, constants=(), **labels):
    rules = {}
    for v in _VECS:
        if v not in bases:
            rules[v + "0"], rules[v] = ties.get(v, ((), ()))
    return Family(tag, tuple(bases), tuple(constants), rules, **labels)


# --- the catalog -------------------------------------------------------------

_CATALOG = (
    # ----- one base vector: k ------------------------------------------------
    _fam("K-1", "k", {},
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="only the upper-left block is non-zero"),
    _fam("K-2", "k", {"m": _prop(("1", "k"))},
         claimed_rank=4, generic_rank=4,
         note="equal diagonal blocks, zero off-diagonal blocks"),
    _fam("K-3", "k", {"l": _prop(("D", "k"))}, constants="D",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="lower-left block D*K"),
    _fam("K-4", "k", {"n": _prop(("A", "k"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper-right block A*K"),
    _fam("K-5", "k",
         {"n": _prop(("A", "k")), "l": _prop(("D", "k")),
          "m": _prop(("A*D", "k"))}, constants=("A", "D"),
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to K"),
    _fam("K-6", "k",
         {"n": _prop(("A", "k")),
          "l": _split((("t", "k"),), (("-1/A", "k"),)),
          "m": _split((("A*t", "k"),), (("-1", "k"),))}, constants=("A", "t"),
         claimed_rank=2, generic_rank=2,
         note="mixed scalar/vector ties, lower row scaled by the upper"),
    _fam("K-7", "k",
         {"n": _split((("alpha", "k"),), (("A", "k"),)),
          "l": _prop(("-1/A", "k")),
          "m": _split((("-alpha/A", "k"),), (("-1", "k"),))},
         constants=("A", "alpha"), claimed_rank=2, generic_rank=2,
         note="lower row is -1/A times the upper row"),
    # ----- one base vector: m ------------------------------------------------
    _fam("M-1", "m", {},
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="only the lower-right block is non-zero"),
    _fam("M-2", "m", {"k": _prop(("1", "m"))},
         claimed_rank=4, generic_rank=4,
         note="equal diagonal blocks, zero off-diagonal blocks"),
    _fam("M-3", "m", {"l": _prop(("D", "m"))}, constants="D",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="lower-left block D*M"),
    _fam("M-4", "m", {"n": _prop(("A", "m"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper-right block A*M"),
    _fam("M-5", "m",
         {"k": _split((("A*t", "m"),), (("-1", "m"),)),
          "n": _prop(("A", "m")),
          "l": _split((("t", "m"),), (("-1/A", "m"),))}, constants=("A", "t"),
         claimed_rank=2, generic_rank=2,
         note="mirror of K-6 with the roles of the diagonal blocks swapped"),
    _fam("M-6", "m",
         {"k": _split((("-alpha/A", "m"),), (("-1", "m"),)),
          "n": _split((("alpha", "m"),), (("A", "m"),)),
          "l": _prop(("-1/A", "m"))}, constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="mirror of K-7; left column is -1/A times the right column"),
    _fam("M-7", "m",
         {"k": _prop(("A*D", "m")), "n": _prop(("A", "m")),
          "l": _prop(("D", "m"))}, constants=("A", "D"),
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to M"),
    # ----- one base vector: n ------------------------------------------------
    _fam("N-1", "n", {"k": _prop(("A", "n"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper row (A*N, N), lower row zero"),
    _fam("N-2", "n",
         {"k": _prop(("A", "n")), "l": _prop(("A*A", "n")),
          "m": _prop(("A", "n"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to N"),
    _fam("N-3", "n",
         {"k": _split((("alpha", "n"),), (("A", "n"),)),
          "l": _split((("-alpha*A", "n"),), (("-A*A", "n"),)),
          "m": _prop(("-A", "n"))}, constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="lower row is -A times the upper row"),
    _fam("N-4", "n",
         {"k": _prop(("A", "n")),
          "l": _split((("beta*A", "n"),), (("-A*A", "n"),)),
          "m": _split((("beta", "n"),), (("-A", "n"),))},
         constants=("A", "beta"), claimed_rank=2, generic_rank=2,
         note="left column is A times the right column"),
    # ----- one base vector: l ------------------------------------------------
    _fam("L-1", "l", {"k": _prop(("A", "l"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="left column (A*L, L), right column zero"),
    _fam("L-2", "l",
         {"k": _prop(("A", "l")), "n": _prop(("A*A", "l")),
          "m": _prop(("A", "l"))}, constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to L"),
    _fam("L-3", "l",
         {"k": _split((("alpha", "l"),), (("A", "l"),)),
          "n": _split((("-alpha*A", "l"),), (("-A*A", "l"),)),
          "m": _prop(("-A", "l"))}, constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="right column is -A times the left column"),
    _fam("L-4", "l",
         {"k": _prop(("A", "l")),
          "n": _split((("beta*A", "l"),), (("-A*A", "l"),)),
          "m": _split((("beta", "l"),), (("-A", "l"),))},
         constants=("A", "beta"), claimed_rank=2, generic_rank=2,
         note="upper row is A times the lower row"),
    # ----- two base vectors: k, m -------------------------------------------
    _fam("KM-1", ("k", "m"), {},
         claimed_rank=4, generic_rank=4,
         note="block diagonal with independent diagonal blocks"),
    _fam("KM-2", ("k", "m"),
         {"l": _prop(("D", "m"), ("-D", "k"))}, constants="D",
         claimed_rank=2, generic_rank=4,
         note="block lower triangular, lower-left D*(M - K)"),
    _fam("KM-3", ("k", "m"),
         {"n": _prop(("B", "m")), "l": _prop(("1/B", "k"))}, constants="B",
         claimed_rank=2, generic_rank=2,
         note="off-diagonal blocks B*M and K/B"),
    _fam("KM-4", ("k", "m"),
         {"n": _prop(("A", "k"), ("-A", "m"))}, constants="A",
         claimed_rank=2, generic_rank=4,
         note="block upper triangular, upper-right A*(K - M)"),
    _fam("KM-5", ("k", "m"),
         {"n": _prop(("A", "k"), ("-A", "m")),
          "l": _prop(("C", "k"), ("-C", "m"))}, constants=("A", "C"),
         claimed_rank=2, generic_rank=4,
         note="both off-diagonal blocks proportional to K - M"),
    # ----- two base vectors: l, n -------------------------------------------
    _fam("LN-1", ("l", "n"),
         {"k": _prop(("A", "l")), "m": _prop(("1/A", "n"))}, constants="A",
         claimed_rank=2, generic_rank=2,
         note="diagonal blocks A*L and N/A"),
    _fam("LN-2", ("l", "n"),
         {"k": _prop(("B", "n")), "m": _prop(("1/B", "l"))}, constants="B",
         claimed_rank=2, generic_rank=2,
         note="diagonal blocks B*N and L/B"),
    # ----- two base vectors: k, n -------------------------------------------
    _fam("KN-1", ("k", "n"),
         {"l": _prop(("A", "k")), "m": _prop(("A", "n"))}, constants="A",
         claimed_rank=4, generic_rank=2,
         note="lower block row is A times the upper block row"),
    _fam("KN-2", ("k", "n"), {"m": _prop(("1", "k"))},
         claimed_rank=2, generic_rank=4,
         note="block upper triangular with equal diagonal blocks"),
    # ----- two base vectors: m, l -------------------------------------------
    _fam("ML-1", ("m", "l"),
         {"k": _prop(("A", "l")), "n": _prop(("A", "m"))}, constants="A",
         claimed_rank=4, generic_rank=2,
         note="upper block row is A times the lower block row"),
    _fam("ML-2", ("m", "l"), {"k": _prop(("1", "m"))},
         claimed_rank=2, generic_rank=4,
         note="block lower triangular with equal diagonal blocks"),
    # ----- three base vectors ------------------------------------------------
    _fam("KMN-1", ("k", "m", "n"), {},
         claimed_rank=4, generic_rank=4,
         note="block upper triangular, all three blocks free"),
    _fam("KMN-2", ("k", "m", "n"),
         {"l": _prop(("-1", "k"), ("1", "m"), ("1", "n"))},
         claimed_rank=2, generic_rank=4,
         note="lower-left block fixed to -K + M + N"),
    _fam("KML-1", ("k", "m", "l"), {},
         claimed_rank=4, generic_rank=4,
         note="block lower triangular, all three blocks free"),
    _fam("KML-2", ("k", "m", "l"),
         {"n": _prop(("1", "k"), ("-1", "m"), ("1", "l"))},
         claimed_rank=2, generic_rank=4,
         note="upper-right block fixed to K - M + L"),
    _fam("NLK-1", ("n", "l", "k"),
         {"m": _prop(("1", "k"), ("A", "n"), ("-1/A", "l"))}, constants="A",
         claimed_rank=2, generic_rank=4,
         note="lower-right block fixed to K + A*N - L/A"),
    _fam("NLM-1", ("n", "l", "m"),
         {"k": _prop(("1", "m"), ("A", "l"), ("-1/A", "n"))}, constants="A",
         claimed_rank=2, generic_rank=4,
         note="upper-left block fixed to M + A*L - N/A"),
)

FAMILIES = {fam.tag: fam for fam in _CATALOG}
FAMILY_TAGS = tuple(fam.tag for fam in _CATALOG)
_TAG_ORDER = {tag: i for i, tag in enumerate(FAMILY_TAGS)}

#: Tags whose generic members have rank exactly 2.
RANK_TWO_TAGS = tuple(t for t in FAMILY_TAGS if FAMILIES[t].generic_rank == 2)

#: Tags whose generic members are invertible.
GROUP_TAGS = tuple(t for t in FAMILY_TAGS if FAMILIES[t].generic_rank == 4)


def descriptor(tag) -> Family:
    """Catalog descriptor for a tag; raises UnknownTagError otherwise."""
    key = str(tag).strip().upper()
    try:
        return FAMILIES[key]
    except KeyError:
        raise UnknownTagError(
            f"unknown family tag {tag!r}; valid tags: {', '.join(FAMILY_TAGS)}"
        ) from None


def construct(tag, constants=None, base=None):
    """Parameter set of the family member with the given constants and base.

    ``base`` maps each free base vector name to a CVec4.  Constants the tag
    does not use are rejected, missing ones raise MissingConstantError and
    constants the rules invert must be bounded away from zero.

    Base vectors of shape (..., 4) and constants of any shape broadcast to
    a stack of members, returned as a (..., 16) component array; with no
    leading axes the result is a ParamSet.  Coefficients are evaluated in
    Python complex arithmetic at each set of constants, so every member of
    a stack has the bits it has when built alone.
    """
    fam = descriptor(tag)
    constants = {str(k): np.asarray(v, dtype=complex)
                 for k, v in dict(constants or {}).items()}
    unknown = sorted(set(constants) - set(fam.constants))
    if unknown:
        raise ValueError(
            f"{fam.tag} takes constants {list(fam.constants)}, not {unknown}"
        )
    missing = sorted(set(fam.constants) - set(constants))
    if missing:
        raise MissingConstantError(f"{fam.tag} requires constant {missing[0]!r}")
    for name in sorted(fam.inverted):
        if (np.abs(constants[name]) <= TOL_FLOOR).any():
            raise ZeroConstantError(
                f"{fam.tag} inverts constant {name!r}; zero is not allowed"
            )
    base = dict(base or {})
    if sorted(base) != sorted(fam.bases):
        raise ValueError(
            f"{fam.tag} needs base vectors {list(fam.bases)}, got {sorted(base)}"
        )
    base = {v: np.asarray(base[v], dtype=complex) for v in fam.bases}
    for v, cv in base.items():
        if cv.shape[-1:] != (4,):
            raise ValueError(
                f"{v}: expected 4 components, got shape {cv.shape}")

    at = np.broadcast_shapes(*(c.shape for c in constants.values()))
    shape = np.broadcast_shapes(at, *(cv.shape[:-1] for cv in base.values()))
    # one dict of Python complex constants per member of the stack
    points = [dict(zip(constants, values)) for values in
              zip(*(np.broadcast_to(c, at).ravel().tolist()
                    for c in constants.values()))] or [{}]
    arr = np.zeros(shape + (16,), dtype=complex)
    for v, cv in base.items():
        arr[..., _VEC_AT[v]] = cv
    for slot, terms in fam.rules.items():
        arr[..., _SLOTS[slot]] = _combine(arr, [
            (np.array([_coeff_parts(coeff, c)[0] for c in points])
             .reshape(at + (1,)), src)
            for coeff, src in terms])
    finite = np.isfinite(arr).reshape(-1, 4, 4).all((0, 2))
    if not finite.all():
        raise ValueError(f"{'kmln'[finite.argmin()]}: non-finite component")
    return arr if shape else ParamSet._own(arr)


# --- reading the constants ---------------------------------------------------


def _derive_routes(parsed, c):
    """Routes along which membership() reads constant c, derived from the
    parsed rules by the rule the module docstring states."""
    roles = {(): 0, ((c, 1),): 1, ((c, -1),): -1}
    split, found = [], {1: [], -1: []}
    for v in "knlm":
        pieces = {1: [], -1: []}
        for slot in (v + "0", v):
            terms, groups = parsed.get(slot, ()), {}
            for known, signature, src in terms:
                groups.setdefault(roles.get(signature), []).append((known, src))
            if len(terms) == 3 and groups.keys() == {0, 1, -1}:
                split.append((slot, *(groups[r][0] for r in (0, 1, -1))))
            elif groups.keys() in ({1}, {-1}):
                (power, group), = groups.items()
                pieces[power].append((slot, tuple(group)))
        for power, slots in pieces.items():
            if slots:
                sources = frozenset(src[0] for _, terms in slots
                                    for _, src in terms)
                found[power].append((sources, slots))
    if split:
        return ((0, tuple(split)),)
    routes = []
    for power in (1, -1):
        stacked, seen = [], []
        for sources, slots in found[power]:
            r = seen.count(sources)
            seen.append(sources)
            if r == len(stacked):
                stacked.append([])
            stacked[r] += slots
        routes += [(power, tuple(slots)) for slots in stacked]
    return tuple(routes)


def _combine(a, terms):
    """Sum of known * a[..., source] over (known, source) terms, in rule
    order."""
    acc = 0
    for known, src in terms:
        acc = acc + known * a[..., _SLOTS[src]]
    return acc


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


def membership(tag, p: ParamSet, tol: float = 1e-9) -> Membership:
    """Test whether p lies in the family, recovering its constants.

    Each constant is read off by least squares along the routes derived
    from the family's rules (Family.routes); the full rule residual,
    relative to the parameter norm, then decides membership.  Constants
    whose determining components vanish are reported as None
    (indeterminate).
    """
    fam = descriptor(tag)
    a = p._array
    scale = max(param_norm(p), TOL_FLOOR)
    thr = _INDET_REL * scale
    consts = {name: _read(a, routes, thr) for name, routes in fam.routes.items()}

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


# --- the residual screen -----------------------------------------------------

# A family is screened out only when its residual bound exceeds 2*tol plus
# this absolute slack (both relative to the parameter norm).  The slack
# absorbs the rounding of the bound and of the residual membership()
# computes; on members of all 39 families, NLK-1 and NLM-1 members with
# nearly parallel columns among them, the bound came out at most 3.5e-15
# above that residual.
_SCREEN_SLACK = 1e-12
# Two free columns u, v count as parallel, and their slot bound as 0, when
# |u x v|^2 <= _SCREEN_PARALLEL * |u|^2 |v|^2.  The rounding error of the
# two-column bound is about 3.5 eps |y| |u| |v| / |u x v|, so at this cut
# it stays below 1e-13 of the parameter norm, well inside the slack.
_SCREEN_PARALLEL = 1e-4
# Squared norms at most this, on the rescaled array, may carry subnormal
# rounding: a one-column bound divides by _SCREEN_TINY instead, which only
# lowers it, and a two-column slot with |u x v|^2 this small bounds nothing.
_SCREEN_TINY = 1e-280
# Lanes rotated forward and back: lane i of a x b is
# a[_NEXT[i]] b[_PREV[i]] - a[_PREV[i]] b[_NEXT[i]].
_NEXT, _PREV = (1, 2, 0), (2, 0, 1)


class _Screen(NamedTuple):
    """The catalog's rules compiled into one gather table of linear forms.

    The catalog needs only a few dozen distinct linear forms of the
    component array x: form j is sum(coeff[:, j] * x[at[:, j]]).  ``rows``
    picks the forms into these blocks, in order:

    * ``n_plain`` lanes of targets y of slots without a free column;
    * for the ``n_one`` one-column vector slots (pairs y, u) followed by
      the ``n_two`` two-column ones (pairs u, v): the first member of each
      pair with its lanes rotated forward, then back, and the second member
      likewise, each block lane-major (3, pairs);
    * the targets y of the two-column slots, lane-major (3, n_two).

    ``family`` holds the index, into ``tags``, of each plain lane, then of
    each one-column slot, then of each two-column slot.  A scalar slot with
    a free column, or a slot with more than two, bounds nothing.
    """

    families: tuple
    tags: tuple
    at: np.ndarray
    coeff: np.ndarray
    rows: np.ndarray
    n_plain: int
    n_one: int
    n_two: int
    family: np.ndarray


def _compile_screen(catalog) -> _Screen:
    plain, ones, twos = [], [], []
    for f, fam in enumerate(catalog.values()):
        # a slot's terms grouped by the constants they carry: A*k - A*m is
        # one column k - m
        for slot, terms in fam.parsed.items():
            y, columns = [(1, slot)], {}
            for known, signature, src in terms:
                if signature:
                    columns.setdefault(signature, []).append((known, src))
                else:
                    y.append((-known, src))
            columns = list(columns.values())
            width = _SLOTS[slot].stop - _SLOTS[slot].start
            if not columns:
                plain += [(f, y, lane) for lane in range(width)]
            elif width == 3 and len(columns) == 1:
                ones.append((f, y, columns[0]))
            elif width == 3 and len(columns) == 2:
                twos.append((f, y, *columns))

    def form(terms, lane):
        return tuple((_SLOTS[src].start + lane, complex(c))
                     for c, src in terms)

    forms = [form(y, lane) for _, y, lane in plain]
    pairs = [(y, u) for _, y, u in ones] + [(u, v) for _, _, u, v in twos]
    for member, lanes in ((0, _NEXT), (0, _PREV), (1, _NEXT), (1, _PREV)):
        forms += [form(pair[member], lane) for lane in lanes for pair in pairs]
    forms += [form(y, lane) for lane in range(3) for _, y, _, _ in twos]

    distinct = list(dict.fromkeys(forms))
    # term-major, so the sum adds whole rows; padding terms read component
    # 0 with coefficient 0
    at = np.zeros((max(map(len, distinct)), len(distinct)), dtype=int)
    coeff = np.zeros(at.shape, dtype=complex)
    for j, terms in enumerate(distinct):
        for t, (index, c) in enumerate(terms):
            at[t, j], coeff[t, j] = index, c
    position = {terms: j for j, terms in enumerate(distinct)}
    rows = np.array([position[terms] for terms in forms])
    family = np.array([f for f, *_ in plain + ones + twos], dtype=int)
    for arr in (at, coeff, rows, family):
        arr.setflags(write=False)
    return _Screen(tuple(catalog.values()), tuple(catalog), at, coeff, rows,
                   len(plain), len(ones), len(twos), family)


# compiled on first use, and again whenever a FAMILIES entry is replaced
_screen = None


def _sq(z):
    return z.real ** 2 + z.imag ** 2


def candidate_tags(p: ParamSet, tol: float = 1e-9) -> tuple:
    """Tags, in catalog order, of the families p may belong to at tol.

    Computes a lower bound on every family's membership residual in one
    batched pass: each coefficient that holds a constant becomes a free
    complex scalar for its rule slot alone, so the rule residual at any
    constants -- the ones membership() estimates included -- is at least
    the slot's least-squares residual over those scalars.  A family is left
    out only when its bound exceeds 2*tol plus a small absolute slack, so
    membership(tag, p, tol).member is False for every tag left out.  The
    bound runs on the component array divided by the power of two of its
    largest real or imaginary part, so it cannot overflow.  A parameter set
    whose parts all lie below TOL_FLOOR (the zero set among them) keeps
    every tag: membership() measures its residual against that floor.
    """
    global _screen
    if _screen is None or _screen.families != tuple(FAMILIES.values()):
        _screen = _compile_screen(FAMILIES)
    scr = _screen
    a = p._array
    top = float(np.abs(a.view(float)).max())
    if top < TOL_FLOOR:
        return scr.tags
    # exact: a power of two changes exponents only, and top >= TOL_FLOOR
    # keeps the factor finite
    x = a * 2.0 ** -math.frexp(top)[1]

    lin = (scr.coeff * x[scr.at]).sum(0)[scr.rows]
    sq = _sq(lin)
    r0, n1 = scr.n_plain, scr.n_one
    r1 = r0 + 12 * (n1 + scr.n_two)
    a_next, a_prev, b_next, b_prev = lin[r0:r1].reshape(4, 3, -1)
    aa, _, bb, _ = sq[r0:r1].reshape(4, 3, -1).sum(1)
    cross = a_next * b_prev - a_prev * b_next
    cc = _sq(cross).sum(0)
    # one column u: min over c of |y - c u|^2 = |y x u|^2 / |u|^2 (the
    # Lagrange identity, free of cancellation); |y|^2 when u is zero
    one = np.where(b_next[:, :n1].any(0),
                   cc[:n1] / np.maximum(bb[:n1], _SCREEN_TINY), aa[:n1])
    # two columns u, v: the distance from y to span(u, v) is
    # |det[u, v, y]| / |u x v|
    det = (lin[r1:].reshape(3, -1) * cross[:, n1:]).sum(0)
    apart = cc[n1:] > _SCREEN_PARALLEL * aa[n1:] * bb[n1:] + _SCREEN_TINY
    two = np.where(apart, _sq(det) / np.maximum(cc[n1:], _SCREEN_TINY), 0.0)
    bound = np.bincount(scr.family, np.concatenate((sq[:r0], one, two)),
                        len(scr.tags))
    limit = (2 * tol + _SCREEN_SLACK) ** 2 * float(_sq(x).sum())
    return tuple(tag for tag, b in zip(scr.tags, bound.tolist())
                 if not b > limit)


def sample_constants(tag, rng: np.random.Generator, real: bool = False):
    """Generic constants with magnitude in [0.5, 2], away from zero."""
    fam = descriptor(tag)
    out = {}
    for name in fam.constants:
        mag = rng.uniform(0.5, 2.0)
        if real:
            out[name] = complex(mag * rng.choice([-1.0, 1.0]))
        else:
            out[name] = mag * np.exp(2j * np.pi * rng.uniform())
    return out


def sample_instance(tag, rng: np.random.Generator, constants=None,
                    real: bool = False, size=None) -> FamilyInstance:
    """Random family member; base components uniform over [-1, 1]^2.

    With a size, a stack of members: every base vector, and every constant
    drawn here, gains the leading axes ``size``.  All draws come from one
    ``rng`` call laid out so that the stream is the one the same number of
    calls without a size would consume, value for value.  Real constants
    are the exception: their signs come from ``rng.choice``, which no
    uniform draw reproduces, so a stack of real members needs its
    constants given.
    """
    fam = descriptor(tag)
    shape = _shape(size)
    if constants is None and real:
        if shape and fam.constants:
            raise ValueError("a stack of real members needs its constants")
        constants = sample_constants(tag, rng, real)
    width = _DRAWS[real] * len(fam.bases)
    if constants is None:
        # per member: magnitude and phase of each constant, then the bases
        u = rng.random(shape + (2 * len(fam.constants) + width,))
        mag = 0.5 + 1.5 * u[..., 0:-width:2]
        phase = u[..., 1:-width:2]
        constants = dict(zip(fam.constants, np.moveaxis(
            mag * np.exp(2j * np.pi * phase), -1, 0)))
        x = -1 + 2 * u[..., -width:]
    else:
        x = rng.uniform(-1, 1, shape + (width,))
    cvs = _cvec4_from_draws(x.reshape(shape + (len(fam.bases), -1)), real)
    base = dict(zip(fam.bases, np.moveaxis(cvs, -2, 0)))
    return FamilyInstance(tag=fam.tag, constants=dict(constants), base=base)


def instance_params(inst: FamilyInstance) -> ParamSet:
    """Parameter set of a family instance."""
    return construct(inst.tag, inst.constants, inst.base)


def rank1_restrict(inst: FamilyInstance) -> FamilyInstance:
    """Zero the determinant of every base block of a rank-two family member.

    Each base scalar part is replaced by the principal square root of
    v1**2 + v2**2 + v3**2, so det(c0*I + v.sigma) = 0.  Bases already
    satisfying det = 0 (the all-zero base included) are left unchanged.

    For families whose four blocks are scalar multiples of a single base
    block this collapses the assembled matrix to rank <= 1.  For the other
    rank-two families the assembled rank stays 2 on generic bases: their
    displays combine two blocks that are not proportional, and zeroing base
    determinants cannot align them.  The verification harness records which
    families collapse and which do not.
    """
    fam = descriptor(inst.tag)
    if fam.generic_rank != 2:
        raise ValueError(
            f"{fam.tag} has generic rank {fam.generic_rank}; the determinant "
            "restriction is defined for the rank-two families"
        )
    base = {}
    for name, cv in inst.base.items():
        # a stack of base vectors (..., 4): each is restricted on its own
        cv = np.array(cv, dtype=complex)
        vv = (cv[..., 1:] ** 2).sum(-1)
        scale2 = np.maximum(_sq(cv).sum(-1), TOL_FLOOR)
        hit = np.abs(cv[..., 0] ** 2 - vv) > TOL_FLOOR * scale2
        cv[..., 0] = np.where(hit, np.sqrt(vv), cv[..., 0])
        base[name] = cv
    return FamilyInstance(tag=inst.tag, constants=dict(inst.constants), base=base)


def closure_check(tag, constants=None, samples: int = 100, seed: int = 0,
                  tol: float = 1e-9, real: bool = False) -> ClosureReport:
    """Compose random member pairs and assert every product stays a member
    with the same constants.

    Constants are fixed for the whole run (sampled from the seed when not
    given).  Raises ClosureViolation with the offending pair when a product
    fails membership, or when a constant recovered from a product drifts
    from the input constants by more than the tolerance; otherwise reports
    the worst membership residual, the constants recovered from the first
    product and the largest constant drift seen.  The pairs are drawn,
    built and composed as one stack, in the order of a pair-by-pair loop,
    and the products are tested one by one in that order.
    """
    fam = descriptor(tag)
    rng = np.random.default_rng(seed)
    if constants is None:
        constants = sample_constants(tag, rng, real)
    pairs = sample_instance(tag, rng, constants, real, size=(samples, 2))
    members = instance_params(pairs)
    products = compose(members[:, 0], members[:, 1])
    worst = 0.0
    drift = 0.0
    recovered = None

    def pair(i):
        return tuple(FamilyInstance(fam.tag, dict(constants),
                                    {v: cv[i, side] for v, cv
                                     in pairs.base.items()})
                     for side in (0, 1))

    for i, product in enumerate(products):
        mb = membership(tag, ParamSet._own(product), tol)
        if not mb.member:
            raise ClosureViolation(fam.tag, *pair(i), mb.residual)
        worst = max(worst, mb.residual)
        if recovered is None:
            recovered = dict(mb.constants)
        for name, given in constants.items():
            got = mb.constants.get(name)
            if got is not None:
                drift = max(drift, abs(got - given))
                if abs(got - given) > tol * max(abs(given), 1.0):
                    raise ClosureViolation(
                        fam.tag, *pair(i), abs(got - given),
                        reason=f"constant {name} drifted under composition",
                    )
    return ClosureReport(
        tag=fam.tag,
        constants=dict(constants),
        samples=samples,
        worst_residual=worst,
        recovered=recovered or {},
        max_constant_drift=drift,
    )


def rank_profile(tag, seed: int = 0, instances: int = 20) -> int:
    """Largest numeric rank over random instances with generic constants."""
    rng = np.random.default_rng(seed)
    inst = sample_instance(tag, rng, size=instances)
    return int(numeric_rank(assemble(instance_params(inst))).max())

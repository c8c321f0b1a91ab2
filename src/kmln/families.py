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
solved for c and 1/c jointly over those slots, by a closed-form
two-column least squares.  Any other c is read by
least squares: the target vectors are walked in block order k, n, l, m
(the layout [[K, N], [L, M]]); in each, the slots whose terms all carry
exactly c form one direct candidate (target ~ c*w) and those whose terms
all carry exactly 1/c one inverted candidate (target ~ w/c).  Route r of
each kind stacks the r-th candidate over each set of source vectors, so
candidates over distinct sources are read together and a later one over
the same sources is a fallback; direct routes come first, and the first
route whose sources do not vanish decides.

Membership is one kernel: the rules are compiled into linear forms of
the (16,) coordinates, and one pass over an (N, 16) stack reads every
constant and takes every rule residual for every row and family.  Each
rule slot is one form y, the target less its known terms, less one
column per set of constants its other terms carry, times the product of
those constants: A*k - A*m is the one column k - m, so terms that cancel
are subtracted before any constant multiplies them.  membership(),
classify() and closure_check() all call the kernel.  It divides each row
by the power of two of its largest part first, so a row gets the same
bits in any stack and at any power-of-two scale.  For classify(), which
reports members only, the pass first bounds every family's residual from
below from the same forms, each column taken as a free scalar for its
slot alone; a matrix the bound rules out of every family is read no
further.

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


# --- the membership kernel ---------------------------------------------------

# None, in the kernel's tables
_NONE = complex(math.nan, math.nan)
# The residual bound rules a family out only where it exceeds 2*tol plus
# this slack, both relative to the parameter norm; the slack absorbs the
# rounding of the bound and of the residual.
_SLACK = 1e-12
# The two-column bound |det[u, v, y]|^2 / |u x v|^2 divides by at least
# _PARALLEL |u|^2 |v|^2, which only lowers it: det rounds by about
# 3.5 eps |y| |u| |v|, so the bound's rounding stays below 1e-13 of the
# parameter norm, well inside the slack, even for nearly parallel columns.
_PARALLEL = 1e-4
# Squared norms at most this, on a row scaled to parts below 1, may carry
# subnormal rounding; a bound divides by _TINY instead, which only lowers it.
_TINY = 1e-280
# Lanes rotated forward and back: lane i of a x b is
# a[_NEXT[i]] b[_PREV[i]] - a[_PREV[i]] b[_NEXT[i]].
_NEXT, _PREV = (1, 2, 0), (2, 0, 1)


class _Route(NamedTuple):
    """A least-squares read along lanes, each (w terms, target terms), a
    term (known, component): c ~ target.w / w.w, or the inverse of that
    when ``inverted``.  Families and constants that need the same route
    share it."""

    inverted: bool
    lanes: tuple


class _Plan(NamedTuple):
    """Some families' rules compiled into gathers (see _compile)."""

    catalog: tuple            # the FAMILIES entries compiled from
    names: tuple              # per family: (constant names, first column)
    table: np.ndarray         # (1, columns): None per constant, then 1
    forms: tuple              # (at, coeff): the distinct linear forms
    reads: np.ndarray         # (2, lanes): the forms w and target per lane
    starts: np.ndarray        # each route's first lane
    inverted: int             # the first route that reads 1/c
    tried: np.ndarray         # (tries, columns): each column's routes
    split_column: np.ndarray  # per split solve
    split_routes: np.ndarray  # (3, splits): its routes u;v, u;y and v;y
    split_forms: np.ndarray   # (2, splits, 2, 4): the forms w and target
                              # of the lanes of u;v and u;y
    bound: np.ndarray         # the forms the bound reads, in blocks
    sizes: tuple              # the bound's plain lanes, one- and two-
                              # column slots
    bounded: np.ndarray       # (families, items): each family's bound items
    factors: np.ndarray       # (width, multipliers): table columns
    divides: np.ndarray       # (width, multipliers)
    y: np.ndarray             # (lanes,): the form y of each rule lane
    cols: np.ndarray          # (columns, lanes): the forms of its columns
    mults: np.ndarray         # (columns, lanes): and their multipliers
    slots: np.ndarray         # each rule slot's first lane
    families: np.ndarray      # each family's first rule slot


def _lanes(slot, *rows):
    """Each lane of a slot as the given rows of terms (known, source
    slot), each term turned into (known, component)."""
    return tuple(tuple(tuple((k, _SLOTS[s].start + i) for k, s in terms)
                       for terms in rows)
                 for i in range(_SLOTS[slot].stop - _SLOTS[slot].start))


def _padded(rows, fill):
    """Lists of ints as one array, each padded to the longest."""
    size = max(map(len, rows), default=0) or 1
    return np.array([[*r] + [fill] * (size - len(r)) for r in rows],
                    dtype=int).reshape(len(rows), size)


def _compile(catalog, tags) -> _Plan:
    """The rules of the families ``tags`` compiled into gathers.

    Every linear form of the component array the kernel needs is gathered
    once: form j sums coeff[:, j] * x[at[:, j]], its padding terms reading
    component 0 with coefficient 0.  Table columns hold every family's
    constants, then the literal 1.

    Reads: the routes that read each constant lie along one axis of
    lanes, direct routes first, and a route's dots are one sum over its
    lanes.  A split solve (target = c*u + c'*v) has three routes that read
    nothing: u;v, u;y and v;y, y the target less the base.

    Rules: each rule slot's lanes read its target y less its known terms,
    and one column per set of constants its other terms carry (A*k - A*m
    is one column k - m); the column's multiplier is the product of those
    constants, each a table column that multiplies or divides (``factors``,
    ``divides``).  Multiplier 0 is the empty product, which pads.

    Bound: reads the same forms.  ``bound`` lists, in order, the lanes of
    the slots without a column; for the vector slots with one column
    (pairs y, u) and then those with two (pairs u, v), the first member of
    each pair with its lanes rotated forward, then back, and the second
    member likewise, each block lane-major (3, pairs); then y of the
    two-column slots, lane-major.  Other slots bound nothing.
    """
    forms = {(): 0}

    def form(terms):
        return forms.setdefault(tuple(terms), len(forms))

    fams = [FAMILIES[tag] for tag in tags]
    empty = _Route(False, (((), ()),))  # one zero lane, which never decides
    routes = {empty: None}  # an ordered set

    def route(inverted, lanes):
        r = _Route(inverted, tuple(lanes))
        routes[r] = None
        return r

    names, column, tried, splits = [], {}, [], []
    plain, ones, twos = [], [], []
    mults, lanes, slots, families = {(): 0}, [], [], []
    for f, fam in enumerate(fams):
        names.append((fam.constants, len(column)))
        for c, got in fam.routes.items():
            column[f, c] = len(column)
            tried.append([])
            for power, pieces in got:
                if power:
                    tried[-1].append(route(power < 0, sum(
                        (_lanes(t, ts, [(1, t)]) for t, ts in pieces), ())))
                    continue
                u, v, y = zip(*sum((_lanes(t, [d], [i], [(1, t), (-k, b)])
                                    for t, (k, b), d, i in pieces), ()))
                if len(u) > 4:
                    raise ValueError("a split solve reads at most 4 lanes")
                splits.append((column[f, c], *(route(False, zip(p, q))
                               for p, q in ((u, v), (u, y), (v, y)))))
        families.append(len(slots))
        for slot, terms in fam.parsed.items():
            cols = {}
            for k, sig, src in terms:
                cols.setdefault(sig, []).append((k, src))
            y = [(1, slot)] + [(-k, src) for k, src in cols.pop((), [])]
            rows = [[form(t) for t in row]
                    for row in zip(*_lanes(slot, y, *cols.values()))]
            ids = [mults.setdefault(tuple((column[f, name], power)
                                          for name, power in sig), len(mults))
                   for sig in cols]
            slots.append(len(lanes))
            lanes += [(y, list(zip(ws, ids))) for y, *ws in zip(*rows)]
            if not cols:
                plain += [(f, lane) for lane in rows[0]]
            elif len(rows[0]) == 3 and len(cols) <= 2:
                (twos if len(cols) == 2 else ones).append((f, *rows))

    order = sorted(routes, key=lambda r: r.inverted)
    place = {r: k for k, r in enumerate(order)}
    reads, starts = [], []
    for r in order:
        starts.append(len(reads))
        reads += [tuple(map(form, lane)) for lane in r.lanes]

    def four(r):
        return [tuple(map(form, lane)) for lane in r.lanes] \
            + [(0, 0)] * (4 - len(r.lanes))

    pairs = [(y, u) for _, y, u in ones] + [(u, v) for _, _, u, v in twos]
    bound = [lane for _, lane in plain]
    for side in (0, 1):
        for turn in (_NEXT, _PREV):
            bound += [pair[side][turn[i]] for i in range(3) for pair in pairs]
    bound += [y[i] for i in range(3) for _, y, _, _ in twos] + [0]
    item = [f for f, *_ in plain + ones + twos]

    width = max(map(len, mults)) or 1
    factors = np.array([[*key] + [(len(column), 1)] * (width - len(key))
                        for key in mults], dtype=int).reshape(-1, width, 2).T
    size = max(len(cs) for _, cs in lanes) or 1
    cols = np.array([cs + [(0, 0)] * (size - len(cs)) for _, cs in lanes],
                    dtype=int).reshape(-1, size, 2).T
    size = max(map(len, forms)) or 1
    terms = [t + ((0, 0),) * (size - len(t)) for t in forms]
    plan = _Plan(
        catalog=catalog, names=tuple(names),
        table=np.array([[_NONE] * len(column) + [1]]),
        forms=(np.array([[c for _, c in t] for t in terms], dtype=int).T,
               np.array([[k for k, _ in t] for t in terms], dtype=complex).T),
        reads=np.array(reads, dtype=int).T.copy(),
        starts=np.array(starts, dtype=int),
        inverted=sum(not r.inverted for r in order),
        tried=_padded([[place[r] for r in rs] for rs in tried] + [[]],
                      place[empty]).T.copy(),
        split_column=np.array([c for c, *_ in splits], dtype=int),
        split_routes=np.array([[place[r] for r in rs] for _, *rs in splits],
                              dtype=int).reshape(-1, 3).T.copy(),
        split_forms=np.array([[four(r) for r in rs[:2]] for _, *rs in splits],
                             dtype=int).reshape(-1, 2, 4, 2).transpose(
                                 3, 0, 1, 2).copy(),
        bound=np.array(bound, dtype=int),
        sizes=(len(plain), len(ones), len(twos)),
        bounded=_padded([[e for e, g in enumerate(item) if g == f]
                         for f in range(len(fams))], len(item)),
        factors=factors[0].copy(), divides=factors[1] < 0,
        y=np.array([y for y, _ in lanes], dtype=int),
        cols=cols[0].copy(), mults=cols[1].copy(),
        slots=np.array(slots, dtype=int),
        families=np.array(families, dtype=int))
    for arr in (*plan, *plan.forms):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return plan


# compiled per tuple of tags on first use, and again whenever a FAMILIES
# entry is replaced
_plans = {}


def _plan(tags) -> _Plan:
    catalog = tuple(FAMILIES.values())
    plan = _plans.get(tags)
    if plan is None or plan.catalog != catalog:
        plan = _plans[tags] = _compile(catalog, tags)
    return plan


def _inverse(z):
    """1/z, NaN where |z| is too small to invert."""
    tiny = np.abs(z) <= TOL_FLOOR
    return np.where(tiny, _NONE, 1 / np.where(tiny, 1, z))


def _abs2(z):
    return (z * z.conj()).real


def _bound(plan, lin):
    """A lower bound on each family's squared rule residual on each row,
    from the forms ``bound`` of a row: each coefficient that holds a
    constant becomes a free complex scalar for its slot alone, so the
    residual at any constants, the ones the kernel reads included, is at
    least the sum over the slots of their least-squares residuals over
    those scalars.  Scalar slots with a column and slots with more than
    two add nothing."""
    n = len(lin)
    p, k1, k2 = plan.sizes
    r1 = p + 12 * (k1 + k2)
    lsq = _abs2(lin)
    blocks = lin[:, p:r1].reshape(n, 4, 3, -1)
    norms = lsq[:, p:r1].reshape(n, 4, 3, -1).sum(2)
    cross = blocks[:, 0] * blocks[:, 3] - blocks[:, 1] * blocks[:, 2]
    cc = _abs2(cross).sum(1)
    # one column u: min over c of |y - c u|^2 = |y x u|^2 / |u|^2 (the
    # Lagrange identity, free of cancellation)
    one = cc[:, :k1] / np.maximum(norms[:, 2, :k1], _TINY)
    # two columns u, v: the distance from y to span(u, v) is
    # |det[u, v, y]| / |u x v| (see _PARALLEL)
    det = (lin[:, r1:-1].reshape(n, 3, -1) * cross[:, :, k1:]).sum(1)
    two = _abs2(det) / (np.maximum(cc[:, k1:], _PARALLEL * norms[:, 0, k1:]
                                * norms[:, 2, k1:]) + _TINY)
    # the last form of ``bound`` is the zero form: it pads ``bounded``
    items = np.concatenate([lsq[:, :p], one, two, lsq[:, -1:]], 1)
    return items.take(plan.bounded, axis=1).sum(2)


def _split_reads(plan, den, num, along, ok, rest):
    """Each split solve's constant on each row (NaN for None), from the
    coefficients ``along`` u of v and y and what ``rest`` of them: (c, c')
    by least squares, Gram-Schmidt, whose error grows with the condition
    of [u, v], not its square; where lstsq's cut-off deems [u, v] of rank
    one, the minimum-norm solution [u.y, v.y] / (|u|^2 + |v|^2).  c
    decides where u does not vanish and c is not tiny, then 1/c' where v
    does not vanish and c' is not tiny, then c where u does not vanish."""
    uv, uy, vy = plan.split_routes
    uu, vv = den[:, uv], den[:, vy]
    rvv, rvy = np.moveaxis(np.vecdot(rest[:, :, :1], rest), -1, 0)
    rvv, both = rvv.real, uu + vv
    full = np.sqrt(uu) * np.sqrt(rvv) > 4 * np.finfo(float).eps * both
    # a square below _TINY (a vector under 1e-140) divides by inf instead,
    # since it could overflow the quotient: then no quotient decides, or
    # the vector is negligible against one that does
    even = np.where(both > _TINY, both, np.inf)
    c2 = np.where(full, rvy / np.where(full & (rvv > _TINY), rvv, np.inf),
                  num[:, vy] / even)
    c1 = np.where(full, along[..., 1] - along[..., 0] * c2,
                  num[:, uy] / even)
    return np.where(ok[:, uv] & (np.abs(c1) > TOL_FLOOR), c1, np.where(
        ok[:, vy] & (np.abs(c2) > TOL_FLOOR), _inverse(c2),
        np.where(ok[:, uv], c1, _NONE)))


def _residuals(plan, forms, table, thr):
    """Each family's squared rule residual on each row: on each lane, y
    less every column times its multiplier, squared and summed over the
    family's lanes.  A multiplier is unknown where one of its constants is
    None or a divisor too small to invert; its column is left out, and
    the residual is inf where that column, times the multiplier's known
    part, does not vanish over its slot (c*(u - v) vanishes for every c
    when u == v)."""
    f = table.take(plan.factors, axis=1)
    unknown = np.isnan(f) | (plan.divides & (np.abs(f) <= TOL_FLOOR))
    f = np.where(unknown, 1, f)
    mult = (np.where(plan.divides, 1, f).prod(1)
            / np.where(plan.divides, f, 1).prod(1))
    unknown = unknown.any(1).take(plan.mults, axis=1)
    terms = mult.take(plan.mults, axis=1) * forms.take(plan.cols, axis=1)
    r = forms.take(plan.y, axis=1) - np.where(unknown, 0, terms).sum(1)
    # a slot's lanes, then a family's slots, are one segment each
    sq = np.add.reduceat(_abs2(r), plan.slots, axis=1)
    if unknown.any():
        pending = np.add.reduceat(np.where(unknown, _abs2(terms), 0),
                                  plan.slots, axis=2)
        sq[(np.sqrt(pending) > thr[:, None, None]).any(1)] = np.inf
    return np.add.reduceat(sq, plan.families, axis=1)


class _Memberships(NamedTuple):
    """Member flags and residuals (rows, families), and the constants."""

    member: np.ndarray
    residual: np.ndarray
    table: np.ndarray
    names: tuple

    def constants(self, row, families):
        """Row ``row``'s constants in each of the families, as dicts."""
        return [{name: None if c != c else c for name, c in zip(
            names, self.table[row, lo:lo + len(names)].tolist())}
                for names, lo in map(self.names.__getitem__, families)]


def _memberships(a, tags, tol, members_only=False) -> _Memberships:
    """membership() of each row of a (N, 16) component array in each family
    of ``tags``, in one pass.  Each row is first divided by the power of
    two of its largest part, which changes only exponents, so a row's bits
    depend neither on the stack it comes in nor on an exact power-of-two
    scale, and no square overflows.

    With ``members_only``, every family's residual is first bounded from
    below (_bound), and a stack that the bound rules out of every family
    (above 2*tol plus _SLACK) is read no further: no flag is set, every
    constant is None and each residual is the bound.
    """
    plan = _plan(tuple(tags))
    a = np.ascontiguousarray(a, dtype=complex).reshape(-1, 16).view(float)
    top = np.abs(a).max(-1, initial=0.0)
    x = np.ldexp(a, -np.frexp(top)[1][:, None]).view(complex)
    n = len(x)
    at, coeff = plan.forms
    # a sum over fewer than 8 slices adds them in order, from +0, whatever
    # the other axes
    forms = (coeff * x.take(at, axis=1)).sum(1)
    if members_only:
        # the parts of x are below 1, so its norm is below sqrt(32) and its
        # residual above sqrt(bound / 32)
        bound = _bound(plan, forms.take(plan.bound, axis=1))
        if (bound > 32 * (2 * tol + _SLACK) ** 2).all():
            return _Memberships(np.zeros(bound.shape, dtype=bool),
                                np.sqrt(bound / 32), plan.table.repeat(n, 0),
                                plan.names)
    scale = np.maximum(np.sqrt(_abs2(x).sum(1)), TOL_FLOOR)
    thr = _INDET_REL * scale

    # every route's dots, each one sum over its own lanes (np.add.reduceat
    # adds a segment the same way wherever it lies), and its scalar
    w, y = np.moveaxis(forms.take(plan.reads, axis=1), 1, 0)
    den = np.add.reduceat(_abs2(w), plan.starts, axis=1)
    num = np.add.reduceat(w.conj() * y, plan.starts, axis=1)
    ok = np.sqrt(den) > thr[:, None]
    val = num / np.where(ok, den, 1.0)

    table = plan.table.repeat(n, 0)
    if len(plan.split_column):
        # v and y less their u parts (see _split_reads on _TINY)
        uu = den[:, plan.split_routes[0], None]
        along = num[:, plan.split_routes[:2].T] / np.where(uu > _TINY, uu,
                                                           np.inf)
        lanes = forms.take(plan.split_forms, axis=1)
        rest = lanes[:, 1] - along[..., None] * lanes[:, 0]
        table[:, plan.split_column] = _split_reads(plan, den, num, along, ok,
                                                   rest)
    val[:, plan.inverted:] = _inverse(val[:, plan.inverted:])
    ok, val = ok.take(plan.tried, axis=1), val.take(plan.tried, axis=1)
    for i in range(len(plan.tried) - 1, -1, -1):
        table = np.where(ok[:, i], val[:, i], table)
    residual = np.sqrt(_residuals(plan, forms, table, thr)) / scale[:, None]
    return _Memberships(residual <= tol, residual, table, plan.names)


def membership(tag, p: ParamSet, tol: float = 1e-9) -> Membership:
    """Test whether p lies in the family, recovering its constants.

    Each constant is read off by least squares along the routes derived
    from the family's rules (Family.routes); the full rule residual,
    relative to the parameter norm, then decides membership.  Constants
    whose determining components vanish are reported as None
    (indeterminate).
    """
    fam = descriptor(tag)
    got = _memberships(p._array, (fam.tag,), tol)
    return Membership(fam.tag, bool(got.member[0, 0]),
                      got.constants(0, [0])[0], float(got.residual[0, 0]))


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
        scale2 = np.maximum(_abs2(cv).sum(-1), TOL_FLOOR)
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
    built, composed and tested for membership as one stack, in the order
    of a pair-by-pair loop, and the results are walked in that order: a
    violation names the first pair that loop would fail on.
    """
    fam = descriptor(tag)
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    if constants is None:
        constants = sample_constants(tag, rng, real)
    pairs = sample_instance(tag, rng, constants, real, size=(samples, 2))
    members = instance_params(pairs)
    products = compose(members[:, 0], members[:, 1])

    def pair(i):
        return tuple(FamilyInstance(fam.tag, dict(constants),
                                    {v: cv[i, side] for v, cv
                                     in pairs.base.items()})
                     for side in (0, 1))

    got = _memberships(products, (fam.tag,), tol)
    names, lo = got.names[0]
    given = np.array(list(constants.values()), dtype=complex)
    gap = np.abs(got.table[:, [lo + names.index(c) for c in constants]]
                 - given)
    drifted = gap > tol * np.maximum(np.abs(given), 1.0)
    bad = ~got.member[:, 0] | drifted.any(1)
    if bad.any():
        i = int(bad.argmax())
        if not got.member[i, 0]:
            raise ClosureViolation(fam.tag, *pair(i),
                                   float(got.residual[i, 0]))
        j = int(drifted[i].argmax())
        raise ClosureViolation(
            fam.tag, *pair(i), float(gap[i, j]),
            reason=f"constant {list(constants)[j]} drifted under composition")
    return ClosureReport(
        tag=fam.tag,
        constants=dict(constants),
        samples=samples,
        worst_residual=float(got.residual[:, 0].max()),
        recovered=got.constants(0, [0])[0],
        max_constant_drift=float(np.fmax.reduce(gap, axis=None, initial=0.0)),
    )


def rank_profile(tag, seed: int = 0, instances: int = 20) -> int:
    """Largest numeric rank over random instances with generic constants."""
    rng = np.random.default_rng(seed)
    inst = sample_instance(tag, rng, size=instances)
    return int(numeric_rank(assemble(instance_params(inst))).max())

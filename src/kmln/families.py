"""Catalog of degenerate matrix families closed under multiplication.

Each family ties some of the four parameter vectors (k, m, l, n) to a small
set of free base vectors through linear rules whose coefficients are built
from named constants.  A family descriptor records

* the free base vectors,
* the tie rules, slot by slot (a slot is either the scalar part ``x0`` or
  the 3-component vector part ``x`` of one parameter vector),
* how each constant is recovered from a parameter set (least squares over
  the components it relates),
* the rank label the catalog assigns to generic members (``claimed_rank``)
  next to the rank generic members actually have (``generic_rank``); the
  verification harness reports every mismatch between the two instead of
  hiding it.

Rule coefficients are written in a tiny expression form: products and
quotients of constant names and integer literals with an optional leading
minus, e.g. ``"A*D"``, ``"-1/A"``, ``"beta*A"``.

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
from typing import Mapping

import numpy as np

from kmln.core import (
    TOL_FLOOR,
    ParamSet,
    assemble,
    compose,
    det_block,
    numeric_rank,
    param_norm,
    random_cvec4,
    random_real_cvec4,
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
class Route:
    """One way to read a constant off a parameter set.

    Stacks ``target`` slots against source-term combinations and solves the
    single-unknown least-squares problem target ~ x * source.  The constant
    is x, or 1/x when ``invert`` is set.
    """

    pairs: tuple
    invert: bool = False


@dataclass(frozen=True)
class RatioEstimator:
    const: str
    routes: tuple


@dataclass(frozen=True)
class SplitEstimator:
    """Estimator for rules target = base + c*direct - (1/c)*inverse.

    Solves the two-column least-squares system for (c, 1/c) jointly and
    falls back to whichever column is non-degenerate.
    """

    const: str
    target: str
    base: str
    direct: str
    inverse: str


@dataclass(frozen=True)
class Family:
    """Descriptor of one catalog family."""

    tag: str
    bases: tuple
    constants: tuple = ()
    rules: Mapping[str, tuple] = field(default_factory=dict)
    estimators: tuple = ()
    claimed_rank: int = 2
    generic_rank: int = 2
    rank1_collapses: bool = False
    note: str = ""

    @functools.cached_property
    def inverted(self) -> frozenset:
        """Constants some rule divides by; they must stay away from zero."""
        return frozenset(
            name
            for terms in self.rules.values()
            for coeff, _ in terms
            for divides, name, literal in _parse_coeff(coeff)[1]
            if divides and literal is None
        )


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


def _coeff_value(expr, consts):
    """Value of a coefficient expression, or None if any constant involved
    is indeterminate (or a divisor is too small to invert)."""
    value, unknown = _coeff_parts(expr, consts)
    return None if unknown else value


# --- table-building helpers --------------------------------------------------


def _prop(*terms):
    """Whole-vector tie: same coefficients for the scalar and vector slots."""
    return {"scal": tuple((c, s + "0") for c, s in terms),
            "vec": tuple((c, s) for c, s in terms)}


def _split(scal, vec):
    """Tie with distinct scalar-slot and vector-slot terms."""
    return {"scal": tuple((c, s + "0") for c, s in scal),
            "vec": tuple((c, s) for c, s in vec)}


def _rules(bases, ties):
    rules = {}
    for v in _VECS:
        if v in bases:
            continue
        tie = ties.get(v)
        if tie is None:
            rules[v + "0"] = ()
            rules[v] = ()
        else:
            rules[v + "0"] = tie["scal"]
            rules[v] = tie["vec"]
    return rules


def _pairs(target, terms, level="both"):
    """Route pairs tying a whole target vector to source terms."""
    out = []
    if level in ("both", "scal"):
        out.append((target + "0", tuple((c, s + "0") for c, s in terms)))
    if level in ("both", "vec"):
        out.append((target, tuple((c, s) for c, s in terms)))
    return tuple(out)


def _ratio(const, target, terms, level="both"):
    return RatioEstimator(const, (Route(_pairs(target, terms, level)),))


def _ratio2(const, route1, route2):
    return RatioEstimator(const, (route1, route2))


def _fam(tag, bases, ties, estimators=(), constants=(),
         claimed_rank=2, generic_rank=2, rank1_collapses=False, note=""):
    return Family(
        tag=tag,
        bases=tuple(bases),
        constants=tuple(constants),
        rules=_rules(set(bases), ties),
        estimators=tuple(estimators),
        claimed_rank=claimed_rank,
        generic_rank=generic_rank,
        rank1_collapses=rank1_collapses,
        note=note,
    )


# --- the catalog -------------------------------------------------------------

_CATALOG = (
    # ----- one base vector: k ------------------------------------------------
    _fam("K-1", "k", {},
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="only the upper-left block is non-zero"),
    _fam("K-2", "k", {"m": _prop(("1", "k"))},
         claimed_rank=4, generic_rank=4,
         note="equal diagonal blocks, zero off-diagonal blocks"),
    _fam("K-3", "k", {"l": _prop(("D", "k"))},
         estimators=(_ratio("D", "l", (("1", "k"),)),), constants="D",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="lower-left block D*K"),
    _fam("K-4", "k", {"n": _prop(("A", "k"))},
         estimators=(_ratio("A", "n", (("1", "k"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper-right block A*K"),
    _fam("K-5", "k",
         {"n": _prop(("A", "k")), "l": _prop(("D", "k")),
          "m": _prop(("A*D", "k"))},
         estimators=(_ratio("A", "n", (("1", "k"),)),
                     _ratio("D", "l", (("1", "k"),))),
         constants=("A", "D"),
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to K"),
    _fam("K-6", "k",
         {"n": _prop(("A", "k")),
          "l": _split((("t", "k"),), (("-1/A", "k"),)),
          "m": _split((("A*t", "k"),), (("-1", "k"),))},
         estimators=(_ratio("A", "n", (("1", "k"),)),
                     _ratio("t", "l", (("1", "k"),), level="scal")),
         constants=("A", "t"),
         claimed_rank=2, generic_rank=2,
         note="mixed scalar/vector ties, lower row scaled by the upper"),
    _fam("K-7", "k",
         {"n": _split((("alpha", "k"),), (("A", "k"),)),
          "l": _prop(("-1/A", "k")),
          "m": _split((("-alpha/A", "k"),), (("-1", "k"),))},
         estimators=(_ratio2("A",
                             Route(_pairs("n", (("1", "k"),), "vec")),
                             Route(_pairs("l", (("-1", "k"),)),
                                   invert=True)),
                     _ratio("alpha", "n", (("1", "k"),), level="scal")),
         constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="lower row is -1/A times the upper row"),
    # ----- one base vector: m ------------------------------------------------
    _fam("M-1", "m", {},
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="only the lower-right block is non-zero"),
    _fam("M-2", "m", {"k": _prop(("1", "m"))},
         claimed_rank=4, generic_rank=4,
         note="equal diagonal blocks, zero off-diagonal blocks"),
    _fam("M-3", "m", {"l": _prop(("D", "m"))},
         estimators=(_ratio("D", "l", (("1", "m"),)),), constants="D",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="lower-left block D*M"),
    _fam("M-4", "m", {"n": _prop(("A", "m"))},
         estimators=(_ratio("A", "n", (("1", "m"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper-right block A*M"),
    _fam("M-5", "m",
         {"k": _split((("A*t", "m"),), (("-1", "m"),)),
          "n": _prop(("A", "m")),
          "l": _split((("t", "m"),), (("-1/A", "m"),))},
         estimators=(_ratio("A", "n", (("1", "m"),)),
                     _ratio("t", "l", (("1", "m"),), level="scal")),
         constants=("A", "t"),
         claimed_rank=2, generic_rank=2,
         note="mirror of K-6 with the roles of the diagonal blocks swapped"),
    _fam("M-6", "m",
         {"k": _split((("-alpha/A", "m"),), (("-1", "m"),)),
          "n": _split((("alpha", "m"),), (("A", "m"),)),
          "l": _prop(("-1/A", "m"))},
         estimators=(_ratio2("A",
                             Route(_pairs("n", (("1", "m"),), "vec")),
                             Route(_pairs("l", (("-1", "m"),)),
                                   invert=True)),
                     _ratio("alpha", "n", (("1", "m"),), level="scal")),
         constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="mirror of K-7; left column is -1/A times the right column"),
    _fam("M-7", "m",
         {"k": _prop(("A*D", "m")), "n": _prop(("A", "m")),
          "l": _prop(("D", "m"))},
         estimators=(_ratio("A", "n", (("1", "m"),)),
                     _ratio("D", "l", (("1", "m"),))),
         constants=("A", "D"),
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to M"),
    # ----- one base vector: n ------------------------------------------------
    _fam("N-1", "n", {"k": _prop(("A", "n"))},
         estimators=(_ratio("A", "k", (("1", "n"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="upper row (A*N, N), lower row zero"),
    _fam("N-2", "n",
         {"k": _prop(("A", "n")), "l": _prop(("A*A", "n")),
          "m": _prop(("A", "n"))},
         estimators=(_ratio("A", "k", (("1", "n"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to N"),
    _fam("N-3", "n",
         {"k": _split((("alpha", "n"),), (("A", "n"),)),
          "l": _split((("-alpha*A", "n"),), (("-A*A", "n"),)),
          "m": _prop(("-A", "n"))},
         estimators=(_ratio2("A",
                             Route(_pairs("k", (("1", "n"),), "vec")),
                             Route(_pairs("m", (("-1", "n"),)))),
                     _ratio("alpha", "k", (("1", "n"),), level="scal")),
         constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="lower row is -A times the upper row"),
    _fam("N-4", "n",
         {"k": _prop(("A", "n")),
          "l": _split((("beta*A", "n"),), (("-A*A", "n"),)),
          "m": _split((("beta", "n"),), (("-A", "n"),))},
         estimators=(_ratio("A", "k", (("1", "n"),)),
                     _ratio("beta", "m", (("1", "n"),), level="scal")),
         constants=("A", "beta"),
         claimed_rank=2, generic_rank=2,
         note="left column is A times the right column"),
    # ----- one base vector: l ------------------------------------------------
    _fam("L-1", "l", {"k": _prop(("A", "l"))},
         estimators=(_ratio("A", "k", (("1", "l"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="left column (A*L, L), right column zero"),
    _fam("L-2", "l",
         {"k": _prop(("A", "l")), "n": _prop(("A*A", "l")),
          "m": _prop(("A", "l"))},
         estimators=(_ratio("A", "k", (("1", "l"),)),), constants="A",
         claimed_rank=2, generic_rank=2, rank1_collapses=True,
         note="all four blocks proportional to L"),
    _fam("L-3", "l",
         {"k": _split((("alpha", "l"),), (("A", "l"),)),
          "n": _split((("-alpha*A", "l"),), (("-A*A", "l"),)),
          "m": _prop(("-A", "l"))},
         estimators=(_ratio2("A",
                             Route(_pairs("k", (("1", "l"),), "vec")),
                             Route(_pairs("m", (("-1", "l"),)))),
                     _ratio("alpha", "k", (("1", "l"),), level="scal")),
         constants=("A", "alpha"),
         claimed_rank=2, generic_rank=2,
         note="right column is -A times the left column"),
    _fam("L-4", "l",
         {"k": _prop(("A", "l")),
          "n": _split((("beta*A", "l"),), (("-A*A", "l"),)),
          "m": _split((("beta", "l"),), (("-A", "l"),))},
         estimators=(_ratio("A", "k", (("1", "l"),)),
                     _ratio("beta", "m", (("1", "l"),), level="scal")),
         constants=("A", "beta"),
         claimed_rank=2, generic_rank=2,
         note="upper row is A times the lower row"),
    # ----- two base vectors: k, m -------------------------------------------
    _fam("KM-1", ("k", "m"), {},
         claimed_rank=4, generic_rank=4,
         note="block diagonal with independent diagonal blocks"),
    _fam("KM-2", ("k", "m"),
         {"l": _prop(("D", "m"), ("-D", "k"))},
         estimators=(_ratio("D", "l", (("1", "m"), ("-1", "k"))),),
         constants="D",
         claimed_rank=2, generic_rank=4,
         note="block lower triangular, lower-left D*(M - K)"),
    _fam("KM-3", ("k", "m"),
         {"n": _prop(("B", "m")), "l": _prop(("1/B", "k"))},
         estimators=(_ratio2("B",
                             Route(_pairs("n", (("1", "m"),))),
                             Route(_pairs("l", (("1", "k"),)),
                                   invert=True)),),
         constants="B",
         claimed_rank=2, generic_rank=2,
         note="off-diagonal blocks B*M and K/B"),
    _fam("KM-4", ("k", "m"),
         {"n": _prop(("A", "k"), ("-A", "m"))},
         estimators=(_ratio("A", "n", (("1", "k"), ("-1", "m"))),),
         constants="A",
         claimed_rank=2, generic_rank=4,
         note="block upper triangular, upper-right A*(K - M)"),
    _fam("KM-5", ("k", "m"),
         {"n": _prop(("A", "k"), ("-A", "m")),
          "l": _prop(("C", "k"), ("-C", "m"))},
         estimators=(_ratio("A", "n", (("1", "k"), ("-1", "m"))),
                     _ratio("C", "l", (("1", "k"), ("-1", "m")))),
         constants=("A", "C"),
         claimed_rank=2, generic_rank=4,
         note="both off-diagonal blocks proportional to K - M"),
    # ----- two base vectors: l, n -------------------------------------------
    _fam("LN-1", ("l", "n"),
         {"k": _prop(("A", "l")), "m": _prop(("1/A", "n"))},
         estimators=(_ratio2("A",
                             Route(_pairs("k", (("1", "l"),))),
                             Route(_pairs("m", (("1", "n"),)),
                                   invert=True)),),
         constants="A",
         claimed_rank=2, generic_rank=2,
         note="diagonal blocks A*L and N/A"),
    _fam("LN-2", ("l", "n"),
         {"k": _prop(("B", "n")), "m": _prop(("1/B", "l"))},
         estimators=(_ratio2("B",
                             Route(_pairs("k", (("1", "n"),))),
                             Route(_pairs("m", (("1", "l"),)),
                                   invert=True)),),
         constants="B",
         claimed_rank=2, generic_rank=2,
         note="diagonal blocks B*N and L/B"),
    # ----- two base vectors: k, n -------------------------------------------
    _fam("KN-1", ("k", "n"),
         {"l": _prop(("A", "k")), "m": _prop(("A", "n"))},
         estimators=(RatioEstimator("A", (Route(
             _pairs("l", (("1", "k"),)) + _pairs("m", (("1", "n"),))),)),),
         constants="A",
         claimed_rank=4, generic_rank=2,
         note="lower block row is A times the upper block row"),
    _fam("KN-2", ("k", "n"), {"m": _prop(("1", "k"))},
         claimed_rank=2, generic_rank=4,
         note="block upper triangular with equal diagonal blocks"),
    # ----- two base vectors: m, l -------------------------------------------
    _fam("ML-1", ("m", "l"),
         {"k": _prop(("A", "l")), "n": _prop(("A", "m"))},
         estimators=(RatioEstimator("A", (Route(
             _pairs("k", (("1", "l"),)) + _pairs("n", (("1", "m"),))),)),),
         constants="A",
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
         {"m": _prop(("1", "k"), ("A", "n"), ("-1/A", "l"))},
         estimators=(SplitEstimator("A", target="m", base="k",
                                    direct="n", inverse="l"),),
         constants="A",
         claimed_rank=2, generic_rank=4,
         note="lower-right block fixed to K + A*N - L/A"),
    _fam("NLM-1", ("n", "l", "m"),
         {"k": _prop(("1", "m"), ("A", "l"), ("-1/A", "n"))},
         estimators=(SplitEstimator("A", target="k", base="m",
                                    direct="l", inverse="n"),),
         constants="A",
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


def construct(tag, constants=None, base=None) -> ParamSet:
    """Parameter set of the family member with the given constants and base.

    ``base`` maps each free base vector name to a CVec4.  Constants the tag
    does not use are rejected, missing ones raise MissingConstantError and
    constants the rules invert must be bounded away from zero.
    """
    fam = descriptor(tag)
    constants = {str(k): complex(v) for k, v in dict(constants or {}).items()}
    unknown = sorted(set(constants) - set(fam.constants))
    if unknown:
        raise ValueError(
            f"{fam.tag} takes constants {list(fam.constants)}, not {unknown}"
        )
    missing = sorted(set(fam.constants) - set(constants))
    if missing:
        raise MissingConstantError(f"{fam.tag} requires constant {missing[0]!r}")
    for name in sorted(fam.inverted):
        if abs(constants[name]) <= TOL_FLOOR:
            raise ZeroConstantError(
                f"{fam.tag} inverts constant {name!r}; zero is not allowed"
            )
    base = dict(base or {})
    if sorted(base) != sorted(fam.bases):
        raise ValueError(
            f"{fam.tag} needs base vectors {list(fam.bases)}, got {sorted(base)}"
        )

    arr = np.zeros(16, dtype=complex)
    for v in fam.bases:
        arr[_VEC_AT[v]] = np.asarray(base[v], dtype=complex).reshape(4)
    for slot, terms in fam.rules.items():
        acc = np.zeros_like(arr[_SLOTS[slot]])
        for coeff, src in terms:
            acc = acc + _coeff_value(coeff, constants) * arr[_SLOTS[src]]
        arr[_SLOTS[slot]] = acc
    return ParamSet(*arr.reshape(4, 4))


def _estimate_ratio(est: RatioEstimator, a, consts, thr):
    for route in est.routes:
        w_parts, y_parts, usable = [], [], True
        for target, terms in route.pairs:
            acc = np.zeros_like(a[_SLOTS[target]])
            for coeff, src in terms:
                val = _coeff_value(coeff, consts)
                if val is None:
                    usable = False
                    break
                acc = acc + val * a[_SLOTS[src]]
            if not usable:
                break
            w_parts.append(acc)
            y_parts.append(a[_SLOTS[target]])
        if not usable:
            continue
        w = np.concatenate(w_parts)
        y = np.concatenate(y_parts)
        denom = float(np.real(np.vdot(w, w)))
        if math.sqrt(denom) <= thr:
            continue
        x = complex(np.vdot(w, y) / denom)
        if route.invert:
            if abs(x) <= TOL_FLOOR:
                return None
            return 1 / x
        return x
    return None


def _estimate_split(est: SplitEstimator, a, thr):
    y = a[_VEC_AT[est.target]] - a[_VEC_AT[est.base]]
    u = a[_VEC_AT[est.direct]]
    v = -a[_VEC_AT[est.inverse]]
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

    Each constant is read off by least squares over the components that
    relate it; the full rule residual, relative to the parameter norm, then
    decides membership.  Constants whose determining components vanish are
    reported as None (indeterminate).
    """
    fam = descriptor(tag)
    a = p._array
    scale = max(param_norm(p), TOL_FLOOR)
    thr = _INDET_REL * scale
    consts = {}
    for est in fam.estimators:
        if isinstance(est, RatioEstimator):
            consts[est.const] = _estimate_ratio(est, a, consts, thr)
        else:
            consts[est.const] = _estimate_split(est, a, thr)

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
                    real: bool = False) -> FamilyInstance:
    """Random family member; base components uniform over [-1, 1]^2."""
    fam = descriptor(tag)
    if constants is None:
        constants = sample_constants(tag, rng, real)
    draw = random_real_cvec4 if real else random_cvec4
    base = {v: draw(rng) for v in fam.bases}
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
        cv = np.asarray(cv, dtype=complex).reshape(4).copy()
        scale2 = max(float(np.linalg.norm(cv)) ** 2, TOL_FLOOR)
        if abs(det_block(cv)) > TOL_FLOOR * scale2:
            cv[0] = np.sqrt(cv[1:] @ cv[1:])
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
    product and the largest constant drift seen.
    """
    fam = descriptor(tag)
    rng = np.random.default_rng(seed)
    if constants is None:
        constants = sample_constants(tag, rng, real)
    worst = 0.0
    drift = 0.0
    recovered = None
    for _ in range(samples):
        left = sample_instance(tag, rng, constants, real)
        right = sample_instance(tag, rng, constants, real)
        product = compose(instance_params(left), instance_params(right))
        mb = membership(tag, product, tol)
        if not mb.member:
            raise ClosureViolation(fam.tag, left, right, mb.residual)
        worst = max(worst, mb.residual)
        if recovered is None:
            recovered = dict(mb.constants)
        for name, given in constants.items():
            got = mb.constants.get(name)
            if got is not None:
                drift = max(drift, abs(got - given))
                if abs(got - given) > tol * max(abs(given), 1.0):
                    raise ClosureViolation(
                        fam.tag, left, right, abs(got - given),
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
    best = 0
    for _ in range(instances):
        inst = sample_instance(tag, rng)
        best = max(best, numeric_rank(assemble(instance_params(inst))))
    return best

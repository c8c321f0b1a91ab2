"""Classification of a 4x4 complex matrix against the degenerate catalog.

classify() reports everything at once: numeric rank, whether the matrix is
real, every family the matrix belongs to (with recovered constants and
residuals) and every rank-3 variant whose zero row/column pattern it shows.
A matrix can belong to several families at once; the zero matrix belongs to
all of them.  Member families are listed in catalog order: every member's
residual is within tol, and most are rounding noise, so an order by
residual would follow the last bits of the arithmetic.

Every family is tested in one pass of the compiled membership kernel
(families._memberships), which gives each member the constants and
residual membership() gives it, at any power-of-two scale of the
matrix.  The pass first bounds every family's residual from below; a
matrix that the bound rules out of every family, as it does a generic
one or a near miss, costs only that bound.

The matrix is first divided by the power of two of its largest real or
imaginary part, up or down, which changes only exponents: no norm or
product overflows, and every decision (rank, reality, families,
variants) is relative to the norm with no absolute floor, so none
depends on the scale of the input.  ``scale`` is still the Frobenius
norm of the matrix given, ``math.inf`` where that norm exceeds the float
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kmln.core import disassemble, numeric_rank
from kmln.families import FAMILY_TAGS, Membership, _memberships
from kmln.variants import matching_variants

__all__ = ["ClassReport", "classify"]


@dataclass(frozen=True)
class ClassReport:
    """Everything classify() determined about one matrix."""

    rank: int
    real: bool
    scale: float
    families: tuple
    variants: tuple

    @property
    def family_tags(self):
        return tuple(mb.tag for mb in self.families)


def classify(g, tol: float = 1e-9) -> ClassReport:
    """Classify a 4x4 complex matrix.

    tol is the relative tolerance shared by the rank decision, the reality
    test and the family/variant membership tests.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = np.ascontiguousarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    parts = g.view(float)
    top = float(np.abs(parts).max())
    if not math.isfinite(top):
        raise ValueError("matrix contains non-finite entries")

    # frexp gives exponent 0 for the zero matrix: it stays zero
    shift = math.frexp(top)[1]
    parts = np.ldexp(parts, -shift)
    g = parts.view(complex)
    norm = float(np.linalg.norm(g))
    try:
        scale = math.ldexp(norm, shift)
    except OverflowError:  # the true norm lies beyond the float range
        scale = math.inf
    p = disassemble(g)

    got = _memberships(p._array, FAMILY_TAGS, tol, members_only=True)
    found = got.member[0].nonzero()[0].tolist()
    memberships = map(Membership, map(FAMILY_TAGS.__getitem__, found),
                      [True] * len(found), got.constants(0, found),
                      got.residual[0, found].tolist())

    return ClassReport(
        rank=numeric_rank(g, tol),
        real=bool(np.abs(parts[:, 1::2]).max() <= tol * norm),
        scale=scale,
        families=tuple(memberships),
        variants=matching_variants(g, tol),
    )

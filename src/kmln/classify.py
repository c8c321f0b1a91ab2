"""Classification of a 4x4 complex matrix against the degenerate catalog.

classify() reports everything at once: numeric rank, whether the matrix is
real, every family the matrix belongs to (with recovered constants and
residuals) and every rank-3 variant whose zero row/column pattern it shows.
A matrix can belong to several families at once; the zero matrix belongs to
all of them.  Memberships are sorted by residual, with the catalog order
breaking ties, so the best explanation comes first.

Before any membership test, one batched pass (families.candidate_tags)
bounds every family's residual from below, and membership() runs only for
the families the bound does not exclude.  The bound treats each
coefficient that holds a constant as a free complex scalar for its rule
slot alone; the constants membership() estimates (an indeterminate one
counting as 0) are one choice of those scalars, so the residual it
computes can never be smaller than the bound.  A family is skipped only
when the bound exceeds 2*tol plus a 1e-12 slack, so every family the
report lists went through the same membership() call as before, with the
same constants and residual digits.  On generic input the bound excludes
all 39 families.

A matrix whose largest real or imaginary part is at least 1 is first
divided by that part's power of two, which changes only exponents, so no
norm or product overflows; ``scale`` is still the Frobenius norm of the
matrix given, ``math.inf`` where that norm exceeds the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kmln.core import TOL_FLOOR, disassemble, numeric_rank
from kmln.families import _TAG_ORDER, candidate_tags, membership
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

    # scaling up would move the thresholds that TOL_FLOOR bounds below
    shift = math.frexp(top)[1] if top >= 1 else 0
    if shift:
        g = np.ldexp(parts, -shift).view(complex)
    norm = float(np.linalg.norm(g))
    try:
        scale = math.ldexp(norm, shift)
    except OverflowError:  # the true norm lies beyond the float range
        scale = math.inf
    thr = max(tol * norm, TOL_FLOOR)
    p = disassemble(g)

    memberships = []
    for tag in candidate_tags(p, tol):
        mb = membership(tag, p, tol)
        if mb.member:
            memberships.append(mb)
    memberships.sort(key=lambda mb: (mb.residual, _TAG_ORDER[mb.tag]))

    return ClassReport(
        rank=numeric_rank(g, tol),
        real=bool(float(np.abs(g.imag).max()) <= thr),
        scale=scale,
        families=tuple(memberships),
        variants=matching_variants(g, tol),
    )

"""Classification of a 4x4 complex matrix against the degenerate catalog.

classify() reports everything at once: numeric rank, whether the matrix is
real, every family the matrix belongs to (with recovered constants and
residuals) and every rank-3 variant whose zero row/column pattern it shows.
A matrix can belong to several families at once; the zero matrix belongs to
all of them.  Memberships are sorted by residual, with the catalog order
breaking ties, so the best explanation comes first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kmln.core import TOL_FLOOR, disassemble, numeric_rank
from kmln.families import _TAG_ORDER, FAMILY_TAGS, Membership, membership
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
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g.view(float))):
        raise ValueError("matrix contains non-finite entries")

    scale = float(np.linalg.norm(g))
    thr = max(tol * scale, TOL_FLOOR)
    p = disassemble(g)

    memberships = []
    for tag in FAMILY_TAGS:
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

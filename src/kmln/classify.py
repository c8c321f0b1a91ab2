"""Classification of a 4x4 complex matrix against the degenerate catalog.

classify() reports everything at once: numeric rank, whether the matrix is
real, every family the matrix belongs to (with recovered constants and
residuals) and every rank-3 variant whose zero row/column pattern it shows.
A matrix can belong to several families at once; the zero matrix belongs to
all of them.  Memberships are sorted by residual, with the catalog order
breaking ties, so the best explanation comes first.

Every family is tested in one pass of the compiled membership kernel
(families._memberships), which gives each member the constants and
residual membership() gives it, at any power-of-two scale of the
matrix.  The pass first bounds every family's residual from below; a
matrix that the bound rules out of every family, as it does a generic
one, costs only that bound.

A matrix whose largest real or imaginary part is at least 1 is first
divided by that part's power of two, which changes only exponents, so no
norm or product overflows; ``scale`` is still the Frobenius norm of the
matrix given, ``math.inf`` where that norm exceeds the float range.  The
reality test alone also scales small matrices up, so ``real`` does not
depend on the scale of the input at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kmln.core import disassemble, numeric_rank
from kmln.families import _TAG_ORDER, FAMILY_TAGS, Membership, _memberships
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


def _is_real(parts, top, tol) -> bool:
    """Whether the imaginary parts are within tol times the norm, decided on
    the matrix scaled by the power of two of its largest part, up or down,
    so that no floor makes the answer depend on scale; the zero matrix is
    real."""
    unit = np.ldexp(parts, -math.frexp(top)[1])
    return bool(np.abs(unit[:, 1::2]).max() <= tol * np.linalg.norm(unit))


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
    p = disassemble(g)

    got = _memberships(p._array, FAMILY_TAGS, tol, members_only=True)
    memberships = []
    if got.member.any():
        found = got.member[0].nonzero()[0].tolist()
        memberships = sorted(
            map(Membership, map(FAMILY_TAGS.__getitem__, found),
                [True] * len(found), got.constants(0, found),
                got.residual[0, found].tolist()),
            key=lambda mb: (mb.residual, _TAG_ORDER[mb.tag]))

    return ClassReport(
        rank=numeric_rank(g, tol),
        real=_is_real(parts, top, tol),
        scale=scale,
        families=tuple(memberships),
        variants=matching_variants(g, tol),
    )

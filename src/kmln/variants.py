"""Rank-3 variants: matrices with one zero row and one zero column.

Variant (i, j) is the set of 4x4 matrices whose row i and column j vanish.
The set is closed under multiplication exactly (a zero row of the left
factor and a zero column of the right factor survive any product) and its
generic members have rank 3.

Each variant is also described by a table of seven linear constraints on
the sixteen parameter components, one table per (i, j).  The tables are
stored as data so they can be audited term by term; the test suite checks
each one against the zero-row/zero-column definition in both directions.

Constraint equations are sums sum(coeff * component) = 0 over components
named ``k0..k3, m0..m3, n0..n3, l0..l3``.
"""

from __future__ import annotations

import numpy as np

from kmln.core import (
    TOL_FLOOR,
    ParamSet,
    _as_components,
    _unit,
    assemble,
    disassemble,
    random_params,
    random_real_params,
)

__all__ = [
    "VARIANT_IDS",
    "variant_name",
    "parse_variant",
    "variant_constraints",
    "constraint_residual",
    "construct_variant",
    "variant_membership",
    "matching_variants",
    "sample_variant",
]

VARIANT_IDS = tuple((i, j) for i in range(4) for j in range(4))


def _z(comp):
    return ((1 + 0j, comp),)


def _e(a, sign, b):
    return ((1 + 0j, a), (complex(sign), b))


# Seven equations per variant: three on the vector hit by both the row and
# the column, two on each vector hit by only one of them.
_CONSTRAINTS = {
    (0, 0): (_z("k1"), _z("k2"), _e("k0", 1, "k3"),
             _e("n0", 1, "n3"), _e("n1", -1j, "n2"),
             _e("l0", 1, "l3"), _e("l1", 1j, "l2")),
    (0, 1): (_z("k0"), _z("k3"), _e("k1", -1j, "k2"),
             _e("n0", 1, "n3"), _e("n1", -1j, "n2"),
             _e("l0", -1, "l3"), _e("l1", -1j, "l2")),
    (0, 2): (_z("n1"), _z("n2"), _e("n0", 1, "n3"),
             _e("k0", 1, "k3"), _e("k1", -1j, "k2"),
             _e("m0", 1, "m3"), _e("m1", 1j, "m2")),
    (0, 3): (_z("n0"), _z("n3"), _e("n1", -1j, "n2"),
             _e("k0", 1, "k3"), _e("k1", -1j, "k2"),
             _e("m0", -1, "m3"), _e("m1", -1j, "m2")),
    (1, 0): (_z("k0"), _z("k3"), _e("k1", 1j, "k2"),
             _e("n0", -1, "n3"), _e("n1", 1j, "n2"),
             _e("l0", 1, "l3"), _e("l1", 1j, "l2")),
    (1, 1): (_z("k1"), _z("k2"), _e("k0", -1, "k3"),
             _e("n0", -1, "n3"), _e("n1", 1j, "n2"),
             _e("l0", -1, "l3"), _e("l1", -1j, "l2")),
    (1, 2): (_z("n0"), _z("n3"), _e("n1", 1j, "n2"),
             _e("k0", -1, "k3"), _e("k1", 1j, "k2"),
             _e("m0", 1, "m3"), _e("m1", 1j, "m2")),
    (1, 3): (_z("n1"), _z("n2"), _e("n0", -1, "n3"),
             _e("k0", -1, "k3"), _e("k1", 1j, "k2"),
             _e("m0", -1, "m3"), _e("m1", -1j, "m2")),
    (2, 0): (_z("l1"), _z("l2"), _e("l0", 1, "l3"),
             _e("m0", 1, "m3"), _e("m1", -1j, "m2"),
             _e("k0", 1, "k3"), _e("k1", 1j, "k2")),
    (2, 1): (_z("l0"), _z("l3"), _e("l1", -1j, "l2"),
             _e("m0", 1, "m3"), _e("m1", -1j, "m2"),
             _e("k0", -1, "k3"), _e("k1", -1j, "k2")),
    (2, 2): (_z("m1"), _z("m2"), _e("m0", 1, "m3"),
             _e("n0", 1, "n3"), _e("n1", 1j, "n2"),
             _e("l0", 1, "l3"), _e("l1", -1j, "l2")),
    (2, 3): (_z("m0"), _z("m3"), _e("m1", -1j, "m2"),
             _e("n0", -1, "n3"), _e("n1", -1j, "n2"),
             _e("l0", 1, "l3"), _e("l1", -1j, "l2")),
    (3, 0): (_z("l0"), _z("l3"), _e("l1", 1j, "l2"),
             _e("m0", -1, "m3"), _e("m1", 1j, "m2"),
             _e("k0", 1, "k3"), _e("k1", 1j, "k2")),
    (3, 1): (_z("l1"), _z("l2"), _e("l0", -1, "l3"),
             _e("m0", -1, "m3"), _e("m1", 1j, "m2"),
             _e("k0", -1, "k3"), _e("k1", -1j, "k2")),
    (3, 2): (_z("m0"), _z("m3"), _e("m1", 1j, "m2"),
             _e("n0", 1, "n3"), _e("n1", 1j, "n2"),
             _e("l0", -1, "l3"), _e("l1", 1j, "l2")),
    (3, 3): (_z("m1"), _z("m2"), _e("m0", -1, "m3"),
             _e("n0", -1, "n3"), _e("n1", -1j, "n2"),
             _e("l0", -1, "l3"), _e("l1", 1j, "l2")),
}


_OFFSET = {"k": 0, "m": 4, "l": 8, "n": 12}


def _compile(table) -> np.ndarray:
    # row r holds the coefficients of equation r over the 16 components,
    # in ParamSet order k, m, l, n
    rows = np.zeros((len(table), 16), dtype=complex)
    for row, equation in zip(rows, table):
        for coeff, comp in equation:
            row[_OFFSET[comp[0]] + int(comp[1])] += coeff
    rows.setflags(write=False)
    return rows


_TABLES = {vid: _compile(table) for vid, table in _CONSTRAINTS.items()}


def variant_name(vid) -> str:
    """Two-digit name of a variant id, e.g. (1, 3) -> '13'."""
    i, j = vid
    return f"{i}{j}"


def parse_variant(value):
    """Variant id from a (row, column) pair or a two-digit string."""
    if isinstance(value, str):
        text = value.strip()
        if len(text) == 2 and text.isdigit():
            vid = (int(text[0]), int(text[1]))
        else:
            vid = None
    else:
        try:
            i, j = value
            vid = (int(i), int(j))
        except (TypeError, ValueError):
            vid = None
    if vid not in _CONSTRAINTS:
        names = ", ".join(variant_name(v) for v in VARIANT_IDS)
        raise ValueError(f"unknown variant {value!r}; valid ids: {names}")
    return vid


def variant_constraints(vid):
    """The seven-equation constraint table of a variant."""
    return _CONSTRAINTS[parse_variant(vid)]


def constraint_residual(vid, p):
    """Relative residual of the constraint table on a parameter set.

    A (..., 16) component array gives the residuals of the stack.
    """
    table = _TABLES[parse_variant(vid)]
    a = _as_components(p, "constraint_residual: p")
    values = (table * a[..., None, :]).sum(-1)
    total = (values.real ** 2 + values.imag ** 2).sum(-1)
    out = np.sqrt(total) / np.maximum(np.linalg.norm(a, axis=-1), TOL_FLOOR)
    return float(out) if isinstance(p, ParamSet) else out


def construct_variant(vid, p):
    """Project a parameter set into a variant by zeroing row i and column j.

    A (..., 16) component array gives the projected (..., 16) stack.
    """
    i, j = parse_variant(vid)
    g = assemble(p)
    g[..., i, :] = 0
    g[..., :, j] = 0
    return disassemble(g)


def _vanishing_lines(g, tol):
    """Which rows and which columns of each matrix of a stack (..., 4, 4)
    vanish, as two boolean (..., 4) arrays.  Each matrix is divided by the
    power of two of its largest part (core._unit), and a line vanishes
    where its squared norm is at most tol**2 times the matrix's, with no
    absolute floor."""
    g = _unit(g)
    sq = g.real ** 2 + g.imag ** 2
    thr = tol * tol * sq.sum((-2, -1))[..., None]
    return sq.sum(-1) <= thr, sq.sum(-2) <= thr


def _lines_vanish(vid, g, tol):
    """variant_membership over a stack of matrices (..., 4, 4): a boolean
    array of shape (...)."""
    i, j = vid
    rows, cols = _vanishing_lines(g, tol)
    return rows[..., i] & cols[..., j]


def variant_membership(vid, g, tol: float = 1e-9) -> bool:
    """Whether row i and column j of the matrix vanish (relative tolerance)."""
    vid = parse_variant(vid)
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    return bool(_lines_vanish(vid, g, tol))


def matching_variants(g, tol: float = 1e-9):
    """All variant ids the matrix belongs to, in row-major order: the ids
    variant_membership accepts, from one test of its rows and columns."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    rows, cols = (m.tolist() for m in _vanishing_lines(g, tol))
    return tuple((i, j) for i, j in VARIANT_IDS if rows[i] and cols[j])


def sample_variant(vid, rng: np.random.Generator, real: bool = False,
                   size=None):
    """Random variant member: a random parameter set projected into it.

    With a size, a (*size, 16) component array of members drawn as
    random_params draws a stack.
    """
    draw = random_real_params if real else random_params
    return construct_variant(vid, draw(rng, size))

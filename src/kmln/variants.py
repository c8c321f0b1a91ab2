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

import math

import numpy as np

from kmln.core import TOL_FLOOR, ParamSet, assemble, disassemble, param_norm

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


def constraint_residual(vid, p: ParamSet) -> float:
    """Relative residual of the constraint table on a parameter set."""
    values = (_TABLES[parse_variant(vid)] * p.components()).sum(-1)
    total = float((values.real ** 2 + values.imag ** 2).sum())
    return math.sqrt(total) / max(param_norm(p), TOL_FLOOR)


def construct_variant(vid, p: ParamSet) -> ParamSet:
    """Project a parameter set into a variant by zeroing row i and column j."""
    i, j = parse_variant(vid)
    g = assemble(p)
    g[i, :] = 0
    g[:, j] = 0
    return disassemble(g)


def variant_membership(vid, g, tol: float = 1e-9) -> bool:
    """Whether row i and column j of the matrix vanish (relative tolerance)."""
    i, j = parse_variant(vid)
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    thr = max(tol * float(np.linalg.norm(g)), TOL_FLOOR)
    row = float(np.linalg.norm(g[i, :]))
    col = float(np.linalg.norm(g[:, j]))
    return row <= thr and col <= thr


def matching_variants(g, tol: float = 1e-9):
    """All variant ids the matrix belongs to, in row-major order.

    The test of variant_membership for every id at once: the threshold and
    the squared norms of the rows and columns are computed one time each.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    thr = max(tol * float(np.linalg.norm(g)), TOL_FLOOR)
    sq = g.real ** 2 + g.imag ** 2
    row = (sq.sum(1) <= thr * thr).tolist()
    col = (sq.sum(0) <= thr * thr).tolist()
    return tuple((i, j) for i, j in VARIANT_IDS if row[i] and col[j])


def sample_variant(vid, rng: np.random.Generator, real: bool = False) -> ParamSet:
    """Random variant member: a random parameter set projected into it."""
    from kmln.core import random_params, random_real_params

    p = random_real_params(rng) if real else random_params(rng)
    return construct_variant(vid, p)

"""The per-call hot paths stay in plain elementwise numpy.

A dense product or a LAPACK call runs through BLAS, whose thread start-up
can make a loop of small calls take a thousand times longer in some fresh
processes.  These functions run once per call of the library, so none of
them may use one.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from kmln import core, families

HOT = (core.compose, core.assemble, core.disassemble,
       families._memberships, families._gram_schmidt,
       families._split_reads, families._residuals)
BANNED = {"dot", "vdot", "vecdot", "matmul", "einsum", "linalg"}


def blas_uses(fn):
    """Each `@` and each banned name in the source of fn, as text."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in BANNED:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__name__)
def test_no_blas_in_hot_path(fn):
    assert blas_uses(fn) == []


def test_scan_sees_products_and_linalg():
    def dense(a, b):
        np.linalg.norm(a)
        a @= b
        return a.dot(b) + (a @ b)

    assert sorted(blas_uses(dense)) == ["a @ b", "a @= b", "a.dot",
                                        "np.linalg"]

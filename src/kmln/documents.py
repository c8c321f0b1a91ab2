"""JSON documents carrying matrices, parameter sets and their provenance.

A document is a JSON object with keys

* ``params``  - object with ``k``, ``m``, ``l``, ``n``, each a list of four
  ``[re, im]`` pairs,
* ``matrix``  - 4x4 nested list of ``[re, im]`` pairs,
* ``meta``    - optional object; recognized keys are ``tag`` (family tag or
  two-digit variant id), ``constants`` (name -> ``[re, im]``) and ``seed``.

At least one of ``params``/``matrix`` must be present.  When both are,
they must describe the same matrix to within 1e-9 (relative).  When meta
names a tag, the payload must actually belong to that family or variant,
and constants listed in meta must match the ones recovered from the
payload; a document that lies about itself is rejected.

Every parse error names the JSON path it arose at, e.g.
``params.k[2]: expected a [re, im] pair``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from kmln.core import ParamSet, assemble, disassemble
from kmln.families import FAMILIES, membership
from kmln.variants import variant_membership

__all__ = ["Document", "DocumentError", "parse_document", "format_document"]

_CROSS_TOL = 1e-9
_CONST_TOL = 1e-6
_VEC_KEYS = ("k", "m", "l", "n")


class DocumentError(ValueError):
    """Malformed or self-inconsistent document; message names the location."""


@dataclass(frozen=True)
class Document:
    params: ParamSet
    matrix: np.ndarray
    meta: dict


def _pair(value, where) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in value)):
        raise DocumentError(f"{where}: expected a [re, im] pair")
    z = complex(float(value[0]), float(value[1]))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DocumentError(f"{where}: non-finite value")
    return z


def _c2pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _parse_params(obj) -> ParamSet:
    if not isinstance(obj, dict):
        raise DocumentError("params: expected an object")
    unknown = sorted(set(obj) - set(_VEC_KEYS))
    if unknown:
        raise DocumentError(f"params.{unknown[0]}: unknown key")
    vecs = {}
    for key in _VEC_KEYS:
        if key not in obj:
            raise DocumentError(f"params.{key}: missing")
        raw = obj[key]
        if not isinstance(raw, (list, tuple)) or len(raw) != 4:
            raise DocumentError(f"params.{key}: expected 4 [re, im] pairs")
        vecs[key] = np.array(
            [_pair(raw[idx], f"params.{key}[{idx}]") for idx in range(4)],
            dtype=complex,
        )
    return ParamSet(**vecs)


def _parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise DocumentError("matrix: expected 4 rows")
    g = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise DocumentError(f"matrix[{i}]: expected 4 [re, im] pairs")
        for j, entry in enumerate(row):
            g[i, j] = _pair(entry, f"matrix[{i}][{j}]")
    return g


def _check_meta(meta, params: ParamSet, g: np.ndarray):
    if not isinstance(meta, dict):
        raise DocumentError("meta: expected an object")
    tag = meta.get("tag")
    if tag is None:
        return
    if not isinstance(tag, str):
        raise DocumentError("meta.tag: expected a string")
    name = tag.strip()
    if len(name) == 2 and name.isdigit():
        vid = (int(name[0]), int(name[1]))
        if not variant_membership(vid, g, _CROSS_TOL):
            raise DocumentError(
                f"meta.tag: payload is not a member of variant {name}"
            )
        return
    key = name.upper()
    if key not in FAMILIES:
        raise DocumentError(f"meta.tag: unknown tag {tag!r}")
    mb = membership(key, params, _CROSS_TOL)
    if not mb.member:
        raise DocumentError(
            f"meta.tag: payload is not a member of family {key} "
            f"(residual {mb.residual:.3e})"
        )
    constants = meta.get("constants")
    if constants is None:
        return
    if not isinstance(constants, dict):
        raise DocumentError("meta.constants: expected an object")
    for cname in sorted(constants):
        if cname not in FAMILIES[key].constants:
            raise DocumentError(
                f"meta.constants.{cname}: {key} has no such constant"
            )
        given = _pair(constants[cname], f"meta.constants.{cname}")
        got = mb.constants.get(cname)
        if got is not None and abs(got - given) > _CONST_TOL * max(abs(given), 1.0):
            raise DocumentError(
                f"meta.constants.{cname}: document says {given}, "
                f"payload gives {got}"
            )


def parse_document(text: str) -> Document:
    """Parse and validate a document, cross-checking everything it claims."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document: expected a JSON object")
    unknown = sorted(set(obj) - {"params", "matrix", "meta"})
    if unknown:
        raise DocumentError(f"document.{unknown[0]}: unknown key")
    if "params" not in obj and "matrix" not in obj:
        raise DocumentError("document: needs at least one of params, matrix")

    params = _parse_params(obj["params"]) if "params" in obj else None
    matrix = _parse_matrix(obj["matrix"]) if "matrix" in obj else None
    if params is not None and matrix is not None:
        assembled = assemble(params)
        # divide by the largest real or imaginary part first, so that the
        # norms of matrices near the float limit cannot overflow
        s = max(float(np.abs(matrix.view(float)).max()),
                float(np.abs(assembled.view(float)).max()), 1.0)
        err = (float(np.linalg.norm(assembled / s - matrix / s))
               / max(float(np.linalg.norm(matrix / s)), 1 / s))
        if err > _CROSS_TOL:
            raise DocumentError(
                f"matrix: disagrees with params (relative error {err:.3e})"
            )
    if params is None:
        params = disassemble(matrix)
    if matrix is None:
        matrix = assemble(params)

    meta = obj.get("meta")
    if meta is not None:
        _check_meta(meta, params, matrix)

    matrix = matrix.copy()
    matrix.flags.writeable = False
    return Document(params=params, matrix=matrix, meta=meta)


def format_document(params: ParamSet = None, matrix=None, meta=None) -> str:
    """Serialize a document; complex numbers become [re, im] pairs."""
    if params is None and matrix is None:
        raise ValueError("needs at least one of params, matrix")
    doc = {}
    if params is not None:
        doc["params"] = {
            key: [_c2pair(z) for z in getattr(params, key)]
            for key in _VEC_KEYS
        }
    if matrix is not None:
        g = np.asarray(matrix, dtype=complex)
        if g.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
        doc["matrix"] = [[_c2pair(g[i, j]) for j in range(4)] for i in range(4)]
    if meta is not None:
        out = {}
        for key in sorted(meta):
            value = meta[key]
            if key == "constants":
                out[key] = {name: _c2pair(value[name]) for name in sorted(value)}
            elif isinstance(value, complex):
                out[key] = _c2pair(value)
            else:
                out[key] = value
        doc["meta"] = out
    return json.dumps(doc, indent=2) + "\n"

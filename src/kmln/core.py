"""Core algebra of the four-vector block parameterization of 4x4 complex matrices.

A 4x4 complex matrix G splits into four 2x2 blocks

    G = | K  N |
        | L  M |

and each block expands over the Pauli basis as c0*I + c1*sigma1 + c2*sigma2
+ c3*sigma3.  Collecting the coordinates of the four blocks gives four
complex 4-vectors (k, m, l, n) -- a parameter set.  A `ParamSet` stores
them as one read-only complex (16,) array in k, m, l, n order; its fields
are views into that array.  The map is linear and bijective: the matrix,
flattened row by row, is U times the component array for a fixed 16x16
basis U, and U Uᴴ = 2I exactly, so the inverse is Uᴴ/2 and needs no solve.
Both are compiled once, at import, from the Pauli matrices to two terms
per row, so `assemble` and `disassemble` are a gather, a product and a row
sum.  Matrix multiplication turns into an explicit bilinear law on
parameter sets (`compose`), built from the Pauli product rule

    (a0 + a.sigma)(b0 + b.sigma) = a0*b0 + a.b + (a0*b + b0*a + i a x b).sigma

applied to the block identities of the 2x2 block product.  The law is
compiled the same way to its 128 nonzero terms (8 per output component),
and `compose` evaluates it over (..., 16) arrays.  None of the three calls
a BLAS routine: the gather is as fast as a BLAS product of this size,
while a multi-threaded BLAS whose threads have gone idle can stall for
about a millisecond per call (seen with OpenBLAS on two CPUs and no thread
limit set).  A result beyond the floating-point range raises
AssembleOverflowError or ComposeOverflowError, with no numpy warning.

G is real when, within every parameter vector, the second vector component
is purely imaginary and the remaining three components are real.

Conventions: a CVec4 is a shape-(4,) complex ndarray [c0, c1, c2, c3] whose
tail is the Pauli vector part; blocks are (2, 2) and full matrices (4, 4)
complex ndarrays.  Parameter sets are immutable and every function here is
pure, so the module is safe to share across threads.

Stacks: `assemble`, `disassemble`, `compose` and `numeric_rank` also take
leading axes, a stack of parameter sets being a complex (..., 16) component
array and a stack of matrices a (..., 4, 4) array; one item is the case
with no leading axes, evaluated by the same code.  The random draws take a
``size`` and then fill all their samples from one ``rng.uniform`` call laid
out so that the stream is the one the same number of single draws would
consume, value for value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TOL_FLOOR",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "SIGMA",
    "ParamSet",
    "ComposeOverflowError",
    "AssembleOverflowError",
    "assemble",
    "disassemble",
    "compose",
    "det_block",
    "numeric_rank",
    "is_real_conditions",
    "param_norm",
    "identity_params",
    "zero_params",
    "random_params",
    "random_real_params",
]

# Absolute floor under every relative tolerance, so comparisons against
# exactly-zero operands stay meaningful.
TOL_FLOOR = 1e-14

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)

_I2 = np.eye(2, dtype=complex)

# Within a (4, 4) block of parameter vectors seen as (4, 8) floats: the
# real part of component 2 and the imaginary parts of components 0, 1, 3.
_OFF_REAL = np.array([1, 3, 4, 7])


def _as_cvec4(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (4,):
        raise ValueError(f"{name}: expected 4 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite component")
    return arr


class ComposeOverflowError(ValueError):
    """`compose` of finite operands gave a component beyond the float range."""


class AssembleOverflowError(ValueError):
    """`assemble` of finite components gave an entry beyond the float range."""


@dataclass(frozen=True)
class ParamSet:
    """The four parameter vectors (k, m, l, n) of a 4x4 complex matrix.

    k parameterizes the upper-left block, m the lower-right, n the
    upper-right and l the lower-left.  The fields are validated (shape (4,),
    finite) and copied once into a single read-only complex (16,) array,
    ordered k, m, l, n; each field is a read-only view into it.
    """

    k: np.ndarray
    m: np.ndarray
    l: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        self._bind(np.concatenate(
            [_as_cvec4(getattr(self, name), name) for name in "kmln"]
        ))

    @classmethod
    def _own(cls, arr: np.ndarray) -> ParamSet:
        """ParamSet taking over a finite complex (16,) array no other code holds.

        Skips the checks of the keyword constructor, which the caller
        guarantees, and copies only a view (a row of a stack), so the
        fields stay views of an array that owns its data.
        """
        self = object.__new__(cls)
        self._bind(arr if arr.base is None else arr.copy())
        return self

    def _bind(self, arr: np.ndarray):
        arr.setflags(write=False)
        # the class is frozen, so fill the instance dict directly
        self.__dict__.update(_array=arr, k=arr[0:4], m=arr[4:8],
                             l=arr[8:12], n=arr[12:16])

    def components(self) -> np.ndarray:
        """All 16 components as one new vector, ordered k, m, l, n."""
        return self._array.copy()

    def __eq__(self, other):
        if not isinstance(other, ParamSet):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self):
        return hash(self._array.tobytes())


# (block row, block column) of k, m, l, n in [[K, N], [L, M]]
_BLOCK_AT = ((0, 0), (1, 1), (1, 0), (0, 1))


def _compile_basis():
    """Gather form of the fixed 16x16 basis U and of its inverse Uᴴ/2.

    assemble(p).ravel() == U @ p._array.  Column 4*v + i of U puts the i-th
    Pauli basis matrix (I, sigma1, sigma2, sigma3) in the block of vector v.
    Every row of U and of Uᴴ/2 has two nonzeros; returns (cols, coeff), each
    (16, 2), for both: row o of the image is sum(coeff[o] * x[cols[o]]).
    """
    u = np.zeros((4, 4, 16), dtype=complex)
    for v, (r, c) in enumerate(_BLOCK_AT):
        for i, s in enumerate((_I2,) + SIGMA):
            u[2 * r:2 * r + 2, 2 * c:2 * c + 2, 4 * v + i] = s
    u = u.reshape(16, 16)
    out = []
    for m in (u, u.conj().T / 2):
        rows, cols = np.nonzero(m)
        out += [cols.reshape(16, 2), m[rows, cols].reshape(16, 2)]
    return out


_U_COLS, _U_COEFF, _UH_COLS, _UH_COEFF = _compile_basis()


def assemble(p) -> np.ndarray:
    """4x4 matrix [[K, N], [L, M]] built from the four parameter vectors.

    p is a ParamSet, or a component array of shape (..., 16) that gives a
    stack of matrices of shape (..., 4, 4).  Raises AssembleOverflowError
    when an entry of the matrix (a sum of two finite components) overflows
    the floating-point range.
    """
    a = _as_components(p, "assemble: p")
    with np.errstate(over="ignore", invalid="ignore"):
        g = (_U_COEFF * a.take(_U_COLS, -1)).sum(-1)
    g = g.reshape(a.shape[:-1] + (4, 4))
    if not np.isfinite(g).all():
        raise AssembleOverflowError(
            "assemble: the matrix overflows the floating-point range"
        )
    return g


def disassemble(g):
    """Parameter vectors of a 4x4 complex matrix; inverse of `assemble`.

    A stack of matrices, shape (..., 4, 4), gives a (..., 16) component
    array instead of a ParamSet.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite matrix entry")
    # each component is a half-sum of two finite entries, hence finite, and
    # the array is new: no copy and no second check needed
    flat = g.reshape(g.shape[:-2] + (16,))
    out = (_UH_COEFF * flat.take(_UH_COLS, -1)).sum(-1)
    return ParamSet._own(out) if g.ndim == 2 else out


def _compile_product_law():
    """The 128 nonzero terms of the bilinear law behind `compose`.

    Returns (left, right, coeff), sorted by output component with 8 terms
    per output: output component o of the product is
    sum(coeff * a[left] * b[right]) over the o-th run of 8 terms.
    """
    # pauli[o, i, j]: coefficient of a_i * b_j in component o of the
    # Pauli product (a0 + a.sigma)(b0 + b.sigma)
    pauli = np.zeros((4, 4, 4), dtype=complex)
    pauli[0, 0, 0] = 1
    for r in (1, 2, 3):
        pauli[0, r, r] = pauli[r, 0, r] = pauli[r, r, 0] = 1
        s, t = r % 3 + 1, (r + 1) % 3 + 1
        pauli[r, s, t], pauli[r, t, s] = 1j, -1j
    # vector index of the block at (block row, block column); block (r, c)
    # of a product collects left (r, s) times right (s, c), e.g.
    # K'' = K'K + N'L
    at = {rc: v for v, rc in enumerate(_BLOCK_AT)}
    law = np.zeros((16, 16, 16), dtype=complex)
    for (r, c), o in at.items():
        for s in (0, 1):
            i, j = at[r, s], at[s, c]
            law[4 * o:4 * o + 4, 4 * i:4 * i + 4, 4 * j:4 * j + 4] += pauli
    out, left, right = np.nonzero(law)
    return left, right, law[out, left, right]


_LAW_LEFT, _LAW_RIGHT, _LAW_COEFF = _compile_product_law()


def _as_components(x, what: str) -> np.ndarray:
    """The (16,) array of a ParamSet, or x checked as a (..., 16) stack."""
    if isinstance(x, ParamSet):
        return x._array
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] != 16:
        raise ValueError(f"{what} must be a ParamSet or an array of "
                         f"shape (..., 16), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite component")
    return arr


def compose(left, right):
    """Parameter set of the matrix product assemble(left) @ assemble(right).

    Evaluated entirely in parameter space by the compiled Pauli product law:
    each output vector collects two Pauli products, mirroring the block
    identities K'' = K'K + N'L, M'' = L'N + M'M, N'' = K'N + N'M and
    L'' = L'K + M'L with the left operand primed.

    Two ParamSets give a ParamSet.  Either operand may instead be a complex
    component array of shape (..., 16), ordered k, m, l, n; the leading axes
    broadcast and the result is a new array of components, so one call
    composes a whole stack of pairs.  Raises ComposeOverflowError when the
    product of finite operands overflows.
    """
    a = _as_components(left, "compose: left operand")
    b = _as_components(right, "compose: right operand")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _LAW_COEFF * a.take(_LAW_LEFT, -1) * b.take(_LAW_RIGHT, -1)
        out = terms.reshape(terms.shape[:-1] + (16, 8)).sum(-1)
    if not np.isfinite(out).all():
        raise ComposeOverflowError(
            "compose: the product overflows the floating-point range"
        )
    if isinstance(left, ParamSet) and isinstance(right, ParamSet):
        return ParamSet._own(out)
    return out


def det_block(cv) -> complex:
    """Determinant c0**2 - v.v of the block with coordinates cv."""
    cv = np.asarray(cv, dtype=complex)
    return complex(cv[0] ** 2 - cv[1:] @ cv[1:])


def _unit(g):
    """A stack of complex matrices (..., r, c), each divided by the power of
    two of its largest real or imaginary part, up or down: only exponents
    change, so no norm or SVD overflows, and a decision relative to the
    norm needs no absolute floor.  frexp gives exponent 0 for a zero or
    non-finite top: no scaling."""
    parts = np.ascontiguousarray(g, dtype=complex).view(float)
    top = np.abs(parts).max((-2, -1), keepdims=True, initial=0.0)
    return np.ldexp(parts, -np.frexp(top)[1]).view(complex)


def numeric_rank(g, tol: float = 1e-9):
    """Number of singular values above tol times the largest one.

    The zero matrix has rank 0.  `tol` must be positive and is relative,
    so the result is scale invariant.  The matrix is first divided by the
    power of two of its largest real or imaginary part, which changes only
    exponents, so the SVD cannot overflow near the floating-point limit.
    A stack of matrices (..., r, c) gives an integer array of shape (...)
    from one stacked SVD.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = _unit(g)
    s = np.linalg.svd(g, compute_uv=False)
    # s is non-negative, so an all-zero s counts nothing above tol * 0
    above = s > tol * s[..., :1]
    return int(np.count_nonzero(above)) if g.ndim == 2 else above.sum(-1)


def param_norm(p: ParamSet) -> float:
    """Euclidean norm over all 16 parameter components."""
    return float(np.linalg.norm(p._array))


def is_real_conditions(p, tol: float = 1e-9):
    """True when p assembles to a real matrix, up to a relative tolerance.

    The assembled matrix is real exactly when each parameter vector has a
    purely imaginary second vector component (index 2) and real remaining
    components.  The tolerance is relative to the parameter norm, so the
    answer does not depend on scale: each set is first divided by the power
    of two of its largest real or imaginary part, which changes only
    exponents, so the norm neither overflows nor underflows.  The zero set
    is real.  A (..., 16) component array gives a boolean array of shape
    (...).
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    parts = np.ascontiguousarray(
        _as_components(p, "is_real_conditions: p")).view(float)
    top = np.abs(parts).max(-1, keepdims=True, initial=0.0)
    # frexp gives exponent 0 for a zero top: the zero set stays zero
    a = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    thr = tol * np.linalg.norm(a, axis=-1)
    # per vector: the real part of component 2, the imaginary part of the rest
    off = np.abs(a.reshape(a.shape[:-1] + (4, 4)).view(float))[..., _OFF_REAL]
    ok = off.max((-2, -1)) <= thr
    return bool(ok) if isinstance(p, ParamSet) else ok


def identity_params() -> ParamSet:
    """Parameter set of the 4x4 identity matrix: k0 = m0 = 1, rest zero."""
    e = np.array([1, 0, 0, 0], dtype=complex)
    z = np.zeros(4, dtype=complex)
    return ParamSet(k=e, m=e, l=z, n=z)


def zero_params() -> ParamSet:
    """Parameter set of the zero matrix."""
    z = np.zeros(4, dtype=complex)
    return ParamSet(k=z, m=z, l=z, n=z)


# Uniform draws on [-1, 1] per CVec4: the real parts then the imaginary
# parts, or, for the reality pattern, four real parts then the imaginary
# part of component 2.
_DRAWS = {False: 8, True: 5}


def _cvec4_from_draws(x, real: bool = False) -> np.ndarray:
    """CVec4s, shape (..., 4), from uniform draws of shape (..., 8) or,
    with real, (..., 5), in the order the _DRAWS comment gives."""
    if real:
        cv = x[..., :4].astype(complex)
        cv[..., 2] = 1j * x[..., 4]
        return cv
    return x[..., :4] + 1j * x[..., 4:]


def _shape(size) -> tuple:
    return () if size is None else tuple(np.atleast_1d(size).tolist())


def _random_components(rng, size, real):
    shape = _shape(size)
    x = rng.uniform(-1, 1, shape + (4, _DRAWS[real]))
    arr = _cvec4_from_draws(x, real).reshape(shape + (16,))
    return ParamSet._own(arr) if size is None else arr


def random_params(rng: np.random.Generator, size=None):
    """Generic parameter set; components uniform over the complex square.

    With a size, a (*size, 16) component array holding the sets that as
    many calls without one would draw, in the same order.
    """
    return _random_components(rng, size, False)


def random_real_params(rng: np.random.Generator, size=None):
    """Parameter set of a random real matrix (reality pattern per vector).

    With a size, a (*size, 16) component array, drawn as random_params.
    """
    return _random_components(rng, size, True)

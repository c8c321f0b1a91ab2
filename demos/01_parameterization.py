"""Tour of the four-vector coordinates for 4x4 complex matrices.

A 4x4 complex matrix G is written as four 2x2 blocks, each a combination
c0*I + v.sigma of the identity and the Pauli matrices:

    G = [[K, N],
         [L, M]]

The four complex 4-vectors k, m, l, n (scalar part first, Pauli vector
after) coordinatize G exactly; `assemble` and `disassemble` convert back
and forth with no loss.
"""

import numpy as np

from kmln import ParamSet, assemble, disassemble, is_real_conditions
from kmln.core import SIGMA

rng = np.random.default_rng(0)

# Build a parameter set by hand: k drives the top-left block, m the
# bottom-right, n the top-right, l the bottom-left.
p = ParamSet(
    k=[1.0, 0.5, 0.0, 0.25],
    m=[2.0, 0.0, 0.0, 0.0],
    l=[0.0, 0.0, 0.0, 0.0],
    n=[0.0, 1.0, 0.0, 0.0],
)
g = assemble(p)
print("assembled matrix:")
print(np.array_str(g, precision=3, suppress_small=True))

top_left = assemble(p)[:2, :2]
print("\ntop-left block, k0*I + k1*sigma1 + k2*sigma2 + k3*sigma3:")
print(np.array_str(top_left, precision=3, suppress_small=True))
expansion = p.k[0] * np.eye(2) + sum(c * s for c, s in zip(p.k[1:], SIGMA))
print("equals the Pauli expansion of k:", np.allclose(top_left, expansion))

# The coordinates are recovered exactly.
q = disassemble(g)
print("\nround trip max error:", np.abs(p.components() - q.components()).max())

# Reality: G is a real matrix exactly when, in every vector, component 2
# is purely imaginary and components 0, 1, 3 are real.
real_p = ParamSet(
    k=[1.0, 0.2, 0.3j, 0.4],
    m=[0.5, 0.0, -1.0j, 0.0],
    l=[0.0, 1.0, 0.0, 0.0],
    n=[0.0, 0.0, 0.5j, 0.0],
)
g_real = assemble(real_p)
print("\nreality conditions hold:", is_real_conditions(real_p))
print("largest imaginary entry:", np.abs(g_real.imag).max())
print(np.array_str(g_real.real, precision=3, suppress_small=True))

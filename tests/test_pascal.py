"""Exact rational checks of the inclusion-exclusion coefficient solver.

The multi-mode expansion writes the product X_1...X_N as a signed sum of
N-th powers of subset sums. The coefficients c_{N-k} = (-1)^k / N! must
annihilate every unwanted multinomial term; this is verified here by brute
force in exact rational arithmetic.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from cvexact.decompose import solve_pascal_coeffs

from util import multinomial_expand


# coeffs[j-1] multiplies the size-j subsets; c_j = (-1)^{N-j} / N!
@pytest.mark.parametrize("N,expected", [
    (2, (Fraction(-1, 2), Fraction(1, 2))),
    (3, (Fraction(1, 6), Fraction(-1, 6), Fraction(1, 6))),
    (6, tuple(Fraction((-1) ** (6 - j), 720) for j in range(1, 7))),
])
def test_known_coefficient_vectors(N, expected):
    assert solve_pascal_coeffs(N) == expected


def test_solver_needs_two_modes():
    with pytest.raises(ValueError, match="N >= 2"):
        solve_pascal_coeffs(1)


@pytest.mark.parametrize("N", range(2, 9))
def test_pascal_system_annihilation(N):
    # row r of the binomial constraint system: sum_j C(r, j) c_{N-j} = 0
    # for 1 <= r < N, satisfied because c_{N-j} = (-1)^j / N! alternates
    c_desc = solve_pascal_coeffs(N)[::-1]  # (c_N, ..., c_1)
    for r in range(1, N):
        total = sum(comb(r, j) * c_desc[j] for j in range(0, N) if j <= r)
        assert total == 0


@pytest.mark.parametrize("N", range(2, 7))
def test_brute_force_expansion_reproduces_unit_product(N):
    coeffs = solve_pascal_coeffs(N)
    total = {}
    for size in range(1, N + 1):
        c = coeffs[size - 1]
        for subset in itertools.combinations(range(N), size):
            for key, coeff in multinomial_expand(subset, N).items():
                total[key] = total.get(key, Fraction(0)) + c * coeff
    target = tuple((i, 1) for i in range(N))
    for key, coeff in total.items():
        if key == target:
            assert coeff == 1
        else:
            assert coeff == 0

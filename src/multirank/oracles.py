"""Literal enumerations kept as differential oracles for the fast counters.

count_fiber walks every completion of a reduction target and contracts
it over F_q[t]/t^a; fiber_counts (multirank.counting) must agree with it
entry by entry. Nothing in the library calls it; it is exported for users
and tests.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

from .counting import DEFAULT_BUDGET_BITS, _contract_poly_first
from .errors import BudgetError
from .field import kernel
from .tensor import MultilinearForm


def _blocks(digits: tuple[int, ...], nblocks: int, n: int,
            deg: int) -> list[list[tuple[int, ...]]]:
    """Cut flat digits into nblocks vectors of n polynomials, deg coefficients each."""
    return [[digits[(k * n + j) * deg:(k * n + j + 1) * deg] for j in range(n)]
            for k in range(nblocks)]


def count_fiber(F: MultilinearForm, a: int, b: int, y: Sequence,
                budget_bits: float = DEFAULT_BUDGET_BITS) -> int:
    """N^y: solutions of G(x) = 0 in (F_q[t]/t^a)^n restricted to x = y mod t^b.

    G(x)_i = F(x, e_i) computed mod t^a; y is a (d-1)-tuple of vectors of
    length-b coefficient tuples.
    """
    if not (0 <= b <= a):
        raise ValueError("need 0 <= b <= a")
    K = kernel(F.field)
    q, n, d = K.q, F.n, F.d
    bits = n * (d - 1) * a * math.log2(q)
    if bits > budget_bits:
        raise BudgetError("fiber space q^(n(d-1)a)", bits, budget_bits)
    y = tuple(tuple(tuple(c) for c in vec) for vec in y)
    if len(y) != d - 1 or any(len(vec) != n for vec in y):
        raise ValueError("fiber target has wrong shape")
    if any(len(c) != b for vec in y for c in vec):
        raise ValueError(f"fiber target coefficients must have length b = {b}")

    free = a - b
    total = 0
    coeffs0: list[Sequence[int]] = [(c,) if c else () for c in F.coeffs]
    for digits in product(range(q), repeat=(d - 1) * n * free):
        cur: Sequence[Sequence[int]] = coeffs0
        slots = d
        for yk, zk in zip(y, _blocks(digits, d - 1, n, free)):
            vec = tuple(yj + zj for yj, zj in zip(yk, zk))
            cur = _contract_poly_first(cur, slots, n, vec, K, a)
            slots -= 1
        if not any(any(p) for p in cur):
            total += 1
    return total

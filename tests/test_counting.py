"""Counting kernels against literal-enumeration oracles and closed forms."""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from multirank import counting
from multirank.errors import BudgetError
from multirank.field import embed, kernel, make_field
from multirank.counting import (
    BoxSpec,
    CountProfile,
    box_solutions,
    count_box,
    count_NR,
    count_SF,
    count_SF_naive,
    count_singular,
    fiber_counts,
    level_form,
    level_poly,
    matrix_rank,
    projective_points,
    sf_profile,
    zero_fiber_target,
)
from multirank.oracles import count_fiber
from multirank.tensor import (
    HomogeneousForm,
    IntMultilinearForm,
    MultilinearForm,
    diagonal,
    direct_sum,
    int_diagonal,
    random_form,
    random_int_form,
    random_poly,
    weil_restrict,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def all_tensors_f2_2_2_3():
    """All 256 tensors over F_2 with n = 2, d = 3."""
    out = []
    for bits in range(256):
        coeffs = tuple((bits >> k) & 1 for k in range(8))
        out.append(MultilinearForm(F2, 3, 2, coeffs))
    return out


def diag_count_formula(m, n, d, Q):
    return (Q ** (d - 1) - (Q - 1) ** (d - 1)) ** m * Q ** ((n - m) * (d - 1))


def test_projective_points_basic():
    pts = projective_points(2, 2)
    assert pts == [(1, 0), (1, 1), (0, 1)]
    assert len(projective_points(3, 3)) == (27 - 1) // 2


def test_count_sf_identity_matrix():
    Id = diagonal(2, 2, 2, F2)
    assert count_SF(Id) == 1


def test_count_sf_zero_tensor():
    for n, d, l, spec in [(2, 3, 1, F2), (1, 3, 2, F3), (2, 2, 3, F2)]:
        Z = MultilinearForm.zeros(spec, d, n)
        assert count_SF(Z, l) == spec.q ** (l * n * (d - 1))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_count_sf_singular_matrices_above_level_one(p, e):
    """d = 2 counts the kernel, Q^(n - rank), at every level: a rank-one
    2 x 2 and a rank-two 3 x 3 matrix over F_q against the literal
    enumeration at l = 1..3."""
    field = make_field(p, e)
    K, q = kernel(field), field.q
    u, v = (1, q - 1), (q - 1, 1)
    r0, r1 = (1, 0, q - 1), (0, 1, 1)
    for n, r, coeffs in [(2, 1, [K.mul(a, b) for a in u for b in v]),
                         (3, 2, [*r0, *r1, *map(K.add, r0, r1)])]:
        F = MultilinearForm(field, 2, n, tuple(coeffs))
        assert matrix_rank([coeffs[i * n:(i + 1) * n] for i in range(n)], n, K) == r
        for l in (1, 2, 3):
            assert count_SF(F, l) == count_SF_naive(F, l) == q ** (l * (n - r)), (n, l)


def test_count_sf_diagonal_example():
    D = diagonal(2, 2, 3, F2)
    # oracle: per-coordinate count of (a_1, a_2) with zero product
    naive = 0
    for bits in itertools.product(range(2), repeat=4):
        x, y = bits[:2], bits[2:]
        if all(x[i] * y[i] == 0 for i in range(2)):
            naive += 1
    assert naive == 9
    assert count_SF(D) == 9
    assert count_SF(D) == diag_count_formula(2, 2, 3, 2)


def test_count_sf_matches_naive_exhaustive_f2():
    for F in all_tensors_f2_2_2_3():
        assert count_SF(F) == count_SF_naive(F)


def test_count_sf_matches_naive_random_f3():
    for seed in range(100):
        F = random_form(F3, 3, 2, 7000 + seed)
        assert count_SF(F) == count_SF_naive(F)


def test_count_sf_matches_naive_level2_and_n3():
    for seed in range(10):
        F = random_form(F2, 3, 2, 61 + seed)
        assert count_SF(F, 2) == count_SF_naive(F, 2)
    for seed in range(5):
        F = random_form(F2, 3, 3, 81 + seed)
        assert count_SF(F) == count_SF_naive(F)
    G = random_form(F2, 4, 2, 9)
    assert count_SF(G) == count_SF_naive(G)


def test_count_sf_diagonal_level2():
    D = diagonal(1, 1, 3, F2)
    assert count_SF(D, 2) == 7  # (4^2 - 3^2), brute-forced below
    F4 = make_field(2, 2)
    D4 = diagonal(1, 1, 3, F4)
    K = kernel(F4)
    naive = sum(1 for a in range(4) for b in range(4) if K.mul(a, b) == 0)
    assert naive == 7
    assert count_SF(D4, 1) == 7


def test_count_sf_budget_error():
    D = diagonal(2, 3, 3, F3)
    with pytest.raises(BudgetError):
        count_SF(D, 7)  # 3^21 slice space exceeds 2^28 at default budget
    with pytest.raises(BudgetError):
        count_SF_naive(D, 3, budget_bits=18)


def test_diag_formula_grid():
    for q, spec in [(2, F2), (3, F3)]:
        for n in (1, 2, 3):
            for m in range(n + 1):
                D = diagonal(m, n, 3, spec)
                for l in (1, 2):
                    Q = q ** l
                    assert count_SF(D, l) == diag_count_formula(m, n, 3, Q)


def test_sf_profile_and_validation():
    D = diagonal(1, 2, 3, F2)
    prof = sf_profile(D, 3)
    assert prof.base == 2 and prof.ambient_exp == 4
    assert [l for l, _ in prof.entries] == [1, 2, 3]
    dims = prof.dims()
    assert len(dims) == 3
    with pytest.raises(ValueError):
        CountProfile(2, 2, ((1, 0),))  # count below 1
    with pytest.raises(ValueError):
        CountProfile(2, 2, ((1, 5),))  # count above ambient


def test_schwartz_zippel_shape_bound():
    # diagonal(m, n, d): count / Q^((d-1)n - m) <= 2^(m(d-1)) uniformly in l
    for m, n, d, spec in [(1, 2, 3, F2), (2, 2, 3, F2), (1, 1, 3, F3)]:
        D = diagonal(m, n, d, spec)
        for l in range(1, 9):
            Q = spec.q ** l
            if (d - 2) * n * math.log2(Q) > 24:
                break
            count = count_SF(D, l)
            assert count <= 2 ** (m * (d - 1)) * Q ** ((d - 1) * n - m)


def test_lang_weil_gap_closed_form_and_monotone():
    # gap = log_Q(count) - dim = m * log_Q(2 - 1/Q) for d = 3 diagonals
    for m, n, spec, lmax in [(1, 2, F2, 8), (2, 2, F2, 8), (1, 2, F3, 5), (2, 3, F3, 5)]:
        D = diagonal(m, n, 3, spec)
        dim = 2 * n - m
        gaps = []
        for l in range(1, lmax + 1):
            Q = spec.q ** l
            count = count_SF(D, l)
            gap = math.log(count) / math.log(Q) - dim
            assert abs(gap - m * math.log(2 - 1 / Q) / math.log(Q)) < 1e-9
            gaps.append(abs(gap))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        Qlast = spec.q ** lmax
        if Qlast >= 256 and m <= 2:
            assert gaps[-1] < 0.25


def test_count_singular_examples():
    # f = x^3 + y^3 over F_5: gradient (3x^2, 3y^2) vanishes only at origin
    f = HomogeneousForm.from_terms(F5, 2, 3, {(3, 0): 1, (0, 3): 1})
    brute = 0
    for x in range(5):
        for y in range(5):
            if (3 * x * x) % 5 == 0 and (3 * y * y) % 5 == 0:
                brute += 1
    assert brute == 1
    assert count_singular(f) == 1

    # f = x^2 y: gradient (2xy, x^2) vanishes on the line x = 0
    g = HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1})
    brute = sum(1 for x in range(5) for y in range(5)
                if (2 * x * y) % 5 == 0 and (x * x) % 5 == 0)
    assert brute == 5
    assert count_singular(g) == 5
    assert count_singular(g, 2) == 25

    z = HomogeneousForm.zero(F5, 2, 3)
    assert count_singular(z) == 25
    assert count_singular(z, 2) == 625


def poly_mul(K, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return out


def naive_count_NR(F, R):
    """Oracle: literal enumeration of polynomial blocks."""
    q, n, d = F.field.q, F.n, F.d
    K = kernel(F.field)
    space = q ** (n * R)

    def decode(flat):
        polys = []
        for _ in range(n):
            cs = []
            for _ in range(R):
                flat, r = divmod(flat, q)
                cs.append(r)
            polys.append(tuple(cs))
        return polys

    count = 0
    for flat in range(space ** (d - 1)):
        t = flat
        blocks = []
        for _ in range(d - 1):
            t, b = divmod(t, space)
            blocks.append(decode(b))
        ok = True
        for i in range(n):
            acc = [0]
            for idx in itertools.product(range(n), repeat=d - 1):
                c = F.coeff(tuple(idx) + (i,)).index
                if not c:
                    continue
                term = [c]
                for k, j in enumerate(idx):
                    term = poly_mul(K, term, blocks[k][j])
                if len(acc) < len(term):
                    acc += [0] * (len(term) - len(acc))
                for s, v in enumerate(term):
                    acc[s] = K.add(acc[s], v)
            if any(acc):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_count_nr_examples():
    D = diagonal(1, 1, 3, F2)
    assert count_NR(D, 1) == 3  # degree-0 polynomials reduce to |S_F(F_2)|
    assert count_NR(D, 1) == count_SF(D)
    # R = 2: pairs (a, b) of degree-<2 polys with ab = 0 in F_2[t]
    brute = 0
    for abits in range(4):
        for bbits in range(4):
            prod = [0, 0, 0]
            a = [abits & 1, abits >> 1]
            b = [bbits & 1, bbits >> 1]
            for i in range(2):
                for j in range(2):
                    prod[i + j] ^= a[i] & b[j]
            if not any(prod):
                brute += 1
    assert brute == 7
    assert count_NR(D, 2) == 7
    Z = MultilinearForm.zeros(F2, 3, 2)
    assert count_NR(Z, 2) == 2 ** (2 * 2 * 2)


def test_count_nr_matches_naive():
    for seed in range(8):
        F = random_form(F2, 3, 2, 300 + seed)
        assert count_NR(F, 2) == naive_count_NR(F, 2)
    for seed in range(4):
        F = random_form(F3, 3, 1, 400 + seed)
        assert count_NR(F, 2) == naive_count_NR(F, 2)
    M = random_form(F2, 2, 2, 11)
    assert count_NR(M, 2) == naive_count_NR(M, 2)
    assert count_NR(M, 3) == naive_count_NR(M, 3)


def test_count_fiber_examples():
    D = diagonal(1, 1, 3, F2)
    y00 = zero_fiber_target(D, 1)
    assert count_fiber(D, 2, 1, y00) == 4  # x, y in {0, t}: products vanish mod t^2
    y11 = (((1,),), ((1,),))
    assert count_fiber(D, 2, 1, y11) == 0  # constant term of the product is 1
    y01 = (((0,),), ((1,),))
    assert count_fiber(D, 2, 1, y01) == 2
    # b = 0: the single fiber carries the whole solution count
    total = count_fiber(D, 2, 0, zero_fiber_target(D, 0))
    brute = 0
    for a in range(4):
        for b in range(4):
            av = (a & 1, a >> 1)
            bv = (b & 1, b >> 1)
            prod = (av[0] & bv[0], (av[0] & bv[1]) ^ (av[1] & bv[0]))
            if not any(prod):
                brute += 1
    assert total == brute == 8  # 4 + 2 + 2 + 0 over the four mod-t fibers


def test_fiber_counts_histogram_matches_count_fiber():
    for spec, seeds in [(F2, range(4)), (F3, range(2))]:
        for seed in seeds:
            F = random_form(spec, 3, 2, 500 + seed)
            for a, b in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (2, 0)]:
                hist = fiber_counts(F, a, b)
                q, n, d = spec.q, F.n, F.d
                # check every fiber, including absent ones
                space = q ** (n * b)
                checked = 0
                for flat in range(space ** (d - 1)):
                    t = flat
                    y = []
                    for _ in range(d - 1):
                        t, bk = divmod(t, space)
                        vec = []
                        for _ in range(n):
                            cs = []
                            for _ in range(b):
                                bk, r = divmod(bk, q)
                                cs.append(r)
                            vec.append(tuple(cs))
                        y.append(tuple(vec))
                    key = tuple(y)
                    expected = count_fiber(F, a, b, key)
                    assert hist.get(key, 0) == expected
                    checked += 1
                assert sum(hist.values()) == count_fiber(F, a, 0, zero_fiber_target(F, 0))


def test_count_box_examples():
    G = int_diagonal(1, 1, 3)  # x * y with integer slots
    # Z-variant, B = 2: entries in {-1, 0, 1}
    brute = sum(1 for a in (-1, 0, 1) for b in (-1, 0, 1) if a * b == 0)
    assert brute == 5
    assert count_box(G, BoxSpec(2, signed=True)) == 5
    # N-variant, B = 4: entries in [0, 4)
    brute = sum(1 for a in range(4) for b in range(4) if a * b == 0)
    assert brute == 7
    assert count_box(G, BoxSpec(4, signed=False)) == 7
    Z = IntMultilinearForm.zeros(3, 2)
    assert count_box(Z, BoxSpec(3, signed=False)) == 3 ** 4


def test_count_box_mod_L():
    G = int_diagonal(1, 1, 3)
    # pairs (a, b) in [0, 10)^2 with ab = 0 mod 10
    brute = sum(1 for a in range(10) for b in range(10) if (a * b) % 10 == 0)
    assert count_box(G, BoxSpec(10, signed=False, modulus=10)) == brute
    sols = box_solutions(G, BoxSpec(10, signed=False, modulus=10))
    assert len(sols) == brute
    assert all((a * b) % 10 == 0 for a, b in sols)


def test_box_lattice_matches_pure():
    # the lattice kernel against the literal pair scan, same inputs
    G = random_int_form(3, 2, 3, 77)
    box = BoxSpec(8, signed=True, modulus=50)
    pure = counting._box_pure(G, box, True)
    fast = counting._box_lattice(G, box, True)
    assert pure[0] == fast[0]
    assert pure[1] == fast[1]
    box2 = BoxSpec(7, signed=False)
    assert counting._box_pure(G, box2, False)[0] == counting._box_lattice(G, box2, False)[0]


def test_counters_identical_on_a_same_process_rerun():
    # the counters take no thread or worker setting: a rerun must repeat
    # every count, and two of them are checked against their oracles
    D = diagonal(1, 2, 3, F3)
    f = HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1, (0, 3): 2})
    G = random_int_form(3, 2, 2, 5)
    results = []
    for _ in range(3):
        results.append((
            count_SF(D, 3),
            count_SF_naive(D, 2),
            count_singular(f, 2),
            count_NR(D, 2),
            count_box(G, BoxSpec(3, signed=True)),
        ))
    assert results[0] == results[1] == results[2]
    fl = level_poly(f, 2)
    grad = [fl.partial(j) for j in range(2)]
    assert results[0][2] == sum(1 for pt in itertools.product(range(25), repeat=2)
                                if not any(g.evaluate_index(pt) for g in grad))
    assert results[0][3] == naive_count_NR(D, 2)


def test_monotone_ambient_bound():
    for seed in range(20):
        F = random_form(F3, 3, 2, 900 + seed)
        c = count_SF(F)
        assert 1 <= c <= 3 ** 4


def test_matrix_rank_small():
    K = kernel(F5)
    assert matrix_rank([[0, 0], [0, 0]], 2, K) == 0
    assert matrix_rank([[1, 2], [2, 4]], 2, K) == 1
    assert matrix_rank([[1, 2], [2, 3]], 2, K) == 2
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 4]]  # row2 = 2*row1 mod 5
    assert matrix_rank([r[:] for r in rows], 3, K) == 2
    rows = [[1, 0, 0], [2, 1, 0], [3, 4, 1]]
    assert matrix_rank([r[:] for r in rows], 3, K) == 3
    assert matrix_rank([[0, 0, 0]], 3, K) == 0
    assert matrix_rank([[0, 0, 3]], 3, K) == 1
    tall = [[1, 2], [2, 4], [3, 0], [0, 0]]  # rows 0 and 1 are parallel
    assert matrix_rank([r[:] for r in tall], 2, K) == 2
    assert matrix_rank([r[:] for r in tall[:2]], 2, K) == 1
    wide = [[0, 1, 2, 3], [0, 2, 4, 1]]  # row 1 = 2 * row 0
    assert matrix_rank([r[:] for r in wide], 4, K) == 1
    wide[1][0] = 1
    assert matrix_rank([r[:] for r in wide], 4, K) == 2


# -- property tests: every rewritten loop against an independent count ---------

FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 5: F5}


def leibniz_det(M, n, K):
    """Determinant of the flat n x n matrix M as a sum over permutations."""
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = K.mul(term, M[i * n + j])
        odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2
        det = K.sub(det, term) if odd else K.add(det, term)
    return det


@seed(20241009)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(1, 6), st.integers(1, 4), st.data())
def test_elimination_matches_brute_force_property(q, m, c, data):
    """matrix_rank, nullspace_basis and the n = 4 determinant against enumeration."""
    K = kernel(FIELDS[q])
    entries = st.lists(st.integers(0, q - 1), min_size=c, max_size=c)
    rows = data.draw(st.lists(entries, min_size=m, max_size=m))
    if m > 1 and data.draw(st.booleans()):  # a dependent row: a multiple of another
        i, j, f = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                      st.integers(0, q - 1)))
        rows[i] = [K.mul(f, x) for x in rows[j]]

    def in_kernel(v):
        return not any(functools.reduce(K.add, map(K.mul, row, v)) for row in rows)

    kern = [v for v in itertools.product(range(q), repeat=c) if in_kernel(v)]
    assert q ** (c - matrix_rank([r[:] for r in rows], c, K)) == len(kern)

    # column j is free iff some kernel vector is 1 at j and 0 after it
    free = [j for j in range(c) if any(v[j] == 1 and not any(v[j + 1:]) for v in kern)]
    basis = counting.nullspace_basis([r[:] for r in rows], c, K)
    assert len(basis) == len(free)
    for j, v in zip(free, basis):
        assert in_kernel(v)
        assert [v[k] for k in free] == [int(k == j) for k in free]
    span = counting.span_vectors(basis, K, c)
    assert len(set(span)) == len(span) == len(kern)

    M = data.draw(st.lists(st.integers(0, q - 1), min_size=16, max_size=16))
    if data.draw(st.booleans()):  # a repeated row: singular
        M[4:8] = M[:4]
    rank, det = counting._rank_det(M, 4, K)
    assert det == leibniz_det(M, 4, K)
    assert rank == matrix_rank([M[i:i + 4] for i in range(0, 16, 4)], 4, K)


# (q, n, d, R) over q in {2, 3, 4, 5}, n <= 2, d in {2, 3, 4}, R <= 3
FORM_SHAPES = [(q, n, d, R) for q in sorted(FIELDS) for n in (1, 2) for d in (2, 3, 4)
               for R in (1, 2, 3)]


@st.composite
def small_forms(draw, max_log_space=12):
    """(F, R): a random form and a degree bound, drawn together.

    Only shapes whose full space q^(n(d-1)R) stays within 2^max_log_space
    are drawn, so each R value of a shape is its own case.
    """
    q, n, d, R = draw(st.sampled_from([(q, n, d, R) for q, n, d, R in FORM_SHAPES
                                       if n * (d - 1) * R * math.log2(q) <= max_log_space]))
    return random_form(FIELDS[q], d, n, draw(st.integers(0, 2 ** 32 - 1))), R


@seed(20241001)
@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_count_sf_matches_naive_property(case):
    F, _ = case
    assert count_SF(F) == count_SF_naive(F)


@seed(20241002)
@settings(max_examples=40, deadline=None)
@given(small_forms(max_log_space=10))
def test_count_nr_matches_naive_property(case):
    F, R = case
    assert count_NR(F, R) == naive_count_NR(F, R)


def singular_points(f, l, points):
    """The points (element indices of F_(q^l)) where every partial of f vanishes."""
    grad = level_poly(f, l).gradient()
    return [pt for pt in points if not any(g.evaluate_index(pt) for g in grad)]


@seed(20241003)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_count_singular_matches_direct_evaluation_property(q, n, d, l, s):
    while q ** (l * n) > 2 ** 12:  # keep the direct evaluation small
        l -= 1
    f = random_poly(FIELDS[q], d, n, s)
    direct = singular_points(f, l, itertools.product(range(q ** l), repeat=n))
    assert count_singular(f, l) == len(direct)


def test_count_singular_pins_a_cubic_singular_on_one_frobenius_orbit():
    """x^2 y + 2 y^2 z + x z^2 + x y z over F_3 is smooth at levels 1, 2
    and 4; at level 3 its singular projective points are one orbit of
    x -> x^3, of size 3, so the line walk must weight its head by 3."""
    f = HomogeneousForm.from_terms(F3, 3, 3, {(2, 1, 0): 1, (0, 2, 1): 2, (1, 0, 2): 1, (1, 1, 1): 1})
    assert [count_singular(f, l) for l in range(1, 5)] == [1, 1, 79, 1]
    K = kernel(level_poly(f, 3).field)
    pts = singular_points(f, 3, projective_points(27, 3))
    assert len(pts) == 3 and {tuple(K.pow(x, 3) for x in pt) for pt in pts} == set(pts)
    assert all(any(pt[:-1]) for pt in pts)  # none is e_2, the line u = 0


@pytest.mark.parametrize("field, n, d, terms, levels", [
    # x^2 y in 3 variables: the plane x = 0, so the line of head u = (0, 1) is
    # singular at all of its Q points, as is the line u = 0
    (F3, 3, 3, {(2, 1, 0): 1}, (1, 2)),
    # x^2 y z over F_2: the plane x = 0 and the line y = z = 0
    (F2, 3, 4, {(2, 1, 1): 1}, (1, 2, 3)),
    # x^3 + y^3 over F_3: every formal partial is 0 mod 3, the whole space
    (F3, 2, 3, {(3, 0): 1, (0, 3): 1}, (1, 2)),
    # n = 1: x^2 (the origin alone), x^3 over F_3 (all of F_Q), x^4 over F_5
    (F5, 1, 2, {(2,): 1}, (1, 2)),
    (F3, 1, 3, {(3,): 2}, (1, 3)),
    (F5, 1, 4, {(4,): 3}, (1,)),
    # d = 1: nonzero constant partials (no point), and the zero linear form
    (F5, 2, 1, {(1, 0): 1, (0, 1): 2}, (1, 2)),
    (F2, 3, 1, {(0, 0, 1): 1}, (1, 3)),
    (F3, 2, 1, {}, (1, 2)),
    # e_{n-1} alone among the projective points: only its partials are all 0
    (F5, 2, 3, {(3, 0): 1, (2, 1): 1}, (1, 2)),
])
def test_count_singular_whole_lines_and_small_cases(field, n, d, terms, levels):
    f = HomogeneousForm.from_terms(field, n, d, terms)
    for l in levels:
        Q = field.q ** l
        assert count_singular(f, l) == len(singular_points(f, l, itertools.product(range(Q), repeat=n)))


@pytest.mark.parametrize("spec, n, a, b", [(F2, 1, 3, 2), (F3, 1, 3, 2), (F2, 2, 2, 2),
                                           (F2, 2, 2, 1)])
def test_fiber_counts_d4_head_blocks_match_count_fiber(spec, n, a, b):
    """d = 4: the first prefix block is walked by unit orbits too. With
    0 < v < b, as for x = t over F_q[t]/t^3 mod t^2, a head block's keys
    are u * x mod t^b, each weighted q^(a-b) like the last block's. Whether
    F(x^(1)(0), x^(2)(0), ., .) is invertible, which skips the last block's
    system, depends on both prefix blocks: some tuples of orbits with the
    same x^(1)(0) != 0 pass and others fail."""
    F = random_form(spec, 4, n, 41 + n)
    assert any(F.coeffs)
    K = kernel(spec)
    passes = collections.defaultdict(set)
    for (x, _, _), (z, _, _) in itertools.product(counting._unit_orbits(K, n, a, b), repeat=2):
        x0, z0 = [c[0] for c in x], [c[0] for c in z]
        passes[tuple(x0)].add(leibniz_det(F._contract_prefix([x0, z0]), n, K) != 0)
    assert any(v == {True, False} for x0, v in passes.items() if any(x0))
    hist = fiber_counts(F, a, b)
    q = spec.q
    targets = itertools.product(itertools.product(itertools.product(range(q), repeat=b),
                                                  repeat=n), repeat=3)
    for y in targets:
        assert count_fiber(F, a, b, y) == hist.get(y, 0), y
    assert sum(hist.values()) == count_fiber(F, a, 0, zero_fiber_target(F, 0))


@seed(20241004)
@settings(max_examples=60, deadline=None)
@given(small_forms(), st.data())
def test_fiber_counts_match_count_fiber_property(case, data):
    F, a = case
    # b = 0 (one key part empty) and b = a (nothing free) are drawn outright;
    # otherwise a >= 2 keeps 0 < b < a, where the keys u x mod t^b and the
    # weights q^(a-b) both matter
    b = data.draw(st.sampled_from((0, a)) | (st.integers(1, a - 1) if a > 1
                                             else st.integers(0, a)))
    q, n, d = F.field.q, F.n, F.d
    hist = fiber_counts(F, a, b)
    targets = itertools.product(itertools.product(itertools.product(range(q), repeat=b),
                                                  repeat=n), repeat=d - 1)
    for y in targets:
        assert count_fiber(F, a, b, y) == hist.get(y, 0)
    assert sum(hist.values()) == count_fiber(F, a, 0, zero_fiber_target(F, 0))


def unit_products(K, a):
    """products[i][j]: the index of u_i * c_j mod t^a, by convolution, where
    u_i runs over the units of F_q[t]/t^a and c_j over all polynomials, both
    in product order."""
    polys = list(itertools.product(range(K.q), repeat=a))
    index = {c: j for j, c in enumerate(polys)}
    return [[index[tuple(functools.reduce(K.add, [K.mul(u[s], c[k - s]) for s in range(k + 1)], 0)
                         for k in range(a))] for c in polys]
            for u in polys if not a or u[0]]


# orbit counts, zero vector included: one last-block system per orbit instead
# of one per projective block (365 over F_3 at n = 2, a = 3; 256 over F_2 at n = 2, a = 4)
ORBIT_COUNTS = {(3, 2, 3): 53, (2, 2, 4): 46}


@pytest.mark.parametrize("q, n, a", [(q, n, a) for q in (2, 3, 4) for n in (1, 2, 3)
                                     for a in (0, 1, 2, 3)] + [(2, 2, 4)])
def test_unit_orbits_partition_the_vectors(q, n, a):
    """The orbits of the listed vectors, found by multiplying them by every
    unit, are disjoint and cover (F_q[t]/t^a)^n; each has (q-1) q^(a-1-v)
    elements, v the least valuation, and the zero vector is alone. For each
    b in 0..a, the orbit's elements mod t^b take exactly the listed keys,
    each weight times."""
    K = kernel(FIELDS[q])
    products = unit_products(K, a)
    polys = list(itertools.product(range(q), repeat=a))
    index = {c: j for j, c in enumerate(polys)}
    place = [q ** (a * (n - 1 - j)) for j in range(n)]
    tables = [counting._unit_orbits(K, n, a, b) for b in range(a + 1)]
    seen = bytearray(q ** (n * a))
    for i, (x, _, _) in enumerate(tables[0]):
        digits = [index[c] for c in x]
        orbit = {tuple(row[k] for k in digits) for row in products}
        for y in orbit:
            j = sum(k * w for k, w in zip(y, place))
            assert not seen[j], (x, "meets an earlier orbit")
            seen[j] = 1
        v = min([s for c in x for s, c_s in enumerate(c) if c_s] + [a])
        assert len(orbit) == ((q - 1) * q ** (a - 1 - v) if v < a else 1), x
        for b, table in enumerate(tables):
            xb, keys, weight = table[i]
            hits = collections.Counter(tuple(polys[k][:b] for k in y) for y in orbit)
            assert xb == x and list(keys) == sorted(hits), (x, b)
            assert set(hits.values()) == {weight}, (x, b)
    assert all(seen)
    assert all(len(table) == len(tables[0]) for table in tables)
    assert len(tables[0]) == ORBIT_COUNTS.get((q, n, a), len(tables[0]))


def rank_one_form(field, d, n, s):
    """a_1 (x) ... (x) a_d for random vectors: every slice has rank <= 1."""
    K = kernel(field)
    rnd = random.Random(s)
    vecs = [[rnd.randrange(field.q) for _ in range(n)] for _ in range(d)]
    coeffs = []
    for idx in itertools.product(range(n), repeat=d):
        c = 1
        for v, i in zip(vecs, idx):
            c = K.mul(c, v[i])
        coeffs.append(c)
    return MultilinearForm(field, d, n, tuple(coeffs))


def sf_test_form(kind, field, d, n, s):
    if kind == "random":
        return random_form(field, d, n, s)
    if kind == "diagonal":
        return diagonal(s % n, n, d, field)  # m < n: rank m in every slot
    if kind == "zero":
        return MultilinearForm.zeros(field, d, n)
    if kind in ("pulled back", "partly deficient"):
        return deficient_form(field, d, n, s, partly=kind == "partly deficient")
    return rank_one_form(field, d, n, s)


SF_KINDS = ("random", "random", "diagonal", "zero", "rank-one")
FACTOR = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
# (q, l, n, d) over q in {4, 5, 7, 8, 9}, l in {1, 2}, n <= 3, d in {3, 4}
# whose naive space (q^l)^(n(d-1)) stays within 2^16
SF_SHAPES = [(q, l, n, d) for q in (4, 5, 7, 8, 9) for l in (1, 2) for n in (1, 2, 3)
             for d in (3, 4) if q ** (l * n * (d - 1)) <= 1 << 16]


@seed(20241006)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SF_SHAPES), st.sampled_from(SF_KINDS), st.integers(0, 2 ** 32 - 1))
def test_count_sf_line_kernel_matches_naive_property(shape, kind, s):
    """Reaches the interpolation (Q > n + 2), zeros of the interpolated
    minor, lines of generic rank below n and the lone point e_{n-1}.
    count_SF hands diagonal m < n, zero and rank-one forms to the line
    kernel only as their concise core, so the kernel also counts each
    drawn form as it stands, every slice singular for those kinds."""
    q, l, n, d = shape
    F = sf_test_form(kind, make_field(*FACTOR[q]), d, n, s)
    want = count_SF_naive(F, l)
    assert count_SF(F, l) == want
    assert counting._count_sf_lines(F, l) == want


def count_SF_points(F, l=1):
    """Oracle for count_SF at d >= 3: one exact rank per projective (d-2)-tuple.

    Tuples containing a zero vector have the zero slice; every other tuple
    is a projective one scaled in each slot, (Q-1)^(d-2) ways.
    """
    Fl = level_form(F, l)
    K = kernel(Fl.field)
    Q, n, d = K.q, F.n, F.d
    tuples = itertools.product(projective_points(Q, n), repeat=d - 2)
    proj = sum(Q ** (n - matrix_rank([M[i * n:(i + 1) * n] for i in range(n)], n, K))
               for M in map(Fl._contract_prefix, tuples))
    zero_tuples = Q ** (n * (d - 2)) - (Q ** n - 1) ** (d - 2)
    return zero_tuples * Q ** n + (Q - 1) ** (d - 2) * proj


def test_line_kernel_matches_per_point_oracle():
    """Sizes beyond the naive counter: the line kernel against one rank per slice."""
    F4, F7, F8, F9 = make_field(2, 2), make_field(7, 1), make_field(2, 3), make_field(3, 2)
    # (F3, 3, 3, 3) and (F7, 3, 4, 1) interpolate n >= 3 determinants in odd
    # characteristic, where elimination's row swaps flip the sign; over F_8
    # and F_9 at n = 4 the nodes 0..3 include x, and the diagonal and
    # rank-one kinds keep rank B < n - 1, so they stay on the node route
    for field, d, n, l in [(F2, 3, 3, 6), (F4, 3, 3, 3), (F5, 3, 4, 1), (F3, 3, 2, 5),
                           (F2, 4, 3, 2), (F3, 3, 3, 3), (F7, 3, 4, 1), (F8, 3, 4, 1),
                           (F9, 3, 4, 1)]:
        for kind, s in [("random", 1), ("random", 2), ("diagonal", n - 1), ("rank-one", 3)]:
            F = sf_test_form(kind, field, d, n, s)
            assert count_SF(F, l) == count_SF_points(F, l), (field, d, n, l, kind)


@contextlib.contextmanager
def line_route(tail=None, chi=None):
    """Line kernels built inside find zeros by tail, "scan" or "frobenius", at
    every Q > n + 2; chi = True sends every form with n > 2, Q > 3 and
    rank B >= n - 1 to the characteristic polynomial route, whatever its
    number of lines, and chi = False keeps every form on the node route."""
    old = counting._SCAN, counting._CHI
    if tail:
        counting._SCAN = (math.inf if tail == "scan" else -1,) * 2
    if chi is not None:
        counting._CHI = math.inf if chi else 0
    counting._line_kernel.cache_clear()
    try:
        yield
    finally:
        counting._SCAN, counting._CHI = old
        counting._line_kernel.cache_clear()


LINE_ROUTES = [(tail, chi) for tail in ("scan", "frobenius") for chi in (False, True)]


ROUTE_FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 9: make_field(3, 2), 257: make_field(257),
                1021: make_field(1021)}
ROUTE_LEVELS = {2: 10, 3: 6, 4: 5, 9: 3, 257: 1, 1021: 1}
# (q, l, n, d) with Q = q^l up to 2^10, n in {2, 3}, d in {3, 4}, and at most
# 2^13 projective (d-2)-tuples at level l for the per-point oracle
ROUTE_SHAPES = [(q, l, n, d) for q, top in ROUTE_LEVELS.items() for l in range(1, top + 1)
                for n in (2, 3) for d in (3, 4)
                if ((q ** (l * n) - 1) // (q ** l - 1)) ** (d - 2) <= 1 << 13]


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROUTE_SHAPES),
       st.sampled_from(("random", "random", "diagonal", "rank-one", "partly deficient")),
       st.integers(0, 2 ** 32 - 1))
def test_count_sf_line_routes_match_per_point_property(shape, kind, s):
    """The default route choice, and the scan and the Frobenius gcd at every
    Q > n + 2 on the node route and on the characteristic polynomial route,
    each against one exact rank per slice. Diagonal and rank-one forms are
    counted on their concise core. A form deficient in only some slots keeps
    its full n, and when the last slot or the one before it is deficient,
    every slice is singular. F_2 up to l = 10,
    F_3 up to l = 6, F_4 up to l = 5, F_9 up to l = 3 and the primes 257 and
    1021 put the default past the crossover for n = 2."""
    q, l, n, d = shape
    F = sf_test_form(kind, ROUTE_FIELDS[q], d, n, s)
    want = count_SF_points(F, l)
    assert count_SF(F, l) == want
    for route in LINE_ROUTES:
        with line_route(*route):
            assert count_SF(F, l) == want, route


def crafted_pencil(K, n, blocks):
    """(P, B), flat n x n, with P + tB = (tI - A) (+) I (+) 0 for A block diagonal.

    blocks, in order along the diagonal: ("J", x, k) a k x k Jordan block of
    eigenvalue x (element index); ("C", f) the companion matrix of the monic
    t^k + f[k-1] t^(k-1) + ... + f[0]; ("1", k) k rows with P = I and B = 0;
    ("0", k) k zero rows.
    """
    P, B = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    at = 0
    for kind, *spec in blocks:
        if kind == "J":
            x, k = spec
            for i in range(at, at + k):
                P[i][i], B[i][i] = K.neg(x), 1
                if i + 1 < at + k:
                    P[i][i + 1] = K.neg(1)
        elif kind == "C":
            k = len(spec[0])
            for i, fi in enumerate(spec[0]):
                P[at + i][at + k - 1] = fi
                B[at + i][at + i] = 1
                if i + 1 < k:
                    P[at + i + 1][at + i] = K.neg(1)
        else:
            k = spec[0]
            if kind == "1":
                for i in range(at, at + k):
                    P[i][i] = 1
        at += k
    assert at == n
    return [x for row in P for x in row], [x for row in B for x in row]


def rootless(K, k):
    """The first monic t^k + f[k-1] t^(k-1) + ... + f[0] with no root in F_Q, f[0] running fastest."""
    for f in map(tuple, map(reversed, itertools.product(range(K.q), repeat=k))):
        if all(functools.reduce(lambda acc, c: K.add(K.mul(acc, t), c), reversed(f), 1)
               for t in range(K.q)):
            return f


def crafted_lines(K, n):
    """Pencils whose minor has double, triple and all-F_Q zeros, zeros at the
    nodes t = 0..n-1, no zero in F_Q, generic rank below n, det B = 0 at
    rank n, and minors with m' = 0 in characteristic p <= n."""
    Q = K.q
    x, y, z = Q - 1, Q - 2, n + 1  # off the nodes
    J = [("J", x, 1)]
    cases = {
        2: [[("J", x, 2)], J * 2, [("J", 0, 1), ("J", x, 1)], [("J", 1, 2)],
            [("J", x, 1), ("J", y, 1)], [("C", rootless(K, 2))], J + [("0", 1)],
            J + [("1", 1)], [("0", 2)]],
        3: [[("J", x, 2), ("J", y, 1)], J * 3, [("J", x, 3)], [("J", 0, 1), ("J", x, 2)],
            [("J", x, 1), ("J", y, 1), ("J", z, 1)], [("C", rootless(K, 3))],
            J * 2 + [("1", 1)], J * 2 + [("0", 1)], J + [("J", 1, 1), ("0", 1)],
            [("C", rootless(K, 2)), ("0", 1)]],
        4: [[("J", x, 2), ("J", x, 2)], J * 2 + [("J", y, 2)], [("C", rootless(K, 4))], J * 4,
            J * 3 + [("1", 1)], J * 2 + [("0", 2)], [("J", 2, 3), ("J", z, 1)]],
    }
    return [crafted_pencil(K, n, blocks) for blocks in cases[n]]


def per_point_line_sum(K, n, P, B):
    """Q^(n - rank) summed over e_(n-1) and the points (e_0, t), one exact rank each."""
    def weight(M):
        return K.q ** (n - matrix_rank([list(M[i * n:(i + 1) * n]) for i in range(n)], n, K))

    return weight(B) + sum(weight([K.add(a, K.mul(t, b)) for a, b in zip(P, B)])
                           for t in range(K.q))


@pytest.mark.parametrize("p,e,ns", [(2, 4, (2, 3, 4)), (2, 8, (2, 3, 4)), (7, 1, (2, 3, 4)),
                                    (3, 5, (2, 3, 4)), (1021, 1, (2, 3))])
def test_line_kernel_routes_on_crafted_lines(p, e, ns):
    """_line_kernel on single crafted lines, by the default route and by each
    route forced, against a per-point rank sum: in characteristic 2, in odd
    characteristic, and with p <= n, where a multiple zero can have m' = 0.
    One line is too few for the default to take the characteristic
    polynomial route; a line with det B = 0 is not forced onto it, since
    its change of basis replaces the line by another."""
    K = kernel(make_field(p, e))
    for n in ns:
        head = [(((1,) + (0,) * (n - 2),), 1)]
        for k, (P, B) in enumerate(crafted_lines(K, n)):
            G = P + [0] * (n - 2) * n * n + B
            want = per_point_line_sum(K, n, P, B)
            assert counting._line_kernel(K, n)(G, head) == want, (n, k)
            for tail, chi in LINE_ROUTES:
                if chi and counting._rank_det(B, n, K)[0] < n:
                    continue
                with line_route(tail, chi):
                    assert counting._line_kernel(K, n)(G, head) == want, (n, k, tail, chi)


def embedded(K, n):
    """The kernel of the least extension of K's field with more than n
    elements, and the embedding's map on element indices."""
    k = 1
    while K.q ** k <= n:
        k += 1
    emb = embed(K.spec, make_field(K.p, K.e * k))
    return kernel(emb.target), emb.apply_index


def charpoly_cases(K, n, rnd):
    """Flat n x n matrices: random, upper Hessenberg, diagonal with a repeated
    entry, strictly lower triangular (nilpotent), and for m = 1..n-2 one whose
    Hessenberg step m must swap the last row in."""
    def entry():
        return rnd.randrange(K.q)

    def hessenberg():
        return [entry() if j >= i - 1 else 0 for i in range(n) for j in range(n)]

    diag = [entry() for _ in range(n)]
    diag[-1] = diag[0]
    cases = [[entry() for _ in range(n * n)], hessenberg(),
             [diag[i] if i == j else 0 for i in range(n) for j in range(n)],
             [entry() if j < i else 0 for i in range(n) for j in range(n)]]
    for m in range(1, n - 1):
        M = hessenberg()
        M[m * n + m - 1] = 0
        M[(n - 1) * n + m - 1] = rnd.randrange(1, K.q)
        cases.append(M)
    return cases


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (3, 3)])
def test_charpoly_and_solve_against_leibniz(p, e):
    """_charpoly(M) against det(tI - M) at n + 1 points, taken in an extension
    with that many elements, for n <= 5; _solve(A, R) solves A X = R, or
    returns None exactly when A is singular."""
    K = kernel(make_field(p, e))
    rnd = random.Random(100 * p + e)
    for n in range(1, 6):
        L, up = embedded(K, n)
        for M in charpoly_cases(K, n, rnd):
            c = [up(x) for x in counting._charpoly(M, n, K)]
            assert len(c) == n + 1 and c[-1] == 1, (n, M)
            for t in range(n + 1):
                tI_M = [L.sub(t if i == j else 0, up(M[i * n + j])) for i in range(n) for j in range(n)]
                value = functools.reduce(lambda acc, ck: L.add(L.mul(acc, t), ck), reversed(c), 0)
                assert value == leibniz_det(tI_M, n, L), (n, M, t)
            R = [[rnd.randrange(K.q) for _ in range(2)] for _ in range(n)]
            X = counting._solve(M, R, n, K)
            if not leibniz_det(M, n, K):
                assert X is None, (n, M)
                continue
            assert [[functools.reduce(K.add, [K.mul(M[i * n + k], X[k][j]) for k in range(n)])
                     for j in range(2)] for i in range(n)] == R, (n, M)


def form_of_blocks(field, blocks):
    """The d = 3 form whose slice at e_j is blocks[j], each flat n x n."""
    return MultilinearForm(field, 3, round(len(blocks[0]) ** 0.5), tuple(x for b in blocks for x in b))


def candidate_slices(F):
    """The slices at the first 2n points of projective_points(p, n) in slot 0 (d = 3)."""
    K, n = kernel(F.field), F.n
    return [F._contract_prefix([v]) for v in projective_points(K.p, n)[:2 * n]]


def singular_last_block(field, d, n, s):
    """A random form with F(.., e_(n-1), .., e_(n-1)) = 0 in slots d-3 and d-1:
    every contracted form's last block has a zero last column."""
    F = random_form(field, d, n, s)
    return MultilinearForm(field, d, n, tuple(
        0 if idx[-3] == idx[-1] == n - 1 else c
        for idx, c in zip(itertools.product(range(n), repeat=d), F.coeffs)))


def no_candidate_form(field, n, s):
    """Upper triangular slices whose diagonal, linear in x, vanishes at the
    first 2n prime-field points and not at some point of F_(p^2) (x_(n-1) is
    not on it); the last block is strictly upper triangular of rank n - 1."""
    K, rnd = kernel(field), random.Random(s)
    # (x_0, x_1, x_0 + x_1, x_0 + x_2) over F_2, (x_1, x_1 - x_0, x_1 + x_0) over F_3
    diag = {2: [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)],
            3: [(0, 1, 0), (K.neg(1), 1, 0), (1, 1, 0)]}[field.p][:n]
    blocks = [[diag[a][j] if a == b else rnd.randrange(K.q) if a < b else 0
               for a in range(n) for b in range(n)] for j in range(n)]
    for a in range(n - 1):
        blocks[n - 1][a * n + a + 1] = 1
    return form_of_blocks(field, blocks)


def pencil_form(field, n, P, B, s):
    """blocks P, random ones, then B (d = 3)."""
    rnd = random.Random(s)
    return form_of_blocks(field, [P] + [[rnd.randrange(field.q) for _ in range(n * n)]
                                        for _ in range(n - 2)] + [B])


def eigen_form(field, n, eigen, s):
    """B = I and P = -diag(eigen): on the line through e_0 the slice is tI - diag(eigen)."""
    K = kernel(field)
    P = [K.neg(eigen[i]) if i == j else 0 for i in range(n) for j in range(n)]
    return pencil_form(field, n, P, [int(i == j) for i in range(n) for j in range(n)], s)


def flat_derivative_form(field, n, s):
    """B = I and P = -(companion of t^n - 1) with p | n: chi'(t) = 0 on the line through e_0,
    and on the line through e_1 the slice is tI - I, of rank 0 at t = 1."""
    K = kernel(field)
    P = [0] * (n * n)
    for i in range(n - 1):
        P[(i + 1) * n + i] = K.neg(1)
    P[n - 1] = K.neg(1)
    eye = [int(i == j) for i in range(n) for j in range(n)]
    blocks = [P, [K.neg(x) for x in eye]] + [[0] * (n * n)] * (n - 3) + [eye]
    return form_of_blocks(field, blocks)


F7, F9 = make_field(7, 1), make_field(3, 2)
# (name, form, levels): every form is counted by each route
CRAFTED_SF = [
    ("singular B, d = 3, F_2 n = 3", singular_last_block(F2, 3, 3, 1), (2, 3, 4)),
    ("singular B, d = 3, F_3 n = 3", singular_last_block(F3, 3, 3, 2), (2,)),
    ("singular B, d = 3, F_2 n = 4", singular_last_block(F2, 3, 4, 3), (2, 3)),
    ("singular B, d = 4, F_2 n = 3", singular_last_block(F2, 4, 3, 4), (2,)),
    ("singular B, d = 4, F_5 n = 3", singular_last_block(F5, 4, 3, 5), (1,)),
    ("no candidate, F_2 n = 3", no_candidate_form(F2, 3, 6), (1, 2, 4)),
    ("no candidate, F_2 n = 4", no_candidate_form(F2, 4, 7), (2, 3)),
    ("no candidate, F_3 n = 3", no_candidate_form(F3, 3, 8), (2,)),
    ("eigenspace of dimension 2, F_7 n = 3", eigen_form(F7, 3, (2, 2, 5), 9), (1,)),
    ("eigenspace of dimension 2, F_5 n = 4", eigen_form(F5, 4, (3, 3, 1, 0), 10), (1, 2)),
    ("eigenspace of dimension 2, F_9 n = 3", eigen_form(F9, 3, (4, 4, 7), 11), (1,)),
    ("chi' = 0, F_3 n = 3", flat_derivative_form(F3, 3, 12), (2, 3)),
    ("chi' = 0, F_2 n = 4", flat_derivative_form(F2, 4, 13), (2, 3)),
]


@pytest.mark.parametrize("name,F,levels", CRAFTED_SF, ids=[c[0] for c in CRAFTED_SF])
def test_count_sf_routes_on_crafted_forms(name, F, levels):
    """count_SF on crafted forms, by the default route and by each route and
    tail forced, against one exact rank per slice. A singular last block of
    rank n - 1 takes a prime-field change of basis (at d = 3 and l >= 2 the
    Frobenius weights must survive it); a form whose candidate slices are all
    singular keeps the node route, although points of F_(p^2) have invertible
    slices; a double eigenvalue with a 2-dimensional eigenspace has rank
    n - 2; and with p <= n the characteristic polynomial can have chi' = 0."""
    K, n = kernel(F.field), F.n
    if name.startswith("singular B"):  # the premises, at d = 3
        G = F if F.d == 3 else MultilinearForm(F.field, 3, n, F._contract_prefix([(1,) + (0,) * (n - 1)]))
        assert counting._rank_det(G._contract_prefix([(0,) * (n - 1) + (1,)]), n, K)[0] == n - 1
        assert any(counting._rank_det(S, n, K)[0] == n for S in candidate_slices(G))
    if name.startswith("no candidate"):
        assert counting._rank_det(F._contract_prefix([(0,) * (n - 1) + (1,)]), n, K)[0] == n - 1
        assert not any(counting._rank_det(S, n, K)[0] == n for S in candidate_slices(F))
    for l in levels:
        want = count_SF_points(F, l)
        assert count_SF(F, l) == want, l
        for route in LINE_ROUTES:
            with line_route(*route):
                assert count_SF(F, l) == want, (l, route)


def transformed(F, mats):
    """F(A_1 x_1, ..., A_d x_d); the A_k need not be invertible."""
    K, n, d = kernel(F.field), F.n, F.d
    coeffs = list(F.coeffs)
    for k, A in enumerate(mats):
        stride = n ** (d - 1 - k)
        coeffs = [functools.reduce(K.add, [K.mul(coeffs[i - (i // stride % n - j) * stride], A[j][i // stride % n])
                                           for j in range(n)], 0) for i in range(len(coeffs))]
    return MultilinearForm(F.field, d, n, tuple(coeffs))


def permuted(F, perm):
    """F with its slots permuted: G(x_0, ..., x_(d-1)) = F(x_perm[0], ..., x_perm[d-1])."""
    n, d = F.n, F.d
    index = list(itertools.product(range(n), repeat=d))
    place = {idx: i for i, idx in enumerate(index)}
    return MultilinearForm(F.field, d, n, tuple(F.coeffs[place[tuple(idx[k] for k in perm)]] for idx in index))


def deficient_form(field, d, n, s, partly=False):
    """A random form pulled back through a random map L_k R_k (n x r, r x n)
    of rank at most r < n in every slot k, or, if partly, in a random
    nonempty proper subset of the slots: its slot kernels are not spanned
    by coordinate vectors."""
    K, rnd = kernel(field), random.Random(s)
    slots = rnd.sample(range(d), rnd.randrange(1, d)) if partly else range(d)
    mats = []
    for k in range(d):
        if k not in slots:
            mats.append([[int(i == j) for j in range(n)] for i in range(n)])
            continue
        r = rnd.randrange(n)
        L = [[rnd.randrange(field.q) for _ in range(r)] for _ in range(n)]
        R = [[rnd.randrange(field.q) for _ in range(n)] for _ in range(r)]
        mats.append([[functools.reduce(K.add, map(K.mul, L[i], [row[j] for row in R]), 0)
                      for j in range(n)] for i in range(n)])
    return transformed(random_form(field, d, n, s), mats)


METAMORPHIC_FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 5: F5, 9: F9}


def projective_count(Q, m):
    return (Q ** m - 1) // (Q - 1)


def kernel_lines(Q, n, d):
    """The lines the count_SF line kernel takes at d and Q, before Frobenius orbits."""
    return projective_count(Q, n) ** (d - 3) * projective_count(Q, n - 1)


# (q, L, n, d) over F_2, F_3, F_4, F_5, F_9, L <= 3, n <= 4, d in {3, 4}, with at
# most 2^13 projective (d-2)-tuples at level L, and L = 3 only where the line
# kernel takes at most 2^9 lines there
METAMORPHIC_SHAPES = [(q, L, n, d) for q in METAMORPHIC_FIELDS for L in (1, 2, 3) for n in (1, 2, 3, 4)
                      for d in (3, 4) if projective_count(q ** L, n) ** (d - 2) <= 1 << 13
                      and (L < 3 or kernel_lines(q ** L, n, d) <= 1 << 9)]
METAMORPHIC_KINDS = SF_KINDS + ("singular B", "pulled back", "partly deficient")


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(METAMORPHIC_SHAPES), st.sampled_from(METAMORPHIC_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_count_sf_invariant_under_slot_bases_and_permutations_property(shape, kind, s):
    """|S_F| is unchanged by (A_1, ..., A_d) in GL_n(F_q)^d acting slot by
    slot, and by all d! permutations of the slots. x -> (A_k x_k) is a
    bijection of the tuples, and F(.., A_d y) = 0 for all y exactly when
    F(.., y) = 0 for all y; the change of basis of the line kernel rests on
    this. Summing psi(F(x)) over all of V^d for a nontrivial additive
    character psi gives Q^n |S_F| whichever slot is summed last, so every
    slot may be the last. A permuted form hands the line kernel other
    pencils, and a non-concise one other pivot coordinates for its core.
    Every level of sf_profile up to L is compared: a permuted or re-based
    copy is another form, with its own plan (cubes and set-ups)."""
    q, L, n, d = shape
    field = METAMORPHIC_FIELDS[q]
    K, rnd = kernel(field), random.Random(s)
    F = singular_last_block(field, d, n, s) if kind == "singular B" and n > 1 else sf_test_form(kind, field, d, n, s)
    mats = []
    while len(mats) < d:
        A = [[rnd.randrange(q) for _ in range(n)] for _ in range(n)]
        if matrix_rank([row[:] for row in A], n, K) == n:
            mats.append(A)
    G, want = transformed(F, mats), sf_profile(F, L)
    for perm in itertools.permutations(range(d)):
        assert sf_profile(permuted(G, perm), L) == want, (mats, perm)


PLAN_KINDS = ("random", "partly deficient", "direct sum", "diagonal")
# (q, L, n, d) over F_2, F_3, F_4, F_5, F_9, 2 <= n <= 4, d in {3, 4}: the
# highest L <= 3, and at least 2, at which the line kernel takes at most 2^9 lines
PLAN_SHAPES = [(q, max(Ls), n, d) for q in METAMORPHIC_FIELDS for n in (2, 3, 4) for d in (3, 4)
               if (Ls := [L for L in (2, 3) if kernel_lines(q ** L, n, d) <= 1 << 9])]


def plan_test_form(kind, field, d, n, s):
    if kind == "direct sum":  # two random summands, of sides a and n - a
        a = 1 + s % (n - 1)
        return direct_sum(random_form(field, d, a, s), random_form(field, d, n - a, s + 1))
    if kind == "diagonal":
        return diagonal(s % (n + 1), n, d, field)
    return sf_test_form(kind, field, d, n, s)


@seed(20261022)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PLAN_SHAPES), st.sampled_from(PLAN_KINDS), st.integers(0, 2 ** 32 - 1))
def test_sf_profile_plan_matches_per_level_counts_property(shape, kind, s):
    """sf_profile counts every level of F through one plan: its cubes, and
    each d = 3 cube's characteristic polynomial set-up, made over F_q at the
    first level that takes that route and mapped into F_Q at the others.
    An equal but separate copy of F is counted level by level, top level
    first, with a fresh plan at each level, and by _count_sf_lines, which
    counts the whole form with no plan and solves its set-up over F_Q on
    every call; the literal enumeration joins where it fits. Both by the
    default route choice and with the characteristic polynomial route
    forced. Over F_4 and F_9 the indices of F_q and of F_Q differ, so a
    set-up left unmapped at l >= 2 would miscount; over a prime field they
    coincide on F_q."""
    q, L, n, d = shape
    F = plan_test_form(kind, METAMORPHIC_FIELDS[q], d, n, s)
    for chi in (None, True):
        with line_route(chi=chi):
            counting._plan.cache_clear()
            got = dict(sf_profile(F, L).entries)
            G = MultilinearForm(F.field, d, n, tuple(F.coeffs))
            for l in range(L, 0, -1):
                counting._plan.cache_clear()
                assert count_SF(G, l) == got[l], (chi, l)
                assert counting._count_sf_lines(G, l) == got[l], (chi, l)
                if (q ** l) ** (n * (d - 1)) <= 1 << 12:
                    assert count_SF_naive(G, l) == got[l], (chi, l)


CORE_FIELDS = {2: F2, 3: F3, 4: make_field(2, 2)}
WEIL_FIELDS = {2: make_field(2, 2), 3: F9}  # F_4 -> F_2, F_9 -> F_3
CORE_KINDS = ("diagonal", "weil", "pulled back", "partly deficient", "zero")
# (q, l, n, d, kind) over F_2, F_3, F_4, l <= 2, n <= 4, d in {3, 4}, with at most
# 2^13 projective (d-2)-tuples at level l; Weil restrictions need n even and q prime
CORE_CASES = [(q, l, n, d, kind) for q in CORE_FIELDS for l in (1, 2) for n in (1, 2, 3, 4)
              for d in (3, 4) for kind in CORE_KINDS
              if ((q ** (l * n) - 1) // (q ** l - 1)) ** (d - 2) <= 1 << 13
              and (kind != "weil" or (q in WEIL_FIELDS and n % 2 == 0))]


def core_test_form(kind, field, d, n, s):
    if kind == "weil":  # diag(m, n/2) over F_(q^2), m <= 2, restricted to F_q
        big = WEIL_FIELDS[field.q]
        return weil_restrict(diagonal(s % (min(2, n // 2) + 1), n // 2, d, big), embed(field, big))
    return sf_test_form(kind, field, d, n, s)


@seed(20261021)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CORE_CASES), st.integers(0, 2 ** 32 - 1))
def test_count_sf_concise_core_matches_oracle_property(case, s):
    """count_SF on forms of rank below n in every slot (counted on their
    concise core), in only some slots (counted as they stand) and the zero
    form, against the literal enumeration where it fits and one exact rank
    per slice otherwise."""
    q, l, n, d, kind = case
    F = core_test_form(kind, CORE_FIELDS[q], d, n, s)
    Q = q ** l
    want = count_SF_naive(F, l) if Q ** (n * (d - 1)) <= 1 << 12 else count_SF_points(F, l)
    assert count_SF(F, l) == want


def slot_ranks(F):
    """The rank of each slot's n x n^(d-1) flattening, by one matrix_rank each."""
    K, n, d = kernel(F.field), F.n, F.d
    index = list(itertools.product(range(n), repeat=d))
    return [matrix_rank([[c for idx, c in zip(index, F.coeffs) if idx[j] == i] for i in range(n)],
                        n ** (d - 1), K) for j in range(d)]


@pytest.mark.parametrize("kind,q,n,d", [("diagonal", 3, 4, 3), ("weil", 2, 4, 4), ("weil", 3, 4, 3),
                                        ("pulled back", 2, 4, 3), ("pulled back", 4, 3, 4),
                                        ("partly deficient", 3, 3, 3), ("partly deficient", 2, 3, 4)])
def test_concise_core_is_the_max_rank_cube(kind, q, n, d):
    """_concise_core keeps F when some slot has rank n, and otherwise returns
    a cube of side m = max slot rank on which every slot keeps its rank."""
    for s in range(6):
        F = core_test_form(kind, CORE_FIELDS[q], d, n, s)
        ranks = slot_ranks(F)
        if not any(ranks):
            continue
        core = counting._concise_core(F)
        if max(ranks) == n:
            assert core is F
        else:
            assert core.n == max(ranks) and slot_ranks(core) == ranks, (s, ranks)


def test_count_sf_gates_the_full_space_of_a_deficient_form():
    """The budget gate counts the full n, though the core of diag(1, 6) has m = 1."""
    D = diagonal(1, 6, 3, F2)
    assert counting._concise_core(D).n == 1
    with pytest.raises(BudgetError) as err:
        count_SF(D, 2, budget_bits=10)
    assert (err.value.what, err.value.bits, err.value.limit_bits) == ("S_F slice enumeration q^(l*n*(d-2))", 12, 10)
    assert count_SF(D, 2, budget_bits=12) == 4 ** 10 * 7  # x_0 y_0 = 0, the rest free


def block_coeffs(kind, K, sides, rnd):
    """{multi-index: value} of one nonzero summand of the given side per slot:
    random entries, a diagonal of random nonzero scalars, or v (x) G, of rank
    one in a random slot."""
    def nonzero(cells):
        vals = {idx: rnd.randrange(K.q) for idx in cells}
        vals[rnd.choice(cells)] = rnd.randrange(1, K.q)
        return vals

    cells = list(itertools.product(*map(range, sides)))
    if kind == "random":
        return nonzero(cells)
    if kind == "diagonal":
        return {(i,) * len(sides): rnd.randrange(1, K.q) for i in range(min(sides))}
    j = rnd.randrange(len(sides))
    v = nonzero([(i,) for i in range(sides[j])])
    G = nonzero(list(itertools.product(*map(range, sides[:j] + sides[j + 1:]))))
    return {idx: K.mul(v[idx[j:j + 1]], G[idx[:j] + idx[j + 1:]]) for idx in cells}


def scrambled_direct_sum(field, d, n, s):
    """1 to 4 summands on disjoint coordinates of an n-cube, each slot's
    coordinates scrambled by its own permutation. Each summand has a side
    of its own in each slot. s % 4 leaves one coordinate outside every
    summand in slot d-1 (bit 0) and in a slot below it (bit 1); the other
    slots may leave some out too."""
    K, rnd = kernel(field), random.Random(s)
    k = min(1 + s // 4 % 4, n - (s % 4 > 0))
    short = rnd.randrange(d - 1)
    sides = []
    for j in range(d):
        free = n - k - (j == d - 1 and s & 1) - (j == short and s // 2 & 1)
        cuts = sorted(rnd.randrange(k) for _ in range(rnd.randrange(free + 1)))
        sides.append([1 + cuts.count(c) for c in range(k)])
    perms = [rnd.sample(range(n), n) for _ in range(d)]
    entries = {}
    for c in range(k):
        start = [sum(sides[j][:c]) for j in range(d)]
        block = block_coeffs(rnd.choice(("random", "diagonal", "deficient")), K,
                             [sides[j][c] for j in range(d)], rnd)
        for idx, val in block.items():
            entries[tuple(perms[j][start[j] + i] for j, i in enumerate(idx))] = val
    return MultilinearForm.from_entries(field, d, n, entries)


# (q, l, n, d) over F_2, F_3, F_4, F_5, l <= 2, 2 <= n <= 5, d in {3, 4}, with at
# most 2^11 projective (d-2)-tuples at level l, so the whole form is cheap to count
SPLIT_SHAPES = [(q, l, n, d) for q in FIELDS for l in (1, 2) for n in (2, 3, 4, 5)
                for d in (3, 4) if ((q ** (l * n) - 1) // (q ** l - 1)) ** (d - 2) <= 1 << 11]


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPLIT_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_count_sf_direct_summands_property(shape, s):
    """count_SF multiplies the counts of the direct summands of a form with
    scrambled coordinates; it must agree with the line kernel on the whole
    form, and with the literal enumeration where it fits. Two or more
    summands leave at most (n-1)^d + 1 nonzero coefficients, the bound
    past which count_SF skips the component search."""
    q, l, n, d = shape
    F = scrambled_direct_sum(FIELDS[q], d, n, s)
    if len(counting._blocks(F)) >= 2:
        assert len(F.coeffs) - F.coeffs.count(0) <= (n - 1) ** d + 1
    want = counting._count_sf_lines(F, l)
    assert count_SF(F, l) == want
    if (q ** l) ** (n * (d - 1)) <= 1 << 14:
        assert count_SF_naive(F, l) == want


F4 = make_field(2, 2)
# of rank 3, 2 and 2 in its slots, supported on 3 x 2 x 2 coordinates
A322 = MultilinearForm.from_entries(F2, 3, 3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (2, 1, 0): 1})
# (name, form, side of its concise core, sides of the cubes _summands returns, in order)
SUMMAND_CASES = [
    ("zero", MultilinearForm.zeros(F2, 3, 3), 0, []),
    ("concise", random_form(F2, 3, 3, 1), 3, [3]),
    ("diagonal", diagonal(2, 3, 3, F2), 2, [1, 1]),
    ("weil", weil_restrict(diagonal(2, 2, 3, F4), embed(F2, F4)), 4, [2, 2]),
    ("unequal sides", direct_sum(diagonal(1, 2, 3, F2), random_form(F2, 3, 2, 1)), 3, [1, 2]),
    # (x, y, z) -> (x + y, y + z, x + z) has rank 2 over F_2; its kernel is spanned by (1, 1, 1)
    ("pulled back", transformed(random_form(F2, 3, 3, 0), [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]] * 3), 2, [2]),
    # summands of sides 3 x 2 x 2 and 2 x 3 x 2: the cubes' sides sum to more than the core's
    ("padded", direct_sum(A322, permuted(A322, (1, 0, 2))), 5, [3, 3]),
]


@pytest.mark.parametrize("name,F,core,sides", SUMMAND_CASES, ids=[c[0] for c in SUMMAND_CASES])
def test_summands_are_the_cubes_count_sf_counts(name, F, core, sides):
    """_summands: none for the zero form, a concise form itself, else its
    concise core split into direct summands padded to cubes. count_SF from
    the cubes matches the literal enumeration where it has at most 2^16
    tuples, and the whole form counted as one cube otherwise."""
    cubes = counting._summands(F)
    assert [C.n for C in cubes] == sides
    if core:
        assert counting._concise_core(F).n == core
    if name == "concise":
        assert cubes == [F]
    if name == "unequal sides":
        assert [count_SF(F, l) for l in (1, 2)] == [84, 5488]
    for l in (1, 2):
        naive = (F.field.q ** l) ** (F.n * (F.d - 1)) <= 1 << 16
        want = count_SF_naive(F, l) if naive else counting._count_sf_lines(F, l)
        assert count_SF(F, l) == want, l


def assert_frobenius_orbits(K, n, k, e):
    """counting._orbits(K, n, k, q), q = p^e, against FieldElement.frobenius.

    Its orbits must partition the k-tuples of projective points of F_Q^n,
    each named by its first tuple in product order, with its size.
    """
    pts = projective_points(K.q, n)
    pos = {u: i for i, u in enumerate(pts)}
    el = K.spec.element

    def frob(t):
        return tuple(tuple(el(x).frobenius(e).index for x in u) for u in t)

    covered = []
    for rep, size in counting._orbits(K, n, k, K.p ** e):
        orbit = [rep]
        while frob(orbit[-1]) != rep:
            orbit.append(frob(orbit[-1]))
        assert len(orbit) == size
        assert min(orbit, key=lambda t: [pos[u] for u in t]) == rep
        covered += orbit
    assert sorted(covered) == sorted(itertools.product(pts, repeat=k))


@pytest.mark.parametrize("p,e,n,k", [(1021, 1, 1, 1), (1021, 1, 1, 2), (3, 6, 1, 1),
                                     (3, 6, 1, 2), (2, 2, 3, 1), (2, 2, 3, 2)])
def test_orbits_at_q_equal_Q_are_single_tuples(p, e, n, k):
    K = kernel(make_field(p, e))
    tuples = list(itertools.product(projective_points(K.q, n), repeat=k))
    assert counting._orbits(K, n, k, K.q) == tuple((t, 1) for t in tuples)


def full_table_orbits(K, n, k, q):
    """_orbits as first built: Frobenius images from a table over all of F_Q."""
    pts = projective_points(K.q, n)
    frob = [K.pow(x, q) for x in range(K.q)]
    index = {u: i for i, u in enumerate(pts)}
    return counting._orbit_reps(pts, k, [[[index[tuple(frob[x] for x in u)] for u in pts]] * k])


# (p, e, n, k, q) with k >= 1 that one field-counts batch (seed 1) asks _orbits for
BATCH_ORBIT_KEYS = (
    [(2, e, n, 1, q) for e, n, q in [(1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 1, 4), (2, 2, 2),
                                     (2, 2, 4), (2, 3, 2), (3, 2, 2), (3, 2, 8), (3, 3, 2),
                                     (4, 1, 4), (4, 2, 2), (4, 2, 4), (4, 3, 2), (5, 2, 2),
                                     (5, 3, 2), (6, 1, 4), (6, 2, 2), (6, 2, 4), (7, 2, 2),
                                     (8, 2, 2), (8, 2, 4)]]
    + [(3, e, n, 1, q) for e, n, q in [(1, 1, 3), (1, 3, 3), (2, 1, 3), (2, 1, 9), (2, 3, 3),
                                       (3, 1, 3), (3, 3, 3), (4, 1, 3), (4, 1, 9), (5, 1, 3),
                                       (6, 1, 3)]]
    + [(5, 1, 3, 1, 5), (5, 2, 3, 1, 5)]
    + [(P, 1, 1, 1, P) for P in (857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937,
                                 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013,
                                 1019, 1021)])


def test_orbits_match_the_full_table_construction_on_a_batch():
    for p, e, n, k, q in BATCH_ORBIT_KEYS:
        K = kernel(make_field(p, e))
        assert counting._orbits(K, n, k, q) == full_table_orbits(K, n, k, q), (p, e, n, k, q)


BASE_FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 9: make_field(3, 2)}
# (q, l, n, d) over base fields F_2, F_3, F_4, F_9, l <= 4, n <= 3, d in {3, 4},
# with at most 2^13 projective (d-2)-tuples at level l for the per-point oracle
ORBIT_SHAPES = [(q, l, n, d) for q in BASE_FIELDS for l in (1, 2, 3, 4) for n in (1, 2, 3)
                for d in (3, 4) if ((q ** (l * n) - 1) // (q ** l - 1)) ** (d - 2) <= 1 << 13]


@seed(20241007)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORBIT_SHAPES), st.sampled_from(("random", "random", "diagonal", "rank-one")),
       st.integers(0, 2 ** 32 - 1))
def test_count_sf_frobenius_orbits_property(shape, kind, s):
    """count_SF at level l ranks one line (d = 3) or one prefix (d = 4) per
    orbit of x -> x^q; random and rank-one forms over F_4 and F_9 take
    coefficients outside the prime field, so x -> x^p is no symmetry."""
    q, l, n, d = shape
    field = BASE_FIELDS[q]
    F = sf_test_form(kind, field, d, n, s)
    count = count_SF(F, l)
    assert count == count_SF_points(F, l)
    assert counting._count_sf_lines(F, l) == count  # the full form, not its core
    if q ** (l * n * (d - 1)) <= 1 << 16:
        assert count == count_SF_naive(F, l)
    K = kernel(level_form(F, l).field)
    if d == 3:
        assert_frobenius_orbits(K, n - 1, 1, field.e)  # heads of the lines
    else:
        assert_frobenius_orbits(K, n, d - 3, field.e)  # contracted prefixes


def prefix_matrix(F, R, prefix):
    """M[j*n + i] = F(prefix, e_j, e_i) for d-2 blocks of n polynomials of
    degree < R, multiplied out term by term: (d-2)(R-1) + 1 coefficients each."""
    K = kernel(F.field)
    n, d = F.n, F.d
    M = []
    for j, i in itertools.product(range(n), repeat=2):
        acc = [0] * ((d - 2) * (R - 1) + 1)
        for idx in itertools.product(range(n), repeat=d - 2):
            term = [F.coeff(idx + (j, i)).index]
            for block, m in zip(prefix, idx):
                term = poly_mul(K, term, block[m])
            acc = [K.add(x, y) for x, y in zip(acc, term)]
        M.append(acc)
    return M


def prefix_rank(F, R, prefix):
    """Rank of the last block's system for one prefix, from prefix_matrix."""
    n, d = F.n, F.d
    rows = counting._last_block_system(prefix_matrix(F, R, prefix), n, R, (d - 1) * (R - 1) + 1)
    return matrix_rank(rows, n * R, kernel(F.field))


def count_NR_prefixes(F, R):
    """Oracle for count_NR: one exact rank per prefix tuple, no symmetry."""
    q, n, d = F.field.q, F.n, F.d
    polys = list(itertools.product(range(q), repeat=R))
    return sum(q ** (n * R - prefix_rank(F, R, prefix))
               for prefix in itertools.product(itertools.product(polys, repeat=n), repeat=d - 2))


NR_FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 5: F5, 9: make_field(3, 2)}
# (q, n, d, R) over F_2, F_3, F_4, F_5, F_9, n <= 2, d in {2, 3, 4}, R <= 4,
# with at most 2^12 prefix tuples for the oracle
NR_SHAPES = [(q, n, d, R) for q in NR_FIELDS for n in (1, 2) for d in (2, 3, 4)
             for R in (1, 2, 3, 4) if q ** (n * R * (d - 2)) <= 1 << 12]


@seed(20241008)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NR_SHAPES), st.sampled_from(("random", "random", "diagonal", "rank-one")),
       st.integers(0, 2 ** 32 - 1))
def test_count_nr_orbits_match_every_prefix_property(shape, kind, s):
    """count_NR ranks one prefix per orbit of GL_2(F_q) and block scaling;
    R >= 3 is where the translations and the reversal act."""
    q, n, d, R = shape
    F = sf_test_form(kind, NR_FIELDS[q], d, n, s)
    count = count_NR(F, R)
    assert count == count_NR_prefixes(F, R)
    if q ** (n * (d - 1) * R) <= 1 << 12:
        assert count == naive_count_NR(F, R)


def substitution_orbits(K, n, R, blocks):
    """Orbits of count_NR's prefix tuples, by direct substitution.

    The maps are x -> x(a t + b) for every a != 0 and b on every
    polynomial, computed by Horner's rule, the reversal of the R
    coefficients, and c * x on one block for every c != 0.
    """
    q, add, mul = K.q, K.add, K.mul

    def compose(c, a, b):
        out = [0] * R
        for x in reversed(c):
            nxt = [0] * R
            for s, v in enumerate(out):
                if v:
                    nxt[s] = add(nxt[s], mul(v, b))
                    nxt[s + 1] = add(nxt[s + 1], mul(v, a))
            nxt[0] = add(nxt[0], x)
            out = nxt
        return tuple(out)

    maps = [lambda t, a=a, b=b: tuple(compose(c, a, b) for c in t)
            for a in range(1, q) for b in range(q)]
    maps.append(lambda t: tuple(c[::-1] for c in t))
    maps += [lambda t, k=k, c=c: tuple(tuple(mul(c, x) for x in p) if j // n == k else p
                                       for j, p in enumerate(t))
             for k in range(blocks) for c in range(1, q)]
    orbit_of, orbits = {}, []
    for t in itertools.product(itertools.product(range(q), repeat=R), repeat=n * blocks):
        if t in orbit_of:
            continue
        orbit, todo = {t}, [t]
        while todo:
            u = todo.pop()
            for g in maps:
                v = g(u)
                if v not in orbit:
                    orbit.add(v)
                    todo.append(v)
        for u in orbit:
            orbit_of[u] = len(orbits)
        orbits.append(orbit)
    return orbit_of, orbits


@pytest.mark.parametrize("q, n, R, blocks", [
    (q, n, R, blocks) for q in NR_FIELDS for n in (1, 2) for R in (1, 2, 3, 4)
    for blocks in (1, 2) if q ** (n * R * blocks) <= 1 << 10])
def test_prefix_orbits_by_direct_substitution(q, n, R, blocks):
    """The orbit list of count_NR partitions the prefix tuples into orbits
    closed under the substitutions, each named by its first tuple in
    product order and weighted by its size."""
    K = kernel(NR_FIELDS[q])
    listed = counting._prefix_orbits(K, n, R, blocks)
    orbit_of, orbits = substitution_orbits(K, n, R, blocks)
    assert sum(size for _, size in listed) == q ** (n * R * blocks)
    assert sorted(orbit_of[rep] for rep, _ in listed) == list(range(len(orbits)))
    for rep, size in listed:
        orbit = orbits[orbit_of[rep]]
        assert rep == min(orbit)
        assert size == len(orbit)


def test_point_test_certifies_full_rank():
    """For every prefix tuple of the NR_SHAPES with at most 2^10 of them,
    _invertible_at_a_point passes exactly when the multiplied-out M(t) is
    invertible at t0 = 0, at infinity (its coefficient of t^((d-2)(R-1))) or
    at some t0 != 0, each determinant by Leibniz; when it passes, the last
    block's system has rank nR; and its answer is constant on each orbit of
    the substitutions. Some prefixes pass at infinity alone, and some only
    at points t0 != 0."""
    kinds = collections.Counter()
    for q, n, d, R in NR_SHAPES:
        if q ** (n * R * (d - 2)) > 1 << 10:
            continue
        K = kernel(NR_FIELDS[q])
        F = random_form(NR_FIELDS[q], d, n, 1000 * q + 100 * n + 10 * d + R)
        top = (d - 2) * (R - 1)

        def value(c, t0):
            return functools.reduce(lambda v, s: K.add(K.mul(v, t0), s), reversed(c), 0)

        orbit_of, orbits = substitution_orbits(K, n, R, d - 2)
        passes = {}
        for prefix in orbit_of:
            blocks = [prefix[k * n:(k + 1) * n] for k in range(d - 2)]
            M = prefix_matrix(F, R, blocks)
            points = [[c[0] for c in M], [c[top] for c in M]]
            points += [[value(c, t0) for c in M] for t0 in range(1, q)]
            units = [leibniz_det(P, n, K) != 0 for P in points]
            passes[prefix] = counting._invertible_at_a_point(F, blocks, K)
            assert passes[prefix] == any(units), (q, n, d, R, prefix)
            if passes[prefix]:
                assert prefix_rank(F, R, blocks) == n * R, (q, n, d, R, prefix)
            if not units[0] and units[1] != any(units[2:]):
                kinds["infinity only" if units[1] else "t0 != 0 only"] += 1
        for orbit in orbits:
            assert len({passes[p] for p in orbit}) == 1, (q, n, d, R, min(orbit))
    assert kinds["infinity only"] and kinds["t0 != 0 only"], kinds


def test_prefix_orbit_counts_pinned():
    """n = 2, d = 3, zero orbit included; a dropped generator leaves every
    count right but raises these."""
    for field, counts in ((F2, (5, 20, 56)), (F3, (6, 35, 171))):
        K = kernel(field)
        assert tuple(len(counting._prefix_orbits(K, 2, R, 1)) for R in (2, 3, 4)) == counts


BIG = 1 << 62  # values near it overflow int64 products, so exact integers matter


@st.composite
def box_cases(draw, max_log_space=11):
    """(G, box): d in {3, 4}, n <= 3, sparse coefficients, some near 2^62.

    The box is signed or unsigned, with a bound that keeps the full space
    width^(n(d-1)) within about 2^max_log_space; it always holds the zero
    prefix, and sparse forms give further prefixes with a zero system.
    """
    d = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(BIG - 3, BIG + 3),
                      st.integers(-BIG - 3, -BIG + 3))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=n ** d, max_size=n ** d))
    else:
        coeffs = [0] * n ** d
    G = IntMultilinearForm(d, n, tuple(coeffs))
    signed = draw(st.booleans())
    wmax = int(2 ** (max_log_space / (n * (d - 1))))
    bmax = (wmax + 1) // 2 if signed else wmax
    modulus = draw(st.sampled_from((None, 2, 3, 5, 4, 6, 12, 50)))
    return G, BoxSpec(draw(st.integers(1, max(bmax, 1))), signed=signed, modulus=modulus)


@seed(20241005)
@settings(max_examples=150, deadline=None)
@given(box_cases())
def test_box_lattice_matches_pure_property(case):
    G, box = case
    assert counting._box_lattice(G, box, True) == counting._box_pure(G, box, True)
    assert counting._box_lattice(G, box, False)[0] == counting._box_pure(G, box, False)[0]

"""Rank invariants: exact values, stabilization discipline, certificates."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from multirank.errors import BudgetError
from multirank.field import kernel, make_field
from multirank.counting import _count_sf_lines, count_SF, matrix_rank
from multirank.ranks import (
    CodimEstimate,
    ExactLogRank,
    HeightRankEstimate,
    PrkResult,
    ark_exact,
    brk_estimate,
    delta0_estimate,
    effective_constant,
    gamma_q_estimate,
    grk_estimate,
    prk_bounds,
    prk_exact_small,
    rank_one_catalog,
    str_exact_small,
    verify_rank_one_certificate,
    verify_strength_certificate,
)
from multirank.tensor import (
    HomogeneousForm,
    MultilinearForm,
    diagonal,
    direct_sum,
    int_diagonal,
    polarize,
    random_form,
    random_int_form,
    random_poly,
)
from multirank.rng import SplitMix64

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def all_tensors_f2_2_2_3():
    return [MultilinearForm(F2, 3, 2, tuple((bits >> k) & 1 for k in range(8)))
            for bits in range(256)]


# -- analytic rank ----------------------------------------------------------

def test_ark_identity_matrix():
    for n in (1, 2, 4):
        Id = diagonal(n, n, 2, F3)
        r = ark_exact(Id)
        assert r.count == 1
        assert r.float_value == float(n)


def test_ark_zero_tensor():
    Z = MultilinearForm.zeros(F2, 3, 2)
    r = ark_exact(Z)
    assert r.float_value == 0.0
    assert r.count == 2 ** 4


def test_ark_diagonal_example():
    D = diagonal(1, 1, 3, F2)
    r = ark_exact(D)
    assert r.count == 3 and r.base == 2 and r.ambient == 2
    assert abs(r.float_value - (2 - math.log2(3))) < 1e-12
    assert abs(r.float_value - 0.41504) < 1e-4


def test_ark_pure_power_is_integral():
    r = ExactLogRank(6, 5 ** 4, 5)
    assert r.float_value == 2.0
    assert ExactLogRank(4, 1, 7).float_value == 4.0


def test_ark_bounds_validation():
    with pytest.raises(ValueError):
        ExactLogRank(2, 0, 2)
    with pytest.raises(ValueError):
        ExactLogRank(2, 5, 2)


def test_ark_additive_under_direct_sum():
    rng = SplitMix64(2024)
    for _ in range(20):
        A = random_form(F2, 3, 2, rng.next_u64())
        B = random_form(F2, 3, 2, rng.next_u64())
        S = direct_sum(A, B)
        # S counted whole: count_SF itself would multiply its summands' counts
        ca, cb, cs = count_SF(A), count_SF(B), _count_sf_lines(S, 1)
        assert cs == ca * cb  # counts multiply, so float ranks add exactly


# -- geometric rank estimates -------------------------------------------------

def test_grk_diagonal_stabilizes():
    D = diagonal(2, 2, 3, F2)
    est = grk_estimate(D, l_max=8)
    assert est.stabilized == 2
    assert est.agree and est.gap < 0.25


def test_grk_matrix_rank_exact():
    rng = SplitMix64(55)
    for q, spec in [(2, F2), (3, F3), (5, F5)]:
        for _ in range(5):
            M = random_form(spec, 2, 4, rng.next_u64())
            K = kernel(spec)
            rows = [list(M.coeffs[i * 4:(i + 1) * 4]) for i in range(4)]
            r = matrix_rank(rows, 4, K)
            est = grk_estimate(M, l_max=2)
            assert est.stabilized == r
            assert est.gap == 0.0


def test_grk_zero_tensor():
    Z = MultilinearForm.zeros(F2, 3, 2)
    est = grk_estimate(Z, l_max=3)
    assert est.stabilized == 0


def test_grk_needs_two_levels():
    with pytest.raises(ValueError):
        grk_estimate(diagonal(1, 1, 3, F2), l_max=1)


# -- partition rank -----------------------------------------------------------

def test_prk_zero():
    Z = MultilinearForm.zeros(F2, 3, 2)
    res = prk_exact_small(Z)
    assert res.exact and res.lower == res.upper == 0
    assert res.certificate == ()


def test_prk_single_product_term():
    # x_1 * (y_1 z_1): one rank-one term
    F = MultilinearForm.from_entries(F2, 3, 2, {(0, 0, 0): 1})
    res = prk_exact_small(F)
    assert res.exact and res.lower == res.upper == 1
    assert verify_rank_one_certificate(F, res.certificate)


def test_prk_catalog_size_f2_2x2x2():
    tensors, terms, index = rank_one_catalog(F2, 2, 3)
    # 3 partitions x 3 projective x 15 nonzero = 135 raw terms before dedup
    raw = 3 * 3 * 15
    assert raw == 135
    assert len(tensors) <= raw
    # every catalog tensor has some flattening of rank 1
    K = kernel(F2)
    for t in tensors[:20]:
        F = MultilinearForm(F2, 3, 2, t)
        ranks = []
        for slots in [(0,), (0, 1), (0, 2)]:
            flat = F.flattening(slots)
            ranks.append(matrix_rank([r[:] for r in flat], len(flat[0]), K))
        assert 1 in ranks


def test_prk_diagonal_2_2_3():
    D = diagonal(2, 2, 3, F2)
    # lower bound: all three flattenings of the full tensor have rank 2
    K = kernel(F2)
    for slots in [(0,), (0, 1), (0, 2)]:
        flat = D.flattening(slots)
        assert matrix_rank([r[:] for r in flat], len(flat[0]), K) == 2
    res = prk_exact_small(D)
    assert res.exact and res.lower == res.upper == 2
    assert verify_rank_one_certificate(D, res.certificate)


def test_prk_exhaustive_matches_bfs_closure():
    # BFS oracle: levels of sums of rank-one tensors
    tensors, _, _ = rank_one_catalog(F2, 2, 3)
    rank1 = set(tensors)
    table = {(0,) * 8: 0}
    frontier = {(0,) * 8}
    level = 0
    while len(table) < 256:
        level += 1
        new = set()
        for f in frontier:
            for t in rank1:
                s = tuple(a ^ b for a, b in zip(f, t))
                if s not in table:
                    table[s] = level
                    new.add(s)
        frontier = new
    for F in all_tensors_f2_2_2_3():
        res = prk_exact_small(F)
        assert res.exact
        assert res.lower == table[F.coeffs]
        assert verify_rank_one_certificate(F, res.certificate)


def test_prk_matrix_case_certificates():
    rng = SplitMix64(808)
    for q, spec in [(2, F2), (5, F5)]:
        for _ in range(10):
            M = random_form(spec, 2, 5, rng.next_u64())
            K = kernel(spec)
            rows = [list(M.coeffs[i * 5:(i + 1) * 5]) for i in range(5)]
            r = matrix_rank(rows, 5, K)
            res = prk_exact_small(M)
            assert res.exact and res.lower == r
            assert verify_rank_one_certificate(M, res.certificate)


def test_prk_bounds_uses_ark_floor():
    D = diagonal(2, 2, 3, F2)
    res = prk_bounds(D)
    assert res.exact and res.lower == 2
    Z = MultilinearForm.zeros(F2, 3, 2)
    assert prk_bounds(Z).lower == 0


def test_prk_over_f4():
    F4 = make_field(2, 2)
    D = diagonal(2, 2, 3, F4)
    res = prk_exact_small(D)
    assert res.exact and res.lower == 2


def test_certificate_bytes_are_pinned():
    # reports print certificates, so the search must keep finding the same
    # first decomposition: same catalog order, same deepening order
    F4 = make_field(2, 2)
    forms = [*all_tensors_f2_2_2_3(), *(diagonal(m, 3, 3, F2) for m in range(3)),
             *(random_form(K, 3, 2, s) for K in (F3, F4, F5) for s in range(1, 6)),
             *(random_form(F2, 4, 2, s) for s in range(1, 4))]
    polys = [*(random_poly(F5, 3, 2, s) for s in range(1, 21)),
             *(random_poly(F3, 2, 3, s) for s in range(1, 6))]
    blob = json.dumps({"prk": [prk_exact_small(F).to_dict() for F in forms],
                       "str": [str_exact_small(f).to_dict() for f in polys]}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "39b641daa46c77d4982484d69ca4ab983d14959d2a0ab34e96374c6bbf9c0411")


@pytest.mark.parametrize("check, search", [
    ("verify_rank_one_certificate", lambda: prk_exact_small(diagonal(2, 2, 3, F2))),
    ("verify_strength_certificate",
     lambda: str_exact_small(HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1}))),
], ids=["prk", "str"])
def test_search_reports_no_certificate_that_fails_recheck(monkeypatch, check, search):
    monkeypatch.setattr(f"multirank.ranks.{check}", lambda *_: False)
    with pytest.raises(RuntimeError, match="re-verification"):
        search()


# -- strength -----------------------------------------------------------------

def test_str_zero():
    z = HomogeneousForm.zero(F5, 2, 3)
    res = str_exact_small(z)
    assert res.value == 0 and res.exact


def test_str_monomial():
    f = HomogeneousForm.from_terms(F5, 1, 3, {(3,): 1})
    res = str_exact_small(f)
    assert res.value == 1
    assert verify_strength_certificate(f, res.certificate)


def test_str_sum_of_cubes_is_one():
    # x^3 + y^3 = (x + y)(x^2 - xy + y^2): verified by expansion
    lhs = {(3, 0): 1, (0, 3): 1}
    expanded = {}
    for (e1, c1) in [((1, 0), 1), ((0, 1), 1)]:
        for (e2, c2) in [((2, 0), 1), ((1, 1), -1 % 5), ((0, 2), 1)]:
            key = (e1[0] + e2[0], e1[1] + e2[1])
            expanded[key] = (expanded.get(key, 0) + c1 * c2) % 5
    expanded = {k: v for k, v in expanded.items() if v}
    assert expanded == lhs
    f = HomogeneousForm.from_terms(F5, 2, 3, lhs)
    res = str_exact_small(f)
    assert res.value == 1 and res.exact
    assert verify_strength_certificate(f, res.certificate)


def test_str_generic_binary_cubic_is_at_most_two():
    rng = SplitMix64(99)
    for _ in range(10):
        f = random_poly(F5, 3, 2, rng.next_u64())
        if f.is_zero():
            continue
        res = str_exact_small(f)
        assert res.value in (1, 2)
        assert verify_strength_certificate(f, res.certificate)


# -- Birch rank ---------------------------------------------------------------

def test_brk_sum_of_cubes():
    f = HomogeneousForm.from_terms(F5, 2, 3, {(3, 0): 1, (0, 3): 1})
    est = brk_estimate(f, l_max=2)
    assert est.stabilized == 2


def test_brk_x2y():
    f = HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1})
    est = brk_estimate(f, l_max=2)
    assert est.stabilized == 1


def test_brk_product_form_at_most_two():
    # f = g*h: the singular locus contains {g = h = 0}, so Brk <= 2
    f = HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1, (1, 2): 1})  # xy(x+y)
    est = brk_estimate(f, l_max=2)
    assert est.stabilized is not None and est.stabilized <= 2
    s = str_exact_small(f)
    assert est.stabilized <= 2 * s.value


def test_brk_zero_poly():
    z = HomogeneousForm.zero(F5, 2, 3)
    est = brk_estimate(z, l_max=2)
    assert est.stabilized == 0


# -- height-rank estimators -----------------------------------------------------

def test_gamma_q_equals_ark_at_R1():
    for seed in range(5):
        F = random_form(F2, 3, 2, 7777 + seed)
        est = gamma_q_estimate(F, 2)
        assert est.entries[0][2] == est.floor  # identical float computation


def test_gamma_q_diagonal_example():
    D = diagonal(1, 1, 3, F2)
    est = gamma_q_estimate(D, 2)
    g2 = est.entries[1]
    assert g2[1] == 7
    assert abs(g2[2] - (2 - math.log2(7) / 2)) < 1e-12
    assert abs(g2[2] - 0.5963) < 1e-4
    assert g2[2] >= est.floor


def test_gamma_q_zero_tensor():
    Z = MultilinearForm.zeros(F2, 3, 2)
    est = gamma_q_estimate(Z, 3)
    assert est.values() == [0.0, 0.0, 0.0]


def test_gamma_q_dominates_ark():
    for seed in range(10):
        F = random_form(F3, 3, 2, 31_000 + seed)
        est = gamma_q_estimate(F, 3)
        for _, _, v in est.entries:
            assert v >= est.floor - 1e-12


def test_delta0_zero_form():
    from multirank.tensor import IntMultilinearForm
    Z = IntMultilinearForm.zeros(3, 1)
    est = delta0_estimate(Z, [10, 20])
    assert est.values() == [0.0, 0.0]


def test_delta0_xyz_mod_10():
    G = int_diagonal(1, 1, 3)
    brute = sum(1 for a in range(10) for b in range(10) if (a * b) % 10 == 0)
    est = delta0_estimate(G, [10])
    p, c, v = est.entries[0]
    assert c == brute
    assert abs(v - (2 - math.log(brute) / math.log(10))) < 1e-12


def test_delta0_prime_modulus_matches_mod_p_ark():
    # x*y*z with slots (x, y): kernel count mod prime L is 2L - 1
    G = int_diagonal(1, 1, 3)
    for L in (7, 11, 97):
        est = delta0_estimate(G, [L])
        _, c, v = est.entries[0]
        assert c == 2 * L - 1
        ark_mod = 2 - math.log(2 * L - 1) / math.log(L)
        assert abs(v - ark_mod) < 1e-12


# -- misc -----------------------------------------------------------------------

def test_effective_constant():
    assert effective_constant(3, 1) == 3 * 4 * 3  # 36
    assert effective_constant(2, 1) == 1 * 1 * 2


def test_d2_collapse_all_invariants_agree():
    rng = SplitMix64(0xC0)
    for q, spec in [(2, F2), (3, F3), (5, F5)]:
        for _ in range(5):
            M = random_form(spec, 2, 3, rng.next_u64())
            K = kernel(spec)
            rows = [list(M.coeffs[i * 3:(i + 1) * 3]) for i in range(3)]
            r = matrix_rank(rows, 3, K)
            assert ark_exact(M).float_value == float(r)
            assert grk_estimate(M, 2).stabilized == r
            assert prk_exact_small(M).lower == r

"""Prime-reduction scans and the mod-L lifting sieve."""

from __future__ import annotations

import math

import pytest

from multirank.charzero import (
    default_primes,
    lift_search,
    liminf_ark_scan,
    reduce_mod_p,
)
from multirank.errors import BudgetError
from multirank.field import is_prime
from multirank.counting import count_SF
from multirank.tensor import IntMultilinearForm, int_diagonal, random_int_form


def closed_form_diag_ark(m, p):
    """-m * log_p(1 - (1 - 1/p)^2), the diagonal d=3 analytic rank mod p."""
    return -m * math.log(1 - (1 - 1 / p) ** 2) / math.log(p)


def test_reduce_mod_p_examples():
    F = IntMultilinearForm.from_entries(2, 2, {(0, 0): 5, (1, 1): -1})
    R = reduce_mod_p(F, 5)
    assert R.coeff((0, 0)).index == 0
    assert R.coeff((1, 1)).index == 4
    D = int_diagonal(2, 2, 3)
    assert reduce_mod_p(D, 7).coeffs == tuple(c % 7 for c in D.coeffs)


def test_reduce_commutes_with_eval():
    from multirank.rng import SplitMix64
    rng = SplitMix64(71)
    F = random_int_form(3, 2, 9, 123)
    R = reduce_mod_p(F, 7)
    for _ in range(100):
        vecs = [[rng.int_between(-20, 20) for _ in range(2)] for _ in range(3)]
        expected = F.eval(vecs) % 7
        got = R.eval([[v % 7 for v in vec] for vec in vecs])
        assert got.index == expected


def test_reduce_rejects_composite():
    with pytest.raises(ValueError):
        reduce_mod_p(int_diagonal(1, 1, 3), 6)


def test_reduce_huge_prime_is_a_budget_stop(monkeypatch):
    def never(p):
        raise AssertionError(f"primality tested on a field past the gate: {p}")

    monkeypatch.setattr("multirank.field.is_prime", never)
    monkeypatch.setattr("multirank.charzero.is_prime", never)
    with pytest.raises(BudgetError):
        reduce_mod_p(int_diagonal(1, 1, 3), 2 ** 89 - 1)


def test_scan_diagonal_closed_form_small_primes():
    for m, n in [(1, 2), (2, 2)]:
        D = int_diagonal(m, n, 3)
        scan = liminf_ark_scan(D, primes=[5, 7])
        for p, r in zip(scan.primes, scan.ranks):
            # cross-check count exactly, then the closed form to 1e-12
            assert r.count == (2 * p - 1) ** m * p ** (2 * (n - m))
            assert abs(r.float_value - closed_form_diag_ark(m, p)) < 1e-12


def test_scan_zero_tensor():
    Z = IntMultilinearForm.zeros(3, 2)
    scan = liminf_ark_scan(Z, primes=[3, 5, 7])
    assert all(r.float_value == 0.0 for r in scan.ranks)
    assert scan.grk_estimate_Q == 0


def test_scan_matrix_unit():
    M = IntMultilinearForm.from_entries(2, 1, {(0, 0): 1})
    scan = liminf_ark_scan(M, primes=[3, 5, 7])
    assert all(r.float_value == 1.0 for r in scan.ranks)
    assert scan.grk_estimate_Q == 1


def test_scan_diagonal_estimate_near_997():
    for m in (1, 2):
        D = int_diagonal(m, 2, 3)
        scan = liminf_ark_scan(D, primes=[983, 991, 997])
        assert scan.grk_estimate_Q == m
        v997 = scan.ranks[-1].float_value
        assert abs(v997 - m) < 0.15 * m + 1e-9


def test_scan_running_min_monotone():
    F = random_int_form(3, 2, 4, 555)
    scan = liminf_ark_scan(F, primes=[3, 5, 7, 11, 13])
    assert all(a >= b for a, b in zip(scan.running_min, scan.running_min[1:]))


def test_default_primes_shape():
    D = int_diagonal(1, 2, 3)
    ps = default_primes(D)
    assert len(ps) == 25
    assert ps == sorted(ps)
    assert all(is_prime(p) for p in ps)
    assert ps[-1] <= 1024  # ceiling 2^(20/2) for n=2, d=3
    assert 997 in ps


def test_scan_estimate_uses_default_primes():
    D = int_diagonal(1, 2, 3)
    scan = liminf_ark_scan(D)
    assert scan.grk_estimate_Q == 1


def test_scan_default_primes_fit_its_own_budget():
    # the default prime list is drawn below the scan's budget, not a fixed 20 bits
    G = random_int_form(3, 2, 3, 5)
    scan = liminf_ark_scan(G, budget_bits=16)
    assert len(scan.primes) == 25
    assert all(G.n * (G.d - 2) * math.log2(p) <= 16 for p in scan.primes)


def test_lift_search_xyz_example():
    G = int_diagonal(1, 1, 3)
    rep = lift_search(G, 100, 0.4)
    assert rep.height_bound == 7
    assert rep.threshold_reached
    # axis points with |a|, |b| < 7: 13 + 13 - 1
    expected = {(a, 0) for a in range(-6, 7)} | {(0, b) for b in range(-6, 7)}
    assert set(rep.points) == expected
    assert len(rep.points) == 25
    assert rep.sieve_hits == 25
    assert abs(rep.dim_statistic - math.log(25) / math.log(100)) < 1e-12


def test_lift_search_zero_form_full_box():
    Z = IntMultilinearForm.zeros(3, 1)
    rep = lift_search(Z, 100, 0.4)
    assert len(rep.points) == 13 ** 2


def test_lift_search_points_reevaluate_to_zero():
    for seed in (1, 2, 3):
        G = random_int_form(3, 2, 3, seed)
        rep = lift_search(G, 1000, 0.4)
        n = G.n
        for sol in rep.points:
            vecs = [list(sol[k * n:(k + 1) * n]) for k in range(G.d - 1)]
            assert not any(G.contract_last(vecs))


def test_lift_search_sigma_gate():
    with pytest.raises(ValueError):
        lift_search(int_diagonal(1, 1, 3), 100, 0.5)


def test_scan_ark_matches_finite_field_path():
    F = random_int_form(3, 2, 5, 77)
    scan = liminf_ark_scan(F, primes=[11])
    assert scan.ranks[0].count == count_SF(reduce_mod_p(F, 11))

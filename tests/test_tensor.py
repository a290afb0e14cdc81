"""Structural algebra of multilinear forms and polynomials."""

from __future__ import annotations

import itertools
import math

import pytest

from multirank.errors import BudgetError
from multirank.field import embed, make_field
from multirank.rng import SplitMix64
from multirank.tensor import (
    HomogeneousForm,
    IntMultilinearForm,
    MultilinearForm,
    base_change,
    diagonal,
    direct_sum,
    int_diagonal,
    monomial_exponents,
    polarize,
    poly_base_change,
    random_form,
    random_int_form,
    random_poly,
    weil_restrict,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


def naive_eval(F, vectors):
    """Oracle: evaluate by summing over all multi-indices."""
    total = F.field.zero()
    for idx in itertools.product(range(F.n), repeat=F.d):
        term = F.coeff(idx)
        for k, i in enumerate(idx):
            term = term * F.field.element(vectors[k][i])
        total = total + term
    return total


def test_eval_single_monomial():
    F = diagonal(1, 1, 3, F2)
    one = F2.one()
    assert F.eval([[one], [one], [one]]) == one


def test_eval_matrix_basis_vectors():
    M = MultilinearForm.from_entries(F2, 2, 2, {(0, 1): 1})
    e1 = [F2.one(), F2.zero()]
    e2 = [F2.zero(), F2.one()]
    assert M.eval([e1, e2]) == F2.one()
    assert M.eval([e2, e1]) == F2.zero()


def test_eval_zero_slot_gives_zero():
    rng = SplitMix64(7)
    for _ in range(10):
        F = random_form(F3, 3, 2, rng.next_u64())
        x = [F3.element(rng.below(3)) for _ in range(2)]
        z = [F3.zero(), F3.zero()]
        assert F.eval([x, z, x]).is_zero()


def test_eval_matches_naive_sum():
    for seed in range(5):
        F = random_form(F5, 3, 2, 1000 + seed)
        rng = SplitMix64(seed)
        vecs = [[rng.below(5) for _ in range(2)] for _ in range(3)]
        assert F.eval(vecs) == naive_eval(F, vecs)


def test_contract_last_examples():
    D = diagonal(2, 2, 3, F2)
    one, zero = F2.one(), F2.zero()
    cv = D.contract_last([[one, zero], [one, zero]])
    assert [e.index for e in cv.entries] == [1, 0]
    Z = MultilinearForm.zeros(F2, 3, 2)
    assert Z.contract_last([[one, zero], [one, zero]]).is_zero()
    # hand expansion at ((1,1),(1,0)): entry i = x_{1,i} * x_{2,i}
    cv2 = D.contract_last([[one, one], [one, zero]])
    assert [e.index for e in cv2.entries] == [1, 0]
    # cross-check entries against eval with basis vectors in the last slot
    for i, ei in enumerate([[one, zero], [zero, one]]):
        assert D.eval([[one, one], [one, zero], ei]) == cv2.entries[i]


def test_slice_matrix_examples():
    Id = diagonal(2, 2, 2, F2)
    M = Id.slice_matrix([])
    assert [[e.index for e in row] for row in M] == [[1, 0], [0, 1]]
    D = diagonal(2, 2, 3, F2)
    one, zero = F2.one(), F2.zero()
    M1 = D.slice_matrix([[one, one]])
    assert [[e.index for e in row] for row in M1] == [[1, 0], [0, 1]]
    M2 = D.slice_matrix([[one, zero]])
    assert [[e.index for e in row] for row in M2] == [[1, 0], [0, 0]]


def test_slice_matrix_consistent_with_contract_last():
    F = random_form(F3, 3, 2, 99)
    rng = SplitMix64(5)
    x = [rng.below(3) for _ in range(2)]
    M = F.slice_matrix([x])
    for i in range(2):
        ei = [1 if k == i else 0 for k in range(2)]
        cv = F.contract_last([x, ei])
        assert list(cv.entries) == M[i]


def test_multilinearity_in_random_slot():
    rng = SplitMix64(0x511)
    for q, spec in [(2, F2), (3, F3), (4, F4)]:
        for trial in range(20):
            F = random_form(spec, 3, 2, rng.next_u64())
            slot = rng.below(3)
            u = [spec.element(rng.below(q)) for _ in range(2)]
            v = [spec.element(rng.below(q)) for _ in range(2)]
            lam = spec.element(rng.below(q))
            others = [[spec.element(rng.below(q)) for _ in range(2)] for _ in range(2)]
            args_u = others[:slot] + [u] + others[slot:]
            args_v = others[:slot] + [v] + others[slot:]
            w = [ui + lam * vi for ui, vi in zip(u, v)]
            args_w = others[:slot] + [w] + others[slot:]
            assert F.eval(args_w) == F.eval(args_u) + lam * F.eval(args_v)


def test_base_change_preserves_01_pattern():
    D = diagonal(2, 2, 3, F2)
    emb = embed(F2, F4)
    D4 = base_change(D, emb)
    assert D4.field == F4
    assert D4.coeffs == D.coeffs  # 0/1 pattern is fixed by any embedding


def test_base_change_commutes_with_eval():
    emb = embed(F3, make_field(3, 2))
    F = random_form(F3, 3, 2, 17)
    Fl = base_change(F, emb)
    rng = SplitMix64(3)
    for _ in range(100):
        vecs = [[rng.below(3) for _ in range(2)] for _ in range(3)]
        lifted = [[emb.apply(F3.element(x)) for x in v] for v in vecs]
        assert emb.apply(F.eval(vecs)) == Fl.eval(lifted)


def test_direct_sum_block_structure():
    D1 = diagonal(1, 1, 3, F2)
    Z = MultilinearForm.zeros(F2, 3, 2)
    S = direct_sum(D1, Z)
    assert S.n == 3
    assert S.coeff((0, 0, 0)).index == 1
    assert sum(1 for _ in S.entries()) == 1
    # diagonal(a) + diagonal(b) = diagonal(a+b)
    A, B = diagonal(1, 1, 3, F2), diagonal(2, 2, 3, F2)
    assert direct_sum(A, B).coeffs == diagonal(3, 3, 3, F2).coeffs


def test_direct_sum_mismatch():
    with pytest.raises(ValueError):
        direct_sum(diagonal(1, 1, 3, F2), diagonal(1, 1, 3, F3))
    with pytest.raises(ValueError):
        direct_sum(diagonal(1, 1, 3, F2), diagonal(1, 1, 2, F2))


def test_diagonal_family():
    Z = diagonal(0, 2, 3, F2)
    assert Z.is_zero()
    D = diagonal(1, 1, 3, F2)
    assert D.coeffs == (1,)
    with pytest.raises(ValueError):
        diagonal(3, 2, 3, F2)


def test_weil_restrict_gram_matrix_example():
    # F(x, y) = xy over F_4, restricted to F_2 in basis {1, theta}:
    # [[Tr(1), Tr(theta)], [Tr(theta), Tr(theta^2)]] = [[0, 1], [1, 1]]
    emb = embed(F2, F4)
    F = MultilinearForm.from_entries(F4, 2, 1, {(0, 0): 1})
    R = weil_restrict(F, emb)
    assert R.field == F2 and R.n == 2 and R.d == 2
    assert R.coeffs == (0, 1, 1, 1)


def test_weil_restrict_zero_and_shape():
    emb = embed(F2, F4)
    Z = MultilinearForm.zeros(F4, 3, 2)
    R = weil_restrict(Z, emb)
    assert R.is_zero() and R.n == 4 and R.field == F2


def test_weil_restrict_solution_sets_match():
    # S_{F_K}(K) = S_F(L) under the basis identification, checked pointwise
    emb = embed(F2, F4)
    F = diagonal(1, 1, 3, F4)
    R = weil_restrict(F, emb)
    ell = 2
    sols_L = set()
    for a in range(4):
        for b in range(4):
            if F.contract_last([[a], [b]]).is_zero():
                sols_L.add((a, b))
    sols_K = set()
    for bits in itertools.product(range(2), repeat=4):
        x, y = list(bits[:2]), list(bits[2:])
        if R.contract_last([x, y]).is_zero():
            # reassemble L-elements from theta-coordinates
            xa = x[0] + 2 * x[1]
            yb = y[0] + 2 * y[1]
            sols_K.add((xa, yb))
    assert len(sols_K) == len(sols_L)
    assert sols_K == sols_L


def test_polarize_bilinear_example():
    # f = xy over F_5: polarization is h1 k2 + h2 k1
    f = HomogeneousForm.from_terms(F5, 2, 2, {(1, 1): 1})
    P = polarize(f)
    assert P.coeff((0, 1)).index == 1
    assert P.coeff((1, 0)).index == 1
    assert P.coeff((0, 0)).index == 0
    assert P.coeff((1, 1)).index == 0


def test_polarize_cubic_example():
    # f = x^3 over F_5: polarization is 6 h k l = h k l
    f = HomogeneousForm.from_terms(F5, 1, 3, {(3,): 1})
    P = polarize(f)
    assert P.coeffs == (6 % 5,)


def test_polarize_zero():
    f = HomogeneousForm.zero(F5, 2, 3)
    assert polarize(f).is_zero()


def test_polarize_diagonal_identity():
    # F(x, ..., x) = d! f(x) on 100 random points
    f = random_poly(F5, 3, 2, 4242)
    P = polarize(f)
    rng = SplitMix64(11)
    fact = math.factorial(3) % 5
    for _ in range(100):
        x = [rng.below(5) for _ in range(2)]
        lhs = P.eval([x, x, x])
        rhs = F5.element(fact) * f.evaluate(x)
        assert lhs == rhs


def test_polarize_symmetry_all_permutations():
    F7 = make_field(7, 1)
    for d, n, seed in [(2, 2, 1), (3, 2, 2), (4, 2, 3)]:
        f = random_poly(F7, d, n, seed)
        P = polarize(f)
        rng = SplitMix64(seed)
        vecs = [[rng.below(7) for _ in range(n)] for _ in range(d)]
        base = P.eval(vecs)
        for perm in itertools.permutations(range(d)):
            assert P.eval([vecs[p] for p in perm]) == base


def test_polarize_characteristic_gate():
    f = HomogeneousForm.from_terms(F2, 1, 3, {(3,): 1})
    with pytest.raises(ValueError):
        polarize(f)
    f3 = HomogeneousForm.from_terms(F3, 1, 3, {(3,): 1})
    with pytest.raises(ValueError):
        polarize(f3)


def test_polarize_integer_coefficients():
    f = HomogeneousForm.from_terms(None, 2, 3, {(2, 1): 1})
    P = polarize(f)
    assert isinstance(P, IntMultilinearForm)
    rng = SplitMix64(2)
    for _ in range(50):
        x = [rng.int_between(-5, 5) for _ in range(2)]
        assert P.eval([x, x, x]) == 6 * f.evaluate(x)


def test_random_form_determinism():
    a = random_form(F3, 3, 2, 123)
    b = random_form(F3, 3, 2, 123)
    c = random_form(F3, 3, 2, 124)
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs


def test_random_coefficient_histogram():
    # 10^4 draws from F_3: each value within 5 sigma of 1/3
    rng = SplitMix64(31337)
    counts = [0, 0, 0]
    trials = 10_000
    for _ in range(trials):
        counts[rng.below(3)] += 1
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - trials / 3) < 5 * sigma


def test_random_int_form_bounds_and_determinism():
    F = random_int_form(3, 2, 3, 9)
    assert all(-3 <= c <= 3 for c in F.coeffs)
    assert F.coeffs == random_int_form(3, 2, 3, 9).coeffs


def test_int_form_eval_and_contract():
    G = int_diagonal(1, 1, 3)
    assert G.eval([[2], [3], [5]]) == 30
    assert G.contract_last([[2], [3]]) == (6,)
    Z = IntMultilinearForm.zeros(3, 2)
    assert Z.contract_last([[1, 2], [3, 4]]) == (0, 0)


def no_evaluation(self, point):
    raise AssertionError("polynomial evaluated before the storage gate")


@pytest.mark.parametrize("build", [
    lambda: IntMultilinearForm.from_entries(30, 10, {}),
    lambda: IntMultilinearForm.zeros(30, 10),
    lambda: random_int_form(30, 10, 1, 7),
    lambda: MultilinearForm.from_entries(F2, 30, 10, {}),
    lambda: MultilinearForm.zeros(F2, 10 ** 6, 10),
    lambda: random_form(F2, 30, 10, 7),
    lambda: polarize(HomogeneousForm.zero(None, 5000, 2)),
], ids=["int-from-entries", "int-zeros", "random-int", "from-entries", "huge-d-zeros", "random",
     "polarize"])
def test_storage_gate_runs_before_allocation(build, no_draws, monkeypatch):
    monkeypatch.setattr(HomogeneousForm, "evaluate_index", no_evaluation)
    with pytest.raises(BudgetError):
        build()


G_INT = int_diagonal(2, 2, 3)


@pytest.mark.parametrize("call", [
    lambda: G_INT.contract_last([[1], [1, 0]]),
    lambda: G_INT.contract_last([[1, 0, 1], [1, 0]]),
    lambda: G_INT.eval([[1, 0], [1, 0], [1]]),
    lambda: HomogeneousForm.from_terms(None, 2, 3, {(3, 0): 1}).evaluate([1]),
], ids=["int-contract-short", "int-contract-long", "int-eval-short", "poly-point-short"])
def test_vector_lengths_are_checked(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("digits", [(1,), (1, 1, 1)])
@pytest.mark.parametrize("use", ["eval", "contract_last", "slice_matrix", "from_entries",
                                 "from_terms", "evaluate"])
def test_digit_lists_need_exactly_e_digits(use, digits):
    one = (1, 0)
    D = diagonal(1, 2, 3, F4)
    f = HomogeneousForm.from_terms(F4, 2, 3, {(3, 0): one})
    calls = {
        "eval": lambda: D.eval([[digits, one], [one, one], [one, one]]),
        "contract_last": lambda: D.contract_last([[digits, one], [one, one]]),
        "slice_matrix": lambda: D.slice_matrix([[digits, one]]),
        "from_entries": lambda: MultilinearForm.from_entries(F4, 3, 2, {(0, 0, 0): digits}),
        "from_terms": lambda: HomogeneousForm.from_terms(F4, 2, 3, {(3, 0): digits}),
        "evaluate": lambda: f.evaluate([digits, one]),
    }
    with pytest.raises(ValueError):
        calls[use]()


def test_homogeneous_form_invariants():
    with pytest.raises(ValueError):
        HomogeneousForm(F5, 2, 3, (((1, 1), 1),))  # degree sum mismatch
    with pytest.raises(ValueError):
        HomogeneousForm(F5, 2, 2, (((1, 1), 0),))  # stored zero
    f = HomogeneousForm.from_terms(F5, 2, 2, {(1, 1): 0, (2, 0): 3})
    assert f.coeff_map() == {(2, 0): 3}



def test_homogeneous_form_rejects_negative_exponents():
    # (4, -1) sums to d = 3; evaluating it would divide
    with pytest.raises(ValueError, match="negative"):
        HomogeneousForm.from_terms(None, 2, 3, {(4, -1): 1})
    with pytest.raises(ValueError, match="negative"):
        HomogeneousForm(F5, 2, 3, (((4, -1), 1),))

def test_partial_derivatives():
    # f = x^2 y over F_5: grad = (2xy, x^2)
    f = HomogeneousForm.from_terms(F5, 2, 3, {(2, 1): 1})
    fx, fy = f.gradient()
    assert fx.coeff_map() == {(1, 1): 2}
    assert fy.coeff_map() == {(2, 0): 1}
    # integer variant
    g = HomogeneousForm.from_terms(None, 2, 3, {(2, 1): 4})
    assert g.partial(0).coeff_map() == {(1, 1): 8}


def test_poly_base_change_eval_commutes():
    F9 = make_field(3, 2)
    emb = embed(F3, F9)
    f = random_poly(F3, 3, 2, 5)
    g = poly_base_change(f, emb)
    rng = SplitMix64(8)
    for _ in range(50):
        x = [rng.below(3) for _ in range(2)]
        lifted = [emb.apply(F3.element(v)) for v in x]
        assert emb.apply(f.evaluate(x)) == g.evaluate(lifted)


def test_monomial_exponents():
    assert monomial_exponents(2, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(monomial_exponents(3, 2)) == 6

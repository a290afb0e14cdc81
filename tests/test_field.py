"""Field construction, arithmetic axioms, enumeration and embeddings."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirank.errors import BudgetError
from multirank.field import (
    FieldElement,
    FieldSpec,
    _is_irreducible,
    _poly_field_roots,
    _poly_mul_trunc,
    _poly_roots,
    embed,
    is_prime,
    kernel,
    make_field,
)
from multirank.rng import SplitMix64


def poly_is_irreducible_bruteforce(coeffs, p):
    """Oracle: no factorization into two lower-degree monic polynomials."""
    e = len(coeffs) - 1

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    for k in range(1, e // 2 + 1):
        for body_g in itertools.product(range(p), repeat=k):
            g = body_g + (1,)
            for body_h in itertools.product(range(p), repeat=e - k):
                h = body_h + (1,)
                if mul(g, h) == tuple(coeffs):
                    return False
    return True


def test_make_field_prime_trivial_modulus():
    spec = make_field(2, 1)
    assert spec.modulus == (0, 1)
    assert spec.q == 2


def test_make_field_f4_unique_irreducible_quadratic():
    # oracle: exhaustive scan of monic quadratics over F_2
    irreducibles = [
        body + (1,)
        for body in itertools.product(range(2), repeat=2)
        if poly_is_irreducible_bruteforce(body + (1,), 2)
    ]
    assert irreducibles == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_f9_modulus():
    # 2 is not a square mod 3 (squares are {0, 1}), so x^2 + 1 is irreducible
    squares = {(x * x) % 3 for x in range(3)}
    assert squares == {0, 1}
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_lex_least_among_irreducibles():
    # constant-first lexicographic order; cross-checked by full scan
    for p, e in [(2, 3), (2, 4), (3, 3), (5, 2)]:
        cands = [
            body + (1,)
            for body in itertools.product(range(p), repeat=e)
            if poly_is_irreducible_bruteforce(body + (1,), p)
        ]
        assert make_field(p, e).modulus == min(cands)


def trial_division_irreducible(coeffs, p):
    """Oracle: no monic polynomial of degree 1..e//2 leaves remainder 0."""
    e = len(coeffs) - 1
    for deg in range(1, e // 2 + 1):
        for body in itertools.product(range(p), repeat=deg):
            g = body + (1,)
            r = list(coeffs)
            for shift in range(e - deg, -1, -1):  # long division by monic g
                lead = r[shift + deg]
                for j in range(deg + 1):
                    r[shift + j] = (r[shift + j] - lead * g[j]) % p
            if not any(r):
                return False
    return True


def trial_division_modulus(p, e):
    """Oracle: the first monic irreducible in constant-first lexicographic order."""
    for body in itertools.product(range(p), repeat=e):
        if trial_division_irreducible(body + (1,), p):
            return body + (1,)


PRIME_POWERS_4096 = [(p, e) for p in range(2, 65) if is_prime(p)
                     for e in range(2, 13) if p ** e <= 4096]


@pytest.mark.parametrize("p,e", PRIME_POWERS_4096 + [(3, 11), (2, 16)])
def test_canonical_modulus_matches_trial_division(p, e):
    assert make_field(p, e).modulus == trial_division_modulus(p, e)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (5, 3), (7, 2), (2, 9)])
def test_rabin_test_matches_trial_division_on_every_monic(p, e):
    """Every monic polynomial of degree e, those divisible by x included."""
    for body in itertools.product(range(p), repeat=e):
        cand = body + (1,)
        assert _is_irreducible(cand, p) == trial_division_irreducible(cand, p), cand


def test_make_field_determinism_and_caching():
    a = make_field(2, 8)
    b = make_field(2, 8)
    assert a is b
    assert a.modulus == FieldSpec(2, 8, a.modulus).modulus


def test_make_field_rejects_nonprime_and_budget():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(1, 1)
    with pytest.raises(BudgetError):
        make_field(2, 21)
    with pytest.raises(BudgetError):
        make_field(1048583, 1)  # prime above 2^20


def test_huge_field_is_a_budget_stop_before_primality(monkeypatch):
    """The size gate runs in log space before trial division and p ** e:
    2^89 - 1 would take about 10^13 divisions, 3^(10^8) seconds to form."""
    def never(p):
        raise AssertionError(f"primality tested on a field past the gate: {p}")

    monkeypatch.setattr("multirank.field.is_prime", never)
    with pytest.raises(BudgetError):
        make_field(2 ** 89 - 1)
    with pytest.raises(BudgetError):
        FieldSpec(2 ** 89 - 1, 1, (0, 1))
    with pytest.raises(BudgetError):
        make_field(3, 10 ** 8)


def test_field_spec_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1, 0))  # not monic
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))  # wrong degree


def test_f4_arithmetic_examples():
    F4 = make_field(2, 2)
    one = F4.one()
    x = F4.generator()
    x_plus_1 = F4.element((1, 1))
    assert one * x == x
    assert x * x == x_plus_1  # reduce x^2 mod x^2 + x + 1
    assert x.inverse() == x_plus_1  # x * (x + 1) = x^2 + x = 1
    assert x * x_plus_1 == one


def test_arith_errors():
    F4 = make_field(2, 2)
    F2 = make_field(2, 1)
    with pytest.raises(ZeroDivisionError):
        F4.zero().inverse()
    with pytest.raises(ValueError):
        F4.one() + F2.one()


def test_enumeration_order():
    F2 = make_field(2, 1)
    assert [e.digits for e in F2.elements()] == [(0,), (1,)]
    F3 = make_field(3, 1)
    assert [e.digits for e in F3.elements()] == [(0,), (1,), (2,)]
    F4 = make_field(2, 2)
    assert [e.digits for e in F4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for spec in (F4, make_field(3, 2)):
        els = spec.elements()
        assert len(els) == spec.q
        assert els[0].is_zero()
        assert len(set(els)) == spec.q


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 4), (3, 2), (5, 2), (2, 8), (3, 4)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_random_triples(p, e):
    spec = make_field(p, e)
    K = kernel(spec)
    q = spec.q
    rng = SplitMix64(0xA10 + q)
    for _ in range(1000):
        a, b, c = rng.below(q), rng.below(q), rng.below(q)
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(a, b) == K.mul(b, a)
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        if a:
            assert K.mul(a, K.inv(a)) == 1
        assert K.add(a, K.neg(a)) == 0


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_frobenius_is_additive(p, e):
    spec = make_field(p, e)
    rng = SplitMix64(0xF0B + spec.q)
    els = spec.elements()
    for _ in range(100):
        a = els[rng.below(spec.q)]
        b = els[rng.below(spec.q)]
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


# every F_{p^e} with p odd, e > 1 and q <= 2^10, plus F_{5^5} and F_{3^7}
ODD_EXTENSIONS = [(p, e) for p in range(3, 32) if is_prime(p) for e in range(2, 7)
                  if p ** e <= 1 << 10] + [(5, 5), (3, 7)]


@pytest.mark.parametrize("p,e", ODD_EXTENSIONS)
def test_digit_block_add_table(p, e):
    """Zech-log add, sub and neg against digit-wise arithmetic mod p.

    Every pair up to q = 243 (F_9, F_25, F_27, F_49, F_81, F_121, F_125,
    F_243); a seeded sample of pairs above, with the pairs that sum to 0
    (the Zech sentinel) and those with a or b = 0 or 1 included.
    """
    q = p ** e
    K = kernel(make_field(p, e))
    index = K._index_direct

    def digits(i):
        return [i // p ** k % p for k in range(e)]

    def oracle(a, b, sign):
        return index([(x + sign * y) % p for x, y in zip(digits(a), digits(b))])

    if q <= 243:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = SplitMix64(0xADD + q)
        sample = [rng.below(q) for _ in range(300)]
        pairs = ([(a, b) for a in (0, 1, q - 1) for b in (0, 1, q - 1)]
                 + [(a, rng.below(q)) for a in sample]
                 + [(a, oracle(0, a, -1)) for a in sample])
    for a, b in pairs:
        assert K.add(a, b) == oracle(a, b, 1)
        assert K.sub(a, b) == oracle(a, b, -1)
        assert K.neg(b) == oracle(0, b, -1)


@pytest.mark.parametrize("p,e", [(2, 1), (1021, 1), (2, 8), (3, 6)])
def test_digit_table_matches_direct_digits(p, e):
    K = kernel(make_field(p, e))
    assert all(K.digits_of(i) == K._digits_direct(i) for i in range(p ** e))


@pytest.mark.parametrize("p,e", [(5, 1), (2, 3), (3, 2), (3, 11)])
def test_zero_to_a_negative_power_raises(p, e):
    zero = make_field(p, e).zero()
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    with pytest.raises(ZeroDivisionError):
        zero ** -3
    assert zero ** 0 == make_field(p, e).one()
    assert zero ** 2 == zero


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (5, 2)])
def test_negative_power_is_the_inverse(p, e):
    for a in make_field(p, e).elements()[1:]:
        assert a ** -1 == a.inverse()
        assert a ** -2 == (a * a).inverse()


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=24))
@settings(max_examples=60, deadline=None)
def test_f25_sub_mul_consistent_with_integers(ai, bi):
    # multiplication of digit polynomials matches reduction of integer polynomials
    spec = make_field(5, 2)
    a, b = spec.element(ai), spec.element(bi)
    assert (a - b) + b == a
    assert a * b == b * a
    assert (a + b) * (a + b) == a * a + a * b + a * b + b * b


def test_embed_prime_subfield():
    F2, F4 = make_field(2, 1), make_field(2, 2)
    emb = embed(F2, F4)
    assert emb.apply(F2.one()) == F4.one()
    assert emb.apply(F2.zero()) == F4.zero()


def test_embed_f4_in_f16():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    emb = embed(F4, F16)
    img = emb.image_of_generator
    # image is a root of x^2 + x + 1
    assert img * img + img + F16.one() == F16.zero()
    # least such root: no smaller index satisfies the equation
    K = kernel(F16)
    for z in range(img.index):
        if K.add(K.add(K.mul(z, z), z), 1) == 0:
            pytest.fail("embed did not pick the least root")


def test_embed_f9_in_f81():
    F9, F81 = make_field(3, 2), make_field(3, 4)
    emb = embed(F9, F81)
    img = emb.image_of_generator
    assert img * img == -F81.one()  # root of x^2 + 1


def test_embed_requires_divisibility_and_char():
    with pytest.raises(ValueError):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(ValueError):
        embed(make_field(2, 1), make_field(3, 1))


def test_embed_composition_lands_on_root():
    # F_4 -> F_16 -> F_256: the composite image is still a root of the F_4 modulus
    F4, F16, F256 = make_field(2, 2), make_field(2, 4), make_field(2, 8)
    e1, e2 = embed(F4, F16), embed(F16, F256)
    comp = e2.apply(e1.apply(F4.generator()))
    mod = F4.modulus
    acc = F256.zero()
    for c in reversed(mod):
        acc = acc * comp
        if c:
            acc = acc + F256.one()
    assert acc.is_zero()
    # ... and agrees with some direct embedding root (same minimal polynomial)
    direct = embed(F4, F256)
    acc2 = F256.zero()
    for c in reversed(mod):
        acc2 = acc2 * direct.image_of_generator
        if c:
            acc2 = acc2 + F256.one()
    assert acc2.is_zero()


def test_embedding_is_ring_hom_on_full_f4():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    emb = embed(F4, F16)
    els = F4.elements()
    for a in els:
        for b in els:
            assert emb.apply(a + b) == emb.apply(a) + emb.apply(b)
            assert emb.apply(a * b) == emb.apply(a) * emb.apply(b)
    images = {emb.apply(a) for a in els}
    assert len(images) == F4.q


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def poly_eval(K, f, x):
    acc = 0
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (2, 8), (3, 1), (3, 5), (5, 2), (7, 1), (1021, 1)])
def test_poly_root_helpers_against_evaluation(p, e):
    """_poly_field_roots is the product of (t - x) over the roots x in F_q of m,
    found by evaluating m everywhere; _poly_roots splits such a product back
    into its roots, and refuses a polynomial with no root."""
    K = kernel(make_field(p, e))
    rng = SplitMix64(p * 1000 + e)
    for _ in range(12):
        deg = 1 + rng.below(4)
        m = tuple(rng.below(K.q) for _ in range(deg)) + (1 + rng.below(K.q - 1),)
        roots = [x for x in range(K.q) if not poly_eval(K, m, x)]
        g = (1,)
        for x in roots:
            g = _poly_mul_trunc(g, (K.neg(x), 1), K)
        assert _poly_field_roots(m, K) == g
        assert sorted(_poly_roots(g, K)) == roots
    for k in range(1, min(K.q, 5) + 1):
        roots = sorted({rng.below(K.q) for _ in range(k)})
        g = (1,)
        for x in roots:
            g = _poly_mul_trunc(g, (K.neg(x), 1), K)
        assert sorted(_poly_roots(g, K)) == roots
    rootless = next(f for f in itertools.product(range(K.q), repeat=2)
                    if all(poly_eval(K, f + (1,), x) for x in range(K.q)))
    with pytest.raises(ArithmeticError):
        _poly_roots(rootless + (1,), K)

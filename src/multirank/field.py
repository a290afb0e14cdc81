"""Exact arithmetic in F_{p^e}.

Fields are described by a FieldSpec: characteristic p, extension degree e,
and a monic irreducible modulus of degree e over F_p (coefficient list,
constant term first). make_field(p, e) always picks the canonical modulus,
the lexicographically least monic irreducible, so specs are reproducible
byte for byte across runs and platforms. Elements are digit vectors of
length e with digits in [0, p).

Internally every element also has an index, the integer sum(digit[i]*p^i);
enumeration order is ascending index (zero first). Hot loops in the
counting kernels work on indices through the cached arithmetic kernel;
that is an internal representation choice, the public contract stays digit
vectors. Up to q = 2^16 each kernel keeps exp/log tables for a generator
g of F_q^*, and for odd p and e > 1 it adds by Zech logarithms: with
zech[k] = log(1 + g^k), a + b = g^(log a + zech[log b - log a]). So a
kernel's set-up builds a few tables of O(q) entries and no q x q table.
Above 2^16, odd-characteristic arithmetic works digit by digit.

Polynomials over F_q are coefficient tuples of element indices, constant
term first. The _poly_* helpers that take a kernel (product, remainder,
gcd, power mod m, the roots in F_q and their splitting) serve Rabin's
irreducibility test over F_p, the F_q[t] counters and the one zero
finder of count_SF's line kernel, which takes each line's polynomial in
the monomial basis on both of its routes; the F_q[t] counters also
contract forms whose entries are such polynomials (_contract_poly_first).
The matrix helpers beside them (elimination, rank and determinant, a
Gauss-Jordan solve, the characteristic polynomial by Hessenberg
reduction, the linear system of a matrix of polynomials
(_last_block_system)) work on element indices the same way, and
_unit_generator finds the least generator of F_q^*.

Embeddings between F_{p^e} and F_{p^{e*l}} are found by exhaustive root
search of the source modulus in the target, taking the least root, and are
checked exactly on construction: the map is F_p-linear by construction, so
1 -> 1 and the sums and products of the e^2 pairs of basis monomials x^i,
x^j prove it a ring homomorphism, and hence injective. No compatible tower
of embeddings is attempted: every base change goes through an explicitly
constructed FieldEmbedding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError

MAX_FIELD_SIZE = 1 << 20

# largest field order with precomputed digit, exp/log and Zech tables; above
# it ops fall back to direct polynomial arithmetic (correct, slower)
_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic (dense coefficient tuples, constant first)
# ---------------------------------------------------------------------------

def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    """a*b reduced modulo the monic polynomial mod, all over F_p, on raw digits (kernel builds)."""
    e = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return tuple(out)


# The helpers below work over any F_q, on element indices through a kernel K
# (its add, sub, mul, inv); Rabin's test runs them on the prime field's kernel.

def _poly_mul_trunc(a: Sequence[int], b: Sequence[int], K, trunc: int | None = None) -> tuple[int, ...]:
    """Convolution of coefficient tuples over the field, optionally mod t^trunc."""
    if not a or not b:
        return ()
    la, lb = len(a), len(b)
    size = la + lb - 1 if trunc is None else min(la + lb - 1, trunc)
    out = [0] * size
    add, mul = K.add, K.mul
    for i, ai in enumerate(a):
        if ai:
            jmax = size - i
            for j, bj in enumerate(b[:jmax]):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return tuple(out)


def _poly_add(a: Sequence[int], b: Sequence[int], K) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        if x:
            out[i] = K.add(out[i], x)
    return tuple(out)


def _contract_poly_first(flat: Sequence[Sequence[int]], slots: int, n: int,
                         vec: Sequence[Sequence[int]], K, trunc: int | None) -> list[tuple[int, ...]]:
    """Contract the first slot of a flat slots-slot array of polynomials with n polynomials.

    Each product is taken mod t^trunc when trunc is set (_poly_mul_trunc).
    """
    block = n ** (slots - 1)
    out: list[tuple[int, ...]] = [()] * block
    for i, x in enumerate(vec):
        if any(x):
            base = i * block
            for j in range(block):
                c = flat[base + j]
                if c:
                    out[j] = _poly_add(out[j], _poly_mul_trunc(x, c, K, trunc), K)
    return out


def _poly_divmod(a: Sequence[int], m: Sequence[int], K) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by m, both trimmed; m is trimmed and nonzero."""
    mul, sub = K.mul, K.sub
    k, lead = len(m) - 1, K.inv(m[-1])
    r, quo = list(a), []
    for i in range(len(r) - 1, k - 1, -1):
        f = mul(r[i], lead)
        quo.append(f)
        if f:
            for j in range(k):
                if m[j]:
                    r[i - k + j] = sub(r[i - k + j], mul(f, m[j]))
    return _poly_trim(quo[::-1]), _poly_trim(r[:k])


def _poly_gcd(a: Sequence[int], b: Sequence[int], K) -> tuple[int, ...]:
    """The monic gcd of a and b by Euclid's algorithm; () when both are zero."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, K)[1]
    if not a:
        return a
    lead = K.inv(a[-1])
    return tuple(K.mul(c, lead) for c in a)


def _poly_powmod(h: Sequence[int], k: int, m: Sequence[int], K) -> tuple[int, ...]:
    """h^k mod m for k >= 1 and deg m >= 1, squaring from the top bit of k.

    A square takes each cross product once, and none in characteristic 2;
    the reduction by the monic x^D = tail keeps no quotient.
    """
    add, mul = K.add, K.mul
    lead = K.inv(m[-1])
    tail = [K.neg(mul(c, lead)) for c in m[:-1]]  # x^D = sum_j tail[j] x^j mod m
    D, odd = len(tail), K.p != 2

    def reduce(prod: list[int]) -> list[int]:
        for i in range(len(prod) - 1, D - 1, -1):
            f = prod[i]
            if f:
                for j, c in enumerate(tail, i - D):
                    if c:
                        prod[j] = add(prod[j], mul(f, c))
        return prod[:D]

    acc = reduce(list(h))
    for bit in bin(k)[3:]:
        sq = [0] * (2 * len(acc) - 1)
        for i, x in enumerate(acc):
            if x:
                sq[2 * i] = add(sq[2 * i], mul(x, x))
                if odd:
                    x2 = add(x, x)
                    for j in range(i + 1, len(acc)):
                        if acc[j]:
                            sq[i + j] = add(sq[i + j], mul(x2, acc[j]))
        acc = reduce(sq)
        if bit == "1":
            acc = reduce(list(_poly_mul_trunc(acc, h, K)))
    return _poly_trim(acc)


def _poly_field_roots(m: Sequence[int], K) -> tuple[int, ...]:
    """gcd(m, t^q - t): the product of (t - x) over the distinct roots x of m in F_q.

    t^q mod m by repeated squaring; m is trimmed and of degree >= 1.
    """
    w = list(_poly_powmod((0, 1), K.q, m, K)) + [0, 0]
    w[1] = K.sub(w[1], 1)
    return _poly_gcd(m, w, K)


def _poly_roots(h: Sequence[int], K, start: int = 0) -> list[int]:
    """The roots of h, which must be a product of distinct linear factors over F_q.

    Deterministic equal-degree splitting. In odd characteristic the roots x
    with x + a a nonzero square are those of gcd(h, (t + a)^((q-1)/2) - 1),
    for a = 0, 1, ...; some a splits any two roots x != y, or else the
    (q-1)/2 nonzero squares would be closed under adding y - x, a union of
    cosets of a subgroup of order p, which p does not divide. In
    characteristic 2 the roots x with Tr(b x) = 0 are those of gcd(h,
    sum_{i<e} (b t)^(2^i)), for b = x^0, x^1, ..., x^(e-1): a basis of F_q
    over F_2, and the trace form is nondegenerate, so one of them splits
    any two roots. A candidate that does not split h splits none of its
    factors, so both parts go on from the next one.
    """
    if len(h) < 3:
        return [K.neg(K.mul(h[0], K.inv(h[1])))] if len(h) == 2 else []
    for c in range(start, K.e if K.p == 2 else K.q):
        if K.p == 2:
            w = s = _poly_divmod((0, 1 << c), h, K)[1]
            for _ in range(K.e - 1):
                s = _poly_powmod(s, 2, h, K)
                w = _poly_add(w, s, K)
        else:
            w = list(_poly_powmod((c, 1), (K.q - 1) // 2, h, K)) or [0]
            w[0] = K.sub(w[0], 1)
        g = _poly_gcd(h, w, K)
        if 1 < len(g) < len(h):
            return _poly_roots(g, K, c + 1) + _poly_roots(_poly_divmod(h, g, K)[0], K, c + 1)
    raise ArithmeticError("polynomial is not a product of distinct linear factors")


# The matrix helpers work on element indices through a kernel too; a matrix
# is a list of rows, or flat in row-major order with its size n.

def _square_rows(M: Sequence[int], n: int) -> list[list[int]]:
    return [list(M[i * n:(i + 1) * n]) for i in range(n)]


def _eliminate(rows: list[list[int]], ncols: int, K) -> tuple[list[int], list[int]]:
    """Gaussian elimination in place, without row swaps.

    A column's pivot is the first row, in the original order, that is not
    a pivot row yet and is nonzero there; the column is then cleared from
    the rows that are not pivot rows. Returns the pivot rows (original
    indices, in pivot order) and their columns. Their number is the rank,
    the matrix restricted to them is nonsingular, the reduced pivot row
    prows[k] is zero before column pcols[k], and the other rows end up zero.
    """
    mul, sub, inv = K.mul, K.sub, K.inv
    live = list(range(len(rows)))
    prows: list[int] = []
    pcols: list[int] = []
    for col in range(ncols):
        for piv in live:
            if rows[piv][col]:
                break
        else:
            continue
        live.remove(piv)
        prow = rows[piv]
        pinv = inv(prow[col])
        for r in live:
            rr = rows[r]
            v = rr[col]
            if v:
                f = mul(v, pinv)
                for c2 in range(col + 1, ncols):
                    if prow[c2]:
                        rr[c2] = sub(rr[c2], mul(f, prow[c2]))
                rr[col] = 0
        prows.append(piv)
        pcols.append(col)
        if not live:
            break
    return prows, pcols


def _last_block_system(M: Sequence[Sequence[int]], n: int, R: int,
                       nrows_deg: int) -> list[list[int]]:
    """Linear system over F_q for the last block.

    M[j*n + i] is the polynomial F(prefix, e_j, e_i); unknowns are the
    coefficients y_{j,s} (s < R) of the last block; equations are the
    t-coefficients of degree < nrows_deg of sum_j y_j * M[j][i], so
    nrows_deg = a gives the system mod t^a.
    """
    rows = []
    for i in range(n):
        for ell in range(nrows_deg):
            row = []
            for j in range(n):
                poly = M[j * n + i]
                for s in range(R):
                    k = ell - s
                    row.append(poly[k] if 0 <= k < len(poly) else 0)
            rows.append(row)
    return rows


def _rank_det(M: Sequence[int], n: int, K) -> tuple[int, int]:
    """Rank and determinant of the n x n matrix M, flat in row-major order.

    Cofactors for n <= 3, where the 2 x 2 minors also settle the rank of
    a singular 3 x 3 matrix. For larger n, _eliminate: the determinant is
    the product of the pivots, negated when the pivot rows are an odd
    permutation of 0..n-1.
    """
    if n > 3:
        rows = _square_rows(M, n)
        prows, pcols = _eliminate(rows, n, K)
        if len(prows) < n:
            return len(prows), 0
        det = functools.reduce(K.mul, [rows[i][c] for i, c in zip(prows, pcols)])
        odd = sum(a > b for k, a in enumerate(prows) for b in prows[k + 1:]) % 2
        return n, K.neg(det) if odd else det
    if n == 0:
        return 0, 1
    if n == 1:
        return (1 if M[0] else 0), M[0]
    mul, sub, add = K.mul, K.sub, K.add
    if n == 2:
        a, b, c, d = M
        det = sub(mul(a, d), mul(b, c))
        return (2 if det else 1 if a or b or c or d else 0), det
    a, b, c, d, e, f, g, h, i = M
    t1 = sub(mul(e, i), mul(f, h))
    t2 = sub(mul(d, i), mul(f, g))
    t3 = sub(mul(d, h), mul(e, g))
    det = sub(add(mul(a, t1), mul(c, t3)), mul(b, t2))
    if det:
        return 3, det
    if (t1 or t2 or t3 or sub(mul(a, e), mul(b, d)) or sub(mul(a, f), mul(c, d)) or
            sub(mul(b, f), mul(c, e)) or sub(mul(a, h), mul(b, g)) or
            sub(mul(a, i), mul(c, g)) or sub(mul(b, i), mul(c, h))):
        return 2, 0
    return (1 if any(M) else 0), 0


def _solve(A: Sequence[int], R: Sequence[Sequence[int]], n: int, K) -> list[list[int]] | None:
    """The rows of X with A X = R, for the flat n x n matrix A and the n rows of R; None if A is singular.

    Gauss-Jordan, swapping in the first row with a nonzero pivot; a column
    is dropped once it is cleared, so the rows end up holding X alone.
    """
    mul, sub = K.mul, K.sub
    rows = [list(A[i * n:(i + 1) * n]) + list(r) for i, r in enumerate(R)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][0]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        f = K.inv(rows[c][0])
        pr = [mul(f, x) for x in rows[c][1:]]
        rows = [pr if i == c else [sub(x, mul(row[0], y)) for x, y in zip(row[1:], pr)] if row[0] else row[1:]
                for i, row in enumerate(rows)]
    return rows


def _charpoly(M: Sequence[int], n: int, K) -> list[int]:
    """det(tI - M) for the flat n x n matrix M: n + 1 coefficients, constant first.

    n <= 3 in closed form from the trace, the principal 2 x 2 minors and
    the determinant. Larger n reduce M to upper Hessenberg form H by
    similarity (Cohen, GTM 138, Alg. 2.2.9): for m = 1..n-2, a row with a
    nonzero entry in column m-1, at or below row m, is swapped into row m
    (and its column with column m); then row i -= u row m clears H[i][m-1]
    for i > m, and column m += u column i keeps the similarity. The
    leading k x k blocks of H have the characteristic polynomials p_0 = 1,
    p_(m+1) = (t - h_mm) p_m - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_i.
    """
    add, sub, mul, neg = K.add, K.sub, K.mul, K.neg
    if n < 4:
        if n < 2:
            return [neg(M[0]), 1] if n else [1]
        if n == 2:
            a, b, c, d = M
            return [sub(mul(a, d), mul(b, c)), neg(add(a, d)), 1]
        a, b, c, d, e, f, g, h, i = M
        t1 = sub(mul(e, i), mul(f, h))
        det = add(sub(mul(a, t1), mul(b, sub(mul(d, i), mul(f, g)))), mul(c, sub(mul(d, h), mul(e, g))))
        minors = add(add(sub(mul(a, e), mul(b, d)), sub(mul(a, i), mul(c, g))), t1)
        return [neg(det), minors, neg(add(add(a, e), i)), 1]
    H = _square_rows(M, n)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        hm, pinv = H[m], K.inv(H[m][m - 1])
        for i in range(m + 1, n):
            u = H[i][m - 1]
            if u:
                u = mul(u, pinv)
                H[i] = [sub(x, mul(u, y)) if y else x for x, y in zip(H[i], hm)]
                for row in H:
                    if row[i]:
                        row[m] = add(row[m], mul(u, row[i]))
    p = [[1]]
    for m in range(n):
        pm, h = p[m], H[m][m]
        new = [0] + pm
        for k, x in enumerate(pm):
            new[k] = sub(new[k], mul(h, x))
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = mul(prod, H[i + 1][i])
            if not prod:
                break
            f = mul(H[i][m], prod)
            if f:
                for k, x in enumerate(p[i]):
                    new[k] = sub(new[k], mul(f, x))
        p.append(new)
    return p[n]


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin's test for the monic modulus f of degree e over F_p.

    f is irreducible iff x^(p^e) = x mod f and gcd(x^(p^(e/r)) - x, f) = 1
    for each prime r | e. The powers x^(p^k) mod f are taken by raising
    to the p-th power e times, with the F_q polynomial helpers above on
    the prime field's kernel (an F_p element's index is its digit).
    """
    e = len(modulus) - 1
    if e == 1:
        return True
    K = kernel(make_field(p))
    frob = [(0, 1)]
    for _ in range(e):
        frob.append(_poly_powmod(frob[-1], p, modulus, K))
    if frob[e] != frob[0]:
        return False
    for r in _prime_factors(e):
        h = list(frob[e // r]) + [0, 0]
        h[1] = (h[1] - 1) % p
        if len(_poly_gcd(h, modulus, K)) != 1:
            return False
    return True


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over F_p.

    Candidates are compared as constant-first coefficient lists, so
    itertools.product yields them in exactly the right order. Those with
    constant term 0 are divisible by x and skipped.
    """
    if e == 1:
        return (0, 1)
    for body in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        cand = body + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# field specs and elements
# ---------------------------------------------------------------------------

def _check_field(p: int, e: int) -> None:
    """ValueError unless p is prime and e >= 1; BudgetError past MAX_FIELD_SIZE.

    The size gate runs in log space before the primality test: trial
    division of a huge p, or p ** e for a huge e, would take hours.
    """
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    bits, limit = e * math.log2(p), math.log2(MAX_FIELD_SIZE)
    if bits > limit:
        raise BudgetError("field size p^e", bits, limit)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


@dataclass(frozen=True)
class FieldSpec:
    """F_{p^e} with an explicit monic irreducible modulus (constant term first)."""

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        _check_field(self.p, self.e)
        object.__setattr__(self, "modulus", tuple(int(c) for c in self.modulus))
        if len(self.modulus) != self.e + 1:
            raise ValueError(f"modulus must have degree {self.e}")
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(self.modulus, self.p):
            raise ValueError(f"modulus {list(self.modulus)} is reducible over F_{self.p}")

    @property
    def q(self) -> int:
        return self.p ** self.e

    def element(self, value) -> "FieldElement":
        """Build an element from a digit sequence, an index, or another element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            digits = kernel(self).digits_of(value % self.q)
            return FieldElement(self, digits)
        digits = tuple(int(v) % self.p for v in value)
        if len(digits) != self.e:
            raise ValueError(f"expected {self.e} digits, got {len(digits)}")
        return FieldElement(self, digits)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.e)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.e - 1))

    def generator(self) -> "FieldElement":
        """The class of x in F_p[x]/(modulus); equals 0 when e = 1."""
        if self.e == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def elements(self) -> list["FieldElement"]:
        """All q elements in digit-lexicographic order, zero first."""
        K = kernel(self)
        return [FieldElement(self, K.digits_of(i)) for i in range(self.q)]

    def descriptor(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FieldSpec:
    """Canonical FieldSpec for F_{p^e}; deterministic across runs and platforms."""
    _check_field(p, e)
    return FieldSpec(p, e, _canonical_modulus(p, e))


@dataclass(frozen=True)
class FieldElement:
    """Element of F_{p^e} as a digit vector of length e, digits in [0, p)."""

    spec: FieldSpec
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != self.spec.e:
            raise ValueError("wrong number of digits")
        p = self.spec.p
        if any(not (0 <= d < p) for d in self.digits):
            raise ValueError("digits must be reduced mod p")

    @property
    def index(self) -> int:
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.spec.p + d
        return acc

    def is_zero(self) -> bool:
        return not any(self.digits)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _peer(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if other.spec != self.spec:
            raise ValueError("mismatched FieldSpec")

    def __add__(self, other):
        self._peer(other)
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.add(self.index, other.index)))

    def __sub__(self, other):
        self._peer(other)
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.sub(self.index, other.index)))

    def __mul__(self, other):
        self._peer(other)
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.mul(self.index, other.index)))

    def __neg__(self):
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.neg(self.index)))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.inv(self.index)))

    def __pow__(self, k: int) -> "FieldElement":
        K = kernel(self.spec)
        return FieldElement(self.spec, K.digits_of(K.pow(self.index, k)))

    def frobenius(self, times: int = 1) -> "FieldElement":
        """a -> a^(p^times)."""
        return self ** (self.spec.p ** times)

    def __repr__(self):
        return f"FieldElement(q={self.spec.q}, digits={list(self.digits)})"


# ---------------------------------------------------------------------------
# arithmetic kernel on element indices
# ---------------------------------------------------------------------------

class _Kernel:
    """Index-level arithmetic for one FieldSpec.

    Indices encode digit vectors as integers in base p. Up to q = 2^16,
    multiplication, inversion and powers use discrete-log tables for a
    generator g of F_q^* (exp has 2(q-1) entries, so a sum of two logs
    needs no reduction), and so does addition when p is odd and e > 1:
    by Zech logarithms, a + b = a * (1 + b/a) = exp[log a + zech[log b -
    log a]], where zech[k] = log(1 + g^k), or -1 when 1 + g^k = 0. The
    difference of logs may be negative, and Python's negative indexing
    wraps it mod q - 1, as g^(q-1) = 1. Every table has O(q) entries.
    For p = 2 addition is XOR, in prime fields it is integer arithmetic
    mod p, and above 2^16 it works digit by digit. All closures are pure
    functions.
    """

    __slots__ = ("spec", "p", "e", "q", "add", "sub", "mul", "neg", "inv", "pow",
                 "digits_of", "_exp", "_log")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, e, q = spec.p, spec.e, spec.q
        self.p, self.e, self.q = p, e, q

        if e > 1 and q <= _TABLE_LIMIT:
            # product order is ascending index once each tuple is reversed
            digit_table = [ds[::-1] for ds in itertools.product(range(p), repeat=e)]
            self.digits_of = digit_table.__getitem__
        else:  # e = 1: an index is its own one digit, no table
            self.digits_of = self._digits_direct if e > 1 else lambda i: (i,)

        if e == 1:
            self._build_prime(p)
        elif p == 2:
            self._build_binary(spec)
        else:
            self._build_odd_ext(spec)

    def _digits_direct(self, idx: int) -> tuple[int, ...]:
        p, e = self.p, self.e
        out = []
        for _ in range(e):
            idx, r = divmod(idx, p)
            out.append(r)
        return tuple(out)

    def _index_direct(self, digits: Sequence[int]) -> int:
        acc = 0
        for d in reversed(digits):
            acc = acc * self.p + d
        return acc

    # -- prime field -------------------------------------------------------
    def _build_prime(self, p: int) -> None:
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.mul = lambda a, b: (a * b) % p
        self.neg = lambda a: (-a) % p
        self.inv = lambda a: pow(a, p - 2, p) if a else self._zero_div()
        self.pow = lambda a, k: pow(a, k, p) if a or k >= 0 else self._zero_div()

    @staticmethod
    def _zero_div():
        raise ZeroDivisionError("inversion of zero")

    # -- F_{2^e}: indices are coefficient bitmasks --------------------------
    def _build_binary(self, spec: FieldSpec) -> None:
        e, q = spec.e, spec.q
        mod_mask = 0
        for i, c in enumerate(spec.modulus):
            if c:
                mod_mask |= 1 << i

        def mul_raw(a: int, b: int) -> int:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
            for i in range(2 * e - 2, e - 1, -1):
                if (r >> i) & 1:
                    r ^= mod_mask << (i - e)
            return r

        self.add = lambda a, b: a ^ b
        self.sub = self.add
        self.neg = lambda a: a
        self._finish_mul(mul_raw, q)

    # -- F_{p^e}, p odd ------------------------------------------------------
    def _build_odd_ext(self, spec: FieldSpec) -> None:
        p, e, q = spec.p, spec.e, spec.q
        mod = spec.modulus
        digits_of = self.digits_of
        index_direct = self._index_direct

        def mul_raw(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return index_direct(_poly_mulmod(digits_of(a), digits_of(b), mod, p))

        self._finish_mul(mul_raw, q)
        if q <= _TABLE_LIMIT:
            exp_t, log_t = self._exp, self._log
            # index of x + 1: add 1 to the lowest digit, with no carry
            zech = tuple(log_t[y] if y else -1
                         for y in (x - x % p + (x + 1) % p for x in exp_t[:q - 1]))

            def add(a: int, b: int) -> int:
                if not a:
                    return b
                if not b:
                    return a
                la = log_t[a]
                z = zech[log_t[b] - la]
                return exp_t[la + z] if z >= 0 else 0
        else:
            def add(a: int, b: int) -> int:
                return index_direct([(x + y) % p for x, y in zip(digits_of(a), digits_of(b))])

        neg_tbl = tuple(index_direct([(-x) % p for x in digits_of(a)]) for a in range(q))
        self.add = add
        self.neg = neg_tbl.__getitem__
        self.sub = lambda a, b: add(a, neg_tbl[b])

    # -- multiplication via exp/log tables, or raw fallback -----------------
    def _finish_mul(self, mul_raw, q: int) -> None:
        if q > _TABLE_LIMIT:
            self.mul = mul_raw

            def pow_raw(a: int, k: int) -> int:
                if k < 0:
                    return pow_raw(self.inv(a), -k)
                r, base = 1, a
                while k:
                    if k & 1:
                        r = mul_raw(r, base)
                    base = mul_raw(base, base)
                    k >>= 1
                return r

            self.pow = pow_raw
            self.inv = lambda a: pow_raw(a, q - 2) if a else self._zero_div()
            return

        order = q - 1
        factors = _prime_factors(order)
        gen = None
        for cand in range(2, q):
            ok = True
            for f in factors:
                a, k = cand, order // f
                r = 1
                while k:
                    if k & 1:
                        r = mul_raw(r, a)
                    a = mul_raw(a, a)
                    k >>= 1
                if r == 1:
                    ok = False
                    break
            if ok:
                gen = cand
                break
        if gen is None:
            gen = 1  # q = 2: trivial multiplicative group

        exp = [1] * (2 * order)
        cur = 1
        for i in range(1, order):
            cur = mul_raw(cur, gen)
            exp[i] = cur
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        log = [0] * q
        for i in range(order):
            log[exp[i]] = i
        exp_t, log_t = tuple(exp), tuple(log)
        self._exp, self._log = exp_t, log_t

        def mul(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return exp_t[log_t[a] + log_t[b]]

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("inversion of zero")
            return exp_t[order - log_t[a]]

        def pw(a: int, k: int) -> int:
            if a == 0:
                if k < 0:
                    raise ZeroDivisionError("inversion of zero")
                return 0 if k else 1
            return exp_t[(log_t[a] * k) % order]

        self.mul, self.inv, self.pow = mul, inv, pw


@functools.lru_cache(maxsize=None)
def kernel(spec: FieldSpec) -> _Kernel:
    return _Kernel(spec)


def _unit_generator(K) -> int:
    """The least generator of F_q^*."""
    return next(c for c in range(1, K.q) if len({K.pow(c, i) for i in range(K.q - 1)}) == K.q - 1)


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldEmbedding:
    """Ring embedding F_{p^e} -> F_{p^{e*l}} determined by the generator image."""

    source: FieldSpec
    target: FieldSpec
    image_of_generator: FieldElement

    @property
    def degree(self) -> int:
        """l = [target : source]."""
        return self.target.e // self.source.e

    @functools.cached_property
    def _index_map(self):
        """(source digits_of, target add, target mul, images of 1, g, ..., g^(e-1))."""
        K = kernel(self.target)
        g = self.image_of_generator.index
        powers = [1]
        for _ in range(self.source.e - 1):
            powers.append(K.mul(powers[-1], g))
        return kernel(self.source).digits_of, K.add, K.mul, tuple(powers)

    def apply_index(self, idx: int) -> int:
        """Image in the target, on element indices."""
        digits_of, add, mul, powers = self._index_map
        acc = 0
        for d, gp in zip(digits_of(idx), powers):
            if d:
                # d is a prime-field scalar, whose index is d
                acc = add(acc, mul(d, gp))
        return acc

    def apply(self, a: FieldElement) -> FieldElement:
        if a.spec != self.source:
            raise ValueError("element does not belong to the embedding source")
        K = kernel(self.target)
        return FieldElement(self.target, K.digits_of(self.apply_index(a.index)))

    @functools.cached_property
    def _images(self) -> tuple[int, ...]:
        """apply_index of every source index, in index order: a table to map by."""
        return tuple(map(self.apply_index, range(self.source.q)))

    @functools.cached_property
    def preimage_index(self) -> dict[int, int]:
        """Map image index -> source index over the whole source field."""
        return {v: i for i, v in enumerate(self._images)}


def _check_embedding(emb: FieldEmbedding) -> None:
    """Raise RuntimeError unless emb is a ring embedding; exact, in O(e^2) operations.

    apply_index sends sum_i d_i x^i to sum_i d_i g^i, so it is F_p-linear
    by construction. A linear map with 1 -> 1 that respects the product of
    every pair of basis monomials x^i, x^j (i, j < e) respects every
    product, by bilinearity, and is a ring homomorphism; one of a field
    with 1 -> 1 has kernel 0. The sums of the same pairs check the linear
    part itself. A generator image that is not a root of the source
    modulus fails the product x^(e-1) x (e >= 2).
    """
    Ks, Kt, ap = kernel(emb.source), kernel(emb.target), emb.apply_index
    if ap(1) != 1:
        raise RuntimeError("embedding does not map 1 to 1")
    monomials = [emb.source.p ** i for i in range(emb.source.e)]
    for a, b in itertools.product(monomials, repeat=2):
        fa, fb = ap(a), ap(b)
        if ap(Ks.add(a, b)) != Kt.add(fa, fb):
            raise RuntimeError("embedding is not additive")
        if ap(Ks.mul(a, b)) != Kt.mul(fa, fb):
            raise RuntimeError("embedding is not multiplicative")


@functools.lru_cache(maxsize=None)
def embed(src: FieldSpec, tgt: FieldSpec) -> FieldEmbedding:
    """Embedding of src into tgt via the least root of src.modulus in tgt.

    Requires equal characteristic and src.e | tgt.e; a root always exists
    then. The least root in index (digit-lexicographic) order makes the
    result deterministic.
    """
    if src.p != tgt.p:
        raise ValueError("embeddings need equal characteristic")
    if tgt.e % src.e != 0:
        raise ValueError(f"degree {src.e} does not divide {tgt.e}")
    Kt = kernel(tgt)
    mod = src.modulus
    root = None
    for z in range(tgt.q):
        # Horner evaluation of src.modulus at z; coefficients are prime
        # scalars, and a prime scalar c < p has index c
        acc = 0
        for c in reversed(mod):
            acc = Kt.add(Kt.mul(acc, z), c)
        if acc == 0:
            root = z
            break
    if root is None:
        raise RuntimeError("no root found; modulus invariants violated")  # unreachable under pre
    emb = FieldEmbedding(src, tgt, FieldElement(tgt, Kt.digits_of(root)))
    _check_embedding(emb)
    return emb

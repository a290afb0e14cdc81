"""Multilinear forms and homogeneous polynomials.

A MultilinearForm is a dense coefficient array of a d-linear map on an
n-dimensional space over F_{p^e}; IntMultilinearForm is the same shape with
arbitrary-precision integer entries. HomogeneousForm is a sparse
degree-d polynomial. Structural algebra lives here: evaluation,
contraction, matrix slices, base change, Weil restriction through the
trace form, direct sums, the diagonal family, polarization by finite
differences, and seeded random generators.

Coefficients of field forms are stored as element indices (an internal
encoding; see multirank.field); accessors hand out FieldElement digit
vectors. A field coefficient or vector entry given here is an int, taken
mod q as an index, or else anything FieldSpec.element accepts (a
FieldElement of the same field, or exactly e digits). Every dense
constructor raises BudgetError when n^d > MAX_TENSOR_ENTRIES = 2^24,
before it allocates or draws anything. All objects are immutable and
safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BudgetError
from .field import FieldElement, FieldEmbedding, FieldSpec, kernel
from .rng import SplitMix64

MAX_TENSOR_ENTRIES = 1 << 24


def _offsets(n: int, d: int) -> tuple[int, ...]:
    """Row-major strides: index of (i_1..i_d) is sum(i_k * n^(d-k))."""
    return tuple(n ** (d - 1 - k) for k in range(d))


def _check_storage(n: int, d: int) -> int:
    """n^d for d >= 2 slots of dimension n >= 1; BudgetError past MAX_TENSOR_ENTRIES."""
    if d < 2:
        raise ValueError("need at least 2 slots")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    bits = d * math.log2(n)  # n ** d itself takes seconds once d is in the millions
    if bits > 24:  # log2(MAX_TENSOR_ENTRIES)
        raise BudgetError("tensor storage n^d", bits, 24)
    return n ** d


def _coerce(field: FieldSpec, value) -> int:
    """Element index of an int (taken mod q), a FieldElement or a digit sequence."""
    if isinstance(value, int):
        return value % field.q
    return field.element(value).index


@dataclass(frozen=True)
class Covector:
    """A linear functional, the result of contracting all but one slot."""

    field: FieldSpec
    n: int
    entries: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.entries) != self.n:
            raise ValueError("covector has wrong length")

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)


class _DenseForm:
    """What the dense forms share: shape, storage, indexing, prefix contraction.

    A subclass has fields d, n and coeffs (n^d entries, row-major) and
    supplies _value (stored coefficient to public value) and _contract_first.
    """

    def _check_shape(self) -> None:
        size = _check_storage(self.n, self.d)
        if len(self.coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self.coeffs)}")

    @staticmethod
    def _flat_coeffs(d: int, n: int, entries: Mapping[tuple[int, ...], object],
                     value) -> tuple[int, ...]:
        """Row-major coefficients of {multi-index: value(entry)}, zero elsewhere."""
        coeffs = [0] * _check_storage(n, d)
        off = _offsets(n, d)
        for idx, val in entries.items():
            if len(idx) != d or any(not (0 <= i < n) for i in idx):
                raise ValueError(f"bad multi-index {idx}")
            coeffs[sum(i * o for i, o in zip(idx, off))] = value(val)
        return tuple(coeffs)

    def coeff(self, idx: Sequence[int]):
        off = _offsets(self.n, self.d)
        return self._value(self.coeffs[sum(i * o for i, o in zip(idx, off))])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def entries(self) -> Iterable[tuple[tuple[int, ...], object]]:
        """Nonzero entries as (multi-index, value) pairs, row-major order."""
        value = self._value
        for idx, c in zip(itertools.product(range(self.n), repeat=self.d), self.coeffs):
            if c:
                yield idx, value(c)

    def _contract_prefix(self, vectors: Sequence[Sequence[int]],
                         k: int | None = None) -> Sequence[int]:
        """Contract the first len(vectors) slots, in order, with the given vectors.

        With k, require exactly k vectors, each of length n.
        """
        if k is not None and len(vectors) != k:
            raise ValueError(f"expected {k} vectors")
        flat: Sequence[int] = self.coeffs
        slots, n = self.d, self.n
        for v in vectors:
            if k is not None and len(v) != n:
                raise ValueError(f"vector length {len(v)} != dimension {n}")
            flat = self._contract_first(flat, slots, v)
            slots -= 1
        return flat


@dataclass(frozen=True)
class MultilinearForm(_DenseForm):
    """Dense d-linear form on an n-dimensional space over a finite field.

    coeffs holds the n^d element indices in row-major multi-index order.
    """

    field: FieldSpec
    d: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        self._check_shape()
        q = self.field.q
        if any(not (0 <= c < q) for c in self.coeffs):
            raise ValueError("coefficient index out of range")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, d: int, n: int) -> "MultilinearForm":
        return cls(field, d, n, (0,) * _check_storage(n, d))

    @classmethod
    def from_entries(cls, field: FieldSpec, d: int, n: int,
                     entries: Mapping[tuple[int, ...], object]) -> "MultilinearForm":
        return cls(field, d, n, cls._flat_coeffs(d, n, entries, lambda v: _coerce(field, v)))

    # -- evaluation and contraction -------------------------------------------

    def _value(self, c: int) -> FieldElement:
        return self.field.element(c)

    def _indices(self, vectors: Sequence[Sequence]) -> list[list[int]]:
        field = self.field
        return [[_coerce(field, x) for x in v] for v in vectors]

    @functools.cached_property
    def _kernel(self):
        """The field kernel, taken once per form rather than once per contraction."""
        return kernel(self.field)

    def _contract_first(self, flat: Sequence[int], slots: int, vec_idx: Sequence[int]) -> list[int]:
        """Contract the first slot of a flat slots-slot array with a vector."""
        n = self.n
        K = self._kernel
        block = n ** (slots - 1)
        out = [0] * block
        add, mul = K.add, K.mul
        for i, x in enumerate(vec_idx):
            if x:
                base = i * block
                if x == 1:
                    for j in range(block):
                        c = flat[base + j]
                        if c:
                            out[j] = add(out[j], c)
                else:
                    for j in range(block):
                        c = flat[base + j]
                        if c:
                            out[j] = add(out[j], mul(x, c))
        return out

    def eval(self, vectors: Sequence[Sequence]) -> FieldElement:
        """F(x_1, ..., x_d)."""
        return self.field.element(self._contract_prefix(self._indices(vectors), self.d)[0])

    def contract_last(self, vectors: Sequence[Sequence]) -> Covector:
        """The covector F(x_1, ..., x_{d-1}, .)."""
        flat = self._contract_prefix(self._indices(vectors), self.d - 1)
        return Covector(self.field, self.n, tuple(self.field.element(c) for c in flat))

    def slice_matrix(self, vectors: Sequence[Sequence]) -> list[list[FieldElement]]:
        """M[i][j] = F(x_1, ..., x_{d-2}, e_i, e_j)."""
        flat = self._contract_prefix(self._indices(vectors), self.d - 2)
        n = self.n
        el = self.field.element
        return [[el(flat[i * n + j]) for j in range(n)] for i in range(n)]

    def flattening(self, slots: Sequence[int]) -> list[list[int]]:
        """Matrix of coefficient indices, rows indexed by the given slot subset."""
        subset = tuple(sorted(slots))
        comp = tuple(k for k in range(self.d) if k not in subset)
        if not subset or not comp:
            raise ValueError("flattening needs a proper nonempty slot subset")
        n = self.n
        off = _offsets(n, self.d)
        rows = []
        for ridx in itertools.product(range(n), repeat=len(subset)):
            row = []
            base = sum(i * off[s] for i, s in zip(ridx, subset))
            for cidx in itertools.product(range(n), repeat=len(comp)):
                row.append(self.coeffs[base + sum(i * off[s] for i, s in zip(cidx, comp))])
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# structured constructors and algebra
# ---------------------------------------------------------------------------

def diagonal(m: int, n: int, d: int, field: FieldSpec) -> MultilinearForm:
    """sum_{i<m} x_{1,i} * ... * x_{d,i}; requires m <= n."""
    if m > n:
        raise ValueError(f"m = {m} exceeds dimension n = {n}")
    entries = {(i,) * d: 1 for i in range(m)}
    return MultilinearForm.from_entries(field, d, n, entries)


def direct_sum(F: MultilinearForm, G: MultilinearForm) -> MultilinearForm:
    """Block-diagonal sum on an (n_F + n_G)-dimensional space."""
    if F.field != G.field or F.d != G.d:
        raise ValueError("direct sum needs equal fields and slot counts")
    n, d = F.n + G.n, F.d
    entries: dict[tuple[int, ...], int] = {}
    for idx, val in F.entries():
        entries[idx] = val.index
    for idx, val in G.entries():
        entries[tuple(i + F.n for i in idx)] = val.index
    return MultilinearForm.from_entries(F.field, d, n, entries)


def base_change(F: MultilinearForm, emb: FieldEmbedding) -> MultilinearForm:
    """Coefficients mapped through the embedding; d and n unchanged."""
    if F.field != emb.source:
        raise ValueError("form is not defined over the embedding source")
    # past degree 1 the source has at most 2^10 elements (the target at most
    # MAX_FIELD_SIZE = 2^20), so its image table is small and built once
    ap = emb._images.__getitem__ if emb.degree > 1 else emb.apply_index
    return MultilinearForm(emb.target, F.d, F.n, tuple(map(ap, F.coeffs)))


def weil_restrict(F: MultilinearForm, emb: FieldEmbedding) -> MultilinearForm:
    """Restriction of scalars along emb, realized through the trace form.

    Writing L for the big field and K = emb.source, each slot of the result
    is K^(l*n), identified with L^n via the K-basis {theta^0..theta^(l-1)}
    (theta = canonical generator of L). The returned form is
    Tr_{L/K}(F(...)), which has the same solution set for the
    all-but-one-slot contraction because the trace pairing of a finite
    extension is nondegenerate.
    """
    if F.field != emb.target:
        raise ValueError("form is not defined over the embedding target")
    L, Kspec = F.field, emb.source
    ell = emb.degree
    p, eK = L.p, Kspec.e
    KL = kernel(L)
    n, d = F.n, F.d
    theta = L.generator().index

    # trace to the subfield: sum of Frobenius^(eK*i), i < ell
    qK = Kspec.q
    pre = emb.preimage_index

    def trace_down(z: int) -> int:
        acc, cur = 0, z
        for _ in range(ell):
            acc = KL.add(acc, cur)
            cur = KL.pow(cur, qK)
        res = pre.get(acc)
        if res is None:
            raise RuntimeError("trace left the subfield image")  # unreachable
        return res

    theta_pows = [1]
    for _ in range((ell - 1) * d):
        theta_pows.append(KL.mul(theta_pows[-1], theta))

    nK = ell * n
    offK = _offsets(nK, d)
    offL = _offsets(n, d)
    coeffs = [0] * _check_storage(nK, d)
    # coordinate (j, i) of K^(l*n) sits at j*ell + i and stands for e_j * theta^i
    for jidx in itertools.product(range(n), repeat=d):
        c = F.coeffs[sum(j * o for j, o in zip(jidx, offL))]
        if not c:
            continue
        for iidx in itertools.product(range(ell), repeat=d):
            val = trace_down(KL.mul(c, theta_pows[sum(iidx)]))
            if val:
                flat = sum((j * ell + i) * o for j, i, o in zip(jidx, iidx, offK))
                coeffs[flat] = val
    return MultilinearForm(Kspec, d, nK, tuple(coeffs))


def random_form(field: FieldSpec, d: int, n: int, seed: int) -> MultilinearForm:
    """Uniform i.i.d. coefficients from SplitMix64(seed)."""
    size = _check_storage(n, d)
    rng = SplitMix64(seed)
    q = field.q
    return MultilinearForm(field, d, n, tuple(rng.below(q) for _ in range(size)))


# ---------------------------------------------------------------------------
# integer tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMultilinearForm(_DenseForm):
    """Dense d-linear form with arbitrary-precision integer coefficients."""

    d: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        self._check_shape()

    @classmethod
    def zeros(cls, d: int, n: int) -> "IntMultilinearForm":
        return cls(d, n, (0,) * _check_storage(n, d))

    @classmethod
    def from_entries(cls, d: int, n: int,
                     entries: Mapping[tuple[int, ...], int]) -> "IntMultilinearForm":
        return cls(d, n, cls._flat_coeffs(d, n, entries, int))

    @staticmethod
    def _value(c: int) -> int:
        return c

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def _contract_first(self, flat: Sequence[int], slots: int, vec: Sequence[int]) -> list[int]:
        n = self.n
        block = n ** (slots - 1)
        out = [0] * block
        for i, x in enumerate(vec):
            if x:
                base = i * block
                for j in range(block):
                    c = flat[base + j]
                    if c:
                        out[j] += x * c
        return out

    def eval(self, vectors: Sequence[Sequence[int]]) -> int:
        return self._contract_prefix(vectors, self.d)[0]

    def contract_last(self, vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """G(x)_i = F(x_1, ..., x_{d-1}, e_i) over the integers."""
        return tuple(self._contract_prefix(vectors, self.d - 1))


def int_diagonal(m: int, n: int, d: int) -> IntMultilinearForm:
    if m > n:
        raise ValueError(f"m = {m} exceeds dimension n = {n}")
    return IntMultilinearForm.from_entries(d, n, {(i,) * d: 1 for i in range(m)})


def random_int_form(d: int, n: int, coeff_bound: int, seed: int) -> IntMultilinearForm:
    """Uniform i.i.d. entries in [-coeff_bound, coeff_bound]."""
    size = _check_storage(n, d)
    rng = SplitMix64(seed)
    return IntMultilinearForm(
        d, n, tuple(rng.int_between(-coeff_bound, coeff_bound) for _ in range(size)))


# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousForm:
    """Degree-d homogeneous polynomial in n variables.

    field None means integer coefficients. Stored terms are sorted
    (exponent vector, coefficient) pairs with zero coefficients dropped;
    field coefficients are element indices.
    """

    field: FieldSpec | None
    n: int
    d: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        seen = set()
        for exp, c in self.terms:
            if len(exp) != self.n:
                raise ValueError(f"exponent vector {exp} has wrong length")
            if min(exp, default=0) < 0:
                raise ValueError(f"exponent vector {exp} has a negative entry")
            if sum(exp) != self.d:
                raise ValueError(f"exponent vector {exp} does not sum to degree {self.d}")
            if exp in seen:
                raise ValueError(f"duplicate exponent vector {exp}")
            seen.add(exp)
            if c == 0:
                raise ValueError("zero coefficients must not be stored")
            if self.field is not None and not (0 <= c < self.field.q):
                raise ValueError("coefficient index out of range")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    @classmethod
    def from_terms(cls, field: FieldSpec | None, n: int, d: int,
                   terms: Mapping[tuple[int, ...], object]) -> "HomogeneousForm":
        norm: dict[tuple[int, ...], int] = {}
        for exp, val in terms.items():
            exp = tuple(int(x) for x in exp)
            c = int(val) if field is None else _coerce(field, val)
            if c:
                norm[exp] = c
        return cls(field, n, d, tuple(sorted(norm.items())))

    @classmethod
    def zero(cls, field: FieldSpec | None, n: int, d: int) -> "HomogeneousForm":
        return cls(field, n, d, ())

    def is_zero(self) -> bool:
        return not self.terms

    def coeff_map(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def evaluate_index(self, point: Sequence[int]) -> int:
        """Value at a point given as element indices (field) or integers (Z)."""
        if self.field is None:
            total = 0
            for exp, c in self.terms:
                v = c
                for x, e in zip(point, exp):
                    if e:
                        v *= x ** e
                total += v
            return total
        K = kernel(self.field)
        total = 0
        for exp, c in self.terms:
            v = c
            for x, e in zip(point, exp):
                if e:
                    v = K.mul(v, K.pow(x, e))
                    if not v:
                        break
            total = K.add(total, v)
        return total

    def evaluate(self, point: Sequence) -> FieldElement | int:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        if self.field is None:
            return self.evaluate_index([int(x) for x in point])
        return self.field.element(self.evaluate_index([_coerce(self.field, x) for x in point]))

    def partial(self, j: int) -> "HomogeneousForm":
        """Formal partial derivative in variable j (degree drops by one)."""
        out: dict[tuple[int, ...], int] = {}
        for exp, c in self.terms:
            e = exp[j]
            if not e:
                continue
            nexp = exp[:j] + (e - 1,) + exp[j + 1:]
            if self.field is None:
                val = c * e
            else:  # e mod p is a prime-field scalar, whose index is e mod p
                val = kernel(self.field).mul(e % self.field.p, c)
            if val:
                out[nexp] = val  # distinct inputs stay distinct after the shift
        return HomogeneousForm(self.field, self.n, max(self.d - 1, 0),
                               tuple(sorted(out.items())))

    def gradient(self) -> list["HomogeneousForm"]:
        return [self.partial(j) for j in range(self.n)]


def poly_base_change(f: HomogeneousForm, emb: FieldEmbedding) -> HomogeneousForm:
    if f.field != emb.source:
        raise ValueError("polynomial is not defined over the embedding source")
    return HomogeneousForm(emb.target, f.n, f.d,
                           tuple(sorted((exp, emb.apply_index(c)) for exp, c in f.terms)))


def random_poly(field: FieldSpec, d: int, n: int, seed: int) -> HomogeneousForm:
    """Uniform coefficients on every degree-d monomial."""
    rng = SplitMix64(seed)
    terms = {}
    for exp in monomial_exponents(n, d):
        c = rng.below(field.q)
        if c:
            terms[exp] = c
    return HomogeneousForm(field, n, d, tuple(sorted(terms.items())))


def monomial_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d, lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    return sorted(out)


def polarize(f: HomogeneousForm) -> MultilinearForm | IntMultilinearForm:
    """Symmetric d-linear form with F(x,...,x) = d! * f(x).

    Built by inclusion-exclusion finite differences,
    F(h_1..h_d) = sum over nonempty T of (-1)^(d-|T|) f(sum_{t in T} h_t),
    so only evaluation is needed. Over a finite field the characteristic
    must exceed the degree.
    """
    d, n = f.d, f.n
    if f.field is not None and f.field.p <= d:
        raise ValueError(
            f"polarization needs characteristic 0 or > degree, got p = {f.field.p}")
    _check_storage(n, d)
    subsets = [[t for t in range(d) if mask >> t & 1] for mask in range(1, 1 << d)]
    signs = [(-1) ** (d - len(T)) for T in subsets]
    if f.field is None:
        add, sub = operator.add, operator.sub
    else:
        K = kernel(f.field)
        add, sub = K.add, K.sub

    coeffs = []
    for idx in itertools.product(range(n), repeat=d):
        total = 0
        for T, s in zip(subsets, signs):
            # each coordinate is at most d < p, so over F_p it is its own index
            point = [0] * n
            for t in T:
                point[idx[t]] += 1
            v = f.evaluate_index(point)
            total = add(total, v) if s > 0 else sub(total, v)
        coeffs.append(total)
    if f.field is None:
        return IntMultilinearForm(d, n, tuple(coeffs))
    return MultilinearForm(f.field, d, n, tuple(coeffs))

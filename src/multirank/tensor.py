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
vectors. All objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BudgetError
from .field import FieldElement, FieldEmbedding, FieldSpec, kernel
from .rng import SplitMix64

MAX_TENSOR_ENTRIES = 1 << 24


def _offsets(n: int, d: int) -> tuple[int, ...]:
    """Row-major strides: index of (i_1..i_d) is sum(i_k * n^(d-k))."""
    return tuple(n ** (d - 1 - k) for k in range(d))


def _coerce_index(F, value) -> int:
    """Accept a FieldElement, a digit sequence, or an element index."""
    if isinstance(value, FieldElement):
        if value.spec != F.field:
            raise ValueError("entry belongs to a different field")
        return value.index
    if isinstance(value, int):
        return value % F.field.q
    return kernel(F.field).index_of([int(v) % F.field.p for v in value])


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


@dataclass(frozen=True)
class MultilinearForm:
    """Dense d-linear form on an n-dimensional space over a finite field.

    coeffs holds the n^d element indices in row-major multi-index order.
    """

    field: FieldSpec
    d: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least 2 slots")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        size = self.n ** self.d
        if size > MAX_TENSOR_ENTRIES:
            raise BudgetError("tensor storage n^d", size.bit_length() - 1, 24)
        if len(self.coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self.coeffs)}")
        q = self.field.q
        if any(not (0 <= c < q) for c in self.coeffs):
            raise ValueError("coefficient index out of range")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, d: int, n: int) -> "MultilinearForm":
        return cls(field, d, n, (0,) * (n ** d))

    @classmethod
    def from_entries(cls, field: FieldSpec, d: int, n: int,
                     entries: Mapping[tuple[int, ...], object]) -> "MultilinearForm":
        size = n ** d
        if size > MAX_TENSOR_ENTRIES:
            raise BudgetError("tensor storage n^d", size.bit_length() - 1, 24)
        coeffs = [0] * size
        off = _offsets(n, d)
        proto = cls(field, d, n, (0,) * size)
        for idx, val in entries.items():
            if len(idx) != d or any(not (0 <= i < n) for i in idx):
                raise ValueError(f"bad multi-index {idx}")
            flat = sum(i * o for i, o in zip(idx, off))
            coeffs[flat] = _coerce_index(proto, val)
        return cls(field, d, n, tuple(coeffs))

    # -- accessors -----------------------------------------------------------

    def coeff(self, idx: Sequence[int]) -> FieldElement:
        off = _offsets(self.n, self.d)
        flat = sum(i * o for i, o in zip(idx, off))
        return self.field.element(self.coeffs[flat])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def entries(self) -> Iterable[tuple[tuple[int, ...], FieldElement]]:
        """Nonzero entries as (multi-index, element) pairs, row-major order."""
        for idx in itertools.product(range(self.n), repeat=self.d):
            off = _offsets(self.n, self.d)
            flat = sum(i * o for i, o in zip(idx, off))
            if self.coeffs[flat]:
                yield idx, self.field.element(self.coeffs[flat])

    # -- evaluation and contraction -------------------------------------------

    def _vec_idx(self, vec) -> list[int]:
        out = [_coerce_index(self, v) for v in vec]
        if len(out) != self.n:
            raise ValueError(f"vector length {len(out)} != dimension {self.n}")
        return out

    def _contract_first(self, flat: Sequence[int], slots: int, vec_idx: Sequence[int]) -> list[int]:
        """Contract the first slot of a flat slots-slot array with a vector."""
        n = self.n
        K = kernel(self.field)
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

    def _contract_prefix(self, vectors_idx: Sequence[Sequence[int]]) -> list[int]:
        flat: Sequence[int] = self.coeffs
        slots = self.d
        for v in vectors_idx:
            flat = self._contract_first(flat, slots, v)
            slots -= 1
        return list(flat)

    def eval(self, vectors: Sequence[Sequence]) -> FieldElement:
        """F(x_1, ..., x_d)."""
        if len(vectors) != self.d:
            raise ValueError(f"expected {self.d} vectors")
        vecs = [self._vec_idx(v) for v in vectors]
        flat = self._contract_prefix(vecs)
        return self.field.element(flat[0])

    def contract_last(self, vectors: Sequence[Sequence]) -> Covector:
        """The covector F(x_1, ..., x_{d-1}, .)."""
        if len(vectors) != self.d - 1:
            raise ValueError(f"expected {self.d - 1} vectors")
        vecs = [self._vec_idx(v) for v in vectors]
        flat = self._contract_prefix(vecs)
        return Covector(self.field, self.n,
                        tuple(self.field.element(c) for c in flat))

    def slice_matrix(self, vectors: Sequence[Sequence]) -> list[list[FieldElement]]:
        """M[i][j] = F(x_1, ..., x_{d-2}, e_i, e_j)."""
        if len(vectors) != self.d - 2:
            raise ValueError(f"expected {self.d - 2} vectors")
        vecs = [self._vec_idx(v) for v in vectors]
        flat = self._contract_prefix(vecs)
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
    ap = emb.apply_index
    return MultilinearForm(emb.target, F.d, F.n, tuple(ap(c) for c in F.coeffs))


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
    size = nK ** d
    if size > MAX_TENSOR_ENTRIES:
        raise BudgetError("tensor storage n^d", size.bit_length() - 1, 24)
    coeffs = [0] * size
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
    size = n ** d
    if size > MAX_TENSOR_ENTRIES:
        raise BudgetError("tensor storage n^d", size.bit_length() - 1, 24)
    rng = SplitMix64(seed)
    q = field.q
    return MultilinearForm(field, d, n, tuple(rng.below(q) for _ in range(size)))


# ---------------------------------------------------------------------------
# integer tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMultilinearForm:
    """Dense d-linear form with arbitrary-precision integer coefficients."""

    d: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least 2 slots")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        size = self.n ** self.d
        if size > MAX_TENSOR_ENTRIES:
            raise BudgetError("tensor storage n^d", size.bit_length() - 1, 24)
        if len(self.coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self.coeffs)}")

    @classmethod
    def zeros(cls, d: int, n: int) -> "IntMultilinearForm":
        return cls(d, n, (0,) * (n ** d))

    @classmethod
    def from_entries(cls, d: int, n: int,
                     entries: Mapping[tuple[int, ...], int]) -> "IntMultilinearForm":
        size = n ** d
        coeffs = [0] * size
        off = _offsets(n, d)
        for idx, val in entries.items():
            if len(idx) != d or any(not (0 <= i < n) for i in idx):
                raise ValueError(f"bad multi-index {idx}")
            coeffs[sum(i * o for i, o in zip(idx, off))] = int(val)
        return cls(d, n, tuple(coeffs))

    def coeff(self, idx: Sequence[int]) -> int:
        off = _offsets(self.n, self.d)
        return self.coeffs[sum(i * o for i, o in zip(idx, off))]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def entries(self) -> Iterable[tuple[tuple[int, ...], int]]:
        off = _offsets(self.n, self.d)
        for idx in itertools.product(range(self.n), repeat=self.d):
            c = self.coeffs[sum(i * o for i, o in zip(idx, off))]
            if c:
                yield idx, c

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
        if len(vectors) != self.d:
            raise ValueError(f"expected {self.d} vectors")
        flat: Sequence[int] = self.coeffs
        slots = self.d
        for v in vectors:
            if len(v) != self.n:
                raise ValueError("vector length mismatch")
            flat = self._contract_first(flat, slots, v)
            slots -= 1
        return flat[0]

    def contract_last(self, vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """G(x)_i = F(x_1, ..., x_{d-1}, e_i) over the integers."""
        if len(vectors) != self.d - 1:
            raise ValueError(f"expected {self.d - 1} vectors")
        flat: Sequence[int] = self.coeffs
        slots = self.d
        for v in vectors:
            flat = self._contract_first(flat, slots, v)
            slots -= 1
        return tuple(flat)


def int_diagonal(m: int, n: int, d: int) -> IntMultilinearForm:
    if m > n:
        raise ValueError(f"m = {m} exceeds dimension n = {n}")
    return IntMultilinearForm.from_entries(d, n, {(i,) * d: 1 for i in range(m)})


def random_int_form(d: int, n: int, coeff_bound: int, seed: int) -> IntMultilinearForm:
    """Uniform i.i.d. entries in [-coeff_bound, coeff_bound]."""
    rng = SplitMix64(seed)
    size = n ** d
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
            if field is None:
                c = int(val)
            elif isinstance(val, FieldElement):
                if val.spec != field:
                    raise ValueError("coefficient from a different field")
                c = val.index
            elif isinstance(val, int):
                c = val % field.q
            else:
                c = kernel(field).index_of([int(v) % field.p for v in val])
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
        if self.field is None:
            return self.evaluate_index([int(x) for x in point])
        idxs = [_coerce_poly_point(self.field, x) for x in point]
        return self.field.element(self.evaluate_index(idxs))

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


def _coerce_poly_point(field: FieldSpec, x) -> int:
    if isinstance(x, FieldElement):
        if x.spec != field:
            raise ValueError("point coordinate from a different field")
        return x.index
    if isinstance(x, int):
        return x % field.q
    return kernel(field).index_of([int(v) % field.p for v in x])


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
    subsets = [[t for t in range(d) if mask >> t & 1] for mask in range(1, 1 << d)]
    signs = [(-1) ** (d - len(T)) for T in subsets]

    if f.field is None:
        coeffs = []
        for idx in itertools.product(range(n), repeat=d):
            total = 0
            for T, s in zip(subsets, signs):
                point = [0] * n
                for t in T:
                    point[idx[t]] += 1
                total += s * f.evaluate_index(point)
            coeffs.append(total)
        return IntMultilinearForm(d, n, tuple(coeffs))

    K = kernel(f.field)
    p = f.field.p
    coeffs = []
    for idx in itertools.product(range(n), repeat=d):
        total = 0
        for T, s in zip(subsets, signs):
            counts = [0] * n
            for t in T:
                counts[idx[t]] += 1
            point = [c % p for c in counts]  # prime-field scalars as indices
            v = f.evaluate_index(point)
            total = K.add(total, v) if s > 0 else K.sub(total, v)
        coeffs.append(total)
    return MultilinearForm(f.field, d, n, tuple(coeffs))

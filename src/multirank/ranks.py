"""Rank invariants.

Analytic rank is carried exactly as (ambient exponent, count, base); the
float is extracted on demand and is exactly integral whenever the count
is a pure power of the base. Geometric rank and Birch rank are
point-counting estimates subject to a fixed stabilization discipline: an
integer is reported only when the last two levels round to the same value
and the final rounding gap is below 0.25; otherwise callers get the
per-level floats and no integer claim. Partition rank and strength are
one exact small-instance search over two catalogs: one builder lists the
distinct rank-one tensors (partition rank) or products of lower-degree
forms (strength), and one iterative deepening finds the fewest catalog
terms summing to the target, returning a certificate only after exact
re-summation has verified it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError
from .field import FieldSpec, kernel
from .counting import (
    BoxSpec,
    CountProfile,
    count_box,
    count_NR,
    count_SF,
    count_singular,
    matrix_rank,
    sf_profile,
    BOX_BUDGET_BITS,
    DEFAULT_BUDGET_BITS,
)
from .tensor import (
    HomogeneousForm,
    IntMultilinearForm,
    MultilinearForm,
    _offsets,
    monomial_exponents,
)

STABLE_GAP = 0.25
SEARCH_NODE_LIMIT = 1 << 22
# the budget gates of the partition-rank (rank-one) and strength (product) catalogs
PRK_BUDGET_BITS = 24
STR_BUDGET_BITS = 22


def _log_in_base(count: int, base: int) -> float:
    """log_base(count), exactly integral for pure powers."""
    if count <= 0:
        raise ValueError("count must be positive")
    approx = math.log(count) / math.log(base)
    k = round(approx)
    if base ** k == count:
        return float(k)
    return approx


@dataclass(frozen=True)
class ExactLogRank:
    """ambient - log_base(count), stored exactly."""

    ambient: int
    count: int
    base: int

    def __post_init__(self):
        if not (1 <= self.count <= self.base ** self.ambient):
            raise ValueError("count outside [1, base^ambient]")

    @property
    def float_value(self) -> float:
        return self.ambient - _log_in_base(self.count, self.base)

    def to_dict(self) -> dict:
        return {"count": str(self.count), "base": self.base,
                "ambient": self.ambient, "float": self.float_value}


def ark_exact(F: MultilinearForm, l: int = 1,
              budget_bits: float = DEFAULT_BUDGET_BITS) -> ExactLogRank:
    """Analytic rank of F over F_{q^l}: n(d-1) - log_{q^l} |S_F(F_{q^l})|."""
    count = count_SF(F, l, budget_bits)
    return ExactLogRank(F.n * (F.d - 1), count, F.field.q ** l)


# ---------------------------------------------------------------------------
# stabilized codimension estimates (geometric rank, Birch rank)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodimEstimate:
    """Codimension estimate from a count profile.

    stabilized is present only when the last two levels round to the same
    integer and the final gap |dim_l - round(dim_l)| < 0.25; rounding ties
    resolve to absent.
    """

    profile: CountProfile
    ambient_dim: int
    per_level_dim: tuple[float, ...]
    stabilized: int | None
    gap: float
    agree: bool

    def to_dict(self) -> dict:
        return {
            "base": self.profile.base,
            "ambient_dim": self.ambient_dim,
            "levels": [
                {"l": l, "count": str(c), "dim": dim}
                for (l, c), dim in zip(self.profile.entries, self.per_level_dim)
            ],
            "stabilized": self.stabilized,
            "gap": self.gap,
            "agree": self.agree,
        }


def _stabilize(profile: CountProfile, ambient_dim: int) -> CodimEstimate:
    dims = []
    for l, c in profile.entries:
        dims.append(_log_in_base(c, profile.base) / l)
    gap = abs(dims[-1] - round(dims[-1])) if dims else float("inf")
    agree = len(dims) >= 2 and round(dims[-1]) == round(dims[-2])
    stabilized = None
    if agree and gap < STABLE_GAP:
        stabilized = ambient_dim - round(dims[-1])
    return CodimEstimate(profile, ambient_dim, tuple(dims), stabilized, gap, agree)


def grk_estimate(F: MultilinearForm, l_max: int = 2,
                 budget_bits: float = DEFAULT_BUDGET_BITS) -> CodimEstimate:
    """Geometric-rank estimate: stabilized codim of S_F from level counts."""
    if l_max < 2:
        raise ValueError("stabilization needs at least two levels")
    return _stabilize(sf_profile(F, l_max, budget_bits), F.n * (F.d - 1))


def brk_estimate(f: HomogeneousForm, l_max: int = 2,
                 budget_bits: float = DEFAULT_BUDGET_BITS) -> CodimEstimate:
    """Birch-rank estimate: stabilized codim of the singular locus."""
    if f.field is None:
        raise ValueError("Birch rank estimation needs a finite-field polynomial")
    if f.d < 2:
        raise ValueError("degree must be >= 2")
    if l_max < 2:
        raise ValueError("stabilization needs at least two levels")
    entries = tuple((l, count_singular(f, l, budget_bits)) for l in range(1, l_max + 1))
    profile = CountProfile(f.field.q, f.n, entries)
    return _stabilize(profile, f.n)


# ---------------------------------------------------------------------------
# partition rank
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RankOneTerm:
    """G((x_i)_{i in slots}) * H((x_j)_{j outside}); slots always contains 0.

    g has n^|slots| coefficient indices over the slot subset (row-major),
    h has the complementary n^(d-|slots|).
    """

    slots: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]

    def expand(self, field: FieldSpec, n: int, d: int) -> tuple[int, ...]:
        K = kernel(field)
        comp = tuple(k for k in range(d) if k not in self.slots)
        off = _offsets(n, d)
        out = [0] * (n ** d)
        for gi, gidx in enumerate(itertools.product(range(n), repeat=len(self.slots))):
            gv = self.g[gi]
            if not gv:
                continue
            base = sum(i * off[s] for i, s in zip(gidx, self.slots))
            for hi, hidx in enumerate(itertools.product(range(n), repeat=len(comp))):
                hv = self.h[hi]
                if hv:
                    out[base + sum(i * off[s] for i, s in zip(hidx, comp))] = K.mul(gv, hv)
        return tuple(out)


@dataclass(frozen=True)
class PrkResult:
    lower: int
    upper: int
    exact: bool
    certificate: tuple[RankOneTerm, ...] | None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact result must have matching bounds")

    def to_dict(self) -> dict:
        out = {"lower": self.lower, "upper": self.upper, "exact": self.exact}
        if self.certificate is not None:
            out["certificate"] = [
                {"slots": list(t.slots), "g": list(t.g), "h": list(t.h)}
                for t in self.certificate
            ]
        return out


def verify_rank_one_certificate(F: MultilinearForm,
                                terms: Sequence[RankOneTerm]) -> bool:
    """Terms re-sum to F exactly and each has flattening rank 1 on its split."""
    K = kernel(F.field)
    acc = [0] * len(F.coeffs)
    for t in terms:
        if not any(t.g) or not any(t.h):
            return False
        coeffs = t.expand(F.field, F.n, F.d)
        acc = list(map(K.add, acc, coeffs))
        flat = MultilinearForm(F.field, F.d, F.n, coeffs).flattening(t.slots)
        if matrix_rank([row[:] for row in flat], len(flat[0]), K) != 1:
            return False
    return tuple(acc) == F.coeffs


def _projective_coeff_vectors(q: int, size: int) -> list[tuple[int, ...]]:
    """Nonzero coefficient vectors with first nonzero entry 1 (leading coeff 1)."""
    out = []
    for pivot in range(size):
        for tail in itertools.product(range(q), repeat=size - pivot - 1):
            out.append((0,) * pivot + (1,) + tail)
    return out


def _catalog(parts, q: int, term):
    """Distinct tensors of the terms term(part, g, h), each with its first term.

    parts holds (part, size of g, size of h); the walk goes part by part,
    then over projective g, then over nonzero h, both in lexicographic
    order. term returns (dense coefficients, term). Returns (tensors,
    terms, index) with index mapping a tensor to its position.
    """
    tensors, terms, index = [], [], {}
    for part, gsz, hsz in parts:
        hs = list(itertools.product(range(q), repeat=hsz))[1:]  # drop h = 0
        for g in _projective_coeff_vectors(q, gsz):
            for h in hs:
                t, x = term(part, g, h)
                if t not in index:
                    index[t] = len(tensors)
                    tensors.append(t)
                    terms.append(x)
    return tensors, terms, index


@functools.lru_cache(maxsize=32)
def rank_one_catalog(field: FieldSpec, n: int, d: int, budget_bits: float = PRK_BUDGET_BITS):
    """All partition-rank-one tensors, deduplicated by coefficient array.

    Returns (tensors, terms, index): tensors[i] is the expanded coefficient
    tuple for representative term terms[i]; index maps tensor -> i. Order:
    partitions by (size, lexicographic slots), then g projective, then h.
    """
    q = field.q
    partitions = [(0,) + rest for size in range(d - 1)
                  for rest in itertools.combinations(range(1, d), size)]
    est = sum((q ** (n ** len(s)) - 1) // max(q - 1, 1) * (q ** (n ** (d - len(s))) - 1)
              for s in partitions)
    if math.log2(max(est, 1)) > budget_bits:
        raise BudgetError("rank-one term enumeration", math.log2(est), budget_bits)

    def term(slots, g, h):
        t = RankOneTerm(slots, g, h)
        return t.expand(field, n, d), t

    return _catalog([(s, n ** len(s), n ** (d - len(s))) for s in partitions], q, term)


def _matrix_prk_certificate(F: MultilinearForm) -> PrkResult:
    """d = 2: partition rank is matrix rank; rank-one updates certify it."""
    K = kernel(F.field)
    n = F.n
    M = [list(F.coeffs[i * n:(i + 1) * n]) for i in range(n)]
    terms = []
    for _ in range(n):
        piv = None
        for r in range(n):
            for c in range(n):
                if M[r][c]:
                    piv = (r, c)
                    break
            if piv:
                break
        if piv is None:
            break
        r0, c0 = piv
        pinv = K.inv(M[r0][c0])
        col = tuple(K.mul(M[r][c0], pinv) for r in range(n))  # 1 at r0
        row = tuple(M[r0])
        terms.append(RankOneTerm((0,), col, row))
        for r in range(n):
            if col[r]:
                for c in range(n):
                    if row[c]:
                        M[r][c] = K.sub(M[r][c], K.mul(col[r], row[c]))
    rank = len(terms)
    if not verify_rank_one_certificate(F, terms):
        raise RuntimeError("certificate failed re-verification")
    return PrkResult(rank, rank, True, tuple(terms))


def _slice_certificate(F: MultilinearForm) -> tuple[RankOneTerm, ...]:
    """F = sum_i e_i^* (x) F(e_i, ...): one term per nonzero first slice."""
    n, d = F.n, F.d
    block = n ** (d - 1)
    terms = []
    for i in range(n):
        h = F.coeffs[i * block:(i + 1) * block]
        if any(h):
            g = tuple(1 if k == i else 0 for k in range(n))
            terms.append(RankOneTerm((0,), g, h))
    return tuple(terms)


def _fewest_terms(catalog, target: tuple[int, ...], cap: int, K, what: str,
                  check) -> tuple:
    """Fewest catalog terms summing to target, as a re-verified certificate.

    catalog starts with (tensors, terms, index). Iterative deepening up to
    cap searches strictly increasing index sequences, depth 1 first; this is
    complete because a fewest-term sum never repeats a catalog tensor (two
    proportional terms merge into one). Nodes count across all depths
    against SEARCH_NODE_LIMIT; BudgetError names the gate with what. The
    caller's trivial decomposition has cap terms from the catalog, so a miss
    is a bug, as is a certificate that check(certificate) rejects.
    """
    tensors, terms, index = catalog[:3]
    sub = K.sub
    nterms = len(tensors)
    nodes = 0

    def search(tgt: tuple[int, ...], depth: int, min_idx: int):
        nonlocal nodes
        if depth == 1:
            i = index.get(tgt)
            return [i] if (i is not None and i >= min_idx) else None
        for i in range(min_idx, nterms):
            nodes += 1
            if nodes > SEARCH_NODE_LIMIT:
                raise BudgetError(what, math.log2(nodes), math.log2(SEARCH_NODE_LIMIT))
            rem = tuple(sub(a, b) for a, b in zip(tgt, tensors[i]))
            res = search(rem, depth - 1, i + 1)
            if res is not None:
                return [i] + res
        return None

    for depth in range(1, cap + 1):
        found = search(target, depth, 0)
        if found is not None:
            cert = tuple(terms[i] for i in found)
            if not check(cert):
                raise RuntimeError("certificate failed re-verification")
            return cert
    raise RuntimeError(f"{what}: missed the trivial decomposition; unreachable")


def prk_exact_small(F: MultilinearForm, budget_bits: float = PRK_BUDGET_BITS) -> PrkResult:
    """Exact partition rank by the catalog search, with certificate.

    d = 2 takes matrix rank. Otherwise the cap is the slice decomposition,
    one term per nonzero first slice. Intended regime: small q, n, d (the
    catalog must be enumerable).
    """
    if F.is_zero():
        return PrkResult(0, 0, True, ())
    if F.d == 2:
        return _matrix_prk_certificate(F)
    cert = _fewest_terms(rank_one_catalog(F.field, F.n, F.d, budget_bits), F.coeffs,
                         len(_slice_certificate(F)), kernel(F.field),
                         "partition-rank search nodes",
                         lambda c: verify_rank_one_certificate(F, c))
    return PrkResult(len(cert), len(cert), True, cert)


def prk_bounds(F: MultilinearForm, budget_bits: float = PRK_BUDGET_BITS,
               ark_budget_bits: float = DEFAULT_BUDGET_BITS) -> PrkResult:
    """Bounds from the analytic-rank floor and the slice certificate.

    lower = max(ceil(float ark - 1e-9), 1) for nonzero F (ark <= prk over a
    finite field); upper from the exact search when the catalog fits the
    budget, else from the slice certificate.
    """
    if F.is_zero():
        return PrkResult(0, 0, True, ())
    ark = ark_exact(F, 1, ark_budget_bits).float_value
    lower = max(math.ceil(ark - 1e-9), 1)
    try:
        exact = prk_exact_small(F, budget_bits=budget_bits)
    except BudgetError:
        cert = _slice_certificate(F)
        upper = len(cert)
        return PrkResult(lower, upper, lower == upper, cert)
    if exact.lower < lower:
        raise RuntimeError("search found a decomposition below the analytic floor")
    return exact


# ---------------------------------------------------------------------------
# strength
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ProductTerm:
    """g * h with deg g <= deg h; coefficients are dense over the monomial basis."""

    deg_g: int
    g: tuple[int, ...]
    h: tuple[int, ...]


@dataclass(frozen=True)
class StrResult:
    value: int
    exact: bool
    certificate: tuple[ProductTerm, ...] | None

    def to_dict(self) -> dict:
        out = {"value": self.value, "exact": self.exact}
        if self.certificate is not None:
            out["certificate"] = [
                {"deg_g": t.deg_g, "g": list(t.g), "h": list(t.h)}
                for t in self.certificate
            ]
        return out


def _poly_dense(f: HomogeneousForm, basis: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    m = f.coeff_map()
    return tuple(m.get(exp, 0) for exp in basis)


def _poly_multiply_dense(g: tuple[int, ...], gb, h: tuple[int, ...], hb,
                         out_index: dict, K) -> tuple[int, ...]:
    out = [0] * len(out_index)
    for ci, cexp in enumerate(gb):
        gv = g[ci]
        if not gv:
            continue
        for di, dexp in enumerate(hb):
            hv = h[di]
            if hv:
                tot = tuple(a + b for a, b in zip(cexp, dexp))
                k = out_index[tot]
                out[k] = K.add(out[k], K.mul(gv, hv))
    return tuple(out)


@functools.lru_cache(maxsize=32)
def product_catalog(field: FieldSpec, n: int, d: int, budget_bits: float = STR_BUDGET_BITS):
    """All products g*h of complementary-degree forms, deduplicated.

    g runs over projective representatives of degree k <= floor(d/2)
    (lower-degree factor first halves the space), h over nonzero forms of
    degree d-k. Returns (dense product tuples, terms, index, basis).
    """
    q = field.q
    K = kernel(field)
    basis_d = monomial_exponents(n, d)
    out_index = {exp: i for i, exp in enumerate(basis_d)}
    halves = [(k, monomial_exponents(n, k), monomial_exponents(n, d - k))
              for k in range(1, d // 2 + 1)]
    est_bits = max(((len(gb) + len(hb)) * math.log2(q) for _, gb, hb in halves), default=0.0)
    if est_bits > budget_bits:
        raise BudgetError("product term enumeration", est_bits, budget_bits)

    def term(part, g, h):
        k, gb, hb = part
        return _poly_multiply_dense(g, gb, h, hb, out_index, K), ProductTerm(k, g, h)

    parts = [((k, gb, hb), len(gb), len(hb)) for k, gb, hb in halves]
    return (*_catalog(parts, q, term), tuple(basis_d))


def verify_strength_certificate(f: HomogeneousForm,
                                terms: Sequence[ProductTerm]) -> bool:
    """Certificate re-sums to f with factors of degree in [1, d-1]."""
    K = kernel(f.field)
    basis_d = monomial_exponents(f.n, f.d)
    out_index = {exp: i for i, exp in enumerate(basis_d)}
    acc = [0] * len(basis_d)
    for t in terms:
        if not (1 <= t.deg_g <= f.d - 1) or not any(t.g) or not any(t.h):
            return False
        gb = monomial_exponents(f.n, t.deg_g)
        hb = monomial_exponents(f.n, f.d - t.deg_g)
        prod = _poly_multiply_dense(t.g, gb, t.h, hb, out_index, K)
        for i, v in enumerate(prod):
            acc[i] = K.add(acc[i], v)
    return tuple(acc) == _poly_dense(f, basis_d)


def str_exact_small(f: HomogeneousForm, budget_bits: float = STR_BUDGET_BITS) -> StrResult:
    """Exact strength by iterative deepening over products of lower-degree forms."""
    if f.field is None:
        raise ValueError("strength search needs a finite-field polynomial")
    if f.is_zero():
        return StrResult(0, True, ())
    if f.d < 2:
        raise ValueError("strength needs degree >= 2")
    catalog = product_catalog(f.field, f.n, f.d, budget_bits)
    target = _poly_dense(f, catalog[3])
    cap = sum(1 for v in target if v)  # every monomial splits off a variable
    cert = _fewest_terms(catalog, target, cap, kernel(f.field), "strength search nodes",
                         lambda c: verify_strength_certificate(f, c))
    return StrResult(len(cert), True, cert)


# ---------------------------------------------------------------------------
# height-rank estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightRankEstimate:
    """Per-parameter height-rank values with exact counts retained."""

    kind: str  # "gamma_q" or "delta_0"
    ambient: int
    entries: tuple[tuple[int, int, float], ...]  # (parameter, count, value)
    floor: float | None  # exact analytic-rank floor when applicable

    def values(self) -> list[float]:
        return [v for _, _, v in self.entries]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ambient": self.ambient,
            "entries": [
                {"param": p, "count": str(c), "value": v} for p, c, v in self.entries
            ],
            "floor": self.floor,
        }


def gamma_q_estimate(F: MultilinearForm, R_max: int,
                     budget_bits: float = DEFAULT_BUDGET_BITS) -> HeightRankEstimate:
    """gamma_R = n(d-1) - log_q(N_R)/R for R = 1..R_max.

    N_R <= |S_F(F_q)|^R holds exactly, so every gamma_R is at least the
    analytic rank, with equality at R = 1.
    """
    q = F.field.q
    ambient = F.n * (F.d - 1)
    sf = count_SF(F, 1, budget_bits)
    ark = ExactLogRank(ambient, sf, q).float_value
    entries = []
    for R in range(1, R_max + 1):
        NR = count_NR(F, R, budget_bits)
        if NR > sf ** R:
            raise RuntimeError("product bound violated; counting bug")
        val = ambient - _log_in_base(NR, q) / R
        entries.append((R, NR, val))
    return HeightRankEstimate("gamma_q", ambient, tuple(entries), ark)


def delta0_estimate(G: IntMultilinearForm, L_grid: Sequence[int],
                    budget_bits: float = BOX_BUDGET_BITS) -> HeightRankEstimate:
    """delta_L = n(d-1) - log_L(N_L(G_L)) per grid point.

    N uses entries in [0, L) and vanishing mod L.
    """
    ambient = G.n * (G.d - 1)
    entries = []
    for L in L_grid:
        if L < 2:
            raise ValueError("grid moduli must be >= 2")
        NL = count_box(G, BoxSpec(L, signed=False, modulus=L), budget_bits)
        val = ambient - _log_in_base(NL, L) if NL else float("inf")
        entries.append((L, NL, val))
    return HeightRankEstimate("delta_0", ambient, tuple(entries), None)


# ---------------------------------------------------------------------------
# headline-constant bookkeeping (informational only)
# ---------------------------------------------------------------------------

def effective_constant(d: int, r: int = 1) -> int:
    """(2^(d-1) - 1) (d-1)^(r+1) binom(d, floor(d/2)); printed in reports."""
    return (2 ** (d - 1) - 1) * (d - 1) ** (r + 1) * math.comb(d, d // 2)

"""Exact point counting.

All counts are arbitrary-precision integers; no floating point enters
until rank extraction. Every rank, determinant and kernel over F_q comes
from one Gaussian elimination without row swaps (field._eliminate), which
returns the pivot rows and columns: matrix_rank counts them, the line
kernel takes its nonzero minor from them, field._rank_det multiplies the
pivots (cofactors instead for n <= 3), and nullspace_basis solves the
pivot rows by back substitution. The line kernel's characteristic
polynomial route adds one Gauss-Jordan solve per form (field._solve) and
one Hessenberg reduction per line (field._charpoly).

The primary engine for |S_F| is the rank trick: summing
Q^(n - rank(slice_matrix)) over (d-2)-tuples instead of scanning all
(d-1)-tuples. Since the slice rank is invariant under scaling each
slot vector, the enumeration runs over projective representatives and is
multiplied back by (Q-1)^(d-2); tuples containing a zero vector
contribute a closed form. A form is first reduced to cubes C_c of sides
m_c (_summands): none for the zero form, else its concise core split
into its direct summands, each padded to the cube of its longest side.
One identity then counts it,
|S_F(F_Q)| = Q^((d-1)n) prod_c |S_{C_c}(F_Q)| / Q^((d-1) sum_c m_c),
that is ark(F) = sum_c ark(C_c) for the analytic rank
ark(F) = (d-1)n - log_Q |S_F|. Analytic rank is unchanged by the concise
reduction: a form whose every slot j has rank r_j < n (the rank of its
n x n^(d-1) flattening; slot 0's is ranked first, and rank n there
settles it) factors through the m-cube sub-array F_U, m = max r_j, on
each slot's pivot coordinates padded with its lowest other ones, by maps
of rank r_j whose kernels, defined over F_q, keep their dimension over
every F_Q. It is additive over direct sums, the connected components of
the core's support (the nodes are the pairs (slot, coordinate), and each
nonzero coefficient joins its d nodes), and unchanged by padding a
summand with coordinates where it is zero. Two or more summands of an
m-cube carry at most (m-1)^d + 1 nonzero coefficients, so a denser core
is one cube without a component search, as is a core of one summand.
The slice ranks are taken one projective line at a time: along
{(u, t) : t in F_Q} the slice is P + tB, and each contracted form takes
one of two routes (_line_kernel). When B is invertible, or becomes so
after a change of basis of the first slot by one of the first 2n
prime-field points (the sum over projective points is GL_n-invariant,
and prime-field points are fixed by x -> x^q), the pencil is
B (tI - N(u)) with N(u) linear in u and solved once per form, and each
line takes one characteristic polynomial chi(t) =
det(tI - N(u)) (Hessenberg reduction for n >= 4): the rank is n off the
zeros of chi and n - 1 at a simple zero. Every other form, and n = 2,
Q <= 3 and forms with too few lines to pay for the solve, take the node
route: det B, the t^n coefficient of every line's det(P + tB), is taken
once per form, and exact ranks at the n nodes t = 0..n-1 fix the line's
generic rank r and one nonzero r-minor m, a polynomial of degree <= n in
t whose monomial coefficients one Vandermonde inverse per kernel gives
from its node values; off the zeros of m the rank is r, and at a simple
zero of m = det(P + tB) it is n - 1. Both routes hand one zero finder
the monomial coefficients of their polynomial, and only the other zeros
need another exact rank; small fields find the zeros by evaluating the
polynomial at every t in F_Q, large ones from gcd(m, t^Q - t) and
equal-degree splitting. For d >= 4 the first d-3 projective vectors are
contracted away first. At level l > 1, F still has its coefficients in
F_q, so the Frobenius x -> x^q maps each slice to one of the same rank:
one line is ranked per orbit of the heads u (d = 3), and one prefix
tuple is contracted per orbit of the diagonal action (d >= 4), each
weighted by its orbit's size. A literal full-enumeration counter is
retained solely as a differential-testing oracle; the tests also rank
every projective slice one at a time.

The integer box sieves apply the same idea: enumerate the first d-2
blocks of the height box, contract each prefix to the n x n system of
the last block, and solve it exactly. Its solutions mod L (or over Z)
form a lattice, whose Hermite normal form, in Python integers, is walked
coordinate by coordinate in ascending order. The literal scan
`_box_pure` is kept as the differential oracle.

The F_q[t] counters (count_NR, fiber_counts) enumerate the prefix blocks
and solve the last block's linear system. A polynomial of degree < R is
a binary form of degree R-1, so GL_2(F_q), acting on every block at once,
and scaling one block map the solutions to solutions: count_NR ranks one
prefix per orbit, weighted by its size. fiber_counts keys its counts by
the prefix mod t^b, which of those substitutions only t -> c t keeps;
but F(.., u x, .., e_i) = u F(.., x, .., e_i) for every unit u of
F_q[t]/t^a, so scaling any prefix block by a unit keeps the last block's
kernel. One system is solved per tuple of unit orbits, one orbit per
prefix block. Each orbit carries its keys mod t^b and its weight, the
number of its elements over each key; a tuple of keys, one per block,
is hit by the product of the weights. Before building a system, both
try points: where F(x^(1)(t0), ..., x^(d-2)(t0), ., .) is invertible
over F_q, the system is not built. count_NR tries t0 = 0, infinity (the
coefficients of t^(R-1)) and t0 = 1..q-1; a nonzero determinant at any
of them makes det F(x, ., .) a nonzero binary form, so the system has
rank nR. fiber_counts tries t0 = 0 alone: the matrix is then a unit mod
t^a and the kernel is 0. count_singular takes the gcd of the partials
on each line through e_{n-1}, one per Frobenius orbit. The literal
enumerations stay as oracles (multirank.oracles.count_fiber, and tests).
Budget gates keep their full-space exponents (count_SF gates the full n
before it reduces the form to cubes) and raise BudgetError naming the
offending one; nothing is silently truncated.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import islice, product, repeat
from typing import Sequence

from .errors import BudgetError
from .field import (FieldSpec, _charpoly, _eliminate, _poly_add, _poly_field_roots, _poly_gcd,
                    _poly_mul_trunc, _poly_roots, _poly_trim, _rank_det, _solve, _square_rows,
                    embed, kernel, make_field)
from .tensor import HomogeneousForm, IntMultilinearForm, MultilinearForm, base_change, poly_base_change

DEFAULT_BUDGET_BITS = 28
BOX_BUDGET_BITS = 34
# the count_SF line kernel scans F_Q for zeros up to Q = _SCAN[0] over a prime
# field and _SCAN[1] over an extension, and takes gcd(m, t^Q - t) above
_SCAN = (165, 125)
# a count_SF form with n > 2 over Q > 3 takes det(tI - N(u)) on its lines
# when it has at least n^3 / _CHI of them
_CHI = 3.4


# ---------------------------------------------------------------------------
# linear algebra over F_q on element indices
# ---------------------------------------------------------------------------

def matrix_rank(rows: list[list[int]], ncols: int, K) -> int:
    """Rank over F_q: the number of pivots of _eliminate; rows are mutated."""
    return len(_eliminate(rows, ncols, K)[0])


def nullspace_basis(rows: list[list[int]], ncols: int, K) -> list[list[int]]:
    """Basis of the right kernel; rows are reduced in place by _eliminate.

    One vector per non-pivot column, in ascending order: 1 there, 0 at the
    other non-pivot columns, and its pivot entries by back substitution.
    """
    mul, sub, inv = K.mul, K.sub, K.inv
    prows, pcols = _eliminate(rows, ncols, K)
    pivots = [(rows[i], c, inv(rows[i][c])) for i, c in zip(prows, pcols)][::-1]
    basis = []
    for fc in sorted(set(range(ncols)).difference(pcols)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, c, pinv in pivots:
            s = 0
            for j in range(c + 1, ncols):
                if row[j] and vec[j]:
                    s = sub(s, mul(row[j], vec[j]))
            if s:
                vec[c] = mul(s, pinv)
        basis.append(vec)
    return basis


def span_vectors(basis: list[list[int]], K, ncols: int) -> list[tuple[int, ...]]:
    """All q^k vectors spanned by the basis, deterministic order."""
    vecs: list[tuple[int, ...]] = [(0,) * ncols]
    for b in basis:
        vecs = [tuple(map(K.add, v, cb)) for cb in ([K.mul(c, x) for x in b] for c in range(K.q))
                for v in vecs]
    return vecs


# ---------------------------------------------------------------------------
# level handling and projective enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _level_embedding(field: FieldSpec, l: int):
    target = make_field(field.p, field.e * l)
    return embed(field, target)


def level_form(F: MultilinearForm, l: int) -> MultilinearForm:
    """F base-changed to the canonical degree-l extension of its field."""
    if l < 1:
        raise ValueError("level must be >= 1")
    if l == 1:
        return F
    return base_change(F, _level_embedding(F.field, l))


def level_poly(f: HomogeneousForm, l: int) -> HomogeneousForm:
    if l == 1:
        return f
    return poly_base_change(f, _level_embedding(f.field, l))


def projective_points(q: int, n: int) -> list[tuple[int, ...]]:
    """Representatives with first nonzero coordinate 1, ascending order.

    Ascending by pivot, then by the index sum(tail[i] * q^i) of the tail.
    """
    return list(_projective(q, n))


def _projective(q: int, n: int):
    return ((0,) * i + (1,) + tail[::-1] for i in range(n) for tail in product(range(q), repeat=n - i - 1))


# ---------------------------------------------------------------------------
# |S_F| counting
# ---------------------------------------------------------------------------

def count_SF(F: MultilinearForm, l: int = 1,
             budget_bits: float = DEFAULT_BUDGET_BITS) -> int:
    """Exact |S_{F_l}(F_{q^l})| via the rank trick, per direct summand of the concise core of F.

    Equals sum over x in V^(d-2) of Q^(n - rank(slice_matrix(F_l, x))),
    which in turn equals the literal count of (d-1)-tuples killing the
    last slot. Tuples containing a zero vector have the zero slice, a
    closed form; every other tuple is a projective one scaled in each
    slot, (Q-1)^(d-2) ways. The projective slice ranks are taken one line
    at a time (_line_kernel). F_l has its coefficients in F_q, so x -> x^q
    maps each slice to one of the same rank: d = 3 ranks one line per
    orbit of heads, and d >= 4 contracts one prefix of d-3 projective
    vectors per orbit (_orbits); the contracted form, with F_Q
    coefficients, takes every head.

    For d >= 3 the budget gate counts the full n. Then F is reduced to
    cubes (_summands), m_c the side of C_c, and
    |S_F| = Q^((d-1)n) prod_c |S_{C_c}| / Q^((d-1) sum_c m_c): analytic
    rank, (d-1)n - log_Q |S_F|, is the sum of the cubes' analytic ranks.
    """
    n, d = F.n, F.d
    if d == 2:
        Fl = level_form(F, l)
        K = kernel(Fl.field)
        return K.q ** (n - matrix_rank(_square_rows(Fl.coeffs, n), n, K))
    if l < 1:
        raise ValueError("level must be >= 1")

    Q = F.field.q ** l
    bits = (d - 2) * n * math.log2(Q)
    if bits > budget_bits:
        raise BudgetError("S_F slice enumeration q^(l*n*(d-2))", bits, budget_bits,
                          hint="use a smaller l or raise the budget")
    cubes = _summands(F)
    return (Q ** ((d - 1) * n) * math.prod(_count_sf_lines(C, l) for C in cubes)
            // Q ** ((d - 1) * sum(C.n for C in cubes)))


def _summands(F: MultilinearForm) -> list[MultilinearForm]:
    """The cubes count_SF multiplies the counts of: [] for the zero form, else
    the concise core of F (_concise_core) split into its direct summands
    (_blocks), each padded to the cube of its longest side (_sub_cube).

    Padding coordinates lie outside the summand, where F is zero, since no
    nonzero coefficient joins two summands. k >= 2 summands of sides n_c,j,
    sum_c n_c,j <= m, have at most (m-1)^d + 1 nonzero coefficients, so a
    denser core is returned whole before any component search, as is a
    core of one summand.
    """
    if not any(F.coeffs):
        return []
    core = _concise_core(F)
    m, d, coeffs = core.n, core.d, core.coeffs
    if len(coeffs) - coeffs.count(0) > (m - 1) ** d + 1 or len(blocks := _blocks(core)) == 1:
        return [core]
    return [_sub_cube(core, coords) for coords in blocks]


def _concise_core(F: MultilinearForm) -> MultilinearForm:
    """F itself if some slot has rank n, else the m-cube sub-array F_U that carries F.

    Slot j's rank r_j is that of its n x n^(d-1) flattening, whose row i
    holds the coefficients with index i in slot j (contiguous for slot 0,
    which is ranked first). The pivot rows of _eliminate are a basis of
    the row space: every other coordinate's row is a combination of
    theirs, so F(x) = F_U(A_0 x_0, .., A_(d-1) x_(d-1)) with A_j of rank
    r_j onto the pivot coordinates. Each slot keeps its pivot coordinates
    and its lowest other ones up to m = max r_j, ascending. F must not be
    the zero form (m = 0).
    """
    n, d, coeffs = F.n, F.d, F.coeffs
    K = kernel(F.field)
    size = len(coeffs)
    keep = []
    for j in range(d):
        s = n ** (d - 1 - j)
        rows = [[c for b in range(i * s, size, n * s) for c in coeffs[b:b + s]] for i in range(n)]
        prows = _eliminate(rows, size // n, K)[0]
        if len(prows) == n:
            return F
        keep.append(prows)
    return _sub_cube(F, keep)


def _sub_cube(F: MultilinearForm, coords: Sequence[Sequence[int]]) -> MultilinearForm:
    """The m-cube sub-array of F, m = max len(coords[j]), on coords[j] in slot j,
    each padded with its lowest other coordinates, ascending."""
    n, d = F.n, F.d
    m = max(map(len, coords))
    offsets = [0]
    for j, cs in enumerate(coords):
        s = n ** (d - 1 - j)
        offsets = [o + i * s for o in offsets
                   for i in sorted([*cs, *[i for i in range(n) if i not in cs][:m - len(cs)]])]
    return MultilinearForm(F.field, d, m, tuple(F.coeffs[o] for o in offsets))


def _blocks(F: MultilinearForm) -> list[list[list[int]]]:
    """The connected components of F's support, each as its coordinates per slot.

    The nodes are the pairs (slot j, coordinate i), and every nonzero
    coefficient joins its d nodes. A coordinate with no nonzero
    coefficient is in no component.
    """
    n, d = F.n, F.d
    strides = [(j * n, n ** (d - 1 - j)) for j in range(d)]
    parent = list(range(d * n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    supported = set()
    for k, c in enumerate(F.coeffs):
        if c:
            nodes = [j + k // s % n for j, s in strides]
            supported.update(nodes)
            root = find(nodes[0])
            for a in nodes[1:]:
                parent[find(a)] = root
    blocks: dict[int, list[list[int]]] = {}
    for a in sorted(supported):
        blocks.setdefault(find(a), [[] for _ in range(d)])[a // n].append(a % n)
    return list(blocks.values())


def _count_sf_lines(F: MultilinearForm, l: int) -> int:
    """count_SF for d >= 3 past its gate: the projective slices, line by line."""
    Fl = level_form(F, l)
    K = kernel(Fl.field)
    Q, n, d = K.q, F.n, F.d
    q = F.field.q
    slice_sum = _line_kernel(K, n)
    heads = _orbits(K, n - 1, 1, q if d == 3 else Q)
    proj = sum(w * slice_sum(Fl._contract_prefix(vecs), heads)
               for vecs, w in _orbits(K, n, d - 3, q))
    zero_tuples = Q ** (n * (d - 2)) - (Q ** n - 1) ** (d - 2)
    return zero_tuples * Q ** n + (Q - 1) ** (d - 2) * proj


def count_SF_naive(F: MultilinearForm, l: int = 1,
                   budget_bits: float = DEFAULT_BUDGET_BITS) -> int:
    """Differential-testing oracle: literal enumeration of all (d-1)-tuples."""
    Fl = level_form(F, l)
    K = kernel(Fl.field)
    Q, n, d = K.q, F.n, F.d
    bits = (d - 1) * n * math.log2(Q)
    if bits > budget_bits:
        raise BudgetError("naive S_F enumeration q^(l*n*(d-1))", bits, budget_bits)

    count = 0
    for vecs in product(product(range(Q), repeat=n), repeat=d - 1):
        if not any(Fl._contract_prefix(vecs)):
            count += 1
    return count


def _orbit_reps(items: Sequence, k: int, gens) -> tuple:
    """(tuple, size) per orbit of the group generated by gens on k-tuples of items.

    A generator maps the item at position j through g[j], a permutation of
    item indices. Tuples are indexed in product order with one seen-byte
    each, so each orbit is named by its first tuple.
    """
    m = len(items)
    place = [m ** (k - 1 - j) for j in range(k)]
    tables = [[[v * w for v in perm] for perm, w in zip(g, place)] for g in gens]
    seen = bytearray(m ** k)
    out = []
    for first in range(m ** k):
        if seen[first]:
            continue
        seen[first] = 1
        stack, size = [first], 0
        while stack:
            i = stack.pop()
            digits = [i // w % m for w in place]
            size += 1
            for tab in tables:
                j = sum(map(operator.getitem, tab, digits))
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
        out.append((tuple(items[first // w % m] for w in place), size))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _orbits(K, n: int, k: int, q: int) -> tuple:
    """(tuple, size) per orbit of x -> x^q on k-tuples of projective points of F_Q^n.

    x -> x^q fixes 0 and 1, so it maps points with first nonzero 1 to such
    points. An orbit is named by its first tuple in product order of
    projective_points; with q = Q each tuple is an orbit. Frobenius images
    are taken only of the coordinate values the points hold: for n = 1
    the one point (1,) needs one power, not Q.
    """
    if not k:
        return (((), 1),)
    pts = projective_points(K.q, n)
    frob = {x: K.pow(x, q) for x in set().union(*pts)}
    index = {u: i for i, u in enumerate(pts)}
    return _orbit_reps(pts, k, [[[index[tuple(map(frob.__getitem__, u))] for u in pts]] * k])


@functools.lru_cache(maxsize=None)
def _line_kernel(K, n: int):
    """The function (G, heads) -> sum over projective v of Q^(n - rank(sum_j v_j G_j)).

    G is a flat n x n x n form and G_j its n x n block with first index j.
    The projective points are the lines {(u, t) : t in F_Q}, one for each
    projective point u of F_Q^(n-1), and the point e_{n-1}. heads lists
    ((u,), w): each line is ranked once and counted w times, so when G has
    coefficients in F_q a line may stand for its Frobenius orbit
    (_orbits); w = 1 over every u gives the plain sum.

    Along a line the slice is P + tB; B = G_(n-1) is the same on every
    line, so slice_sum takes its rank and determinant once, and picks one
    of two routes per form.

    The characteristic polynomial route needs B invertible. If B has rank
    n - 1, the first 2n points v of projective_points(p, n), generated
    lazily, are tried instead: the first whose slice sum_j v_j G_j is
    invertible becomes the last basis vector of the first slot (the block
    at v's leading coordinate is dropped, the later ones move up, and v's
    slice becomes B). The sum over the projective points does not change
    under GL_n acting on the first slot, which permutes the projective
    points and carries each slice along; and v has prime-field
    coordinates, which x -> x^q fixes, so the Frobenius orbits of the heads
    and their weights stay valid. With N_j = -B^-1 G_j, solved once per
    form (_solve), P + tB = B (tI - N(u)) for N(u) = sum_j u_j N_j, so
    det(P + tB) = det B chi(t) with chi(t) = det(tI - N(u)) (_charpoly:
    closed form for n <= 3, Hessenberg reduction and its recurrence
    above). A line costs N(u), chi and the zeros of chi in F_Q: off them
    the rank is n, at a simple zero n - 1, and only a multiple zero takes
    an exact rank, of N(u) - tI.

    The node route takes every other form. det B is the t^n coefficient of
    det(P + tB); exact ranks at the n nodes t = 0..n-1 (element indices)
    fix the line's generic rank r: it is n if det B != 0, and otherwise the
    largest node rank, since a nonzero minor that is not det(P + tB) has
    degree <= n - 1 and cannot vanish at all n nodes. The node with rank r
    names a nonzero r-minor m, det(P + tB) when r = n, of degree <= n with
    t^n coefficient c_n = det B (0 when r < n). Its monomial coefficients
    below are c_0..c_(n-1) = V^-1 (m(t_i) - det B t_i^n), where V[i][k] =
    t_i^k is the Vandermonde matrix over the nodes, inverted once per
    kernel (_solve); node 0 is t = 0, so c_0 = m(0) and only rows 1..n-1
    of V^-1 are applied. Off the zeros of m the rank is r. At a zero t_0 of
    det(P + tB) with m'(t_0) != 0 the rank is n - 1: d/dt det(P + tB) =
    tr(adj(P + tB) B), and the adjugate vanishes where the rank is
    <= n - 2. So exact ranks are left only at the multiple zeros when
    r = n, and at every zero when r < n; a node that is a zero of m is
    treated like any other zero. When Q <= n + 2 every point is ranked
    instead: one or two exact ranks cost less than the interpolation.

    A form takes the characteristic polynomial route when n > 2, Q > 3,
    rank B >= n - 1 and it has at least n^3 / _CHI lines, _CHI = 3.4: the
    solve (and the candidates) cost a few lines' worth per form, and at
    n = 2 or Q <= 3 a chi line is slower than a node line. A B of lower
    rank keeps the node route without trying any candidate: det(P + tB)
    then has degree <= rank B, so m has few terms and few zeros, while chi
    has degree n (diag(3, 3, 3) over F_2, whose slice at (1, 1, 1) is I,
    ran 0.70-0.77x on the chi route). Concise diagonal forms keep the node
    route so, though count_SF hands a diagonal to the kernel as its
    1-cube summands, and a rank-one form as its 1-cube core. Per
    call, warm, random forms, node / chi route forced, on a 2-core host
    with Python 3.11: n = 3 at Q = 7 (8 lines) 0.143 / 0.122 ms, F_2 at
    l = 4 (Q = 16, 7 lines) 0.146 / 0.155 ms, F_4 at l = 2 (Q = 16, 11
    lines) 0.253 / 0.198 ms; n = 4 at Q = 3 (13 lines) 0.317 / 0.384 ms,
    F_2 at l = 2 (Q = 4, 14 lines) 0.442 / 0.506 ms, F_4 (21 lines)
    0.693 / 0.643 ms, F_5 (31 lines) 1.29 / 0.955 ms.

    Both routes hand one zero finder (zeros) the monomial coefficients
    c_0..c_n of their polynomial, m or chi, and it looks for the zeros
    over all of F_Q; the line's sum is weight[r] Q plus the change at
    each zero. The scan evaluates the polynomial at every t against a
    table of t^k built once per kernel; at a zero, Horner's rule gives the
    derivative in O(n). The Frobenius route takes g = gcd(m, t^Q - t), with
    t^Q mod m by repeated squaring: g has the distinct zeros of m in F_Q.
    When r = n, deg g - deg gcd(g, m') of them are simple (every zero
    counts as multiple when m' = 0, as can happen when p <= n), and the
    remaining zeros are found by equal-degree
    splitting (_poly_roots). The scan is taken up to Q = _SCAN[0] = 165
    over a prime field and Q = _SCAN[1] = 125 over an extension. The
    crossover hardly moves with n; it moves with the cost of an addition,
    which every scanned point pays about n times (integer arithmetic mod p
    in a prime field, XOR or Zech logarithms in an extension), and with
    the cost of a square, which the gcd route pays about log2 Q times (n
    products in characteristic 2, about n^2 / 2 otherwise): odd extensions
    cross near Q = 125 and characteristic 2 between 64 and 128, which one
    cut at 125 separates. Per line, scan / Frobenius in us, random forms,
    same host: prime fields, n = 3: Q = 131 43 / 51, 149 48 / 53, 163
    54 / 55, 181 59 / 58, 199 63 / 58; n = 2 (node route): Q = 149 48 / 54,
    181 58 / 57, 199 64 / 56; extensions, n = 3: Q = 81 44 / 54, 121
    63 / 63, 125 61 / 65, 128 40 / 34, 169 86 / 67; n = 4: Q = 81 96 / 112,
    125 117 / 116, 128 82 / 74, 169 150 / 119.
    """
    Q, nn = K.q, n * n
    add, mul, sub = K.add, K.mul, K.sub
    weight = [Q ** (n - r) for r in range(n + 1)]
    # up to two points past n nodes cost less ranked than interpolated
    every = Q <= n + 2
    nodes = range(Q if every else n)
    scan = Q <= _SCAN[K.e > 1]
    chi = n > 2 and Q > 3
    minus_eye = [K.neg(1) if i % (n + 1) == 0 else 0 for i in range(nn)]
    if not every:
        # c_0..c_(n-1) of m are V^-1 (m(t_i) - det B t_i^n), V[i][k] = t_i^k over the
        # nodes; node 0 is t = 0, so row 0 of V^-1 is e_0 and c_0 = m(0): rows 1.. kept
        inv_V = _solve([K.pow(t, k) for t in nodes for k in range(n)],
                       [[int(i == k) for k in range(n)] for i in range(n)], n, K)[1:]
        top = [K.pow(t, n) for t in nodes]
    if scan:
        powers = [[K.pow(t, k) for t in range(Q)] for k in range(1, n + 1)]

    def combine(u: Sequence[int], mats) -> list[int]:
        """sum_j u_j mats[j] for a projective point u, whose first nonzero entry is 1."""
        P = None
        for x, bj in zip(u, mats):
            if x and P is None:
                P = list(bj)
            elif x:
                for i in range(nn):
                    if bj[i]:
                        P[i] = add(P[i], bj[i] if x == 1 else mul(x, bj[i]))
        return P

    def pencil(P: Sequence[int], B: Sequence[int], t: int) -> Sequence[int]:
        if not t:
            return P
        return [add(a, mul(t, b)) if b else a for a, b in zip(P, B)]

    def rank(M: Sequence[int]) -> int:
        if n > 3:  # no determinant needed: plain elimination is cheaper
            return matrix_rank(_square_rows(M, n), n, K)
        return _rank_det(M, n, K)[0]

    def slope(c: list[int], t: int) -> int:
        """The derivative at t of sum_k c_k t^k, by Horner's rule."""
        v, dv = c[n], 0
        for k in range(n - 1, -1, -1):
            dv = add(mul(dv, t), v)
            v = add(mul(v, t), c[k])
        return dv

    def zeros(c: list[int], r: int, P, B) -> int:
        """Sum of weight[rank(P + tB)] - weight[r] over the zeros t in F_Q of m = sum_k c_k t^k.

        r is the rank of P + tB off the zeros of m; r = n when m is
        det(P + tB) up to a nonzero factor.
        """
        s = 0
        if scan:
            # m(t) = 0 where the terms past c_0 add up to -c_0
            values, zero_at = None, K.neg(c[0])
            for ck, bk in zip(c[1:], powers):
                if ck:
                    term = bk if ck == 1 else map(mul, repeat(ck), bk)
                    values = term if values is None else map(add, values, term)
            for t, v in zip(range(Q), values or repeat(0)):
                if v == zero_at:
                    s += (weight[n - 1] if r == n and slope(c, t) else
                          weight[rank(pencil(P, B, t))]) - weight[r]
            return s
        m = _poly_trim(c)
        if len(m) < 2:
            return s
        g = _poly_field_roots(m, K)
        if r == n:
            h = _poly_gcd(g, [mul(i % K.p, a) for i, a in enumerate(m)][1:], K)
            s += (len(g) - len(h)) * (weight[n - 1] - weight[n])
            g = h
        for t in _poly_roots(g, K):
            s += weight[rank(pencil(P, B, t))] - weight[r]
        return s

    def line(P: Sequence[int], B: Sequence[int], det_B: int) -> int:
        Ms = [pencil(P, B, t) for t in nodes]
        if every:
            return sum(weight[rank(M)] for M in Ms)
        at_nodes = [_rank_det(M, n, K) for M in Ms]
        ranks = [r for r, _ in at_nodes]
        r = n if det_B else max(ranks)
        if r == n:
            vals = [sub(det, mul(det_B, x)) for (_, det), x in zip(at_nodes, top)]
        else:
            rows, cols = _eliminate(_square_rows(Ms[ranks.index(r)], n), n, K)
            vals = [_rank_det([M[i * n + j] for i in rows for j in cols], r, K)[1] for M in Ms]
        c = [vals[0]] + [functools.reduce(add, map(mul, row, vals)) for row in inv_V] + [det_B]
        return weight[r] * Q + zeros(c, r, P, B)

    def slice_sum(G: Sequence[int], heads) -> int:
        blocks = [G[j * nn:(j + 1) * nn] for j in range(n)]
        B = blocks[n - 1]
        rank_B, det_B = _rank_det(B, n, K)
        X = None
        if chi and rank_B >= n - 1 and len(heads) * _CHI >= n ** 3:
            # B, or a slice at a prime-field point v made the last basis vector
            negated = [[K.neg(x) for x in b] for b in blocks]
            for v in [(0,) * (n - 1) + (1,)] if det_B else islice(_projective(K.p, n), 2 * n):
                k = v.index(1)
                others = negated[:k] + negated[k + 1:]
                X = _solve(combine(v, blocks), [[x for b in others for x in b[i * n:(i + 1) * n]]
                                                for i in range(n)], n, K)
                if X:
                    break
        if not X:
            total = weight[rank_B]
            for (u,), w in heads:
                total += w * line(combine(u, blocks), B, det_B)
            return total
        # X holds B^-1 (-G_j) side by side, for the blocks G_j other than B
        Ns = [[x for row in X for x in row[j * n:(j + 1) * n]] for j in range(n - 1)]
        total = weight[n]
        for (u,), w in heads:
            N = combine(u, Ns)
            total += w * (weight[n] * Q + zeros(_charpoly(N, n, K), n, N, minus_eye))
        return total

    return slice_sum


def sf_profile(F: MultilinearForm, l_max: int,
               budget_bits: float = DEFAULT_BUDGET_BITS) -> "CountProfile":
    entries = tuple((l, count_SF(F, l, budget_bits)) for l in range(1, l_max + 1))
    return CountProfile(F.field.q, F.n * (F.d - 1), entries)


@dataclass(frozen=True)
class CountProfile:
    """Exact counts per extension level, with the ambient exponent."""

    base: int
    ambient_exp: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for l, c in self.entries:
            if not (1 <= c <= self.base ** (l * self.ambient_exp)):
                raise ValueError(f"count at level {l} outside [1, ambient]")

    def dims(self) -> list[float]:
        """log_{q^l} count for each level."""
        return [math.log(c) / (l * math.log(self.base)) for l, c in self.entries]


# ---------------------------------------------------------------------------
# singular locus of a polynomial
# ---------------------------------------------------------------------------

def count_singular(f: HomogeneousForm, l: int = 1,
                   budget_bits: float = DEFAULT_BUDGET_BITS) -> int:
    """Exact count of points where all n formal partial derivatives vanish.

    F_Q^n is the union of the lines {(u, t) : t in F_Q}, u in F_Q^(n-1). On
    a line the singular points are the roots in F_Q of the gcd g of the
    partials, polynomials in t of degree <= d-1: Q if g = 0, else deg
    gcd(g, t^Q - t). The partials are homogeneous, so the line of c*u (c != 0)
    has as many as that of u: the count is the line u = 0 plus Q-1 times one
    projective u per orbit of x -> x^q, weighted by its size (_orbits).
    """
    if f.field is None:
        raise ValueError("count_singular needs a finite-field polynomial")
    fl = level_poly(f, l)
    K = kernel(fl.field)
    Q, n, mul, add, pw = K.q, f.n, K.mul, K.add, K.pow
    bits = n * math.log2(Q)
    if bits > budget_bits:
        raise BudgetError("singular locus enumeration q^(l*n)", bits, budget_bits)
    partials = [[(exp[:-1], exp[-1], c) for exp, c in fl.partial(j).terms] for j in range(n)]

    def line(u: Sequence[int]) -> int:
        g: tuple[int, ...] = ()
        for terms in partials:
            poly = [0] * max(f.d, 1)
            for head, e, c in terms:
                for x, k in zip(u, head):
                    if k:
                        c = mul(c, pw(x, k))
                poly[e] = add(poly[e], c)
            g = _poly_gcd(g, poly, K)
            if len(g) == 1:
                return 0
        return len(_poly_field_roots(g, K)) - 1 if g else Q

    heads = _orbits(K, n - 1, 1, f.field.q)
    return line((0,) * (n - 1)) + (Q - 1) * sum(w * line(u) for (u,), w in heads)


# ---------------------------------------------------------------------------
# polynomial-ring solution counts N_R
# ---------------------------------------------------------------------------

def _contract_poly_first(flat: Sequence[Sequence[int]], slots: int, n: int,
                         vec: Sequence[Sequence[int]], K, trunc: int | None) -> list[tuple[int, ...]]:
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


@functools.lru_cache(maxsize=None)
def _unit_partition(K, n: int, a: int) -> tuple:
    """(x, size) per orbit of the units of F_q[t]/t^a on its n-vectors.

    x is n coefficient tuples of length a (t^0 first). The units are
    generated by g, a generator of F_q^*, and 1 + c t^k for k = 1..a-1
    and c in an F_p-basis of F_q. If v is the least valuation in x, the
    stabiliser is the units = 1 mod t^(a-v), so the orbit has
    (q-1) q^(a-1-v) elements. The zero vector is its own orbit. Orbits
    are named by their first tuple in product order.
    """
    q, p = K.q, K.p
    polys = list(product(range(q), repeat=a))
    index = {c: i for i, c in enumerate(polys)}
    g = _unit_generator(K)
    units = [(g,)] + [(1,) + (0,) * (k - 1) + (p ** i,) for k in range(1, a) for i in range(K.e)]
    return _orbit_reps(polys, n, [[[index[_poly_mul_trunc(u, c, K, a)] for c in polys]] * n
                                  for u in units])


@functools.lru_cache(maxsize=None)
def _unit_orbits(K, n: int, a: int, b: int) -> tuple:
    """(x, keys, weight) per orbit of _unit_partition(K, n, a).

    keys are the distinct u * x mod t^b, sorted, over the units u mod t^b;
    each is hit by weight elements of the orbit: q^(a-b) when the least
    valuation v in x is below b; when v >= b the one key is 0 and weight
    is the orbit's size.
    """
    units_b = list(product(range(1, K.q), *[range(K.q)] * (b - 1)))

    @functools.cache
    def multiples(c: tuple) -> list:
        return [_poly_mul_trunc(u, c, K, b) for u in units_b]

    out = []
    for x, size in _unit_partition(K, n, a):
        keys = sorted(set(zip(*[multiples(c[:b]) for c in x])))
        out.append((x, tuple(keys), size // len(keys)))
    return tuple(out)


def _unit_generator(K) -> int:
    """The least generator of F_q^*."""
    return next(c for c in range(1, K.q) if len({K.pow(c, i) for i in range(K.q - 1)}) == K.q - 1)


@functools.lru_cache(maxsize=None)
def _prefix_orbits(K, n: int, R: int, blocks: int) -> tuple:
    """(polynomials, size) per orbit of the prefix tuples of count_NR.

    A prefix is blocks vectors of n polynomials of degree < R, listed as
    n * blocks coefficient tuples (t^0 first). The group is generated by
    t -> t + 1, t -> g t, the reversal x(t) -> t^(R-1) x(1/t), all acting
    on every polynomial, and by scaling one block by g, where g generates
    F_q^*. Orbits are named by their first tuple in product order.
    """
    if not blocks:
        return (((), 1),)
    q, mul = K.q, K.mul
    polys = list(product(range(q), repeat=R))
    index = {c: i for i, c in enumerate(polys)}
    g = _unit_generator(K)

    def perm(f) -> list[int]:
        return [index[tuple(f(c))] for c in polys]

    # x(t + 1) = sum_j (sum_s C(s, j) c_s) t^j, binomials in the prime field
    shift = perm(lambda c: [functools.reduce(K.add, [mul(math.comb(s, j) % K.p, c[s])
                                                     for s in range(j, R)]) for j in range(R)])
    rev = perm(lambda c: c[::-1])
    dil = perm(lambda c: [mul(K.pow(g, s), x) for s, x in enumerate(c)])
    scale = perm(lambda c: [mul(g, x) for x in c])
    k = n * blocks
    gens = [[h] * k for h in (shift, rev, dil)]
    gens += [[scale if j // n == b else range(len(polys)) for j in range(k)] for b in range(blocks)]
    return _orbit_reps(polys, k, gens)


def _invertible_at_a_point(F: MultilinearForm, blocks: Sequence[Sequence[Sequence[int]]],
                           K) -> bool:
    """Whether F(x^(1)(t0), ..., x^(d-2)(t0), ., .) is invertible at some t0 in P^1(F_q).

    blocks are the d-2 prefix vectors, each n coefficient tuples of one
    length R (t^0 first). The points are tried in the order t0 = 0 (the
    constant coefficients), infinity (the coefficients of t^(R-1)), then
    t0 = 1..q-1 by Horner's rule; with R = 1 or no blocks every point
    gives the same matrix. det F(x(s, t), ., .), homogenised, is a binary
    form of degree n(d-2)(R-1), so a point where it is nonzero proves the
    last block's system over F_q(t) has only y = 0. The answer is constant
    on an orbit of _prefix_orbits, whose maps permute P^1(F_q) and scale
    the matrix by nonzero factors.
    """
    n, add, mul = F.n, K.add, K.mul

    def unit(at) -> bool:
        return _rank_det(F._contract_prefix([[at(c) for c in x] for x in blocks]), n, K)[1] != 0

    if unit(operator.itemgetter(0)):
        return True
    if not blocks or len(blocks[0][0]) == 1:
        return False
    if unit(operator.itemgetter(-1)):
        return True
    return any(unit(lambda c: functools.reduce(lambda v, s: add(mul(v, t0), s), reversed(c)))
               for t0 in range(1, K.q))


def count_NR(F: MultilinearForm, R: int,
             budget_bits: float = DEFAULT_BUDGET_BITS) -> int:
    """Solutions x in (F_q[t]^n)^(d-1), entry degrees < R, with F(x, e_i) = 0 for all i.

    Enumerates the first d-2 blocks and solves the exact linear system for
    the last block; each prefix contributes q^(nR - rank). A polynomial of
    degree < R is a binary form of degree R-1, x(t) <-> s^(R-1) x(t/s), so
    GL_2(F_q) acts on every block at once; F has constant coefficients, so
    the equations F(x, e_i) = 0, homogenised of degree (d-1)(R-1), are
    carried along by the same change of (s, t). With scaling each block by
    F_q^*, the prefix count is constant on an orbit: one representative per
    orbit is ranked, weighted by the orbit's size (_prefix_orbits). A
    representative whose F(x(t0), ., .) is invertible at some t0 in
    P^1(F_q) has rank nR and adds its weight without a system
    (_invertible_at_a_point).
    """
    if R < 1:
        raise ValueError("degree bound R must be >= 1")
    K = kernel(F.field)
    q, n, d = K.q, F.n, F.d
    full_bits = n * (d - 1) * R * math.log2(q)
    if full_bits > BOX_BUDGET_BITS:
        raise BudgetError("polynomial-ring space q^(n(d-1)R)", full_bits, BOX_BUDGET_BITS)
    prefix_bits = n * R * (d - 2) * math.log2(q)
    if prefix_bits > budget_bits:
        raise BudgetError("polynomial-ring prefix enumeration", prefix_bits, budget_bits)

    unknowns = n * R
    coeffs0: Sequence[Sequence[int]] = [(c,) if c else () for c in F.coeffs]
    total = 0
    for prefix, w in _prefix_orbits(K, n, R, d - 2):
        blocks = [prefix[k * n:(k + 1) * n] for k in range(d - 2)]
        if _invertible_at_a_point(F, blocks, K):
            total += w
            continue
        cur = coeffs0
        for k, x in enumerate(blocks):
            cur = _contract_poly_first(cur, d - k, n, x, K, None)
        rows = _last_block_system(cur, n, R, (d - 1) * (R - 1) + 1)
        total += w * q ** (unknowns - matrix_rank(rows, unknowns, K))
    return total


# ---------------------------------------------------------------------------
# truncated-ring fiber counts N^y
# ---------------------------------------------------------------------------

def zero_fiber_target(F: MultilinearForm, b: int) -> tuple:
    """The all-zero reduction target in ((F_q[t]/t^b)^n)^(d-1)."""
    return tuple(tuple((0,) * b for _ in range(F.n)) for _ in range(F.d - 1))


def fiber_counts(F: MultilinearForm, a: int, b: int,
                 budget_bits: float = DEFAULT_BUDGET_BITS) -> dict[tuple, int]:
    """Histogram {y: N^y} over all reduction targets at once.

    Walks the d-2 prefix blocks one orbit of units u of F_q[t]/t^a per
    block (_unit_orbits): F has constant coefficients, so scaling any
    prefix block by a unit scales the last block's system by it and keeps
    its kernel. The kernel basis, reduced mod t^b, spans the kernel's
    image; each of its q^rank points is hit by q^(dim kernel - rank)
    solutions. Each tuple of the orbits' keys is hit by the product of
    their weights. When a >= 1 and F(x^(1)(0), ..., x^(d-2)(0), ., .) is
    invertible, the last block's matrix is a unit over F_q[t]/t^a and its
    kernel is 0, so no system is built. Values agree with
    oracles.count_fiber entry by entry; the order of the keys is
    unspecified.
    """
    if not (0 <= b <= a):
        raise ValueError("need 0 <= b <= a")
    K = kernel(F.field)
    q, n, d = K.q, F.n, F.d
    bits = n * (d - 1) * a * math.log2(q)
    if bits > budget_bits:
        raise BudgetError("fiber space q^(n(d-1)a)", bits, budget_bits)

    hist: dict[tuple, int] = {}
    # put the n*b coefficients kept mod t^b last: a reduced echelon row that
    # pivots among them is 0 on the others, so the kernel basis vectors of
    # the other free columns reduce to 0 and the rest to a basis of the image
    order = sorted(range(n * a), key=lambda i: i % a < b)
    cut = n * (a - b)
    coeffs0: list[Sequence[int]] = [(c,) if c else () for c in F.coeffs]
    for prefix in product(_unit_orbits(K, n, a, b), repeat=d - 2):
        if a and _rank_det(F._contract_prefix([[c[0] for c in x] for x, _, _ in prefix]), n, K)[1]:
            basis = []
        else:
            cur = coeffs0
            for slots, (x, _, _) in enumerate(prefix):
                cur = _contract_poly_first(cur, d - slots, n, x, K, a)
            rows = _last_block_system(cur, n, a, a)
            basis = nullspace_basis([[r[i] for i in order] for r in rows], n * a, K)
        image = [v[cut:] for v in basis if any(v[cut:])]
        mult = q ** (len(basis) - len(image)) * math.prod(w for _, _, w in prefix)
        tails = [tuple(z[j * b:(j + 1) * b] for j in range(n))
                 for z in span_vectors(image, K, n * b)]
        for key in product(*[keys for _, keys, _ in prefix]):
            for z in tails:
                hist[key + (z,)] = hist.get(key + (z,), 0) + mult
    return hist


# ---------------------------------------------------------------------------
# integer box counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSpec:
    """Height box for integer solutions.

    signed True counts entries in (-bound, bound), False in [0, bound);
    modulus L switches the vanishing test to congruence mod L.
    """

    bound: int
    signed: bool = True
    modulus: int | None = None

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("height bound must be >= 1")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def width(self) -> int:
        return 2 * self.bound - 1 if self.signed else self.bound

    def coords(self) -> list[int]:
        if self.signed:
            return list(range(-self.bound + 1, self.bound))
        return list(range(self.bound))


def _box_gate(G: IntMultilinearForm, box: BoxSpec, budget_bits: float) -> None:
    bits = G.n * (G.d - 1) * math.log2(max(box.width, 2))
    if bits > budget_bits:
        raise BudgetError("box enumeration width^(n(d-1))", bits, budget_bits)


def _box_pure(G: IntMultilinearForm, box: BoxSpec, collect: bool):
    coords = box.coords()
    w = len(coords)
    n, d = G.n, G.d
    ncoords = n * (d - 1)
    total = w ** ncoords
    L = box.modulus
    sols: list[tuple[int, ...]] = []
    count = 0
    for flat in range(total):
        t = flat
        pos = [0] * ncoords
        for k in range(ncoords - 1, -1, -1):
            t, r = divmod(t, w)
            pos[k] = coords[r]
        vecs = [pos[k * n:(k + 1) * n] for k in range(d - 1)]
        if not any(v % L if L else v for v in G.contract_last(vecs)):
            count += 1
            if collect:
                sols.append(tuple(pos))
    return count, sols


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for nonzero a and b."""
    g = math.gcd(a, b)
    m = abs(b) // g
    x = pow(a // g, -1, m) if m > 1 else 0
    return g, x, (g - x * a) // b


def _fold(rows: list[list[int]], vals: list[int]) -> tuple[list[int] | None, int, list[list[int]]]:
    """Unimodular row operations leaving one row with a nonzero value.

    vals[k] is a linear function of rows[k] (one of its entries, or a dot
    product). Returns that row and its value (None, 0 when every value is
    0) and the other rows, whose values are now all 0; together they span
    the same lattice as rows.
    """
    piv, pv, rest = None, 0, []
    for r, v in zip(rows, vals):
        if not v:
            rest.append(r)
        elif piv is None:
            piv, pv = r, v
        else:
            g, x, y = _xgcd(pv, v)
            s, t = pv // g, v // g
            piv, r = [x * a + y * b for a, b in zip(piv, r)], [s * b - t * a for a, b in zip(piv, r)]
            pv = g
            rest.append(r)
    return piv, pv, rest


def _solution_lattice(M: Sequence[int], n: int, L: int | None) -> list[list[int] | None]:
    """Hermite normal form of {y in Z^n : sum_j y_j M[j*n + i] = 0 (mod L) for all i}.

    Without L the equations hold over Z. Returns one entry per column: the
    basis row with its pivot there (positive, zeros before it, entries of
    earlier rows in that column reduced to [0, pivot)), or None when no
    row pivots there.
    """
    if n == 1:
        a = M[0]
        if L is not None:
            return [[L // math.gcd(a, L)]]
        return [None if a else [1]]
    gens = [[int(j == k) for j in range(n)] for k in range(n)]
    for i in range(n):
        a = M[i::n]
        vals = [sum(map(operator.mul, a, gen)) for gen in gens]
        if L is not None:
            vals = [v % L for v in vals]
        # restrict to the generators' combinations that satisfy equation i
        piv, pv, gens = _fold(gens, vals)
        if piv is not None and L is not None:
            step = L // math.gcd(pv, L)
            gens.append([step * u for u in piv])
    basis: list[list[int] | None] = [None] * n
    for col in range(n):
        piv, h, gens = _fold(gens, [r[col] for r in gens])
        if piv is None:
            continue
        if h < 0:
            piv, h = [-u for u in piv], -h
        for row in basis[:col]:
            if row is not None and not 0 <= row[col] < h:
                f = row[col] // h
                row[:] = [u - f * v for u, v in zip(row, piv)]
        basis[col] = piv
    return basis


def _lattice_box(basis: list[list[int] | None], lo: int, hi: int) -> list[tuple[int, ...]]:
    """The lattice points y with lo <= y_j <= hi, in ascending lexicographic order.

    Walks the coordinates in order: at a pivot column the admissible
    values form one arithmetic progression, elsewhere the value is fixed by
    the earlier choices.
    """
    n = len(basis)
    out: list[tuple[int, ...]] = []

    def walk(j: int, v: list[int], pre: tuple[int, ...]) -> None:
        if j == n:
            out.append(pre)
            return
        row, vj = basis[j], v[j]
        if row is None:
            if lo <= vj <= hi:
                walk(j + 1, v, pre + (vj,))
            return
        h = row[j]
        ys = range(lo + (vj - lo) % h, hi + 1, h)
        if j + 1 == n:
            out.extend([pre + (y,) for y in ys])
            return
        for y in ys:
            c = (y - vj) // h
            walk(j + 1, [u + c * r for u, r in zip(v, row)], pre + (y,))

    walk(0, [0] * n, ())
    return out


def _box_lattice(G: IntMultilinearForm, box: BoxSpec, collect: bool):
    """Same result as _box_pure: enumerate the first d-2 blocks, solve the last by HNF."""
    coords = box.coords()
    lo, hi, w = coords[0], coords[-1], len(coords)
    n, L = G.n, box.modulus
    pts = list(product(coords, repeat=n))
    # with L | w every box side is a union of whole periods of a lattice
    # containing L*Z^n, so each prefix contributes w^n / det(lattice)
    periodic = not collect and L is not None and w % L == 0
    sols: list[tuple[int, ...]] = []
    # last-block answers by contracted system; M and -M share one
    memo: dict[tuple[int, ...], list[tuple[int, ...]] | int] = {}

    def solve(flat: Sequence[int], slots: int, head: tuple[int, ...]) -> int:
        if slots > 2:
            return sum(solve(G._contract_first(flat, slots, x), slots - 1, head + x)
                       for x in pts)
        key = tuple(flat)
        got = memo.get(key)
        if got is None:
            got = memo.get(tuple(-c for c in flat))
        if got is None:
            basis = _solution_lattice(flat, n, L)
            if periodic:
                got = w ** n // math.prod(row[j] for j, row in enumerate(basis))
            else:
                got = _lattice_box(basis, lo, hi)
            memo[key] = got
        if periodic:
            return got
        if collect:
            sols.extend([head + y for y in got])
        return len(got)

    return solve(G.coeffs, G.d, ()), sols


def count_box(G: IntMultilinearForm, box: BoxSpec,
              budget_bits: float = BOX_BUDGET_BITS) -> int:
    """Exact count of x in the box with G(x, e_i) = 0 for all i (mod L if set)."""
    _box_gate(G, box, budget_bits)
    return _box_lattice(G, box, collect=False)[0]


def box_solutions(G: IntMultilinearForm, box: BoxSpec,
                  budget_bits: float = BOX_BUDGET_BITS) -> list[tuple[int, ...]]:
    """The solutions themselves, as flat coordinate tuples in enumeration order."""
    _box_gate(G, box, budget_bits)
    return _box_lattice(G, box, collect=True)[1]

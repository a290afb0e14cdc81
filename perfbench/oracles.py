"""Output checks, run outside the timed region.

Each check returns a list of mismatch messages; an instance with any message
counts as failed. The checks are independent of the code path under test
where that is affordable: closed forms for diagonal tensors, the literal
enumeration oracles for small spaces, a slice-rank count in plain modular
arithmetic for the n = 2 prime scans, the BFS closure table for F_2 with n = 2, and a re-sum of
every certificate written here rather than taken from the library.
"""

from __future__ import annotations

import functools
import itertools

from workloads import outer

NAIVE_MAX = 1 << 14  # (d-1)-tuples the naive S_F oracle may enumerate
PURE_MAX = 1 << 15  # box points the pure-Python sieve may enumerate


def check(lib, inst, out) -> list[str]:
    return _CHECKS[inst.func](lib, inst, out)


# -- counts ---------------------------------------------------------------

def diag_count(m: int, n: int, d: int, Q: int) -> int:
    """|S_F| of the m-term diagonal d-linear form over F_Q, n variables per slot."""
    k = d - 1
    return (Q ** k - (Q - 1) ** k) ** m * Q ** (k * (n - m))


def _sf_count(lib, F, l: int, count: int, facts: dict) -> list[str]:
    Q = F.field.q ** l
    errs = []
    if not 1 <= count <= Q ** (F.n * (F.d - 1)):
        errs.append(f"level {l}: count {count} outside [1, ambient]")
    if "diag_m" in facts:
        want = diag_count(facts["diag_m"], F.n, F.d, Q)
        if count != want:
            errs.append(f"level {l}: count {count} != closed form {want}")
    if Q ** (F.n * (F.d - 1)) <= NAIVE_MAX:
        naive = lib.counting.count_SF_naive(F, l)
        if count != naive:
            errs.append(f"level {l}: count {count} != naive {naive}")
    return errs


def _grk(lib, inst, out):
    F, l_max = inst.args[0], inst.args[1]
    entries = out.profile.entries
    if [l for l, _ in entries] != list(range(1, l_max + 1)):
        return [f"levels {[l for l, _ in entries]} != 1..{l_max}"]
    errs = []
    for l, c in entries:
        errs += _sf_count(lib, F, l, c, inst.facts)
    return errs


def _ark(lib, inst, out):
    F, l = inst.args[0], inst.args[1]
    if out.base != F.field.q ** l or out.ambient != F.n * (F.d - 1):
        return ["wrong base or ambient exponent"]
    return _sf_count(lib, F, l, out.count, inst.facts)


def slice_count_n2(coeffs, p: int) -> int:
    """|S_F(F_p)| for n = 2, d = 3 in plain modular arithmetic.

    x = 0 gives the zero slice (p^2 solutions y). Every other x is a nonzero
    multiple of one of the p + 1 points (1, t), (0, 1), and scaling x keeps
    the slice's rank.
    """
    c = [v % p for v in coeffs]
    total = 0
    for x0, x1 in [(1, t) for t in range(p)] + [(0, 1)]:
        a, b, e, f = ((x0 * c[k] + x1 * c[4 + k]) % p for k in range(4))
        if (a * f - b * e) % p:
            total += 1
        elif a or b or e or f:
            total += p
        else:
            total += p * p
    return p * p + (p - 1) * total


def _scan(lib, inst, out):
    G = inst.args[0]
    errs = []
    if len(out.primes) != 25 or list(out.primes) != sorted(out.primes):
        errs.append(f"expected 25 ascending default primes, got {len(out.primes)}")
    for p, r in zip(out.primes, out.ranks):
        if "diag_m" in inst.facts:
            want = diag_count(inst.facts["diag_m"], G.n, G.d, p)
        elif G.n == 2 and G.d == 3:
            want = slice_count_n2(G.coeffs, p)
        else:
            continue
        if r.count != want:
            errs.append(f"p = {p}: count {r.count} != {want}")
    return errs


# -- partition rank and strength ------------------------------------------

def resum_rank_one(K, F, terms) -> bool:
    """The certificate's terms re-sum to F, each term g(x_S) h(x_rest) nonzero."""
    acc = [0] * len(F.coeffs)
    for t in terms:
        if 0 not in t.slots or not any(t.g) or not any(t.h):
            return False
        for i, v in enumerate(outer(t.slots, t.g, t.h, F.n, F.d, K.mul)):
            acc[i] = K.add(acc[i], v)
    return tuple(acc) == F.coeffs


def resum_strength(K, f, terms) -> bool:
    """The certificate's products g * h re-sum to f, degrees in [1, d - 1]."""
    acc: dict[tuple, int] = {}
    for t in terms:
        if not 1 <= t.deg_g <= f.d - 1 or not any(t.g) or not any(t.h):
            return False
        gb = _monomials(f.n, t.deg_g)
        hb = _monomials(f.n, f.d - t.deg_g)
        for ge, gv in zip(gb, t.g):
            if not gv:
                continue
            for he, hv in zip(hb, t.h):
                if hv:
                    e = tuple(a + b for a, b in zip(ge, he))
                    acc[e] = K.add(acc.get(e, 0), K.mul(gv, hv))
    return {e: v for e, v in acc.items() if v} == dict(f.terms)


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d, lexicographic (the library's order)."""
    return sorted(e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d)


@functools.cache
def bfs_table_f2n2() -> dict[tuple, int]:
    """Partition rank of every F_2 tensor with n = 2, d = 3, by BFS over sums."""
    rank1 = set()
    for slots in ((0,), (0, 1), (0, 2)):
        for g in itertools.product(range(2), repeat=2 ** len(slots)):
            for h in itertools.product(range(2), repeat=2 ** (3 - len(slots))):
                if any(g) and any(h):
                    rank1.add(tuple(outer(slots, g, h, 2, 3, lambda a, b: a & b)))
    table = {(0,) * 8: 0}
    frontier = [(0,) * 8]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for f in frontier:
            for t in rank1:
                s = tuple(a ^ b for a, b in zip(f, t))
                if s not in table:
                    table[s] = level
                    nxt.append(s)
        frontier = nxt
    return table


def _prk(lib, inst, out):
    F = inst.args[0]
    K = lib.field.kernel(F.field)
    errs = []
    cert = out.certificate or ()
    if not (out.exact and out.lower == out.upper == len(cert)):
        errs.append(f"not exact with a matching certificate: {out.lower}..{out.upper}")
    elif not resum_rank_one(K, F, cert):
        errs.append("certificate does not re-sum to the tensor")
    if "diag_m" in inst.facts and out.lower != inst.facts["diag_m"]:
        errs.append(f"prk {out.lower} != m = {inst.facts['diag_m']}")
    if "prk_at_most" in inst.facts and out.upper > inst.facts["prk_at_most"]:
        errs.append(f"prk {out.upper} above the planted {inst.facts['prk_at_most']}")
    if inst.facts.get("bfs") and bfs_table_f2n2()[F.coeffs] != out.lower:
        errs.append(f"prk {out.lower} != BFS {bfs_table_f2n2()[F.coeffs]}")
    return errs


def _polar(lib, inst, out):
    errs = _passed(lib, inst, out)
    (f,) = inst.args[0]
    K = lib.field.kernel(f.field)
    s = lib.ranks.str_exact_small(f, budget_bits=22.0)
    if not resum_strength(K, f, s.certificate or ()):
        errs.append("strength certificate does not re-sum")
    P = lib.tensor.polarize(f)
    pr = lib.ranks.prk_exact_small(P)
    if not resum_rank_one(K, P, pr.certificate or ()):
        errs.append("polarisation certificate does not re-sum")
    if s.value and not s.value <= pr.lower <= pr.upper <= 3 * s.value:
        errs.append(f"sandwich broken: str {s.value}, prk {pr.lower}..{pr.upper}")
    return errs


# -- boxes ------------------------------------------------------------------

def _pure(lib, G, box, collect):
    if box.width ** (G.n * (G.d - 1)) > PURE_MAX:
        return None
    return lib.counting._box_pure(G, box, collect)


def _vanishes(G, sol) -> bool:
    n = G.n
    return not any(G.contract_last([list(sol[k * n:(k + 1) * n]) for k in range(G.d - 1)]))


def _lift_search(lib, inst, out):
    G, L, sigma = inst.args
    errs = []
    if any(not _vanishes(G, p) for p in out.points):
        errs.append("a reported point does not vanish over Z")
    pure = _pure(lib, G, lib.counting.BoxSpec(out.height_bound, True, L), True)
    if pure is not None:
        count, sols = pure
        lifted = tuple(s for s in sols if _vanishes(G, s))
        if out.sieve_hits != count or out.points != lifted:
            errs.append(f"sieve {out.sieve_hits} hits / {len(out.points)} points != "
                        f"pure {count} / {len(lifted)} in enumeration order")
    return errs


def _delta0(lib, inst, out):
    G, grid = inst.args
    errs = []
    for (L, count, _), want_L in zip(out.entries, grid):
        pure = _pure(lib, G, lib.counting.BoxSpec(L, signed=False, modulus=L), False)
        if L != want_L:
            errs.append(f"grid point {L} != {want_L}")
        elif pure is not None and pure[0] != count:
            errs.append(f"L = {L}: count {count} != pure {pure[0]}")
    return errs


def _passed(lib, inst, out):
    if not out.passed:
        return [f"{out.suite} hard failure: {out.failures[0]['relation']}"]
    return []


def _lift_threshold(lib, inst, out):
    errs = _passed(lib, inst, out)
    G, L, sigma = inst.args
    B = out.grid["height_bound"]
    pure = _pure(lib, G, lib.counting.BoxSpec(B, True, L), True)
    if pure is not None:
        count, sols = pure
        lifted = sum(1 for s in sols if _vanishes(G, s))
        if (out.grid["solutions"], out.grid["lifted"]) != (count, lifted):
            errs.append(f"solutions/lifted {out.grid['solutions']}/{out.grid['lifted']} "
                        f"!= pure {count}/{lifted}")
    return errs


# -- ring counters -----------------------------------------------------------

def _gamma(lib, inst, out):
    F = inst.args[0]
    errs = []
    sf = out.entries[0][1]
    errs += _sf_count(lib, F, 1, sf, inst.facts)
    for R, NR, _ in out.entries:
        if not 1 <= NR <= sf ** R:
            errs.append(f"R = {R}: N_R = {NR} outside [1, |S_F|^R]")
    return errs


def singular_count_prime(f) -> int:
    """Points of F_p^n where every formal partial of f vanishes (p prime)."""
    p, n = f.field.p, f.n
    partials = []
    for j in range(n):
        partials.append([(e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j] % p)
                         for e, c in f.terms if e[j] and c * e[j] % p])
    count = 0
    for x in itertools.product(range(p), repeat=n):
        ok = True
        for terms in partials:
            v = 0
            for e, c in terms:
                t = c
                for xi, ei in zip(x, e):
                    t = t * pow(xi, ei, p) % p
                v += t
            if v % p:
                ok = False
                break
        count += ok
    return count


def _brk(lib, inst, out):
    f = inst.args[0]
    (l1, c1) = out.profile.entries[0]
    if f.field.e == 1 and l1 == 1 and c1 != singular_count_prime(f):
        return [f"level 1: singular count {c1} != {singular_count_prime(f)}"]
    return []


_CHECKS = {
    "ranks.grk_estimate": _grk,
    "ranks.ark_exact": _ark,
    "charzero.liminf_ark_scan": _scan,
    "ranks.prk_exact_small": _prk,
    "verify.verify_polar_sandwich": _polar,
    "charzero.lift_search": _lift_search,
    "ranks.delta0_estimate": _delta0,
    "verify.verify_lift_threshold": _lift_threshold,
    "verify.verify_scaling_char0": _passed,
    "ranks.gamma_q_estimate": _gamma,
    "verify.verify_scaling_charp": _passed,
    "verify.verify_eval_fibers": _passed,
    "ranks.brk_estimate": _brk,
    "verify.verify_weil": _passed,
}

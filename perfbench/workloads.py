"""Seeded instance batches for the benchmark's two workloads.

An instance is one public multirank call on one input. Each workload joins
two instance groups, and every layer the ROADMAP's open items target does
most of the work in one workload and sits idle in the other: count_SF, the
field kernel and the ring counters in field-counts; the integer box sieve
and the partition-rank catalog search in sieve-search.

A group builder takes the freshly imported library and a ``random.Random``
made from ``--seed`` and returns its instances in the order a single client
runs them. The library sees only the generated inputs; the seed decides
coefficients, never the mix, so every seed does the same kinds and amounts
of work.

``facts`` carries what the output checks know about an input in advance
(a diagonal's m, a planted partition-rank bound).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class Instance:
    key: str
    func: str  # "<module>.<function>", resolved on the library of the rep
    args: tuple
    facts: dict = field(default_factory=dict)


def build(name: str, lib, rnd) -> list[Instance]:
    """The batch of a workload: its groups' instances, keyed by group."""
    batch = []
    for group in WORKLOADS[name]:
        for inst in GROUPS[group](lib, rnd):
            inst.key = f"{group}/{inst.key}"
            batch.append(inst)
    return batch


class _Batch(list):
    def add(self, key, func, *args, **facts):
        self.append(Instance(key, func, args, facts))


def _seed(rnd) -> int:
    return rnd.getrandbits(64)


def finite_count(lib, rnd) -> list[Instance]:
    """count_SF slice ranks and the field kernel do nearly all the work."""
    mk, T = lib.field.make_field, lib.tensor
    F2, F3, F4, F5 = mk(2), mk(3), mk(2, 2), mk(5)
    b = _Batch()
    # F_2, n = 3 up to l = 8: 65 793 projective slices at the top level
    b.add("f2n3-grk8", "ranks.grk_estimate", T.random_form(F2, 3, 3, _seed(rnd)), 8)
    for i in range(10):
        F = T.random_form(F2, 3, 3, _seed(rnd))
        for l in range(1, 6):
            b.add(f"f2n3-r{i}-ark{l}", "ranks.ark_exact", F, l)
    for m in range(4):
        for l in range(1, 7):
            b.add(f"f2n3-diag{m}-ark{l}", "ranks.ark_exact", T.diagonal(m, 3, 3, F2), l, diag_m=m)
    # F_3, n = 2 up to l = 6: builds the F_{3^6} tables
    for i in range(4):
        b.add(f"f3n2-r{i}-grk6", "ranks.grk_estimate", T.random_form(F3, 3, 2, _seed(rnd)), 6)
    for m in range(3):
        b.add(f"f3n2-diag{m}-grk6", "ranks.grk_estimate", T.diagonal(m, 2, 3, F3), 6, diag_m=m)
    # F_4, n = 3 up to l = 4
    b.add("f4n3-grk4", "ranks.grk_estimate", T.random_form(F4, 3, 3, _seed(rnd)), 4)
    for i in range(3):
        F = T.random_form(F4, 3, 3, _seed(rnd))
        for l in range(1, 4):
            b.add(f"f4n3-r{i}-ark{l}", "ranks.ark_exact", F, l)
    for m in range(4):
        b.add(f"f4n3-diag{m}-ark3", "ranks.ark_exact", T.diagonal(m, 3, 3, F4), 3, diag_m=m)
    # F_5, n = 4 at l <= 2: generic elimination
    b.add("f5n4-ark2", "ranks.ark_exact", T.random_form(F5, 3, 4, _seed(rnd)), 2)
    for i in range(6):
        b.add(f"f5n4-r{i}-ark1", "ranks.ark_exact", T.random_form(F5, 3, 4, _seed(rnd)), 1)
    for m in range(5):
        b.add(f"f5n4-diag{m}-ark1", "ranks.ark_exact", T.diagonal(m, 4, 3, F5), 1, diag_m=m)
    # d = 4 over F_2, n = 3 at l <= 3: prefix contraction
    b.add("d4f2n3-grk3", "ranks.grk_estimate", T.random_form(F2, 4, 3, _seed(rnd)), 3)
    for i in range(4):
        F = T.random_form(F2, 4, 3, _seed(rnd))
        for l in (1, 2):
            b.add(f"d4f2n3-r{i}-ark{l}", "ranks.ark_exact", F, l)
    for m in range(4):
        b.add(f"d4f2n3-diag{m}-ark2", "ranks.ark_exact", T.diagonal(m, 3, 4, F2), 2, diag_m=m)
    # prime scans over the 25 default primes below 1024
    for i in range(2):
        b.add(f"scan-r{i}", "charzero.liminf_ark_scan", T.random_int_form(3, 2, 3, _seed(rnd)))
    for m in (1, 2):
        b.add(f"scan-diag{m}", "charzero.liminf_ark_scan", T.int_diagonal(m, 2, 3), diag_m=m)
    return b


def int_sieve(lib, rnd) -> list[Instance]:
    """Integer box sieves; no finite-field counting at all."""
    T = lib.tensor
    b = _Batch()

    def g2():
        return T.random_int_form(3, 2, 3, _seed(rnd))

    def g1(i):  # n = 1 leaves seven forms c*x*y*z; cycle through all of them
        return T.IntMultilinearForm(3, 1, (i % 7 - 3,))

    # collect-in-order sieves; L = 10^4 gives a 79-wide box
    b.add("n2-lift1e4", "verify.verify_lift_threshold", g2(), 10 ** 4, 0.4)
    for i in range(3):
        b.add(f"n2-r{i}-lift1e3", "verify.verify_lift_threshold", g2(), 10 ** 3, 0.4)
    for i in range(2):
        b.add(f"n2-r{i}-search1e3", "charzero.lift_search", g2(), 10 ** 3, 0.4)
    for i in range(3):
        b.add(f"n2-r{i}-search100", "charzero.lift_search", g2(), 100, 0.4)
    # count-only boxes
    for i in range(9):
        b.add(f"n2-r{i}-delta0", "ranks.delta0_estimate", g2(), (2, 3, 4, 5, 6, 7, 8, 12))
    for i in range(8):
        b.add(f"n2-r{i}-char0", "verify.verify_scaling_char0", g2(), 2 + i % 2, 2 + (i // 2) % 2)
    # n = 1 boxes take the pure-Python sieve
    for i in range(10):
        b.add(f"n1-c{i % 7 - 3}-{i}-lift1e4", "verify.verify_lift_threshold", g1(i), 10 ** 4, 0.4)
    for i in range(30):
        b.add(f"n1-c{i % 7 - 3}-{i}-lift1e3", "verify.verify_lift_threshold", g1(i), 10 ** 3, 0.4)
    for i in range(12):
        b.add(f"n1-c{i % 7 - 3}-{i}-search", "charzero.lift_search", g1(i), 10 ** 4, 0.4)
    for i in range(12):
        b.add(f"n1-c{i % 7 - 3}-{i}-delta0", "ranks.delta0_estimate", g1(i), tuple(range(2, 25)))
    for i in range(90):
        b.add(f"n1-c{i % 7 - 3}-{i}-char0", "verify.verify_scaling_char0", g1(i), 3 + i % 3, 2 + i % 4)
    return b


def outer(slots, g, h, n, d, mul):
    """Coefficients of g(x_slots) * h(x_rest), row-major over n^d."""
    rest = tuple(k for k in range(d) if k not in slots)
    out = []
    for idx in itertools.product(range(n), repeat=d):
        gi = hi = 0
        for k in slots:
            gi = gi * n + idx[k]
        for k in rest:
            hi = hi * n + idx[k]
        out.append(mul(g[gi], h[hi]))
    return out


def planted_f2(n: int, d: int, terms: list) -> tuple[int, ...]:
    """Sum over F_2 of the given rank-one terms (slots, g, h)."""
    acc = [0] * n ** d
    for slots, g, h in terms:
        for i, v in enumerate(outer(slots, g, h, n, d, lambda a, b: a & b)):
            acc[i] ^= v
    return tuple(acc)


def _random_term_f2(rnd, n: int, d: int):
    parts = [s for size in range(1, d) for s in itertools.combinations(range(d), size)
             if s[0] == 0]
    slots = parts[rnd.randrange(len(parts))]
    g = [0] * n ** len(slots)
    h = [0] * n ** (d - len(slots))
    while not any(g):
        g = [rnd.randrange(2) for _ in g]
    while not any(h):
        h = [rnd.randrange(2) for _ in h]
    return slots, g, h


def prk_search(lib, rnd) -> list[Instance]:
    """Catalog build and iterative-deepening search; count_SF barely runs."""
    mk, T = lib.field.make_field, lib.tensor
    F2, F3, F4, F5 = mk(2), mk(3), mk(2, 2), mk(5)
    b = _Batch()
    # F_2, n = 3: a 10 045-term catalog; diagonals and planted sums
    for m in range(3):
        b.add(f"f2n3-diag{m}", "ranks.prk_exact_small", T.diagonal(m, 3, 3, F2), diag_m=m)
    for i in range(20):
        r = 1 + i % 2
        terms = [_random_term_f2(rnd, 3, 3) for _ in range(r)]
        F = T.MultilinearForm(F2, 3, 3, planted_f2(3, 3, terms))
        b.add(f"f2n3-p{i}", "ranks.prk_exact_small", F, prk_at_most=r)
    # up to rank three, searched at depth 3: the first term x_0 y_2 z_2 is the
    # first catalog entry, which bounds the search at about 2 * 10 045 nodes
    for i in range(4):
        terms = [((0,), [1, 0, 0], [0] * 8 + [1])] + [_random_term_f2(rnd, 3, 3)
                                                      for _ in range(2)]
        F = T.MultilinearForm(F2, 3, 3, planted_f2(3, 3, terms))
        b.add(f"f2n3-q{i}", "ranks.prk_exact_small", F, prk_at_most=3)
    # n = 2 over F_3, F_4, F_5
    for K in (F3, F4, F5):
        for i in range(10):
            b.add(f"f{K.q}n2-r{i}", "ranks.prk_exact_small", T.random_form(K, 3, 2, _seed(rnd)))
    # every F_2 tensor with n = 2 (the BFS closure table checks these)
    for bits in range(256):
        coeffs = tuple((bits >> k) & 1 for k in range(8))
        b.add(f"f2n2-all{bits}", "ranks.prk_exact_small", T.MultilinearForm(F2, 3, 2, coeffs),
              bfs=True)
    # d = 4, n = 2: the catalog search stays the fallback here
    for i in range(10):
        b.add(f"d4f2n2-r{i}", "ranks.prk_exact_small", T.random_form(F2, 4, 2, _seed(rnd)))
    # F_5 binary cubics: strength, prk of the polarisation, Birch estimate
    basis = T.monomial_exponents(2, 3)
    for i in range(40):
        f = T.HomogeneousForm.from_terms(F5, 2, 3, {e: rnd.randrange(5) for e in basis})
        b.add(f"polar-r{i}", "verify.verify_polar_sandwich", [f])
    return b


def ring_fibers(lib, rnd) -> list[Instance]:
    """Prefix-then-kernel counters over F_q[t], plus Weil restriction."""
    mk, T = lib.field.make_field, lib.tensor
    F2, F3, F4, F5, F9 = mk(2), mk(3), mk(2, 2), mk(5), mk(3, 2)
    b = _Batch()
    for i in range(30):
        b.add(f"gamma-f2-r{i}-R3", "ranks.gamma_q_estimate", T.random_form(F2, 3, 2, _seed(rnd)), 3)
    for i in range(4):
        b.add(f"gamma-f2-r{i}-R4", "ranks.gamma_q_estimate", T.random_form(F2, 3, 2, _seed(rnd)), 4)
    for i in range(18):
        b.add(f"gamma-f3-r{i}-R3", "ranks.gamma_q_estimate", T.random_form(F3, 3, 2, _seed(rnd)), 3)
    for i in range(4):
        b.add(f"charp-f3-r{i}-a3", "verify.verify_scaling_charp",
              T.random_form(F3, 3, 2, _seed(rnd)), 3, 1 + i % 2)
    for i in range(4):
        b.add(f"charp-f2-r{i}-a4", "verify.verify_scaling_charp",
              T.random_form(F2, 3, 2, _seed(rnd)), 4, 2)
    for i in range(6):
        b.add(f"charp-f2-r{i}-a3", "verify.verify_scaling_charp",
              T.random_form(F2, 3, 2, _seed(rnd)), 3, i % 4)
    for i in range(8):
        K = F2 if i % 2 == 0 else F3
        b.add(f"evalfib-f{K.q}-r{i}", "verify.verify_eval_fibers", T.random_form(K, 3, 2, _seed(rnd)), 3)
    for i in range(6):
        b.add(f"brk-f5-r{i}", "ranks.brk_estimate", T.random_poly(F5, 3, 3, _seed(rnd)), 2)
    for m in (1, 2):
        b.add(f"weil-f4-diag{m}", "verify.verify_weil", T.diagonal(m, 2, 3, F4), F2, 3, 5)
    for m in (0, 1):
        b.add(f"weil-f9-diag{m}", "verify.verify_weil", T.diagonal(m, 2, 3, F9), F3, 2, 3)
    for i in range(35):
        b.add(f"weil-f4-r{i}", "verify.verify_weil", T.random_form(F4, 3, 2, _seed(rnd)), F2)
        b.add(f"weil-f9-r{i}", "verify.verify_weil", T.random_form(F9, 3, 2, _seed(rnd)), F3)
    return b


GROUPS = {
    "finite-count": finite_count,
    "ring-fibers": ring_fibers,
    "int-sieve": int_sieve,
    "prk-search": prk_search,
}

WORKLOADS = {
    "field-counts": ("finite-count", "ring-fibers"),
    "sieve-search": ("int-sieve", "prk-search"),
}

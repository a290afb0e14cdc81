"""Integer tensors through prime reduction.

Reduce an integer tensor mod p, scan exact analytic ranks across a prime
list, and estimate the rational geometric rank from the tail of the scan
(three consecutive values within 0.25 of a common integer). Large primes
carry the signal, so the default list is the 25 primes nearest below the
budget ceiling; small primes are cheap sanity points.

lift_search drives the mod-L sieve and reports its exact integer zeros and
log_L(count). The lift's rule lives here, and verify's lift suite reuses it:
the height bound, the zone (_lift_zone) and the re-check over Z (_exact_values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError
from .field import is_prime, make_field
from .counting import BoxSpec, box_solutions, BOX_BUDGET_BITS, DEFAULT_BUDGET_BITS
from .ranks import ExactLogRank, ark_exact
from .tensor import IntMultilinearForm, MultilinearForm

ESTIMATE_WINDOW = 3
ESTIMATE_GAP = 0.25
DEFAULT_PRIME_COUNT = 25


def reduce_mod_p(F: IntMultilinearForm, p: int) -> MultilinearForm:
    """Entry-wise reduction to F_p; evaluation commutes with reduction."""
    spec = make_field(p)
    return MultilinearForm(spec, F.d, F.n, tuple(c % p for c in F.coeffs))


def default_primes(F: IntMultilinearForm, budget_bits: float = 20.0) -> list[int]:
    """The DEFAULT_PRIME_COUNT primes nearest below the counting ceiling, ascending.

    The ceiling keeps n(d-2) * log2(p) within the budget so every scan
    entry is an exact count.
    """
    exponent = max(F.n * (F.d - 2), 1)
    ceiling = min(int(2 ** (budget_bits / exponent)), 1 << 20)
    primes: list[int] = []
    p = ceiling
    while p >= 2 and len(primes) < DEFAULT_PRIME_COUNT:
        if is_prime(p):
            primes.append(p)
        p -= 1
    return sorted(primes)


@dataclass(frozen=True)
class PrimeScan:
    """Per-prime exact analytic ranks with a running minimum."""

    primes: tuple[int, ...]
    ranks: tuple[ExactLogRank, ...]
    running_min: tuple[float, ...]
    grk_estimate_Q: int | None

    def to_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "ranks": [r.to_dict() for r in self.ranks],
            "running_min": list(self.running_min),
            "grk_estimate_Q": self.grk_estimate_Q,
        }


def liminf_ark_scan(F: IntMultilinearForm, primes=None,
                    budget_bits: float = DEFAULT_BUDGET_BITS) -> PrimeScan:
    """Exact ark of F mod p for each prime, with the tail-window estimate.

    The rational geometric-rank estimate is set when the last three
    per-prime values lie within 0.25 of a common integer. Without primes,
    the scan takes default_primes under its own budget, capped at 20 bits.
    """
    if primes is None:
        primes = default_primes(F, min(budget_bits, 20.0))
    primes = sorted(int(p) for p in primes)
    if not primes:
        raise ValueError("prime list is empty")
    ranks = []
    rmin: list[float] = []
    for p in primes:
        r = ark_exact(reduce_mod_p(F, p), 1, budget_bits)
        ranks.append(r)
        v = r.float_value
        rmin.append(v if not rmin else min(rmin[-1], v))
    estimate = None
    if len(ranks) >= ESTIMATE_WINDOW:
        tail = [r.float_value for r in ranks[-ESTIMATE_WINDOW:]]
        k = round(tail[-1])
        if all(abs(v - k) < ESTIMATE_GAP for v in tail):
            estimate = k
    return PrimeScan(tuple(primes), tuple(ranks), tuple(rmin), estimate)


@dataclass(frozen=True)
class LiftReport:
    """Small-height integer points found by the mod-L sieve."""

    L: int
    sigma: float
    height_bound: int
    threshold_reached: bool
    points: tuple[tuple[int, ...], ...]
    sieve_hits: int
    dim_statistic: float

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "sigma": self.sigma,
            "height_bound": self.height_bound,
            "threshold_reached": self.threshold_reached,
            "points": [list(p) for p in self.points],
            "sieve_hits": self.sieve_hits,
            "dim_statistic": self.dim_statistic,
        }


def lift_height_bound(L: int, sigma: float) -> int:
    return math.ceil(L ** sigma)


def _lift_zone(G: IntMultilinearForm, L: int, sigma: float) -> tuple[int, int]:
    """(B, C): the box ||x|| < B = ceil(L^sigma) and C = max|coeff| * n^(d-1);
    C * ||x||^(d-1) < L forces a solution mod L to vanish over Z."""
    if not (0 < sigma < 1 / (G.d - 1)):
        raise ValueError(f"sigma must lie in (0, 1/(d-1)); got {sigma}")
    return lift_height_bound(L, sigma), G.max_abs_coeff() * G.n ** (G.d - 1)


def _exact_values(G: IntMultilinearForm, hits):
    """G(x) over Z, the vector of last-slot coefficients, for each flat hit x."""
    n, blocks = G.n, range(G.d - 1)
    for sol in hits:
        yield G.contract_last([list(sol[k * n:(k + 1) * n]) for k in blocks])


def lift_search(F: IntMultilinearForm, L: int, sigma: float,
                budget_bits: float = BOX_BUDGET_BITS) -> LiftReport:
    """Exact integer points of the solution set via the mod-L sieve.

    Enumerates x with ||x|| < ceil(L^sigma) and G(x) = 0 mod L, keeps the
    points that vanish exactly (re-checked over the integers), and reports
    log_L(count) as the implied dimension lower-bound statistic.
    """
    B, c_f = _lift_zone(F, L, sigma)
    hits = box_solutions(F, BoxSpec(B, signed=True, modulus=L), budget_bits)
    points = tuple(sol for sol, exact in zip(hits, _exact_values(F, hits)) if not any(exact))
    stat = math.log(len(points)) / math.log(L) if points else float("-inf")
    return LiftReport(L, sigma, B, c_f * B ** (F.d - 1) < L, points, len(hits), stat)

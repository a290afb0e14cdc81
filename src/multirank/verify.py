"""Executable property campaigns.

Each check tests an effective inequality on explicit instances and
returns a structured VerifyReport. Checks are split into hard (guaranteed
at the tested parameters, so a failure is a genuine bug) and advisory
(resting on heuristic stabilized estimates or on statements only
guaranteed asymptotically); advisory findings mark the report but never
fail it. A named suite (run_suite) adds up its checks' reports and stops
at the first hard failure; when a directory is given, the tensor of that
failing case is emitted there as a tensor file that re-loads and
re-fails. Polynomial instances (the polar suite) are not emitted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from itertools import cycle, islice, product
from typing import Iterable, Sequence

from .errors import BudgetError
from .field import FieldSpec, embed, make_field
from .counting import (
    BoxSpec,
    _count_sf_lines,
    _Plan,
    box_solutions,
    count_box,
    count_NR,
    count_SF,
    fiber_counts,
    level_form,
    BOX_BUDGET_BITS,
    DEFAULT_BUDGET_BITS,
)
from .charzero import _exact_values, _lift_zone
from .ranks import (
    ExactLogRank,
    ark_exact,
    brk_estimate,
    grk_estimate,
    prk_exact_small,
    str_exact_small,
)
from .rng import SplitMix64
from .tensor import (
    HomogeneousForm,
    IntMultilinearForm,
    MultilinearForm,
    diagonal,
    direct_sum,
    monomial_exponents,
    polarize,
    random_form,
    random_int_form,
    weil_restrict,
)
from . import tensorio


@dataclass
class VerifyReport:
    suite: str
    grid: dict
    cases: int = 0
    failures: list[dict] = dc_field(default_factory=list)
    advisories: list[dict] = dc_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "grid": self.grid,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "advisories": self.advisories,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "VerifyReport":
        return cls(
            suite=doc["suite"],
            grid=doc["grid"],
            cases=doc["cases"],
            failures=list(doc.get("failures", [])),
            advisories=list(doc.get("advisories", [])),
            elapsed=doc.get("elapsed", 0.0),
        )


def _failure(relation: str, instance: dict, observed: dict) -> dict:
    return {"relation": relation, "instance": instance, "observed": observed}


def _emit_counterexample(report: VerifyReport, out_dir) -> None:
    """Write the tensor named in the first failure's instance, if it names
    one, to out_dir/<suite>_counterexample.json and record the path there."""
    failure = report.failures[0]
    doc = failure["instance"].get("tensor")
    if doc is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{report.suite}_counterexample.json"
    tensorio.dump_tensor(tensorio.form_from_dict(doc), target)
    failure["counterexample_file"] = str(target)


# ---------------------------------------------------------------------------
# scaling in positive characteristic
# ---------------------------------------------------------------------------

def verify_scaling_charp(F: MultilinearForm, a: int, b: int,
                         budget_bits: float = DEFAULT_BUDGET_BITS) -> VerifyReport:
    """Every fiber count N^y is at most N^0, plus the subgroup corollary.

    H = (F_q[t]/t^a)^n with reduction mod t^b; the histogram of solution
    counts over all reduction targets is computed in one pass.
    """
    rep = VerifyReport("scale-charp", {"q": F.field.q, "n": F.n, "d": F.d,
                                       "a": a, "b": b})
    start = time.perf_counter()
    hist = fiber_counts(F, a, b, budget_bits)
    zero_key = tuple(tuple((0,) * b for _ in range(F.n)) for _ in range(F.d - 1))
    n0 = hist.get(zero_key, 0)
    inst = {"tensor": tensorio.form_to_dict(F), "a": a, "b": b}
    for key, cnt in sorted(hist.items()):
        rep.cases += 1
        if cnt > n0:
            rep.failures.append(_failure(
                "N^y <= N^0", inst,
                {"y": [[list(c) for c in vec] for vec in key], "N^y": cnt, "N^0": n0}))
            break
    total = sum(hist.values())
    index = F.field.q ** (F.n * b * (F.d - 1))
    rep.cases += 1
    if rep.passed and total > index * n0:
        rep.failures.append(_failure(
            "total <= [H:H0]^(d-1) * N over H0", inst,
            {"total": total, "index": index, "N^0": n0}))
    rep.elapsed = time.perf_counter() - start
    return rep


def verify_eval_fibers(F: MultilinearForm, R_max: int,
                       budget_bits: float = DEFAULT_BUDGET_BITS) -> VerifyReport:
    """N_R <= |S_F| * N_{R-1} and the product bound N_R <= |S_F|^R, exactly."""
    rep = VerifyReport("eval-fibers", {"q": F.field.q, "n": F.n, "d": F.d,
                                       "R_max": R_max})
    start = time.perf_counter()
    sf = count_SF(F, 1, budget_bits)
    counts = {R: count_NR(F, R, budget_bits) for R in range(1, R_max + 1)}
    inst = {"tensor": tensorio.form_to_dict(F), "R_max": R_max}
    for R in range(2, R_max + 1):
        rep.cases += 2
        if counts[R] > sf * counts[R - 1]:
            rep.failures.append(_failure(
                "N_R <= |S_F| * N_{R-1}", inst,
                {"R": R, "N_R": str(counts[R]), "N_prev": str(counts[R - 1]),
                 "S_F": str(sf)}))
            break
        if counts[R] > sf ** R:
            rep.failures.append(_failure(
                "N_R <= |S_F|^R", inst,
                {"R": R, "N_R": str(counts[R]), "S_F": str(sf)}))
            break
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# scaling in characteristic zero and mod-L lifting
# ---------------------------------------------------------------------------

def verify_scaling_char0(G: IntMultilinearForm, R: int, L: int,
                         budget_bits: float = BOX_BUDGET_BITS) -> VerifyReport:
    """N-count in [0, LR) is at most L^(n(d-1)) times the Z-count in (-R, R)."""
    rep = VerifyReport("scale-char0", {"n": G.n, "d": G.d, "R": R, "L": L})
    start = time.perf_counter()
    n_lr = count_box(G, BoxSpec(L * R, signed=False), budget_bits)
    z_r = count_box(G, BoxSpec(R, signed=True), budget_bits)
    bound = L ** (G.n * (G.d - 1)) * z_r
    rep.cases += 1
    if n_lr > bound:
        rep.failures.append(_failure(
            "N_{LR} <= L^(n(d-1)) * Z_R",
            {"tensor": tensorio.form_to_dict(G), "R": R, "L": L},
            {"N_LR": str(n_lr), "Z_R": str(z_r), "bound": str(bound)}))
    rep.elapsed = time.perf_counter() - start
    return rep


def verify_lift_threshold(G: IntMultilinearForm, L: int, sigma: float,
                          budget_bits: float = BOX_BUDGET_BITS) -> VerifyReport:
    """Small-height solutions mod L lift to exact integer solutions.

    charzero's _lift_zone gives the box ||x|| < B = ceil(L^sigma) and
    C = max|coeff| * n^(d-1), and _exact_values re-contracts each hit over Z.
    A solution with C * ||x||^(d-1) < L is forced to lift (its values are too
    small to be nonzero multiples of L), so one that does not is a hard
    failure and the check stops there. threshold_reached records whether the
    whole box sits inside that zone; outside it, non-lifting solutions are
    advisory ("threshold not reached"), never failures.
    """
    B, c_f = _lift_zone(G, L, sigma)
    rep = VerifyReport("lift", {"n": G.n, "d": G.d, "L": L, "sigma": sigma, "height_bound": B,
                                "threshold_reached": c_f * B ** (G.d - 1) < L})
    start = time.perf_counter()
    sols = box_solutions(G, BoxSpec(B, signed=True, modulus=L), budget_bits)
    inst = {"tensor": tensorio.form_to_dict(G), "L": L, "sigma": sigma}
    lifted = 0
    for sol, exact in zip(sols, _exact_values(G, sols)):
        rep.cases += 1
        if not any(exact):
            lifted += 1
            continue
        height = max(abs(v) for v in sol)
        payload = _failure("G(x) = 0 mod L implies G(x) = 0", inst,
                           {"x": list(sol), "G(x)": [str(v) for v in exact],
                            "height": height})
        if c_f * height ** (G.d - 1) < L:
            rep.failures.append(payload)
            break
        payload["note"] = "threshold not reached"
        rep.advisories.append(payload)
    rep.grid["solutions"] = len(sols)
    rep.grid["lifted"] = lifted
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# rank-chain inequalities
# ---------------------------------------------------------------------------

def _affordable_level(F: MultilinearForm, l_max: int, budget_bits: float) -> int:
    """The largest level l <= l_max whose count_SF slice enumeration fits the budget, but not below 2.

    The exponent is count_SF's own gate, read from the counting plan (_Plan.bits).
    """
    lm = l_max
    while lm > 2 and _Plan.bits(F, lm) > budget_bits:
        lm -= 1
    return lm


def verify_rank_chain(corpus: Sequence[MultilinearForm], l_max: int = 8,
                      check_extension_prk: bool = False,
                      budget_bits: float = DEFAULT_BUDGET_BITS) -> VerifyReport:
    """Chain inequalities over a corpus.

    Hard (when the estimate stabilized): float ark <= (d-1) * grk_hat and
    float ark >= grk_hat * (1 - log_q(d-1)); exact direct-sum count
    multiplicativity on consecutive pairs; optionally prk <= 2 * prk over
    the degree-2 extension with exact partition ranks on both sides.
    Advisory: missing stabilization, and grk_hat <= prk upper bound.
    """
    rep = VerifyReport("rank-chain", {"corpus_size": len(corpus), "l_max": l_max})
    start = time.perf_counter()
    tol = 1e-9
    for F in corpus:
        inst = {"tensor": tensorio.form_to_dict(F)}
        q, d = F.field.q, F.d
        ark = ark_exact(F, 1, budget_bits).float_value
        est = grk_estimate(F, _affordable_level(F, l_max, budget_bits), budget_bits)
        rep.cases += 1
        if est.stabilized is None:
            rep.advisories.append(_failure(
                "grk estimate did not stabilize", inst,
                {"dims": list(est.per_level_dim), "gap": est.gap}))
        else:
            g = est.stabilized
            if ark > (d - 1) * g + tol:
                rep.failures.append(_failure(
                    "ark <= (d-1) * grk", inst, {"ark": ark, "grk_hat": g}))
                break
            low = g * (1 - math.log(d - 1) / math.log(q))
            if ark < low - tol:
                rep.failures.append(_failure(
                    "ark >= grk * (1 - log_q(d-1))", inst,
                    {"ark": ark, "grk_hat": g, "floor": low}))
                break
        if d > 2:
            try:
                pr = prk_exact_small(F)
            except BudgetError:
                pr = None
            if pr is not None and est.stabilized is not None:
                if est.stabilized > pr.upper:
                    rep.advisories.append(_failure(
                        "grk_hat <= prk (advisory: finite-field status open)", inst,
                        {"grk_hat": est.stabilized, "prk": pr.upper}))
            if check_extension_prk and pr is not None:
                Fl = level_form(F, 2)
                try:
                    prl = prk_exact_small(Fl)
                except BudgetError:
                    prl = None
                if prl is not None:
                    rep.cases += 1
                    if pr.lower > 2 * prl.lower:
                        rep.failures.append(_failure(
                            "prk(F) <= l * prk(F_l)", inst,
                            {"l": 2, "prk": pr.lower, "prk_ext": prl.lower}))
                        break
    if rep.passed:
        for A, B in zip(corpus, corpus[1:]):
            if A.field != B.field or A.d != B.d:
                continue
            if (A.n + B.n) ** A.d > 1 << 20:
                continue
            S = direct_sum(A, B)
            # S counted whole, as one cube, since count_SF would multiply its
            # summands' counts; a d = 2 sum is never split. S fits count_SF's
            # gate at l = 1: grk_estimate counted A and B at l = 2 within it,
            # and n_A + n_B <= 2 max(n_A, n_B).
            cs = _count_sf_lines(S, 1) if S.d > 2 else count_SF(S, 1, budget_bits)
            rep.cases += 1
            ca, cb = count_SF(A, 1, budget_bits), count_SF(B, 1, budget_bits)
            if cs != ca * cb:
                rep.failures.append(_failure(
                    "|S_{F + G}| = |S_F| * |S_G| (direct sum)",
                    {"tensor": tensorio.form_to_dict(S)},
                    {"lhs": str(cs), "rhs": str(ca * cb)}))
                break
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# polarization sandwich and Birch bound
# ---------------------------------------------------------------------------

def verify_polar_sandwich(polys: Sequence[HomogeneousForm], l_max: int = 2,
                          budget_bits: float = DEFAULT_BUDGET_BITS) -> VerifyReport:
    """str(f) <= prk(polarization) <= binom(d, floor(d/2)) * str(f), and
    Brk_hat <= 2 * str(f) whenever the Birch estimate stabilizes."""
    rep = VerifyReport("polar", {"corpus_size": len(polys), "l_max": l_max})
    start = time.perf_counter()
    for f in polys:
        if f.field is None:
            raise ValueError("polar sandwich needs finite-field polynomials")
        if f.field.p <= f.d:
            raise ValueError("characteristic must exceed the degree")
        inst = {"poly": tensorio.poly_to_dict(f)}
        s = str_exact_small(f).value
        P = polarize(f)
        pr = prk_exact_small(P)
        binom = math.comb(f.d, f.d // 2)
        rep.cases += 1
        if s == 0:
            ok = pr.upper == 0
        else:
            ok = s <= pr.lower and pr.upper <= binom * s
        if not ok:
            rep.failures.append(_failure(
                "str <= prk(polar) <= binom(d, d//2) * str", inst,
                {"str": s, "prk": [pr.lower, pr.upper], "binom": binom}))
            break
        est = brk_estimate(f, l_max, budget_bits)
        rep.cases += 1
        if est.stabilized is None:
            rep.advisories.append(_failure(
                "Brk estimate did not stabilize", inst,
                {"dims": list(est.per_level_dim), "gap": est.gap}))
        elif est.stabilized > 2 * s:
            rep.failures.append(_failure(
                "Brk <= 2 * str", inst, {"brk_hat": est.stabilized, "str": s}))
            break
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# Weil restriction
# ---------------------------------------------------------------------------

def verify_weil(F: MultilinearForm, subfield: FieldSpec, l_max: int = 0,
                l_max_restricted: int | None = None,
                budget_bits: float = DEFAULT_BUDGET_BITS) -> VerifyReport:
    """Restriction of scalars preserves the solution count exactly.

    |S_{F_K}(F_q)| = |S_F(F_{q^l})|, hence float ark multiplies by l; the
    stabilized grk estimates multiply as well when both exist. The
    restricted form lives over the smaller field, so it usually needs more
    levels to stabilize; l_max_restricted (default l_max + 2, budget
    permitting) controls that side.
    """
    emb = embed(subfield, F.field)
    ell = emb.degree
    rep = VerifyReport("weil", {"q": subfield.q, "ell": ell, "n": F.n, "d": F.d,
                                "l_max": l_max})
    start = time.perf_counter()
    FK = weil_restrict(F, emb)
    inst = {"tensor": tensorio.form_to_dict(F), "subfield": subfield.descriptor()}
    c_top = count_SF(F, 1, budget_bits)
    c_res = count_SF(FK, 1, budget_bits)
    rep.cases += 1
    if c_res != c_top:
        rep.failures.append(_failure(
            "|S_{F_K}(F_q)| = |S_F(F_{q^l})|", inst,
            {"restricted": str(c_res), "extension": str(c_top)}))
        rep.elapsed = time.perf_counter() - start
        return rep
    ark_top = ExactLogRank(F.n * (F.d - 1), c_top, F.field.q).float_value
    ark_res = ExactLogRank(FK.n * (FK.d - 1), c_res, FK.field.q).float_value
    rep.cases += 1
    if abs(ark_res - ell * ark_top) > 1e-12:
        rep.failures.append(_failure(
            "ark(F_K) = l * ark(F)", inst,
            {"ark_restricted": ark_res, "ark_extension": ark_top, "ell": ell}))
    if rep.passed and l_max >= 2:
        lm_res = _affordable_level(FK, l_max + 2 if l_max_restricted is None else l_max_restricted,
                                   budget_bits)
        est_top = grk_estimate(F, l_max, budget_bits)
        est_res = grk_estimate(FK, lm_res, budget_bits)
        rep.cases += 1
        if est_top.stabilized is not None and est_res.stabilized is not None:
            if est_res.stabilized != ell * est_top.stabilized:
                rep.failures.append(_failure(
                    "grk_hat(F_K) = l * grk_hat(F)", inst,
                    {"restricted": est_res.stabilized, "extension": est_top.stabilized}))
        else:
            rep.advisories.append(_failure(
                "grk estimates did not both stabilize", inst,
                {"top": est_top.stabilized, "restricted": est_res.stabilized}))
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# campaign presets (CLI surface)
# ---------------------------------------------------------------------------

def _campaign(suite: str, grid: dict, reports: Iterable[VerifyReport],
              out_dir) -> VerifyReport:
    """Add up check reports until the first failing one, then emit its tensor."""
    out = VerifyReport(suite, grid)
    for r in reports:
        out.cases += r.cases
        out.failures += r.failures
        out.advisories += r.advisories
        out.elapsed += r.elapsed
        if r.failures:
            if out_dir is not None:
                _emit_counterexample(out, out_dir)
            break
    return out


def _seeded(suite: str, grid: str, seed: int | None) -> SplitMix64:
    if seed is None:
        raise ValueError(f"the {grid} grid of {suite} is seeded; a seed is required")
    return SplitMix64(seed)


def _weil_cases(rng: SplitMix64, ncases: int):
    # the restricted side stabilizes at level 5 over F_2 (Q = 32); over
    # F_3 no affordable level does, so take the cheap cap and let the
    # discipline mark it advisory
    for p, lm_res in ((2, 5), (3, 3)):
        big, small = make_field(p, 2), make_field(p)
        for m in range(3):
            yield verify_weil(diagonal(m, 2, 3, big), small, 3, lm_res)
        for _ in range(ncases // 2):
            yield verify_weil(random_form(big, 3, 2, rng.next_u64()), small)


def run_suite(name: str, grid: str = "default", seed: int | None = None,
              counterexample_dir=None) -> VerifyReport:
    """Named campaign with a fixed grid; seeded suites require a seed.

    The random suites build their cases lazily, so no seed is drawn and no
    check runs after the first failing case. With counterexample_dir, the
    tensor of that case is written to <suite>_counterexample.json there.
    """
    small = grid == "small"
    record = {"grid": grid, "seed": seed}
    if name == "scale-charp":
        rng = _seeded(name, grid, seed)
        cells = [(q, n, a, b) for q in (2, 3) for n in (1, 2)
                 for a in range(1, (2 if small else 3) + 1) for b in range(a + 1)]
        record["cases"] = ncases = 12 if small else 50
        reports = (verify_scaling_charp(random_form(make_field(q), 3, n, rng.next_u64()), a, b)
                   for q, n, a, b in islice(cycle(cells), ncases))
    elif name == "eval-fibers":
        rng = _seeded(name, grid, seed)
        reports = (verify_eval_fibers(random_form(make_field(2 + k % 2), 3, 2, rng.next_u64()), 3)
                   for k in range(10 if small else 30))
    elif name == "scale-char0":
        rng = _seeded(name, grid, seed)
        reports = (verify_scaling_char0(random_int_form(3, 1 + k % 2, 3, rng.next_u64()),
                                        2 + k % 2, 2 + (k // 2) % 2)
                   for k in range(10 if small else 30))
    elif name == "lift":
        rng = _seeded(name, grid, seed)
        moduli = (100,) if small else (1000, 10000)
        record["moduli"] = list(moduli)
        reports = (verify_lift_threshold(G, L, 0.4)
                   for G in (random_int_form(3, 2, 3, rng.next_u64())
                             for _ in range(10 if small else 50))
                   for L in moduli)
    elif name == "rank-chain":
        F2 = make_field(2)
        if small:
            rng = _seeded(name, grid, seed)
            corpus = [random_form(F2, 3, 2, rng.next_u64()) for _ in range(24)]
            corpus += [diagonal(m, 2, 3, make_field(3)) for m in range(3)]
            reports = [verify_rank_chain(corpus, l_max=4)]
        else:
            record = {"grid": grid}
            corpus = [MultilinearForm(F2, 3, 2, tuple((bits >> k) & 1 for k in range(8)))
                      for bits in range(256)]
            corpus += [diagonal(m, 3, 3, make_field(3)) for m in range(4)]
            reports = [verify_rank_chain(corpus, l_max=8, check_extension_prk=True)]
    elif name == "polar":
        basis = monomial_exponents(2, 3)
        if small:
            rng = _seeded(name, grid, seed)
            coeffs = [[rng.below(5) for _ in basis] for _ in range(50)]
        else:
            record = {"grid": grid}
            coeffs = product(range(5), repeat=len(basis))
        F5 = make_field(5)
        reports = [verify_polar_sandwich([HomogeneousForm.from_terms(F5, 2, 3, dict(zip(basis, c)))
                                          for c in coeffs])]
    elif name == "weil":
        reports = _weil_cases(_seeded(name, grid, seed), 4 if small else 20)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return _campaign(name, record, reports, counterexample_dir)


SUITES = ("scale-charp", "scale-char0", "eval-fibers", "lift", "rank-chain",
          "polar", "weil")

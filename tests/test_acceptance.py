"""Acceptance suite: every criterion at its stated tolerance and runtime cap.

Each criterion body returns a JSON-serializable report; criterion 12
runs all of them again in the same process (a same-process rerun) and
demands byte-identical serializations. One pass/fail line per criterion is printed in the
terminal summary (see conftest.py / acceptance_registry.py).
"""

from __future__ import annotations

import hashlib
import json
import math

from acceptance_registry import record

from multirank.charzero import lift_search, liminf_ark_scan, reduce_mod_p
from multirank.counting import count_SF, count_SF_naive, matrix_rank
from multirank.field import kernel, make_field
from multirank.ranks import (
    ark_exact,
    gamma_q_estimate,
    grk_estimate,
    prk_exact_small,
    rank_one_catalog,
    verify_rank_one_certificate,
)
from multirank.rng import SplitMix64
from multirank.tensor import (
    MultilinearForm,
    diagonal,
    int_diagonal,
    random_form,
    random_int_form,
)
from multirank.verify import lift_height_bound, run_suite, verify_weil

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)

SEED = 20260810
_REPORTS: dict[str, dict] = {}

# sha256 of json.dumps(report.to_dict(), sort_keys=True) on the default grid
DEFAULT_GRID_DIGESTS = {
    "scale-charp": "914c556f480f6d861e95ca18970b4f94b1a9679f6bf3f94af09df640566a92aa",
    "eval-fibers": "3e13ec2d145f656e289add2a93912d6047700eb2d073de2763e92f183a460361",
    "scale-char0": "ca6458bc255991585e3010af9139cb726357120fb472e21cc243c5378b0db491",
    "lift": "d1f5a49a97208379f956d6a59920f5ee319a80c5fda763a583dbff13eb7ea942",
    "weil": "c237abd9debe10b729e771a47bfc9edc36c1e8b5882c1c02fd5aea39656295e2",
    "polar": "a12905876d1074e0ba8583fc3818077da182b33bc0775257ffb2e957696341bc",
    "rank-chain": "225d0dd3fc02ea5085a8276723080d2fddc373b4c2c331c6839580f433d76323",
}


def assert_pinned(rep) -> None:
    """The default-grid report is byte-identical to the pinned one."""
    doc = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == DEFAULT_GRID_DIGESTS[rep.suite]


def naive_kernel_rank(M: MultilinearForm) -> int:
    """Independent rank oracle: literally count x with x^T M = 0."""
    K = kernel(M.field)
    q, n = K.q, M.n
    rows = [M.coeffs[i * n:(i + 1) * n] for i in range(n)]
    count = 0
    for flat in range(q ** n):
        t = flat
        x = []
        for _ in range(n):
            t, r = divmod(t, q)
            x.append(r)
        ok = True
        for j in range(n):
            acc = 0
            for i in range(n):
                if x[i] and rows[i][j]:
                    acc = K.add(acc, K.mul(x[i], rows[i][j]))
            if acc:
                ok = False
                break
        if ok:
            count += 1
    # count = q^(n - rank) exactly
    r = n - round(math.log(count) / math.log(q))
    assert q ** (n - r) == count
    return r


def criterion_01():
    """200 random matrices: float ark = stabilized grk = exact prk = rank."""
    rng = SplitMix64(SEED ^ 0x1)
    fields = [F2, F3, F5]
    hist: dict[int, int] = {}
    for i in range(200):
        spec = fields[i % 3]
        n = (i % 6) + 1
        M = random_form(spec, 2, n, rng.next_u64())
        r = naive_kernel_rank(M)
        ark = ark_exact(M)
        assert ark.float_value == float(r)
        est = grk_estimate(M, 2)
        assert est.stabilized == r and est.gap == 0.0
        pr = prk_exact_small(M)
        assert pr.exact and pr.lower == r
        assert verify_rank_one_certificate(M, pr.certificate)
        hist[r] = hist.get(r, 0) + 1
    return {"cases": 200, "rank_histogram": {str(k): v for k, v in sorted(hist.items())},
            "summary": "200 matrices, ark = grk = prk = kernel-count rank"}


def criterion_02():
    """Diagonal count formula on the full grid, naive oracle within budget."""
    counts = {}
    naive_checked = 0
    for q, spec in [(2, F2), (3, F3)]:
        for n in (1, 2, 3):
            for m in range(n + 1):
                D = diagonal(m, n, 3, spec)
                for l in (1, 2, 3, 4):
                    Q = q ** l
                    expected = (Q ** 2 - (Q - 1) ** 2) ** m * Q ** (2 * (n - m))
                    got = count_SF(D, l)
                    assert got == expected
                    counts[f"q{q}n{n}m{m}l{l}"] = str(got)
                    if 2 * n * l * math.log2(q) <= 16:
                        assert count_SF_naive(D, l) == expected
                        naive_checked += 1
    return {"checked": len(counts), "naive_checked": naive_checked, "counts": counts,
            "summary": f"{len(counts)} formula matches, {naive_checked} naive cross-checks"}


def criterion_03():
    """Diagonal grk estimates stabilize to m exactly at q^lmax >= 256."""
    out = {}
    for q, spec, l_max, n_cap in [(2, F2, 8, 3), (3, F3, 6, 2)]:
        assert q ** l_max >= 256
        for n in range(1, n_cap + 1):
            for m in range(min(n, 2) + 1):
                est = grk_estimate(diagonal(m, n, 3, spec), l_max)
                assert est.stabilized == m  # zero tolerance
                out[f"q{q}n{n}m{m}"] = est.stabilized
    return {"stabilized": out, "summary": f"{len(out)} diagonal families stabilized to m"}


def criterion_04():
    """ark <= (d-1) grk: exhaustive rank chain plus exact diagonal margins."""
    rep = run_suite("rank-chain", grid="default")
    assert rep.passed
    assert_pinned(rep)
    # every one of the 256 exhaustive tensors must have stabilized (the two
    # expected advisories are the F_3 diagonal corpus entries at n = 3)
    exhaustive_advisories = [
        a for a in rep.advisories
        if a["relation"].startswith("grk estimate")
        and a["instance"]["tensor"]["field"] == {"p": 2, "e": 1, "modulus": [0, 1]}
    ]
    assert not exhaustive_advisories
    margins = {}
    for q, spec in [(2, F2), (3, F3)]:
        for n in (1, 2, 3):
            for m in range(n + 1):
                ark = ark_exact(diagonal(m, n, 3, spec)).float_value
                margin = 2 * m - ark  # exact grk of the diagonal family is m
                assert margin >= -1e-9
                margins[f"q{q}n{n}m{m}"] = margin
    return {"rank_chain": rep.to_dict(), "diagonal_margins": margins,
            "summary": f"256 exhaustive + {len(margins)} diagonal margins, 0 hard failures"}


def criterion_05():
    """Scaling suites: char p fibers, evaluation fibers, char 0 boxes."""
    reports = {}
    for name in ("scale-charp", "eval-fibers", "scale-char0"):
        rep = run_suite(name, grid="default", seed=SEED)
        assert rep.passed
        assert_pinned(rep)
        reports[name] = rep.to_dict()
    return {"reports": reports,
            "summary": "scale-charp / eval-fibers / scale-char0 all exact"}


def criterion_06():
    """Mod-L lifting: in-zone solutions lift exactly; non-example reproduced."""
    rep = run_suite("lift", grid="default", seed=SEED)
    assert rep.passed  # zero hard failures: every guaranteed solution lifted
    assert_pinned(rep)
    # all recorded non-lifting solutions sit outside the pointwise guarantee
    for adv in rep.advisories:
        doc = adv["instance"]["tensor"]
        c_f = max(abs(int(e["val"])) for e in doc["entries"]) * 2 ** 2
        assert c_f * adv["observed"]["height"] ** 2 >= adv["instance"]["L"]
    # documented non-example: height 10 at L = 100 is outside the sieve box
    G = int_diagonal(1, 1, 3)
    vals = G.contract_last([[10], [10]])
    assert vals == (100,)
    assert vals[0] % 100 == 0 and vals[0] != 0
    assert 10 >= lift_height_bound(100, 0.4)
    # and inside the box every sieve hit lifts (threshold reached there)
    found = lift_search(G, 100, 0.4)
    assert found.threshold_reached and found.sieve_hits == len(found.points) == 25
    return {"lift": rep.to_dict(), "non_example": {"x": [10, 10], "L": 100,
                                                   "value": str(vals[0])},
            "summary": "50 tensors x L in {1e3, 1e4}: all guaranteed lifts exact"}


def criterion_07():
    """Weil restriction: ark multiplicativity with zero tolerance on counts."""
    rep = run_suite("weil", grid="default", seed=SEED)
    assert rep.passed
    assert_pinned(rep)
    spot = {}
    for p, e in [(2, 2), (3, 2)]:
        big, small = make_field(p, e), make_field(p)
        D = diagonal(1, 1, 3, big)
        single = verify_weil(D, small)
        assert single.passed
        q2 = big.q
        expected = q2 ** 2 - (q2 - 1) ** 2
        assert count_SF(D) == expected
        spot[f"F{p**e}_rel_F{p}"] = str(expected)
    assert spot["F4_rel_F2"] == "7"
    return {"weil": rep.to_dict(), "spot_counts": spot,
            "summary": "diagonal + 20 seeded tensors, counts match exactly"}


def criterion_08():
    """Char-0 scan: closed form at p in {5, 7} to 1e-12; estimate m near 997."""
    out = {}
    for m in (1, 2):
        D = int_diagonal(m, 2, 3)
        scan_small = liminf_ark_scan(D, primes=[5, 7])
        for p, r in zip(scan_small.primes, scan_small.ranks):
            assert r.count == (2 * p - 1) ** m * p ** (2 * (2 - m))
            closed = -m * math.log(1 - (1 - 1 / p) ** 2) / math.log(p)
            assert abs(r.float_value - closed) < 1e-12
        scan_big = liminf_ark_scan(D, primes=[983, 991, 997])
        assert scan_big.grk_estimate_Q == m
        out[f"m{m}"] = {"small": scan_small.to_dict(), "big": scan_big.to_dict()}
    return {"scans": out, "summary": "closed form to 1e-12 at p in {5,7}; estimate = m at ~997"}


def criterion_09():
    """Iterative-deepening prk equals the BFS closure table on all 256 tensors."""
    tensors, _, _ = rank_one_catalog(F2, 2, 3)
    rank1 = set(tensors)
    table = {(0,) * 8: 0}
    frontier = {(0,) * 8}
    level = 0
    while len(table) < 256:
        level += 1
        new = set()
        for f in frontier:
            for t in rank1:
                s = tuple(a ^ b for a, b in zip(f, t))
                if s not in table:
                    table[s] = level
                    new.add(s)
        frontier = new
    hist: dict[int, int] = {}
    for bits in range(256):
        F = MultilinearForm(F2, 3, 2, tuple((bits >> k) & 1 for k in range(8)))
        res = prk_exact_small(F)
        assert res.exact
        assert res.lower == table[F.coeffs]
        assert verify_rank_one_certificate(F, res.certificate)
        hist[res.lower] = hist.get(res.lower, 0) + 1
    assert prk_exact_small(diagonal(2, 2, 3, F2)).lower == 2
    return {"prk_histogram": {str(k): v for k, v in sorted(hist.items())},
            "bfs_levels": level,
            "summary": "256 tensors: deepening = BFS table, certificates re-sum"}


def criterion_10():
    """Exhaustive binary cubics over F_5: polarization sandwich and Birch bound."""
    rep = run_suite("polar", grid="default")
    assert rep.passed
    assert_pinned(rep)
    assert not rep.advisories  # every Birch estimate stabilized on this corpus
    return {"polar": rep.to_dict(),
            "summary": "625 cubics: str <= prk(polar) <= 3 str, Brk <= 2 str"}


def criterion_11():
    """Height-rank floor: gamma_R >= ark for R <= 3, equality at R = 1."""
    rng = SplitMix64(SEED ^ 0xB)
    entries = {}
    for i in range(30):
        spec = F2 if i % 2 == 0 else F3
        F = random_form(spec, 3, 2, rng.next_u64())
        est = gamma_q_estimate(F, 3)
        sf = count_SF(F)
        assert est.entries[0][1] == sf
        assert est.entries[0][2] == est.floor  # equality at R = 1
        for R, NR, val in est.entries:
            assert NR <= sf ** R  # exact integer form of the bound
            assert val >= est.floor
        entries[f"case{i}"] = est.to_dict()
    return {"cases": entries, "summary": "30 tensors: gamma_R >= ark exactly, R <= 3"}


CRITERIA = [
    ("C01 d2-collapse", 10.0, criterion_01),
    ("C02 diagonal-count-formula", 30.0, criterion_02),
    ("C03 grk-stabilization", 60.0, criterion_03),
    ("C04 ark-le-grk-theorem", 300.0, criterion_04),
    ("C05 scaling-suites", 120.0, criterion_05),
    ("C06 lift-threshold", 120.0, criterion_06),
    ("C07 weil-restriction", 60.0, criterion_07),
    ("C08 char0-scan", 120.0, criterion_08),
    ("C09 prk-oracle-equivalence", 120.0, criterion_09),
    ("C10 polar-sandwich-birch", 600.0, criterion_10),
    ("C11 height-rank-floor", 60.0, criterion_11),
]


def _run_criterion(idx: int):
    name, cap, fn = CRITERIA[idx]
    detail = record(name, cap, fn)
    _REPORTS[name] = json.dumps(detail, sort_keys=True)
    return detail


def test_criterion_01():
    _run_criterion(0)


def test_criterion_02():
    _run_criterion(1)


def test_criterion_03():
    _run_criterion(2)


def test_criterion_04():
    _run_criterion(3)


def test_criterion_05():
    _run_criterion(4)


def test_criterion_06():
    _run_criterion(5)


def test_criterion_07():
    _run_criterion(6)


def test_criterion_08():
    _run_criterion(7)


def test_criterion_09():
    _run_criterion(8)


def test_criterion_10():
    _run_criterion(9)


def test_criterion_11():
    _run_criterion(10)


def test_criterion_12_determinism():
    """Criteria 1..11 produce byte-identical reports on a same-process rerun."""

    def body():
        for name, _, fn in CRITERIA:
            if name not in _REPORTS:  # direct invocation of this test alone
                _REPORTS[name] = json.dumps(fn(), sort_keys=True)
        for name, _, fn in CRITERIA:
            rerun = json.dumps(fn(), sort_keys=True)
            assert rerun == _REPORTS[name], f"{name} differs on a same-process rerun"
        return {"criteria": len(CRITERIA),
                "summary": "byte-identical reports on a same-process rerun"}

    record("C12 determinism", 1800.0, body)

"""Property campaign suites and their reporting machinery."""

from __future__ import annotations

import hashlib
import json

import pytest

from multirank.charzero import _lift_zone, lift_height_bound
from multirank.cli import EXIT_VERIFY_FAILURE, main
from multirank.field import make_field
from multirank.counting import BoxSpec, DEFAULT_BUDGET_BITS, box_solutions, zero_fiber_target
from multirank.oracles import count_fiber
from multirank.tensor import (
    MultilinearForm,
    diagonal,
    int_diagonal,
    random_form,
    random_int_form,
)
from multirank.tensorio import form_from_dict, form_to_dict, load_tensor
from multirank.verify import (
    VerifyReport,
    run_suite,
    verify_eval_fibers,
    verify_lift_threshold,
    verify_polar_sandwich,
    verify_rank_chain,
    verify_scaling_char0,
    verify_scaling_charp,
    verify_weil,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def test_scaling_charp_diagonal_fibers():
    D = diagonal(1, 1, 3, F2)
    rep = verify_scaling_charp(D, 2, 1)
    assert rep.passed
    # the spec'd fiber values behind the pass
    assert count_fiber(D, 2, 1, zero_fiber_target(D, 1)) == 4
    assert count_fiber(D, 2, 1, (((1,),), ((1,),))) == 0
    assert count_fiber(D, 2, 1, (((0,),), ((1,),))) == 2


def test_scaling_charp_b0_single_fiber():
    D = diagonal(1, 1, 3, F2)
    rep = verify_scaling_charp(D, 2, 0)
    assert rep.passed


def test_scaling_charp_requires_seed():
    with pytest.raises(ValueError):
        run_suite("scale-charp", grid="small")


def raise_one_count(hist, F, b):
    """Set one nonzero key to N^0 + 1 (no such key exists when b = 0)."""
    if b:
        zero = zero_fiber_target(F, b)
        y = (((1,) + (0,) * (b - 1),) + zero[0][1:],) + zero[1:]
        hist[y] = hist[zero] + 1
    return hist


def inflate_total(hist, F, b):
    """Add keys outside the target space, none above N^0, until the total is
    [H:H0]^(d-1) * N^0 + 1."""
    n0 = hist[zero_fiber_target(F, b)]
    missing = F.field.q ** (F.n * b * (F.d - 1)) * n0 + 1 - sum(hist.values())
    for k in range(-(-missing // n0)):
        hist[(((-1 - k,),),)] = min(n0, missing - k * n0)
    return hist


CHARP_FAULTS = {"count-above-N0": (raise_one_count, "N^y <= N^0"),
                "total-above-bound": (inflate_total, "total <= [H:H0]^(d-1) * N over H0")}


@pytest.fixture(params=sorted(CHARP_FAULTS))
def charp_fault(request, monkeypatch):
    """Corrupt the histogram that verify's fiber_counts returns; the value is
    the relation that must then fail."""
    import multirank.verify as V

    corrupt, relation = CHARP_FAULTS[request.param]
    real = V.fiber_counts

    def faulty(F, a, b, budget_bits=DEFAULT_BUDGET_BITS):
        return corrupt(real(F, a, b, budget_bits), F, b)

    monkeypatch.setattr(V, "fiber_counts", faulty)
    return relation


def test_scaling_charp_fails_hard_on_an_injected_fault(charp_fault):
    rep = verify_scaling_charp(random_form(F3, 3, 2, 11), 2, 1)
    assert [f["relation"] for f in rep.failures] == [charp_fault]
    assert not rep.passed and not rep.advisories


def test_verify_scale_charp_exits_on_an_injected_fault(charp_fault, capsys):
    code = main(["verify", "scale-charp", "--grid", "small", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFY_FAILURE
    assert [f["relation"] for f in doc["failures"]] == [charp_fault]
    assert not doc["passed"] and not doc["advisories"]


def test_verify_out_writes_a_counterexample_that_fails_again(charp_fault, tmp_path, capsys):
    code = main(["verify", "scale-charp", "--grid", "small", "--seed", "7",
                 "--out", str(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFY_FAILURE
    (failure,) = doc["failures"]
    target = tmp_path / "scale-charp_counterexample.json"
    assert failure["counterexample_file"] == str(target)
    inst = failure["instance"]
    rep = verify_scaling_charp(load_tensor(target), inst["a"], inst["b"])
    assert [f["relation"] for f in rep.failures] == [failure["relation"]] == [charp_fault]


def test_eval_fibers_diagonal():
    D = diagonal(1, 1, 3, F2)
    rep = verify_eval_fibers(D, 2)
    assert rep.passed  # 7 <= 3 * 3


def test_eval_fibers_zero_tensor_equality():
    Z = MultilinearForm.zeros(F2, 3, 2)
    rep = verify_eval_fibers(Z, 3)
    assert rep.passed


def test_scaling_char0_example():
    G = int_diagonal(1, 1, 3)
    rep = verify_scaling_char0(G, 2, 2)
    assert rep.passed  # N_4 = 7 <= 4 * Z_2 = 4 * 5


def test_scaling_char0_zero_form():
    from multirank.tensor import IntMultilinearForm
    Z = IntMultilinearForm.zeros(3, 1)
    rep = verify_scaling_char0(Z, 3, 2)
    assert rep.passed  # (LR)^(n(d-1)) <= L^(n(d-1)) (2R-1)^(n(d-1))


def test_lift_threshold_xyz():
    G = int_diagonal(1, 1, 3)
    rep = verify_lift_threshold(G, 100, 0.4)
    assert rep.grid["height_bound"] == 7
    assert rep.grid["threshold_reached"] is True  # 1 * 7^2 = 49 < 100
    assert rep.passed
    # axis points only: 13 + 13 - 1
    assert rep.grid["solutions"] == 25


def test_lift_threshold_sigma_gate():
    G = int_diagonal(1, 1, 3)
    with pytest.raises(ValueError):
        verify_lift_threshold(G, 100, 0.6)


def test_lift_height_bounds():
    assert lift_height_bound(100, 0.4) == 7
    assert lift_height_bound(1000, 0.4) == 16
    assert lift_height_bound(10000, 0.4) == 40


def test_lift_non_example_outside_height_bound():
    # x = y = 10 satisfies xy = 0 mod 100 but xy != 0; height 10 >= 7
    G = int_diagonal(1, 1, 3)
    vals = G.contract_last([[10], [10]])
    assert vals[0] == 100
    assert vals[0] % 100 == 0 and vals[0] != 0
    assert 10 >= lift_height_bound(100, 0.4)


LIFT_RELATION = "G(x) = 0 mod L implies G(x) = 0"


def zero_hit(vanishing):
    """The zero vector: always a hit, and in the zone (C * 0 < L)."""
    return tuple(0 for _ in vanishing[0])


def tallest_vanishing_hit(vanishing):
    """The first exact zero of greatest height; at d = 3 a hit with a zero
    block vanishes, so its height is B - 1."""
    return max(vanishing, key=lambda x: max(map(abs, x)))


LIFT_FAULTS = {"in-zone": zero_hit, "out-of-zone": tallest_vanishing_hit}


@pytest.fixture(params=sorted(LIFT_FAULTS))
def lift_fault(request, monkeypatch):
    """Make verify's exact re-check report one vanishing hit as nonzero; the
    value names the zone of that hit."""
    import multirank.verify as V

    real, pick = V._exact_values, LIFT_FAULTS[request.param]

    def faulty(G, hits):
        values = list(real(G, hits))
        bad = pick([x for x, v in zip(hits, values) if not any(v)])
        for x, v in zip(hits, values):
            yield tuple(c + 1 for c in v) if x == bad else v

    monkeypatch.setattr(V, "_exact_values", faulty)
    return request.param


def test_lift_threshold_reports_an_injected_fault_by_zone(lift_fault, monkeypatch):
    G = random_int_form(3, 2, 3, 11)
    B, c_f = _lift_zone(G, 100, 0.4)
    assert c_f * (B - 1) ** 2 >= 100  # the tallest hits lie outside the zone
    rep = verify_lift_threshold(G, 100, 0.4)
    monkeypatch.undo()
    clean = verify_lift_threshold(G, 100, 0.4)
    assert clean.passed
    if lift_fault == "in-zone":
        (failure,) = rep.failures
        assert failure["relation"] == LIFT_RELATION
        assert failure["observed"]["x"] == [0, 0, 0, 0]
        # the check stops at the failing hit and counts no later one
        hits = box_solutions(G, BoxSpec(B, signed=True, modulus=100))
        stop = hits.index((0, 0, 0, 0))
        assert rep.cases == stop + 1 < clean.cases
        assert rep.advisories == [a for a in clean.advisories
                                  if hits.index(tuple(a["observed"]["x"])) < stop]
        assert not rep.passed
    else:
        assert rep.passed and rep.cases == clean.cases
        assert len(rep.advisories) == len(clean.advisories) + 1
        (extra,) = [a for a in rep.advisories if a not in clean.advisories]
        assert extra["relation"] == LIFT_RELATION
        assert extra["note"] == "threshold not reached"
        assert extra["observed"]["height"] == B - 1
        assert rep.grid["lifted"] == clean.grid["lifted"] - 1


@pytest.mark.parametrize("lift_fault", ["in-zone"], indirect=True)
def test_verify_lift_exits_on_an_injected_fault(lift_fault, capsys):
    code = main(["verify", "lift", "--grid", "small", "--seed", "20260810"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFY_FAILURE
    assert [f["relation"] for f in doc["failures"]] == [LIFT_RELATION]
    assert not doc["passed"]


@pytest.mark.parametrize("lift_fault", ["in-zone"], indirect=True)
def test_verify_lift_out_writes_a_counterexample_that_fails_again(lift_fault, tmp_path,
                                                                 capsys):
    code = main(["verify", "lift", "--grid", "small", "--seed", "20260810",
                 "--out", str(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFY_FAILURE
    (failure,) = doc["failures"]
    target = tmp_path / "lift_counterexample.json"
    assert failure["counterexample_file"] == str(target)
    inst = failure["instance"]
    rep = verify_lift_threshold(load_tensor(target), inst["L"], inst["sigma"])
    assert [f["relation"] for f in rep.failures] == [LIFT_RELATION]
    assert rep.failures[0]["observed"] == failure["observed"]


def test_rank_chain_zero_tensor():
    Z = MultilinearForm.zeros(F2, 3, 2)
    rep = verify_rank_chain([Z], l_max=3)
    assert rep.passed



def test_rank_chain_counts_d2_direct_sums():
    """Matrices take count_SF's d = 2 branch, also for the direct sums of
    consecutive pairs: 4 forms and 3 sums, as before count_SF reduced forms
    to cubes."""
    rep = verify_rank_chain([random_form(F2, 2, 2, s) for s in range(4)], l_max=3)
    assert (rep.cases, rep.passed, rep.advisories) == (7, True, [])


def test_polar_rejects_small_characteristic():
    from multirank.tensor import HomogeneousForm
    f = HomogeneousForm.from_terms(F2, 2, 3, {(3, 0): 1})
    with pytest.raises(ValueError):
        verify_polar_sandwich([f])


def test_weil_diagonal_counts_match():
    F4 = make_field(2, 2)
    D = diagonal(1, 1, 3, F4)
    rep = verify_weil(D, F2, l_max=3)
    assert rep.passed


def test_weil_gram_matrix_rank_doubles():
    F4 = make_field(2, 2)
    M = MultilinearForm.from_entries(F4, 2, 1, {(0, 0): 1})
    rep = verify_weil(M, F2, l_max=2)
    assert rep.passed


def test_weil_campaign_stops_at_its_first_failure(monkeypatch, tmp_path):
    # a restricted count one too high fails the first case of both fields
    import multirank.verify as V

    real, calls = V.count_SF, []

    def faulty(F, *args):
        calls.append(F)
        return real(F, *args) + (F.field.e == 1)

    monkeypatch.setattr(V, "count_SF", faulty)
    rep = run_suite("weil", grid="small", seed=17, counterexample_dir=tmp_path)
    assert [f["relation"] for f in rep.failures] == ["|S_{F_K}(F_q)| = |S_F(F_{q^l})|"]
    assert len(calls) == 2
    target = tmp_path / "weil_counterexample.json"
    assert rep.failures[0]["counterexample_file"] == str(target)
    assert json.loads(target.read_text()) == rep.failures[0]["instance"]["tensor"]


# sha256 of the CLI's stdout, trailing newline included
SMALL_GRID_DIGESTS = {
    ("scale-charp", 7): "75b6832bb4853181148900cce2ef827809c838e898917ac9885c9b4c5e7525d7",
    ("eval-fibers", 3): "7fb92159691a30583bad576830bd7e337740e2215e1942ea54b7380c351f1a98",
    ("scale-char0", 11): "7bc07be1a7586aefc2bcb3ae11b7a151866ccb87c36c9ab01f3c820a6cdefd6b",
    ("lift", 20260810): "5362fc46df8f4012b7eb0504f931b00ae5073e21bb9b6dcd135d10cc2c7f8b87",
    ("rank-chain", 5): "829a85b41c1b9bfa9b0dcffa6dc2799ee9c93d9adf88035877206988537e2260",
    ("polar", 13): "ce293fe968bed719fb2612a2ad9a4effed475918b4e43fd2daf4a156c73306ef",
    ("weil", 17): "836111337b09bb44f59fc6b23a75803143d2992988b47e3a664266ba11d16d7a",
}


@pytest.mark.parametrize("suite,seed", list(SMALL_GRID_DIGESTS))
def test_small_grid_report_bytes(suite, seed, capsys):
    code = main(["verify", suite, "--grid", "small", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_GRID_DIGESTS[suite, seed]


def test_report_round_trip():
    rep = run_suite("scale-char0", grid="small", seed=11)
    doc = rep.to_dict()
    clone = VerifyReport.from_dict(json.loads(json.dumps(doc)))
    assert clone.to_dict() == doc
    assert clone.passed == rep.passed


def test_report_elapsed_excluded_by_default():
    rep = verify_eval_fibers(diagonal(1, 1, 3, F2), 2)
    assert "elapsed" not in rep.to_dict()
    assert "elapsed" in rep.to_dict(include_elapsed=True)


def test_counterexample_emission_and_refail(tmp_path):
    # synthetic failing check exercises the failure path end to end
    import multirank.verify as V

    D = diagonal(1, 1, 3, F2)
    rep = V.VerifyReport("synthetic", {})
    rep.failures.append(V._failure("demo", {"tensor": form_to_dict(D)}, {}))
    V._emit_counterexample(rep, tmp_path)
    path = rep.failures[-1]["counterexample_file"]
    reloaded = form_from_dict(json.load(open(path)))
    assert reloaded.coeffs == D.coeffs
    # the payload re-fails deterministically under the same synthetic check
    assert reloaded.coeff((0, 0, 0)).index == 1
    # an instance without a tensor (a polynomial) writes no file
    poly = V.VerifyReport("poly-only", {})
    poly.failures.append(V._failure("demo", {"poly": {}}, {}))
    V._emit_counterexample(poly, tmp_path)
    assert "counterexample_file" not in poly.failures[0]
    assert not (tmp_path / "poly-only_counterexample.json").exists()


def test_failures_empty_iff_passed():
    rep = VerifyReport("x", {})
    assert rep.passed
    rep.failures.append({"relation": "r", "instance": {}, "observed": {}})
    assert not rep.passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", seed=1)

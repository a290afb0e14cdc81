"""Tests of the benchmark itself: exact counts repeat, digests ignore the
thread count, checks catch wrong answers, and spans add up.

Whole benchmark runs go through a subprocess: a run re-imports multirank
for every batch, which must not happen inside the test process.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in run.PER_LAYER if unit == "count" and name != "trace.spans"]
META = json.loads((HERE / "meta.json").read_text())


def _run(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_work_counts_and_digest_repeat_across_traced_runs():
    first = _result(_run("--workload", "sieve-search", "--seed", "3", "--seconds", "0",
                         "--trace", "1"))
    second = _result(_run("--workload", "sieve-search", "--seed", "3", "--seconds", "0",
                          "--trace", "1"))
    for (report, res) in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {name for name, _ in run.PER_LAYER}
        assert abs(res["metrics"]["trace.self_cover"]["value"] - 1) <= spans.SELF_COVER_TOL
        prefixes = tuple(META["layers"])
        assert [k for k in report["per_layer"] if not k.startswith(prefixes)] == []
    counts = [{k: res["metrics"][k]["value"] for k in COUNTS} for _, res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["ranks.catalog_terms"] > 10045  # F_2 n = 3 plus the smaller catalogs
    assert counts[0]["counting.box.pairs"] > 79 ** 4  # the L = 10^4 box alone
    assert counts[0]["counting.sf.slices"] == 0  # count_SF idles in this workload
    assert first[0]["output_digest"] == second[0]["output_digest"]


def test_digest_identical_at_one_and_two_threads():
    digests = []
    for threads in ("1", "2"):
        report, res = _result(_run("--workload", "field-counts", "--seed", "5",
                                   "--seconds", "0", "--threads", threads))
        assert res["correct"]
        assert set(res["metrics"]) == {name for name, _ in run.END_TO_END}
        digests.append(report["output_digest"])
    assert digests[0] == digests[1]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sieve-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


# -- pieces, in process ------------------------------------------------------

@pytest.fixture(scope="module")
def lib():
    import types

    import multirank  # noqa: F401

    return types.SimpleNamespace(**{m: sys.modules[f"multirank.{m}"] for m in run.MODULES})


def test_every_workload_has_enough_instances_and_stable_keys(lib):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, lib, random.Random(11))
        b = workloads.build(name, lib, random.Random(11))
        assert len(a) >= 100
        assert len({i.key for i in a}) == len(a)
        assert [(i.key, i.func) for i in a] == [(i.key, i.func) for i in b]
        assert all(i.func in oracles._CHECKS for i in a)


def test_diagonal_closed_form_matches_naive(lib):
    F3 = lib.field.make_field(3)
    for d in (3, 4):
        for m in range(3):
            D = lib.tensor.diagonal(m, 2, d, F3)
            assert oracles.diag_count(m, 2, d, 3) == lib.counting.count_SF_naive(D)


def test_slice_count_n2_matches_count_sf(lib):
    G = lib.tensor.random_int_form(3, 2, 3, 99)
    for p in (2, 3, 7, 31):
        F = lib.charzero.reduce_mod_p(G, p)
        assert oracles.slice_count_n2(G.coeffs, p) == lib.counting.count_SF(F)


def test_bfs_table_covers_all_256_tensors():
    table = oracles.bfs_table_f2n2()
    assert len(table) == 256 and max(table.values()) == 2


def test_checks_catch_a_wrong_count_and_a_broken_certificate(lib):
    F2 = lib.field.make_field(2)
    D = lib.tensor.diagonal(2, 3, 3, F2)
    inst = workloads.Instance("d", "ranks.ark_exact", (D, 2), {"diag_m": 2})
    good = lib.ranks.ark_exact(D, 2)
    assert oracles.check(lib, inst, good) == []
    bad = lib.ranks.ExactLogRank(good.ambient, good.count + 1, good.base)
    assert oracles.check(lib, inst, bad)
    pr = lib.ranks.prk_exact_small(D)
    inst = workloads.Instance("p", "ranks.prk_exact_small", (D,), {"diag_m": 2})
    assert oracles.check(lib, inst, pr) == []
    t = pr.certificate[0]
    broken = lib.ranks.PrkResult(2, 2, True, (t, t))
    assert oracles.check(lib, inst, broken)


def test_canonical_keeps_counts_and_drops_floats_and_certificates(lib):
    F2 = lib.field.make_field(2)
    pr = lib.ranks.prk_exact_small(lib.tensor.diagonal(1, 2, 3, F2))
    assert json.loads(run.canonical(pr, None)) == {"exact": True, "lower": "1", "upper": "1"}
    ark = lib.ranks.ark_exact(lib.tensor.diagonal(1, 2, 3, F2))
    assert "float" not in json.loads(run.canonical(ark, None))


def test_self_times_add_up_and_missing_names_fail_loudly():
    import time
    import types

    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        leaf_w()
        time.sleep(0.001)

    leaf.__module__ = "multirank.field"
    mid.__module__ = "multirank.counting"
    leaf_w, mid_w = tracer.wrap(leaf), tracer.wrap(mid)
    tracer.active = True
    t0 = time.perf_counter()
    mid_w()
    wall = time.perf_counter() - t0
    tracer.active = False
    m = spans.layer_metrics(tracer.spans, wall)
    assert m["trace.spans"] == 2
    assert m["field.self_s"] >= 0.002 and m["counting.self_s"] >= 0.001
    assert abs(m["field.self_s"] + m["counting.self_s"] - m["trace.root_s"]) < 1e-9
    empty = types.SimpleNamespace(**{name: types.SimpleNamespace() for name in spans.LAYERS})
    with pytest.raises(spans.TraceError, match="missing"):
        spans.Tracer().install(empty)


def test_an_unwrapped_cross_module_name_fails_install():
    import types

    def count_points():
        pass

    count_points.__module__ = "multirank.counting"
    mods = {name: types.ModuleType(f"multirank.{name}") for name in spans.LAYERS}
    mods["verify"].count_points = count_points
    with pytest.raises(spans.TraceError, match="multirank.verify.count_points"):
        spans.Tracer().install(types.SimpleNamespace(**mods))

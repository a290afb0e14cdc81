"""CLI parsing, dispatch, exit codes, schema conformance and determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from multirank.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY_FAILURE,
    config_from_args,
    main,
    run,
    RunConfig,
)
from multirank.errors import InputError
from multirank.tensorio import (
    form_from_dict,
    form_to_dict,
    load_tensor,
    poly_from_dict,
)
from multirank.tensor import IntMultilinearForm, MultilinearForm, diagonal
from multirank.field import make_field

SCHEMA = json.load(open(Path(__file__).resolve().parents[1] / "schema" / "report.schema.json"))
VALIDATOR = Draft202012Validator(SCHEMA)

DIAG223 = {
    "field": {"p": 2, "e": 1},
    "d": 3,
    "n": 2,
    "entries": [
        {"idx": [0, 0, 0], "val": [1]},
        {"idx": [1, 1, 1], "val": [1]},
    ],
}


def write_diag(tmp_path, name="diag223.json", doc=DIAG223):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- tensor file parsing -------------------------------------------------------

def test_parse_diagonal_tensor_file():
    F = form_from_dict(DIAG223)
    assert isinstance(F, MultilinearForm)
    assert F.coeffs == diagonal(2, 2, 3, make_field(2)).coeffs


def test_parse_integer_tensor_with_string_value():
    doc = {"field": "Z", "d": 2, "n": 1, "entries": [{"idx": [0, 0], "val": "-3"}]}
    F = form_from_dict(doc)
    assert isinstance(F, IntMultilinearForm)
    assert F.coeffs == (-3,)
    # unicode minus also accepted
    doc["entries"][0]["val"] = "−3"
    assert form_from_dict(doc).coeffs == (-3,)


def test_parse_bad_index_length_names_entry():
    doc = {"field": {"p": 2, "e": 1}, "d": 3, "n": 2,
           "entries": [{"idx": [0, 0], "val": [1]}]}
    with pytest.raises(InputError) as exc:
        form_from_dict(doc)
    assert "entry 0" in str(exc.value)


def test_parse_conflicting_duplicates():
    doc = {"field": {"p": 3, "e": 1}, "d": 2, "n": 1,
           "entries": [{"idx": [0, 0], "val": [1]}, {"idx": [0, 0], "val": [2]}]}
    with pytest.raises(InputError):
        form_from_dict(doc)
    doc["entries"][1]["val"] = [1]  # agreeing duplicates merge
    assert form_from_dict(doc).coeffs == (1,)


def test_parse_explicit_modulus_accepted_and_echoed():
    doc = {"field": {"p": 2, "e": 2, "modulus": [1, 1, 1]}, "d": 2, "n": 1,
           "entries": [{"idx": [0, 0], "val": [1, 1]}]}
    F = form_from_dict(doc)
    assert form_to_dict(F)["field"]["modulus"] == [1, 1, 1]
    doc["field"]["modulus"] = [1, 0, 1]  # reducible over F_2
    with pytest.raises(InputError):
        form_from_dict(doc)


def test_parse_poly_file():
    doc = {"field": {"p": 5, "e": 1}, "n": 2, "d": 3,
           "monomials": [{"exp": [3, 0], "val": [1]}, {"exp": [0, 3], "val": [1]}]}
    f = poly_from_dict(doc)
    assert f.coeff_map() == {(3, 0): 1, (0, 3): 1}
    doc["monomials"][0]["exp"] = [2, 0]
    with pytest.raises(InputError):
        poly_from_dict(doc)


# -- subcommands ----------------------------------------------------------------

def test_rank_subcommand(tmp_path, capsys):
    path = write_diag(tmp_path)
    code, out = run_cli(["rank", "--tensor", path, "--lmax", "8"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    assert abs(doc["ark"]["float"] - 0.830) < 1e-3  # 2 * (2 - log2 3)
    assert doc["grk"]["stabilized"] == 2
    assert doc["prk"]["exact"] and doc["prk"]["lower"] == 2
    assert doc["effective_constant"]["C"] == 36


def test_rank_zero_tensor(tmp_path, capsys):
    doc = {"field": {"p": 2, "e": 1}, "d": 3, "n": 2, "entries": []}
    path = write_diag(tmp_path, "zero.json", doc)
    code, out = run_cli(["rank", "--tensor", path], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["ark"]["float"] == 0.0
    assert rep["grk"]["stabilized"] == 0
    assert rep["prk"]["lower"] == rep["prk"]["upper"] == 0


def test_rank_csv_format(tmp_path, capsys):
    path = write_diag(tmp_path)
    code, out = run_cli(["rank", "--tensor", path, "--lmax", "3",
                         "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "l,count,dim"
    assert len(lines) == 4


def test_count_subcommand_json_and_csv(tmp_path, capsys):
    path = write_diag(tmp_path)
    code, out = run_cli(["count", "--tensor", path, "--lmax", "2"], capsys)
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    for row in rows:
        VALIDATOR.validate(row)
    assert rows[0] == {"count": "9", "l": 1}
    code, out = run_cli(["count", "--tensor", path, "--lmax", "2",
                         "--naive", "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1,9"


def test_poly_subcommand(tmp_path, capsys):
    doc = {"field": {"p": 5, "e": 1}, "n": 2, "d": 3,
           "monomials": [{"exp": [3, 0], "val": [1]}, {"exp": [0, 3], "val": [1]}]}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["poly", "--poly", str(path)], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    VALIDATOR.validate(rep)
    assert rep["str"]["value"] == 1
    assert rep["brk"]["stabilized"] == 2


def test_verify_subcommand_exit_zero(tmp_path, capsys):
    code, out = run_cli(["verify", "scale-char0", "--grid", "small",
                         "--seed", "11"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    VALIDATOR.validate(rep)
    assert rep["passed"] is True
    assert "elapsed" not in rep


def test_verify_requires_seed(capsys):
    code, _ = run_cli(["verify", "scale-charp", "--grid", "small"], capsys)
    assert code == EXIT_INPUT


def test_verify_failure_maps_to_exit_one(monkeypatch, capsys):
    from multirank.verify import VerifyReport

    def fake_run_suite(name, grid="default", seed=None, counterexample_dir=None):
        rep = VerifyReport(name, {})
        rep.failures.append({"relation": "synthetic", "instance": {}, "observed": {}})
        return rep

    monkeypatch.setattr("multirank.verify.run_suite", fake_run_suite)
    code, out = run_cli(["verify", "weil", "--seed", "1"], capsys)
    assert code == EXIT_VERIFY_FAILURE
    assert json.loads(out)["passed"] is False


def test_charzero_scan(tmp_path, capsys):
    doc = {"field": "Z", "d": 3, "n": 2,
           "entries": [{"idx": [0, 0, 0], "val": "1"}, {"idx": [1, 1, 1], "val": "1"}]}
    path = tmp_path / "intdiag.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["charzero", "scan", "--tensor", str(path),
                         "--primes", "983,991,997"], capsys)
    assert code == EXIT_OK
    lines = [json.loads(x) for x in out.strip().splitlines()]
    for row in lines[:-1]:
        VALIDATOR.validate(row)
    assert lines[-1]["grk_estimate_Q"] == 2


def test_charzero_lift(tmp_path, capsys):
    doc = {"field": "Z", "d": 3, "n": 1, "entries": [{"idx": [0, 0, 0], "val": "1"}]}
    path = tmp_path / "xyz.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["charzero", "lift", "--tensor", str(path),
                         "--L", "100", "--sigma", "0.4"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    VALIDATOR.validate(rep)
    assert len(rep["points"]) == 25


def test_gen_round_trips(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    code, _ = run_cli(["gen", "diagonal", "--p", "2", "--n", "2", "--d", "3",
                       "--m", "2", "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    F = load_tensor(out_file)
    assert F.coeffs == diagonal(2, 2, 3, make_field(2)).coeffs
    VALIDATOR.validate(json.loads(out_file.read_text()))

    code, _ = run_cli(["gen", "random", "--p", "3", "--n", "2", "--d", "3",
                       "--seed", "5", "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    A = load_tensor(out_file)
    code, _ = run_cli(["gen", "random", "--p", "3", "--n", "2", "--d", "3",
                       "--seed", "5", "--out", str(out_file)], capsys)
    assert load_tensor(out_file).coeffs == A.coeffs

    code, _ = run_cli(["gen", "weil-restrict", "--tensor", write_diag(tmp_path),
                       "--p", "2", "--e", "1", "--out", str(out_file)], capsys)
    assert code == EXIT_OK  # degree-1 restriction is the identity
    assert load_tensor(out_file).coeffs == diagonal(2, 2, 3, make_field(2)).coeffs


def test_gen_weil_restrict(tmp_path, capsys):
    doc = {"field": {"p": 2, "e": 2}, "d": 2, "n": 1,
           "entries": [{"idx": [0, 0], "val": [1, 0]}]}
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc))
    out_file = tmp_path / "res.json"
    code, _ = run_cli(["gen", "weil-restrict", "--tensor", str(path),
                       "--p", "2", "--e", "1", "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    R = load_tensor(out_file)
    assert R.n == 2 and R.field.q == 2
    assert R.coeffs == (0, 1, 1, 1)


def test_gen_random_requires_seed(capsys):
    code, _ = run_cli(["gen", "random", "--p", "2"], capsys)
    assert code == EXIT_INPUT


def test_exit_codes_budget_and_input(tmp_path, capsys):
    path = write_diag(tmp_path)
    code, _ = run_cli(["count", "--tensor", path, "--lmax", "30"], capsys)
    assert code == EXIT_BUDGET
    code, _ = run_cli(["rank", "--tensor", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["rank", "--tensor", str(bad)], capsys)
    assert code == EXIT_INPUT


@pytest.mark.parametrize("field, code", [({"p": 2 ** 89 - 1}, EXIT_BUDGET),
                                         ({"p": 3, "e": 10 ** 8}, EXIT_BUDGET),
                                         ({"p": 6}, EXIT_INPUT)])
def test_field_size_gate_runs_before_the_primality_test(tmp_path, capsys, field, code):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": field, "d": 3, "n": 2, "entries": []}))
    assert run_cli(["count", "--tensor", str(path)], capsys)[0] == code


def test_oversized_integer_tensor_is_a_budget_stop(tmp_path, capsys, no_draws):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "Z", "d": 30, "n": 10, "entries": []}))
    assert main(["charzero", "scan", "--tensor", str(path)]) == EXIT_BUDGET
    argv = ["gen", "random", "--integer", "--d", "30", "--n", "10", "--seed", "1"]
    assert main(argv) == EXIT_BUDGET
    assert capsys.readouterr().err.count("budget exceeded: tensor storage n^d") == 2



# JSON reads 1e400 as float infinity; int() of it raises OverflowError
@pytest.mark.parametrize("text", [
    '{"field": "Z", "d": 1e400, "n": 2, "entries": []}',
    '{"field": "Z", "d": 3, "n": 2.5, "entries": []}',
    '{"field": "Z", "d": 3, "n": 2, "entries": [{"idx": [0, 1, 1e400], "val": "1"}]}',
    '{"field": {"p": 2}, "d": 3, "n": 2, "entries": [{"idx": [0, 1.5, 1], "val": [1]}]}',
    '{"field": {"p": 1e400}, "d": 3, "n": 2, "entries": []}',
])
def test_non_integral_tensor_numbers_exit_input(tmp_path, capsys, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    assert main(["charzero", "scan", "--tensor", str(path)]) == EXIT_INPUT
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"field": {"p": 5}, "n": 2, "d": 1e400, "monomials": []}',
    '{"field": {"p": 5}, "n": 2.5, "d": 3, "monomials": []}',
    '{"field": {"p": 5}, "n": 2, "d": 3, "monomials": [{"exp": [1e400, 0], "val": [1]}]}',
    '{"field": {"p": 5}, "n": 2, "d": 3, "monomials": [{"exp": [2.5, 0.5], "val": [1]}]}',
])
def test_non_integral_poly_numbers_exit_input(tmp_path, capsys, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main(["poly", "--poly", str(path)]) == EXIT_INPUT
    assert "must be integers" in capsys.readouterr().err

def test_internal_fault_exits_internal_not_verify_failure(tmp_path, capsys, monkeypatch):
    def broken(*_):
        raise RuntimeError("certificate failed re-verification")

    monkeypatch.setattr("multirank.cli.count_SF", broken)
    assert main(["count", "--tensor", write_diag(tmp_path), "--lmax", "1"]) == EXIT_INTERNAL
    assert EXIT_INTERNAL != EXIT_VERIFY_FAILURE
    assert "internal error: certificate failed" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [ZeroDivisionError("inversion of zero"),
                                   ArithmeticError("polynomial is not a product of distinct linear factors")])
def test_arithmetic_fault_exits_internal_not_verify_failure(tmp_path, capsys, monkeypatch, fault):
    def broken(*_):
        raise fault

    monkeypatch.setattr("multirank.cli.count_SF", broken)
    assert main(["count", "--tensor", write_diag(tmp_path), "--lmax", "1"]) == EXIT_INTERNAL
    assert f"internal error: {fault}" in capsys.readouterr().err


def test_usage_errors_exit_input_not_budget(capsys):
    assert main(["rank"]) == EXIT_INPUT  # --tensor missing
    assert main(["count", "--tensor", "x.json", "--lmax", "two"]) == EXIT_INPUT
    assert main(["no-such-subcommand"]) == EXIT_INPUT
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_count_streams_rows_before_a_budget_stop(tmp_path, capsys):
    # q = 2, n = 2, d = 3: level l needs 2l bits, so a 5-bit gate trips at l = 3
    path = write_diag(tmp_path)
    code, out = run_cli(["count", "--tensor", path, "--lmax", "4",
                         "--budget-bits", "5", "--format", "csv"], capsys)
    assert code == EXIT_BUDGET
    assert out.splitlines() == ["l,count", "1,9", "2,49"]
    code, out = run_cli(["count", "--tensor", path, "--lmax", "4",
                         "--budget-bits", "5"], capsys)
    assert code == EXIT_BUDGET
    assert [json.loads(line) for line in out.splitlines()] == [
        {"count": "9", "l": 1}, {"count": "49", "l": 2}]


def test_run_config_dispatch():
    cfg = config_from_args(["verify", "weil", "--seed", "17", "--grid", "small"])
    assert isinstance(cfg, RunConfig)
    assert cfg.subcommand == "verify"
    assert cfg.options["seed"] == 17


def test_byte_identical_on_a_rerun(tmp_path):
    # the CLI takes no thread or worker setting: a second process must
    # print the same bytes
    path = write_diag(tmp_path)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "multirank.cli", "rank", "--tensor", path,
             "--lmax", "6"],
            capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,tensor,keep", [
    # one flushed csv row per level, and level 2 takes about 0.3 s: the
    # pipe is closed before the last row is written
    (["count", "--naive", "--lmax", "2", "--format", "csv"],
     ["diagonal", "--p", "2", "--n", "4", "--m", "4"], "line"),
    # about 290 KB on one line, more than a pipe holds: the writer is still
    # blocked when the first 10 bytes have been read
    (["charzero", "lift", "--L", "10000", "--sigma", "0.4"],
     ["random", "--integer", "--n", "2", "--d", "3", "--seed", "5"], 10),
    # about 1 KB, still in the stdout buffer when the process ends: the pipe
    # is closed before the final flush
    (["verify", "weil", "--grid", "small", "--seed", "17"], None, 0),
], ids=["count-csv", "charzero-lift", "verify-weil"])
def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path, argv, tensor, keep):
    if tensor:
        path = str(tmp_path / "t.json")
        assert main(["gen", *tensor, "--out", path]) == EXIT_OK
        argv = [*argv, "--tensor", path]
    # block-buffered stdout, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "multirank.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.readline() if keep == "line" else proc.stdout.read(keep)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 141
    assert stderr == b"" and len(head) == (8 if keep == "line" else keep)


def test_ci_entry_point_script_passes(tmp_path):
    """tests/entry_point.sh, the CI step that runs the installed console
    script, run as CI runs it (bash -eo pipefail, RUNNER_TEMP set) with a
    `python -m multirank.cli` shim named multirank on PATH. It pins the
    sha256 of the weil, scale-charp, eval-fibers, lift and poly reports and
    checks exit codes and fast-against-naive counts."""
    root = Path(__file__).resolve().parents[1]
    bin_dir, runner_temp = tmp_path / "bin", tmp_path / "runner"
    bin_dir.mkdir()
    runner_temp.mkdir()
    shim = bin_dir / "multirank"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m multirank.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(["bash", "-eo", "pipefail", str(root / "tests" / "entry_point.sh")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-3000:], proc.stderr[-3000:])

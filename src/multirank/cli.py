"""Command-line frontend.

Subcommands: rank, poly, count, verify, charzero {scan, lift}, gen.
All numeric output carries exact integer counts (decimal strings)
alongside the derived floats, so downstream tooling can recompute
exactly. Exit codes: 0 success, 1 hard verification failure, 2 budget
exceeded, 3 input or usage error, 4 internal error (a certificate or
invariant check failed, or an arithmetic fault such as an inversion of
zero). Output is byte-identical for
identical (input, config, seed); wall-clock timings only appear under
--timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .errors import BudgetError, InputError
from .field import FieldSpec, embed, make_field
from .counting import DEFAULT_BUDGET_BITS, count_SF, count_SF_naive
from .ranks import (
    ark_exact,
    brk_estimate,
    effective_constant,
    grk_estimate,
    prk_bounds,
    str_exact_small,
)
from .charzero import lift_search, liminf_ark_scan
from .tensor import (
    IntMultilinearForm,
    MultilinearForm,
    diagonal,
    direct_sum,
    random_form,
    random_int_form,
    weil_restrict,
)
from . import tensorio, verify

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    subcommand: str
    options: dict = dc_field(default_factory=dict)


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _emit_lines(rows: Iterable[dict], fmt: str, fields: list[str]) -> None:
    """One line per row, each flushed as soon as the row is produced.

    fmt is "json" or "csv"; argparse's choices admit nothing else.
    """
    out = sys.stdout
    if fmt == "csv":
        out.write(",".join(fields) + "\n")
    for row in rows:
        if fmt == "csv":
            out.write(",".join(str(row[f]) for f in fields) + "\n")
        else:
            json.dump(row, out, sort_keys=True)
            out.write("\n")
        out.flush()


def _load_finite_tensor(path) -> MultilinearForm:
    F = tensorio.load_tensor(path)
    if isinstance(F, IntMultilinearForm):
        raise InputError("this subcommand needs a finite-field tensor, got field 'Z'")
    return F


def _load_int_tensor(path) -> IntMultilinearForm:
    F = tensorio.load_tensor(path)
    if not isinstance(F, IntMultilinearForm):
        raise InputError("this subcommand needs an integer tensor (field 'Z')")
    return F


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_rank(opt) -> int:
    F = _load_finite_tensor(opt["tensor"])
    budget = opt["budget_bits"]
    ark = ark_exact(F, 1, budget)
    grk = grk_estimate(F, opt["lmax"], budget)
    prk = prk_bounds(F, ark_budget_bits=budget)
    report = {
        "field": F.field.descriptor(),
        "d": F.d,
        "n": F.n,
        "ark": ark.to_dict(),
        "grk": grk.to_dict(),
        "prk": prk.to_dict(),
        "effective_constant": {"d": F.d, "r": 1, "C": effective_constant(F.d, 1)},
    }
    if opt["format"] == "csv":
        rows = [
            {"l": l, "count": str(c), "dim": dim}
            for (l, c), dim in zip(grk.profile.entries, grk.per_level_dim)
        ]
        _emit_lines(rows, "csv", ["l", "count", "dim"])
    else:
        _emit(report)
    return EXIT_OK


def _cmd_poly(opt) -> int:
    f = tensorio.load_poly(opt["poly"])
    if f.field is None:
        raise InputError("poly subcommand needs a finite-field polynomial")
    s = str_exact_small(f)
    brk = brk_estimate(f, opt["lmax"])
    report = {
        "field": f.field.descriptor(),
        "d": f.d,
        "n": f.n,
        "str": s.to_dict(),
        "brk": brk.to_dict(),
    }
    _emit(report)
    return EXIT_OK


def _cmd_count(opt) -> int:
    F = _load_finite_tensor(opt["tensor"])
    budget = opt["budget_bits"]
    counter = count_SF_naive if opt["naive"] else count_SF
    # a generator, so a budget stop at level k keeps the rows below k
    rows = ({"l": l, "count": str(counter(F, l, budget))} for l in range(1, opt["lmax"] + 1))
    _emit_lines(rows, opt["format"], ["l", "count"])
    return EXIT_OK


def _cmd_verify(opt) -> int:
    report = verify.run_suite(opt["suite"], grid=opt["grid"], seed=opt["seed"],
                              counterexample_dir=opt["out"])
    _emit(report.to_dict(include_elapsed=opt["timings"]))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILURE


def _cmd_charzero_scan(opt) -> int:
    F = _load_int_tensor(opt["tensor"])
    primes = None
    if opt["primes"] != "auto":
        try:
            primes = [int(p) for p in opt["primes"].split(",") if p]
        except ValueError as exc:
            raise InputError(f"bad prime list {opt['primes']!r}") from exc
    scan = liminf_ark_scan(F, primes, opt["budget_bits"])
    rows = []
    for p, r in zip(scan.primes, scan.ranks):
        row = {"p": p}
        row.update(r.to_dict())
        rows.append(row)
    _emit_lines(rows, "json", [])
    _emit({"grk_estimate_Q": scan.grk_estimate_Q,
           "running_min": scan.running_min[-1]})
    return EXIT_OK


def _cmd_charzero_lift(opt) -> int:
    F = _load_int_tensor(opt["tensor"])
    rep = lift_search(F, opt["L"], opt["sigma"])
    _emit(rep.to_dict())
    return EXIT_OK


def _cmd_gen(opt) -> int:
    kind = opt["generator"]
    if kind == "diagonal":
        spec = make_field(opt["p"], opt["e"])
        F = diagonal(opt["m"], opt["n"], opt["d"], spec)
    elif kind == "random":
        if opt["seed"] is None:
            raise InputError("gen random needs --seed (no ambient entropy)")
        if opt["integer"]:
            F = random_int_form(opt["d"], opt["n"], opt["coeff_bound"], opt["seed"])
        else:
            spec = make_field(opt["p"], opt["e"])
            F = random_form(spec, opt["d"], opt["n"], opt["seed"])
    elif kind == "direct-sum":
        A = _load_finite_tensor(opt["tensor"])
        B = _load_finite_tensor(opt["tensor2"])
        F = direct_sum(A, B)
    elif kind == "weil-restrict":
        big = _load_finite_tensor(opt["tensor"])
        sub = make_field(opt["p"], opt["e"])
        F = weil_restrict(big, embed(sub, big.field))
    else:
        raise InputError(f"unknown generator {kind!r}")
    if opt["out"]:
        tensorio.dump_tensor(F, opt["out"])
    else:
        _emit(tensorio.form_to_dict(F))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multirank",
        description="Rank invariants of multilinear forms with exact counting.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_budget(p):
        p.add_argument("--budget-bits", type=float, default=DEFAULT_BUDGET_BITS,
                       help="log2 cap on enumeration work (default %(default)s)")

    p = sub.add_parser("rank", help="ark / grk estimate / prk for a tensor file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_budget(p)

    p = sub.add_parser("poly", help="strength and Birch-rank estimate for a polynomial file")
    p.add_argument("--poly", required=True)
    p.add_argument("--lmax", type=int, default=2)

    p = sub.add_parser("count", help="|S_F| over extension levels")
    p.add_argument("--tensor", required=True)
    p.add_argument("--lmax", type=int, default=1)
    p.add_argument("--naive", action="store_true",
                   help="use the literal-enumeration oracle")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_budget(p)

    p = sub.add_parser("verify", help="run a property campaign")
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--grid", choices=("small", "default"), default="default")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for counterexample files")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("charzero", help="prime-reduction pipeline for integer tensors")
    czsub = p.add_subparsers(dest="czcommand", required=True)
    pz = czsub.add_parser("scan", help="per-prime exact analytic ranks")
    pz.add_argument("--tensor", required=True)
    pz.add_argument("--primes", default="auto", help="'auto' or comma-separated list")
    add_budget(pz)
    pl = czsub.add_parser("lift", help="mod-L small-height lifting sieve")
    pl.add_argument("--tensor", required=True)
    pl.add_argument("--L", type=int, required=True)
    pl.add_argument("--sigma", type=float, required=True)

    p = sub.add_parser("gen", help="write structured tensor files")
    p.add_argument("generator", choices=("diagonal", "random", "direct-sum", "weil-restrict"))
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--integer", action="store_true", help="integer coefficients")
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--tensor", default=None)
    p.add_argument("--tensor2", default=None)
    p.add_argument("--out", default=None)
    return ap


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    handlers = {
        "rank": _cmd_rank,
        "poly": _cmd_poly,
        "count": _cmd_count,
        "verify": _cmd_verify,
        "charzero-scan": _cmd_charzero_scan,
        "charzero-lift": _cmd_charzero_lift,
        "gen": _cmd_gen,
    }
    try:
        return handlers[config.subcommand](config.options)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def config_from_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    opt = vars(ns)
    name = opt.pop("subcommand")
    if name == "charzero":
        name = f"charzero-{opt.pop('czcommand')}"
    return RunConfig(name, opt)


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage-error code, which is EXIT_BUDGET here
            return EXIT_INPUT
        raise
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

"""Run one multirank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload field-counts --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run it from the root of a multirank checkout; the library is imported from
./src. One client runs the workload's instance batch in a closed loop, one
call after the other, for --seconds. Every batch starts from a fresh import
of the library (and its caches), as a fresh command-line process would, so
field tables, level embeddings and catalogs are built inside the timed
region. The numpy import is process-wide and happens once, before timing.

Times are scaled to a nominal host speed with reference work timed between
calls (see Clock); the report line keeps the raw figures.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced batches and prints the per-layer metrics from the traced ones. Outputs
are checked after timing (see oracles.py). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("errors", "rng", "field", "tensor", "counting", "ranks", "charzero",
           "verify", "tensorio")
SETUP_EXTRA = 2  # set-up-only cycles after each batch, for the setup_s median
SPEEDUP_RUNS = 3  # timings per thread count for counting.sf.thread_speedup
REF_NOMINAL = 0.655e-3  # s the reference work takes on the quiet host (meta.json "timing")
REF_EVERY = 0.025  # s between reference timings inside a batch
REF_WINDOW = 3  # reference timings on each side of a call that set its speed

END_TO_END = (("wall_s", "s"), ("inst_p50_ms", "ms"), ("inst_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (("field.self_s", "s"), ("field.build_s", "s"), ("tensor.self_s", "s"),
             ("tensor.level_form_s", "s"), ("counting.self_s", "s"),
             ("counting.singular_s", "s"), ("ranks.self_s", "s"), ("charzero.self_s", "s"),
             ("verify.suite_s", "s"), ("verify.self_s", "s"),
             ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
             ("trace.self_cover", "ratio"), ("trace.spans", "count"),
             ("counting.sf.slices", "count"), ("counting.box.pairs", "count"),
             ("counting.box.hits", "count"), ("counting.nr.prefixes", "count"),
             ("counting.fiber.prefixes", "count"), ("counting.fiber.solutions", "count"),
             ("counting.singular.points", "count"), ("ranks.catalog_terms", "count"),
             ("ranks.budget_stops", "count"))


class SetupError(RuntimeError):
    """The checkout does not hold a library to benchmark."""


def fresh_lib(src: Path):
    """Import multirank anew from src, dropping any earlier copy and its caches."""
    for name in [m for m in sys.modules if m == "multirank" or m.startswith("multirank.")]:
        del sys.modules[name]
    pkg = importlib.import_module("multirank")
    origin = Path(pkg.__file__).resolve()
    if src not in origin.parents:
        raise SetupError(f"multirank imported from {origin}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"multirank.{m}")
                                    for m in MODULES})


def resolve(lib, func: str):
    mod, name = func.split(".")
    return getattr(getattr(lib, mod), name)


def reference_s() -> float:
    """One timing of fixed pure-Python work: the host's speed right now.

    List building, generator sums, tuple keys and dict updates, like the
    library's own inner loops; plain arithmetic alone slows less than the
    library does when the host is busy. The garbage collector is off while
    it runs, so the size of the library's heap cannot move it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [[(i * 31 + j) % 17 for j in range(8)] for i in range(400)]
        table: dict[tuple, int] = {}
        for i, row in enumerate(rows):
            key = (i & 63, sum(v * v for v in row if v))
            table[key] = table.get(key, 0) + 1
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Turns raw call times into seconds at the nominal host speed.

    On a shared host other tenants can slow the CPU by up to 1.7x for
    seconds to minutes at a time, which no statistic over a run's own batches
    removes. So fixed reference work is timed between calls, at least every
    REF_EVERY seconds, and a call's time is scaled by REF_NOMINAL over the
    median of the REF_WINDOW reference timings on each side of it. Program
    changes cannot move the reference; the raw times are reported as well.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self.spent = 0.0

    def tick(self, force: bool = False) -> None:
        if force or not self.at or perf_counter() - self.at[-1] > REF_EVERY:
            d = reference_s()
            self.spent += d
            self.at.append(perf_counter())
            self.ref.append(d)

    def scale(self, start: float, dur: float) -> float:
        lo = bisect.bisect_right(self.at, start) - REF_WINDOW
        hi = bisect.bisect_left(self.at, start + dur) + REF_WINDOW
        return dur * REF_NOMINAL / statistics.median(self.ref[max(lo, 0):hi])

    def timed(self, fn, *args):
        """fn(*args) and its scaled time, with a reference on either side."""
        self.tick(force=True)
        t0 = perf_counter()
        out = fn(*args)
        dur = perf_counter() - t0
        self.tick(force=True)
        return out, self.scale(t0, dur)


class Rep:
    """One batch: its timings, outputs and (when traced) spans."""

    def __init__(self, lib, batch, setup_s, tracer):
        self.lib, self.batch, self.setup_s, self.tracer = lib, batch, setup_s, tracer
        self.times: list[float] = []  # raw seconds
        self.scaled: list[float] = []  # seconds at the nominal host speed
        self.outs: list = []
        self.errors: list[str | None] = []
        self.wall = 0.0  # raw, reference timings excluded


def setup(src: Path, workload: str, seed: int):
    lib = fresh_lib(src)
    return lib, workloads.build(workload, lib, random.Random(seed))


def timed_setup(clock: Clock, src: Path, workload: str, seed: int):
    """setup() and its scaled time; the previous library is freed before timing."""
    gc.collect()
    return clock.timed(setup, src, workload, seed)


def run_rep(src: Path, workload: str, seed: int, traced: bool, clock: Clock) -> Rep:
    (lib, batch), setup_s = timed_setup(clock, src, workload, seed)
    rep = Rep(lib, batch, setup_s, spans.Tracer() if traced else None)
    fns = {inst.func: resolve(lib, inst.func) for inst in batch}
    tracer = rep.tracer
    if tracer:
        tracer.install(lib)
        fns = {k: tracer.wrap(fn) for k, fn in fns.items()}
        tracer.active = True
    times, starts, outs, errors = rep.times, [], rep.outs, rep.errors
    spent = clock.spent
    start = perf_counter()
    for i, inst in enumerate(batch):
        fn = fns[inst.func]
        if tracer:
            tracer.instance = i
        clock.tick()
        t = perf_counter()
        try:
            out, err = fn(*inst.args), None
        except Exception as exc:  # a failed instance is counted, never skipped
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t)
        starts.append(t)
        outs.append(out)
        errors.append(err)
    clock.tick(force=True)
    rep.wall = perf_counter() - start - (clock.spent - spent)
    if tracer:
        tracer.active = False
    rep.scaled = [clock.scale(t, d) for t, d in zip(starts, times)]
    return rep


def _exact(x):
    """Drop floats (derived from exact counts) and certificates; counts as strings."""
    if isinstance(x, dict):
        return {k: _exact(v) for k, v in x.items()
                if k != "certificate" and not isinstance(v, float)}
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x if not isinstance(v, float)]
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return repr(x)


def canonical(out, err) -> str:
    if err is not None:
        return "error " + err.split(":", 1)[0]
    return json.dumps(_exact(out.to_dict()), sort_keys=True, separators=(",", ":"))


def digest(batch, canon) -> str:
    lines = sorted(f"{inst.key}\t{c}" for inst, c in zip(batch, canon))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def instance_medians(runs: list[list[float]]) -> list[float]:
    """Each instance's median time over the batches of a run."""
    return [statistics.median(ts) for ts in zip(*runs)]


def thread_speedup(lib, tracer):
    """Largest count_SF call of the batch, timed at 1 thread over 2 threads."""
    calls = [r for r in tracer.spans
             if r[spans.NAME] == "counting.count_SF" and r[spans.ARGS] is not None
             and r[spans.ERROR] is None]
    if not calls:
        return None, None
    rec = max(calls, key=lambda r: spans._work(r).get("counting.sf.slices", 0))
    args, kwargs = rec[spans.ARGS]
    fn = lib.counting.count_SF
    fn = getattr(fn, "__wrapped__", fn)
    saved = os.environ.get("MULTIRANK_THREADS")
    times = {"1": [], "2": []}
    results = set()
    try:
        for _ in range(SPEEDUP_RUNS):
            for threads in ("1", "2"):
                os.environ["MULTIRANK_THREADS"] = threads
                t = perf_counter()
                results.add(fn(*args, **kwargs))
                times[threads].append(perf_counter() - t)
    finally:
        os.environ["MULTIRANK_THREADS"] = saved if saved is not None else "1"
    speedup = statistics.median(times["1"]) / statistics.median(times["2"])
    mismatch = None if len(results) == 1 else f"count_SF differs across thread counts: {results}"
    return speedup, mismatch


def machine() -> dict:
    import numpy

    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "gil": gil,
            "numpy": numpy.__version__}


def measure(args) -> int:
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "multirank" / "__init__.py").is_file():
        print(f"error: no multirank package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["MULTIRANK_THREADS"] = str(args.threads)
    import numpy  # noqa: F401  (process-wide; the sieve imports it lazily)

    clock = Clock()
    setup(src, args.workload, args.seed)  # the first import also loads the standard library
    setups = []

    untraced, raw, traced_runs, layer_runs, canons = [], [], [], [], []
    last = last_traced = None
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(untraced) > len(traced_runs)
        rep = last = None  # release the previous batch before importing the next
        rep = run_rep(src, args.workload, args.seed, traced, clock)
        setups.append(rep.setup_s)
        canons.append([canonical(o, e) for o, e in zip(rep.outs, rep.errors)])
        if traced:
            traced_runs.append(rep.scaled)
            m = spans.layer_metrics(rep.tracer.spans, rep.wall)
            spans.check_cover(m)
            layer_runs.append(m)
            last_traced = rep
        else:
            untraced.append(rep.scaled)
            raw.append(rep.times)
        last = rep
        setups.extend(timed_setup(clock, src, args.workload, args.seed)[1]
                      for _ in range(SETUP_EXTRA))
        if perf_counter() >= deadline and (not args.trace or traced_runs):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed region
    check_start = perf_counter()
    batch, n = last.batch, len(last.batch)
    bad = [False] * n
    messages = []
    for i, inst in enumerate(batch):
        errs = [last.errors[i]] if last.errors[i] else []
        if not errs:
            try:
                errs = oracles.check(last.lib, inst, last.outs[i])
            except Exception as exc:  # a crashing check is a failed instance
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            bad[i] = True
            messages.append(f"{inst.key}: {'; '.join(errs)}")
    ref = canons[-1]
    failed = 0
    for canon in canons:
        for i in range(n):
            if bad[i] or canon[i] != ref[i]:
                failed += 1
        if canon != ref:
            messages.append("outputs differ between batches of the same seed")
    attempted = n * len(canons)

    report = {"workload": args.workload, "seed": args.seed, "threads": args.threads,
              "batches": len(canons), "instances": n,
              "output_digest": digest(batch, ref), "fail_frac": failed / attempted,
              "check_s": perf_counter() - check_start, "machine": machine()}
    if args.trace:
        tracer = last_traced.tracer
        per_layer = {k: statistics.median(r.get(k, 0.0) for r in layer_runs)
                     for k in sorted(set().union(*layer_runs))}
        per_layer["trace.overhead_frac"] = (sum(instance_medians(traced_runs))
                                            / sum(instance_medians(untraced)) - 1)
        speedup, mismatch = thread_speedup(last_traced.lib, tracer)
        if speedup is not None:
            per_layer["counting.sf.thread_speedup"] = speedup
        if mismatch:
            messages.append(mismatch)
            failed += 1
        per_layer.update(spans.field_op_ns(last_traced.lib, spans.fields_touched(tracer.spans)))
        out_dir = root / "perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report["per_layer"] = {k: v for k, v in per_layer.items() if v}
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        samples = {name: len(layer_runs) for name, _ in PER_LAYER}
    else:
        inst = instance_medians(untraced)
        p90 = statistics.quantiles(inst, n=10)[8]
        values = {"wall_s": sum(inst),
                  "inst_p50_ms": statistics.median(inst) * 1e3,
                  "inst_p90_ms": p90 * 1e3,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples = {"wall_s": len(untraced), "inst_p50_ms": len(inst),
                   "inst_p90_ms": len(inst), "setup_s": len(setups), "peak_rss_mb": 1}
        report["beyond_p90"] = sum(1 for t in inst if t > p90)
        groups = report["group_wall_s"] = {}
        for instance, t in zip(batch, inst):
            group = instance.key.split("/")[0]
            groups[group] = groups.get(group, 0.0) + t
        report["raw_wall_s"] = sum(instance_medians(raw))
        report["reference_ms"] = statistics.median(clock.ref) * 1e3
        report["batch_walls"] = [sum(ts) for ts in raw]
    report["samples"] = samples
    report["failures"] = messages[:20]

    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:26s} {m['value']:>16.6g} {m['unit']:6s} "
              f"(n={samples[name]})")
    print(f"{args.workload:13s} {'fail_frac':26s} {failed / attempted:>16.6g} ratio  "
          f"(n={attempted})")
    print(f"{args.workload:13s} output_digest {report['output_digest']}")
    for line in messages[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-2]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}/{k}": v for w, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"),
                    help="a workload, or all workloads one after the other")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=min(2, os.cpu_count() or 1),
                    help="MULTIRANK_THREADS for the run (default min(2, nproc))")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return measure(args)
    except (SetupError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

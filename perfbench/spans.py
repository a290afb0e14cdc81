"""Spans at multirank's module boundaries, recorded from outside the library.

The traced run wraps, on a freshly imported copy of the library, every
public function that one module takes from another (``WRAP``), plus the few
calls inside one module that cross a layer boundary all the same (level
base change, catalog builds, certificate checks). A call made through a
wrapped name becomes a span nested under the span that was open when it
started, so self time is a span's duration minus its children's.

Spans are recorded only on the thread that runs the batch: worker threads
of the library's chunked sums fall inside the enclosing span, which already
covers their wall time. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

# module -> names wrapped in that module's namespace; a missing name is an error
WRAP = {
    "tensor": ("kernel",),
    "counting": ("base_change", "embed", "kernel", "make_field", "poly_base_change",
                 "level_form", "level_poly", "count_SF"),
    "ranks": ("count_NR", "count_SF", "count_box", "count_singular", "kernel",
              "matrix_rank", "monomial_exponents", "sf_profile",
              "ark_exact", "rank_one_catalog", "product_catalog",
              "verify_rank_one_certificate", "verify_strength_certificate",
              "prk_exact_small", "str_exact_small"),
    "charzero": ("ark_exact", "box_solutions", "is_prime", "lift_height_bound", "make_field"),
    "verify": ("ark_exact", "box_solutions", "brk_estimate", "count_NR", "count_SF",
               "count_box", "embed", "fiber_counts", "grk_estimate", "level_form",
               "make_field", "monomial_exponents", "polarize", "prk_exact_small",
               "str_exact_small", "weil_restrict"),
}

LAYERS = ("field", "tensor", "counting", "ranks", "charzero", "verify")

# cross-module names left unwrapped on purpose: input constructors, whose time
# belongs to the caller's layer
UNWRAPPED_OK = frozenset({"multirank.verify.diagonal", "multirank.verify.direct_sum",
                          "multirank.verify.random_form", "multirank.verify.random_int_form"})

# spans whose arguments and result are kept, to derive exact work counts
_KEEP = frozenset({"counting.count_SF", "counting.count_box", "counting.box_solutions",
                   "counting.count_NR", "counting.fiber_counts", "counting.count_singular",
                   "ranks.rank_one_catalog", "ranks.product_catalog",
                   "charzero.lift_search", "field.kernel"})

# fraction by which the summed self times may miss the traced batch wall time
SELF_COVER_TOL = 0.02

# record layout
NAME, START, END, PARENT, INSTANCE, ERROR, ARGS, RESULT, MISS = range(9)


class TraceError(RuntimeError):
    """The span table no longer matches the library, or spans do not add up."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self.active = False
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def install(self, lib) -> None:
        """Wrap every name in WRAP on lib's modules.

        Raises TraceError if a listed name is missing, or if a module takes a
        function from another module that neither WRAP nor UNWRAPPED_OK lists:
        its time would silently go to the caller's layer.
        """
        unlisted = [n for n in unlisted_boundaries(lib) if n not in UNWRAPPED_OK]
        if unlisted:
            raise TraceError(f"cross-module names not wrapped: {', '.join(unlisted)}; "
                             "add them to WRAP in perfbench/spans.py")
        for modname, names in WRAP.items():
            mod = getattr(lib, modname)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None or not callable(fn):
                    raise TraceError(f"multirank.{modname}.{name} is missing; "
                                     "update WRAP in perfbench/spans.py")
                setattr(mod, name, self.wrap(fn))

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        keep = name in _KEEP
        info = getattr(fn, "cache_info", None)
        spans, stack, main = self.spans, self._stack, self._main

        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != main:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance,
                   None, None, None, False]
            stack.append(len(spans))
            spans.append(rec)
            misses = info().misses if info else 0
            rec[START] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info:
                rec[MISS] = info().misses > misses
            if keep:
                rec[ARGS], rec[RESULT] = (args, kwargs), res
            return res

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, r in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": r[NAME], "start": r[START],
                                     "end": r[END], "parent": r[PARENT],
                                     "instance": r[INSTANCE], "error": r[ERROR]}) + "\n")


def unlisted_boundaries(lib) -> list[str]:
    """Public functions a module imports from another module but WRAP omits."""
    out = []
    for modname in LAYERS:
        mod = getattr(lib, modname)
        listed = set(WRAP.get(modname, ()))
        for name, obj in vars(mod).items():
            if (name.startswith("_") or name in listed or isinstance(obj, type)
                    or not callable(obj)):
                continue
            home = getattr(obj, "__module__", "") or ""
            if home.startswith("multirank.") and home != mod.__name__:
                out.append(f"multirank.{modname}.{name}")
    return sorted(out)


def _bound(args, kwargs, names, defaults):
    """Positional-or-keyword lookup for the few signatures work counts need."""
    vals = dict(zip(names, args))
    vals.update(kwargs)
    for k, v in defaults.items():
        vals.setdefault(k, v)
    return vals


def _work(rec) -> dict:
    """Exact work units of one span, from its inputs (and result sizes)."""
    name = rec[NAME]
    args, kwargs = rec[ARGS]
    res = rec[RESULT]
    if name == "counting.count_SF":
        a = _bound(args, kwargs, ("F", "l"), {"l": 1})
        F = a["F"]
        Q = F.field.q ** a["l"]
        if F.d < 3:
            return {}
        P = (Q ** F.n - 1) // (Q - 1)
        return {"counting.sf.slices": P ** (F.d - 2)}
    if name in ("counting.count_box", "counting.box_solutions"):
        G, box = args[0], args[1] if len(args) > 1 else kwargs["box"]
        hits = res if isinstance(res, int) else len(res)
        return {"counting.box.pairs": box.width ** (G.n * (G.d - 1)),
                "counting.box.hits": hits}
    if name == "counting.count_NR":
        a = _bound(args, kwargs, ("F", "R"), {})
        F = a["F"]
        return {"counting.nr.prefixes": (F.field.q ** (F.n * a["R"])) ** (F.d - 2)}
    if name == "counting.fiber_counts":
        a = _bound(args, kwargs, ("F", "a", "b"), {})
        F = a["F"]
        return {"counting.fiber.prefixes": (F.field.q ** (F.n * a["a"])) ** (F.d - 2),
                "counting.fiber.solutions": sum(res.values())}
    if name == "counting.count_singular":
        a = _bound(args, kwargs, ("f", "l"), {"l": 1})
        f = a["f"]
        return {"counting.singular.points": (f.field.q ** a["l"]) ** f.n}
    if name in ("ranks.rank_one_catalog", "ranks.product_catalog"):
        return {"ranks.catalog_terms": len(res[0])} if rec[MISS] else {}
    if name == "charzero.lift_search":
        return {"charzero.lift.hits": res.sieve_hits, "charzero.lift.lifted": len(res.points)}
    return {}


def fields_touched(spans) -> list:
    """FieldSpecs passed to field.kernel, in first-use order."""
    seen = {}
    for r in spans:
        if r[NAME] == "field.kernel" and r[ARGS] is not None:
            spec = r[ARGS][0][0]
            seen.setdefault((spec.p, spec.e), spec)
    return list(seen.values())


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer times and exact counts for one traced batch.

    Self time is duration minus the children's durations; children run on
    the same thread, nested and one after another, so that is exactly the
    part of the interval they cover.
    """
    n = len(spans)
    dur = [r[END] - r[START] for r in spans]
    child = [0.0] * n
    child_field = [0.0] * n
    for i, r in enumerate(spans):
        p = r[PARENT]
        if p >= 0:
            child[p] += dur[i]
            if r[NAME].startswith("field."):
                child_field[p] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    m: dict[str, float] = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    counts = {"counting.sf.slices": 0, "counting.box.pairs": 0, "counting.box.hits": 0,
              "counting.nr.prefixes": 0, "counting.fiber.prefixes": 0,
              "counting.fiber.solutions": 0, "counting.singular.points": 0,
              "ranks.catalog_terms": 0, "ranks.budget_stops": 0,
              "charzero.lift.hits": 0, "charzero.lift.lifted": 0}
    for i, r in enumerate(spans):
        name = r[NAME]
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", self_t[i])
        if layer == "field" and r[MISS]:
            add("field.build_s", dur[i])
        elif name in ("counting.level_form", "counting.level_poly"):
            add("tensor.level_form_s", dur[i] - child_field[i])
        elif name == "tensor.weil_restrict":
            add("tensor.weil_restrict_s", self_t[i])
        elif name == "tensor.polarize":
            add("tensor.polarize_s", self_t[i])
        elif name in ("counting.count_SF", "counting.sf_profile"):
            add("counting.sf_s", self_t[i])
        elif name == "counting.count_box":
            add("counting.box.count_s", self_t[i])
        elif name == "counting.box_solutions":
            add("counting.box.collect_s", self_t[i])
        elif name == "counting.count_NR":
            add("counting.nr_s", self_t[i])
        elif name == "counting.fiber_counts":
            add("counting.fiber_s", self_t[i])
        elif name == "counting.count_singular":
            add("counting.singular_s", self_t[i])
        elif name in ("ranks.rank_one_catalog", "ranks.product_catalog"):
            add("ranks.catalog_s", self_t[i])
        elif name == "ranks.prk_exact_small":
            add("ranks.prk_s", self_t[i])
        elif name == "ranks.str_exact_small":
            add("ranks.str_s", self_t[i])
        elif name in ("ranks.verify_rank_one_certificate", "ranks.verify_strength_certificate"):
            add("ranks.cert_verify_s", self_t[i])
        elif name == "charzero.liminf_ark_scan":
            add("charzero.scan_s", self_t[i])
        elif name == "charzero.lift_search":
            add("charzero.lift_s", self_t[i])
        if layer == "verify" and (r[PARENT] < 0 or not spans[r[PARENT]][NAME].startswith("verify.")):
            add("verify.suite_s", dur[i])
        if layer == "ranks" and r[ERROR] == "BudgetError" and name in (
                "ranks.prk_exact_small", "ranks.str_exact_small"):
            counts["ranks.budget_stops"] += 1
        if r[ARGS] is not None and r[ERROR] is None:
            for k, v in _work(r).items():
                counts[k] += v
    m.update(counts)
    if counts["counting.sf.slices"]:
        m["counting.sf.slice_us"] = m.get("counting.sf_s", 0.0) / counts["counting.sf.slices"] * 1e6
    if counts["counting.box.pairs"]:
        box_s = m.get("counting.box.count_s", 0.0) + m.get("counting.box.collect_s", 0.0)
        m["counting.box.pair_ns"] = box_s / counts["counting.box.pairs"] * 1e9
        m["counting.box.hit_ratio"] = counts["counting.box.hits"] / counts["counting.box.pairs"]
    if counts["charzero.lift.hits"]:
        m["charzero.lift.lifted_ratio"] = counts["charzero.lift.lifted"] / counts["charzero.lift.hits"]
    roots = sum(dur[i] for i, r in enumerate(spans) if r[PARENT] < 0)
    m["trace.spans"] = n
    m["trace.wall_s"] = wall
    m["trace.self_cover"] = sum(self_t) / wall if wall > 0 else 0.0
    m["trace.root_s"] = roots
    return m


def check_cover(m: dict) -> None:
    """Raise unless the summed self times account for the traced wall time.

    Every call the runner makes is a root span, so this catches time lost
    or counted twice by the tracer and the runner's own overhead; names
    that escape WRAP are caught by Tracer.install.
    """
    if abs(m["trace.self_cover"] - 1.0) > SELF_COVER_TOL:
        raise TraceError(f"self times cover {m['trace.self_cover']:.4f} of the traced "
                         f"wall time; allowed 1 +- {SELF_COVER_TOL}")


def field_op_ns(lib, specs, ops: int = 5000) -> dict:
    """ns per call of each touched field's kernel add and mul closures.

    Each loop runs three times and keeps the middle time; the cost of an
    empty loop over the same operand pairs is taken off.
    """
    import random

    out = {}
    for spec in specs:
        K = lib.field.kernel(spec)
        rnd = random.Random(spec.q)
        pairs = [(rnd.randrange(1, spec.q), rnd.randrange(1, spec.q)) for _ in range(ops)]
        mid = {}
        for label, fn in (("add", K.add), ("mul", K.mul), ("loop", None)):
            times = []
            for _ in range(3):
                t0 = perf_counter()
                if fn is None:
                    for a, b in pairs:
                        pass
                else:
                    for a, b in pairs:
                        fn(a, b)
                times.append(perf_counter() - t0)
            mid[label] = sorted(times)[1]
        for label in ("add", "mul"):
            out[f"field.{label}_ns.q{spec.q}"] = max(mid[label] - mid["loop"], 0.0) / ops * 1e9
    return out

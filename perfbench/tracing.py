"""Per-layer tracing from outside the program.

``installed(tracer)`` wraps each layer's public entry points in every
``bmwparam`` module namespace and class that binds them, so a call made
through any import path records a span: request id, span id, parent span,
name, layer, start and end.  Spans stay in memory until the run ends.  Some
entry points also feed counters (series lengths, subsets tried, ...).
Generator entry points are materialized inside their span.

Field operations are far too small to wrap one by one; ``profile_fields``
takes them from one cProfile pass instead, by field type.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager

REQUEST = "request"


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []          # [request, id, parent, name, layer, start, end]
        self.stack = []
        self.counts = Counter()
        self.request = None
        self.in_roots = 0

    def reset(self):
        """Forget the spans and counts of an earlier pass."""
        self.spans.clear()
        self.counts.clear()

    def _span(self, name, layer, fn, args, kwargs):
        rec = [self.request, len(self.spans),
               self.stack[-1] if self.stack else None, name, layer, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[1])
        rec[5] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[6] = time.perf_counter()
            self.stack.pop()

    def root(self, fn, *args):
        """The request's own span; its self time is the untraced remainder."""
        return self._span(REQUEST, REQUEST, fn, args, {})


# ------------------------------------------------------------------ hooks
# hook(tracer, args, result, error) runs after the wrapped call returns.

def _count(name, amount=lambda args, result: 1):
    def hook(tr, args, result, error):
        if error is None:
            tr.counts[name] += amount(args, result)
    return hook


def _omega_seq(tr, args, result, error):
    seq = args[0]
    tr.counts["omega.prefix_terms"] += len(seq.prefix)
    if seq.closure is not None:
        tr.counts["omega.closure_terms"] += max(0, len(seq.prefix) - len(seq.closure))


def _adm_check(tr, args, result, error):
    if error is None:
        tr.counts["adm.checks"] += 1
        tr.counts["adm.checks_failed"] += not result.passed


def _subset(tr, args, result, error):
    if error is None:
        tr.counts["semiadm.subsets_tried"] += 1
        tr.counts["semiadm.subsets_passed"] += bool(result)


def _roots_errors(tr, args, result, error):
    if error is not None and type(error).__name__ == "SplitError":
        tr.counts["univar.split_errors"] += 1


def _classify_errors(tr, args, result, error):
    if type(error).__name__ in ("ClassifyError", "RecoveryError"):
        tr.counts["rationality.classify_errors"] += 1


def _mpoly_eval(tr, args, result, error):
    tr.counts["mpoly.evaluations"] += 1
    tr.counts["mpoly.terms_evaluated"] += len(args[0].terms)


# (module, qualified name, layer, hook)
SPANS = [
    ("cli", "main", "cli", None),
    ("paramfile", "load_paramfile", "paramfile", None),
    ("paramfile", "parse_paramfile", "paramfile", None),
    ("paramfile", "dump_params", "paramfile", None),
    ("omega", "degenerate_params", "omega", None),
    ("omega", "nondegenerate_params", "omega", None),
    ("omega", "rx_functions", "omega", None),
    ("omega", "check_rho_constraint", "omega", None),
    ("omega", "wplus_ratfunc", "omega", None),
    ("omega", "wminus_ratfunc", "omega", None),
    ("omega", "omega_negative", "omega", None),
    ("omega", "verify_pm_identity", "omega", None),
    ("omega", "OmegaSeq.__post_init__", "omega", _omega_seq),
    ("omega", "OmegaSeq.extended", "omega", None),
    ("symfun", "eta_values", "symfun",
     _count("symfun.eta_terms", lambda args, result: len(result))),
    ("symfun", "schur_q_series", "symfun", None),
    ("symfun", "char_poly_coeffs", "symfun", None),
    ("symfun", "elem_sym", "symfun", None),
    ("symfun", "power_sum", "symfun", None),
    ("symfun", "schur_q_poly", "symfun", None),
    ("symfun", "half_q_poly", "symfun", None),
    ("symfun", "eta_poly", "symfun", None),
    ("symfun", "universal_H", "symfun", None),
    ("mpoly", "MPoly.evaluate", "mpoly", _mpoly_eval),
    ("mpoly", "MPoly.__mul__", "mpoly", None),
    ("mpoly", "MPoly.__add__", "mpoly", None),
    ("mpoly", "MPoly.__sub__", "mpoly", None),
    ("mpoly", "MPoly.exact_div", "mpoly", None),
    ("univar", "Series.__mul__", "univar",
     _count("univar.series_terms", lambda args, result: len(result))),
    ("univar", "Series.__add__", "univar", None),
    ("univar", "Series.first_disagreement", "univar", None),
    ("univar", "RatFunc.series_at_infinity", "univar",
     _count("univar.series_terms", lambda args, result: len(result))),
    ("univar", "RatFunc.__init__", "univar", None),
    ("univar", "RatFunc.__add__", "univar", None),
    ("univar", "RatFunc.__sub__", "univar", None),
    ("univar", "RatFunc.__mul__", "univar", None),
    ("univar", "RatFunc.__truediv__", "univar", None),
    ("univar", "RatFunc.__eq__", "univar", None),
    ("univar", "RatFunc.substitute_inverse_t", "univar", None),
    ("univar", "Poly.__mul__", "univar", None),
    ("univar", "Poly.__divmod__", "univar", None),
    ("univar", "Poly.roots_with_multiplicity", "univar.roots", _roots_errors),
    ("adm_degenerate", "full_check", "adm_degenerate", _adm_check),
    ("adm_degenerate", "check_recursion", "adm_degenerate", _adm_check),
    ("adm_degenerate", "check_relations", "adm_degenerate", _adm_check),
    ("adm_degenerate", "check_u_admissible", "adm_degenerate", _adm_check),
    ("adm_nondegenerate", "wilcox_yu_check", "adm_nondegenerate", _adm_check),
    ("adm_nondegenerate", "rui_xu_check", "adm_nondegenerate", _adm_check),
    ("adm_nondegenerate", "check_recursion", "adm_nondegenerate", _adm_check),
    ("semiadm", "detect", "semiadm", None),
    ("semiadm", "construct_example", "semiadm", None),
    ("semiadm", "_subset_passes", "semiadm", _subset),
    ("rationality", "affine_classify", "rationality", _classify_errors),
    ("rationality", "char2_recover", "rationality", _classify_errors),
    ("rationality", "fit_recurrence", "rationality", None),
    ("rationality", "berlekamp_massey", "rationality",
     _count("rationality.bm_terms", lambda args, result: len(args[1]))),
    ("rationality", "weak_admissibility_check", "rationality", None),
    ("diagrams", "enumerate_diagrams", "diagrams",
     _count("diagrams.enumerated", lambda args, result: len(result))),
    ("diagrams", "enumerate_ideal_spanning", "diagrams", None),
    ("diagrams", "enumerate_regular", "diagrams", None),
    ("diagrams", "compose", "diagrams", _count("diagrams.compositions")),
    ("diagrams", "factorize", "diagrams", _count("diagrams.factorizations")),
    ("diagrams", "BrauerFactorization.recompose", "diagrams", None),
]

GENERATORS = {"enumerate_diagrams", "enumerate_ideal_spanning",
              "enumerate_regular"}

# counted, not timed: one call per scalar or per root candidate
COUNTERS = [
    ("paramfile", "parse_scalar", "paramfile.scalars", False),
    ("univar", "Poly.__call__", "univar.root_candidates", True),
]


def _span_wrapper(tracer, name, layer, fn, hook, eager):
    roots = layer == "univar.roots"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if roots:
            tracer.in_roots += 1
        error = result = None
        try:
            call = (lambda *a, **k: list(fn(*a, **k))) if eager else fn
            result = tracer._span(name, layer, call, args, kwargs)
        except Exception as ex:
            error = ex
            raise
        finally:
            if roots:
                tracer.in_roots -= 1
            if hook is not None:
                hook(tracer, args, result, error)
        return iter(result) if eager else result
    return wrapper


def _counter_wrapper(tracer, counter, fn, only_in_roots):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not only_in_roots or tracer.in_roots:
            tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _rebind(module, qualname, make):
    """Replace every binding of the target, in classes or module namespaces;
    return the undo list."""
    mod = importlib.import_module(f"bmwparam.{module}")
    undo = []
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name)
        orig = owner.__dict__[attr]
        wrapper = make(orig)
        for key, value in list(owner.__dict__.items()):
            if value is orig:
                setattr(owner, key, wrapper)
                undo.append((owner, key, orig))
        return undo
    orig = getattr(mod, qualname)
    wrapper = make(orig)
    for mname, m in list(sys.modules.items()):
        if mname == "bmwparam" or mname.startswith("bmwparam."):
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    undo.append((m, key, orig))
    return undo


@contextmanager
def installed(tracer):
    """Wrap every entry point for the duration of the block."""
    undo = []
    try:
        for module, qualname, layer, hook in SPANS:
            name = f"{module}.{qualname}"
            eager = qualname in GENERATORS
            undo += _rebind(module, qualname,
                            lambda fn, n=name, lay=layer, h=hook, e=eager:
                            _span_wrapper(tracer, n, lay, fn, h, e))
        for module, qualname, counter, only_in_roots in COUNTERS:
            undo += _rebind(module, qualname,
                            lambda fn, c=counter, o=only_in_roots:
                            _counter_wrapper(tracer, c, fn, o))
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def symfun_cache_stats():
    """hits, misses and entries summed over symfun's public lru caches."""
    from bmwparam import symfun
    hits = misses = entries = 0
    for value in vars(symfun).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
            entries += ci.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


# ----------------------------------------------------------- field profile

_FIELD_OPS = ("_add", "_sub", "_mul", "_neg", "_inv")
_FIELD_TYPES = {"RationalField": "qq", "PrimeField": "gfp", "BinaryField": "gf2k"}


def profile_fields(run):
    """Run ``run`` under cProfile; return field time, wrapper time, total
    time, and field operation counts by field type.

    Time of a C builtin is charged to the files of its callers.  Field time
    is everything in ``bmwparam/fields.py`` plus the stdlib ``fractions``
    module; wrapper time is the part spent in FieldElement's methods.
    """
    from bmwparam import fields

    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    fields_file = os.path.abspath(fields.__file__)
    wrapper_codes = {(f.__code__.co_filename, f.__code__.co_firstlineno,
                      f.__code__.co_name)
                     for f in vars(fields.FieldElement).values()
                     if hasattr(f, "__code__")}
    op_codes = {}
    for cls_name, tag in _FIELD_TYPES.items():
        cls = getattr(fields, cls_name)
        for op in _FIELD_OPS:
            f = getattr(cls, op, None)
            if f is not None and hasattr(f, "__code__"):
                code = f.__code__
                op_codes[(code.co_filename, code.co_firstlineno, code.co_name)] = tag

    def is_field(key):
        path = key[0]
        return (os.path.abspath(path) == fields_file
                or os.path.basename(path) == "fractions.py")

    total = field = wrapper = 0.0
    ops = Counter()
    inversions = 0
    for key, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        if key[0] == "~":   # builtin: charge its callers
            for caller, cstat in callers.items():
                if is_field(caller):
                    field += cstat[2]
                    if caller in wrapper_codes:
                        wrapper += cstat[2]
            continue
        if is_field(key):
            field += tt
            if key in wrapper_codes:
                wrapper += tt
        if key in op_codes:
            # only operations requested through FieldElement, not the
            # multiplications a binary-field inversion makes internally
            ops[op_codes[key]] += sum(c[1] for caller, c in callers.items()
                                      if caller in wrapper_codes)
        if key[2] == "inverse" and key in wrapper_codes:
            inversions += nc
    return {"total_s": total, "field_s": field, "wrapper_s": wrapper,
            "ops": dict(ops), "inversions": inversions}


# ------------------------------------------------------------ aggregation

SELF_LAYERS = ("cli", "paramfile", "omega", "symfun", "mpoly", "univar",
               "adm_degenerate", "adm_nondegenerate", "semiadm", "rationality",
               "diagrams")


# a request's span may miss the few microseconds between the worker's own
# clock reads and the span's; more than this means a span is lost or wrong
GAP_SLACK_S = 1e-3
GAP_SLACK_SHARE = 0.05


def self_times(spans, latency):
    """Per request: {layer: self seconds} and the untraced remainder (the
    request span's self time).

    ``latency`` maps each request to its duration as the worker timed it
    around the request span.  Raises ValueError if a self time is negative,
    that is if a span's children outlast it, or if a request's layer self
    times plus its untraced remainder miss its latency by more than
    ``GAP_SLACK_S`` + ``GAP_SLACK_SHARE`` of it.
    """
    child = Counter()
    for s in spans:
        if s[2] is not None:
            child[s[2]] += s[6] - s[5]
    out = {}
    for s in spans:
        req, sid, _parent, _name, layer, start, end = s
        entry = out.setdefault(req, {"layers": Counter(), "untraced": 0.0})
        own = (end - start) - child[sid]
        if own < -1e-6:
            raise ValueError(f"span {s} has negative self time {own}")
        if layer == REQUEST:
            entry["untraced"] += own
        else:
            entry["layers"][layer] += own
    for req, entry in out.items():
        total = sum(entry["layers"].values()) + entry["untraced"]
        if abs(latency[req] - total) > GAP_SLACK_S + GAP_SLACK_SHARE * latency[req]:
            raise ValueError(f"request {req}: self times sum to {total} s, "
                             f"its latency is {latency[req]} s")
    return out


def layer_metrics(result):
    """The per-layer metric values of one traced worker result."""
    spans = result["spans"]
    per_request = self_times(
        spans, {req_id: ms / 1e3 for req_id, ms, _code, _d in result["last_traced"]})
    n = max(1, len(per_request))
    counts = Counter(result["counts"])
    layer_total = Counter()
    untraced = 0.0
    for entry in per_request.values():
        layer_total.update(entry["layers"])
        untraced += entry["untraced"]
    # roots time is inclusive: outermost roots_with_multiplicity spans
    by_id = {s[1]: s for s in spans}
    roots_s = sum(s[6] - s[5] for s in spans if s[4] == "univar.roots"
                  and (s[2] is None or by_id[s[2]][4] != "univar.roots"))
    m = {}
    for layer in SELF_LAYERS:
        own = layer_total[layer]
        if layer == "univar":
            own += layer_total["univar.roots"]
        m[f"{layer}.self_ms"] = own * 1e3 / n
    m["untraced.self_ms"] = untraced * 1e3 / n
    m["univar.roots_ms"] = roots_s * 1e3 / n
    for key in ("paramfile.scalars", "omega.prefix_terms", "omega.closure_terms",
                "symfun.eta_terms", "mpoly.evaluations", "mpoly.terms_evaluated",
                "univar.series_terms", "univar.root_candidates",
                "univar.split_errors", "adm.checks", "adm.checks_failed",
                "semiadm.subsets_tried", "rationality.bm_terms",
                "rationality.classify_errors", "diagrams.enumerated",
                "diagrams.compositions", "diagrams.factorizations"):
        m[key] = counts[key]
    tried = counts["semiadm.subsets_tried"]
    m["semiadm.subset_pass_ratio"] = (counts["semiadm.subsets_passed"] / tried
                                      if tried else 0.0)
    caches = result["caches"]
    lookups = caches["hits"] + caches["misses"]
    m["symfun.cache_hit_ratio"] = caches["hits"] / lookups if lookups else 0.0
    m["symfun.cache_entries"] = caches["entries"]
    fstats = result["fields"]
    ops = fstats["ops"]
    m["fields.ops.qq"] = ops.get("qq", 0)
    m["fields.ops.gfp"] = ops.get("gfp", 0)
    m["fields.ops.gf2k"] = ops.get("gf2k", 0)
    m["fields.inversions"] = fstats["inversions"]
    m["fields.share"] = fstats["field_s"] / fstats["total_s"] if fstats["total_s"] else 0.0
    m["fields.wrapper_share"] = (fstats["wrapper_s"] / fstats["field_s"]
                                 if fstats["field_s"] else 0.0)
    m["trace.overhead_ratio"] = result["traced_ms"] / result["untraced_ms"]
    m["trace.requests"] = len(per_request)
    return m


# name -> (unit, better); the order of BENCHMARK.json's per_layer list
PER_LAYER = {}
for _layer in SELF_LAYERS:
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
PER_LAYER.update({
    "untraced.self_ms": ("ms", "lower"),
    "paramfile.scalars": ("count", "lower"),
    "omega.prefix_terms": ("count", "lower"),
    "omega.closure_terms": ("count", "lower"),
    "symfun.eta_terms": ("count", "lower"),
    "symfun.cache_hit_ratio": ("ratio", "higher"),
    "symfun.cache_entries": ("count", "lower"),
    "mpoly.evaluations": ("count", "lower"),
    "mpoly.terms_evaluated": ("count", "lower"),
    "univar.series_terms": ("count", "lower"),
    "univar.roots_ms": ("ms", "lower"),
    "univar.root_candidates": ("count", "lower"),
    "univar.split_errors": ("count", "lower"),
    "fields.ops.qq": ("count", "lower"),
    "fields.ops.gfp": ("count", "lower"),
    "fields.ops.gf2k": ("count", "lower"),
    "fields.inversions": ("count", "lower"),
    "fields.share": ("ratio", "lower"),
    "fields.wrapper_share": ("ratio", "lower"),
    "adm.checks": ("count", "lower"),
    "adm.checks_failed": ("count", "lower"),
    "semiadm.subsets_tried": ("count", "lower"),
    "semiadm.subset_pass_ratio": ("ratio", "higher"),
    "rationality.bm_terms": ("count", "lower"),
    "rationality.classify_errors": ("count", "lower"),
    "diagrams.enumerated": ("count", "lower"),
    "diagrams.compositions": ("count", "lower"),
    "diagrams.factorizations": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.requests": ("count", "higher"),
})

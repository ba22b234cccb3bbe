"""Benchmark worker: runs one workload's requests in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py MODE REQUESTS RESULT

MODE is one of

* ``cold``: import the CLI, run the first request once, report the time at
  which the import finished (the parent's clock and this one are the same
  monotonic clock) and the request's latency;
* ``warm``: one warm-up pass over the requests, with full outputs, then
  ``ready`` on stdout; then, for every ``pass`` line read from stdin, one
  timed pass, timing each request, after which the pass's time in seconds
  goes to stdout.  Any other line or the end of stdin ends the run, so with
  an empty stdin only the warm-up pass is run.  ``run.warm_run`` drives it;
* ``trace``: an untraced warm-up pass, then ``TRACE_PAIRS`` pairs of an
  untraced timed pass and a pass with spans around every layer's entry
  points, then a cProfile pass.  Spans and counters are those of the last
  traced pass; the symfun cache statistics are those of the warm-up pass,
  the only one that fills the caches.

bmwparam.cli is imported first so that ``cold`` measures the import alone.
"""

import time

import bmwparam.cli  # noqa: E402  (imported first: set-up ends here)

IMPORTED = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from bmwparam import diagrams, rationality  # noqa: E402
from bmwparam.fields import BinaryField  # noqa: E402
from checker import digest  # noqa: E402


TRACE_PAIRS = 2


def _checksum(items):
    # tuple-of-int hashes do not depend on PYTHONHASHSEED
    acc = 0
    for item in items:
        acc = (acc * 1000003 + hash(item)) & 0xFFFFFFFFFFFF
    return acc


def lib_enumerate(n):
    ds = list(diagrams.enumerate_diagrams(n))
    return {"count": len(ds), "checksum": _checksum(d.partner for d in ds)}


def lib_factorize(n, partners):
    out = []
    for partner in partners:
        fac = diagrams.factorize(diagrams.BrauerDiagram(n, partner))
        back, loops = fac.recompose()
        out.append([fac.f, fac.alpha, fac.pi, fac.beta, back.partner, loops])
    return {"factorizations": out}


def lib_compose(n, pairs):
    out = []
    for a, b in pairs:
        d, loops = diagrams.compose(diagrams.BrauerDiagram(n, a),
                                    diagrams.BrauerDiagram(n, b))
        out.append([d.partner, loops])
    return {"products": out}


def lib_ideal_spanning(n, bound):
    elements = list(diagrams.enumerate_ideal_spanning(n, bound))
    return {"count": len(elements),
            "checksum": _checksum((e.gamma.partner, e.a, e.b, e.c)
                                  for e in elements)}


def lib_char2_recover(k, prefix):
    field = BinaryField(k)
    rec = rationality.char2_recover(
        field, [field([x >> i & 1 for i in range(k)]) for x in prefix])
    return {"roots": [x.raw for x in rec.roots], "omega0": rec.omega0.raw,
            "zero_adjoined": rec.zero_adjoined,
            "admissible_roots": [x.raw for x in rec.admissible_roots]}


LIB_CALLS = {"enumerate": lib_enumerate, "factorize": lib_factorize,
             "compose": lib_compose, "ideal_spanning": lib_ideal_spanning,
             "char2_recover": lib_char2_recover}


def run_request(req):
    """(exit code or None if it raised, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if req["kind"] == "cli":
                code = bmwparam.cli.main(req["argv"])
            else:
                result = LIB_CALLS[req["call"]](**req["args"])
                print(json.dumps(result, sort_keys=True))
                code = 0
    except Exception:  # a raising request is a failed response, not a crash
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def full_pass(requests):
    """Run every request once; keep the whole response."""
    out = []
    for req in requests:
        t0 = time.perf_counter()
        code, stdout, stderr = run_request(req)
        ms = (time.perf_counter() - t0) * 1e3
        out.append({"id": req["id"], "ms": ms, "code": code,
                    "stdout": stdout, "stderr": stderr})
    return out


def timed_pass(requests, samples):
    """Run every request once; append (id, ms, code, digest) samples."""
    for req in requests:
        t0 = time.perf_counter()
        code, stdout, stderr = run_request(req)
        ms = (time.perf_counter() - t0) * 1e3
        samples.append([req["id"], ms, code, digest(code, stdout, stderr)])
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_cold(requests):
    return {"imported": IMPORTED, "first": full_pass(requests[:1])[0]}


def mode_warm(requests):
    warmup = full_pass(requests)
    # requests print into redirected buffers, so sys.stdout carries only this
    print("ready", flush=True)
    samples = []
    passes = []
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        t0 = time.perf_counter()
        timed_pass(requests, samples)
        passes.append(time.perf_counter() - t0)
        print(repr(passes[-1]), flush=True)
    return {"warmup": warmup, "samples": samples, "loop_s": sum(passes),
            "passes": len(passes), "peak_rss_mb": peak_rss_mb()}


def mode_trace(requests):
    import tracing

    before = tracing.symfun_cache_stats()
    warmup = full_pass(requests)
    after = tracing.symfun_cache_stats()
    caches = {key: after[key] - before[key] for key in after}
    # untraced and traced passes alternate, so that a slow spell of the
    # machine does not land on one side of the overhead ratio only
    untraced, traced = [], []
    tracer = tracing.Tracer()
    for _ in range(TRACE_PAIRS):
        timed_pass(requests, untraced)
        tracer.reset()
        with tracing.installed(tracer):
            for req in requests:
                tracer.request = req["id"]
                t0 = time.perf_counter()
                code, stdout, stderr = tracer.root(run_request, req)
                traced.append([req["id"], (time.perf_counter() - t0) * 1e3, code,
                               digest(code, stdout, stderr)])
    profiled = []
    field_stats = tracing.profile_fields(lambda: timed_pass(requests, profiled))
    return {"warmup": warmup, "samples": untraced + traced + profiled,
            "spans": tracer.spans, "counts": dict(tracer.counts),
            "caches": caches, "fields": field_stats,
            "last_traced": traced[-len(requests):],
            "untraced_ms": sum(s[1] for s in untraced),
            "traced_ms": sum(s[1] for s in traced)}


MODES = {"cold": mode_cold, "warm": mode_warm, "trace": mode_trace}


def main(argv):
    mode, req_path, out_path = argv
    with open(req_path, encoding="utf-8") as fh:
        requests = json.load(fh)
    result = MODES[mode](requests)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

"""bmwparam benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` by fresh worker interpreters (``perfbench/worker.py``).  Workloads
are defined in ``perfbench/workloads.py`` and listed in ``BENCHMARK.json``.

With ``--trace 0`` one fresh worker runs a warm-up pass over the
workload's requests and then whole passes in a closed loop, one request at
a time, for about S seconds of loop time (it stops at the pass boundary
nearest to S).  While it waits before its first timed pass and after each
one, the run takes ``COLD_PER_PASS`` cold samples one after another (a
fresh interpreter each: set-up time and the first request).  With
``--trace 1`` one fresh worker makes the traced run instead and the
per-layer metrics are reported.

Every response is checked against the generator's ground truth and, where
one is recorded in ``perfbench/digests.json`` for this workload and seed,
against the digest of the output the program printed when the benchmark
was defined.  A human-readable table goes to stdout, and the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402

COLD_PER_PASS = 4
COLD_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 170
# a run that lasts longer than --seconds plus this is stopped as failed
RUN_MARGIN_S = 130

# name -> unit; the order of BENCHMARK.json's end_to_end list
END_TO_END = {"setup_s": "s", "cold_req_ms": "ms", "req_p50_ms": "ms",
              "req_p90_ms": "ms", "docs_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    """A worker interpreter failed or timed out."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(mode, req_path, out_path, timeout=COLD_TIMEOUT_S):
    """Run one fresh worker to completion; return the parent's clock at
    spawn and the worker's result.  A ``warm`` worker gets an empty stdin,
    so it runs its warm-up pass only."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, req_path, out_path],
            cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        raise WorkerError(f"{mode} worker timed out after {timeout} s") from ex
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return started, json.load(fh)


def warm_run(req_path, workdir, seconds, between=lambda: None):
    """Drive one fresh ``warm`` worker: its warm-up pass, then whole timed
    passes until about SECONDS of loop time (at least one pass).  between()
    runs while the worker waits, before its first timed pass and after each
    one.  Returns the worker's result."""
    out_path = os.path.join(workdir, "warm.json")
    with open(os.path.join(workdir, "warm.err"), "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, WORKER, "warm", req_path, out_path],
                                cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            reply = proc.stdout.readline()  # "ready", then each pass's seconds
            loop_s = 0.0
            while reply:
                between()
                if reply != "ready\n":
                    took = float(reply)
                    loop_s += took
                    # stop at the pass boundary nearest to SECONDS
                    if loop_s + took / 2 >= seconds:
                        break
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                reply = proc.stdout.readline()
            proc.stdin.close()
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            err.seek(0)
            raise WorkerError(f"warm worker exited {code}:\n{err.read()[-3000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


class Verdicts:
    """Checks responses; counts attempted and failed requests."""

    def __init__(self, requests, recorded):
        self.requests = {r["id"]: r for r in requests}
        self.recorded = recorded
        self.good_digest = {}
        self.attempted = 0
        self.failures = []

    def _fail(self, req_id, reason):
        self.failures.append(f"request {req_id} ({self.requests[req_id]['label']}): {reason}")

    def full(self, resp):
        """A whole response: ground truth, then the recorded digest."""
        self.attempted += 1
        req = self.requests[resp["id"]]
        reason = checker.check(req, resp["code"], resp["stdout"], resp["stderr"])
        d = checker.digest(resp["code"], resp["stdout"], resp["stderr"])
        if reason is None and self.recorded is not None \
                and self.recorded[req["id"]] != d:
            reason = "output differs from the recorded output"
        if reason is None:
            self.good_digest[req["id"]] = d
        else:
            self._fail(req["id"], reason)

    def sample(self, req_id, code, d):
        """A timed response, known by its digest only."""
        self.attempted += 1
        if self.good_digest.get(req_id) != d:
            self._fail(req_id, f"exit {code}; output differs from the checked response")


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def trimmed_mean(vals, share=0.1):
    """Mean of vals without the lowest and the highest share of them."""
    vals = sorted(vals)
    k = int(len(vals) * share)
    return statistics.mean(vals[k:len(vals) - k])


def load_recorded(workload, seed, count):
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is not None and len(recorded) != count:
        raise ValueError(f"{DIGESTS}: {len(recorded)} digests for {count} requests")
    return recorded


def cold_sample(req_path, workdir, setups, colds, verdicts):
    out = os.path.join(workdir, f"cold{len(colds)}.json")
    started, res = spawn("cold", req_path, out)
    setups.append(res["imported"] - started)
    colds.append(res["first"]["ms"])
    verdicts.full(res["first"])


def timed_run(req_path, workdir, seconds, verdicts):
    # The machine's speed drifts over seconds to minutes.  Cold samples
    # taken between the warm passes span the whole run, as the warm samples
    # do.  Their latencies fall into a fast and a slow mode, in spells, and
    # a median jumps between the modes from run to run; a trimmed mean
    # moves with the share of each and leaves out the odd hiccup.
    setups, colds = [], []

    def between():
        for _ in range(COLD_PER_PASS):
            cold_sample(req_path, workdir, setups, colds, verdicts)
    res = warm_run(req_path, workdir, seconds, between)
    for resp in res["warmup"]:
        verdicts.full(resp)
    lat = []
    for req_id, ms, code, d in res["samples"]:
        verdicts.sample(req_id, code, d)
        lat.append(ms)
    lat.sort()
    p90 = nearest_rank(lat, 0.9)
    beyond = sum(1 for x in lat if x > p90)
    metrics = {"setup_s": statistics.median(setups),
               "cold_req_ms": trimmed_mean(colds),
               "req_p50_ms": nearest_rank(lat, 0.5),
               "req_p90_ms": p90,
               "docs_per_s": len(lat) / res["loop_s"],
               "peak_rss_mb": res["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters",
             "cold_req_ms": "first request, same interpreters, 10% trimmed mean",
             "req_p50_ms": f"{len(lat)} warm samples, {res['passes']} passes",
             "req_p90_ms": f"{beyond} samples beyond it",
             "docs_per_s": f"over {res['loop_s']:.2f} s of closed loop",
             "peak_rss_mb": "warm worker, ru_maxrss"}
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90", file=sys.stderr)
    return metrics, {name: (END_TO_END[name], notes[name]) for name in metrics}


def traced_run(req_path, workdir, workload, seed, verdicts):
    import tracing

    _, res = spawn("trace", req_path, os.path.join(workdir, "trace.json"),
                   timeout=TRACE_TIMEOUT_S)
    for resp in res["warmup"]:
        verdicts.full(resp)
    for req_id, _ms, code, d in res["samples"]:
        verdicts.sample(req_id, code, d)
    metrics = tracing.layer_metrics(res)
    spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write('# [request, span, parent, name, layer, start_s, end_s]\n')
        for span in res["spans"]:
            fh.write(json.dumps(span) + "\n")
    n = metrics["trace.requests"]
    notes = {name: (tracing.PER_LAYER[name][0],
                    "mean per request" if name.endswith("_ms")
                    else f"over the {n} traced requests")
             for name in metrics}
    for name in ("symfun.cache_hit_ratio", "symfun.cache_entries"):
        notes[name] = (notes[name][0], "over the warm-up pass")
    for name in notes:
        if name.startswith("fields."):
            notes[name] = (notes[name][0], "over the cProfile pass")
    notes["trace.overhead_ratio"] = ("ratio", "traced / untraced pass time")
    return metrics, notes


def on_alarm(_signum, _frame):
    raise WorkerError("the run took too long")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM or a run that overruns, unwind: subprocess.run and
    # warm_run kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(args.seconds) + RUN_MARGIN_S)
    try:
        return measure(args)
    finally:
        signal.alarm(0)


def measure(args):
    if not os.path.isfile(os.path.join(SRC, "bmwparam", "cli.py")):
        print(f"error: no bmwparam sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests = workloads.generate(args.workload, args.seed, workdir)
        req_path = os.path.join(workdir, "requests.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(requests, fh)
        verdicts = Verdicts(requests, load_recorded(args.workload, args.seed,
                                                    len(requests)))
        if args.trace:
            metrics, notes = traced_run(req_path, workdir, args.workload,
                                        args.seed, verdicts)
        else:
            metrics, notes = timed_run(req_path, workdir, args.seconds, verdicts)
    except (WorkerError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(verdicts.failures)
    print(f"workload {args.workload}, seed {args.seed}, {len(requests)} requests "
          f"per pass, {'traced' if args.trace else 'timed'}")
    for name, value in metrics.items():
        unit, note = notes[name]
        print(f"  {name:28s} {value:14.4f} {unit:6s} {note}")
    if not args.trace:
        print(f"  {'fail_frac':28s} {failed / verdicts.attempted:14.4f} {'ratio':6s} "
              f"{failed} of {verdicts.attempted} requests, warm and cold")
    for line in verdicts.failures[:20]:
        print(f"  FAIL {line}")
    result = {"correct": failed == 0, "attempted": verdicts.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": notes[name][0]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

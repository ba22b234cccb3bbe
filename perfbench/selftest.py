"""Self-test of the benchmark itself (not of bmwparam).

    python3 perfbench/selftest.py

For every workload it makes a short timed run and a traced run and asserts
that each printed metric name and unit matches BENCHMARK.json and that every
response was correct.  Then it corrupts one expected answer, and separately
one recorded output digest, and asserts that each makes the run report a
failure, so the checker is not vacuous.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0
SECONDS = "1"


def bench(argv):
    """run.main in-process; the parsed last line of its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"run.main({argv}) exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expected_metrics(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_names_and_units(result, wanted, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{what}: metrics {got} != BENCHMARK.json {wanted}"
    assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
    assert result["attempted"] >= 1


@contextlib.contextmanager
def patched_generate(corrupt):
    original = workloads.generate

    def generate(workload, seed, workdir):
        requests = original(workload, seed, workdir)
        corrupt(requests)
        return requests
    workloads.generate = generate
    try:
        yield
    finally:
        workloads.generate = original


def corrupt_answer(requests):
    req = next(r for r in requests if r["expect"]["check"] == "omega")
    req["expect"]["omega"][-1] = "corrupted"


@contextlib.contextmanager
def corrupted_digest():
    """A recorded digest table in which one digest is wrong."""
    original = run.load_recorded

    def load(name, seed, count):
        recorded = original(name, seed, count)
        assert recorded is not None, f"no digests recorded for {name} seed {seed}"
        return ["0" * 16] + recorded[1:]
    run.load_recorded = load
    try:
        yield
    finally:
        run.load_recorded = original


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = expected_metrics(spec, "end_to_end")
    layers = expected_metrics(spec, "per_layer")
    for workload in workloads.WORKLOADS:
        base = ["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS]
        check_names_and_units(bench(base + ["--trace", "0"]), e2e, f"{workload} timed")
        check_names_and_units(bench(base + ["--trace", "1"]), layers, f"{workload} traced")
        print(f"selftest: {workload}: metric names and units match, all correct")
    base = ["--workload", "series-long", "--seed", str(SEED), "--seconds", SECONDS,
            "--trace", "0"]
    with patched_generate(corrupt_answer):
        result = bench(base)
    assert result["failed"] > 0 and not result["correct"], result
    print(f"selftest: corrupted answer: {result['failed']} of "
          f"{result['attempted']} requests failed, as it should")
    with corrupted_digest():
        result = bench(base)
    assert result["failed"] > 0 and not result["correct"], result
    print(f"selftest: corrupted digest: {result['failed']} of "
          f"{result['attempted']} requests failed, as it should")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digest of every request of every workload.

    python3 perfbench/record_digests.py

Records seeds 0-20 of every workload.  Run at the commit whose outputs are
the reference.  Every response must
pass the ground-truth check before its digest is stored; the table goes to
perfbench/digests.json, which run.py then holds later commits to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(workload, seed):
    workdir = os.path.join(run.WORK, f"record-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests = workloads.generate(workload, seed, workdir)
        req_path = os.path.join(workdir, "requests.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(requests, fh)
        # a spawned warm worker runs only its warm-up pass, with whole responses
        _, res = run.spawn("warm", req_path, os.path.join(workdir, "warm.json"),
                           timeout=300)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests = []
    for req, resp in zip(requests, res["warmup"]):
        reason = checker.check(req, resp["code"], resp["stdout"], resp["stderr"])
        if reason is not None:
            raise SystemExit(f"{workload} seed {seed} request {req['id']} "
                             f"({req['label']}): {reason}")
        digests.append(checker.digest(resp["code"], resp["stdout"], resp["stderr"]))
    return digests


SEEDS = range(0, 21)


def main():
    table = {}
    os.makedirs(run.WORK, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {len(table[workload][str(seed)])} digests",
                  flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"  {json.dumps(w)}: {{\n" + ",\n".join(
                f"    {json.dumps(s)}: {json.dumps(d)}"
                for s, d in table[w].items())
            + "\n  }" for w in workloads.WORKLOADS))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

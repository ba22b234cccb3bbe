"""Per-request latencies of one workload, slowest last.

    python3 perfbench/slots.py WORKLOAD SEED

Three fresh workers each run a warm-up pass and one timed pass; each
request's label is printed with its timed latencies in ms.  Useful for
sizing a workload and for finding the requests that set its percentiles.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

PASSES = 3


def main(argv):
    workload, seed = argv[0], int(argv[1])
    os.makedirs(run.WORK, exist_ok=True)
    workdir = os.path.join(run.WORK, f"slots-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests = workloads.generate(workload, seed, workdir)
        req_path = os.path.join(workdir, "requests.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(requests, fh)
        per = {}
        for _ in range(PASSES):
            # seconds = 0: the warm worker runs exactly one timed pass
            res = run.warm_run(req_path, workdir, 0)
            for req_id, ms, _code, _digest in res["samples"]:
                per.setdefault(req_id, []).append(ms)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    labels = {r["id"]: r["label"] for r in requests}
    for req_id, times in sorted(per.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"{req_id:3d} {labels[req_id]:48s} "
              + " ".join(f"{t:9.1f}" for t in times))
    total = sum(statistics.median(t) for t in per.values())
    print(f"pass: {total:.0f} ms over {len(per)} requests (sum of medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

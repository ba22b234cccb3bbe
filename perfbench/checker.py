"""Response checker: compares one response with the generator's ground truth.

``check`` returns None for a correct response and a one-line reason
otherwise.  A response is wrong when the request raised, printed a
traceback, exited with another code than expected, or printed something
that disagrees with the expected answer.
"""

from __future__ import annotations

import hashlib
import json


def digest(code, stdout, stderr):
    """Short digest of a whole response, as recorded in digests.json."""
    text = f"{code}\n{stdout}\n{stderr}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_ok(node, expected):
    if node["passed"] != expected["passed"]:
        return f"passed={node['passed']}, expected {expected['passed']}"
    witness = node["witness"]
    if expected["witness"] is None:
        return None if witness is None else f"unexpected witness {witness}"
    if witness is None:
        return f"no witness, expected {expected['witness']}"
    got = [witness["check"], witness["index"]]
    return None if got == expected["witness"] else f"witness {got}, expected {expected['witness']}"


def _check_report(doc, exp):
    if doc["passed"] != exp["passed"]:
        return f"passed={doc['passed']}, expected {exp['passed']}"
    for path, expected in exp["reports"].items():
        why = _report_ok(doc[path] if path else doc, expected)
        if why:
            return f"{path or 'report'}: {why}"
    return None


def _check_classify(doc, exp):
    if not doc.get("classifiable"):
        return f"not classified: {doc.get('reason')}"
    for key in ("case", "alpha", "extension"):
        if doc[key] != exp[key]:
            return f"{key} {doc[key]!r}, expected {exp[key]!r}"
    if sorted(doc["roots"]) != exp["roots"]:
        return f"roots {doc['roots']}, expected {exp['roots']}"
    if sorted(doc["admissible_roots"]) != sorted(exp["roots"] + exp["extension"]):
        return f"admissible roots {doc['admissible_roots']}"
    if not doc["certificate"]["passed"]:
        return "certificate failed"
    return None


def _check_detect(doc, exp):
    if doc["status"] != exp["status"]:
        return f"status {doc['status']}, expected {exp['status']}"
    if exp["status"] == "semi-admissible":
        if doc["d"] != exp["d"] or doc["subsets_indices"] != exp["subsets_indices"]:
            return (f"d={doc['d']} subsets {doc['subsets_indices']}, expected "
                    f"d={exp['d']} subsets {exp['subsets_indices']}")
    return None


def _check_factorize(doc, exp):
    got = doc["factorizations"]
    if len(got) != len(exp["partners"]):
        return f"{len(got)} factorizations for {len(exp['diagrams'])} diagrams"
    for i, (entry, partner) in enumerate(zip(got, exp["partners"])):
        f, _alpha, _pi, _beta, back, loops = entry
        n = len(partner) // 2
        top_caps = sum(1 for v in range(n, 2 * n) if n <= partner[v] and v < partner[v])
        if back != partner or loops != 0 or f != top_caps:
            return f"diagram {i}: recomposed {back} with {loops} loops, f={f}"
    return None


def _equal(key):
    def check(doc, exp):
        return None if doc[key] == exp[key] else f"{key} differs from expected"
    return check


def _check_char2(doc, exp):
    if sorted(doc["roots"]) != exp["roots"]:
        return f"roots {doc['roots']}, expected {exp['roots']}"
    if doc["zero_adjoined"] != exp["zero_adjoined"]:
        return f"zero_adjoined {doc['zero_adjoined']}"
    return None


CHECKS = {"omega": _equal("omega"), "report": _check_report,
          "classify": _check_classify, "detect": _check_detect,
          "payload": lambda doc, exp: None if doc == exp["payload"] else "payload differs",
          "count": _equal("count"), "compose": _equal("products"),
          "factorize": _check_factorize, "char2": _check_char2}


def check(req, code, stdout, stderr):
    """None if the response matches the ground truth, else the reason."""
    exp = req["expect"]
    if code is None:
        return "raised: " + stderr.strip().splitlines()[-1] if stderr.strip() else "raised"
    if "Traceback" in stdout or "Traceback" in stderr:
        return "printed a traceback"
    if code != exp.get("exit", 0):
        return f"exit code {code}, expected {exp.get('exit', 0)}: {stderr.strip()[:200]}"
    try:
        doc = json.loads(stdout)
        return CHECKS[exp["check"]](doc, exp)
    except (ValueError, KeyError, TypeError) as ex:
        return f"unreadable response ({type(ex).__name__}: {ex})"

"""Command-line front-end.

Subcommands: gen-omega, check, detect-semi, classify, counts,
construct-example.  Exit codes: 0 = pass or result emitted, 1 = a check
failed (the report quotes the failing equation), 2 = input or precondition
error.  Output is deterministic for identical inputs; --json switches the
report to a machine-readable document.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import adm_degenerate, adm_nondegenerate, diagrams, rationality, semiadm
from .fields import QQ, FieldCoercionError, field_from_descriptor
from .omega import ParameterError
from .paramfile import (ParamFileError, dump_params, format_scalar,
                        load_paramfile, parse_scalar)

PASS, FAIL, USAGE = 0, 1, 2

# CPython prints no int over 4300 digits; (2n-1)!! passes that at n = 1424
COUNT_DIGITS_MAX, COUNTS_N_MAX, _COUNT_BITS_MAX = 4300, 1423, 14285


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _witness_dict(witness):
    if witness is None:
        return None
    return {"check": witness.check, "index": str(witness.index),
            "lhs": str(witness.lhs), "rhs": str(witness.rhs)}


def _report_payload(report):
    return {"checks": {name: ok for name, ok in report.checks},
            "passed": report.passed,
            "witness": _witness_dict(report.witness)}


def cmd_gen_omega(args):
    params = load_paramfile(args.file, default_order=args.bound)
    field = params.field
    coeffs = [format_scalar(field, c) for c in params.omega.prefix]
    lines = [f"omega[{a}] = {c}" for a, c in enumerate(coeffs)]
    _emit(args, lines, {"omega": coeffs})
    return PASS


def cmd_check(args):
    params = load_paramfile(args.file, default_order=args.bound)
    if params.kind == "degenerate":
        report = adm_degenerate.full_check(params)
        lines = [report.summary()]
        payload = _report_payload(report)
        ok = report.passed
    else:
        wy = adm_nondegenerate.wilcox_yu_check(params)
        rx = adm_nondegenerate.rui_xu_check(params, args.bound)
        ok = wy.passed and rx.passed
        lines = [f"WY: {wy.summary()}", f"RX: {rx.summary()}"]
        payload = {"wilcox_yu": _report_payload(wy),
                   "rui_xu": _report_payload(rx), "passed": ok}
    _emit(args, lines, payload)
    return PASS if ok else FAIL


def cmd_detect_semi(args):
    params = load_paramfile(args.file, default_order=args.bound)
    det = semiadm.detect(params, bound=args.bound)
    field = params.field
    payload = {"status": det.status}
    if det.status == semiadm.SEMI_ADMISSIBLE:
        subsets_vals = [[format_scalar(field, params.u[i]) for i in idxs]
                        for idxs in det.subsets]
        payload.update({
            "d": det.d,
            "subsets_indices": [[i + 1 for i in idxs] for idxs in det.subsets],
            "subsets_roots": subsets_vals,
            "p0_coeffs": [[format_scalar(field, c) for c in coeffs]
                          for coeffs in det.p0_coeffs],
        })
        lines = ["d={}, subset [{}]".format(
            det.d, ", ".join(str(params.u[i]) for i in idxs))
            for idxs in det.subsets]
    else:
        lines = [det.status]
    _emit(args, lines, payload)
    return PASS


def cmd_classify(args):
    params = load_paramfile(args.file, default_order=args.bound)
    try:
        result = rationality.affine_classify(params)
    except rationality.ClassifyError as ex:
        _emit(args, [f"not classifiable: {ex}"],
              {"classifiable": False, "reason": str(ex)})
        return FAIL
    field = params.field
    payload = {
        "classifiable": True,
        "case": result.case,
        "alpha": result.alpha,
        "roots": [format_scalar(field, x) for x in result.roots],
        "extension": [format_scalar(field, x) for x in result.extension],
        "admissible_roots": [format_scalar(field, x)
                             for x in result.admissible_roots],
        "certificate": _report_payload(result.certificate),
    }
    lines = [
        f"case {result.case} (alpha={result.alpha}, s={len(result.roots)})",
        f"roots: {payload['roots']}",
        f"extension: {payload['extension']}",
        f"admissible root list: {payload['admissible_roots']}",
        f"certificate: {result.certificate.summary()}",
    ]
    _emit(args, lines, payload)
    return PASS


def cmd_counts(args):
    n, r = args.n, args.r
    d = args.d if args.d is not None else r
    too_large = (f"counts for --n {n} --r {r} --d {d} pass "
                 f"{COUNT_DIGITS_MAX} digits")
    try:
        if n is None or r is None:
            raise ValueError("counts needs --n and --r")
        if not 0 <= n <= COUNTS_N_MAX:
            raise ValueError(f"--n must lie in 0..{COUNTS_N_MAX}, got {n}")
        # r^n >= 2^(n (bit length - 1)) divides a count; 2^14285 > 10^4300
        if r > 0 and n * (r.bit_length() - 1) >= _COUNT_BITS_MAX:
            raise ValueError(too_large)
        rank = semiadm.rank_formula(n, r, d)
    except ValueError as ex:
        print(str(ex), file=sys.stderr)
        return USAGE
    payload = {
        "n": n, "r": r, "d": d,
        "diagrams": diagrams.double_factorial_odd(n),
        "diagrams_with_horizontal": diagrams.b_prime(n),
        "regular_monomials": diagrams.count_regular(n, r),
        "ideal_spanning": diagrams.count_ideal_spanning(n, d),
        "rank": rank,
    }
    if max(payload.values()) >= 10 ** COUNT_DIGITS_MAX:
        print(too_large, file=sys.stderr)
        return USAGE
    lines = [
        f"(2n-1)!! diagrams: {payload['diagrams']}",
        f"with a horizontal strand b'(n): {payload['diagrams_with_horizontal']}",
        f"regular monomials r^n (2n-1)!!: {payload['regular_monomials']}",
        f"ideal spanning d^n b'(n): {payload['ideal_spanning']}",
        f"rank d^n b'(n) + r^n n!: {rank}",
    ]
    _emit(args, lines, payload)
    return PASS


def _parse_root_list(text, field, what):
    return [parse_scalar(field, part.strip(), f"{what}[{i}]")
            for i, part in enumerate(text.split(","))] if text else []


def cmd_construct_example(args):
    field = QQ
    if args.p is not None:
        field = field_from_descriptor({"type": "prime", "p": args.p})
    if args.base:
        base = _parse_root_list(args.base, field, "base")
        extra = _parse_root_list(args.extra, field, "extra")
        d = args.d if args.d is not None else len(base)
    else:
        if args.d is None or args.r is None:
            print("construct-example needs --base/--extra or --d/--r with --seed",
                  file=sys.stderr)
            return USAGE
        d, r = args.d, args.r
        if not 0 < d < r:
            print(f"need 0 < d < r, got d={d}, r={r}", file=sys.stderr)
            return USAGE
        rng = random.Random(args.seed)
        roots = _generic_roots(field, rng, r)
        base, extra = roots[:d], roots[d:]
    params = semiadm.construct_example(field, d, base, extra,
                                       order=args.bound)
    doc = dump_params(params, d=d)
    print(json.dumps(doc, sort_keys=True))
    return PASS


_ROOT_DRAW_MAX = 50


def _generic_roots(field, rng, count):
    # pairwise x != +-y, none in {0, +-1/2}: the guarantees of the
    # semi-admissible construction, so each class {x, -x} of the draws
    # 1.._ROOT_DRAW_MAX gives at most one root
    half = field(Fraction(1, 2))
    chosen = []
    banned = {field.zero, half, -half}
    draws = map(field, range(1, _ROOT_DRAW_MAX + 1))
    classes = {frozenset((x, -x)) for x in draws if x not in banned}
    if count > len(classes):
        raise ValueError(
            f"--r {count} needs {count} roots pairwise x != +-y, outside "
            f"{{0, +-1/2}}; draws from 1..{_ROOT_DRAW_MAX} in {field} give "
            f"only {len(classes)}")
    while len(chosen) < count:
        x = field(rng.randint(1, _ROOT_DRAW_MAX))
        if x in banned or any(x == y or x == -y for y in chosen):
            continue
        chosen.append(x)
    return chosen


def non_negative_int(text):
    """argparse type of --bound: an int >= 0 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmwparam",
        description="Exact admissibility, semi-admissibility, and rationality "
                    "computations for cyclotomic BMW parameter data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_required=True):
        if file_required:
            p.add_argument("--file", required=True, help="parameter JSON file")
        p.add_argument("--bound", type=non_negative_int, default=20,
                       help="truncation/recursion bound (default 20)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")

    for name, func, text in (
            ("gen-omega", cmd_gen_omega, "emit the omega prefix"),
            ("check", cmd_check, "run the admissibility criteria"),
            ("detect-semi", cmd_detect_semi, "three-way regime detection"),
            ("classify", cmd_classify, "affine rationality classification")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("counts", help="diagram and rank counts")
    common(p, file_required=False)
    p.add_argument("--n", type=int, help="strand count")
    p.add_argument("--r", type=int, help="cyclotomic degree")
    p.add_argument("--d", type=int, help="semi-admissible degree (default r)")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("construct-example",
                       help="emit a guaranteed d-semi-admissible parameter file")
    p.add_argument("--d", type=int, help="admissible sub-degree")
    p.add_argument("--r", type=int, help="total root count (with --seed)")
    p.add_argument("--base", help="comma-separated base roots")
    p.add_argument("--extra", help="comma-separated extra roots")
    p.add_argument("--p", type=int, help="odd prime field instead of Q")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generic root sampling")
    p.add_argument("--bound", type=non_negative_int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct_example)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return ex.code if ex.code is not None else USAGE
    try:
        return args.func(args)
    except (ParamFileError, ParameterError, FieldCoercionError,
            semiadm.ConstraintError, FileNotFoundError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # stdout's reader is gone: send the interpreter's final flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

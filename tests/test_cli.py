import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from bmwparam import symfun
from bmwparam.cli import main
from bmwparam.paramfile import (ParamFileError, dump_params, format_scalar,
                                load_paramfile, parse_paramfile, parse_scalar)
from bmwparam.fields import QQ, BinaryField, FieldElement, PrimeField
from bmwparam.omega import degenerate_params


def write(tmp_path, doc, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOOD_NONDEG = {
    "kind": "nondegenerate",
    "field": {"type": "rational"},
    "u": ["3"],
    "rho": "3",
    "q": "2",
    "omega": {"from_u": True, "order": 10},
}


def test_check_pass(tmp_path, capsys):
    path = write(tmp_path, GOOD_NONDEG)
    code, out, _ = run(capsys, "check", "--file", path)
    assert code == 0
    assert "WY:" in out and "RX:" in out and "pass" in out


def test_check_fail_with_witness(tmp_path, capsys):
    doc = dict(GOOD_NONDEG)
    doc["omega"] = {"prefix": ["25/9", "25/3", "26", "75", "225"]}
    path = write(tmp_path, doc)
    code, out, _ = run(capsys, "check", "--file", path)
    assert code == 1
    assert "FAIL" in out
    assert "lhs" in out and "rhs" in out  # witness equation quoted


def test_check_json_deterministic(tmp_path, capsys):
    path = write(tmp_path, GOOD_NONDEG)
    code1, out1, _ = run(capsys, "check", "--file", path, "--json")
    code2, out2, _ = run(capsys, "check", "--file", path, "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True


def test_check_degenerate(tmp_path, capsys):
    doc = {
        "kind": "degenerate",
        "field": {"type": "prime", "p": 5},
        "u": [2, 3],
        "omega": {"from_u": True, "order": 12},
    }
    code, out, _ = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 0
    assert "u-admissible: pass" in out


def test_gen_omega(tmp_path, capsys):
    path = write(tmp_path, GOOD_NONDEG)
    code, out, _ = run(capsys, "gen-omega", "--file", path)
    assert code == 0
    assert out.splitlines()[0] == "omega[0] = 25/9"
    code, out, _ = run(capsys, "gen-omega", "--file", path, "--json")
    assert json.loads(out)["omega"][:3] == ["25/9", "25/3", "25"]


def test_counts_rank_example(capsys):
    code, out, _ = run(capsys, "counts", "--n", "2", "--r", "3", "--d", "1")
    assert code == 0
    assert "rank d^n b'(n) + r^n n!: 19" in out
    code, out, _ = run(capsys, "counts", "--n", "2", "--r", "3", "--d", "1", "--json")
    assert json.loads(out)["rank"] == 19


def test_counts_missing_args(capsys):
    code, _, err = run(capsys, "counts", "--n", "2")
    assert code == 2


def test_construct_then_detect(tmp_path, capsys):
    code, out, _ = run(capsys, "construct-example", "--d", "1",
                       "--base", "2", "--extra", "3")
    assert code == 0
    doc = json.loads(out)
    path = write(tmp_path, doc, "example.json")
    code, out, _ = run(capsys, "detect-semi", "--file", path)
    assert code == 0
    assert out.strip() == "d=1, subset [2]"


def test_construct_seeded_generic(tmp_path, capsys):
    code1, out1, _ = run(capsys, "construct-example", "--d", "2", "--r", "4",
                         "--seed", "11")
    code2, out2, _ = run(capsys, "construct-example", "--d", "2", "--r", "4",
                         "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["u"] == ["29", "36", "50", "30"]  # pinned draws
    path = write(tmp_path, json.loads(out1), "gen.json")
    code, out, _ = run(capsys, "detect-semi", "--file", path, "--json")
    payload = json.loads(out)
    assert payload["status"] == "semi-admissible"
    assert payload["d"] == 2
    assert payload["subsets_indices"] == [[1, 2]]


@pytest.mark.parametrize("argv", [
    ["--d", "2", "--r", "51", "--seed", "1"],    # QQ: 50 draws, 50 classes
    ["--p", "5", "--d", "1", "--r", "3"],        # GF(5): only {1, 4} left
    ["--p", "3", "--d", "1", "--r", "2"],        # GF(3): 0, +-1/2 fill it
])
def test_construct_infeasible_r_exits_2(argv):
    # a separate interpreter, so that a search that never ends fails the
    # test by its timeout instead of stalling the suite
    src = os.path.dirname(os.path.dirname(symfun.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bmwparam.cli", "construct-example", *argv],
        capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 2
    assert "--r" in proc.stderr and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_construct_rejects_bad_roots(capsys):
    code, _, err = run(capsys, "construct-example", "--d", "1",
                       "--base", "2", "--extra", "-2")
    assert code == 2
    assert "u_1" in err


def test_detect_admissible_and_collapse(tmp_path, capsys):
    doc = {
        "kind": "degenerate",
        "field": {"type": "rational"},
        "u": ["2", "3"],
        "omega": {"from_u": True, "order": 12},
    }
    code, out, _ = run(capsys, "detect-semi", "--file", write(tmp_path, doc))
    assert code == 0 and out.strip() == "admissible"
    doc["omega"] = {"prefix": ["0"] * 12}
    code, out, _ = run(capsys, "detect-semi", "--file", write(tmp_path, doc))
    assert code == 0 and out.strip() == "hecke-collapse"


def test_classify_command(tmp_path, capsys):
    doc = dict(GOOD_NONDEG, u=["2", "3", "5", "-1", "1"], rho="-30",
               omega={"from_u": True, "order": 18})
    code, out, _ = run(capsys, "classify", "--file", write(tmp_path, doc), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == 2
    assert payload["roots"] == ["2", "3", "5"]
    assert payload["extension"] == ["-1", "1"]
    assert payload["certificate"]["passed"] is True


def test_classify_failure_exit_code(tmp_path, capsys):
    # closed sequence, valid ground-ring relation, but rho on the other root
    # of the relation: a classification verdict failure, exit 1
    doc = dict(GOOD_NONDEG, rho="-1/3")
    doc["omega"] = {"prefix": ["25/9", "25/3", "25", "75", "225"],
                    "closure": ["-3"]}
    code, out, _ = run(capsys, "classify", "--file", write(tmp_path, doc))
    assert code == 1
    assert "not classifiable" in out


def test_classify_precondition_exit_code(tmp_path, capsys):
    doc = dict(GOOD_NONDEG)
    doc["omega"] = {"prefix": ["25/9", "25/3", "25", "75", "225"]}  # no closure
    code, _, err = run(capsys, "classify", "--file", write(tmp_path, doc))
    assert code == 2
    assert "closure" in err


def test_parse_error_positions(tmp_path, capsys):
    doc = dict(GOOD_NONDEG, u=["3", 0.5])
    code, _, err = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 2
    assert "u[1]" in err


def test_float_rejected_everywhere(tmp_path):
    doc = dict(GOOD_NONDEG, rho=3.0)
    with pytest.raises(ParamFileError, match="rho"):
        parse_paramfile(doc)


def test_unknown_flag_exits_2(capsys):
    assert main(["check", "--bogus"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["check", "--file", "/nonexistent/params.json"]) == 2


def test_binary_field_document(tmp_path, capsys):
    doc = {
        "kind": "degenerate",
        "field": {"type": "binary", "k": 2},
        "u": [[0, 1], [1]],
        "omega": {"from_u": True, "order": 10},
    }
    code, out, _ = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 0


def test_paramfile_round_trip(tmp_path):
    ps = degenerate_params(QQ, [2, 3], order=8)
    doc = dump_params(ps, d=1)
    params = parse_paramfile(doc)
    assert params.omega.prefix == ps.omega.prefix
    assert params.u == ps.u
    assert doc["d"] == 1


def test_prefix_document_with_closure(tmp_path, capsys):
    doc = {
        "kind": "degenerate",
        "field": {"type": "rational"},
        "u": ["2"],
        "omega": {"prefix": ["5", "10", "20", "40"], "closure": ["-2"]},
    }
    code, out, _ = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 0
    # inconsistent closure is a parse-level error (exit 2)
    doc["omega"]["closure"] = ["-3"]
    code, _, err = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 2


def test_long_char2_series_needs_no_symbolic_cap(tmp_path, capsys):
    # GF(2^8), r = 6, order 200: far past the a <= 24 of the symbolic builders
    u = [[1, 0, 1], [0, 1, 1, 0, 0, 0, 0, 1], [1, 1], [0, 0, 0, 0, 0, 0, 0, 1],
         [1, 0, 0, 1], [0, 1]]
    doc = {"kind": "degenerate", "field": {"type": "binary", "k": 8}, "u": u,
           "omega": {"from_u": True, "order": 200}}
    path = write(tmp_path, doc)
    code, out, _ = run(capsys, "gen-omega", "--file", path, "--json")
    assert code == 0
    prefix = json.loads(out)["omega"]
    assert len(prefix) == 201
    code, out, _ = run(capsys, "check", "--file", path, "--json")
    assert code == 0 and json.loads(out)["passed"] is True
    # the printed prefix agrees with its closure (a violated closure exits 2)
    params = load_paramfile(path)
    closure = symfun.char_poly_coeffs(list(params.u))[:len(u)]
    doc["omega"] = {"prefix": prefix,
                    "closure": [format_scalar(BinaryField(8), c) for c in closure]}
    code, out, _ = run(capsys, "check", "--file", write(tmp_path, doc, "prefix.json"))
    assert code == 0
    assert "recursion: pass, relations: pass, u-admissible: pass" in out


@pytest.mark.parametrize("roots", [["2", "3", "5"], ["2", "3"]])
def test_detect_semi_empty_prefix_exits_2(tmp_path, capsys, roots):
    doc = {"kind": "degenerate", "field": {"type": "rational"}, "u": roots,
           "omega": {"prefix": []}}
    code, out, err = run(capsys, "detect-semi", "--file", write(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "insufficient prefix" in err and "Traceback" not in err


@pytest.mark.parametrize("command, roots", [
    ("detect-semi", ["2"]), ("detect-semi", ["2", "3"]),
    ("detect-semi", ["2", "3", "5"]), ("check", ["2", "3"]),
    ("gen-omega", ["2", "3"])])
def test_negative_bound_exits_2(tmp_path, capsys, command, roots):
    doc = {"kind": "degenerate", "field": {"type": "rational"}, "u": roots,
           "omega": {"from_u": True, "order": 10}}
    code, out, err = run(capsys, command, "--file", write(tmp_path, doc),
                         "--bound", "-1")
    assert code == 2
    assert out == ""
    assert "--bound" in err and "Traceback" not in err


def test_prime_field_near_2_to_the_64(tmp_path, capsys):
    doc = {"kind": "degenerate", "field": {"type": "prime",
                                           "p": 1000000000000000003},
           "u": ["2", "3", "5"], "omega": {"from_u": True, "order": 20}}
    started = time.monotonic()
    code, out, _ = run(capsys, "gen-omega", "--file", write(tmp_path, doc))
    assert time.monotonic() - started < 1
    assert code == 0 and out.startswith("omega[0] = ")
    doc["field"]["p"] = 2**64 + 13          # prime, but past the limit
    code, _, err = run(capsys, "gen-omega", "--file", write(tmp_path, doc))
    assert code == 2
    assert err.startswith("error: field: ") and "Traceback" not in err


def test_broken_pipe_exits_2(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone away; its descriptor is a file
        of the test's own, so pointing it at devnull is harmless."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    path = write(tmp_path, GOOD_NONDEG)
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr("sys.stdout", ClosedPipe(target.fileno()))
        assert main(["gen-omega", "--file", path]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


BASE_DEG = {"kind": "degenerate", "field": {"type": "rational"}, "u": ["2"],
            "omega": {"from_u": True, "order": 6}}
BINARY = {"type": "binary", "k": 2}


@pytest.mark.parametrize("override, path", [
    ({"field": {"type": "prime", "p": 7.9}, "u": [2]}, "field.p"),
    ({"field": {"type": "binary", "k": 2.5}, "u": [[1]]}, "field.k"),
    ({"field": {"type": "binary", "k": [1]}, "u": [[1]]}, "field.k"),
    ({"field": {"type": "prime", "p": True}, "u": [1]}, "field.p"),
    ({"omega": {"prefix": 5}}, "omega.prefix"),
    ({"omega": {"prefix": ["5"], "closure": 3}}, "omega.closure"),
    ({"field": BINARY, "u": [[0, 1.0]]}, "u[0]"),
    ({"field": BINARY, "u": [[1], [True, 1]]}, "u[1]"),
    ({"field": BINARY, "omega": {"prefix": [[1], [1.0]]}, "u": [[1]]},
     "omega.prefix[1]"),
    ({"omega": {"from_u": True, "order": True}}, "omega.order"),
    ({"n": True}, "n"),
    ({"d": True}, "d"),
    # Fraction() would build a 30-million-digit int from this 12-byte scalar
    ({"u": ["1e30000000"]}, "u[0]"),
    ({"u": ["1.5"]}, "u[0]"),
    # binary-field strings are ints under the int rules, not read mod 2
    ({"field": BINARY, "u": ["2", [0, 1]]}, "u[0]"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_document_exits_2_with_path(tmp_path, capsys, override, path):
    doc = dict(BASE_DEG, **override)
    code, _, err = run(capsys, "check", "--file", write(tmp_path, doc))
    assert code == 2
    assert err.startswith(f"error: {path}:"), err


# ------------------------------------------------------------ scalars
SCALAR_FIELDS = [QQ, PrimeField(7), PrimeField(10007), BinaryField(4)]
RATIONAL_STRINGS = st.from_regex(r"[+-]?[0-9]{1,6}(/[1-9][0-9]{0,3})?",
                                 fullmatch=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | RATIONAL_STRINGS
    | st.sampled_from(["1.5", "1e3", "1e30000000", " 3", "1_0", "3/0", "2",
                       "0", "1", "-1", "0x1f", "\u0663"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def documented(field):
    """The scalar forms the schema documents for a field."""
    if field == QQ:
        return st.integers() | RATIONAL_STRINGS.filter(
            lambda s: not s.endswith("/0"))
    if isinstance(field, BinaryField):
        return st.sampled_from([0, 1, "0", "1"]) | st.lists(
            st.integers(0, 1), max_size=field.k)
    return st.integers() | st.integers().map(str)


@given(st.sampled_from(SCALAR_FIELDS), JSON_VALUES)
def test_parse_scalar_returns_an_element_or_refuses_with_the_path(field, value):
    try:
        x = parse_scalar(field, value, "u[3]")
    except ParamFileError as ex:
        assert ex.path == "u[3]"
        assert str(ex).startswith("u[3]: ")
    else:
        assert isinstance(x, FieldElement) and x.field == field


@given(st.sampled_from(SCALAR_FIELDS), st.data())
def test_documented_scalars_round_trip(field, data):
    x = parse_scalar(field, data.draw(documented(field)), "u[0]")
    text = format_scalar(field, x)
    assert parse_scalar(field, text, "u[0]") == x
    assert format_scalar(field, parse_scalar(field, text, "u[0]")) == text


def test_construct_refuses_non_rational_base(capsys):
    code, out, err = run(capsys, "construct-example", "--base", "2,1.5",
                         "--extra", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: base[1]:"), err

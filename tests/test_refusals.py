"""Inputs refused with exit 2, in words that name the offending flag or
JSON path."""

import pytest

from bmwparam.cli import COUNT_DIGITS_MAX, COUNTS_N_MAX, main
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.paramfile import ParamFileError, parse_scalar


@pytest.mark.parametrize("field, value, message", [
    (QQ, [1.5], "u[0]: cannot interpret [1.5] as a rational"),
    (PrimeField(7), [True], "u[0]: cannot interpret [True] in GF(7)"),
    (BinaryField(4), [1.5],
     "u[0]: coefficients must be the ints 0 and 1, got [1.5]"),
])
def test_parse_scalar_refuses_a_list_in_the_fields_own_words(field, value,
                                                             message):
    with pytest.raises(ParamFileError) as info:
        parse_scalar(field, value, "u[0]")
    assert str(info.value) == message


@pytest.mark.parametrize("n", [-1, COUNTS_N_MAX + 1, 3000000])
def test_counts_refuses_n_out_of_range(capsys, n):
    assert main(["counts", "--n", str(n), "--r", "3", "--d", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"--n must lie in 0..{COUNTS_N_MAX}, got {n}\n"


@pytest.mark.parametrize("argv", [
    # 3^1400 (2799)!! passes the limit, though each factor is below it
    ["--n", "1400", "--r", "3"],
    # r^n alone passes the limit, refused before it is computed
    ["--n", str(COUNTS_N_MAX), "--r", "9" * 4000, "--d", "1"],
])
def test_counts_refuses_a_count_past_the_digit_limit(capsys, argv):
    assert main(["counts", *argv, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("counts for --n ")
    assert err.endswith(f" pass {COUNT_DIGITS_MAX} digits\n")


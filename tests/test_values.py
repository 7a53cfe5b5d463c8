"""Runtime value semantics: Java-style integer arithmetic, operators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import parse_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.values import (
    ArrayValue,
    RuntimeErr,
    binary_op,
    call_builtin,
    default_value,
    java_int_div,
    java_int_rem,
    scalar_repr,
    unary_op,
)
from repro.lang import ast


def test_java_division_truncates_toward_zero():
    assert java_int_div(7, 2) == 3
    assert java_int_div(-7, 2) == -3
    assert java_int_div(7, -2) == -3
    assert java_int_div(-7, -2) == 3


def test_java_remainder_sign_follows_dividend():
    assert java_int_rem(7, 3) == 1
    assert java_int_rem(-7, 3) == -1
    assert java_int_rem(7, -3) == 1


@given(st.integers(-1000, 1000), st.integers(-100, 100).filter(lambda v: v != 0))
def test_div_rem_identity(a, b):
    assert java_int_div(a, b) * b + java_int_rem(a, b) == a


@given(st.integers(-1000, 1000), st.integers(-100, 100).filter(lambda v: v != 0))
def test_rem_magnitude_bound(a, b):
    assert abs(java_int_rem(a, b)) < abs(b)


def test_division_by_zero():
    with pytest.raises(RuntimeErr):
        binary_op("/", 1, 0)
    with pytest.raises(RuntimeErr):
        binary_op("/", 1.0, 0.0)
    with pytest.raises(RuntimeErr):
        binary_op("%", 1, 0)


def test_int_div_vs_float_div():
    assert binary_op("/", 7, 2) == 3
    assert binary_op("/", 7.0, 2) == 3.5


def test_comparisons():
    assert binary_op("<", 1, 2) is True
    assert binary_op(">=", 2, 2) is True
    assert binary_op("==", 2, 2.0) is True
    assert binary_op("!=", True, False) is True


def test_comparison_rejects_non_numbers():
    with pytest.raises(RuntimeErr):
        binary_op("<", True, 1)


def test_mod_rejects_floats():
    with pytest.raises(RuntimeErr):
        binary_op("%", 1.5, 2.0)


def test_unary():
    assert unary_op("-", 5) == -5
    assert unary_op("!", True) is False
    with pytest.raises(RuntimeErr):
        unary_op("!", 1)


def test_array_bounds_checked():
    arr = ArrayValue.of_size(ast.IntType(), 3)
    arr.set(2, 9)
    assert arr.get(2) == 9
    with pytest.raises(RuntimeErr):
        arr.get(3)
    with pytest.raises(RuntimeErr):
        arr.set(-1, 0)


def test_array_index_must_be_int():
    arr = ArrayValue.of_size(ast.IntType(), 3)
    with pytest.raises(RuntimeErr):
        arr.get(1.0)
    with pytest.raises(RuntimeErr):
        arr.get(True)


def test_negative_array_size():
    with pytest.raises(RuntimeErr):
        ArrayValue.of_size(ast.IntType(), -1)


def test_default_values():
    assert default_value(ast.IntType()) == 0
    assert default_value(ast.FloatType()) == 0.0
    assert default_value(ast.BoolType()) is False
    assert default_value(ast.ArrayType(ast.IntType())) is None


def test_object_identity():
    interp = Interpreter(parse_program("func void main() { }"))
    a = interp.new_object("C", {})
    c = interp.new_object("C", {})
    assert (a.oid, c.oid) == (1, 2)
    # numbering is per interpreter: a second run starts from 1 again
    fresh = Interpreter(parse_program("func void main() { }"))
    assert fresh.new_object("C", {}).oid == 1


def test_builtins():
    assert call_builtin("sqrt", [9]) == 3.0
    assert call_builtin("abs", [-4]) == 4
    assert call_builtin("min", [2, 5]) == 2
    assert call_builtin("max", [2, 5]) == 5
    assert call_builtin("floor", [2.9]) == 2
    assert call_builtin("pow", [2, 10]) == 1024.0
    assert call_builtin("len", [ArrayValue([1, 2, 3])]) == 3


def test_builtin_domain_errors():
    with pytest.raises(RuntimeErr):
        call_builtin("sqrt", [-1])
    with pytest.raises(RuntimeErr):
        call_builtin("log", [0])
    with pytest.raises(RuntimeErr):
        call_builtin("len", [3])
    # non-finite floats: a Python ValueError/OverflowError must not escape
    for name, arg in [("floor", float("nan")), ("floor", float("inf")),
                      ("sin", float("inf"))]:
        with pytest.raises(RuntimeErr):
            call_builtin(name, [arg])


def test_scalar_repr_canonical():
    assert scalar_repr(True) == "true"
    assert scalar_repr(False) == "false"
    assert scalar_repr(42) == "42"
    assert scalar_repr(0.5) == "0.5"
    assert scalar_repr(1e20) == "1e+20"

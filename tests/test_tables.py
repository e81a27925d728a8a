"""CSV text of result tables: a float64 array is held to the per-cell writer's bytes
and to its report of the first non-finite value in row order."""

import math

import numpy as np
import pytest

from gamescale.tables import OutputError, csv_text
from oracles import per_cell_csv

# signed zeros, the smallest subnormal, a tiny normal, integral floats up to and past
# 2**53 (1e22 in exponent form), and values that need all 17 digits
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 2.0**53, 1e16 + 2, 12.0, -3.0, 1e22, 0.1, 1 / 3, 1.7976931348623157e308
]


def float_tables():
    rng = np.random.default_rng(21)
    wide = rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)
    values = np.concatenate([EDGE_FLOATS, wide, np.round(wide[:40])])
    table = values[: values.size // 4 * 4].reshape(-1, 4)
    return {
        "edge_values": table,
        "strided_rows": table[::3],
        "fortran_order": np.asfortranarray(table),
        "one_column": values[:, np.newaxis],
        "no_rows": np.empty((0, 4)),
    }


@pytest.mark.parametrize("case", sorted(float_tables()))
def test_float_array_table_has_the_per_cell_bytes(case):
    table = float_tables()[case]
    header = ["a", "b", "c", "d"][: table.shape[1]]
    assert csv_text("f.csv", header, table) == per_cell_csv("f.csv", header, table)


MIXED = {
    "str_bool_numpy_int": [
        ("small", np.int64(3), True, 0.5, "a,b"), ("large", np.int32(-2), np.bool_(False), -0.0, 'q"u')
    ],
    "int_array": np.arange(6).reshape(3, 2),
    "float32_array": np.array([[0.1, -0.0], [2.5, 1e-30]], dtype=np.float32),
    "bools_and_floats": [(True, 1.0), (False, 2.0**53)],
}


@pytest.mark.parametrize("case", sorted(MIXED))
def test_mixed_table_has_the_per_cell_bytes(case):
    rows = MIXED[case]
    header = ["model", "i", "flag", "v", "s"][: len(rows[0])]
    assert csv_text("m.csv", header, rows) == per_cell_csv("m.csv", header, rows)


def test_mixed_table_keeps_csv_quoting():
    text = csv_text("m.csv", ["model", "i", "flag", "v", "s"], MIXED["str_bool_numpy_int"])
    assert text == 'model,i,flag,v,s\r\nsmall,3,1,0.5,"a,b"\r\nlarge,-2,0,-0,"q""u"\r\n'


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "tuples"])
def test_first_non_finite_value_in_row_order_is_reported(as_array):
    # the nan is in a later column of an earlier row than the inf
    rows = np.zeros((50, 3))
    rows[20, 2] = math.nan
    rows[21, 0] = math.inf
    table = rows if as_array else [tuple(r) for r in rows.tolist()]
    message = "t.csv, column c: non-finite result value nan"
    with pytest.raises(OutputError) as raised:
        csv_text("t.csv", ["a", "b", "c"], table)
    assert str(raised.value) == message
    with pytest.raises(OutputError, match=message):
        per_cell_csv("t.csv", ["a", "b", "c"], table)


def test_non_finite_value_mid_column_names_its_column():
    rows = np.linspace(0.0, 1.0, 300).reshape(100, 3)
    rows[57, 1] = -math.inf
    with pytest.raises(OutputError, match=r"^t\.csv, column b: non-finite result value -inf$"):
        csv_text("t.csv", ["a", "b", "c"], rows)


def test_array_of_the_wrong_width_raises_value_error():
    with pytest.raises(ValueError):
        csv_text("t.csv", ["a", "b"], np.zeros((2, 3)))

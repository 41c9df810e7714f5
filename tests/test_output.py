import numpy as np
import pytest

from qrotor.output import _fmt_cell, write_csv

ROWS = {
    "float": [(0.0, -1.5e-300, 2.5), (1e300, float("inf"), -0.125)],
    "int": [(0, 1, 2.5), (3, 4, -0.125)],
    "bool": [(True, 1, 2.5), (False, 0, 1.0)],
    "numpy int": [(np.int64(7), np.int32(-3), 2.5), (np.int64(0), np.int32(9), 1.0)],
    "negative int": [(-1, -20, -3.0), (-300, 0, 4.0)],
    "large int": [(10**30, -(10**25), 1e300), (2**63, 2**64 + 1, -1e-300)],
    "mixed": [(1, True, "a"), (np.int64(2), 3, 4.0), (5, 6.0)],
    "ragged float and int": [(1, 2.0), (3.0, 4, 5.0), (6.5,)],
    # as many cells as a 3 x 2 table of floats, in rows of 2, 1 and 3
    "ragged float": [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)],
    "longer rows after the first": [(1.0,), (2.0, 3.0), (4.0, 5.0)],
    "column types swap": [(1, 2.0), (3.0, 4)],
    "one float column turns int": [(0.5, 1.0), (1.5, 2.0), (2.5, 3)],
    "int and float table": [(m, n, 0.25 * m, -1e-3 * n) for m in range(7) for n in range(3)],
    "float curve": [(0.01 * k - 8.0, (0.01 * k) ** 2) for k in range(1601)],
    "numpy float": [(np.float64(0.1), 2.0), (np.float64(-3.5), 4.0)],
    "empty rows": [(), ()],
    "no rows": [],
}


@pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
def test_csv_body_matches_per_cell_formatting(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], rows)
    expected = "a,b,c\n" + "".join(",".join(map(_fmt_cell, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()

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
}


@pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
def test_csv_body_matches_per_cell_formatting(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], rows)
    expected = "a,b,c\n" + "".join(",".join(map(_fmt_cell, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()

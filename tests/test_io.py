import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborlab.grid import MagnitudeField, TFGrid
from gaborlab.io import atomic_write_text, field_csv_text, write_report

from oracles import read_field_csv

# zero, the smallest subnormal, a larger subnormal, 1e16 and negative nodes
NODE_ENDPOINTS = st.sampled_from(
    [0.0, 5e-324, 2.5e-310, 1e16, -1e16, -2.5, 1.0 / 3.0]
) | st.floats(-1e16, 1e16, allow_nan=False)


@st.composite
def axes(draw):
    lo, hi = sorted(draw(st.lists(NODE_ENDPOINTS, min_size=2, max_size=2,
                                  unique=True)))
    n = draw(st.integers(2, 5))
    # TFGrid rejects a spacing that underflows so that nodes repeat
    assume(np.all(np.diff(np.linspace(lo, hi, n)) > 0))
    return lo, hi, n


@st.composite
def fields(draw):
    (x_lo, x_hi, nx), (w_lo, w_hi, nw) = draw(axes()), draw(axes())
    grid = TFGrid(x_lo, x_hi, w_lo, w_hi, nx, nw)
    n = grid.n_nodes
    # the writers take magnitude fields, all that the commands write
    values = draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    return MagnitudeField(grid, np.array(values).reshape(grid.shape))


def reference_csv_text(field):
    vals = field.values
    rows = ["x,omega,value"]
    for i, x in enumerate(field.grid.x_nodes()):
        for j, w in enumerate(field.grid.w_nodes()):
            rows.append(f"{float(x)!r},{float(w)!r},{float(vals[i, j])!r}")
    return "\n".join(rows) + "\n"


@settings(max_examples=40, deadline=None)
@given(fields())
def test_field_csv_matches_reference_and_round_trips(tmp_path_factory, field):
    text = field_csv_text(field)
    assert text == reference_csv_text(field)
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    atomic_write_text(path, text)
    back = read_field_csv(path)
    assert back.grid == field.grid
    assert back.values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize("bounds", [
    (0.0, 5e-324, 0.0, 1.0),  # x nodes 0, 0, 5e-324, 5e-324
    (0.0, 1.0, 0.0, 5e-324),
    (1.0, 0.0, 0.0, 1.0),
])
def test_grid_rejects_repeated_or_decreasing_nodes(bounds):
    with pytest.raises(ValueError, match="strictly increasing"):
        TFGrid(*bounds, 4, 4)


def test_report_spells_nonfinite_floats_as_strings(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, {"a": float("nan"), "b": [np.inf, -np.inf, 1.5],
                        "c": np.array([np.nan, 2.0])})
    back = json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))
    assert back == {"a": "NaN", "b": ["Infinity", "-Infinity", 1.5],
                    "c": ["NaN", 2.0]}

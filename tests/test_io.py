import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborlab.grid import ComplexField, MagnitudeField, TFGrid
from gaborlab.io import field_csv_text, read_field_csv, write_field_csv

# zero, the smallest subnormal, a larger subnormal, 1e16 and negative nodes
NODE_ENDPOINTS = st.sampled_from(
    [0.0, 5e-324, 2.5e-310, 1e16, -1e16, -2.5, 1.0 / 3.0]
) | st.floats(-1e16, 1e16, allow_nan=False)


@st.composite
def fields(draw):
    x_lo, x_hi = sorted(draw(st.lists(NODE_ENDPOINTS, min_size=2, max_size=2,
                                      unique=True)))
    w_lo, w_hi = sorted(draw(st.lists(NODE_ENDPOINTS, min_size=2, max_size=2,
                                      unique=True)))
    grid = TFGrid(x_lo, x_hi, w_lo, w_hi,
                  draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    # the reader finds the row length from the repeats of the first x node
    assume(np.all(np.diff(grid.x_nodes()) > 0))
    n = grid.n_nodes
    if draw(st.booleans()):
        values = draw(st.lists(st.complex_numbers(max_magnitude=1e300),
                               min_size=n, max_size=n))
        return ComplexField(grid, np.array(values).reshape(grid.shape))
    values = draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    return MagnitudeField(grid, np.array(values).reshape(grid.shape))


def magnitudes(field):
    return np.abs(field.values) if np.iscomplexobj(field.values) else field.values


def reference_csv_text(field):
    vals = magnitudes(field)
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
    write_field_csv(path, field)
    back = read_field_csv(path)
    assert back.grid == field.grid
    assert back.values.tobytes() == magnitudes(field).tobytes()

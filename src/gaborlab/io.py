"""Deterministic file formats: CSV fields, plain-text PGM images, JSON reports.

CSV schema: header ``x,omega,value``, rows in row-major order with omega
varying fastest, floats printed as shortest round-trip decimals.  PGM is
plain P2, 8 bit, log-compressed over six decades of dynamic range.  All
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile

import numpy as np

from . import __version__
from .grid import MagnitudeField, TFGrid, field_values

TOOL_NAME = "gaborlab"
PGM_DECADES = 6.0


def _fmt(v):
    return repr(float(v))


def atomic_write_text(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def field_csv_text(field) -> str:
    grid = field.grid
    vals = field_values(field)
    if np.iscomplexobj(vals):
        vals = np.abs(vals)
    xs = grid.x_nodes()
    ws = grid.w_nodes()
    lines = ["x,omega,value"]
    for i in range(grid.nx):
        xi = _fmt(xs[i])
        row = vals[i]
        for j in range(grid.nw):
            lines.append(f"{xi},{_fmt(ws[j])},{_fmt(row[j])}")
    return "\n".join(lines) + "\n"


def write_field_csv(path, field):
    atomic_write_text(path, field_csv_text(field))


def read_field_csv(path):
    """Reconstruct a MagnitudeField from the CSV written by write_field_csv."""
    xs, ws, vs = [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,omega,value":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b, c = line.split(",")
            xs.append(float(a))
            ws.append(float(b))
            vs.append(float(c))
    xs = np.array(xs)
    ws = np.array(ws)
    vs = np.array(vs)
    nw = 1
    while nw < len(xs) and xs[nw] == xs[0]:
        nw += 1
    nx = len(xs) // nw
    grid = TFGrid(xs[0], xs[-1], ws[0], ws[nw - 1], nx, nw)
    return MagnitudeField(grid, vs.reshape(nx, nw))


def pgm_text(field, decades=PGM_DECADES) -> str:
    """P2 image; rows scan omega from top (w_max) down, columns scan x.

    pixel = round(255 * clip(1 + log10(value / max) / decades, 0, 1)); an
    all-zero field maps to all black.
    """
    grid = field.grid
    vals = field_values(field)
    if np.iscomplexobj(vals):
        vals = np.abs(vals)
    peak = float(vals.max())
    if peak <= 0.0:
        pix = np.zeros(grid.shape, dtype=int)
    else:
        with np.errstate(divide="ignore"):
            scaled = 1.0 + np.log10(vals / peak) / decades
        pix = np.rint(255.0 * np.clip(scaled, 0.0, 1.0)).astype(int)
    # image rows: omega descending; image columns: x ascending
    img = pix.T[::-1, :]
    lines = ["P2", f"{grid.nx} {grid.nw}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in img)
    return "\n".join(lines) + "\n"


def write_pgm(path, field, decades=PGM_DECADES):
    atomic_write_text(path, pgm_text(field, decades))


def json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def report_envelope(command, config, payload, provenance=None):
    """Report with the full resolved config echoed; keys are sorted on write."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "provenance": provenance or {},
        "payload": payload,
    }


def write_report(path, envelope):
    text = json.dumps(envelope, sort_keys=True, indent=2, default=json_default)
    atomic_write_text(path, text + "\n")

"""Deterministic file formats: CSV magnitude fields, plain-text PGM images, JSON reports.

CSV schema: header ``x,omega,value``, rows in row-major order with omega
varying fastest, floats printed as shortest round-trip decimals.  PGM is
plain P2, 8 bit, log-compressed over six decades of dynamic range.  All
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np

from . import __version__

TOOL_NAME = "gaborlab"
PGM_DECADES = 6.0


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
    """The CSV text of a MagnitudeField, one row per node."""
    grid = field.grid
    vals = field.values
    # repr of a Python float is its shortest round-trip decimal; each node
    # coordinate is formatted once, not once per row
    ws = [repr(w) for w in grid.w_nodes().tolist()]
    lines = ["x,omega,value"]
    for x, row in zip(grid.x_nodes().tolist(), vals.tolist()):
        xi = repr(x)
        lines.extend(f"{xi},{w},{v!r}" for w, v in zip(ws, row))
    return "\n".join(lines) + "\n"


def pgm_text(field) -> str:
    """P2 image of a MagnitudeField; rows scan omega from top (w_max) down,
    columns scan x.

    pixel = round(255 * clip(1 + log10(value / max) / PGM_DECADES, 0, 1)); an
    all-zero field maps to all black.
    """
    grid = field.grid
    vals = field.values
    peak = float(vals.max())
    if peak <= 0.0:
        pix = np.zeros(grid.shape, dtype=int)
    else:
        with np.errstate(divide="ignore"):
            scaled = 1.0 + np.log10(vals / peak) / PGM_DECADES
        pix = np.rint(255.0 * np.clip(scaled, 0.0, 1.0)).astype(int)
    # image rows: omega descending; image columns: x ascending
    img = pix.T[::-1, :]
    lines = ["P2", f"{grid.nx} {grid.nw}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in img)
    return "\n".join(lines) + "\n"


def _plain(obj):
    """obj, real-valued, as plain JSON data: arrays as lists, numpy scalars
    as Python numbers, and each non-finite float spelled as a string ("NaN",
    "Infinity", "-Infinity"): strict JSON has no token for them."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def report_envelope(command, config, payload, provenance=None):
    """Report with the full resolved config echoed; keys are sorted on write."""
    libraries = {"python": platform.python_version(), "numpy": np.__version__}
    # scipy only once loaded: a command that solves no spectrum never imports it
    if "scipy" in sys.modules:
        libraries["scipy"] = sys.modules["scipy"].__version__
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "libraries": libraries,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "provenance": provenance or {},
        "payload": payload,
    }


def write_report(path, envelope):
    # allow_nan=False guards the encoding: a bare NaN token would not parse
    text = json.dumps(_plain(envelope), sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")

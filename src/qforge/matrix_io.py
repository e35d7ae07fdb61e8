"""Shared on-disk density-matrix format.

Sixteen lines of "re im" pairs, row-major, UTF-8; lines starting with '#'
are comments and blank lines are ignored.  Values are written with 17
significant digits so files round-trip doubles exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FLOAT_FMT = "{:.17g}"


def format_matrix(m: np.ndarray, comments: tuple[str, ...] = ()) -> str:
    m = np.asarray(m, dtype=complex).reshape(4, 4)
    lines = [f"# {c}" for c in comments]
    for row in m:
        for z in row:
            lines.append(f"{FLOAT_FMT.format(z.real)} {FLOAT_FMT.format(z.imag)}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 're im', got {raw!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric entry in {raw!r}") from None
        values.append(complex(re, im))
    if len(values) != 16:
        raise ValueError(f"expected 16 matrix entries, found {len(values)}")
    return np.array(values, dtype=complex).reshape(4, 4)


def load_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))

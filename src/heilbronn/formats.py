"""Text file formats for point sets, point-line configurations and tubes.

All three formats are line-oriented UTF-8 with a one-line header carrying a
format tag, version, dimension and count; floats are written with 17
significant digits so round-trips are bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import PointLineConfiguration, PointLinePair
from .geometry import Line, point_line_distance
from .tubes import Tube2D, Tube3D

UNIT_READ_TOL = 1e-6
ONLINE_READ_TOL = 1e-6


class FormatError(ValueError):
    """Malformed file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_header(line: str, tag: str, path: str):
    parts = line.split()
    if (len(parts) != 4 or parts[0] != tag or parts[1] != "v1"
            or not parts[2].startswith("dim=") or not parts[3].startswith("n=")):
        raise FormatError(f"{path}:1: expected header '{tag} v1 dim=<d> n=<count>'")
    dim = int(parts[2][4:])
    count = int(parts[3][2:])
    if dim not in (2, 3):
        raise FormatError(f"{path}:1: dimension must be 2 or 3")
    return dim, count


def write_points(path: str, points: np.ndarray) -> None:
    P = np.asarray(points, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pts v1 dim={P.shape[1]} n={P.shape[0]}\n")
        for row in P:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_points(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}:1: empty file")
    dim, count = _parse_header(lines[0], "pts", path)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = line.split()
        if len(vals) != dim:
            raise FormatError(f"{path}:{ln}: expected {dim} coordinates")
        row = [float(v) for v in vals]
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{path}:{ln}: non-finite coordinate")
        rows.append(row)
    if len(rows) != count:
        raise FormatError(f"{path}: header declares n={count}, found {len(rows)}")
    return np.array(rows, dtype=float).reshape(count, dim)


def write_config(path: str, config: PointLineConfiguration) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"plc v1 dim={config.dim} n={len(config)}\n")
        for pair in config.pairs:
            p = " ".join(_fmt(x) for x in pair.point)
            q = " ".join(_fmt(x) for x in pair.line.base)
            v = " ".join(_fmt(x) for x in pair.line.dir)
            fh.write(f"p {p} q {q} v {v}\n")


def _parse_plc_line(line: str, dim: int, path: str, ln: int):
    vals = line.split()
    if len(vals) != 3 * dim + 3 or vals[0] != "p" or vals[dim + 1] != "q" \
            or vals[2 * dim + 2] != "v":
        raise FormatError(f"{path}:{ln}: expected 'p <{dim}> q <{dim}> v <{dim}>'")
    p = np.array([float(x) for x in vals[1:dim + 1]])
    q = np.array([float(x) for x in vals[dim + 2:2 * dim + 2]])
    v = np.array([float(x) for x in vals[2 * dim + 3:]])
    if not np.isfinite(np.concatenate((p, q, v))).all():
        raise FormatError(f"{path}:{ln}: non-finite coordinate")
    return p, q, v


def read_config(path: str) -> PointLineConfiguration:
    violations = validate_config_file(path)
    if violations:
        raise FormatError("; ".join(violations[:5]))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dim, _ = _parse_header(lines[0], "plc", path)
    pairs = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        p, q, v = _parse_plc_line(line, dim, path, ln)
        pairs.append(PointLinePair(p, Line(q, v)))
    return PointLineConfiguration(dim=dim, pairs=tuple(pairs), provenance=path)


def validate_config_file(path: str) -> list[str]:
    """Format and invariant check; returns violations with line numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if not lines:
        return [f"{path}:1: empty file"]
    out = []
    try:
        dim, count = _parse_header(lines[0], "plc", path)
    except FormatError as exc:
        return [str(exc)]
    seen = 0
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        seen += 1
        try:
            p, q, v = _parse_plc_line(line, dim, path, ln)
        except (FormatError, ValueError) as exc:
            out.append(str(exc))
            continue
        nv = float(np.linalg.norm(v))
        if abs(nv - 1.0) > UNIT_READ_TOL:
            out.append(f"{path}:{ln}: direction norm {nv:.9f} is not unit")
            continue
        line_obj = Line(q, v)
        dist = point_line_distance(p, line_obj)
        if dist > ONLINE_READ_TOL:
            out.append(f"{path}:{ln}: point is {dist:.3e} off its line")
        if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
            out.append(f"{path}:{ln}: point outside the unit cube")
    if seen != count:
        out.append(f"{path}: header declares n={count}, found {seen}")
    return out


def write_tubes(path: str, tubes) -> None:
    tubes = list(tubes)
    dim = tubes[0].center.shape[0] if tubes else 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"tubes v1 dim={dim} n={len(tubes)}\n")
        for t in tubes:
            c = " ".join(_fmt(x) for x in t.center)
            v = " ".join(_fmt(x) for x in t.dir)
            fh.write(f"c {c} v {v} w {_fmt(t.width)} l {_fmt(t.length)}\n")


def read_tubes(path: str):
    violations = validate_tubes_file(path)
    if violations:
        raise FormatError("; ".join(violations[:5]))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dim, _ = _parse_header(lines[0], "tubes", path)
    cls = Tube2D if dim == 2 else Tube3D
    tubes = []
    for line in lines[1:]:
        if not line.strip():
            continue
        vals = line.split()
        c = np.array([float(x) for x in vals[1:dim + 1]])
        v = np.array([float(x) for x in vals[dim + 2:2 * dim + 2]])
        w = float(vals[2 * dim + 3])
        length = float(vals[2 * dim + 5])
        tubes.append(cls(c, v, w, length))
    return tubes


def validate_tubes_file(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if not lines:
        return [f"{path}:1: empty file"]
    out = []
    try:
        dim, count = _parse_header(lines[0], "tubes", path)
    except FormatError as exc:
        return [str(exc)]
    seen = 0
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        seen += 1
        vals = line.split()
        if (len(vals) != 2 * dim + 6 or vals[0] != "c" or vals[dim + 1] != "v"
                or vals[2 * dim + 2] != "w" or vals[2 * dim + 4] != "l"):
            out.append(f"{path}:{ln}: expected 'c <{dim}> v <{dim}> w <w> l <l>'")
            continue
        try:
            c = np.array([float(x) for x in vals[1:dim + 1]])
            v = np.array([float(x) for x in vals[dim + 2:2 * dim + 2]])
            w = float(vals[2 * dim + 3])
            length = float(vals[2 * dim + 5])
        except ValueError:
            out.append(f"{path}:{ln}: non-numeric field")
            continue
        if not np.isfinite([*c, *v, w, length]).all():
            out.append(f"{path}:{ln}: non-finite field")
            continue
        if abs(np.linalg.norm(v) - 1.0) > UNIT_READ_TOL:
            out.append(f"{path}:{ln}: direction norm is not unit")
        if not 0 < w <= length:
            out.append(f"{path}:{ln}: need 0 < width <= length")
    if seen != count:
        out.append(f"{path}: header declares n={count}, found {seen}")
    return out


def validate_file(path: str) -> list[str]:
    """Dispatch on the header tag; unknown tags are a violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    tag = first.split()[0] if first.split() else ""
    if tag == "plc":
        return validate_config_file(path)
    if tag == "tubes":
        return validate_tubes_file(path)
    if tag == "pts":
        try:
            read_points(path)
            return []
        except FormatError as exc:
            return [str(exc)]
    return [f"{path}:1: unknown format tag {tag!r}"]

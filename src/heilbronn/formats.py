"""Text file formats for point sets, point-line configurations and tubes.

All three formats are line-oriented UTF-8 with a one-line header carrying a
format tag, version, dimension and count; floats are written with 17
significant digits so round-trips are bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import PointLineConfiguration, PointLinePair
from .geometry import Line, _point_rows, point_line_distance
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
    try:
        dim, count = int(parts[2][4:]), int(parts[3][2:])
    except ValueError:
        raise FormatError(f"{path}:1: dimension and count must be integers") from None
    if dim not in (2, 3):
        raise FormatError(f"{path}:1: dimension must be 2 or 3")
    return dim, count


def _floats(fields):
    """The fields as floats, or None when one of them is not a number."""
    try:
        return [float(x) for x in fields]
    except ValueError:
        return None


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; FormatError naming the path when the
    file cannot be read or is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"{path}: unreadable ({exc})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def _parse_file(path: str, tag: str, parse_record):
    """(dim, records, violations) of a data file, each line parsed once.

    `parse_record(fields, dim)` returns (record, problems) for one non-blank
    line; the line's record is kept when it has no problems.  Every
    violation carries the file's path and, but for the count check, the
    line number.
    """
    try:
        lines = _read_lines(path)
    except FormatError as exc:
        return 0, [], [str(exc)]
    if not lines:
        return 0, [], [f"{path}:1: empty file"]
    try:
        dim, count = _parse_header(lines[0], tag, path)
    except FormatError as exc:
        return 0, [], [str(exc)]
    records, out, seen = [], [], 0
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        seen += 1
        record, problems = parse_record(line.split(), dim)
        out += [f"{path}:{ln}: {p}" for p in problems]
        if not problems:
            records.append(record)
    if seen != count:
        out.append(f"{path}: header declares n={count}, found {seen}")
    return dim, records, out


def _read_file(path: str, tag: str, parse_record):
    """(dim, records) of a data file; FormatError with its first violations."""
    dim, records, violations = _parse_file(path, tag, parse_record)
    if violations:
        raise FormatError("; ".join(violations[:5]))
    return dim, records


def write_points(path: str, points: np.ndarray) -> None:
    P = _point_rows(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pts v1 dim={P.shape[1]} n={P.shape[0]}\n")
        for row in P:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def _points_record(fields, dim: int):
    if len(fields) != dim:
        return None, [f"expected {dim} coordinates"]
    row = _floats(fields)
    if row is None:
        return None, ["non-numeric coordinate"]
    if not all(map(math.isfinite, row)):
        return None, ["non-finite coordinate"]
    return row, []


def read_points(path: str) -> np.ndarray:
    dim, rows = _read_file(path, "pts", _points_record)
    return np.array(rows, dtype=float).reshape(len(rows), dim)


def write_config(path: str, config: PointLineConfiguration) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"plc v1 dim={config.dim} n={len(config)}\n")
        for pair in config.pairs:
            p = " ".join(_fmt(x) for x in pair.point)
            q = " ".join(_fmt(x) for x in pair.line.base)
            v = " ".join(_fmt(x) for x in pair.line.dir)
            fh.write(f"p {p} q {q} v {v}\n")


def _config_record(fields, dim: int):
    """A `p <point> q <base> v <dir>` line: its pair, and the format and
    invariant problems (unit direction, point on its line and in the cube)."""
    if len(fields) != 3 * dim + 3 or fields[0] != "p" or fields[dim + 1] != "q" \
            or fields[2 * dim + 2] != "v":
        return None, [f"expected 'p <{dim}> q <{dim}> v <{dim}>'"]
    x = _floats(fields[1:dim + 1] + fields[dim + 2:2 * dim + 2] + fields[2 * dim + 3:])
    if x is None:
        return None, ["non-numeric coordinate"]
    p, q, v = (np.array(x[k * dim:(k + 1) * dim]) for k in range(3))
    if not np.isfinite(x).all():
        return None, ["non-finite coordinate"]
    nv = float(np.linalg.norm(v))
    if abs(nv - 1.0) > UNIT_READ_TOL:
        return None, [f"direction norm {nv:.9f} is not unit"]
    line = Line(q, v)
    problems = []
    dist = point_line_distance(p, line)
    if dist > ONLINE_READ_TOL:
        problems.append(f"point is {dist:.3e} off its line")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        problems.append("point outside the unit cube")
    return (None if problems else PointLinePair(p, line)), problems


def read_config(path: str) -> PointLineConfiguration:
    dim, pairs = _read_file(path, "plc", _config_record)
    return PointLineConfiguration(dim=dim, pairs=tuple(pairs))


def write_tubes(path: str, tubes, dim: int | None = None) -> None:
    """Write a `.tubes` file of dimension `dim`: by default the first tube's,
    2 for an empty family.  A tube of another dimension raises ValueError."""
    tubes = list(tubes)
    if dim is None:
        dim = tubes[0].center.shape[0] if tubes else 2
    if any(t.center.shape[0] != dim for t in tubes):
        raise ValueError(f"every tube of a dim={dim} file must have dimension {dim}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"tubes v1 dim={dim} n={len(tubes)}\n")
        for t in tubes:
            c = " ".join(_fmt(x) for x in t.center)
            v = " ".join(_fmt(x) for x in t.dir)
            fh.write(f"c {c} v {v} w {_fmt(t.width)} l {_fmt(t.length)}\n")


def _tube_record(fields, dim: int):
    """A `c <center> v <dir> w <width> l <length>` line: its tube, and the
    format and invariant problems (unit direction, 0 < width <= length)."""
    if (len(fields) != 2 * dim + 6 or fields[0] != "c" or fields[dim + 1] != "v"
            or fields[2 * dim + 2] != "w" or fields[2 * dim + 4] != "l"):
        return None, [f"expected 'c <{dim}> v <{dim}> w <w> l <l>'"]
    x = _floats(fields[1:dim + 1] + fields[dim + 2:2 * dim + 2]
                + [fields[2 * dim + 3], fields[2 * dim + 5]])
    if x is None:
        return None, ["non-numeric field"]
    if not np.isfinite(x).all():
        return None, ["non-finite field"]
    c, v = np.array(x[:dim]), np.array(x[dim:2 * dim])
    w, length = x[2 * dim:]
    problems = []
    if abs(np.linalg.norm(v) - 1.0) > UNIT_READ_TOL:
        problems.append("direction norm is not unit")
    if not 0 < w <= length:
        problems.append("need 0 < width <= length")
    return (None if problems else (Tube2D if dim == 2 else Tube3D)(c, v, w, length)), problems


def read_tubes(path: str):
    return _read_file(path, "tubes", _tube_record)[1]


def validate_file(path: str) -> list[str]:
    """Dispatch on the header tag; unknown tags are a violation."""
    try:
        lines = _read_lines(path)
    except FormatError as exc:
        return [str(exc)]
    tag = lines[0].split()[0] if lines and lines[0].split() else ""
    parsers = {"plc": _config_record, "tubes": _tube_record, "pts": _points_record}
    if tag not in parsers:
        return [f"{path}:1: unknown format tag {tag!r}"]
    return _parse_file(path, tag, parsers[tag])[2]

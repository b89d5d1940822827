"""CSV interchange formats shared by the pipeline stages and the CLI.

All writers emit a header row and sort rows (user_id, then t) so identical
data gives identical bytes, with csv-module text: comma-separated, CRLF line
ends, a float written as its ``repr``. Every per-(id, t) table goes through
``_write_table``, which formats each distinct value of a column once and
repeats its text, and writes the lines of a block of ids with one join of at
most ``_BLOCK_CELLS`` cells (one id's lines where they are more).

Loaders parse a table with numpy's C reader (``np.loadtxt``) into one array
per column. Where that reader refuses the text, or could read it otherwise
than csv.reader and int()/float() would, a csv.reader scan parses it
instead. The loaders validate coverage and name the offending file row in
error messages; a row number counts CSV records, the header being row 1,
and comes from a csv scan run only once a check fails.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Callable

import numpy as np

from .core import _BOUND, TimeGrid, TraceSet, _in_range
from .errors import ConfigError, DataError, open_input
from .zoning import Zoning

TRACE_HEADER = ["user_id", "t", "x", "y"]
TRAFFIC_HEADER = ["user_id", "mean_traffic_mbps"]
ZONES_HEADER = ["zone_id", "region", "cx", "cy"]
LABELS_HEADER = ["user_id", "t", "zone_id"]
PREDICTIONS_HEADER = ["user_id", "t", "real_zone", "predicted_zone"]
ZONE_SERIES_HEADER = ["zone_id", "t", "users_real", "users_pred", "traffic_real", "traffic_pred"]
ERRORS_HEADER = ["user_id", "t", "error"]
HISTOGRAM_HEADER = ["run_id", "bin_lo", "bin_hi", "count"]


def _write_rows(path, header, rows) -> None:
    with open_input(path, ConfigError, mode="w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _formatted(column, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among the column's distinct values, and the repr of
    each distinct value followed by ``end``, as an object array. Floats are
    keyed on their bits, so -0.0 stays apart from 0.0."""
    keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, rank = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    return rank, np.array([repr(value) + end for value in values], object)


_BLOCK_CELLS = 2**14  # cells joined per file write; a row wider than this is one block


def _write_table(path, header, *tables, first=0) -> None:
    """Rows ``i, first + j, t0[i, j], t1[i, j], ...`` of equally shaped
    (outer, inner) arrays, row-major.

    Each column's distinct values are formatted once; a line's cells are
    looked up in those texts by the value's rank. The file is written a block
    of ids at a time, one join and one write per block, so it never holds the
    text of more than ``_BLOCK_CELLS`` cells or of one id's lines.
    """
    outer, inner = tables[0].shape
    n = 2 + len(tables)
    ends = [","] * (len(tables) - 1) + ["\r\n"]
    columns = [_formatted(table.ravel(), end) for table, end in zip(tables, ends)]
    instants = np.array([f"{t}," for t in range(first, first + inner)], object)
    ids = max(1, _BLOCK_CELLS // (n * inner or 1))  # ids per block
    with open_input(path, ConfigError, mode="w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, outer, ids):
            hi = min(outer, lo + ids)
            block = np.empty((hi - lo, inner, n), object)  # one cell per (i, t, column)
            block[..., 0] = np.array([f"{i}," for i in range(lo, hi)], object)[:, None]
            block[..., 1] = instants
            for c, (rank, texts) in enumerate(columns, 2):
                block[..., c] = texts[rank[lo * inner : hi * inner]].reshape(hi - lo, inner)
            fh.write("".join(block.ravel().tolist()))


_DTYPES = {int: np.int64, float: np.float64, str: object}
# Characters numpy's reader parses unlike int()/float(): it takes \x1c-\x1f
# for whitespace, and reads some non-ASCII letters as digits.
_UNLIKE_PYTHON = "\x1c\x1d\x1e\x1f"


def _check_header(path, header, fh) -> None:
    """Read the header record of ``fh`` and require it to be ``header``."""
    try:
        first = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataError(f"{path}, row 1: {exc}") from None
    if [c.strip() for c in first] != header:
        raise DataError(f"{path}: expected header {','.join(header)}, got {','.join(first)}")


def _read_rows(path, header) -> tuple[range | list[int], list[list[str]]]:
    """The 1-based file row numbers of the non-blank data rows and the rows,
    header validated. A row number counts CSV records, the header being 1."""
    rows = []
    with open_input(path, DataError, newline="") as fh:
        _check_header(path, header, fh)
        try:
            rows.extend(csv.reader(fh))  # keeps the records read before an error
        except csv.Error as exc:
            raise DataError(f"{path}, row {len(rows) + 2}: {exc}") from None
    lines = range(2, len(rows) + 2)
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    return lines, rows


def _parse(path, line, value, kind, what):
    try:
        return kind(value)
    except ValueError:
        raise DataError(f"{path}, row {line}: bad {what} {value!r}") from None


def _scan(path, header, kinds) -> tuple[range | list[int], list]:
    """``_columns`` by csv.reader and int()/float(), naming the row of a
    value that does not convert."""
    lines, rows = _read_rows(path, header)
    if set(map(len, rows)) - {len(header)}:
        line, row = next((line, row) for line, row in zip(lines, rows) if len(row) != len(header))
        raise DataError(f"{path}, row {line}: expected {len(header)} fields, got {len(row)}")
    columns = list(zip(*rows)) or [()] * len(header)
    out = []
    for name, kind, col in zip(header, kinds, columns):
        if kind is str:
            out.append([value.strip() for value in col])
            continue
        try:
            out.append(np.array(col, dtype=_DTYPES[kind]))
        except (ValueError, OverflowError):
            for line, value in zip(lines, col):
                number = _parse(path, line, value, kind, name)
                if kind is int and not -(2**63) <= number < 2**63:
                    raise DataError(f"{path}, row {line}: {name} {value!r} out of range") from None
            raise
    return lines, out


def _load(path, header, kinds) -> np.ndarray | None:
    """The data rows as one structured array, parsed by numpy's reader; None
    where that reader refuses the text or might read it unlike ``_scan``."""
    with open_input(path, DataError, newline="") as fh:
        _check_header(path, header, fh)
        try:
            text = fh.read()
        except UnicodeDecodeError:
            return None  # _scan names it, at the offset its line reads give
    if not text.isascii() or any(c in text for c in _UNLIKE_PYTHON):
        return None
    dtype = np.dtype([(name, _DTYPES[kind]) for name, kind in zip(header, kinds)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                io.StringIO(text, newline=""), dtype=dtype, delimiter=",", quotechar='"',
                comments=None, ndmin=1,
            )
    except (ValueError, Warning):
        return None


def _columns(path, header, kinds) -> tuple[Callable[[int], int], list]:
    """A function from a data row's index to its file row number, and one
    column per header name: an array, or a list of stripped strings.

    ``kinds`` holds int, float or str per column; numbers are converted with
    int()/float() semantics, and a value that does not convert names its row.
    Where numpy's reader parses the table, no per-row Python list is built:
    the row numbers, which only an error message needs, come from a csv scan
    made when the function is called.
    """
    table = _load(path, header, kinds)
    if table is None:
        lines, columns = _scan(path, header, kinds)
        return lines.__getitem__, columns
    columns = [
        [value.strip() for value in table[name].tolist()] if kind is str else table[name]
        for name, kind in zip(header, kinds)
    ]
    return lambda i: _read_rows(path, header)[0][i], columns


def _bounded(path, row, x, y, what) -> None:
    if not (_in_range(x) and _in_range(y)):
        i = np.flatnonzero(~((x > -_BOUND) & (x < _BOUND) & (y > -_BOUND) & (y < _BOUND)))[0]
        raise DataError(f"{path}, row {row(i)}: {what} ({x[i]}, {y[i]}) must lie in (-2**42, 2**42)")


def _zone_ids(path, row, z, zone_count: int) -> None:
    bad = np.flatnonzero((z < 0) | (z >= zone_count))
    if bad.size:
        raise DataError(f"{path}, row {row(bad[0])}: zone id {z[bad[0]]} outside [0, {zone_count})")


def _grid(path, row, u, t, instants: int, entry="entry") -> np.ndarray:
    """Row indices that fill the (users, instants) table keyed by columns u, t.

    Users must be contiguous from 0 and every (user, instant in
    0..instants-1) must appear exactly once.
    """
    if u.size == 0:
        raise DataError(f"{path}: no data rows")
    bad = np.flatnonzero((t < 0) | (t >= instants))
    if bad.size:
        i = bad[0]
        raise DataError(f"{path}, row {row(i)}: instant {t[i]} outside [0, {instants})")
    # max < size first, so bincount never allocates past the row count
    if u.min() != 0 or u.max() >= u.size or not np.bincount(u).all():
        raise DataError(f"{path}: user ids must be contiguous from 0, got {np.unique(u)[:8].tolist()}...")
    users = int(u.max()) + 1
    # a stable sort on one (u, t) key keeps lexsort's order, ties included,
    # and runs in linear time on the sorted files tce writes
    order = np.argsort(u * instants + t, kind="stable")
    su, st = u[order], t[order]
    repeated = (su[1:] == su[:-1]) & (st[1:] == st[:-1])
    if repeated.any():
        i = order[1:][repeated].min()
        raise DataError(
            f"{path}, row {row(i)}: duplicate {entry} for user {u[i]}, instant {t[i]}"
        )
    if u.size != users * instants:
        # sorted distinct keys: the first that differs from its position is missing
        k = np.arange(u.size)
        gap = np.flatnonzero((su != k // instants) | (st != k % instants))
        first = gap[0] if gap.size else u.size
        raise DataError(f"{path}: user {first // instants} is missing instant {first % instants}")
    return order.reshape(users, instants)


# ---------------------------------------------------------------------------
# traces and traffic


def write_trace(path, traces: TraceSet) -> None:
    _write_table(path, TRACE_HEADER, traces.positions[..., 0], traces.positions[..., 1])


def write_traffic(path, traces: TraceSet) -> None:
    _write_rows(path, TRAFFIC_HEADER, zip(range(traces.user_count), traces.mean_traffic.tolist()))


def load_trace(trace_path, traffic_path, grid: TimeGrid) -> TraceSet:
    """Load and validate a trace file and its traffic CSV against the time
    grid. A trace whose first line holds a comma is a trace CSV; any other is
    waypoint lines (``load_waypoint_lines``).

    A trace CSV must cover every instant of every user exactly once; every
    user must appear in the traffic CSV. Violations name the user, instant,
    or file row.
    """
    with open_input(trace_path, DataError, mode="rb") as fh:
        csv_trace = b"," in fh.readline()
    if csv_trace:
        row, (u, t, x, y) = _columns(trace_path, TRACE_HEADER, (int, int, float, float))
        _bounded(trace_path, row, x, y, "position")
        order = _grid(trace_path, row, u, t, grid.instant_count)
        positions = np.stack([x[order], y[order]], axis=-1)
    else:
        positions = load_waypoint_lines(trace_path, grid)
    return TraceSet(positions, load_traffic(traffic_path, positions.shape[0]))


def load_traffic(path, user_count: int) -> np.ndarray:
    """Per-user mean rates; each user id in [0, user_count) exactly once."""
    row, (u, rate) = _columns(path, TRAFFIC_HEADER, (int, float))
    unknown = (u < 0) | (u >= user_count)
    outside = ~((rate >= 0) & (rate < _BOUND))
    repeated = np.ones(u.size, dtype=bool)
    repeated[np.unique(u, return_index=True)[1]] = False
    bad = np.flatnonzero(unknown | outside | repeated)
    if bad.size:  # the first faulty row in file order, checks in the order below
        i = bad[0]
        if unknown[i]:
            fault = f"unknown user id {u[i]}"
        elif outside[i]:
            fault = f"mean_traffic must lie in [0, 2**42), got {rate[i]}"
        else:
            fault = f"duplicate user id {u[i]}"
        raise DataError(f"{path}, row {row(i)}: {fault}")
    traffic = np.full(user_count, np.nan)
    traffic[u] = rate
    missing = np.flatnonzero(np.isnan(traffic))
    if missing.size:
        raise DataError(f"{path}: missing traffic for user {missing[0]}")
    return traffic


def load_waypoint_lines(path, grid: TimeGrid) -> np.ndarray:
    """Waypoint-line import: one user per line, repeating ``t x y`` triples
    with t in seconds, linearly resampled onto the grid instants."""
    sample_t = grid.instants_seconds()
    users = []
    with open_input(path, DataError) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) % 3 != 0:
                raise DataError(
                    f"{path}, line {line_no}: expected t x y triples, got {len(fields)} fields"
                )
            vals = np.array([_parse(path, line_no, f, float, "waypoint value") for f in fields])
            triples = vals.reshape(-1, 3)
            if not np.all(np.isfinite(triples[:, 0])):
                raise DataError(f"{path}, line {line_no}: non-finite waypoint time")
            if not _in_range(triples[:, 1:]):
                raise DataError(f"{path}, line {line_no}: waypoint x and y must lie in (-2**42, 2**42)")
            if np.any(np.diff(triples[:, 0]) < 0):
                raise DataError(f"{path}, line {line_no}: waypoint times must be non-decreasing")
            x = np.interp(sample_t, triples[:, 0], triples[:, 1])
            y = np.interp(sample_t, triples[:, 0], triples[:, 2])
            users.append(np.column_stack([x, y]))
    if not users:
        raise DataError(f"{path}: no waypoint lines")
    return np.stack(users)


# ---------------------------------------------------------------------------
# zoning


def write_zoning(zones_path, labels_path, zoning: Zoning) -> None:
    cx, cy = zoning.all_centroids().T.tolist()
    regions = ["inside"] * zoning.inside_count + ["outside"] * zoning.outside_centroids.shape[0]
    _write_rows(zones_path, ZONES_HEADER, zip(range(zoning.zone_count), regions, cx, cy))
    _write_table(labels_path, LABELS_HEADER, zoning.labels)


def load_zoning(zones_path, labels_path, instant_count: int) -> Zoning:
    """Zone centroids and the (users, instant_count) label table."""
    row, (zid, region, cx, cy) = _columns(zones_path, ZONES_HEADER, (int, str, float, float))
    _bounded(zones_path, row, cx, cy, "centroid")
    for i, name in enumerate(region):
        if name not in ("inside", "outside"):
            raise DataError(f"{zones_path}, row {row(i)}: region must be inside or outside")
    inside = np.array([name == "inside" for name in region], dtype=bool)
    ids = np.concatenate([zid[inside], zid[~inside]])
    if not np.array_equal(ids, np.arange(ids.size)):
        raise DataError(f"{zones_path}: zone ids must be 0..{ids.size - 1} with inside ids first")
    centroids = np.stack([cx, cy], axis=-1)

    row, (u, t, z) = _columns(labels_path, LABELS_HEADER, (int, int, int))
    _zone_ids(labels_path, row, z, ids.size)
    labels = z[_grid(labels_path, row, u, t, instant_count, entry="label")]
    return Zoning(centroids[inside], centroids[~inside], labels)


# ---------------------------------------------------------------------------
# matrices, predictions, series, errors


def write_matrix(path, table: np.ndarray) -> None:
    k = table.shape[0]
    rows = ([z] + values for z, values in enumerate(table.tolist()))
    _write_rows(path, ["zone"] + [str(z) for z in range(k)], rows)


def write_predictions(path, labels_real: np.ndarray, labels_pred: np.ndarray) -> None:
    _write_table(path, PREDICTIONS_HEADER, labels_real, labels_pred)


def load_predictions(path, zone_count: int, instant_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and predicted zones as (users, instant_count) tables; a predicted
    zone id must lie in [0, zone_count)."""
    row, (u, t, real, pred) = _columns(path, PREDICTIONS_HEADER, (int, int, int, int))
    _zone_ids(path, row, pred, zone_count)
    order = _grid(path, row, u, t, instant_count)
    return real[order], pred[order]


def write_zone_series(path, series) -> None:
    tables = series.users_real, series.users_pred, series.traffic_real, series.traffic_pred
    _write_table(path, ZONE_SERIES_HEADER, *tables)


def write_errors(path, errors) -> None:
    _write_table(path, ERRORS_HEADER, errors.e, first=errors.first_instant)


def write_histogram(path, counts, edges) -> None:
    """A (runs, bins) count table over shared bin edges; row r is run r."""
    edges = np.asarray(edges, np.float64).tolist()
    rows = []
    for run_id, run_counts in enumerate(np.asarray(counts, np.int64).tolist()):
        rows += zip([run_id] * len(run_counts), edges, edges[1:], run_counts)
    _write_rows(path, HISTOGRAM_HEADER, rows)

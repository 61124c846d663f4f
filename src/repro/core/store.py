"""Columnar measurement storage: struct-of-arrays with disk spill.

The paper's deployment collected ~141k measurements from 88k clients (§7),
and every analysis the reproduction runs — filtering, per-region success
counts, detection, reports — is an aggregation over that corpus.  Holding
each measurement as a frozen dataclass in a Python list makes those
aggregations per-row Python loops; this module stores the corpus as columns
instead:

* **Struct of arrays.**  Each :class:`Measurement` field is one numpy column.
  Low-cardinality fields (task type, outcome, target URL/domain, country,
  ISP, browser family, origin) are dictionary-encoded as small integer codes
  with store-level value tables, so filters compare integers and group-bys
  are ``bincount`` reductions.  High-cardinality strings (measurement id,
  client IP) stay as numpy unicode arrays; client IPs also get integer
  identity codes on demand (:meth:`MeasurementStore.client_codes`).
* **Vectorized queries.**  :meth:`MeasurementStore.row_mask` evaluates
  filter criteria as one boolean row mask; :meth:`MeasurementStore.query`
  hands any keyed reduction over all rows or a mask's rows —
  per-(domain, country[, day]) counts, timing quantiles, distinct clients —
  to the one group-by kernel in :mod:`repro.core.query`, whose wrappers
  (``grouped_success_counts`` and friends) are the reduction API.
* **Committed segments.**  :meth:`MeasurementStore.spill` writes every
  sealed segment to an ``.npz`` file in the store's ``spill_dir``; a shard
  worker or a sweep cell does so once per block or cell, and the manifest
  beside them, naming each by file name, is its commit.  Stores that adopt
  the files read them on demand: queries transparently concatenate spilled
  and resident segments — and only load the columns they touch, so the
  detection pipeline over a merged store never reads the string columns.
* **One materializer.**  :meth:`rows` builds
  :class:`~repro.core.collection.Measurement` dataclasses on demand, for
  all rows or given indices, field-for-field identical to what the
  row-list collection server stored.  The scalar references,
  ``CampaignResult.testbed_measurements`` and the tests read rows through
  it; the analyses stay on masks and :meth:`query`.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.tasks import TaskOutcome, TaskType
from repro.obs.metrics import get_registry
from repro.web.url import URL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (collection imports us)
    from repro.core.collection import Measurement

# Fixed enum encodings shared by every store.
TASK_TYPES: tuple[TaskType, ...] = tuple(TaskType)
OUTCOMES: tuple[TaskOutcome, ...] = tuple(TaskOutcome)
_TASK_CODES = {t: i for i, t in enumerate(TASK_TYPES)}
_OUTCOME_CODES = {o: i for i, o in enumerate(OUTCOMES)}
OUTCOME_SUCCESS = _OUTCOME_CODES[TaskOutcome.SUCCESS]
OUTCOME_FAILURE = _OUTCOME_CODES[TaskOutcome.FAILURE]
OUTCOME_INCONCLUSIVE = _OUTCOME_CODES[TaskOutcome.INCONCLUSIVE]

#: Column name -> dtype of the empty column (string columns widen on append).
_COLUMN_DTYPES = {
    "measurement_id": np.dtype("U1"),
    "task": np.dtype(np.int8),
    "url": np.dtype(np.int32),
    "domain": np.dtype(np.int32),
    "outcome": np.dtype(np.int8),
    "elapsed_ms": np.dtype(np.float64),
    "probe_time_ms": np.dtype(np.float64),
    "client_ip": np.dtype("U1"),
    "country": np.dtype(np.int16),
    "isp": np.dtype(np.int32),
    "family": np.dtype(np.int16),
    "origin": np.dtype(np.int32),
    "day": np.dtype(np.int32),
    "automated": np.dtype(bool),
}
_COLUMN_NAMES = tuple(_COLUMN_DTYPES)


class DictColumn(NamedTuple):
    """A column given as ``values[indices]`` without expanding it row-wise.

    Producers that already know a column's distinct (or per-group) values —
    the batch executor knows every row's task, and every client attribute
    per *visit* rather than per row — hand the store the small ``values``
    table plus a per-row ``indices`` array.  The store encodes ``values``
    once (``len(values)`` dictionary operations instead of one per row) and
    broadcasts the codes with a single fancy-index, which is what makes bulk
    ingestion free of per-row Python work.
    """

    values: Sequence
    indices: np.ndarray


def _column_length(column) -> int:
    return len(column.indices) if isinstance(column, DictColumn) else len(column)


class ColumnAlignmentError(ValueError):
    """An ingested column does not line up with the chunk's rows.

    Raised by :meth:`MeasurementStore.append_columns` when a column's length
    (a :class:`DictColumn`'s ``indices`` length) differs from the row count,
    or a :class:`DictColumn` index falls outside ``[0, len(values))``.
    ``column`` names the offending argument.
    """

    def __init__(self, column: str, problem: str) -> None:
        super().__init__(f"column {column!r}: {problem}")
        self.column = column


class SegmentRowsError(ValueError):
    """A spilled segment does not hold the rows its store declared for it.

    Raised when a segment ``.npz`` is read, by a query or by
    :func:`verify_segment` before a manifest is adopted: a column whose
    length differs from the rows the segment was mounted with (a manifest
    declaring too many or too few), or a file that is not a readable
    archive at all (``found`` is then ``None``).  ``path`` names the
    segment file.
    """

    def __init__(self, path: Path, declared: int, found: int | None) -> None:
        found_text = "an unreadable archive" if found is None else f"{found} rows"
        super().__init__(
            f"segment {path}: declared {declared} rows, found {found_text}"
        )
        self.path = path
        self.declared = declared
        self.found = found


def _check_alignment(n: int, columns: dict) -> None:
    """Raise :class:`ColumnAlignmentError` unless every column has ``n`` valid rows.

    Index arrays shared between columns (``client_ip`` and ``country_code``
    share one) are reduced once, so a chunk costs a few reductions.
    """
    extremes: dict[int, tuple[int, int]] = {}
    for name, column in columns.items():
        if column is None:
            continue
        length = _column_length(column)
        if length != n:
            raise ColumnAlignmentError(
                name, f"{length} rows where measurement_id has {n}"
            )
        if not isinstance(column, DictColumn) or not n:
            continue
        bounds = extremes.get(id(column.indices))
        if bounds is None:
            indices = np.asarray(column.indices)
            bounds = extremes[id(column.indices)] = (int(indices.min()), int(indices.max()))
        if bounds[0] < 0 or bounds[1] >= len(column.values):
            raise ColumnAlignmentError(
                name,
                f"indices span [{bounds[0]}, {bounds[1]}] outside its "
                f"{len(column.values)}-entry values table",
            )


class ColumnValueError(ValueError):
    """An ingested column holds a value the analysis cannot bucket or scan.

    Raised by :meth:`MeasurementStore.append_columns` for a negative
    ``day``, which would land in another pair's cell of the day-keyed
    fold, or a non-finite ``elapsed_ms``, which would stick in the timing
    CUSUM's statistic.  ``column`` names the offending argument.
    """

    def __init__(self, column: str, problem: str) -> None:
        super().__init__(f"column {column!r}: {problem}")
        self.column = column


def _check_values(elapsed_ms: np.ndarray, day: np.ndarray) -> None:
    """Raise :class:`ColumnValueError` for a non-finite timing or a negative day."""
    if not np.isfinite(elapsed_ms).all():
        raise ColumnValueError("elapsed_ms", "holds a non-finite timing")
    if day.min() < 0:
        raise ColumnValueError("day", f"holds the negative day {int(day.min())}")


def _ascii_bytes(strings: np.ndarray) -> np.ndarray:
    """``strings`` at one byte per character if all are ASCII, else unchanged.

    A quarter of a unicode array's size, in the same sort order.
    """
    width = strings.dtype.itemsize // 4
    if not width:
        return strings
    points = strings.view(np.uint32).reshape(len(strings), width)
    if points.max(initial=0) > 127:
        return strings
    return points.astype(np.uint8).view(f"S{width}").ravel()


class _ClientCodes:
    """A store's client identity codes (see :meth:`MeasurementStore.client_codes`).

    ``codes[row]`` numbers the row's ``client_ip``; ``values[code]`` is the
    address behind a code, and ``order`` sorts ``values`` so new addresses
    are looked up by ``searchsorted`` without a second copy of the table.
    ``values`` holds bytes while every address seen is ASCII, as IP
    addresses are, and strings from the first one that is not.
    Growth rebinds the arrays instead of writing into them, which is what
    lets an adopting store start from its source's arrays as they stand.
    """

    __slots__ = ("codes", "values", "order")

    def __init__(self, codes: np.ndarray | None = None, values: np.ndarray | None = None,
                 order: np.ndarray | None = None) -> None:
        self.codes = np.empty(0, dtype=np.int32) if codes is None else codes
        self.values = np.empty(0, dtype=np.bytes_) if values is None else values
        self.order = np.empty(0, dtype=np.int32) if order is None else order

    def encode(self, addresses: np.ndarray) -> np.ndarray:
        """Codes for ``addresses``; addresses never seen before get the next codes.

        ``addresses`` are bytes when :func:`_ascii_bytes` could pack them.
        """
        if addresses.dtype.kind != self.values.dtype.kind:
            # Bytes on one side, strings (a non-ASCII address) on the
            # other: compare as strings from now on.
            self.values = self.values.astype(np.str_)
            addresses = addresses.astype(np.str_)
        distinct, inverse = np.unique(addresses, return_inverse=True)
        known = len(self.values)
        if not known:  # the first batch numbers its addresses in sorted order
            self.values, self.order = distinct, np.arange(len(distinct), dtype=np.int32)
            return inverse.astype(np.int32)
        slots = np.searchsorted(self.values, distinct, sorter=self.order)
        # A slot past the end, or holding another address, means "not seen".
        candidates = self.order[np.minimum(slots, known - 1)]
        fresh = self.values[candidates] != distinct
        codes = candidates.astype(np.int32)
        added = int(np.count_nonzero(fresh))
        if added:
            new = np.arange(known, known + added, dtype=np.int32)
            codes[fresh] = new
            self.values = np.concatenate([self.values, distinct[fresh]])
            self.order = np.insert(self.order, slots[fresh], new)
        return codes[inverse]


def pair_day_matrices(domains, countries, days, n_days, *columns):
    """Scatter sorted (domain, country, day) cells into per-pair day matrices.

    The cells must be sorted by ``(domain, country, day)``.  Each entry of
    ``columns`` is ``(values, fill)``: one value per cell, and the value of
    pair-days without a cell, whose dtype the matrix takes.  Returns the
    ``C`` distinct pairs' domains and countries, in cell order, then one
    ``(C, n_days)`` matrix per column.  Values are placed, never combined.
    """
    if len(days) == 0:
        empty = np.empty(0, dtype=np.str_)
        return (empty, empty, *(np.full((0, n_days), fill) for _, fill in columns))
    # Pair boundaries are where either name changes.
    new_pair = np.r_[
        True, (domains[1:] != domains[:-1]) | (countries[1:] != countries[:-1])
    ]
    pair_of_cell = np.cumsum(new_pair) - 1
    starts = np.flatnonzero(new_pair)
    matrices = []
    for values, fill in columns:
        matrix = np.full((len(starts), n_days), fill)
        matrix[pair_of_cell, days] = values
        matrices.append(matrix)
    return (domains[starts], countries[starts], *matrices)


class DaySeries:
    """Per-(domain, country) day series as dense ``(pairs, n_days)`` matrices.

    ``counts[i, d]`` is pair ``i``'s filtered measurement count on day
    ``d``; ``values[i, d]`` is its success count there (0 where the
    pair-day has no rows) or a timing quantile (NaN there).  Pairs are
    sorted by (domain, country) and each has at least one measured day;
    ``n_days`` is the day-axis extent, one past the largest day seen
    unless widened.  Both CUSUM detectors scan this layout day column by
    day column.
    """

    __slots__ = ("domains", "countries", "counts", "values", "n_days")

    def __init__(
        self,
        domains: np.ndarray,
        countries: np.ndarray,
        counts: np.ndarray,
        values: np.ndarray,
        n_days: int,
    ) -> None:
        self.domains = domains
        self.countries = countries
        self.counts = counts
        self.values = values
        self.n_days = n_days

    def __len__(self) -> int:
        return len(self.domains)

    @classmethod
    def from_dict(cls, counts: dict, n_days: int | None = None) -> "DaySeries":
        """Densify a ``{(domain, country, day): (n, successes)}`` map.

        ``n_days`` may widen the day axis beyond the data (trailing empty
        days) but never truncate it; a negative day has no column and is
        rejected too.
        """
        items = sorted(counts.items())
        days = np.asarray([day for (_, _, day), _ in items], dtype=np.int64)
        if len(days) and days.min() < 0:
            raise ValueError(f"day {int(days.min())} is negative")
        least = int(days.max()) + 1 if len(days) else 0
        if n_days is None:
            n_days = least
        elif n_days < least:
            raise ValueError(
                f"n_days={n_days} cannot cover days up to {least - 1}"
            )
        series = pair_day_matrices(
            np.asarray([d for (d, _, _), _ in items], dtype=np.str_),
            np.asarray([c for (_, c, _), _ in items], dtype=np.str_),
            days, n_days,
            (np.asarray([n for _, (n, _) in items], dtype=np.int64), np.int64(0)),
            (np.asarray([s for _, (_, s) in items], dtype=np.int64), np.int64(0)),
        )
        return cls(*series, n_days)

    def as_dict(self) -> dict[tuple[str, str, int], tuple]:
        """``(domain, country, day) -> (n, value)`` for each measured pair-day."""
        pairs, days = np.nonzero(self.counts)
        return {
            (str(self.domains[pair]), str(self.countries[pair]), day): (
                self.counts[pair, day].item(), self.values[pair, day].item()
            )
            for pair, day in zip(pairs.tolist(), days.tolist())
        }

    def cell_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(domains, countries, counts, values)``: the detectors' layout."""
        return self.domains, self.countries, self.counts, self.values


class _Segment:
    """One sealed block of column arrays, resident or spilled to an ``.npz``.

    ``remap`` holds per-column code-translation arrays for *adopted*
    segments — segments written by another store (a shard worker) whose
    dictionary codes reference that store's value tables.  Translation is a
    single fancy-index applied lazily at read time, so adopting a foreign
    segment never rewrites its rows on disk or in memory.
    """

    __slots__ = ("length", "columns", "path", "remap")

    def __init__(self, length: int, columns: dict[str, np.ndarray] | None,
                 path: Path | None = None,
                 remap: dict[str, np.ndarray] | None = None) -> None:
        self.length = length
        self.columns = columns
        self.path = path
        self.remap = remap

    @property
    def spilled(self) -> bool:
        return self.columns is None

    def _translated(self, name: str, values: np.ndarray) -> np.ndarray:
        if self.remap is None:
            return values
        translation = self.remap.get(name)
        if translation is None:
            return values
        # The sentinel tail entry maps code -1 (stripped origins) to itself.
        return translation[values]

    def column(self, name: str) -> np.ndarray:
        return self.load_columns((name,))[name]

    def load_columns(self, names: Sequence[str]) -> dict[str, np.ndarray]:
        """Several columns with one file open (streamed aggregation path).

        A spilled column whose length is not the segment's, or a file that
        is no readable archive, raises :class:`SegmentRowsError`.
        """
        if self.columns is not None:
            return {name: self._translated(name, self.columns[name]) for name in names}
        assert self.path is not None
        try:
            with np.load(self.path) as data:
                columns = {name: data[name] for name in names}
        except (zipfile.BadZipFile, EOFError) as error:
            raise SegmentRowsError(self.path, self.length, None) from error
        for values in columns.values():
            if len(values) != self.length:
                raise SegmentRowsError(self.path, self.length, len(values))
        return {name: self._translated(name, values) for name, values in columns.items()}

    def spill(self, path: Path) -> None:
        assert self.columns is not None
        with open(path, "xb") as handle:
            np.savez(handle, **self.columns)
        self.path = path
        self.columns = None
        get_registry().counter("store.segments_spilled").add(1)


def verify_segment(path: str | Path, rows: int) -> None:
    """Raise :class:`SegmentRowsError` unless ``path`` reads back as ``rows`` rows.

    Reads the ``day`` column, which every query reads, so a damaged segment
    fails here rather than inside the first query.
    """
    _Segment(rows, None, Path(path)).load_columns(("day",))


class MeasurementStore:
    """Struct-of-arrays storage for measurements.

    ``segment_rows`` controls how many pending rows are batched before they
    are sealed into an immutable segment.  Rows stay resident until
    :meth:`spill` writes them into ``spill_dir``, which only a store given
    one can do: a shard worker's or a sweep cell's, whose manifest then
    commits the files.  One store owns its ``spill_dir``.
    """

    DEFAULT_SEGMENT_ROWS = 65_536

    def __init__(
        self,
        segment_rows: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if segment_rows is not None and segment_rows < 1:
            raise ValueError("segment_rows must be positive")
        self.segment_rows = segment_rows or self.DEFAULT_SEGMENT_ROWS
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._segments: list[_Segment] = []
        self._pending: list[dict[str, np.ndarray]] = []
        self._pending_rows = 0
        self._length = 0
        self._version = 0
        self._spill_count = 0
        # Dictionary-encoded value tables (store-level, shared by segments).
        self._url_values: list[URL] = []
        self._url_codes: dict[URL, int] = {}
        self._domain_values: list[str] = []
        self._domain_codes: dict[str, int] = {}
        self._country_values: list[str] = []
        self._country_codes: dict[str, int] = {}
        self._isp_values: list[str] = []
        self._isp_codes: dict[str, int] = {}
        self._family_values: list[str] = []
        self._family_codes: dict[str, int] = {}
        self._origin_values: list[str] = []
        #: ``None`` origins (stripped Referer) encode as -1.
        self._origin_codes: dict[str | None, int] = {None: -1}
        # Query-time caches, all invalidated by version comparison.
        self._column_cache: dict[str, np.ndarray] = {}
        self._column_cache_version = -1
        self._derived_cache: dict[object, object] = {}
        self._derived_cache_version = -1
        # Incremental fold state for the query kernel: unlike
        # ``_derived_cache`` (whole results, discarded on every append)
        # these survive version bumps and track how far into the
        # sealed-segment list they have folded (repro.core.query).
        self._query_states: dict[tuple, object] = {}
        # Client identity codes, encoded on demand up to a row watermark
        # (``len(codes)``).  ``_clients_source`` is ``(store, rows)`` when
        # this store began by adopting ``store``'s first ``rows`` rows,
        # whose codes it takes instead of encoding them.
        self._clients = _ClientCodes()
        self._clients_source: tuple["MeasurementStore", int] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def version(self) -> int:
        """Monotone counter bumped by every append (cache invalidation key)."""
        return self._version

    @property
    def url_values(self) -> Sequence[URL]:
        return self._url_values

    @property
    def domain_values(self) -> Sequence[str]:
        return self._domain_values

    @property
    def country_values(self) -> Sequence[str]:
        return self._country_values

    @property
    def segment_files(self) -> list[Path]:
        """Paths of the segments currently spilled to disk."""
        return [seg.path for seg in self._segments if seg.spilled and seg.path is not None]

    @property
    def rows_in_memory(self) -> int:
        """Rows currently resident (pending plus unspilled segments)."""
        return self._pending_rows + sum(
            seg.length for seg in self._segments if not seg.spilled
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append_columns(
        self,
        *,
        measurement_id: Sequence[str],
        task_type: Sequence[TaskType],
        target_url: Sequence[URL],
        target_domain: Sequence[str],
        outcome: Sequence[TaskOutcome],
        elapsed_ms,
        client_ip: Sequence[str],
        country_code: Sequence[str],
        isp: Sequence[str],
        browser_family: Sequence[str],
        origin_domain: Sequence[str | None],
        day,
        probe_time_ms=None,
        is_automated=None,
    ) -> int:
        """Append ``n`` rows given column-wise, returning ``n``.

        Every argument is either a sequence of length ``n`` in
        :class:`Measurement` field semantics or a :class:`DictColumn`
        (``values`` table + per-row ``indices``), which the store expands
        with one fancy-index after encoding only the table;
        ``probe_time_ms`` entries may be ``None`` (stored as NaN) and
        ``origin_domain`` entries may be ``None`` (stored as code -1).  This
        is the zero-object ingestion path: no per-row :class:`Measurement`
        is ever constructed.  ``measurement_id`` sets the row count; any
        other column of a different length, or a :class:`DictColumn` index
        outside its table, raises :class:`ColumnAlignmentError`, and a
        negative ``day`` or non-finite ``elapsed_ms`` raises
        :class:`ColumnValueError`, both before anything is encoded or
        stored.
        """
        n = _column_length(measurement_id)
        _check_alignment(n, {
            "measurement_id": measurement_id, "task_type": task_type,
            "target_url": target_url, "target_domain": target_domain,
            "outcome": outcome, "elapsed_ms": elapsed_ms, "client_ip": client_ip,
            "country_code": country_code, "isp": isp, "browser_family": browser_family,
            "origin_domain": origin_domain, "day": day, "probe_time_ms": probe_time_ms,
            "is_automated": is_automated,
        })
        if n == 0:
            return 0
        elapsed_ms = np.asarray(elapsed_ms, dtype=np.float64)
        day = np.asarray(day, dtype=np.int32)
        _check_values(elapsed_ms, day)
        chunk = {
            "measurement_id": _string_column(measurement_id),
            "task": self._encode(task_type, _TASK_CODES, None, np.int8),
            "url": self._encode(target_url, self._url_codes, self._url_values, np.int32),
            "domain": self._encode(
                target_domain, self._domain_codes, self._domain_values, np.int32
            ),
            "outcome": self._encode(outcome, _OUTCOME_CODES, None, np.int8),
            "elapsed_ms": elapsed_ms,
            "probe_time_ms": _as_optional_floats(probe_time_ms, n),
            "client_ip": _string_column(client_ip),
            "country": self._encode(
                country_code, self._country_codes, self._country_values, np.int16
            ),
            "isp": self._encode(isp, self._isp_codes, self._isp_values, np.int32),
            "family": self._encode(
                browser_family, self._family_codes, self._family_values, np.int16
            ),
            "origin": self._encode(
                origin_domain, self._origin_codes, self._origin_values, np.int32
            ),
            "day": day,
            "automated": (
                np.zeros(n, dtype=bool)
                if is_automated is None
                else np.asarray(is_automated, dtype=bool)
            ),
        }
        self._append_chunk(chunk, n)
        return n

    def append_rows(self, measurements: "Iterable[Measurement]") -> int:
        """Append already-materialized :class:`Measurement` rows."""
        ms = measurements if isinstance(measurements, (list, tuple)) else list(measurements)
        if not ms:
            return 0
        return self.append_columns(
            measurement_id=[m.measurement_id for m in ms],
            task_type=[m.task_type for m in ms],
            target_url=[m.target_url for m in ms],
            target_domain=[m.target_domain for m in ms],
            outcome=[m.outcome for m in ms],
            elapsed_ms=[m.elapsed_ms for m in ms],
            client_ip=[m.client_ip for m in ms],
            country_code=[m.country_code for m in ms],
            isp=[m.isp for m in ms],
            browser_family=[m.browser_family for m in ms],
            origin_domain=[m.origin_domain for m in ms],
            day=[m.day for m in ms],
            probe_time_ms=[m.probe_time_ms for m in ms],
            is_automated=[m.is_automated for m in ms],
        )

    def _encode(self, values, code_map: dict, value_list: list | None, dtype) -> np.ndarray:
        """Dictionary-encode ``values`` into integer codes.

        A :class:`DictColumn` encodes only its (small) value table and
        broadcasts the codes by fancy-index.  Otherwise the fast path maps
        every value through the existing code table in one C-level pass; the
        first sight of a new value falls back to an inserting scan
        (``value_list is None`` means the table is closed — fixed enum
        encodings — and unknown values are an error).
        """
        if isinstance(values, DictColumn):
            return self._encode(values.values, code_map, value_list, dtype)[values.indices]
        try:
            return np.fromiter(
                map(code_map.__getitem__, values), dtype=dtype, count=len(values)
            )
        except KeyError:
            if value_list is None:
                raise
        out = np.empty(len(values), dtype=dtype)
        get = code_map.get
        for index, value in enumerate(values):
            code = get(value)
            if code is None:
                code = len(value_list)
                code_map[value] = code
                value_list.append(value)
            out[index] = code
        return out

    def _append_chunk(self, chunk: dict[str, np.ndarray], n: int) -> None:
        self._pending.append(chunk)
        self._pending_rows += n
        self._length += n
        self._version += 1
        get_registry().counter("store.rows_ingested").add(n)
        if self._pending_rows >= self.segment_rows:
            self._seal_pending()

    def _seal_pending(self) -> None:
        if not self._pending:
            return
        if len(self._pending) == 1:
            columns = self._pending[0]
        else:
            columns = {
                name: np.concatenate([chunk[name] for chunk in self._pending])
                for name in _COLUMN_NAMES
            }
        self._segments.append(_Segment(self._pending_rows, columns))
        self._pending = []
        self._pending_rows = 0
        get_registry().counter("store.segments_sealed").add(1)

    def seal_pending(self) -> None:
        """Seal the pending row buffer into an immutable segment now.

        Sealed segments are folded into the persistent aggregates behind
        :meth:`query` exactly once; pending rows are re-folded on
        every call (they are still mutable).  Callers that aggregate after
        every small append — the longitudinal monitor after each epoch —
        seal first so per-call work stays proportional to the new rows, not
        to however many epochs fit under ``segment_rows``.
        """
        self._seal_pending()

    def spill(self) -> int:
        """Seal pending rows and spill every resident segment; returns spilled count.

        Each segment becomes a new ``spill_dir/segment-NNNNN.npz``; an existing
        file raises :exc:`FileExistsError`, and a store built without a
        ``spill_dir`` raises :exc:`ValueError` before sealing or writing anything.
        """
        if self._spill_dir is None:
            raise ValueError("spill() needs a store built with a spill_dir")
        self._seal_pending()
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        spilled = 0
        for seg in self._segments:
            if not seg.spilled:
                self._spill_count += 1
                seg.spill(self._spill_dir / f"segment-{self._spill_count:05d}.npz")
                spilled += 1
        self._column_cache.clear()
        self._column_cache_version = -1
        return spilled

    # ------------------------------------------------------------------
    # Segment adoption (multi-process merge support)
    # ------------------------------------------------------------------
    #: Columns whose codes reference store-level value tables (and therefore
    #: need translation when a segment written by another store is adopted).
    DICT_KINDS = ("url", "domain", "country", "isp", "family", "origin")

    def _dict_tables(self, kind: str) -> tuple[dict, list]:
        tables = {
            "url": (self._url_codes, self._url_values),
            "domain": (self._domain_codes, self._domain_values),
            "country": (self._country_codes, self._country_values),
            "isp": (self._isp_codes, self._isp_values),
            "family": (self._family_codes, self._family_values),
            "origin": (self._origin_codes, self._origin_values),
        }
        return tables[kind]

    def value_tables(self) -> dict[str, list]:
        """The dictionary value tables, in code order, per :data:`DICT_KINDS`."""
        return {kind: list(self._dict_tables(kind)[1]) for kind in self.DICT_KINDS}

    def merge_value_table(self, kind: str, values: Sequence) -> np.ndarray:
        """Fold another store's value table into this one; return the translation.

        ``translation[code]`` is this store's code for the foreign store's
        ``code``; the extra tail entry maps the stripped-origin sentinel
        ``-1`` to itself, so translating a foreign code column is one
        fancy-index regardless of sentinels.
        """
        code_map, value_list = self._dict_tables(kind)
        translation = np.empty(len(values) + 1, dtype=np.int64)
        translation[-1] = -1
        for index, value in enumerate(values):
            code = code_map.get(value)
            if code is None:
                code = len(value_list)
                code_map[value] = code
                value_list.append(value)
            translation[index] = code
        return translation

    def adopt_spilled_segment(
        self,
        path: str | Path,
        length: int,
        remap: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Mount a segment ``.npz`` written by another store, without copying rows.

        The file stays where it is and is read on demand like any spilled
        segment; ``remap`` (column name -> translation array, typically from
        :meth:`merge_value_table`) reconciles the writer's dictionary codes
        with this store's at read time.  Pending rows are sealed first so
        store order stays append-consistent.
        """
        if length <= 0:
            return
        self._seal_pending()
        self._segments.append(_Segment(length, None, Path(path), remap=remap))
        self._length += length
        self._version += 1
        registry = get_registry()
        registry.counter("store.segments_adopted").add(1)
        registry.counter("store.rows_adopted").add(length)

    def adopt_segments_from(self, other: "MeasurementStore") -> int:
        """Mount every row of ``other`` into this store without copying any.

        The sibling of :meth:`adopt_spilled_segment` for whole stores:
        resident segments (and pending chunks) are shared by reference,
        spilled segments by path, and ``other``'s dictionary codes are
        reconciled through translation arrays applied lazily at read time —
        composed with any remap ``other`` itself carries for segments *it*
        adopted, so merged (sharded) stores adopt correctly too.  ``other``
        is not mutated and both stores stay independently usable; segment
        arrays are immutable by convention, so sharing is safe.  This is
        what lets an adversarial sweep build one poisoned store per grid
        cell on top of a shared honest corpus in O(segments), not O(rows).
        Adopting into an empty store also links its :meth:`client_codes`
        to ``other``'s, so the shared rows are encoded only once.
        Returns the number of rows adopted.
        """
        if other is self:
            raise ValueError("a store cannot adopt its own segments")
        self._seal_pending()
        translations = {
            kind: self.merge_value_table(kind, values)
            for kind, values in other.value_tables().items()
        }
        identity = {
            kind: _is_identity_translation(translation)
            for kind, translation in translations.items()
        }

        def composed_remap(base: dict[str, np.ndarray] | None) -> dict[str, np.ndarray] | None:
            remap: dict[str, np.ndarray] = {}
            for kind, translation in translations.items():
                own = None if base is None else base.get(kind)
                if own is None:
                    if not identity[kind]:
                        remap[kind] = translation
                elif identity[kind]:
                    remap[kind] = own
                else:
                    # own's tail sentinel (-1) indexes translation's own
                    # tail, so the composition keeps mapping -1 -> -1.
                    remap[kind] = translation[own]
            return remap or None

        adopted = 0
        for seg in other._segments:
            self._segments.append(
                _Segment(seg.length, seg.columns, seg.path, remap=composed_remap(seg.remap))
            )
            adopted += seg.length
        for chunk in other._pending:
            length = len(chunk["day"])
            self._segments.append(_Segment(length, chunk, None, remap=composed_remap(None)))
            adopted += length
        if not self._length and adopted:
            # Our rows now begin with all of other's: take its client codes.
            self._clients_source = (other, adopted)
        self._length += adopted
        self._version += 1
        registry = get_registry()
        registry.counter("store.segments_adopted").add(
            len(other._segments) + len(other._pending)
        )
        registry.counter("store.rows_adopted").add(adopted)
        return adopted

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The full column ``name``, transparently concatenated across segments.

        Spilled segments are read back on demand; only the requested column
        is loaded from each ``.npz``, so queries that never touch the string
        columns never pay for them.
        """
        if name not in _COLUMN_DTYPES:
            raise KeyError(f"unknown column {name!r}")
        if self._column_cache_version != self._version:
            self._column_cache.clear()
            self._column_cache_version = self._version
        cached = self._column_cache.get(name)
        if cached is None:
            parts = [seg.column(name) for seg in self._segments]
            parts.extend(chunk[name] for chunk in self._pending)
            if not parts:
                cached = np.empty(0, dtype=_COLUMN_DTYPES[name])
            elif len(parts) == 1:
                cached = parts[0]
            else:
                cached = np.concatenate(parts)
            # Keeping a concatenated *string* column alive on a spilled
            # store would quietly grow memory back to full-corpus size; the
            # small code/numeric columns are the ones queries hit repeatedly.
            if _COLUMN_DTYPES[name].kind != "U" or not any(
                seg.spilled for seg in self._segments
            ):
                self._column_cache[name] = cached
        return cached

    def columns_from(self, names: Sequence[str], start: int) -> dict[str, np.ndarray]:
        """Rows ``start`` onward of each column in ``names``, reading only their segments.

        Segments (and pending chunks) wholly before ``start`` are never
        opened, and each one after it is opened once for all ``names`` —
        how an adversarial sweep reads a poisoned store's forged rows
        without re-reading the honest segments in front of them.
        """
        for name in names:
            if name not in _COLUMN_DTYPES:
                raise KeyError(f"unknown column {name!r}")
        sources = [(seg.length, seg.load_columns) for seg in self._segments]
        sources += [
            (len(chunk["day"]), lambda wanted, chunk=chunk: {n: chunk[n] for n in wanted})
            for chunk in self._pending
        ]
        pieces: dict[str, list[np.ndarray]] = {name: [] for name in names}
        offset = 0
        for length, load in sources:
            if offset + length > start:
                part = load(names)
                for name in names:
                    pieces[name].append(part[name][max(start - offset, 0):])
            offset += length
        return {
            name: np.concatenate(parts) if parts else np.empty(0, dtype=_COLUMN_DTYPES[name])
            for name, parts in pieces.items()
        }

    def client_codes(self) -> np.ndarray:
        """Per-row client identity codes: rows share a code iff they share ``client_ip``.

        Encoded on first use, not at ingest, and cached like the query
        kernel's fold-once watermark: later calls encode only the rows
        appended since, and a code never changes once assigned.  A store
        that began by adopting another (:meth:`adopt_segments_from` into an
        empty store) takes the codes of those rows from its source —
        computing them there first if needed, so every store adopting the
        same source shares one encoding.  What stays resident is the codes
        (int32 per row) and one table of distinct addresses at a byte per
        character, with an int32 sort order; ``column("client_ip")`` still
        returns the strings.
        """
        if self._clients_source is not None:
            source, rows = self._clients_source
            self._clients_source = None
            codes = source.client_codes()[:rows]
            self._clients = _ClientCodes(codes, source._clients.values, source._clients.order)
            get_registry().counter("store.client_codes_reused").add(rows)
        clients = self._clients
        start = len(clients.codes)
        if start == self._length:
            return clients.codes
        # A resident store encodes in one batch.  A spilled one encodes a
        # batch whenever the segments read reach ``segment_rows``, so it
        # holds about one segment of its address strings at a time.
        limit = self._length
        if any(seg.spilled for seg in self._segments):
            limit = self.segment_rows
        readers = [(seg.length, seg.column) for seg in self._segments]
        readers += [(len(chunk["day"]), chunk.__getitem__) for chunk in self._pending]
        codes = [clients.codes]
        batch: list[np.ndarray] = []
        batched = offset = 0
        for length, read in readers:
            if offset + length > start:  # segments wholly encoded are never read
                batch.append(_ascii_bytes(read("client_ip")[max(start - offset, 0):]))
                batched += len(batch[-1])
                if batched >= limit:
                    codes.append(clients.encode(np.concatenate(batch)))
                    batch, batched = [], 0
            offset += length
        if batch:
            codes.append(clients.encode(np.concatenate(batch)))
        clients.codes = np.concatenate(codes)
        get_registry().counter("store.client_codes_encoded").add(self._length - start)
        return clients.codes

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def row_mask(
        self,
        domain: str | None = None,
        country_code: str | None = None,
        task_type: TaskType | None = None,
        *,
        domain_suffix: str | None = None,
        exclude_automated: bool = True,
        exclude_inconclusive: bool = True,
    ) -> np.ndarray:
        """A boolean mask over the store's rows matching the given criteria.

        Automated traffic and inconclusive outcomes are excluded by default
        (paper §7.1), and each criterion narrows the mask.  Reduce it with
        ``query(mask=...)``, index a :meth:`column` with it, or materialize
        its rows with ``rows(np.flatnonzero(mask))``.
        """
        mask = np.ones(len(self), dtype=bool)
        if exclude_automated:
            mask &= ~self.column("automated")
        if exclude_inconclusive:
            mask &= self.column("outcome") != OUTCOME_INCONCLUSIVE
        if domain is not None:
            code = self._domain_codes.get(domain)
            if code is None:
                mask[:] = False
            else:
                mask &= self.column("domain") == code
        if domain_suffix is not None:
            codes = [
                code
                for value, code in self._domain_codes.items()
                if value.endswith(domain_suffix)
            ]
            mask &= np.isin(self.column("domain"), codes)
        if country_code is not None:
            code = self._country_codes.get(country_code)
            if code is None:
                mask[:] = False
            else:
                mask &= self.column("country") == code
        if task_type is not None:
            mask &= self.column("task") == _TASK_CODES[task_type]
        return mask

    def _segment_chunks(self, names: Sequence[str]):
        """Yield ``(offset, length, columns)`` segment-by-segment (pending too).

        The query kernel's streaming surface: each spilled ``.npz`` is
        opened once for all requested columns, nothing is ever concatenated
        into a full-corpus array, and the running row offset lets a caller
        slice a store-wide mask per segment.
        """
        offset = 0
        for seg in self._segments:
            yield offset, seg.length, seg.load_columns(names)
            offset += seg.length
        for chunk in self._pending:
            length = len(chunk["day"])
            yield offset, length, {name: chunk[name] for name in names}
            offset += length

    def query(
        self,
        keys: Sequence[str] = ("domain", "country"),
        aggregates=None,
        *,
        mask: np.ndarray | None = None,
        exclude_automated: bool = True,
        exclude_inconclusive: bool = True,
        shape: str = "cells",
    ):
        """Group rows by ``keys`` and reduce with ``aggregates`` — the one
        query surface every reduction goes through.

        ``keys`` is any subset of ``("domain", "country", "day",
        "family")``; ``aggregates`` are specs from :mod:`repro.core.query`
        (:class:`~repro.core.query.Count`,
        :class:`~repro.core.query.SuccessCount`,
        ``Quantiles("elapsed_ms", qs)``, ``DistinctCount("client_ip")``),
        defaulting to ``(Count(), SuccessCount())``.  ``mask`` restricts
        to a row subset and must be a boolean array (a non-boolean one
        raises ``TypeError``); ``shape="dense"`` returns full key-space
        accumulator arrays instead of per-group cells (foldable maskless
        queries only).
        Maskless all-foldable queries advance a fold-once incremental
        accumulator (each sealed segment folded exactly once over the
        store's lifetime), so an always-on monitor's per-call cost tracks
        the new rows.  See ``docs/query_api.md`` for the model and the
        kernel's wrappers.
        """
        from repro.core import query as _query

        return _query.run_query(
            self,
            keys,
            _query._COUNT_AGGS if aggregates is None else aggregates,
            mask=mask,
            exclude_automated=exclude_automated,
            exclude_inconclusive=exclude_inconclusive,
            shape=shape,
        )

    def _derived(self, key):
        if self._derived_cache_version != self._version:
            self._derived_cache.clear()
            self._derived_cache_version = self._version
        return self._derived_cache.get(key)

    def _derive(self, key, value):
        self._derived_cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Row materialization (the backward-compatible view)
    # ------------------------------------------------------------------
    def rows(self, indices: np.ndarray | Sequence[int] | None = None) -> "list[Measurement]":
        """Materialize rows as :class:`Measurement` dataclasses, in store order.

        ``indices`` are row positions (``np.flatnonzero(mask)`` for a
        :meth:`row_mask`); a boolean array raises ``TypeError`` rather than
        being read as positions 0 and 1.
        """
        from repro.core.collection import Measurement  # deferred: collection imports us

        if indices is not None:
            indices = np.asarray(indices)
            if indices.dtype == bool:
                raise TypeError(
                    "rows() takes row indices, not a boolean mask; "
                    "pass np.flatnonzero(mask)"
                )
            indices = indices.astype(np.int64, copy=False)

        def pick(name: str) -> list:
            col = self.column(name)
            if indices is not None:
                col = col[indices]
            return col.tolist()

        urls = self._url_values
        domains = self._domain_values
        countries = self._country_values
        isps = self._isp_values
        families = self._family_values
        origins = self._origin_values
        return [
            Measurement(
                measurement_id=mid,
                task_type=TASK_TYPES[task],
                target_url=urls[url],
                target_domain=domains[dom],
                outcome=OUTCOMES[out],
                elapsed_ms=elapsed,
                client_ip=ip,
                country_code=countries[country],
                isp=isps[isp_code],
                browser_family=families[family],
                origin_domain=origins[origin] if origin >= 0 else None,
                day=day,
                probe_time_ms=None if probe != probe else probe,
                is_automated=automated,
            )
            for mid, task, url, dom, out, elapsed, probe, ip, country, isp_code,
                family, origin, day, automated in zip(
                pick("measurement_id"), pick("task"), pick("url"), pick("domain"),
                pick("outcome"), pick("elapsed_ms"), pick("probe_time_ms"),
                pick("client_ip"), pick("country"), pick("isp"), pick("family"),
                pick("origin"), pick("day"), pick("automated"),
            )
        ]


def _is_identity_translation(translation: np.ndarray) -> bool:
    """True when a :meth:`MeasurementStore.merge_value_table` result is a no-op.

    Adopting into a store whose tables already list the same values in the
    same order (e.g. a fresh store) yields identity translations; skipping
    them keeps reads of adopted columns copy-free.
    """
    return bool(
        np.array_equal(translation[:-1], np.arange(len(translation) - 1))
    )


def _string_column(values) -> np.ndarray:
    """A per-row unicode array from a plain sequence or a :class:`DictColumn`."""
    if isinstance(values, DictColumn):
        return np.asarray(values.values, dtype=np.str_)[values.indices]
    return np.asarray(values, dtype=np.str_)


def _as_optional_floats(values, n: int) -> np.ndarray:
    """Float column from a sequence that may contain ``None`` (stored as NaN)."""
    if values is None:
        return np.full(n, np.nan)
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return values.astype(np.float64, copy=False)
    return np.fromiter(
        (np.nan if value is None else value for value in values),
        dtype=np.float64,
        count=n,
    )

"""One group-by kernel behind every store reduction.

Every reduction over a :class:`MeasurementStore` — per-(domain,
country) success counts, masked counts, the success and timing day
series, the distinct-client count — is one call into this module's
engine:

* **Composable keys.**  Any subset of the dictionary-encoded / small-domain
  columns — ``domain``, ``country``, ``day``, ``isp``, ``family``, ``task`` —
  composes into a single flat bincount key (``(((k0 * c1) + k1) * c2) + k2``),
  reusing the store's dictionary codes, so adding a grouping dimension is a
  tuple entry, not a new thousand-line reduction.
* **Pluggable aggregates.**  :class:`Count`, :class:`SuccessCount`, and
  :class:`Sum` fold segment-by-segment into dense bincount accumulators;
  :class:`Quantiles` and :class:`DistinctCount` gather per-group values in
  one streamed pass (per-segment deduplication keeps distinct counting from
  ever concatenating a full string column).
* **Row masks.**  An optional boolean mask over the whole store restricts
  the reduction (the reputation filter's re-detection path) without
  materializing the surviving rows.
* **Fold-once incrementality.**  A maskless query whose aggregates all fold
  rides a persistent per-store accumulator with a sealed-segment watermark
  (``_QueryFoldState``): each sealed segment is folded exactly once over the
  store's lifetime, pending chunks only ever touch a per-call snapshot, so
  an always-on monitor's per-epoch aggregation cost tracks the *new* rows.
  This is the PR 6 contract, now owned by the kernel and shared by every
  foldable query with the same signature.

The wrappers at the end of this module (:func:`grouped_success_counts`,
:func:`masked_grouped_success_counts`, :func:`distinct_ip_count`,
:func:`timing_day_series`) are the reduction API.  They return the
kernel's own :class:`QueryResult`, or a dense
:class:`~repro.core.store.DaySeries` per (domain, country) pair for the
CUSUM detectors, and each is pinned to the one scalar reference
:func:`run_query_reference` by equivalence tests; ``repro-lint``'s
``segment-streaming`` rule keeps new hand-rolled segment loops from
growing back outside this module.

Telemetry follows the observer-effect ban: the kernel bumps write-only
counters (``store.query_folds`` and the PR 6 ``store.fold_advances`` /
``store.segments_folded``) and opens per-aggregate spans only on the tracer
it is handed — ``NULL_TRACER`` unless a caller opts in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.store import (
    OUTCOME_INCONCLUSIVE,
    OUTCOME_SUCCESS,
    TASK_TYPES,
    DaySeries,
    pair_day_matrices,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - type-only import (store imports us lazily)
    from repro.core.store import MeasurementStore

#: Key name -> the store column its codes come from.
KEY_COLUMNS = {
    "domain": "domain",
    "country": "country",
    "day": "day",
    "isp": "isp",
    "family": "family",
    "task": "task",
}

#: Numeric columns :class:`Sum` and :class:`Quantiles` accept.
NUMERIC_COLUMNS = ("elapsed_ms", "probe_time_ms", "day")

#: Columns :class:`DistinctCount` accepts (strings or small codes).
DISTINCT_COLUMNS = (
    "client_ip", "measurement_id", "domain", "country", "isp", "family", "url",
)


# ----------------------------------------------------------------------
# Aggregate specifications
# ----------------------------------------------------------------------
class Aggregate:
    """Base class for query aggregates.

    ``foldable`` aggregates reduce to a dense per-group accumulator a plain
    ``np.bincount`` can advance segment-by-segment (and therefore ride the
    incremental fold state); gather aggregates (quantiles, distinct counts)
    need per-group row values and run in one streamed pass per store version.
    ``columns`` names the row columns the aggregate reads beyond the query's
    keys and filters.
    """

    foldable = False
    columns: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        raise NotImplementedError

    def state_key(self) -> tuple:
        """Hashable identity (cache and fold-state key component)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Aggregate) and self.state_key() == other.state_key()

    def __hash__(self) -> int:
        return hash(self.state_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}{self.state_key()[1:]}"


class Count(Aggregate):
    """Rows per group (after filters and mask)."""

    foldable = True

    @property
    def name(self) -> str:
        return "count"

    def state_key(self) -> tuple:
        return ("count",)


class SuccessCount(Aggregate):
    """Rows per group whose outcome is ``SUCCESS``."""

    foldable = True
    columns = ("outcome",)

    @property
    def name(self) -> str:
        return "success_count"

    def state_key(self) -> tuple:
        return ("success_count",)


class Sum(Aggregate):
    """Per-group sum of a numeric column (float64 accumulator).

    Float addition order follows segment order, so sums are deterministic
    for a given segmentation but are not pinned bit-identical across
    different spill layouts (counts are; see ``docs/query_api.md``).
    """

    foldable = True

    def __init__(self, column: str) -> None:
        if column not in NUMERIC_COLUMNS:
            raise ValueError(f"Sum() supports {NUMERIC_COLUMNS}, not {column!r}")
        self.column = column
        self.columns = (column,)

    @property
    def name(self) -> str:
        return f"sum_{self.column}"

    def state_key(self) -> tuple:
        return ("sum", self.column)


class Quantiles(Aggregate):
    """Per-group interpolated quantiles of a numeric column.

    Matches ``np.quantile``'s default linear interpolation bit-for-bit (the
    same sorted values through the same lerp), which is what lets the scalar
    reference twin pin the vectorized path exactly.
    """

    def __init__(self, column: str, qs: Sequence[float] = (0.5, 0.9, 0.99)) -> None:
        if column not in NUMERIC_COLUMNS:
            raise ValueError(
                f"Quantiles() supports {NUMERIC_COLUMNS}, not {column!r}"
            )
        qs = tuple(float(q) for q in qs)
        if not qs or any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError("quantiles must be a non-empty tuple within [0, 1]")
        self.column = column
        self.qs = qs
        self.columns = (column,)

    @property
    def name(self) -> str:
        return f"quantiles_{self.column}"

    def state_key(self) -> tuple:
        return ("quantiles", self.column, self.qs)


class DistinctCount(Aggregate):
    """Distinct values of a column per group.

    Streamed with per-segment deduplication: each segment contributes only
    its unique (group, value) pairs, so distinct-counting a spilled store's
    ``client_ip`` never concatenates the full string column.
    """

    def __init__(self, column: str) -> None:
        if column not in DISTINCT_COLUMNS:
            raise ValueError(
                f"DistinctCount() supports {DISTINCT_COLUMNS}, not {column!r}"
            )
        self.column = column
        self.columns = (column,)

    @property
    def name(self) -> str:
        return f"distinct_{self.column}"

    def state_key(self) -> tuple:
        return ("distinct", self.column)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class QueryResult:
    """Per-group aggregate values, one row per non-empty group.

    Groups are sorted by their decoded key tuple in declared key order (for
    the success wrappers, ``(domain, country)``).
    ``keys[name]`` are the decoded key arrays, ``values[i]`` lines up with
    ``aggregates[i]`` (a ``(groups, len(qs))`` matrix for
    :class:`Quantiles`, a 1-D array otherwise), and ``extents[name]`` is the
    key's axis cardinality at query time — for ``day``, one past the largest
    day among the rows the query saw.
    """

    __slots__ = ("key_names", "keys", "aggregates", "values", "extents")

    def __init__(
        self,
        key_names: tuple[str, ...],
        keys: dict[str, np.ndarray],
        aggregates: tuple[Aggregate, ...],
        values: tuple[np.ndarray, ...],
        extents: dict[str, int],
    ) -> None:
        self.key_names = key_names
        self.keys = keys
        self.aggregates = aggregates
        self.values = values
        self.extents = extents

    def __len__(self) -> int:
        return len(self.values[0]) if self.values else 0

    def key(self, name: str) -> np.ndarray:
        return self.keys[name]

    def value(self, aggregate: "Aggregate | str | int") -> np.ndarray:
        """The value array for one aggregate (by spec, name, or position)."""
        if isinstance(aggregate, int):
            return self.values[aggregate]
        for spec, column in zip(self.aggregates, self.values):
            if spec == aggregate or spec.name == aggregate:
                return column
        raise KeyError(f"no aggregate {aggregate!r} in this result")

    def as_dict(self) -> dict[tuple, tuple]:
        """``{key_tuple: value_tuple}`` with plain Python scalars.

        Quantile entries are tuples of floats; everything else is a scalar.
        """
        out: dict[tuple, tuple] = {}
        for index in range(len(self)):
            group = tuple(
                self.keys[name][index].item() for name in self.key_names
            )
            row = []
            for spec, column in zip(self.aggregates, self.values):
                if isinstance(spec, Quantiles):
                    row.append(tuple(float(v) for v in column[index]))
                else:
                    row.append(column[index].item())
            out[group] = tuple(row)
        return out


class DenseResult:
    """Dense per-key-cell accumulator arrays from a foldable, maskless query.

    ``values[i]`` is shaped ``tuple(extents[name] for name in key_names)``
    and lines up with ``aggregates[i]``; empty cells hold zero.  The arrays
    are read-only views over the incremental fold state, valid until the
    store's next append — callers that outlive a mutation copy what they
    keep (the monitor's day-series wrapper fancy-indexes, which copies).
    """

    __slots__ = ("key_names", "aggregates", "values", "extents")

    def __init__(
        self,
        key_names: tuple[str, ...],
        aggregates: tuple[Aggregate, ...],
        values: tuple[np.ndarray, ...],
        extents: dict[str, int],
    ) -> None:
        self.key_names = key_names
        self.aggregates = aggregates
        self.values = values
        self.extents = extents

    def value(self, aggregate: "Aggregate | str | int") -> np.ndarray:
        if isinstance(aggregate, int):
            return self.values[aggregate]
        for spec, column in zip(self.aggregates, self.values):
            if spec == aggregate or spec.name == aggregate:
                return column
        raise KeyError(f"no aggregate {aggregate!r} in this result")


# ----------------------------------------------------------------------
# Key axes
# ----------------------------------------------------------------------
def _axis_tables(store: "MeasurementStore", key: str):
    tables = {
        "domain": store._domain_values,
        "country": store._country_values,
        "isp": store._isp_values,
        "family": store._family_values,
    }
    return tables.get(key)


def _axis_extent(store: "MeasurementStore", key: str) -> int | None:
    """Current cardinality of a key axis; ``None`` for the dynamic day axis."""
    if key == "day":
        return None
    if key == "task":
        return len(TASK_TYPES)
    return len(_axis_tables(store, key))


def _decode_axis(store: "MeasurementStore", key: str, codes: np.ndarray) -> np.ndarray:
    """Per-group decoded key values from axis codes."""
    if key == "day":
        return codes
    if key == "task":
        table = np.asarray([t.value for t in TASK_TYPES], dtype=np.str_)
    else:
        table = np.asarray(_axis_tables(store, key), dtype=np.str_)
    return table[codes]


def _validate(keys, aggregates, mask, shape, store) -> np.ndarray | None:
    if shape not in ("cells", "dense"):
        raise ValueError(f"shape must be 'cells' or 'dense', not {shape!r}")
    seen = []
    for key in keys:
        if key not in KEY_COLUMNS:
            raise KeyError(
                f"unknown query key {key!r}; supported: {tuple(KEY_COLUMNS)}"
            )
        if key in seen:
            raise ValueError(f"duplicate query key {key!r}")
        seen.append(key)
    if not aggregates:
        raise ValueError("a query needs at least one aggregate")
    for spec in aggregates:
        if not isinstance(spec, Aggregate):
            raise TypeError(f"{spec!r} is not an Aggregate")
    if shape == "dense":
        if mask is not None:
            raise ValueError("shape='dense' does not support masks")
        if not all(spec.foldable for spec in aggregates):
            raise ValueError("shape='dense' needs foldable aggregates only")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(store):
            raise ValueError(
                f"mask has {len(mask)} entries for a store of {len(store)} rows"
            )
    return mask


def _needed_columns(keys, aggregates, exclude_automated, exclude_inconclusive):
    needed = [KEY_COLUMNS[key] for key in keys]

    def want(name: str) -> None:
        if name not in needed:
            needed.append(name)

    if exclude_inconclusive:
        want("outcome")
    if exclude_automated:
        want("automated")
    for spec in aggregates:
        for name in spec.columns:
            want(name)
    if not needed:
        # Degenerate query (no keys, Count only, no filters): any cheap
        # column works to size the parts.
        needed.append("day")
    return tuple(needed)


def _valid_rows(part, mask_part, exclude_automated, exclude_inconclusive, length):
    valid = np.ones(length, dtype=bool)
    if mask_part is not None:
        valid &= mask_part
    if exclude_inconclusive:
        valid &= part["outcome"] != OUTCOME_INCONCLUSIVE
    if exclude_automated:
        valid &= ~part["automated"]
    return valid


# ----------------------------------------------------------------------
# Incremental fold state (the PR 6 watermark, generalized)
# ----------------------------------------------------------------------
class _QueryFoldState:
    """Persistent fold accumulators for one foldable query signature.

    Holds one dense array per foldable aggregate over the composed key
    space, plus a watermark of how many *sealed* segments have been folded.
    Sealed segments are immutable, so each is folded exactly once over the
    store's lifetime; pending chunks are only ever folded into a per-call
    :meth:`snapshot`.  Dictionary axes are padded when the store's value
    tables grow (codes are stable once assigned, so old folds stay valid);
    the day axis grows geometrically so per-segment copies amortize.
    """

    __slots__ = (
        "key_names", "agg_specs", "exclude_automated", "exclude_inconclusive",
        "segments_folded", "extents", "capacities", "arrays",
    )

    def __init__(
        self,
        key_names: tuple[str, ...],
        agg_specs: tuple[Aggregate, ...],
        exclude_automated: bool,
        exclude_inconclusive: bool,
    ) -> None:
        self.key_names = key_names
        self.agg_specs = agg_specs
        self.exclude_automated = exclude_automated
        self.exclude_inconclusive = exclude_inconclusive
        self.segments_folded = 0
        self.extents = [0] * len(key_names)    #: logical axis widths
        self.capacities = [0] * len(key_names)  #: allocated axis widths
        shape = tuple(self.capacities)
        self.arrays = {
            spec.state_key(): np.zeros(
                shape, dtype=np.float64 if isinstance(spec, Sum) else np.int64
            )
            for spec in agg_specs
        }

    def snapshot(self) -> "_QueryFoldState":
        """A deep copy pending chunks can be folded into without corrupting us."""
        copy = _QueryFoldState(
            self.key_names, self.agg_specs,
            self.exclude_automated, self.exclude_inconclusive,
        )
        copy.extents = list(self.extents)
        copy.capacities = list(self.capacities)
        copy.arrays = {key: array.copy() for key, array in self.arrays.items()}
        return copy

    def grow_axes(self, store: "MeasurementStore") -> None:
        """Pad the non-day axes out to the store's current table sizes."""
        for axis, key in enumerate(self.key_names):
            extent = _axis_extent(store, key)
            if extent is None or extent <= self.capacities[axis]:
                continue
            pad = [(0, 0)] * len(self.key_names)
            pad[axis] = (0, extent - self.capacities[axis])
            self.arrays = {
                state_key: np.pad(array, pad)
                for state_key, array in self.arrays.items()
            }
            self.capacities[axis] = extent
            self.extents[axis] = extent

    def _grow_day(self, axis: int, segment_days: int) -> None:
        """Widen the day axis to ``segment_days`` (geometric allocation)."""
        if segment_days <= self.extents[axis]:
            return
        if segment_days > self.capacities[axis]:
            capacity = max(segment_days, 2 * self.capacities[axis])
            pad = [(0, 0)] * len(self.key_names)
            pad[axis] = (0, capacity - self.capacities[axis])
            self.arrays = {
                state_key: np.pad(array, pad)
                for state_key, array in self.arrays.items()
            }
            self.capacities[axis] = capacity
        self.extents[axis] = segment_days

    def fold(self, part: dict[str, np.ndarray]) -> None:
        """Accumulate one segment's (or pending chunk's) columns."""
        valid = _valid_rows(
            part, None, self.exclude_automated, self.exclude_inconclusive,
            len(part[next(iter(part))]),
        )
        codes = []
        for axis, key in enumerate(self.key_names):
            axis_codes = part[KEY_COLUMNS[key]][valid].astype(np.int64, copy=False)
            if key == "day" and axis_codes.size:
                # Later segments may reveal later days (longitudinal ingest
                # is strictly day-ordered, so this happens per segment).
                self._grow_day(axis, int(axis_codes.max()) + 1)
            codes.append(axis_codes)
        if codes and not codes[0].size:
            return
        if not codes:
            if not valid.any():
                return
            flat = np.zeros(int(np.count_nonzero(valid)), dtype=np.int64)
        else:
            flat = codes[0].astype(np.int64)
            for axis_codes, capacity in zip(codes[1:], self.capacities[1:]):
                flat = flat * capacity + axis_codes
        shape = tuple(self.capacities) if self.key_names else ()
        minlength = math.prod(shape) if self.key_names else 1
        for spec in self.agg_specs:
            array = self.arrays[spec.state_key()]
            flat_view = array.reshape(-1)
            if isinstance(spec, SuccessCount):
                selected = flat[part["outcome"][valid] == OUTCOME_SUCCESS]
                flat_view += np.bincount(selected, minlength=minlength)
            elif isinstance(spec, Sum):
                flat_view += np.bincount(
                    flat,
                    weights=part[spec.column][valid].astype(np.float64, copy=False),
                    minlength=minlength,
                )
            else:  # Count
                flat_view += np.bincount(flat, minlength=minlength)

    def sliced(self, state_key: tuple) -> np.ndarray:
        """One accumulator trimmed to logical extents (a view)."""
        array = self.arrays[state_key]
        if self.extents == self.capacities:
            return array
        return array[tuple(slice(0, extent) for extent in self.extents)]


def _fold_state_key(keys, agg_specs, exclude_automated, exclude_inconclusive):
    return (
        keys,
        tuple(spec.state_key() for spec in agg_specs),
        exclude_automated,
        exclude_inconclusive,
    )


def _fold_specs(aggregates) -> tuple[Aggregate, ...]:
    """The deduped accumulator set: requested aggregates plus a presence count."""
    specs: list[Aggregate] = [Count()]
    for spec in aggregates:
        if spec.state_key() not in [s.state_key() for s in specs]:
            specs.append(spec)
    return tuple(specs)


def _advanced_fold_state(
    store: "MeasurementStore",
    keys: tuple[str, ...],
    agg_specs: tuple[Aggregate, ...],
    exclude_automated: bool,
    exclude_inconclusive: bool,
) -> _QueryFoldState:
    """The fold-once accumulator, advanced over all unfolded rows.

    Sealed segments past the watermark fold into the persistent state
    exactly once; pending chunks (not immutable yet — the next seal rebinds
    them into a segment) only ever touch a snapshot copy, which is what gets
    returned in that case.
    """
    state_key = _fold_state_key(keys, agg_specs, exclude_automated, exclude_inconclusive)
    state = store._query_states.get(state_key)
    if state is None:
        state = store._query_states[state_key] = _QueryFoldState(
            keys, agg_specs, exclude_automated, exclude_inconclusive
        )
    state.grow_axes(store)
    names = _needed_columns(keys, agg_specs, exclude_automated, exclude_inconclusive)
    unfolded = len(store._segments) - state.segments_folded
    for seg in store._segments[state.segments_folded:]:
        state.fold(seg.load_columns(names))
    state.segments_folded = len(store._segments)
    if unfolded:
        registry = get_registry()
        registry.counter("store.fold_advances").add(1)
        registry.counter("store.segments_folded").add(unfolded)
        registry.counter("store.query_folds").add(unfolded)
    view = state
    if store._pending:
        view = state.snapshot()
        for chunk in store._pending:
            view.fold({name: chunk[name] for name in names})
        get_registry().counter("store.query_folds").add(len(store._pending))
    return view


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def run_query(
    store: "MeasurementStore",
    keys: Sequence[str] = ("domain", "country"),
    aggregates: Sequence[Aggregate] = (Count(), SuccessCount()),
    *,
    mask: np.ndarray | None = None,
    exclude_automated: bool = True,
    exclude_inconclusive: bool = True,
    shape: str = "cells",
    tracer=NULL_TRACER,
) -> "QueryResult | DenseResult":
    """Group ``store`` rows by ``keys`` and reduce with ``aggregates``.

    The one engine behind every store reduction; see the module docstring
    for the model and ``docs/query_api.md`` for the wrappers built on it.
    Maskless results are cached per store version; maskless all-foldable
    queries additionally advance the fold-once incremental state instead of
    rescanning history.
    """
    keys = tuple(keys)
    aggregates = tuple(aggregates)
    mask = _validate(keys, aggregates, mask, shape, store)
    cache_key = None
    if mask is None:
        cache_key = (
            "query", keys, tuple(spec.state_key() for spec in aggregates),
            exclude_automated, exclude_inconclusive, shape,
        )
        cached = store._derived(cache_key)
        if cached is not None:
            return cached
    foldable = mask is None and all(spec.foldable for spec in aggregates)
    with tracer.span(
        "store.query", keys=",".join(keys), shape=shape,
        path="fold" if foldable else "stream",
    ):
        if foldable:
            result = _run_fold(store, keys, aggregates, exclude_automated,
                               exclude_inconclusive, shape)
        else:
            result = _run_stream(store, keys, aggregates, mask,
                                 exclude_automated, exclude_inconclusive, tracer)
    if cache_key is not None:
        store._derive(cache_key, result)
    return result


def _empty_result(store, keys, aggregates) -> QueryResult:
    extents = {
        key: (_axis_extent(store, key) or 0) for key in keys
    }
    empty_keys = {
        key: _decode_axis(store, key, np.empty(0, dtype=np.int64)) for key in keys
    }
    values = tuple(
        np.zeros((0, len(spec.qs))) if isinstance(spec, Quantiles)
        else np.zeros(0, dtype=np.float64 if isinstance(spec, Sum) else np.int64)
        for spec in aggregates
    )
    return QueryResult(keys, empty_keys, aggregates, values, extents)


def _run_fold(store, keys, aggregates, exclude_automated, exclude_inconclusive, shape):
    agg_specs = _fold_specs(aggregates)
    if len(store) == 0:
        if shape == "dense":
            extents = {key: (_axis_extent(store, key) or 0) for key in keys}
            values = tuple(
                np.zeros(
                    tuple(extents[key] for key in keys),
                    dtype=np.float64 if isinstance(spec, Sum) else np.int64,
                )
                for spec in aggregates
            )
            return DenseResult(keys, aggregates, values, extents)
        return _empty_result(store, keys, aggregates)
    view = _advanced_fold_state(
        store, keys, agg_specs, exclude_automated, exclude_inconclusive
    )
    extents = {key: extent for key, extent in zip(keys, view.extents)}
    if shape == "dense":
        values = []
        for spec in aggregates:
            array = view.sliced(spec.state_key()).view()
            array.flags.writeable = False
            values.append(array)
        return DenseResult(keys, aggregates, tuple(values), extents)
    count_flat = view.sliced(("count",)).ravel()
    cells = np.flatnonzero(count_flat)
    dense = {
        spec.state_key(): view.sliced(spec.state_key()).ravel()[cells]
        for spec in aggregates
    }
    return _cells_result(
        store, keys, aggregates, cells,
        [view.extents[axis] for axis in range(len(keys))],
        lambda spec, order: dense[spec.state_key()][order],
    )


def _cells_result(store, keys, aggregates, cells, extents, value_of):
    """Decode flat cell indices, sort by decoded keys, assemble the result."""
    codes = []
    remaining = cells
    for extent in reversed(extents):
        if len(cells):
            codes.append(remaining % extent)
            remaining = remaining // extent
        else:
            codes.append(np.empty(0, dtype=np.int64))
    codes.reverse()
    decoded = [
        _decode_axis(store, key, axis_codes)
        for key, axis_codes in zip(keys, codes)
    ]
    if len(cells) and decoded:
        order = np.lexsort(tuple(reversed(decoded)))
    else:
        order = np.arange(len(cells))
    values = tuple(value_of(spec, order) for spec in aggregates)
    return QueryResult(
        tuple(keys),
        {key: axis[order] for key, axis in zip(keys, decoded)},
        tuple(aggregates),
        values,
        {key: extent for key, extent in zip(keys, extents)},
    )


def _run_stream(store, keys, aggregates, mask, exclude_automated,
                exclude_inconclusive, tracer):
    names = _needed_columns(keys, aggregates, exclude_automated, exclude_inconclusive)
    key_columns = tuple(KEY_COLUMNS[key] for key in keys)
    distinct_specs = [s for s in aggregates if isinstance(s, DistinctCount)]
    gather_columns = []
    for spec in aggregates:
        if isinstance(spec, (Quantiles, Sum)) and spec.column not in gather_columns:
            gather_columns.append(spec.column)
    want_success = any(isinstance(spec, SuccessCount) for spec in aggregates)

    axis_parts: list[list[np.ndarray]] = [[] for _ in keys]
    gather_parts: dict[str, list[np.ndarray]] = {name: [] for name in gather_columns}
    success_parts: list[np.ndarray] = []
    distinct_parts: dict[tuple, list] = {spec.state_key(): [] for spec in distinct_specs}
    n_valid = 0

    for offset, length, part in store._segment_chunks(names):
        mask_part = mask[offset:offset + length] if mask is not None else None
        valid = _valid_rows(
            part, mask_part, exclude_automated, exclude_inconclusive, length
        )
        count = int(np.count_nonzero(valid))
        if not count:
            continue
        n_valid += count
        part_codes = [
            part[column][valid].astype(np.int64, copy=False)
            for column in key_columns
        ]
        for axis, axis_codes in enumerate(part_codes):
            axis_parts[axis].append(axis_codes)
        for name in gather_columns:
            gather_parts[name].append(part[name][valid])
        if want_success:
            success_parts.append(part["outcome"][valid] == OUTCOME_SUCCESS)
        for spec in distinct_specs:
            distinct_parts[spec.state_key()].append(
                _unique_rows(part_codes, part[spec.column][valid])
            )

    get_registry().counter("store.query_folds").add(
        len(store._segments) + len(store._pending)
    )
    if not n_valid:
        return _empty_result(store, keys, aggregates)

    axis_codes = [
        np.concatenate(parts) if len(parts) > 1 else parts[0]
        for parts in axis_parts
    ]
    extents = []
    for key, codes in zip(keys, axis_codes):
        extent = _axis_extent(store, key)
        if extent is None:
            extent = int(codes.max()) + 1 if codes.size else 0
        extents.append(extent)
    flat = _compose_key(axis_codes, extents, n_valid)
    minlength = math.prod(extents) if extents else 1

    with tracer.span("query.aggregate", aggregate="count"):
        count_dense = np.bincount(flat, minlength=minlength)
    cells = np.flatnonzero(count_dense)
    group_counts = count_dense[cells]
    # Per-row group index (cells are the sorted unique flat keys).
    group_of_row: np.ndarray | None = None

    def groups() -> np.ndarray:
        nonlocal group_of_row
        if group_of_row is None:
            group_of_row = np.searchsorted(cells, flat)
        return group_of_row

    computed: dict[tuple, np.ndarray] = {}
    for spec in aggregates:
        state_key = spec.state_key()
        if state_key in computed:
            continue
        with tracer.span("query.aggregate", aggregate=spec.name):
            if isinstance(spec, Count):
                computed[state_key] = group_counts
            elif isinstance(spec, SuccessCount):
                success = (
                    np.concatenate(success_parts)
                    if len(success_parts) > 1 else success_parts[0]
                )
                computed[state_key] = np.bincount(
                    flat[success], minlength=minlength
                )[cells]
            elif isinstance(spec, Sum):
                values = _concat(gather_parts[spec.column])
                computed[state_key] = np.bincount(
                    flat, weights=values.astype(np.float64, copy=False),
                    minlength=minlength,
                )[cells]
            elif isinstance(spec, Quantiles):
                values = _concat(gather_parts[spec.column]).astype(
                    np.float64, copy=False
                )
                computed[state_key] = _group_quantiles(
                    values, groups(), group_counts, spec.qs
                )
            else:  # DistinctCount
                computed[state_key] = _distinct_per_group(
                    distinct_parts[state_key], extents, cells, len(cells)
                )
    return _cells_result(
        store, keys, aggregates, cells, extents,
        lambda spec, order: computed[spec.state_key()][order],
    )


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _compose_key(axis_codes, extents, n_rows) -> np.ndarray:
    if not axis_codes:
        return np.zeros(n_rows, dtype=np.int64)
    flat = axis_codes[0].astype(np.int64, copy=True)
    for codes, extent in zip(axis_codes[1:], extents[1:]):
        flat *= extent
        flat += codes
    return flat


def _unique_rows(code_arrays: list[np.ndarray], values: np.ndarray):
    """Deduplicate ``(codes..., value)`` tuples; returns (codes, values) sorted."""
    if not len(values):
        return [codes.copy() for codes in code_arrays], values.copy()
    order = np.lexsort((values,) + tuple(reversed(code_arrays)))
    sorted_codes = [codes[order] for codes in code_arrays]
    sorted_values = values[order]
    keep = np.zeros(len(values), dtype=bool)
    keep[0] = True
    for column in sorted_codes:
        keep[1:] |= column[1:] != column[:-1]
    keep[1:] |= sorted_values[1:] != sorted_values[:-1]
    return [column[keep] for column in sorted_codes], sorted_values[keep]


def _distinct_per_group(parts, extents, cells, n_groups) -> np.ndarray:
    """Fold per-segment-unique ``(codes..., value)`` tuples into group counts."""
    if not parts:
        return np.zeros(n_groups, dtype=np.int64)
    code_arrays = [
        _concat([part_codes[axis] for part_codes, _ in parts])
        for axis in range(len(extents))
    ]
    values = _concat([part_values for _, part_values in parts])
    code_arrays, values = _unique_rows(code_arrays, values)
    flat = _compose_key(code_arrays, extents, len(values))
    group_index = np.searchsorted(cells, flat)
    return np.bincount(group_index, minlength=n_groups)


def _group_quantiles(values, group_index, group_counts, qs) -> np.ndarray:
    """Per-group interpolated quantiles, matching ``np.quantile`` bit-for-bit.

    Sorts once by (group, value) and evaluates every requested quantile with
    the same linear interpolation (`lerp`) ``np.quantile`` uses, including
    its ``t >= 0.5`` rewrite for monotonicity — which is what makes the
    scalar ``np.quantile``-per-group reference twin match exactly.
    """
    order = np.lexsort((values, group_index))
    sorted_values = values[order]
    starts = np.zeros(len(group_counts), dtype=np.int64)
    np.cumsum(group_counts[:-1], out=starts[1:])
    out = np.empty((len(group_counts), len(qs)), dtype=np.float64)
    last = group_counts - 1
    for column, q in enumerate(qs):
        virtual = last * q
        low = virtual.astype(np.int64)
        t = virtual - low
        high = np.minimum(low + 1, last)
        a = sorted_values[starts + low]
        b = sorted_values[starts + high]
        diff = b - a
        lerp = a + t * diff
        flip = t >= 0.5
        lerp[flip] = b[flip] - diff[flip] * (1.0 - t[flip])
        out[:, column] = lerp
    return out


# ----------------------------------------------------------------------
# Wrappers: the kernel in the shapes the detectors and reports consume
# ----------------------------------------------------------------------
_COUNT_AGGS = (Count(), SuccessCount())


def grouped_success_counts(
    store: "MeasurementStore", exclude_automated: bool = True, *, by_day: bool = False
) -> "QueryResult | DaySeries":
    """Per-(domain, country) totals/successes via the query kernel.

    Inconclusive rows are always excluded, automated ones by default.  The
    cells are the kernel's own :class:`QueryResult` (keys ``domain`` and
    ``country``, aggregates ``count`` and ``success_count``), sorted by
    ``(domain, country)``.  With ``by_day=True`` the same counts per day
    come back as a :class:`DaySeries` read straight off the fold-once
    accumulator without materializing per-(pair, day) cells, so an
    always-on monitor's per-epoch aggregation folds only the new rows.
    Both shapes are cached per store version.
    """
    if not by_day:
        return run_query(
            store, ("domain", "country"), _COUNT_AGGS,
            exclude_automated=exclude_automated,
        )
    cache_key = ("day_series", exclude_automated)
    cached = store._derived(cache_key)
    if cached is not None:
        return cached
    if len(store) == 0 or not store._country_values:
        return store._derive(cache_key, DaySeries.from_dict({}))
    dense = run_query(
        store, ("domain", "country", "day"), _COUNT_AGGS,
        exclude_automated=exclude_automated, shape="dense",
    )
    n_days = dense.extents["day"]
    n_countries = dense.extents["country"]
    # Reshape by the explicit pair count: ``(-1, n_days)`` is ambiguous
    # when every row is excluded and the day axis is empty.
    n_pairs = dense.extents["domain"] * n_countries
    totals = dense.value("count").reshape(n_pairs, n_days)
    successes = dense.value("success_count").reshape(n_pairs, n_days)
    pairs = np.flatnonzero(totals.any(axis=1))
    domains = np.asarray(store._domain_values, dtype=np.str_)[pairs // n_countries]
    countries = np.asarray(store._country_values, dtype=np.str_)[pairs % n_countries]
    order = np.lexsort((countries, domains))
    # Fancy-indexed copies, never views of the live accumulator.
    series = DaySeries(
        domains[order],
        countries[order],
        totals[pairs[order]],
        successes[pairs[order]],
        n_days,
    )
    return store._derive(cache_key, series)


def masked_grouped_success_counts(
    store: "MeasurementStore", mask: np.ndarray, exclude_automated: bool = True
) -> QueryResult:
    """``grouped_success_counts`` restricted to the rows where ``mask`` holds.

    What the reputation filter's store verdict re-runs detection over; not
    cached because masks vary call to call.
    """
    return run_query(
        store, ("domain", "country"), _COUNT_AGGS,
        mask=mask, exclude_automated=exclude_automated,
    )


def pair_success_table(
    part: dict[str, np.ndarray], shape: tuple[int, int], mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(domain code, country code)`` totals and successes of some rows.

    ``grouped_success_counts``'s reduction over ``part`` — the rows'
    ``domain``, ``country``, ``outcome`` and ``automated`` columns — instead
    of over a store: automated and inconclusive rows are excluded, and
    ``mask`` restricts the rows further.  ``shape`` is the store's
    ``(len(domain_values), len(country_values))``.  Tables of rows from
    one store add and subtract, which is how an adversarial sweep splices
    a cell's changed rows into its honest baseline; :func:`pair_cells`
    reads a table back as the cells ``grouped_success_counts`` returns.
    """
    valid = _valid_rows(part, mask, True, True, len(part["domain"]))
    flat = part["domain"][valid].astype(np.int64) * shape[1] + part["country"][valid]
    size = shape[0] * shape[1]
    totals = np.bincount(flat, minlength=size)
    successes = np.bincount(
        flat[part["outcome"][valid] == OUTCOME_SUCCESS], minlength=size
    )
    return totals.reshape(shape), successes.reshape(shape)


def pair_cells(
    store: "MeasurementStore", totals: np.ndarray, min_count: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat indices, domains, countries)`` of a pair table's cells.

    The cells of ``totals`` (shaped like :func:`pair_success_table`'s)
    holding at least ``min_count`` rows, decoded through ``store``'s value
    tables and sorted by ``(domain, country)`` exactly as the kernel sorts
    a :class:`QueryResult`.
    """
    flat = np.flatnonzero(totals.ravel() >= min_count)
    domains = _decode_axis(store, "domain", flat // totals.shape[1])
    countries = _decode_axis(store, "country", flat % totals.shape[1])
    order = np.lexsort((countries, domains))
    return flat[order], domains[order], countries[order]


def distinct_ip_count(store: "MeasurementStore") -> int:
    """Distinct client addresses via the query kernel.

    Counts over *all* rows (no outcome or automation exclusions),
    streaming per-segment uniques so a spilled store never concatenates the
    full string column.
    """
    cached = store._derived("distinct_ips")
    if cached is not None:
        return cached
    result = run_query(
        store, (), (DistinctCount("client_ip"),),
        exclude_automated=False, exclude_inconclusive=False,
    )
    count = int(result.value(0)[0]) if len(result) else 0
    return store._derive("distinct_ips", count)


def timing_day_series(
    store: "MeasurementStore",
    quantile: float = 0.9,
    exclude_automated: bool = True,
) -> DaySeries:
    """Per-(domain, country) day series of an ``elapsed_ms`` quantile.

    The new power the kernel buys: the same grouping as the success-rate
    day series, but aggregating request timing — what
    :class:`repro.core.inference.TimingCusumDetector` scans to catch
    throttling that success rates cannot see.  ``values`` holds the
    quantile, NaN on pair-days without rows.  Cached per store version.
    """
    cache_key = ("timing_day_series", float(quantile), exclude_automated)
    cached = store._derived(cache_key)
    if cached is not None:
        return cached
    result = run_query(
        store, ("domain", "country", "day"),
        (Count(), Quantiles("elapsed_ms", (float(quantile),))),
        exclude_automated=exclude_automated,
    )
    n_days = result.extents["day"]
    series = DaySeries(
        *pair_day_matrices(
            result.key("domain"), result.key("country"), result.key("day"), n_days,
            (result.value("count"), np.int64(0)), (result.value(1)[:, 0], np.nan),
        ),
        n_days,
    )
    return store._derive(cache_key, series)


# ----------------------------------------------------------------------
# Scalar reference twin (equivalence-pinned by tests)
# ----------------------------------------------------------------------
def run_query_reference(
    store: "MeasurementStore",
    keys: Sequence[str] = ("domain", "country"),
    aggregates: Sequence[Aggregate] = (Count(), SuccessCount()),
    *,
    mask: np.ndarray | None = None,
    exclude_automated: bool = True,
    exclude_inconclusive: bool = True,
) -> dict[tuple, tuple]:
    """Per-row Python reference for :func:`run_query` (``shape="cells"``).

    Materializes every row and reduces with dicts, sets, and per-group
    ``np.quantile`` — the readable twin the equivalence property tests pin
    the vectorized kernel against, in :meth:`QueryResult.as_dict` shape.
    """
    keys = tuple(keys)
    aggregates = tuple(aggregates)

    def row_key(m, name: str):
        if name == "domain":
            return m.target_domain
        if name == "country":
            return m.country_code
        if name == "day":
            return m.day
        if name == "isp":
            return m.isp
        if name == "family":
            return m.browser_family
        return m.task_type.value  # "task"

    def row_value(m, column: str):
        return getattr(m, column)

    rows = store.rows()
    if mask is not None:
        rows = [m for m, keep in zip(rows, np.asarray(mask, dtype=bool)) if keep]
    groups: dict[tuple, list] = {}
    for m in rows:
        if exclude_inconclusive and m.outcome.value == "inconclusive":
            continue
        if exclude_automated and m.is_automated:
            continue
        groups.setdefault(tuple(row_key(m, name) for name in keys), []).append(m)
    out: dict[tuple, tuple] = {}
    for group in sorted(groups):
        members = groups[group]
        row = []
        for spec in aggregates:
            if isinstance(spec, Count):
                row.append(len(members))
            elif isinstance(spec, SuccessCount):
                row.append(
                    sum(1 for m in members if m.outcome.value == "success")
                )
            elif isinstance(spec, Sum):
                row.append(float(sum(row_value(m, spec.column) for m in members)))
            elif isinstance(spec, Quantiles):
                values = np.asarray(
                    [row_value(m, spec.column) for m in members], dtype=np.float64
                )
                row.append(tuple(float(np.quantile(values, q)) for q in spec.qs))
            else:  # DistinctCount
                row.append(len({row_value(m, spec.column) for m in members}))
        out[group] = tuple(row)
    return out

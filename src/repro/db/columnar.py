"""Columnar execution backend: dictionary-encoded relations.

The row-wise engine scans Python tuples one cell at a time and calls
:func:`~repro.db.values.normalize_string` / :func:`~repro.db.values.coerce_number`
on every cell of every pass. This module performs that work exactly once per
*distinct* cell value: each column is dictionary-encoded into an integer code
array (code 0 is reserved for missing cells — NULL and blank strings both
normalize to ``""``), and the dictionary carries the normalized string and the
numeric coercion per code. The hot operations then run over integer arrays:

- equi-joins become hash joins on key codes (:func:`build_columnar_relation`),
- cube execution becomes one vectorized pass mapping each dimension to
  per-row bucket codes, combining them into a single group id, and reducing
  COUNT/SUM/MIN/MAX/COUNT-DISTINCT per group with ``np.bincount`` and
  sorted-segment ``reduceat`` kernels (:func:`execute_cube_columnar`),
- predicate filtering becomes boolean-mask selection
  (:func:`execute_columnar_query`).

NumPy is optional: when it is absent every kernel falls back to a pure-Python
implementation over the same code arrays (still paying normalization and
numeric coercion only once per distinct value). The row-wise modules remain
the reference oracle; ``tests/db/test_columnar_oracle.py`` cross-checks the
two backends on randomized databases.

Known deliberate deviation from the row-wise oracle: cells whose *raw* value
is an infinite float are treated as non-numeric here (their normalized string
``"inf"`` does not coerce), while the row-wise ``_Partial`` accumulates the
raw ``inf``. No realistic CSV input produces float infinities.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from itertools import combinations

try:  # pragma: no cover - exercised via monkeypatching in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.db.predicates import Predicate
from repro.db.refs import ColumnRef
from repro.db.schema import Database, Table
from repro.db.values import (
    DEFAULT_LITERAL,
    Value,
    coerce_number,
    is_numeric,
    normalize_string,
)
from repro.errors import JoinPathError, QueryError

#: Ints below this magnitude survive a float64 round trip exactly.
_EXACT_INT = 1 << 53


def numpy_available() -> bool:
    """True when the vectorized kernels can run (used by benchmarks/tests)."""
    return _np is not None


class ExecutionBackend(enum.Enum):
    """Physical representation the engine evaluates queries against.

    ``ROW`` is the original tuple-at-a-time implementation (the reference
    oracle); ``COLUMNAR`` is the dictionary-encoded backend of this module,
    vectorized with NumPy when available and pure Python otherwise.
    """

    ROW = "row"
    COLUMNAR = "columnar"


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


class ColumnDictionary:
    """Per-column dictionary of normalized cell strings.

    Code 0 is reserved for the missing bucket: NULLs and blank strings both
    normalize to ``""``, and nothing else does, so ``code == 0`` is exactly
    :func:`~repro.db.values.is_missing`. ``numbers[code]`` caches the numeric
    coercion of the first raw cell seen for the code (cells sharing a
    normalized string coerce identically, modulo the ``inf`` caveat above).
    """

    __slots__ = (
        "values", "index", "numbers", "_numbers_arr", "_numeric_arr", "_integral"
    )

    def __init__(self) -> None:
        self.values: list[str] = [""]
        self.index: dict[str, int] = {"": 0}
        self.numbers: list[float | int | None] = [None]
        self._numbers_arr = None
        self._numeric_arr = None
        self._integral = None

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, cell: Value) -> int:
        key = normalize_string(cell)
        code = self.index.get(key)
        if code is None:
            code = len(self.values)
            self.values.append(key)
            self.index[key] = code
            self.numbers.append(coerce_number(cell))
            self._numbers_arr = None
            self._numeric_arr = None
            self._integral = None
        return code

    def code_of(self, normalized: str) -> int | None:
        """Code of a normalized string, or None if absent from the data."""
        return self.index.get(normalized)

    @property
    def numbers_arr(self):
        """float64 per code (NaN where the code is not numeric)."""
        if self._numbers_arr is None:
            self._numbers_arr = _np.array(
                [float("nan") if n is None else float(n) for n in self.numbers],
                dtype=_np.float64,
            )
        return self._numbers_arr

    @property
    def integral(self) -> bool:
        """Is every number of the column an int that float64 holds exactly?

        Min/Max then return ``int`` like the row-wise oracle (which keeps
        the coerced cell) instead of the float their array kernels yield.
        """
        if self._integral is None:
            self._integral = all(
                n is None or (type(n) is int and -_EXACT_INT < n < _EXACT_INT)
                for n in self.numbers
            )
        return self._integral

    @property
    def numeric_arr(self):
        """bool per code: does the code coerce to a usable number?"""
        if self._numeric_arr is None:
            self._numeric_arr = _np.array(
                [n is not None for n in self.numbers], dtype=bool
            )
        return self._numeric_arr


class ColumnVector:
    """One encoded column: code per cell plus raw-level masks.

    ``none_mask`` (cell ``is None``) feeds join NULL-skipping, and
    ``raw_numbers`` (the cell itself when it is a non-string usable number,
    NaN otherwise) feeds :func:`~repro.db.values.values_equal`'s numeric
    comparison path for predicates with non-string values.
    """

    __slots__ = ("dictionary", "codes", "none_mask", "raw_numbers", "vectorized")

    def __init__(self, dictionary, codes, none_mask, raw_numbers, vectorized):
        self.dictionary = dictionary
        self.codes = codes
        self.none_mask = none_mask
        self.raw_numbers = raw_numbers
        self.vectorized = vectorized

    def take(self, indices) -> "ColumnVector":
        """Gather rows (the output of a join step)."""
        if self.vectorized:
            return ColumnVector(
                self.dictionary,
                self.codes[indices],
                self.none_mask[indices],
                self.raw_numbers[indices],
                True,
            )
        return ColumnVector(
            self.dictionary,
            [self.codes[i] for i in indices],
            [self.none_mask[i] for i in indices],
            [self.raw_numbers[i] for i in indices],
            False,
        )


def encode_column(cells: Iterable[Value]) -> ColumnVector:
    """Dictionary-encode one column of raw cells."""
    dictionary = ColumnDictionary()
    codes: list[int] = []
    none_mask: list[bool] = []
    raw_numbers: list[float] = []
    nan = float("nan")
    for cell in cells:
        codes.append(dictionary.intern(cell))
        none_mask.append(cell is None)
        raw_numbers.append(
            float(cell)
            if not isinstance(cell, str) and is_numeric(cell)
            else nan
        )
    if _np is not None:
        return ColumnVector(
            dictionary,
            _np.array(codes, dtype=_np.int64),
            _np.array(none_mask, dtype=bool),
            _np.array(raw_numbers, dtype=_np.float64),
            True,
        )
    return ColumnVector(dictionary, codes, none_mask, raw_numbers, False)


class EncodedTable:
    """All columns of one base table, encoded once and reused by every join."""

    __slots__ = ("name", "vectors")

    def __init__(self, name: str, vectors: list[ColumnVector]) -> None:
        self.name = name
        self.vectors = vectors


def encode_table(table: Table) -> EncodedTable:
    n_cols = len(table.columns)
    columns: list[list[Value]] = [[] for _ in range(n_cols)]
    for row in table.rows:
        for i in range(n_cols):
            columns[i].append(row[i])
    return EncodedTable(table.name, [encode_column(cells) for cells in columns])


class ColumnarRelation:
    """A (possibly joined) row set stored as dictionary-encoded columns.

    Mirrors the :class:`~repro.db.joins.Relation` lookup interface so the
    engine's bookkeeping (``len``, column resolution) is representation
    agnostic; the cube and executor dispatch on the concrete type.
    """

    def __init__(
        self, columns: Sequence[ColumnRef], vectors: Sequence[ColumnVector], n_rows: int
    ) -> None:
        self.columns: tuple[ColumnRef, ...] = tuple(columns)
        self._index = {column: i for i, column in enumerate(self.columns)}
        self.vectors: tuple[ColumnVector, ...] = tuple(vectors)
        self._n_rows = n_rows

    def __len__(self) -> int:
        return self._n_rows

    def column_index(self, column: ColumnRef) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise JoinPathError(f"column {column} not in relation") from None

    def has_column(self, column: ColumnRef) -> bool:
        return column in self._index

    def vector(self, column: ColumnRef) -> ColumnVector:
        return self.vectors[self.column_index(column)]


# ----------------------------------------------------------------------
# Hash join on key codes
# ----------------------------------------------------------------------


def _code_remap(build_dict: ColumnDictionary, probe_dict: ColumnDictionary):
    """Map build-side codes into the probe dictionary's code space (-1: absent)."""
    if build_dict is probe_dict:
        return None
    remap = [probe_dict.index.get(v, -1) for v in build_dict.values]
    return _np.array(remap, dtype=_np.int64) if _np is not None else remap


def _join_numpy(probe_codes, probe_none, build_codes, build_none, remap):
    """Match rows on equal key codes; returns (probe row ids, build row ids).

    Output order matches the row-wise nested-loop join: probe-major, build
    rows in original order within each key group (stable sort).
    """
    build_keys = build_codes if remap is None else remap[build_codes]
    build_valid = ~build_none & (build_keys >= 0)
    build_rows = _np.flatnonzero(build_valid)
    keys_build = build_keys[build_rows]
    order = _np.argsort(keys_build, kind="stable")
    keys_build = keys_build[order]
    build_rows = build_rows[order]
    probe_rows = _np.flatnonzero(~probe_none)
    keys_probe = probe_codes[probe_rows]
    starts = _np.searchsorted(keys_build, keys_probe, side="left")
    ends = _np.searchsorted(keys_build, keys_probe, side="right")
    counts = ends - starts
    total = int(counts.sum())
    probe_sel = _np.repeat(probe_rows, counts)
    offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
    flat = _np.arange(total, dtype=_np.int64) - offsets + _np.repeat(starts, counts)
    build_sel = build_rows[flat]
    return probe_sel, build_sel


def _join_python(probe_codes, probe_none, build_codes, build_none, remap):
    buckets: dict[int, list[int]] = {}
    for row, code in enumerate(build_codes):
        if build_none[row]:
            continue
        key = code if remap is None else remap[code]
        if key < 0:
            continue
        buckets.setdefault(int(key), []).append(row)
    probe_sel: list[int] = []
    build_sel: list[int] = []
    for row, code in enumerate(probe_codes):
        if probe_none[row]:
            continue
        for match in buckets.get(int(code), ()):
            probe_sel.append(row)
            build_sel.append(match)
    return probe_sel, build_sel


def _take_indices(indices, selection):
    if _np is not None and not isinstance(indices, list):
        return indices[selection]
    return [indices[i] for i in selection]


def build_columnar_relation(
    database: Database,
    path,  # JoinPath (not imported to avoid a cycle with repro.db.joins)
    encoded_of: Callable[[str], EncodedTable],
) -> ColumnarRelation:
    """Materialize the equi-join over ``path`` as a columnar relation.

    Follows the same edge order and join semantics as the row-wise
    ``JoinGraph._build_relation``: NULL key cells never match, keys compare
    by normalized string (here: by dictionary code), and column order is the
    concatenation of each table's columns in join order.
    """
    first = database.table(path.tables[0])
    encoded = encoded_of(first.name)
    column_refs: list[ColumnRef] = [
        ColumnRef(first.name, column.name) for column in first.columns
    ]
    # Per output column: which per-table row-index array and source vector.
    sources: list[tuple[int, ColumnVector]] = [(0, v) for v in encoded.vectors]
    if _np is not None:
        indices = [_np.arange(len(first), dtype=_np.int64)]
    else:
        indices = [list(range(len(first)))]
    joined = {first.name}
    pending = list(path.edges)
    while pending:
        edge = next(
            (
                fk
                for fk in pending
                if fk.source_table in joined or fk.target_table in joined
            ),
            None,
        )
        if edge is None:
            raise JoinPathError("disconnected join tree")
        pending.remove(edge)
        if edge.source_table in joined:
            existing_col = ColumnRef(edge.source_table, edge.source_column)
            new_table = database.table(edge.target_table)
            new_key = edge.target_column
        else:
            existing_col = ColumnRef(edge.target_table, edge.target_column)
            new_table = database.table(edge.source_table)
            new_key = edge.source_column
        slot, probe_vector = sources[column_refs.index(existing_col)]
        probe_codes = _take_indices(probe_vector.codes, indices[slot])
        probe_none = _take_indices(probe_vector.none_mask, indices[slot])
        new_encoded = encoded_of(new_table.name)
        build_vector = new_encoded.vectors[new_table.column_index(new_key)]
        remap = _code_remap(build_vector.dictionary, probe_vector.dictionary)
        join = _join_numpy if _np is not None else _join_python
        probe_sel, build_sel = join(
            probe_codes, probe_none, build_vector.codes, build_vector.none_mask, remap
        )
        indices = [_take_indices(ix, probe_sel) for ix in indices]
        indices.append(build_sel)
        new_slot = len(indices) - 1
        column_refs.extend(
            ColumnRef(new_table.name, column.name) for column in new_table.columns
        )
        sources.extend((new_slot, v) for v in new_encoded.vectors)
        joined.add(new_table.name)
    vectors = [vector.take(indices[slot]) for slot, vector in sources]
    return ColumnarRelation(column_refs, vectors, len(indices[0]))


# ----------------------------------------------------------------------
# Predicate masks (vectorized WHERE evaluation)
# ----------------------------------------------------------------------


def _predicate_mask(relation: ColumnarRelation, predicate: Predicate):
    """Boolean row mask replicating ``values_equal(cell, predicate.value)``.

    String predicate values always compare by normalized string (code
    equality); non-string values compare numerically against non-string
    numeric cells and by normalized string against everything else. NULL
    cells never match.
    """
    vector = relation.vector(predicate.column)
    value = predicate.value
    code = vector.dictionary.code_of(normalize_string(value))
    if _np is not None and vector.vectorized:
        codes = vector.codes
        not_none = ~vector.none_mask
        code_mask = (
            (codes == code) & not_none
            if code is not None
            else _np.zeros(len(relation), dtype=bool)
        )
        if isinstance(value, str) or coerce_number(value) is None:
            return code_mask
        raw_numeric = ~_np.isnan(vector.raw_numbers)
        numeric_mask = raw_numeric & (vector.raw_numbers == float(coerce_number(value)))
        return numeric_mask | (code_mask & ~raw_numeric)
    value_number = None if isinstance(value, str) else coerce_number(value)
    mask = []
    for c, none, raw in zip(vector.codes, vector.none_mask, vector.raw_numbers):
        if none:
            mask.append(False)
        elif value_number is not None and raw == raw:  # raw is not NaN
            mask.append(raw == float(value_number))
        else:
            mask.append(code is not None and c == code)
    return mask


def _combine_masks(relation: ColumnarRelation, predicates: Sequence[Predicate]):
    """AND of all predicate masks; None means "all rows"."""
    mask = None
    for predicate in predicates:
        pmask = _predicate_mask(relation, predicate)
        if mask is None:
            mask = pmask
        elif _np is not None and not isinstance(mask, list):
            mask &= pmask
        else:
            mask = [a and b for a, b in zip(mask, pmask)]
    return mask


def _select_codes(vector: ColumnVector, mask):
    if _np is not None and vector.vectorized:
        return vector.codes if mask is None else vector.codes[mask]
    if mask is None:
        return vector.codes
    return [c for c, keep in zip(vector.codes, mask) if keep]


def count_matching_columnar(
    relation: ColumnarRelation,
    aggregate_column: ColumnRef,
    predicates: Sequence[Predicate],
) -> int:
    """Columnar twin of :func:`repro.db.executor.count_matching`."""
    mask = _combine_masks(relation, predicates)
    if aggregate_column.is_star:
        if mask is None:
            return len(relation)
        return int(mask.sum()) if not isinstance(mask, list) else sum(mask)
    codes = _select_codes(relation.vector(aggregate_column), mask)
    if _np is not None and not isinstance(codes, list):
        return int((codes != 0).sum())
    return sum(1 for c in codes if c != 0)


def execute_columnar_query(relation: ColumnarRelation, query) -> Value:
    """Evaluate one SimpleAggregateQuery by boolean-mask selection.

    Replicates ``compute_plain`` semantics (NULLs skipped, numeric
    aggregates over coercible cells only, Avg divides by the *numeric*
    count) and the footnote-1 ratio definitions.
    """
    from repro.db.aggregates import AggregateFunction, ratio_value

    fn = query.aggregate.function
    column = query.aggregate.column
    if fn.is_ratio:
        numerator = count_matching_columnar(relation, column, query.all_predicates)
        if fn is AggregateFunction.PERCENTAGE:
            denominator = count_matching_columnar(relation, column, ())
        else:  # CONDITIONAL_PROBABILITY
            assert query.condition is not None
            denominator = count_matching_columnar(
                relation, column, (query.condition,)
            )
        return ratio_value(numerator, denominator)

    if fn is AggregateFunction.COUNT:
        return count_matching_columnar(relation, column, query.all_predicates)
    mask = _combine_masks(relation, query.all_predicates)
    vector = relation.vector(column)
    codes = _select_codes(vector, mask)
    if fn is AggregateFunction.COUNT_DISTINCT:
        if _np is not None and not isinstance(codes, list):
            distinct = _np.unique(codes)
            return int(len(distinct) - (1 if len(distinct) and distinct[0] == 0 else 0))
        return len({c for c in codes if c != 0})
    # Numeric aggregates over the coercible cells of the selection.
    if _np is not None and not isinstance(codes, list):
        numeric = vector.dictionary.numeric_arr[codes]
        values = vector.dictionary.numbers_arr[codes][numeric]
        if len(values) == 0:
            return None
        if fn is AggregateFunction.SUM:
            return float(values.sum())
        if fn is AggregateFunction.AVG:
            return float(values.sum()) / len(values)
        if fn is AggregateFunction.MIN:
            return _extreme(values.min(), vector.dictionary.integral)
        if fn is AggregateFunction.MAX:
            return _extreme(values.max(), vector.dictionary.integral)
        raise QueryError(f"unsupported aggregate {fn}")
    numbers = vector.dictionary.numbers
    values = [numbers[c] for c in codes if numbers[c] is not None]
    if not values:
        return None
    if fn is AggregateFunction.SUM:
        return float(sum(values))
    if fn is AggregateFunction.AVG:
        return float(sum(values)) / len(values)
    if fn is AggregateFunction.MIN:
        return _extreme(min(values), vector.dictionary.integral)
    if fn is AggregateFunction.MAX:
        return _extreme(max(values), vector.dictionary.integral)
    raise QueryError(f"unsupported aggregate {fn}")


def _extreme(value, integral: bool) -> Value:
    """A Min/Max result typed like the row-wise oracle's for the column."""
    return int(value) if integral else float(value)


# ----------------------------------------------------------------------
# Vectorized cube execution
# ----------------------------------------------------------------------


class _GroupAcc:
    """Mergeable per-cell accumulator used by the rollup phase.

    The scalar fields mirror the row-wise ``_Partial``; ``distinct`` holds
    code collections (NumPy arrays or sets) that are unioned lazily at
    finalization.
    """

    __slots__ = (
        "rows", "count", "total", "ncount", "minimum", "maximum", "distinct",
        "integral",
    )

    def __init__(self, track_distinct: bool, integral: bool) -> None:
        self.integral = integral
        self.rows = 0
        self.count = 0
        self.total = 0.0
        self.ncount = 0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.distinct: list | None = [] if track_distinct else None

    def absorb(self, stats: "_ColumnStats", group: int) -> None:
        self.rows += stats.rows[group]
        if stats.star:
            return
        self.count += stats.count[group]
        self.total += stats.total[group]
        self.ncount += stats.ncount[group]
        if stats.ncount[group]:
            minimum = stats.minimum[group]
            maximum = stats.maximum[group]
            if self.minimum is None or minimum < self.minimum:
                self.minimum = minimum
            if self.maximum is None or maximum > self.maximum:
                self.maximum = maximum
        if self.distinct is not None:
            codes = stats.distinct[group]
            if len(codes):
                self.distinct.append(codes)

    def distinct_count(self) -> int:
        if not self.distinct:
            return 0
        if _np is not None and not isinstance(self.distinct[0], (set, frozenset)):
            if len(self.distinct) == 1:
                return int(len(self.distinct[0]))
            return int(len(_np.unique(_np.concatenate(self.distinct))))
        union: set[int] = set()
        for part in self.distinct:
            union |= set(part)
        return len(union)

    def finalize(self, spec) -> Value:
        """Same semantics as the row-wise ``_Partial.finalize``."""
        from repro.db.aggregates import AggregateFunction

        fn = spec.function
        if fn is AggregateFunction.COUNT:
            return int(self.rows if spec.column.is_star else self.count)
        if fn is AggregateFunction.COUNT_DISTINCT:
            return self.distinct_count()
        if self.ncount == 0:
            # No numeric cells: Sum/Avg/Min/Max are NULL.
            return None
        if fn is AggregateFunction.SUM:
            return float(self.total)
        if fn is AggregateFunction.AVG:
            # Divide by the numeric count (matches compute_plain).
            return float(self.total) / int(self.ncount)
        if fn is AggregateFunction.MIN:
            return _extreme(self.minimum, self.integral)
        if fn is AggregateFunction.MAX:
            return _extreme(self.maximum, self.integral)
        raise QueryError(f"unsupported basis aggregate {fn}")


class _ColumnStats:
    """Per-group reductions of one aggregation column (phase 1 output)."""

    __slots__ = ("star", "rows", "count", "total", "ncount", "minimum", "maximum", "distinct")

    def __init__(self, n_groups: int, star: bool, track_distinct: bool) -> None:
        self.star = star
        self.rows = [0] * n_groups
        self.count = [0] * n_groups
        self.total = [0.0] * n_groups
        self.ncount = [0] * n_groups
        self.minimum = [0.0] * n_groups
        self.maximum = [0.0] * n_groups
        self.distinct = (
            [set() for _ in range(n_groups)] if track_distinct else None
        )


def _group_rows(relation: ColumnarRelation, cube):
    """Phase 0: one combined group id per row, compacted after each dimension.

    Returns ``(inverse, group_keys)`` where ``inverse`` assigns each row its
    compact group index and ``group_keys[g]`` is the tuple of bucket labels
    (literal string or ``DEFAULT_LITERAL``) of group ``g``. Compacting after
    each dimension keeps combined ids bounded by ``n_groups * radix`` and
    immune to radix overflow.
    """
    n_rows = len(relation)
    vectorized = _np is not None
    if n_rows == 0:
        # No rows: no groups at all (matches the row-wise phase 1).
        return (_np.zeros(0, dtype=_np.int64) if vectorized else []), []
    if vectorized:
        inverse = _np.zeros(n_rows, dtype=_np.int64)
    else:
        inverse = [0] * n_rows
    group_keys: list[tuple[str, ...]] = [()]
    for dim, literals in cube.literals:
        vector = relation.vector(dim)
        dictionary = vector.dictionary
        bucket_values = [DEFAULT_LITERAL]
        lut = [0] * len(dictionary)
        for literal in sorted(literals):
            code = dictionary.code_of(literal)
            if code is None:
                continue  # literal never occurs: only the default bucket sees it
            lut[code] = len(bucket_values)
            bucket_values.append(literal)
        radix = len(bucket_values)
        if vectorized:
            buckets = _np.array(lut, dtype=_np.int64)[vector.codes]
            combined = inverse * radix + buckets
            uniq, inverse = _np.unique(combined, return_inverse=True)
            uniq_list = uniq.tolist()
        else:
            combined = [g * radix + lut[c] for g, c in zip(inverse, vector.codes)]
            uniq_list = sorted(set(combined))
            position = {value: i for i, value in enumerate(uniq_list)}
            inverse = [position[value] for value in combined]
        group_keys = [
            group_keys[value // radix] + (bucket_values[value % radix],)
            for value in uniq_list
        ]
    return inverse, group_keys


def _column_stats_numpy(
    relation, inverse, n_groups: int, column: ColumnRef | None, track_distinct: bool
) -> _ColumnStats:
    stats = _ColumnStats(n_groups, star=column is None, track_distinct=False)
    stats.rows = _np.bincount(inverse, minlength=n_groups)
    if column is None:
        return stats
    vector = relation.vector(column)
    codes = vector.codes
    non_missing = codes != 0
    stats.count = _np.bincount(inverse[non_missing], minlength=n_groups)
    numeric = vector.dictionary.numeric_arr[codes]
    numeric_inverse = inverse[numeric]
    values = vector.dictionary.numbers_arr[codes][numeric]
    stats.ncount = _np.bincount(numeric_inverse, minlength=n_groups)
    stats.total = _np.bincount(numeric_inverse, weights=values, minlength=n_groups)
    stats.minimum = _np.zeros(n_groups, dtype=_np.float64)
    stats.maximum = _np.zeros(n_groups, dtype=_np.float64)
    if len(numeric_inverse):
        order = _np.argsort(numeric_inverse, kind="stable")
        sorted_groups = numeric_inverse[order]
        sorted_values = values[order]
        bounds = _np.flatnonzero(
            _np.concatenate(([True], sorted_groups[1:] != sorted_groups[:-1]))
        )
        group_ids = sorted_groups[bounds]
        stats.minimum[group_ids] = _np.minimum.reduceat(sorted_values, bounds)
        stats.maximum[group_ids] = _np.maximum.reduceat(sorted_values, bounds)
    if track_distinct:
        # Distinct (group, code) pairs; split into per-group code arrays.
        pairs = _np.unique(inverse[non_missing] * len(vector.dictionary) + codes[non_missing])
        pair_groups = pairs // len(vector.dictionary)
        pair_codes = pairs % len(vector.dictionary)
        stats.distinct = [pair_codes[0:0]] * n_groups
        if len(pairs):
            bounds = _np.flatnonzero(
                _np.concatenate(([True], pair_groups[1:] != pair_groups[:-1]))
            )
            for start, end, group in zip(
                bounds, list(bounds[1:]) + [len(pairs)], pair_groups[bounds]
            ):
                stats.distinct[int(group)] = pair_codes[start:end]
    return stats


def _column_stats_python(
    relation, inverse, n_groups: int, column: ColumnRef | None, track_distinct: bool
) -> _ColumnStats:
    stats = _ColumnStats(n_groups, star=column is None, track_distinct=track_distinct)
    for group in inverse:
        stats.rows[group] += 1
    if column is None:
        return stats
    vector = relation.vector(column)
    numbers = vector.dictionary.numbers
    count = stats.count
    total = stats.total
    ncount = stats.ncount
    minimum = stats.minimum
    maximum = stats.maximum
    distinct = stats.distinct
    for group, code in zip(inverse, vector.codes):
        if code == 0:
            continue
        count[group] += 1
        if distinct is not None:
            distinct[group].add(code)
        number = numbers[code]
        if number is not None:
            total[group] += number
            if ncount[group] == 0 or number < minimum[group]:
                minimum[group] = number
            if ncount[group] == 0 or number > maximum[group]:
                maximum[group] = number
            ncount[group] += 1
    return stats


def execute_cube_columnar(relation: ColumnarRelation, cube, budget=None):
    """Vectorized twin of the row-wise ``_cube_over_relation``.

    Phase 1 reduces every basis aggregate per fully-specified group with
    array kernels; phase 2 rolls the (few) groups up to every dimension
    subset in Python; phase 3 finalizes into the standard
    :class:`~repro.db.cube.CubeResult` cell dictionary. ``budget``
    (optional :class:`repro.budget.ResourceBudget`) bounds the rollup
    work — ``n_groups * 2^n_dims`` merges — before phase 2 starts, using
    the real group count rather than the engine's literal-based estimate.
    """
    from repro.db.aggregates import AggregateFunction
    from repro.db.cube import ALL, CubeResult, _check_rollup_budget

    inverse, group_keys = _group_rows(relation, cube)
    n_groups = len(group_keys)
    _check_rollup_budget(budget, n_groups, len(cube.dimensions))

    # One stat bundle per distinct aggregation column ('*' columns share one).
    bundle_keys: list[ColumnRef | None] = []
    spec_bundle: dict = {}
    for spec in cube.aggregates:
        key = None if spec.column.is_star else spec.column
        if key not in spec_bundle:
            spec_bundle[key] = len(bundle_keys)
            bundle_keys.append(key)
        # COUNT_DISTINCT on any spec of this column requires distinct codes.
    needs_distinct = {
        None if spec.column.is_star else spec.column
        for spec in cube.aggregates
        if spec.function is AggregateFunction.COUNT_DISTINCT
    }
    column_stats = _column_stats_numpy if _np is not None else _column_stats_python
    bundles = [
        column_stats(relation, inverse, n_groups, key, key in needs_distinct)
        for key in bundle_keys
    ]
    track_distinct = [key in needs_distinct for key in bundle_keys]
    integral = [
        key is not None and relation.vector(key).dictionary.integral
        for key in bundle_keys
    ]

    # Phase 2: roll up to every subset of dimensions (mirrors row-wise).
    n_dims = len(cube.dimensions)
    masks: list[frozenset[int]] = []
    for size in range(n_dims + 1):
        masks.extend(frozenset(m) for m in combinations(range(n_dims), size))
    rolled: dict[tuple, list[_GroupAcc]] = {}
    for group in range(n_groups):
        full_key = group_keys[group]
        for kept in masks:
            key = tuple(
                full_key[i] if i in kept else ALL for i in range(n_dims)
            )
            accs = rolled.get(key)
            if accs is None:
                accs = [
                    _GroupAcc(track, whole)
                    for track, whole in zip(track_distinct, integral)
                ]
                rolled[key] = accs
            for acc, bundle in zip(accs, bundles):
                acc.absorb(bundle, group)

    # Phase 3: finalize.
    cells: dict[tuple, dict] = {}
    for key, accs in rolled.items():
        cells[key] = {
            spec: accs[spec_bundle[None if spec.column.is_star else spec.column]].finalize(spec)
            for spec in cube.aggregates
        }
    return CubeResult(cube, cells, rows_scanned=len(relation))

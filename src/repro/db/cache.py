"""Result cache for cube cells (paper Section 6.3).

Cache entries are keyed by (table set, aggregation function, aggregation
column, cube-dimension set) — exactly the granularity the paper found to be
the best trade-off. The entry does *not* key on the literal sets: cells for
specific literals and ``ALL`` cells are independent of which *other*
literals were collapsed into the default bucket, so entries stay valid when
literal sets differ across claims or EM iterations. Each entry remembers the
literals it has cells for; a lookup that needs an uncovered literal is a
miss, and the refreshed entry merges in the new cells.

For the NumPy cell-gather kernel an entry also builds, on first use, an
index of entry-local value ids over its cells (:class:`CellIndex`);
merging new cells drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.db.aggregates import AggregateFunction
from repro.db.cube import CellKey
from repro.db.query import AggregateSpec, ColumnRef
from repro.db.values import Value

CacheKey = tuple[frozenset[str], AggregateSpec, tuple[ColumnRef, ...]]

#: Aggregates whose empty-group cells are 0 rather than NULL.
_ZERO_ON_EMPTY = (AggregateFunction.COUNT, AggregateFunction.COUNT_DISTINCT)


@dataclass
class CacheEntry:
    """Cells of one aggregate over one dimension set.

    The entry knows its aggregate spec so consumers (the per-query answer
    path and the cell-gather kernels alike) can resolve empty-group cells
    through one place: :meth:`lookup` applies SQL semantics for groups the
    cube never produced (counts are 0, every other aggregate is NULL).
    """

    spec: AggregateSpec
    dimensions: tuple[ColumnRef, ...]
    literals: dict[ColumnRef, set[str]]
    cells: dict[CellKey, Value]
    _index: "CellIndex | None" = field(default=None, repr=False, compare=False)

    def cell_index(self) -> "CellIndex":
        """The value-id index over :attr:`cells` (built on first use)."""
        if self._index is None:
            self._index = CellIndex(self.cells)
        return self._index

    def empty_value(self) -> Value:
        """Value of a cell for an empty group under this entry's spec."""
        return 0 if self.spec.function in _ZERO_ON_EMPTY else None

    def lookup(self, key: CellKey) -> Value:
        """Cell value for ``key`` with the empty-group default applied."""
        return self.cells.get(key, self.empty_value())

    def covers(self, literal_map: dict[ColumnRef, frozenset[str]]) -> bool:
        """True if every requested literal already has cells."""
        for dim, wanted in literal_map.items():
            if not wanted <= self.literals.get(dim, set()):
                return False
        return True

    def merge(
        self,
        literal_map: dict[ColumnRef, frozenset[str]],
        cells: dict[CellKey, Value],
    ) -> None:
        """Fold in freshly computed cells (new literals extend coverage)."""
        for dim, literals in literal_map.items():
            self.literals.setdefault(dim, set()).update(literals)
        self.cells.update(cells)
        self._index = None


def _exact_key(value: Value) -> tuple:
    """Interning key telling apart every value the cells can tell apart:
    ``3`` from ``3.0`` (type) and ``0.0`` from ``-0.0`` (sign)."""
    cls = value.__class__
    if cls is float and value == 0.0:
        return (cls, value, math.copysign(1.0, value))
    return (cls, value)


class CellIndex:
    """Entry-local value ids over one entry's cells, for array gathers.

    ``values`` holds one object per distinct cell value (told apart by
    :func:`_exact_key`) and ``local_ids`` maps each cell key to its value's
    position there, so a gather derives and interns each distinct value
    once instead of once per candidate subset. It holds only the cells
    that exist (never a dense grid over the literal sets). Keys stay
    tuples: one gather probes a claim's few dozen subsets per aggregate
    (median 18 on the labelled corpus), where a dict probe costs less than
    the fixed per-call cost of a sorted-code ``searchsorted`` lookup.
    """

    __slots__ = ("local_ids", "values")

    def __init__(self, cells: dict[CellKey, Value]) -> None:
        self.values: list[Value] = []
        self.local_ids: dict[CellKey, int] = {}
        local: dict[tuple, int] = {}
        for key, value in cells.items():
            exact = _exact_key(value)
            lid = local.get(exact)
            if lid is None:
                lid = local[exact] = len(self.values)
                self.values.append(value)
            self.local_ids[key] = lid


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class ResultCache:
    """Cross-claim, cross-iteration cache of cube cells."""

    def __init__(self) -> None:
        self._entries: dict[CacheKey, CacheEntry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        tables: frozenset[str],
        spec: AggregateSpec,
        dimensions: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
    ) -> CacheEntry | None:
        """Return a covering entry, or None (and count a miss)."""
        entry = self._entries.get((tables, spec, dimensions))
        if entry is not None and entry.covers(literal_map):
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def put(
        self,
        tables: frozenset[str],
        spec: AggregateSpec,
        dimensions: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
        cells: dict[CellKey, Value],
    ) -> CacheEntry:
        """Insert or extend the entry for this key."""
        key = (tables, spec, dimensions)
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry(
                spec,
                dimensions,
                {dim: set(literals) for dim, literals in literal_map.items()},
                dict(cells),
            )
            self._entries[key] = entry
        else:
            entry.merge(literal_map, cells)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.stats.reset()

"""Zero-materialization evaluation of factorized candidate spaces.

The per-query evaluation path materializes a ``SimpleAggregateQuery``
object for every candidate of every claim, hashes it through sets and
dicts, and rebuilds a predicate dict plus a cell-key tuple per query —
work that dominates warm-cache corpus runs once physical cube execution
is cached away. This module answers the *factorized* candidate space
directly: the paper's observation that "one cube query can serve the
whole cross product" extends naturally to the answering side, because a
candidate's cell key depends only on its predicate subset, not on the
(function x column x subset) triple itself.

Per call (one claim's candidates over one base relation and one cube
dimension set) the NumPy kernel:

1. builds one cube cell key per *distinct predicate subset* used
   (``SpaceEncoding.cell_keys``, one predicate column at a time from the
   literal-code matrix computed at ``build_candidates`` time),
2. probes each basis aggregate's entry index
   (:meth:`~repro.db.cache.CacheEntry.cell_index`: cell key -> entry-local
   value id) once per subset — cells with equal values share an id,
3. collapses the candidates with ``np.unique`` to distinct (spec, kind,
   subset, condition) events and those to distinct *value codes* — a
   plain cell, a percentage numerator, a (numerator, denominator) pair —
   so each distinct value is derived and interned into the per-space
   :class:`ValueTable` once, in the order a per-candidate loop would
   intern it (which decides the representative of equal values),
4. fans the value ids out to all candidates with two integer gathers.

Ratio functions thus cost one division per distinct (numerator,
denominator) value pair: Percentage divides by the all-``ALL`` cell,
Conditional Probability by the condition-only cell. Without NumPy,
:func:`_answer_python` walks the candidates with per-subset dict
lookups and memoized interning.

Results live in :class:`SpaceResults`: an ``int32`` value-id per
candidate (-1 = not evaluated) plus the value table — the array currency
that :meth:`EvaluationOutcome.from_value_ids` and the EM loop carry
across iterations instead of ``dict[SimpleAggregateQuery, Value]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

try:  # pragma: no cover - exercised via monkeypatching in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.db.aggregates import ratio_value
from repro.db.values import Value

if TYPE_CHECKING:  # CandidateSpace is duck-typed to keep db free of model
    from repro.db.cache import CacheEntry
    from repro.db.query import AggregateSpec, ColumnRef


#: Candidate "function kinds" shared with the space encoding: how a
#: candidate's value derives from its basis-aggregate cells.
KIND_PLAIN = 0  # the basis cell itself
KIND_PERCENTAGE = 1  # basis count / all-ALL count
KIND_CONDITIONAL = 2  # basis count / condition-only count


def numpy_available() -> bool:
    """True when the vectorized gather kernels can run."""
    return _np is not None


# ----------------------------------------------------------------------
# Small array helpers (NumPy when available, pure Python otherwise)
# ----------------------------------------------------------------------


def full_mask(n: int) -> Any:
    """An all-True candidate mask of length ``n``."""
    if _np is not None:
        return _np.ones(n, dtype=bool)
    return [True] * n


def flatnonzero(mask: Any) -> Any:
    """Indices of the True entries of a boolean mask."""
    if _np is not None:
        return _np.flatnonzero(_np.asarray(mask))
    return [i for i, value in enumerate(mask) if value]


def unique_values(array: Any) -> list[int]:
    """Sorted distinct ints of an integer array."""
    if _np is not None:
        return [int(v) for v in _np.unique(_np.asarray(array))]
    return sorted({int(v) for v in array})


def select_where(values: Any, keys: Any, key: int) -> Any:
    """``values[keys == key]`` for parallel integer arrays."""
    if _np is not None:
        values = _np.asarray(values)
        return values[_np.asarray(keys) == key]
    return [v for v, k in zip(values, keys) if int(k) == key]


def map_ints(values: Any, mapping: dict[int, int], size: int) -> Any:
    """``mapping[v]`` per element, via a dense LUT when vectorized."""
    if _np is not None:
        lut = _np.full(size, -1, dtype=_np.int64)
        for key, value in mapping.items():
            lut[key] = value
        return lut[_np.asarray(values)]
    return [mapping[int(v)] for v in values]


def as_int_list(array: Any) -> list[int]:
    """Plain Python ints of an integer array (for per-element loops)."""
    if _np is not None and not isinstance(array, list):
        return [int(v) for v in _np.asarray(array).tolist()]
    return [int(v) for v in array]


# ----------------------------------------------------------------------
# Value interning and per-space results
# ----------------------------------------------------------------------


class ValueTable:
    """Distinct evaluation results of one space, interned to small ids.

    Keys include the value's type so ``3`` and ``3.0`` stay distinct (the
    per-query oracle preserves the exact cell objects; so does this).
    """

    __slots__ = ("values", "_ids")

    def __init__(self) -> None:
        self.values: list[Value] = []
        self._ids: dict[tuple[type, Value], int] = {}

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Value) -> int:
        key = (value.__class__, value)
        vid = self._ids.get(key)
        if vid is None:
            vid = len(self.values)
            self._ids[key] = vid
            self.values.append(value)
        return vid


class SpaceResults:
    """Evaluation results aligned with one candidate space.

    ``value_ids[i]`` is the id of candidate ``i``'s result in ``table``
    (-1 = not evaluated yet). Instances persist across EM iterations as
    the array-shaped replacement for the oracle path's result dict; the
    engine fills newly scoped candidates in place.
    """

    __slots__ = ("value_ids", "table")

    def __init__(self, n_candidates: int, table: ValueTable | None = None) -> None:
        self.table = table if table is not None else ValueTable()
        if _np is not None:
            self.value_ids = _np.full(n_candidates, -1, dtype=_np.int32)
        else:
            self.value_ids = [-1] * n_candidates

    @classmethod
    def for_space(cls, space) -> "SpaceResults":
        return cls(len(space))

    def __len__(self) -> int:
        return len(self.value_ids)

    def evaluated_mask(self) -> Any:
        """Boolean array: which candidates have a result."""
        if _np is not None and not isinstance(self.value_ids, list):
            return self.value_ids >= 0
        return [vid >= 0 for vid in self.value_ids]

    def any_evaluated(self) -> bool:
        if _np is not None and not isinstance(self.value_ids, list):
            return bool((self.value_ids >= 0).any())
        return any(vid >= 0 for vid in self.value_ids)

    def has_value_at(self, position: int) -> bool:
        return int(self.value_ids[position]) >= 0

    def value_at(self, position: int) -> Value:
        """Result of candidate ``position`` (None when not evaluated)."""
        vid = int(self.value_ids[position])
        return self.table.values[vid] if vid >= 0 else None

    def set_value(self, position: int, value: Value) -> None:
        self.value_ids[position] = self.table.intern(value)


@dataclass
class SpaceEvalRequest:
    """One claim's space plus the candidates to evaluate this round.

    ``mask`` selects candidates (bool per candidate); ``results`` is
    filled in place so carried instances accumulate across EM iterations.
    """

    space: Any  # CandidateSpace (duck-typed; see module docstring)
    mask: Any  # bool array
    results: SpaceResults


# ----------------------------------------------------------------------
# Gather kernels
# ----------------------------------------------------------------------


def answer_candidates(
    results: SpaceResults,
    space,
    positions: Any,
    dims: "tuple[ColumnRef, ...]",
    entries: "dict[AggregateSpec, CacheEntry]",
    budget=None,
) -> None:
    """Answer every candidate at ``positions`` from cached cube cells.

    ``positions`` index into ``space``; all of them share one base
    relation and one covering dimension set, whose cells (one
    :class:`~repro.db.cache.CacheEntry` per basis aggregate) are in
    ``entries``. Writes value ids into ``results`` in place. ``budget``
    (optional :class:`repro.budget.ResourceBudget`) re-checks the
    candidate limit for callers that gather without going through
    ``QueryEngine.evaluate_spaces`` (which already bounds the batch).
    """
    if budget is not None:
        budget.check_candidates(len(positions), "gather")
    if _np is not None:
        _answer_numpy(results, space, positions, dims, entries)
    else:
        _answer_python(results, space, positions, dims, entries)


def _answer_numpy(results, space, positions, dims, entries) -> None:
    enc = space.encoding()
    positions = _np.asarray(positions)
    if len(positions) == 0:
        return
    subset_ids = space.subset_index[positions]
    used, sub_inv = _np.unique(subset_ids, return_inverse=True)
    keys = enc.cell_keys(used, dims)
    specs, spec_row = _np.unique(
        enc.basis_spec_id[positions], return_inverse=True
    )
    kinds = enc.fn_kind[space.fn_index[positions]].astype(_np.int64)
    cond_ids = enc.cond_pair_id[positions]
    pairs = _np.unique(cond_ids[kinds == KIND_CONDITIONAL])
    pair_keys = [enc.cond_key(p, dims) for p in pairs.tolist()]
    all_key = tuple(_all_key(dims))

    # Every spec's distinct cell values (entry-local ids, then the
    # empty-group value) in one list: a global id is offset + local id.
    # Per spec and subset (and condition pair) one dict probe gives it.
    values: list[Value] = []
    subset_gid: list[list[int]] = []
    pair_gid: list[list[int]] = []
    pct_den: list[int] = []  # per global id: its spec's all-ALL cell
    for spec_local in specs.tolist():
        entry = entries[enc.basis_specs[spec_local]]
        index = entry.cell_index()
        base = len(values)
        missing = len(index.values)  # entry-local id of the empty-group value
        get = index.local_ids.get
        values.extend(index.values)
        values.append(entry.empty_value())
        subset_gid.append([base + get(key, missing) for key in keys])
        pair_gid.append([base + get(key, missing) for key in pair_keys])
        pct_den.extend([base + get(all_key, missing)] * (missing + 1))
    n_values = len(values)

    # Distinct (spec, kind, subset, condition) events in the order the
    # per-candidate loop interned them: spec by spec; plain, percentage,
    # then conditional; ascending subset, then condition.
    n_pairs = max(len(pairs), 1)
    pair_pos = _np.searchsorted(pairs, cond_ids) if len(pairs) else 0
    pair_pos = _np.where(kinds == KIND_CONDITIONAL, pair_pos, 0)
    event_key = (
        (spec_row.astype(_np.int64) * 3 + kinds) * len(used) + sub_inv
    ) * n_pairs + pair_pos
    events, event_inv = _np.unique(event_key, return_inverse=True)
    event_pair = events % n_pairs
    rest = events // n_pairs
    event_sub = rest % len(used)
    rest //= len(used)
    event_kind = rest % 3
    event_spec = rest // 3

    # Value code per event: a plain cell's global id; a percentage, N +
    # the numerator's id (the denominator follows from it); a conditional,
    # 2N + (numerator, denominator) ids. Equal codes share one division.
    numerator = _np.asarray(subset_gid, dtype=_np.int64)[event_spec, event_sub]
    codes = _np.where(event_kind == KIND_PLAIN, numerator, numerator + n_values)
    is_cond = event_kind == KIND_CONDITIONAL
    if is_cond.any():
        denominator = _np.asarray(pair_gid, dtype=_np.int64)[
            event_spec[is_cond], event_pair[is_cond]
        ]
        codes[is_cond] = 2 * n_values + numerator[is_cond] * n_values + denominator
    distinct, first, code_inv = _np.unique(
        codes, return_index=True, return_inverse=True
    )
    vids = _np.empty(len(distinct), dtype=_np.int32)
    intern = results.table.intern
    distinct_list = distinct.tolist()
    for k in _np.argsort(first, kind="stable").tolist():
        code = distinct_list[k]
        if code < n_values:
            value = values[code]
        elif code < 2 * n_values:
            code -= n_values
            value = ratio_value(values[code], values[pct_den[code]])
        else:
            num, den = divmod(code - 2 * n_values, n_values)
            value = ratio_value(values[num], values[den])
        vids[k] = intern(value)
    results.value_ids[positions] = vids[code_inv][event_inv]


def _answer_python(results, space, positions, dims, entries) -> None:
    enc = space.encoding()
    value_ids = results.value_ids
    table = results.table
    subset_index = space.subset_index
    fn_index = space.fn_index
    basis_spec_id = enc.basis_spec_id
    fn_kind = enc.fn_kind
    cond_pair_id = enc.cond_pair_id

    key_of: dict[int, tuple] = {}
    memo: dict[tuple[int, int, int], int] = {}  # (spec, subset, pair) -> vid
    for position in as_int_list(positions):
        si = int(subset_index[position])
        spec_id = int(basis_spec_id[position])
        kind = int(fn_kind[int(fn_index[position])])
        pair = int(cond_pair_id[position]) if kind == KIND_CONDITIONAL else -1
        memo_key = (spec_id, si, pair if kind == KIND_CONDITIONAL else -kind - 1)
        vid = memo.get(memo_key)
        if vid is None:
            entry = entries[enc.basis_specs[spec_id]]
            empty = entry.empty_value()
            key = key_of.get(si)
            if key is None:
                key = key_of[si] = enc.cell_key(si, dims)
            numerator = entry.cells.get(key, empty)
            if kind == KIND_PLAIN:
                value = numerator
            elif kind == KIND_PERCENTAGE:
                denominator = entry.cells.get(tuple(_all_key(dims)), empty)
                value = ratio_value(numerator, denominator)
            else:
                denominator = entry.cells.get(enc.cond_key(pair, dims), empty)
                value = ratio_value(numerator, denominator)
            vid = table.intern(value)
            memo[memo_key] = vid
        value_ids[position] = vid


def _all_key(dims: Sequence) -> list:
    from repro.db.cube import ALL

    return [ALL for _ in dims]

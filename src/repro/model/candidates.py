"""Candidate query spaces per claim (paper Section 4.4).

Combining retrieved fragments "in all possible ways (within the boundaries
of the query model)" yields the claim-specific candidate space: one
aggregation function x one aggregation column x a set of equality
predicates on distinct columns. Conditional-probability candidates
additionally choose which predicate is the condition.

The space is stored factorized (function x column x predicate-subset index
arrays) so the EM loop can re-score tens of thousands of candidates per
claim with a handful of numpy operations. The factorized form is also the
*evaluation currency*: :class:`SpaceEncoding` exposes per-dimension
literal-code vectors that let the query engine answer the whole space from
cube cells by integer gather (:mod:`repro.db.gather`), and real
``SimpleAggregateQuery`` objects materialize lazily — only the top-k /
verdict / reporting / interactive paths ever build them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from repro._compat import np, require_numpy

from repro.db.aggregates import AggregateFunction
from repro.db.cube import ALL
from repro.db.gather import KIND_CONDITIONAL, KIND_PERCENTAGE, KIND_PLAIN
from repro.db.query import AggregateSpec, ColumnRef, SimpleAggregateQuery
from repro.fragments.fragments import (
    ColumnFragment,
    FunctionFragment,
    PredicateFragment,
)
from repro.fragments.indexer import RelevanceScores
from repro.text.claims import Claim

#: Floor added to keyword scores so unretrieved-but-in-scope fragments
#: (e.g. the ``*`` column) keep non-zero probability.
SCORE_FLOOR_SHARE = 0.05


@dataclass(frozen=True)
class CandidateConfig:
    """Scope of the candidate space.

    ``max_predicates`` is the paper's ``m`` (at most m predicates per
    claim; m=3 in the paper, default 2 here matching the corpus where no
    claim uses three — Figure 9c). ``max_subsets`` caps the number of
    predicate combinations per claim (cost control, see PickScope).
    """

    max_predicates: int = 2
    max_subsets: int = 600
    include_conditional_probability: bool = True


class SpaceEncoding:
    """Integer view of one candidate space for cell-gather evaluation.

    Everything a query engine needs to answer candidates without
    materializing them:

    - ``pred_columns`` / ``literals``: the space's predicate columns and,
      per column, its distinct normalized literals (sorted);
    - ``subset_codes``: per predicate subset, one literal code per
      predicate column (0 = that column unrestricted) — the
      per-dimension literal-code vector a cube cell key maps onto;
    - ``subset_colset_id`` / ``col_sets``: per subset, its set of
      predicate columns;
    - ``tables_id`` / ``table_sets``: base-relation table set per
      candidate (empty set = the database's single table);
    - ``basis_spec_id`` / ``basis_specs``: the cube-computable aggregate
      backing each candidate (ratio functions share their column's COUNT);
    - ``fn_kind``: per function fragment, how candidate values derive from
      basis cells (:data:`~repro.db.gather.KIND_PLAIN` /
      ``KIND_PERCENTAGE`` / ``KIND_CONDITIONAL``);
    - ``cond_pair_id``: per candidate, the id of the (column,
      literal-code) pair of its condition predicate (-1 = no condition),
      whose parts are ``cond_pair_col`` / ``cond_pair_code``.

    Built from flat (subset, predicate) arrays with fancy assignment;
    per-fragment and per-column-set work runs once per distinct item.
    """

    __slots__ = (
        "pred_columns",
        "col_pos",
        "literals",
        "subset_codes",
        "col_sets",
        "subset_colset_id",
        "table_sets",
        "tables_id",
        "basis_specs",
        "basis_spec_id",
        "fn_kind",
        "cond_pair_col",
        "cond_pair_code",
        "cond_pair_id",
        "_literal_base",
        "_flat_literals",
    )

    def __init__(self, space: "CandidateSpace") -> None:
        # Every (subset, predicate) pair as flat arrays into the distinct
        # predicate fragments: per-fragment work below runs once per
        # fragment, and the subset matrices fill by fancy assignment.
        fragments, flat_subset, flat_fragment = space.predicate_arrays()
        n_subsets = len(space.subsets)
        columns = [fragment.column for fragment in fragments]
        literals = [fragment.predicate.normalized_value for fragment in fragments]
        self.pred_columns: list[ColumnRef] = sorted(set(columns))
        self.col_pos = {column: j for j, column in enumerate(self.pred_columns)}
        literal_sets: list[set[str]] = [set() for _ in self.pred_columns]
        for column, literal in zip(columns, literals):
            literal_sets[self.col_pos[column]].add(literal)
        self.literals = [sorted(values) for values in literal_sets]
        literal_code = [
            {literal: code + 1 for code, literal in enumerate(column_literals)}
            for column_literals in self.literals
        ]
        fragment_col = np.array(
            [self.col_pos[column] for column in columns], dtype=np.intp
        )
        fragment_code = np.array(
            [
                literal_code[j][literal]
                for j, literal in zip(fragment_col.tolist(), literals)
            ],
            dtype=np.int32,
        )
        flat_col = fragment_col[flat_fragment]
        flat_code = fragment_code[flat_fragment]

        self.subset_codes = np.zeros(
            (n_subsets, len(self.pred_columns)), dtype=np.int32
        )
        self.subset_codes[flat_subset, flat_col] = flat_code

        # Literal code -> (column, literal) through one flat id space, for
        # add_literals.
        sizes = [len(column_literals) for column_literals in self.literals]
        self._literal_base = np.cumsum([0] + sizes, dtype=np.int64)[:-1] - 1
        self._flat_literals = [
            (column, literal)
            for column, column_literals in zip(self.pred_columns, self.literals)
            for literal in column_literals
        ]

        # Predicate-column set per subset, derived once per distinct
        # column-presence row; ids follow first appearance over subsets.
        self.col_sets: list[frozenset[ColumnRef]] = []
        self.subset_colset_id = np.zeros(n_subsets, dtype=np.int32)
        if n_subsets:
            presence = self.subset_codes != 0
            if presence.shape[1]:
                rows, first, inverse = np.unique(
                    presence, axis=0, return_index=True, return_inverse=True
                )
                order = np.argsort(first, kind="stable")
                rank = np.empty(len(order), dtype=np.int32)
                rank[order] = np.arange(len(order), dtype=np.int32)
                self.subset_colset_id = rank[inverse.reshape(-1)]
            else:
                rows, order = np.zeros((1, 0), dtype=bool), np.zeros(1, np.intp)
            self.col_sets = [
                frozenset(
                    self.pred_columns[j] for j in np.flatnonzero(rows[k]).tolist()
                )
                for k in order.tolist()
            ]
        colset_tables = [
            frozenset(column.table for column in col_set if column.table)
            for col_set in self.col_sets
        ]

        column_tables = [
            frozenset({fragment.column.table})
            if fragment.column.table
            else frozenset()
            for fragment in space.columns
        ]

        # Table set per candidate. Both factors have very few distinct
        # table sets, so dedup over (column-variant, subset-variant) pairs
        # rather than raw (column, subset) pairs.
        self.table_sets: list[frozenset[str]] = []
        set_index: dict[frozenset[str], int] = {}
        if len(space.fn_index):
            subset_variants: list[frozenset[str]] = []
            subset_variant_index: dict[frozenset[str], int] = {}
            colset_tid = np.empty(max(len(colset_tables), 1), dtype=np.int64)
            for ci, tables in enumerate(colset_tables):
                tid = subset_variant_index.get(tables)
                if tid is None:
                    tid = subset_variant_index[tables] = len(subset_variants)
                    subset_variants.append(tables)
                colset_tid[ci] = tid
            subset_tid = colset_tid[self.subset_colset_id]
            column_variants: list[frozenset[str]] = []
            column_variant_index: dict[frozenset[str], int] = {}
            column_tid = np.empty(len(column_tables), dtype=np.int64)
            for ci, tables in enumerate(column_tables):
                tid = column_variant_index.get(tables)
                if tid is None:
                    tid = column_variant_index[tables] = len(column_variants)
                    column_variants.append(tables)
                column_tid[ci] = tid
            radix = max(len(subset_variants), 1)
            pair_codes = (
                column_tid[space.col_index] * radix
                + subset_tid[space.subset_index]
            )
            unique_pairs, inverse = np.unique(pair_codes, return_inverse=True)
            pair_ids = np.empty(len(unique_pairs), dtype=np.int32)
            for index, code in enumerate(unique_pairs.tolist()):
                ctid, stid = divmod(int(code), radix)
                tables = column_variants[ctid] | subset_variants[stid]
                tid = set_index.get(tables)
                if tid is None:
                    tid = set_index[tables] = len(self.table_sets)
                    self.table_sets.append(tables)
                pair_ids[index] = tid
            self.tables_id = pair_ids[inverse].astype(np.int32)
        else:
            self.tables_id = np.zeros(0, dtype=np.int32)

        # Basis aggregate per candidate, deduplicated over (fn, col) pairs.
        self.basis_specs: list[AggregateSpec] = []
        spec_index: dict[AggregateSpec, int] = {}
        n_columns = max(len(space.columns), 1)
        if len(space.fn_index):
            fc_codes = space.fn_index.astype(np.int64) * n_columns + space.col_index
            unique_fc, inverse = np.unique(fc_codes, return_inverse=True)
            spec_ids = np.empty(len(unique_fc), dtype=np.int32)
            for index, code in enumerate(unique_fc.tolist()):
                fi, ci = divmod(int(code), n_columns)
                function = space.functions[fi].function
                column = space.columns[ci].column
                basis = (
                    AggregateSpec(AggregateFunction.COUNT, column)
                    if function.is_ratio
                    else AggregateSpec(function, column)
                )
                sid = spec_index.get(basis)
                if sid is None:
                    sid = spec_index[basis] = len(self.basis_specs)
                    self.basis_specs.append(basis)
                spec_ids[index] = sid
            self.basis_spec_id = spec_ids[inverse].astype(np.int32)
        else:
            self.basis_spec_id = np.zeros(0, dtype=np.int32)

        self.fn_kind = np.array(
            [
                KIND_PERCENTAGE
                if fragment.function is AggregateFunction.PERCENTAGE
                else KIND_CONDITIONAL
                if fragment.function is AggregateFunction.CONDITIONAL_PROBABILITY
                else KIND_PLAIN
                for fragment in space.functions
            ],
            dtype=np.int8,
        )

        # Condition (column, literal-code) pair per conditional candidate;
        # pair ids follow first appearance over (subset, condition) order.
        self.cond_pair_id = np.full(len(space.fn_index), -1, dtype=np.int32)
        self.cond_pair_col = np.zeros(0, dtype=np.intp)
        self.cond_pair_code = np.zeros(0, dtype=np.int32)
        cond_positions = np.flatnonzero(space.cond_k >= 0)
        if len(cond_positions):
            radix = int(space.cond_k.max()) + 1
            codes = (
                space.subset_index[cond_positions].astype(np.int64) * radix
                + space.cond_k[cond_positions]
            )
            unique_codes, inverse = np.unique(codes, return_inverse=True)
            offsets = np.concatenate(
                ([0], np.cumsum(np.bincount(flat_subset, minlength=n_subsets)))
            )
            flat = offsets[unique_codes // radix] + unique_codes % radix
            code_radix = int(flat_code.max()) + 1
            pair_codes = flat_col[flat] * code_radix + flat_code[flat]
            distinct, first, pair_of = np.unique(
                pair_codes, return_index=True, return_inverse=True
            )
            order = np.argsort(first, kind="stable")
            rank = np.empty(len(order), dtype=np.int32)
            rank[order] = np.arange(len(order), dtype=np.int32)
            ordered = distinct[order]
            self.cond_pair_col = (ordered // code_radix).astype(np.intp)
            self.cond_pair_code = (ordered % code_radix).astype(np.int32)
            self.cond_pair_id[cond_positions] = rank[pair_of][inverse]

    def cell_key(self, subset_id: int, dims: tuple[ColumnRef, ...]) -> tuple:
        """Cube cell key addressing ``subset_id``'s predicate combination."""
        return self.cell_keys([subset_id], dims)[0]

    def cell_keys(
        self, subset_ids: np.ndarray, dims: tuple[ColumnRef, ...]
    ) -> list[tuple]:
        """:meth:`cell_key` of each of ``subset_ids``, one column at a time."""
        parts = []
        for dim in dims:
            j = self.col_pos.get(dim)
            if j is None:
                parts.append([ALL] * len(subset_ids))
                continue
            labels = [ALL] + self.literals[j]
            codes = self.subset_codes[subset_ids, j].tolist()
            parts.append([labels[code] for code in codes])
        return list(zip(*parts)) if parts else [()] * len(subset_ids)

    def cond_key(self, pair_id: int, dims: tuple[ColumnRef, ...]) -> tuple:
        """Cube cell key restricting only the condition's column."""
        j = int(self.cond_pair_col[pair_id])
        code = int(self.cond_pair_code[pair_id])
        column = self.pred_columns[j]
        literal = self.literals[j][code - 1]
        return tuple(literal if dim == column else ALL for dim in dims)

    def add_literals(
        self,
        subset_ids: np.ndarray,
        literal_union: dict[ColumnRef, set[str]],
    ) -> None:
        """Union the literals of the given subsets into ``literal_union``."""
        rows = self.subset_codes[np.unique(subset_ids)]
        flat = np.unique((rows + self._literal_base)[rows > 0])
        for index in flat.tolist():
            column, literal = self._flat_literals[index]
            literal_union.setdefault(column, set()).add(literal)

    def column_sets_used(
        self, subset_ids: np.ndarray
    ) -> set[frozenset[ColumnRef]]:
        """Distinct predicate-column sets among the given subsets."""
        return {
            self.col_sets[c]
            for c in np.unique(self.subset_colset_id[subset_ids]).tolist()
        }


@dataclass
class CandidateSpace:
    """Factorized candidate space for one claim.

    Candidates are triples into ``functions`` x ``columns`` x ``subsets``
    (``fn_index`` / ``col_index`` / ``subset_index``); conditional
    candidates additionally record which subset predicate is the condition
    (``cond_k``, -1 otherwise). ``queries`` materializes real
    ``SimpleAggregateQuery`` objects lazily — the evaluation hot path works
    on the index arrays alone.
    """

    claim: Claim
    functions: list[FunctionFragment]
    columns: list[ColumnFragment]
    subsets: list[tuple[PredicateFragment, ...]]
    #: log keyword probability per function / column / subset
    fn_keyword_log: np.ndarray
    col_keyword_log: np.ndarray
    subset_keyword_log: np.ndarray
    #: flattened candidates (index per factor; cond_k = condition choice)
    fn_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    col_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    subset_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    cond_k: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    #: lazily materialized query objects (see :attr:`queries`)
    _queries: list[SimpleAggregateQuery] | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built query -> position map (see :meth:`position_index`)
    _positions: dict[SimpleAggregateQuery, int] | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built factor lookup tables (see :meth:`position_of`)
    _locator: tuple | None = field(default=None, repr=False, compare=False)
    #: lazily built integer encoding (see :meth:`encoding`)
    _encoding: SpaceEncoding | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built flat (subset, predicate) arrays (see predicate_arrays)
    _predicate_arrays: tuple | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built flat (subset, column) arrays for the prior term
    _prior_arrays: tuple | None = field(default=None, repr=False, compare=False)
    #: lazily built Θ slot arrays, cached per PriorLayout identity
    _prior_slots: tuple | None = field(default=None, repr=False, compare=False)

    def predicate_arrays(self) -> tuple:
        """Flat (subset, predicate) structure of the space (cached).

        Returns ``(fragments, flat_subset, flat_fragment)``: the distinct
        predicate fragment objects in first-use order, and one entry per
        (subset, predicate) pair in subset-then-fragment order, where
        ``flat_fragment[p]`` indexes into ``fragments``. Fragments are told
        apart by identity (subsets share the retrieved fragment objects),
        which spares hashing the frozen dataclasses.
        """
        if self._predicate_arrays is None:
            fragments: list[PredicateFragment] = []
            slot: dict[int, int] = {}
            flat_subset: list[int] = []
            flat_fragment: list[int] = []
            for si, subset in enumerate(self.subsets):
                for fragment in subset:
                    k = slot.get(id(fragment))
                    if k is None:
                        k = slot[id(fragment)] = len(fragments)
                        fragments.append(fragment)
                    flat_subset.append(si)
                    flat_fragment.append(k)
            self._predicate_arrays = (
                fragments,
                np.asarray(flat_subset, dtype=np.intp),
                np.asarray(flat_fragment, dtype=np.intp),
            )
        return self._predicate_arrays

    def prior_arrays(self) -> tuple:
        """Flat restriction structure for the Θ prior term (cached).

        Returns ``(columns, flat_subset, flat_column)``: one entry per
        (subset, predicate) pair, in subset-then-fragment order, where
        ``flat_column[p]`` indexes into ``columns`` (first-use order). Lets
        ``compute_distribution`` accumulate per-subset restriction
        log-odds with one ``np.add.at`` instead of nested Python sums.
        """
        if self._prior_arrays is None:
            fragments, flat_subset, flat_fragment = self.predicate_arrays()
            columns: list[ColumnRef] = []
            column_pos: dict[ColumnRef, int] = {}
            fragment_column = np.empty(len(fragments), dtype=np.intp)
            for k, fragment in enumerate(fragments):
                j = column_pos.get(fragment.column)
                if j is None:
                    j = column_pos[fragment.column] = len(columns)
                    columns.append(fragment.column)
                fragment_column[k] = j
            self._prior_arrays = (
                columns,
                flat_subset,
                fragment_column[flat_fragment],
            )
        return self._prior_arrays

    def prior_slots(self, layout) -> tuple:
        """Θ table slots of this space's factors (cached per layout).

        Returns ``(fn_slots, col_slots, odds_slots)``: per function
        fragment, per column fragment, and per restricted column of
        :meth:`prior_arrays`, the index into the corresponding
        :meth:`~repro.model.priors.Priors.log_tables` array. One document's
        M-step priors all share one layout, so the E-step pays these dict
        lookups once per space instead of once per fragment per iteration.
        """
        cached = self._prior_slots
        if cached is not None and cached[0] is layout:
            return cached[1], cached[2], cached[3]
        fn_fallback = len(layout.fn_slot)
        fn_slots = np.fromiter(
            (
                layout.fn_slot.get(fragment.function, fn_fallback)
                for fragment in self.functions
            ),
            dtype=np.intp,
            count=len(self.functions),
        )
        col_fallback = len(layout.col_slot)
        col_slots = np.fromiter(
            (
                layout.col_slot.get(fragment.column, col_fallback)
                for fragment in self.columns
            ),
            dtype=np.intp,
            count=len(self.columns),
        )
        columns, _, _ = self.prior_arrays()
        odds_fallback = len(layout.odds_slot)
        odds_slots = np.fromiter(
            (layout.odds_slot.get(column, odds_fallback) for column in columns),
            dtype=np.intp,
            count=len(columns),
        )
        self._prior_slots = (layout, fn_slots, col_slots, odds_slots)
        return fn_slots, col_slots, odds_slots

    def __len__(self) -> int:
        if self._queries is not None:
            return len(self._queries)
        return len(self.fn_index)

    @property
    def queries(self) -> list[SimpleAggregateQuery]:
        """All candidate queries, materialized on first access.

        The evaluation path never touches this: it answers the factorized
        space directly (``QueryEngine.evaluate_space``). Only top-k /
        verdict / reporting / interactive consumers pay for real objects.
        """
        if self._queries is None:
            fn_list = self.fn_index.tolist()
            col_list = self.col_index.tolist()
            subset_list = self.subset_index.tolist()
            cond_list = self.cond_k.tolist()
            self._queries = [
                _build_query(self, fi, ci, si, k)
                for fi, ci, si, k in zip(fn_list, col_list, subset_list, cond_list)
            ]
        return self._queries

    @queries.setter
    def queries(self, value: list[SimpleAggregateQuery]) -> None:
        self._queries = value
        self._positions = None

    def query_at(self, position: int) -> SimpleAggregateQuery:
        """Materialize the single candidate at ``position``."""
        if self._queries is not None:
            return self._queries[position]
        return _build_query(
            self,
            int(self.fn_index[position]),
            int(self.col_index[position]),
            int(self.subset_index[position]),
            int(self.cond_k[position]),
        )

    def encoding(self) -> SpaceEncoding:
        """The integer encoding driving cell-gather evaluation (cached)."""
        if self._encoding is None:
            self._encoding = SpaceEncoding(self)
        return self._encoding

    def position_index(self) -> dict[SimpleAggregateQuery, int]:
        """Candidate position by query, built once per space.

        Lets result consumers (e.g. ``EvaluationOutcome.from_results``)
        index an evaluated subset into the space without a linear scan per
        query; built lazily because it materializes every query.
        """
        if self._positions is None or len(self._positions) != len(self.queries):
            self._positions = {
                query: index for index, query in enumerate(self.queries)
            }
        return self._positions

    def _subset_of(self, predicates: frozenset, fragment_ids: dict, sizes):
        """First subset whose predicates are exactly ``predicates``: the
        one of that size all of whose fragments carry a wanted predicate."""
        if any(predicate not in fragment_ids for predicate in predicates):
            return None
        _, flat_subset, flat_fragment = self.predicate_arrays()
        wanted = [k for predicate in predicates for k in fragment_ids[predicate]]
        hits = np.bincount(
            flat_subset[np.isin(flat_fragment, wanted)],
            minlength=len(self.subsets),
        )
        found = np.flatnonzero((hits == len(predicates)) & (sizes == len(predicates)))
        return int(found[0]) if len(found) else None

    def position_of(self, query: SimpleAggregateQuery) -> int | None:
        """Position of ``query`` in the space (None if absent).

        Uses the materialized :meth:`position_index` when queries already
        exist; otherwise locates the query through the factor lookup
        tables so a single membership probe (e.g. ``rank_of`` on the
        ground-truth query) does not force materialization.
        """
        if self._queries is not None:
            return self.position_index().get(query)
        if self._locator is None:
            fn_pos: dict[AggregateFunction, int] = {}
            for index, fragment in enumerate(self.functions):
                fn_pos.setdefault(fragment.function, index)
            col_pos: dict[ColumnRef, int] = {}
            for index, fragment in enumerate(self.columns):
                col_pos.setdefault(fragment.column, index)
            fragments, flat_subset, _ = self.predicate_arrays()
            fragment_ids: dict = {}
            for k, fragment in enumerate(fragments):
                fragment_ids.setdefault(fragment.predicate, []).append(k)
            sizes = np.bincount(flat_subset, minlength=len(self.subsets))
            self._locator = (fn_pos, col_pos, fragment_ids, sizes)
        fn_pos, col_pos, fragment_ids, sizes = self._locator
        fi = fn_pos.get(query.aggregate.function)
        ci = col_pos.get(query.aggregate.column)
        si = self._subset_of(frozenset(query.all_predicates), fragment_ids, sizes)
        if fi is None or ci is None or si is None:
            return None
        mask = (
            (self.fn_index == fi)
            & (self.col_index == ci)
            & (self.subset_index == si)
        )
        for position in np.flatnonzero(mask).tolist():
            k = int(self.cond_k[position])
            if query.condition is None:
                if k < 0:
                    return position
            elif k >= 0 and self.subsets[si][k].predicate == query.condition:
                return position
        return None


def _build_query(
    space: CandidateSpace, fi: int, ci: int, si: int, k: int
) -> SimpleAggregateQuery:
    spec = AggregateSpec(space.functions[fi].function, space.columns[ci].column)
    predicates = tuple(fragment.predicate for fragment in space.subsets[si])
    if k >= 0:
        condition = predicates[k]
        event = predicates[:k] + predicates[k + 1 :]
        return SimpleAggregateQuery(spec, event, condition)
    return SimpleAggregateQuery(spec, predicates)


def build_candidates(
    claim: Claim,
    scores: RelevanceScores,
    config: CandidateConfig | None = None,
) -> CandidateSpace:
    """Construct the candidate space for one claim from its relevance
    scores."""
    require_numpy("candidate-space construction")
    config = config or CandidateConfig()

    functions = list(scores.functions)
    columns = list(scores.columns)
    # Score values ride along as dict-order-aligned arrays (shared with
    # the batched matcher's catalog-aligned output).
    fn_values, col_values, _ = scores.value_arrays()
    fn_keyword_log = _normalized_log_scores(fn_values)
    col_keyword_log = _normalized_log_scores(col_values)

    subsets, subset_keyword_log = _predicate_subsets(scores, config)

    space = CandidateSpace(
        claim=claim,
        functions=functions,
        columns=columns,
        subsets=subsets,
        fn_keyword_log=fn_keyword_log,
        col_keyword_log=col_keyword_log,
        subset_keyword_log=subset_keyword_log,
    )
    _index_candidates(space, config)
    return space


def _normalized_log_scores(raw: list[float]) -> np.ndarray:
    """Scores -> log probabilities with a floor share for weak entries
    (paper: Pr(S|Q) proportional to the fragment's relevance score)."""
    if not raw:
        return np.zeros(0)
    array = np.asarray(raw, dtype=float)
    array = np.maximum(array, 0.0)
    peak = array.max()
    floor = peak * SCORE_FLOOR_SHARE if peak > 0 else 1.0
    array = array + floor
    return np.log(array / array.sum())


def _predicate_subsets(
    scores: RelevanceScores, config: CandidateConfig
) -> tuple[list[tuple[PredicateFragment, ...]], np.ndarray]:
    fragments = sorted(
        scores.predicates, key=lambda f: -scores.predicates[f]
    )
    total = sum(scores.predicates.values()) or 1.0
    log_share = {
        fragment: math.log(max(scores.predicates[fragment], 1e-12) / total)
        for fragment in fragments
    }
    # Combine fragment positions: column ids and shares are plain ints and
    # floats, so the loop below hashes no fragment dataclasses.
    column_id: dict[ColumnRef, int] = {}
    columns = [
        column_id.setdefault(fragment.column, len(column_id))
        for fragment in fragments
    ]
    shares = [log_share[fragment] for fragment in fragments]
    subsets: list[tuple[PredicateFragment, ...]] = [()]
    subset_logs: list[float] = [0.0]
    for size in range(1, config.max_predicates + 1):
        for combo in combinations(range(len(fragments)), size):
            if len({columns[i] for i in combo}) != size:
                continue  # one restriction per column
            subsets.append(tuple(fragments[i] for i in combo))
            subset_logs.append(sum(shares[i] for i in combo))
    if len(subsets) > config.max_subsets:
        # Keep the empty set plus the highest-scoring subsets.
        order = sorted(
            range(1, len(subsets)), key=lambda i: -subset_logs[i]
        )[: config.max_subsets - 1]
        keep = [0] + sorted(order)
        subsets = [subsets[i] for i in keep]
        subset_logs = [subset_logs[i] for i in keep]
    return subsets, np.asarray(subset_logs)


def _index_candidates(space: CandidateSpace, config: CandidateConfig) -> None:
    """Enumerate candidates as index arrays — no query objects.

    Preserves the historical enumeration order exactly: functions outer,
    columns next, subsets inner; conditional candidates expand each subset
    of size >= 2 once per condition choice.
    """
    fn_idx: list[int] = []
    col_idx: list[int] = []
    subset_idx: list[int] = []
    cond_idx: list[int] = []
    n_subsets = len(space.subsets)
    all_subsets = range(n_subsets)
    no_condition = [-1] * n_subsets
    # Conditional expansion template: (subset, condition position) pairs in
    # subset order, reused for every valid (function, column) pair.
    cond_subsets: list[int] = []
    cond_choices: list[int] = []
    for si, subset in enumerate(space.subsets):
        size = len(subset)
        if size >= 2:
            cond_subsets.extend([si] * size)
            cond_choices.extend(range(size))
    for fi, fn_fragment in enumerate(space.functions):
        function = fn_fragment.function
        is_conditional = (
            function is AggregateFunction.CONDITIONAL_PROBABILITY
        )
        if is_conditional and not config.include_conditional_probability:
            continue
        for ci, col_fragment in enumerate(space.columns):
            if not _valid_pair(function, col_fragment):
                continue
            if is_conditional:
                count = len(cond_subsets)
                fn_idx.extend([fi] * count)
                col_idx.extend([ci] * count)
                subset_idx.extend(cond_subsets)
                cond_idx.extend(cond_choices)
            else:
                fn_idx.extend([fi] * n_subsets)
                col_idx.extend([ci] * n_subsets)
                subset_idx.extend(all_subsets)
                cond_idx.extend(no_condition)
    space.fn_index = np.asarray(fn_idx, dtype=np.int32)
    space.col_index = np.asarray(col_idx, dtype=np.int32)
    space.subset_index = np.asarray(subset_idx, dtype=np.int32)
    space.cond_k = np.asarray(cond_idx, dtype=np.int32)


def _valid_pair(function: AggregateFunction, column: ColumnFragment) -> bool:
    if column.is_star:
        # Only the count family and ratio functions work on '*'.
        return function in (
            AggregateFunction.COUNT,
            AggregateFunction.PERCENTAGE,
            AggregateFunction.CONDITIONAL_PROBABILITY,
        )
    if function is AggregateFunction.COUNT_DISTINCT:
        return True
    if function.needs_numeric_column:
        return True  # catalog only offers numeric aggregation columns
    # Count / Percentage / CondProb on a real column are valid SQL.
    return True

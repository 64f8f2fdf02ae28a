"""Bit-identity of the factorized space evaluation path vs the per-query oracle.

The per-query path (materialize every candidate, ``QueryEngine.evaluate``,
``EvaluationOutcome.from_results``) is the reference semantics. Every test
here asserts that the zero-materialization path
(``QueryEngine.evaluate_space`` + ``EvaluationOutcome.from_value_ids``)
produces identical verdicts, probabilities, evaluated/match vectors, and
per-candidate values — across all three execution modes, both physical
backends, full and budgeted evaluation scopes, ratio and
conditional-probability candidates, and empty-group cells. One test
monkeypatches the NumPy guard to exercise the pure-Python gather fallback.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

np = pytest.importorskip("numpy")  # the model layer has no pure-Python fallback
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.gather as gather
from repro.db import Column, ColumnType, Database, QueryEngine, Table
from repro.db.columnar import ExecutionBackend
from repro.db.engine import EngineConfig, EngineStats, ExecutionMode
from repro.db.gather import SpaceResults, ValueTable
from repro.evalexec import ScopeConfig, refine_by_eval, refine_by_eval_space
from repro.fragments import FragmentIndex, extract_fragments
from repro.matching import keyword_match
from repro.model import EmConfig, build_candidates, compute_distribution, query_and_learn
from repro.model.candidates import CandidateConfig
from repro.model.probability import EvaluationOutcome
from repro.core.verdict import make_verdict
from repro.fragments.indexer import RelevanceScores
from repro.text import Document, detect_claims

from tests.conftest import NFL_ROWS
from tests.db.strategies import nullheavy_databases, small_databases

MODES = list(ExecutionMode)
BACKENDS = list(ExecutionBackend)

#: EngineStats fields that must match between the two paths. Excluded:
#: ``query_seconds`` (wall clock), ``gathered_candidates`` (by definition
#: only the space path counts them), and ``queries_requested`` (the space
#: path counts logical candidate evaluations before cross-claim dedup).
COMPARABLE_STATS = (
    "physical_queries",
    "cube_queries",
    "cache_hits",
    "cache_misses",
    "disk_hits",
    "disk_misses",
    "rows_scanned",
)


def make_claim(value):
    document = Document.from_plain_text(
        "T", [f"The data shows {value} interesting things."]
    )
    claims = detect_claims(document)
    assert claims, value
    return claims[0]


def assert_same_outcome(space, oracle, spacey):
    assert np.array_equal(oracle.evaluated, spacey.evaluated)
    assert np.array_equal(oracle.matches, spacey.matches)
    for position in np.flatnonzero(spacey.evaluated).tolist():
        expected = oracle.result_at(space, position)
        actual = spacey.result_at(space, position)
        assert expected == actual and type(expected) is type(actual), (
            position,
            expected,
            actual,
        )


def assert_same_stats(old: EngineStats, new: EngineStats, names=COMPARABLE_STATS):
    for name in names:
        assert getattr(old, name) == getattr(new, name), name


@st.composite
def random_scores(draw, catalog) -> RelevanceScores:
    """Random relevance scores over a fragment catalog.

    Always keeps every function fragment (so ratio and
    conditional-probability candidates stay in play) and at least one
    column; predicates are a random subsample with random scores.
    """
    score = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    functions = {fragment: draw(score) for fragment in catalog.functions}
    n_columns = draw(st.integers(min_value=1, max_value=len(catalog.columns)))
    columns = {fragment: draw(score) for fragment in catalog.columns[:n_columns]}
    predicate_pool = list(catalog.predicates)
    n_predicates = draw(
        st.integers(min_value=0, max_value=min(len(predicate_pool), 6))
    )
    predicates = {
        fragment: draw(score) for fragment in predicate_pool[:n_predicates]
    }
    return RelevanceScores(functions, columns, predicates)


class TestSpacePathMatchesOracle:
    """Randomized single-claim refinement: both paths, bit for bit."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(database=small_databases() | nullheavy_databases(), data=st.data())
    def test_refine_identical(self, mode, backend, database, data):
        catalog = extract_fragments(database)
        claim = make_claim(data.draw(st.sampled_from([1, 3, 4.0, 25, 50.0])))
        scores = data.draw(random_scores(catalog))
        space = build_candidates(claim, scores)
        budget = data.draw(st.none() | st.integers(min_value=1, max_value=30))
        config = ScopeConfig(max_evaluations_per_claim=budget)
        preliminary = None
        if budget is not None:
            preliminary = {claim: compute_distribution(space)}

        engine_old = QueryEngine(database, EngineConfig(mode=mode, backend=backend))
        engine_new = QueryEngine(database, EngineConfig(mode=mode, backend=backend))
        oracle = refine_by_eval({claim: space}, preliminary, engine_old, config)
        spacey = refine_by_eval_space(
            {claim: space}, preliminary, engine_new, config
        )
        assert_same_outcome(space, oracle[claim], spacey[claim])
        assert_same_stats(engine_old.stats, engine_new.stats)
        # Single claim, no duplicate candidates: even the logical request
        # count matches between the two paths.
        assert (
            engine_old.stats.queries_requested
            == engine_new.stats.queries_requested
        )

        # Downstream: identical distributions and verdicts.
        d_old = compute_distribution(space, None, oracle[claim])
        d_new = compute_distribution(space, None, spacey[claim])
        assert np.array_equal(d_old.probabilities, d_new.probabilities)
        v_old = make_verdict(claim, d_old)
        v_new = make_verdict(claim, d_new)
        assert v_old.status is v_new.status
        assert v_old.top_query == v_new.top_query
        assert v_old.top_result == v_new.top_result


@pytest.fixture(scope="module")
def nfl_pipeline():
    table = Table(
        "nflsuspensions",
        [
            Column("Name"),
            Column("Team"),
            Column("Games"),
            Column("Category"),
            Column("Year", ColumnType.NUMERIC),
        ],
        NFL_ROWS,
    )
    database = Database("nfl", [table])
    document = Document.from_plain_text(
        "bans",
        [
            "There were 4 suspensions for gambling or abuse in the data.",
            "The data lists 9 suspensions overall.",
            "About 44 percent of suspensions were indefinite.",
        ],
    )
    claims = detect_claims(document)
    catalog = extract_fragments(database)
    index = FragmentIndex(catalog)
    scores = keyword_match(claims, index)
    spaces = {c: build_candidates(c, scores[c]) for c in claims}
    return database, catalog, claims, spaces


class TestMultiClaimDocument:
    """Cross-claim batches share cube work identically on both paths."""

    @pytest.mark.parametrize("mode", MODES)
    def test_physical_work_identical(self, nfl_pipeline, mode):
        database, _, claims, spaces = nfl_pipeline
        engine_old = QueryEngine(database, EngineConfig(mode=mode))
        engine_new = QueryEngine(database, EngineConfig(mode=mode))
        oracle = refine_by_eval(spaces, None, engine_old)
        spacey = refine_by_eval_space(spaces, None, engine_new)
        for claim in claims:
            assert_same_outcome(spaces[claim], oracle[claim], spacey[claim])
        assert_same_stats(engine_old.stats, engine_new.stats)

    @pytest.mark.parametrize("budget", [None, 25])
    def test_query_and_learn_identical(self, nfl_pipeline, budget):
        database, catalog, claims, spaces = nfl_pipeline
        scope = ScopeConfig(max_evaluations_per_claim=budget)
        result_new = query_and_learn(
            spaces,
            catalog,
            QueryEngine(database),
            EmConfig(scope=scope, space_eval=True),
        )
        result_old = query_and_learn(
            spaces,
            catalog,
            QueryEngine(database),
            EmConfig(scope=scope, space_eval=False),
        )
        assert result_new.iterations == result_old.iterations
        assert result_new.priors.functions == result_old.priors.functions
        assert result_new.priors.columns == result_old.priors.columns
        assert result_new.priors.restrictions == result_old.priors.restrictions
        for claim in claims:
            d_new = result_new.distributions[claim]
            d_old = result_old.distributions[claim]
            assert np.array_equal(d_new.probabilities, d_old.probabilities)
            v_new = make_verdict(claim, d_new)
            v_old = make_verdict(claim, d_old)
            assert v_new.status is v_old.status
            assert v_new.top_query == v_old.top_query
            assert v_new.top_result == v_old.top_result
            assert v_new.probability_correct == v_old.probability_correct

    def test_carried_results_skip_reevaluation(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        engine = QueryEngine(database)
        carried = {}
        refine_by_eval_space(spaces, None, engine, None, carried)
        requested = engine.stats.queries_requested
        gathered = engine.stats.gathered_candidates
        again = refine_by_eval_space(spaces, None, engine, None, carried)
        # Everything was already answered: nothing reaches the engine.
        assert engine.stats.queries_requested == requested
        assert engine.stats.gathered_candidates == gathered
        for claim in claims:
            assert again[claim].evaluated.all()


class TestMergedCacheEntry:
    """A cache entry extended between two batches re-indexes its cells."""

    def test_merge_between_batches_gathers_like_oracle(self, nfl_pipeline):
        database, catalog, claims, _ = nfl_pipeline
        games = sorted(
            (f for f in catalog.predicates if f.column.column == "Games"),
            key=lambda f: f.predicate.normalized_value,
        )
        assert len(games) >= 2

        def scores(predicates):
            return RelevanceScores(
                {f: 1.0 for f in catalog.functions},
                {f: 1.0 for f in catalog.columns},
                {f: 1.0 for f in predicates},
            )

        first = build_candidates(claims[0], scores(games[:1]))
        second = build_candidates(claims[1], scores(games[1:]))
        engine = QueryEngine(database)
        refine_by_eval_space({claims[0]: first}, None, engine)
        before = {
            key: (set(entry.literals.get(games[0].column, set())), entry._index)
            for key, entry in engine.cache._entries.items()
        }

        spacey = refine_by_eval_space({claims[1]: second}, None, engine)
        oracle = refine_by_eval({claims[1]: second}, None, QueryEngine(database))
        assert_same_outcome(second, oracle[claims[1]], spacey[claims[1]])
        merged = [
            (entry, before[key][1])
            for key, entry in engine.cache._entries.items()
            if key in before
            and entry.literals.get(games[0].column, set()) > before[key][0]
        ]
        # The second batch's new literals extended existing entries, and
        # the gather rebuilt their (dropped) cell index.
        assert merged
        for entry, old_index in merged:
            assert entry._index is not None and entry._index is not old_index


class TestPythonFallback:
    """The pure-Python gather kernels must equal the NumPy kernels."""

    def test_fallback_matches_numpy(self, nfl_pipeline, monkeypatch):
        database, _, claims, spaces = nfl_pipeline
        engine_np = QueryEngine(database)
        with_numpy = refine_by_eval_space(spaces, None, engine_np)

        monkeypatch.setattr(gather, "_np", None)
        engine_py = QueryEngine(database)
        without_numpy = refine_by_eval_space(spaces, None, engine_py)
        for claim in claims:
            space = spaces[claim]
            assert np.array_equal(
                with_numpy[claim].evaluated,
                np.asarray(without_numpy[claim].evaluated),
            )
            assert np.array_equal(
                with_numpy[claim].matches,
                np.asarray(without_numpy[claim].matches),
            )
            for position in range(len(space)):
                expected = with_numpy[claim].result_at(space, position)
                actual = without_numpy[claim].result_at(space, position)
                assert expected == actual and type(expected) is type(actual)
        assert_same_stats(engine_np.stats, engine_py.stats)


class TestLazyMaterialization:
    """The default path must never build per-candidate query objects."""

    def test_space_eval_leaves_queries_unmaterialized(self, nfl_pipeline):
        database, catalog, claims, spaces_src = nfl_pipeline
        # Fresh spaces: the module fixture may have been materialized by
        # other tests.
        index = FragmentIndex(catalog)
        scores = keyword_match(claims, index)
        spaces = {c: build_candidates(c, scores[c]) for c in claims}
        engine = QueryEngine(database)
        outcomes = refine_by_eval_space(spaces, None, engine)
        for claim, space in spaces.items():
            assert space._queries is None
            distribution = compute_distribution(space, None, outcomes[claim])
            verdict = make_verdict(claim, distribution)
            assert verdict.top_query is not None
            # Verdict generation materializes only the top candidate.
            assert space._queries is None

    def test_query_at_matches_materialized_list(self, nfl_pipeline):
        _, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        rebuilt = [space.query_at(i) for i in range(len(space))]
        assert rebuilt == space.queries

    def test_position_of_matches_index(self, nfl_pipeline):
        _, catalog, claims, spaces = nfl_pipeline
        index = FragmentIndex(catalog)
        scores = keyword_match(claims, index)
        space = build_candidates(claims[0], scores[claims[0]])
        probe = [0, 1, len(space) // 2, len(space) - 1]
        queries = [space.query_at(i) for i in probe]
        # Factorized lookup (no materialization).
        for expected, query in zip(probe, queries):
            assert space.position_of(query) == expected
        assert space._queries is None
        # After materialization the dict index takes over; same answers.
        all_queries = space.queries
        for expected, query in zip(probe, queries):
            assert space.position_of(query) == all_queries.index(query)

    def test_position_of_foreign_query_is_none(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        from repro.db import parse_query

        space = spaces[claims[0]]
        foreign = parse_query(
            "SELECT Sum(Year) FROM nflsuspensions WHERE Name = 'nobody'",
            database,
        )
        assert space.position_of(foreign) is None


class TestConditionalCoverage:
    """Ratio / conditional candidates and empty groups take the gather path."""

    def test_space_contains_ratio_and_conditional(self, nfl_pipeline):
        _, _, claims, spaces = nfl_pipeline
        from repro.db import AggregateFunction

        space = spaces[claims[0]]
        functions = {
            space.functions[fi].function for fi in np.unique(space.fn_index)
        }
        assert AggregateFunction.PERCENTAGE in functions
        assert AggregateFunction.CONDITIONAL_PROBABILITY in functions
        assert (space.cond_k >= 0).any()

    def test_empty_group_cells_answered(self, nfl_pipeline):
        """Candidates over predicate combos with no rows get count 0 /
        NULL, exactly like the oracle."""
        database, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        engine = QueryEngine(database)
        results = engine.evaluate_space(space)
        oracle = QueryEngine(database).evaluate(space.queries)
        zero_seen = none_seen = False
        for position, query in enumerate(space.queries):
            value = results.value_at(position)
            assert value == oracle[query] and type(value) is type(oracle[query])
            if value == 0 and query.predicates:
                zero_seen = True
            if value is None:
                none_seen = True
        assert zero_seen and none_seen


class TestSpaceResults:
    def test_value_table_interns_by_type_and_value(self):
        table = ValueTable()
        assert table.intern(3) == table.intern(3)
        assert table.intern(3) != table.intern(3.0)
        assert table.intern(None) != table.intern(0)
        assert table.values[table.intern(3)] == 3

    def test_set_and_read_back(self):
        results = SpaceResults(4)
        assert not results.any_evaluated()
        results.set_value(2, 7.5)
        assert results.any_evaluated()
        assert results.has_value_at(2)
        assert not results.has_value_at(0)
        assert results.value_at(2) == 7.5
        assert results.value_at(0) is None
        mask = np.asarray(results.evaluated_mask())
        assert mask.tolist() == [False, False, True, False]

    def test_from_value_ids_scope_mask(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        engine = QueryEngine(database)
        results = engine.evaluate_space(space)
        mask = np.zeros(len(space), dtype=bool)
        mask[:10] = True
        outcome = EvaluationOutcome.from_value_ids(space, results, mask)
        assert outcome.evaluated.sum() == 10
        assert not outcome.matches[10:].any()

    def test_engine_stats_fields_cover_gathered(self):
        names = {spec.name for spec in fields(EngineStats)}
        assert "gathered_candidates" in names

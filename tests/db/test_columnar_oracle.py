"""Randomized cross-checks of the columnar backend against the row-wise oracle.

The row-wise executor, join, and cube implementations are the reference
semantics; every test here asserts that the dictionary-encoded columnar
backend produces identical results — cell-for-cell for cubes, value-for-value
for SimpleAggregateQueries — on randomized databases including NULL-heavy
columns, messy numeric strings, dangling join keys, and empty groups. One
test monkeypatches the NumPy import guard to exercise the pure-Python
fallback kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.columnar as columnar
from repro.db import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    CubeQuery,
    EngineConfig,
    ExecutionBackend,
    ExecutionMode,
    QueryEngine,
    STAR,
    execute_cube,
    execute_query,
    parse_query,
)
from repro.db.columnar import ColumnarRelation
from repro.db.joins import JoinGraph

from tests.db.strategies import (
    CATEGORIES,
    FLAGS,
    claim_queries,
    conditional_queries,
    joined_databases,
    joined_queries,
    nullheavy_databases,
    small_databases,
)

CATEGORY = ColumnRef("facts", "category")
FLAG = ColumnRef("facts", "flag")
AMOUNT = ColumnRef("facts", "amount")

#: All basis aggregates over the facts table (star + every real column).
FACTS_SPECS = (
    AggregateSpec(AggregateFunction.COUNT, STAR),
    AggregateSpec(AggregateFunction.COUNT, AMOUNT),
    AggregateSpec(AggregateFunction.COUNT_DISTINCT, CATEGORY),
    AggregateSpec(AggregateFunction.COUNT_DISTINCT, AMOUNT),
    AggregateSpec(AggregateFunction.SUM, AMOUNT),
    AggregateSpec(AggregateFunction.AVG, AMOUNT),
    AggregateSpec(AggregateFunction.MIN, AMOUNT),
    AggregateSpec(AggregateFunction.MAX, AMOUNT),
)


def assert_value_equal(expected, actual, context="", typed=True):
    """Equal values, and (``typed``) equal types: ``158535`` is not
    ``158535.0``, which verdict payloads tell apart."""
    if expected is None:
        assert actual is None, f"{context}: row-wise None, columnar {actual!r}"
    else:
        assert actual is not None, f"{context}: row-wise {expected!r}, columnar None"
        assert actual == pytest.approx(expected), context
        if typed:
            assert type(actual) is type(expected), (
                f"{context}: row-wise {expected!r}, columnar {actual!r}"
            )


def typed_across_paths(query) -> bool:
    """Whether a per-query comparison may check types.

    The row-wise oracle itself types Sum two ways: per query
    (``compute_plain``) an all-int Sum is an int, from a cube it is a
    float. Every other aggregate is typed alike on both paths.
    """
    return query.aggregate.function is not AggregateFunction.SUM


def assert_cube_results_equal(row_result, col_result):
    """Cell-for-cell equality: same keys, same specs, same values."""
    assert set(col_result.cells) == set(row_result.cells)
    for key, row_cell in row_result.cells.items():
        col_cell = col_result.cells[key]
        assert set(col_cell) == set(row_cell)
        for spec, expected in row_cell.items():
            assert_value_equal(expected, col_cell[spec], f"{key} {spec}")


def both_graphs(database):
    return (
        JoinGraph(database, backend=ExecutionBackend.ROW),
        JoinGraph(database, backend=ExecutionBackend.COLUMNAR),
    )


@st.composite
def facts_cubes(draw) -> CubeQuery:
    """A random cube over the facts table.

    Literal sets may include values that never occur (empty groups) and the
    dimension list may be empty (pure ALL-cell cube).
    """
    dims = draw(
        st.sets(st.sampled_from([CATEGORY, FLAG]), min_size=0, max_size=2)
    )
    ordered = tuple(sorted(dims))
    literal_pool = {
        CATEGORY: CATEGORIES + ["absent-literal"],
        FLAG: FLAGS + ["absent-literal"],
    }
    literals = tuple(
        (
            dim,
            frozenset(
                draw(st.sets(st.sampled_from(literal_pool[dim]), min_size=1, max_size=3))
            ),
        )
        for dim in ordered
    )
    n_specs = draw(st.integers(min_value=1, max_value=len(FACTS_SPECS)))
    return CubeQuery(
        tables=frozenset({"facts"}),
        dimensions=ordered,
        literals=literals,
        aggregates=FACTS_SPECS[:n_specs],
    )


@settings(max_examples=60, deadline=None)
@given(database=small_databases() | nullheavy_databases(), cube=facts_cubes())
def test_cube_matches_rowwise_oracle(database, cube):
    """Property: columnar cube cells equal row-wise cube cells exactly."""
    row_graph, col_graph = both_graphs(database)
    row_result = execute_cube(database, cube, row_graph)
    col_result = execute_cube(database, cube, col_graph)
    assert isinstance(col_graph.relation({"facts"}), ColumnarRelation)
    assert_cube_results_equal(row_result, col_result)


@settings(max_examples=60, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    query=claim_queries() | conditional_queries(),
)
def test_simple_queries_match_rowwise_oracle(database, query):
    """Property: execute_query agrees between backends on random inputs."""
    row_graph, col_graph = both_graphs(database)
    expected = execute_query(database, query, row_graph)
    actual = execute_query(database, query, col_graph)
    assert_value_equal(expected, actual, str(query), typed_across_paths(query))


@settings(max_examples=40, deadline=None)
@given(database=joined_databases(), queries=st.lists(joined_queries(), min_size=1, max_size=8))
def test_joined_queries_match_rowwise_oracle(database, queries):
    """Property: hash join on key codes reproduces the row-wise equi-join
    (NULL keys and dangling foreign keys drop identically) for every mode."""
    for mode in (ExecutionMode.NAIVE, ExecutionMode.MERGED_CACHED):
        row = QueryEngine(database, EngineConfig(mode=mode, backend=ExecutionBackend.ROW)).evaluate(queries)
        col = QueryEngine(database, EngineConfig(mode=mode, backend=ExecutionBackend.COLUMNAR)).evaluate(
            queries
        )
        for query in set(queries):
            assert_value_equal(
                row[query], col[query], f"{mode} {query}", typed_across_paths(query)
            )


@settings(max_examples=40, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    queries=st.lists(
        claim_queries() | conditional_queries(), min_size=1, max_size=10
    ),
)
def test_engine_modes_match_across_backends(database, queries):
    """Property: the full engine ladder agrees between backends, including
    repeat evaluation through the result cache."""
    naive_row = QueryEngine(database, EngineConfig(mode=ExecutionMode.NAIVE, backend=ExecutionBackend.ROW
    )).evaluate(queries)
    engine = QueryEngine(database, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend=ExecutionBackend.COLUMNAR
    ))
    engine.evaluate(queries)  # populate the cache
    cached = engine.evaluate(queries)  # answer from cached columnar cells
    for query in set(queries):
        assert_value_equal(
            naive_row[query], cached[query], str(query), typed_across_paths(query)
        )


class TestJoinStructure:
    def test_columnar_join_matches_rowwise_rows(self, star_db):
        """The joined relations have identical row multisets (checked via
        per-column value counts and the relation length)."""
        row_graph, col_graph = both_graphs(star_db)
        row_rel = row_graph.relation({"players", "teams"})
        col_rel = col_graph.relation({"players", "teams"})
        assert isinstance(col_rel, ColumnarRelation)
        assert len(col_rel) == len(row_rel)
        assert col_rel.columns == row_rel.columns
        for column in row_rel.columns:
            vector = col_rel.vector(column)
            decoded = sorted(
                vector.dictionary.values[code] for code in vector.codes
            )
            from repro.db.values import normalize_string

            expected = sorted(
                normalize_string(value) for value in row_rel.column_values(column)
            )
            assert decoded == expected

    def test_empty_relation_cube(self):
        from repro.db import Column, ColumnType, Database, Table

        database = Database(
            "empty", [Table("facts", [Column("category"), Column("amount", ColumnType.NUMERIC)])]
        )
        cube = CubeQuery(
            tables=frozenset({"facts"}),
            dimensions=(ColumnRef("facts", "category"),),
            literals=((ColumnRef("facts", "category"), frozenset({"alpha"})),),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, STAR),),
        )
        row_graph, col_graph = both_graphs(database)
        assert_cube_results_equal(
            execute_cube(database, cube, row_graph),
            execute_cube(database, cube, col_graph),
        )


class TestPurePythonFallback:
    """The columnar backend without NumPy (monkeypatched import guard)."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(columnar, "_np", None)
        assert not columnar.numpy_available()

    def test_fallback_relations_are_not_vectorized(self, no_numpy, nfl_db):
        graph = JoinGraph(nfl_db, backend=ExecutionBackend.COLUMNAR)
        relation = graph.relation({"nflsuspensions"})
        assert isinstance(relation, ColumnarRelation)
        assert isinstance(relation.vectors[0].codes, list)

    def test_fallback_engine_matches_rowwise(self, no_numpy, nfl_db):
        sqls = [
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
            "AND Category = 'gambling'",
            "SELECT Percentage(*) FROM nflsuspensions WHERE Games = 'indef'",
            "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'BAL'",
            "SELECT Avg(Year) FROM nflsuspensions",
            "SELECT Min(Year) FROM nflsuspensions WHERE Games = '16'",
            "SELECT CountDistinct(Team) FROM nflsuspensions",
            "SELECT Count(*) FROM nflsuspensions WHERE Year = 2012",
            "SELECT ConditionalProbability(*) FROM nflsuspensions "
            "WHERE Games = 'indef' AND Category = 'gambling'",
        ]
        queries = [parse_query(sql, nfl_db) for sql in sqls]
        for mode in ExecutionMode:
            row = QueryEngine(nfl_db, EngineConfig(mode=mode, backend=ExecutionBackend.ROW)).evaluate(
                queries
            )
            col = QueryEngine(nfl_db, EngineConfig(mode=mode, backend=ExecutionBackend.COLUMNAR
            )).evaluate(queries)
            for query in queries:
                assert_value_equal(
                    row[query], col[query], f"{mode} {query}", typed_across_paths(query)
                )

    def test_fallback_join_matches_rowwise(self, no_numpy, star_db):
        sqls = [
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            "SELECT Count(*) FROM players JOIN teams WHERE city = 'dallas'",
            "SELECT Avg(goals) FROM players",
        ]
        queries = [parse_query(sql, star_db) for sql in sqls]
        row = QueryEngine(star_db, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend=ExecutionBackend.ROW
        )).evaluate(queries)
        col = QueryEngine(star_db, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend=ExecutionBackend.COLUMNAR
        )).evaluate(queries)
        for query in queries:
            assert_value_equal(
                row[query], col[query], str(query), typed_across_paths(query)
            )

    def test_fallback_cube_matches_rowwise(self, no_numpy):
        from repro.db import Column, ColumnType, Database, Table

        database = Database(
            "mix",
            [
                Table(
                    "facts",
                    [Column("category"), Column("amount", ColumnType.NUMERIC)],
                    [
                        ("alpha", 3),
                        ("ALPHA", None),
                        (None, "1,200"),
                        ("beta", "n/a"),
                        ("  ", 5),
                    ],
                )
            ],
        )
        cube = CubeQuery(
            tables=frozenset({"facts"}),
            dimensions=(ColumnRef("facts", "category"),),
            literals=((ColumnRef("facts", "category"), frozenset({"alpha", "missing"})),),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, STAR),
                AggregateSpec(AggregateFunction.SUM, ColumnRef("facts", "amount")),
                AggregateSpec(
                    AggregateFunction.COUNT_DISTINCT, ColumnRef("facts", "amount")
                ),
            ),
        )
        row_graph, col_graph = both_graphs(database)
        assert_cube_results_equal(
            execute_cube(database, cube, row_graph),
            execute_cube(database, cube, col_graph),
        )


@pytest.mark.parametrize("vectorized", [True, False])
def test_min_max_keep_int_type_of_integer_columns(vectorized, monkeypatch, nfl_db):
    """Min/Max over an all-int column are ints on every columnar path
    (they used to drift to floats: ``2014.0`` against the oracle's
    ``2014``); a column holding a float stays float."""
    if not vectorized:
        monkeypatch.setattr(columnar, "_np", None)
    sqls = [
        "SELECT Min(Year) FROM nflsuspensions WHERE Games = '16'",
        "SELECT Max(Year) FROM nflsuspensions",
    ]
    queries = [parse_query(sql, nfl_db) for sql in sqls]
    for mode in ExecutionMode:
        col = QueryEngine(
            nfl_db, EngineConfig(mode=mode, backend=ExecutionBackend.COLUMNAR)
        ).evaluate(queries)
        assert [col[query] for query in queries] == [2007, 2014]
        assert all(type(col[query]) is int for query in queries), mode

    from repro.db import Column, ColumnType, Database, Table

    mixed = Database(
        "mixed",
        [
            Table(
                "facts",
                [Column("kind"), Column("amount", ColumnType.NUMERIC)],
                [("a", 3), ("a", 2.5), ("b", 7)],
            )
        ],
    )
    query = parse_query("SELECT Max(amount) FROM facts", mixed)
    for mode in ExecutionMode:
        value = QueryEngine(
            mixed, EngineConfig(mode=mode, backend=ExecutionBackend.COLUMNAR)
        ).evaluate([query])[query]
        assert value == 7.0 and type(value) is float, mode

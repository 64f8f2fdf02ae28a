"""Shared fixtures: the paper's running example and a multi-table schema.

Also owns the no-NumPy collection policy: the CI matrix includes a leg
with only pytest+hypothesis installed, where the pure-Python
columnar/gather/CSR kernels run for real. The probabilistic model layer
has no fallback (see ``repro._compat``), so tests that drive the full
pipeline are skipped there — by path below, or via the ``needs_numpy``
marker for individual tests.

Also arms the suite-wide hang cap (``timeout`` in ``pytest.ini``) when
the ``pytest-timeout`` plugin is absent: a stdlib ``faulthandler`` timer
per test dumps every thread's stack and exits the run instead.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.db import Column, ColumnType, Database, ForeignKey, Table

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Test paths (relative to the repo root) exercising the full verification
#: pipeline, which needs the NumPy-based model layer.
_NEEDS_MODEL = (
    "tests/audit/test_shadow.py",
    "tests/core/test_checker.py",
    "tests/core/test_interactive.py",
    "tests/harness/",
    "tests/service/test_aio.py",
    "tests/service/test_resilience.py",
    "tests/service/test_server.py",
    "tests/test_cli.py",
    "tests/test_integration.py",
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "needs_numpy: test drives the NumPy-only model layer "
        "(skipped on the no-NumPy CI leg)",
    )
    config.addinivalue_line(
        "markers",
        "faults: fault-injection / resilience test (CI runs this subset "
        "as its own job via -m faults)",
    )


#: Hang cap in seconds when ``pytest.ini`` sets none.
_DEFAULT_HANG_CAP_S = 300.0


def _fallback_hang_cap(config) -> float | None:
    """Seconds per test for the faulthandler cap, or None when the
    ``pytest-timeout`` plugin enforces ``timeout`` itself."""
    if config.pluginmanager.hasplugin("timeout"):
        return None
    raw = config.inicfg.get("timeout")
    value = getattr(raw, "value", raw)  # pytest >= 8.4 wraps ini values
    seconds = float(value) if value not in (None, "") else _DEFAULT_HANG_CAP_S
    return seconds if seconds > 0 else None


def _real_stderr(config):
    """The terminal's stderr: under fd capture, fd 2 is a temp file that
    the hard exit would discard along with the stack dump."""
    capman = config.pluginmanager.getplugin("capturemanager")
    capturing = getattr(capman, "_global_capturing", None)
    saved = getattr(getattr(capturing, "err", None), "targetfd_save", None)
    return saved if isinstance(saved, int) else sys.__stderr__


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Per-test hang cap (setup, call and teardown) without the plugin."""
    seconds = _fallback_hang_cap(item.config)
    if seconds is None:
        yield
        return
    faulthandler.dump_traceback_later(
        seconds, exit=True, file=_real_stderr(item.config)
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_collection_modifyitems(config, items):
    if HAVE_NUMPY:
        return
    skip = pytest.mark.skip(
        reason="full pipeline requires NumPy (model layer has no fallback)"
    )
    for item in items:
        rel = os.path.relpath(str(item.fspath), str(config.rootdir))
        rel = rel.replace(os.sep, "/")
        if item.get_closest_marker("needs_numpy") or any(
            rel == needle or (needle.endswith("/") and rel.startswith(needle))
            for needle in _NEEDS_MODEL
        ):
            item.add_marker(skip)

NFL_ROWS = [
    ("Ray Rice", "BAL", "2", "domestic violence", 2014),
    ("Sean Payton", "NO", "16", "bounty scandal", 2012),
    ("Art Schlichter", "BAL", "indef", "gambling", 1983),
    ("Stanley Wilson", "CIN", "indef", "substance abuse, repeated offense", 1989),
    ("Dexter Manley", "WAS", "indef", "substance abuse, repeated offense", 1991),
    ("Roy Tarpley", "DAL", "indef", "substance abuse, repeated offense", 1995),
    ("Adam Jones", "CIN", "16", "personal conduct", 2007),
    ("Tanard Jackson", "WAS", "16", "substance abuse", 2012),
    ("Josh Gordon", "CLE", "16", "substance abuse", 2014),
]


@pytest.fixture()
def nfl_table() -> Table:
    """The NFL-suspensions table from the paper's Figure 2."""
    return Table(
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


@pytest.fixture()
def nfl_db(nfl_table: Table) -> Database:
    return Database("nfl", [nfl_table])


@pytest.fixture()
def star_db() -> Database:
    """Two tables joined by a foreign key: players -> teams."""
    teams = Table(
        "teams",
        [Column("team_id"), Column("city"), Column("league")],
        [
            ("t1", "boston", "east"),
            ("t2", "dallas", "west"),
            ("t3", "miami", "east"),
        ],
        primary_key="team_id",
    )
    players = Table(
        "players",
        [
            Column("player_id"),
            Column("team"),
            Column("position"),
            Column("salary", ColumnType.NUMERIC),
            Column("goals", ColumnType.NUMERIC),
        ],
        [
            ("p1", "t1", "guard", 120.0, 10),
            ("p2", "t1", "center", 80.0, 4),
            ("p3", "t2", "guard", 95.0, 7),
            ("p4", "t2", "forward", 60.0, 2),
            ("p5", "t3", "guard", 150.0, 12),
            ("p6", "t3", "forward", None, 0),
        ],
        primary_key="player_id",
    )
    return Database(
        "sports",
        [players, teams],
        [ForeignKey("players", "team", "teams", "team_id")],
    )

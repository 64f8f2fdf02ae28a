"""Seeded inputs for each workload and the row-executor reference verdicts.

Everything here runs in the benchmark's own process (or its reference
workers), never inside a timed window. The program receives only what
these functions write into the work directory.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import pickle
import random
import re
import sqlite3
import subprocess
import sys
import time

from child import report_hashes

#: The articles every workload draws from: the repository's labelled
#: corpus (``CorpusConfig()``: 53 articles, 429 claims, calibrated to the
#: paper's statistics), in its own order. The benchmark seed permutes the
#: rows of every relation; it does not pick other articles or reorder
#: them, because article content sets the work (an interquartile spread
#: of 16% in ``claims_per_s`` over five corpus seeds) and document order
#: sets the completion-time latencies and, under an open loop, the
#: queueing (a third of the serve p90 between seeds).
CORPUS_ARTICLES = 53
#: sqlite-pushdown: the first articles of that corpus (every theme, six
#: of them twice), every relation scaled through ``ThemeSpec.row_range``
#: to this many rows. Enough documents for a window of several seconds;
#: set-up (two 96-column tables) stays a few seconds per launch.
SQLITE_ARTICLES = 18
SQLITE_ROWS = 500
#: serve: the first articles of that corpus, each submitted fresh and
#: then revised. 36 articles give 108 submissions, eleven of them beyond
#: the p90 latency; all 53 made a run of the workload take 67 s (51 s
#: of schedule, 13 s of reference), too long for the benchmark's whole
#: set of runs to fit its time limit.
SERVE_ARTICLES = 36
#: serve: one-number revisions submitted per article. With two, revisions
#: are two thirds of the traffic, so the p50 latency falls inside the
#: revisions' cluster and the p90 inside the fresh documents' cluster;
#: with a one-to-one mix the median sat in the gap between the two and
#: swung from 0.12 s to 0.20 s between runs of the same code.
REVISIONS_PER_ARTICLE = 2
#: Each revision follows its original by a multiple of this many
#: periods, so the original is admitted first even under load.
REVISION_LAG = 2
#: Processes computing the reference (outside every timed window).
REFERENCE_WORKERS = 2
#: Upper bound on the reference processes' run, in seconds.
REFERENCE_TIMEOUT = 120.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _reference_config():
    from repro.core.config import AggCheckerConfig

    return AggCheckerConfig().with_engine(backend="row")


def _reference(kind: str, work: str, n_items: int) -> list:
    """Answers for items ``0 .. n_items - 1`` of ``kind`` (a key of
    :data:`REFERENCE_BODIES`), in item order.

    :data:`REFERENCE_WORKERS` plain child processes (``reference.py``)
    each take every ``REFERENCE_WORKERS``-th item. Not a
    ``multiprocessing`` pool: one started with ``spawn`` leaves its
    resource-tracker process running after the benchmark has exited.
    Every process is killed if need be and waited for on every path out.
    """
    script = os.path.join(HERE, "reference.py")
    deadline = time.monotonic() + REFERENCE_TIMEOUT
    processes = []
    try:
        for shard in range(REFERENCE_WORKERS):
            processes.append(subprocess.Popen(
                [sys.executable, script, kind, work, str(shard),
                 str(REFERENCE_WORKERS)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            ))
        for process in processes:
            code = process.wait(max(0.0, deadline - time.monotonic()))
            if code != 0:
                raise RuntimeError(f"reference process exited with code {code}")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
    answers: dict[int, list] = {}
    for shard in range(REFERENCE_WORKERS):
        with open(_shard_path(work, shard), encoding="utf-8") as handle:
            answers.update((int(item), value)
                           for item, value in json.load(handle).items())
    return [answers[item] for item in range(n_items)]


def _shard_path(work: str, shard: int) -> str:
    return os.path.join(work, f"reference-{shard}.json")


def reference_shard(kind: str, work: str, shard: int, shards: int) -> None:
    """Body of one reference process: answers for items ``shard``,
    ``shard + shards``, ... of ``kind``, written as JSON into ``work``."""
    initialize, answer = REFERENCE_BODIES[kind]
    n_items = initialize(work)
    answers = {item: answer(item) for item in range(shard, n_items, shards)}
    with open(_shard_path(work, shard), "w", encoding="utf-8") as out:
        json.dump(answers, out)


def _dump(path: str, value) -> None:
    with open(path, "wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)


# -- corpus, corpus-parallel ------------------------------------------------


def make_corpus(seed: int, n_articles: int = CORPUS_ARTICLES, themes=None):
    """The labelled corpus's first ``n_articles`` articles, with the row
    order of every relation permuted by ``seed``.

    Relations are bags, so a row permutation keeps every claim's truth;
    it changes the order the engine meets values in (dictionary codes,
    first-seen distinct values), and the reference sees the same rows.
    """
    from repro.corpus.generator import Corpus, CorpusConfig, generate_corpus
    from repro.db.schema import Database, Table

    config = CorpusConfig(n_articles=n_articles)
    if themes is not None:
        config = dataclasses.replace(config, themes=themes)
    rng = random.Random(seed)
    cases = []
    for case in generate_corpus(config).cases:
        tables = []
        for table in case.database.tables:
            rows = list(table.rows)
            rng.shuffle(rows)
            tables.append(
                Table(table.name, table.columns, rows, table.primary_key)
            )
        database = Database(
            case.database.name, tables, case.database.foreign_keys
        )
        case = dataclasses.replace(case, database=database)
        case.claims  # detect (and validate against ground truth) once
        cases.append(case)
    return Corpus(cases)


def write_corpus(work: str, seed: int) -> int:
    corpus = make_corpus(seed)
    _dump(os.path.join(work, "corpus.pickle"), corpus)
    return len(corpus.cases)


_STATE: dict = {}


def _init_corpus(work: str) -> int:
    with open(os.path.join(work, "corpus.pickle"), "rb") as handle:
        _STATE["corpus"] = pickle.load(handle)
    return len(_STATE["corpus"].cases)


def _corpus_case(index: int) -> list[str]:
    from repro.core.checker import AggChecker

    case = _STATE["corpus"].cases[index]
    checker = AggChecker(case.database, _reference_config(), case.data_dictionary)
    return report_hashes(checker.check_claims(case.document, case.claims))


def corpus_reference(work: str, n_cases: int) -> dict[int, list[str]]:
    return dict(enumerate(_reference("corpus", work, n_cases)))


# -- sqlite-pushdown -------------------------------------------------------


def write_sqlite(work: str, seed: int) -> int:
    """One SQLite file per article, typeless columns, values as generated."""
    from repro.corpus.themes import THEMES

    themes = tuple(
        dataclasses.replace(theme, row_range=(SQLITE_ROWS, SQLITE_ROWS))
        for theme in THEMES
    )
    corpus = make_corpus(seed, SQLITE_ARTICLES, themes)
    directory = os.path.join(work, "sqlite")
    os.makedirs(directory)
    for index, case in enumerate(corpus.cases):
        connection = sqlite3.connect(os.path.join(directory, f"{index:03d}.sqlite"))
        try:
            for table in case.database.tables:
                names = ", ".join(_quote(column.name) for column in table.columns)
                connection.execute(f"CREATE TABLE {_quote(table.name)} ({names})")
                marks = ", ".join("?" for _ in table.columns)
                connection.executemany(
                    f"INSERT INTO {_quote(table.name)} VALUES ({marks})",
                    table.rows,
                )
            connection.commit()
        finally:
            connection.close()
    documents = [(case.document, case.claims) for case in corpus.cases]
    _dump(os.path.join(work, "documents.pickle"), documents)
    return len(documents)


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _init_sqlite(work: str) -> int:
    with open(os.path.join(work, "documents.pickle"), "rb") as handle:
        _STATE["documents"] = pickle.load(handle)
    _STATE["work"] = work
    return len(_STATE["documents"])


def _sqlite_document(index: int) -> list[str]:
    """Row executor on an in-memory copy typed by the SQLite loader.

    The loader types a mostly-numeric text column NUMERIC (the 90% rule),
    so the reference must see the loaded types, not the generator's.
    """
    from child import sorted_paths
    from repro.core.checker import AggChecker
    from repro.db.adapters import load_sqlite_database
    from repro.db.schema import Database, Table

    loaded = load_sqlite_database(sorted_paths(_STATE["work"])[index])
    copy = Database(
        loaded.name,
        [
            Table(table.name, table.columns, list(table.rows), table.primary_key)
            for table in loaded.tables
        ],
        loaded.foreign_keys,
    )
    document, claims = _STATE["documents"][index]
    checker = AggChecker(copy, _reference_config())
    return report_hashes(checker.check_claims(document, claims))


def sqlite_reference(work: str, n_documents: int) -> dict[int, list[str]]:
    return dict(enumerate(_reference("sqlite", work, n_documents)))


# -- serve ------------------------------------------------------------------

#: A number in article text: digits with optional thousands separators
#: and decimals, not part of a word.
_NUMBER = re.compile(r"(?<![\w.,])\d(?:[\d,]*\d)?(?:\.\d+)?(?!\w)")


def write_serve(work: str, seed: int) -> list[dict]:
    """CSV files per article plus the open-loop submission schedule.

    Returns the schedule in periods: period ``p`` holds article ``p``
    fresh (slot 0) and the ``r``-th one-number revision (slot ``r``) of
    the article ``r * REVISION_LAG`` periods before, for each of
    :data:`REVISIONS_PER_ARTICLE` revisions. The seed permutes rows and
    picks each revision's number.
    """
    corpus = make_corpus(seed, SERVE_ARTICLES)
    rng = random.Random(seed)
    originals = []
    for index, case in enumerate(corpus.cases):
        directory = os.path.join(work, "serve", f"{index:03d}")
        os.makedirs(directory)
        paths = []
        for table in case.database.tables:
            path = os.path.join(directory, f"{table.name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow([column.name for column in table.columns])
                writer.writerows(
                    ["" if cell is None else cell for cell in row]
                    for row in table.rows
                )
            paths.append(os.path.abspath(path))
        originals.append({"doc": index, "kind": "fresh", "csv": paths,
                          "article": case.html})
    revisions = [_revisions(original, rng) for original in originals]
    schedule = []
    for period in range(len(originals) + REVISION_LAG * REVISIONS_PER_ARTICLE):
        if period < len(originals):
            schedule.append({**originals[period], "period": period, "slot": 0})
        for ordinal in range(REVISIONS_PER_ARTICLE):
            doc = period - REVISION_LAG * (ordinal + 1)
            if 0 <= doc < len(originals):
                schedule.append({**revisions[doc][ordinal], "period": period,
                                 "slot": ordinal + 1})
    return schedule


def _revisions(original: dict, rng: random.Random) -> list[dict]:
    """Copies of the article, each with one claimed number changed in its
    last digit.

    Tries the numbers in the article text in a seeded order and keeps the
    first edits after which claim detection finds the same number of
    claims with exactly one claimed value changed.
    """
    from repro.service.protocol import parse_article
    from repro.text.claims import detect_claims

    def claimed(text: str) -> list[float]:
        return [claim.claimed_value
                for claim in detect_claims(parse_article(text, "document"))]

    html = original["article"]
    before = claimed(html)
    candidates = [
        match for match in _NUMBER.finditer(html)
        if html.rfind("<", 0, match.start()) <= html.rfind(">", 0, match.start())
    ]
    rng.shuffle(candidates)
    revisions = []
    for match in candidates:
        last = int(html[match.end() - 1])
        digit = str(last + 1 if last < 9 else last - 1)
        revised = html[: match.end() - 1] + digit + html[match.end():]
        after = claimed(revised)
        changed = sum(old != new for old, new in zip(before, after))
        if len(after) == len(before) and changed == 1:
            revisions.append({**original, "kind": "revision", "article": revised})
            if len(revisions) == REVISIONS_PER_ARTICLE:
                return revisions
    raise RuntimeError(f"too few one-number revisions for document {original['doc']}")


def _serve_document(submissions: list[dict]) -> list[list[str]]:
    """Reference verdicts for one article's submissions, in order.

    Mirrors the service's incremental semantics: a claim whose
    fingerprint an earlier submission of the same database already
    verified reuses that verdict; the rest (first occurrences only, as
    the queue deduplicates within a document) are verified jointly.
    """
    from repro.core.checker import AggChecker, claim_fingerprint
    from repro.service.protocol import CheckRequest
    from repro.text.claims import detect_claims

    config = _reference_config()
    first = submissions[0]
    database = CheckRequest(csv_paths=tuple(first["csv"])).load_database()
    checker = AggChecker(database, config)
    memo: dict[str, str] = {}
    results = []
    for submission in submissions:
        document = CheckRequest(
            csv_paths=tuple(submission["csv"]), article=submission["article"]
        ).load_document()
        claims = detect_claims(document, config.claim_detection)
        fingerprints = [claim_fingerprint(claim) for claim in claims]
        fresh: dict[str, object] = {}
        for claim, fingerprint in zip(claims, fingerprints):
            if fingerprint not in memo and fingerprint not in fresh:
                fresh[fingerprint] = claim
        if fresh:
            report = checker.check_claims(document, list(fresh.values()))
            memo.update(zip(fresh, report_hashes(report)))
        results.append([memo[fingerprint] for fingerprint in fingerprints])
    return results


def _serve_groups(schedule: list[dict]) -> list[list[int]]:
    """Schedule positions of each article's submissions, in order."""
    by_doc: dict[int, list[int]] = {}
    for position, submission in enumerate(schedule):
        by_doc.setdefault(submission["doc"], []).append(position)
    return list(by_doc.values())


def _init_serve(work: str) -> int:
    with open(os.path.join(work, "schedule.pickle"), "rb") as handle:
        schedule = pickle.load(handle)
    _STATE["groups"] = [[schedule[position] for position in group]
                        for group in _serve_groups(schedule)]
    return len(_STATE["groups"])


def _serve_group(index: int) -> list[list[str]]:
    return _serve_document(_STATE["groups"][index])


def serve_reference(work: str, schedule: list[dict]) -> list[list[str]]:
    """Reference hashes per schedule entry."""
    _dump(os.path.join(work, "schedule.pickle"), schedule)
    groups = _serve_groups(schedule)
    answers = _reference("serve", work, len(groups))
    results: list = [None] * len(schedule)
    for group, hashes in zip(groups, answers):
        for position, value in zip(group, hashes):
            results[position] = value
    return results


#: Reference kind -> (load the inputs from a work directory and return
#: the number of items, answer for one item).
REFERENCE_BODIES = {
    "corpus": (_init_corpus, _corpus_case),
    "sqlite": (_init_sqlite, _sqlite_document),
    "serve": (_init_serve, _serve_group),
}

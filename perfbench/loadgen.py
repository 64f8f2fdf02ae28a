"""Open-loop load generator for ``POST /check``.

Submissions are due on a fixed schedule regardless of how fast the
service answers (independent users, not callers waiting on replies). At most
``connections`` requests are in flight; when all are busy the next
submission goes out late, and that lateness is recorded and counted in
its latency (see :func:`stats.open_loop_latencies`).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 120.0


def post_check(host: str, port: int, body: dict) -> dict:
    """One ``POST /check``; returns status, claim/error events, and the
    time the summary event arrived (``done``, None without a summary)."""
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    outcome = {"status": None, "claims": {}, "errors": [], "done": None}
    try:
        connection.request(
            "POST", "/check", body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        outcome["status"] = response.status
        if response.status != 200:
            outcome["errors"].append(response.read().decode("utf-8", "replace"))
            return outcome
        while True:
            line = response.readline()
            if not line:
                break
            event = json.loads(line)
            kind = event.get("event")
            if kind == "claim":
                outcome["claims"][event["index"]] = event["claim"]
            elif kind == "error":
                outcome["errors"].append(event.get("error"))
            elif kind == "summary":
                outcome["done"] = time.perf_counter()
    except (OSError, http.client.HTTPException, ValueError) as error:
        outcome["errors"].append(f"{type(error).__name__}: {error}")
    finally:
        connection.close()
    return outcome


def run_open_loop(
    host: str, port: int, bodies: list[dict], offsets: list[float],
    connections: int,
) -> list[dict]:
    """Send ``bodies[i]`` due at ``start + offsets[i]`` (non-decreasing);
    one result each."""
    start = time.perf_counter() + 0.05
    results: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            outcome = post_check(host, port, bodies[index])
            results[index] = {"due": due, "sent": sent, **outcome}

    threads = [
        threading.Thread(target=sender, daemon=True) for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results

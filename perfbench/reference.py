"""Reference verdict hashes for one shard of a workload's items.

    python perfbench/reference.py KIND WORK SHARD SHARDS

Answers items ``SHARD``, ``SHARD + SHARDS``, ... of ``KIND`` (a key of
``workloads.REFERENCE_BODIES``) with the row executor, from the inputs
in the work directory ``WORK``, and writes them to
``WORK/reference-SHARD.json``. The benchmark starts one process per shard
and waits for each (see ``workloads._reference``).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def main() -> None:
    kind, work, shard, shards = sys.argv[1:5]
    workloads.reference_shard(kind, work, int(shard), int(shards))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Digests of every benchmark op's payload and records file, for comparing two trees.

    python scripts/payload_digests.py > digests.txt

Each op of every workload in ``retrobench/run.py`` runs once, at seed 11, in
this process through ``run.py``'s own ``InProcess`` executor, and is checked
by its own ``Oracle`` (records files are read back and tallied in process).
One JSON line per op gives the workload, the argv with the temporary
directory written as ``$TMP``, the payload's sha256 without ``meta``, the
records file's sha256 (null for an op that writes none) and the oracle's
failure (null when it passed).  Run it in two checkouts and ``diff`` the
outputs: equal lines mean byte-identical payloads and records files.  The
package is taken from this checkout's ``src/``; the script exits 1 when any
op failed its check.
"""

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "11"


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "retrobench")]
    import run
    from retrolab import cli, records

    oracle = run.Oracle(lambda path: run.tally_records(records.read_records_jsonl, path))
    execute = run.InProcess(cli)
    failed = False
    tmp = tempfile.mkdtemp(prefix=".digests-")
    try:
        for workload, ops_of in run.WORKLOADS.items():
            for op in ops_of(SEED, tmp):
                failure, digest, extra = oracle.check(op, execute(op.argv))
                failed = failed or failure is not None
                print(json.dumps({
                    "workload": workload,
                    "argv": [arg.replace(tmp, "$TMP") for arg in op.argv],
                    "digest": digest,
                    "records_sha256": extra.get("records_sha256"),
                    "failure": failure,
                }))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

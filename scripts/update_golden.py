"""Regenerate the golden payloads under tests/golden/ from the current code.

    PYTHONPATH=src python scripts/update_golden.py

Run it only when a payload change is intended: the files it rewrites are the
contract that tests/test_golden.py holds every later change to, so their
diff is the change to review.  The case matrix lives in that test module;
the files include the output of scripts/payload_digests.py, the digests of
every benchmark op's payload and records file, which tests/test_scripts.py
compares.
"""

from __future__ import annotations

import os
import sys

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
sys.path.insert(0, TESTS)

import test_golden  # noqa: E402


def main() -> int:
    test_golden.GOLDEN.mkdir(exist_ok=True)
    fresh = test_golden.render_all()
    for stale in set(os.listdir(test_golden.GOLDEN)) - set(fresh):
        os.remove(test_golden.GOLDEN / stale)
    for name, data in sorted(fresh.items()):
        (test_golden.GOLDEN / name).write_bytes(data)
    print(f"wrote {len(fresh)} files to {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

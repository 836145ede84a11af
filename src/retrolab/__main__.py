import os
import sys

from .cli import main


def run() -> None:
    """Run the CLI, as ``python -m retrolab`` and the ``retrolab`` script do,
    and end the process without interpreter teardown.

    argparse's ``SystemExit`` (``--version``, usage errors) gives its integer
    code.  stdout and stderr are flushed first; a failed stdout flush exits 3
    with ``write failed: ...``, as any failed write does.
    """
    try:
        rc = main()
    except SystemExit as stop:
        rc = stop.code or 0
    try:
        sys.stdout.flush()
    except OSError as err:
        print(f"write failed: {err}", file=sys.stderr)
        rc = 3
    try:
        sys.stderr.flush()
    finally:
        os._exit(rc)


if __name__ == "__main__":
    run()

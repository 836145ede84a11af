import os
import sys
from importlib.machinery import PathFinder

from .cli import main


class _BareRandom:
    """Finds ``numpy.random`` as a bare package: its submodules import on demand,
    and its ``__init__`` (``mtrand``, ``_mt19937``, ``_sfc64``, ``_pickle``) never runs."""

    # as the package's loader: the default module, and nothing executed in it
    create_module = exec_module = staticmethod(lambda _: None)

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != "numpy.random":
            return None
        spec = PathFinder.find_spec(name, path)
        spec.loader = _BareRandom
        return spec


def run() -> None:
    """Run the CLI, as ``python -m retrolab`` and the ``retrolab`` script do,
    without OpenSSL, with a bare ``numpy.random`` (an in-process
    ``cli.main`` keeps both) and without interpreter teardown.

    A ``SystemExit`` gives its integer code.  stdout and stderr are flushed
    first; a failed stdout flush exits 3 with ``write failed: ...``.
    """
    # numpy.random's hashlib would map libcrypto (3.3 MB); no command hashes
    sys.modules.setdefault("_hashlib", None)
    if "numpy.random" not in sys.modules:
        sys.meta_path.insert(0, _BareRandom)
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

import io
import os
import sys
from importlib.machinery import PathFinder

from .cli import _say, main


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
    without OpenSSL, with a bare ``numpy.random``, with one OpenBLAS thread
    unless the user set a count (an in-process ``cli.main`` makes none of
    these process-wide settings) and without interpreter teardown.

    A ``SystemExit`` gives its integer code.  stdout (unless closed) and stderr
    (a discarding stand-in if closed at start) are flushed first; a failed
    stdout flush exits 3 with ``write failed: ...``.
    """
    # numpy.random's hashlib would map libcrypto (3.3 MB); no command hashes
    sys.modules.setdefault("_hashlib", None)
    if "numpy.random" not in sys.modules:
        sys.meta_path.insert(0, _BareRandom)
    # no retrolab path calls BLAS, so its thread pool would only add start-up time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if sys.stderr is None:  # started with descriptor 2 closed: argparse would print to stdout
        sys.stderr = io.StringIO()  # takes no descriptor, so /dev/stderr stays closed
    try:
        rc = main()
    except SystemExit as stop:
        rc = stop.code or 0
    try:
        if sys.stdout is not None:  # None when started with descriptor 1 closed
            sys.stdout.flush()
    except OSError as err:
        rc = _say(f"write failed: {err}", 3)
    try:
        sys.stderr.flush()
    finally:
        os._exit(rc)


if __name__ == "__main__":
    run()

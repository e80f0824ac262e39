"""Pytest plugin: run the engine suites on an ASan/UBSan build of the C kernel.

Not a test module (pytest does not collect it); load it with ``-p``. The
sanitizer runtimes must be preloaded into the interpreter, and leak
checking is off because CPython itself does not free everything at exit.
``--capture=sys`` leaves file descriptor 2 alone, so a sanitizer report
reaches the log instead of dying with pytest's capture file::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src python -m pytest -q \\
        --capture=sys -p tests.engine.sanitized_ckernel \\
        tests/engine/test_kernel_equivalence.py \\
        tests/engine/test_sched_equivalence.py \\
        tests/engine/test_node_equivalence.py

The plugin adds the sanitizer flags to the kernel's compile command,
builds into a fresh temporary cache, and refuses to start unless the
library it loaded is that sanitized build. Any out-of-bounds access or
undefined behaviour in the compiled code the suites drive then aborts the
run.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.engine import _ckernel

SANITIZE_FLAGS = ["-g", "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=all"]

_CACHE_DIR = pytest.StashKey[str]()


def pytest_configure(config):
    cache = tempfile.mkdtemp(prefix="repro-ckernel-sanitized-")
    config.stash[_CACHE_DIR] = cache
    os.environ["REPRO_CKERNEL_CACHE"] = cache
    plain = _ckernel._compile_cmd

    def sanitized(cc, src, out):
        cmd = plain(cc, src, out)
        return cmd[:1] + SANITIZE_FLAGS + cmd[1:]

    _ckernel._compile_cmd = sanitized
    _ckernel._LOADED, _ckernel._TRIED = None, False
    lib = _ckernel.load()
    if lib is None:
        raise pytest.UsageError("the sanitized C kernel did not build or load")
    expected = os.path.join(
        cache, f"reprokernel-{_ckernel._tag(_ckernel._find_cc())}.so"
    )
    with open(lib._name, "rb") as fh:
        instrumented = b"__asan_" in fh.read()
    if lib._name != expected or not instrumented:
        raise pytest.UsageError(
            f"loaded {lib._name}, not the sanitized build {expected}"
        )


def pytest_unconfigure(config):
    cache = config.stash.get(_CACHE_DIR, None)
    if cache is not None:
        shutil.rmtree(cache, ignore_errors=True)

"""Build a compiled kernel at first use, once per process.

The repository stays importable from source with nothing but numpy, so
its four C kernels (the burst-emission flush in
:mod:`repro.host._emit_kernel`, the codec's varint loop in
:mod:`repro.host._codec_kernel`, the exact-LRU cache walk in
:mod:`repro.uarch._lru_kernel` and the OOO-core recurrence in
:mod:`repro.uarch._ooo_kernel`) are not build-time extensions: each
module hands its C source to :func:`load`, which runs one
``cc -O2 -shared -fPIC`` into a private temp dir and loads the result
through ctypes. Everything is best-effort: no compiler, a failed build,
or ``REPRO_KERNELS=off`` all return ``None``, and each caller falls
back to bit-identical non-compiled code (a kernel is an evaluation
order change, never a model change): the NumPy flush and varint paths
for emission and the codec, and the scalar references for the cache
hierarchy and the OOO core.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading

#: Environment switch: ``auto`` (default) compiles when possible,
#: ``off`` disables every kernel (non-compiled fallbacks).
KERNELS_ENV = "REPRO_KERNELS"


def load(name: str, source: str) -> ctypes.CDLL | None:
    """Compile ``source`` into a shared library and load it (or None).

    The library lives in a private temp dir removed at exit; ``CC``
    overrides the compiler, otherwise the first of ``cc``/``gcc``/
    ``clang`` on ``PATH`` is used.
    """
    cc = (os.environ.get("CC") or shutil.which("cc")
          or shutil.which("gcc") or shutil.which("clang"))
    if cc is None:
        return None
    tmpdir = tempfile.mkdtemp(prefix=f"repro-{name}-")
    atexit.register(shutil.rmtree, tmpdir, ignore_errors=True)
    src = os.path.join(tmpdir, f"{name}.c")
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    lib = os.path.join(tmpdir, name + suffix)
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(source)
    cmd = [cc, "-O2", "-shared", "-fPIC", "-o", lib, src]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        return ctypes.CDLL(lib)
    except (OSError, subprocess.SubprocessError):
        return None


class Once:
    """One kernel's per-process build: the first call runs ``build``,
    every later call returns its result (``None`` included)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tried = False
        self._kernel = None

    def __call__(self, build):
        if os.environ.get(KERNELS_ENV, "auto").lower() \
                in ("off", "0", "no"):
            return None
        with self._lock:
            if not self._tried:
                self._tried = True
                self._kernel = build()
        return self._kernel

"""Raise glibc's mmap threshold so large array buffers get recycled.

The training loops allocate and free many multi-megabyte array buffers
of varying sizes. With glibc defaults those go through mmap/munmap and
every reuse pays zero-fill page faults, which triples step times. Routing
them through the heap freelists instead is safe and process-local; on
non-glibc platforms this is a no-op.
"""

from __future__ import annotations

import ctypes
import sys

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
_ONE_GIB = 1 << 30


def tune() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok = libc.mallopt(M_MMAP_THRESHOLD, _ONE_GIB)
        ok &= libc.mallopt(M_TRIM_THRESHOLD, _ONE_GIB)
        return bool(ok)
    except OSError:
        return False

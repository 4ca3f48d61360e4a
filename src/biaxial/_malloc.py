"""Raise glibc's mmap threshold so large array buffers get recycled.

Training allocates and frees many multi-megabyte array buffers of
varying sizes. With glibc defaults those go through mmap/munmap and every
reuse pays zero-fill page faults. Routing them through the heap freelists
instead is safe and process-local; on non-glibc platforms this is a no-op.
On a 2-vCPU VM (4 alternating pairs of 15 s benchmark runs with and
without it) it made training steps ~10-15% faster, for ~10-23 MB more
peak RSS.
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

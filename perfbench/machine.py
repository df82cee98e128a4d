"""The machine a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": None,
        "env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    # The thread count OpenBLAS actually runs with, read from the library
    # NumPy loaded; the symbol carries the wheel's prefix and suffix.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return record
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                return record
    return record


def _filesystem(path) -> str | None:
    """Type of the filesystem holding `path`, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount_point = fields[4]
                kind = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, kind
    except (OSError, ValueError, IndexError):
        return None
    return fstype


def machine_record(tmp_dir) -> dict:
    return {
        "logical_cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "tmp_dir_filesystem": _filesystem(tmp_dir),
        "page_cache": "not dropped: reads that follow `synth` are served from the page cache",
    }

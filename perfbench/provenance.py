"""Where and on what a result was measured: machine, toolchain, code and its size."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import sys
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_info() -> dict:
    meminfo = _read(Path("/proc/meminfo")) or ""
    ram = re.search(r"MemTotal:\s+(\d+) kB", meminfo)
    cpu = re.search(r"model name\s*:\s*(.+)", _read(Path("/proc/cpuinfo")) or "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": int(ram.group(1)) // 1024 if ram else None,
        "cache": caches,
        "cpu": cpu.group(1) if cpu else platform.machine(),
        "python": platform.python_version(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def source_info(root: Path) -> dict:
    """Lines per module of ``src/phaseclone`` (recorded, not gated) and a hash of the sources."""
    digest = hashlib.sha256()
    loc = {}
    for path in sorted((root / "src" / "phaseclone").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc[path.stem] = data.count(b"\n")
    return {"commit": git_commit(root), "src_sha256": digest.hexdigest(),
            "loc": loc, "loc_total": sum(loc.values())}


def numpy_info() -> dict:
    """numpy and its BLAS: name, version, build configuration and the thread count in use."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None,
            "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    maps = _read(Path("/proc/self/maps")) or ""
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                break
    return info


def describe(root: Path, seed: int) -> dict:
    return {"seed": seed, "machine": machine_info(), "source": source_info(root),
            "executable": sys.executable}

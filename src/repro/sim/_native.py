"""Build, cache and load the batch kernel's C passes (``_batchkernel.c``).

The library is compiled on first use — the first time a ``batch``
kernel is constructed, never at import — with the interpreter's C
compiler (``sysconfig``'s ``CC``, falling back to ``cc``) and loaded
through :mod:`ctypes`.  The shared object is cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), or under the
system temp directory when that is not writable, keyed by a SHA-256 of
the source, the flags, the compiler's ``--version`` and the platform,
so an edit or a toolchain change rebuilds while every later process
just loads.  Builds write to a unique temporary name and ``os.replace``
it into place, so pool workers racing on a cold cache are safe.

There is no fallback: if the build fails, :class:`KernelBuildError`
carries the compiler's stderr; ``kernel_method="batch-reference"``
evaluates the same semantics without a compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

from repro.errors import KernelBuildError

__all__ = ["ABI_VERSION", "CFLAGS", "SOURCE", "load_library", "Context"]

#: Must equal ``BK_ABI_VERSION`` in the C source; checked on every load.
ABI_VERSION = 2

SOURCE = Path(__file__).with_name("_batchkernel.c")

#: No ``-ffast-math`` (reassociation) and no FMA contraction: the folds
#: must round exactly like the scalar oracle.  No ``-march=native``: a
#: cached library may be loaded on another CPU of the same platform.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_HINT = ('use kernel_method="batch-reference" to evaluate the same '
         "semantics without a C compiler")

_lock = threading.Lock()
_library = None


class Context(ctypes.Structure):
    """Mirror of ``bk_ctx``: the kernel's bound arrays and scratch."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in ("T", "M", "Mq", "use_cache", "n_slots", "shift",
                     "capacity", "seg_cap", "elem_cap")
    ] + [
        (name, ctypes.c_void_p)
        for name in ("qg", "r_sym", "etc", "eec", "arrivals", "task_types",
                     "backlog", "keys", "checks", "used", "values", "table_meta",
                     "qkey", "segi", "segf", "elems", "elapsed", "types",
                     "counts")
    ]


def _compiler() -> list[str]:
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"]


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise KernelBuildError(
            f"cannot run the C compiler {cmd[0]!r}: {exc}; {_HINT}",
            stderr=str(exc),
        ) from exc


def cache_key(source: bytes, flags, compiler_version: str) -> str:
    """SHA-256 over everything that determines the built library."""
    h = hashlib.sha256()
    for part in (source, " ".join(flags).encode(), compiler_version.encode(),
                 f"{platform.system()}-{platform.machine()}".encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` if writable, else a private temp dir."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    preferred = Path(base) / "repro"
    try:
        preferred.mkdir(parents=True, exist_ok=True)
        if os.access(preferred, os.W_OK | os.X_OK):
            return preferred
    except OSError:
        pass
    # Per-user and private: a shared temp dir must not let another user
    # plant the library this process will load.
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    fallback = Path(tempfile.gettempdir()) / f"repro-{uid}"
    try:
        fallback.mkdir(mode=0o700, exist_ok=True)
    except OSError as exc:
        raise KernelBuildError(
            f"no writable cache directory ({preferred}, {fallback}): "
            f"{exc}; {_HINT}"
        ) from exc
    return fallback


def _build(cc: list[str], target: Path) -> None:
    tmp = target.with_name(
        f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    )
    try:
        done = _run([*cc, *CFLAGS, "-o", str(tmp), str(SOURCE)])
        if done.returncode != 0:
            raise KernelBuildError(
                f"compiling {SOURCE.name} failed (exit {done.returncode}):\n"
                f"{done.stderr}\n{_HINT}",
                stderr=done.stderr,
            )
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def _open(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load {path}: {exc}; delete it to rebuild. {_HINT}"
        ) from exc
    lib.bk_abi_version.argtypes = []
    lib.bk_abi_version.restype = ctypes.c_int64
    if lib.bk_abi_version() != ABI_VERSION:
        raise KernelBuildError(
            f"{path} has ABI version {lib.bk_abi_version()}, expected "
            f"{ABI_VERSION}; delete it to rebuild. {_HINT}"
        )
    lib.bk_probe_fold.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64]
    lib.bk_probe_fold.restype = ctypes.c_int64
    lib.bk_fold_insert.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64]
    lib.bk_fold_insert.restype = None
    return lib


def load_library():
    """The loaded kernel library, built into the cache if needed."""
    global _library
    with _lock:
        if _library is None:
            cc = _compiler()
            version = _run([*cc, "--version"]).stdout
            key = cache_key(SOURCE.read_bytes(), CFLAGS, version)
            target = cache_dir() / f"_batchkernel-{key[:24]}.so"
            if not target.exists():
                _build(cc, target)
            _library = _open(target)
        return _library

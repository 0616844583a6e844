"""Content-addressed on-disk cache for expensive sweep artifacts.

Every sweep job walks the same pipeline — partition/compress the matrix,
distribute tiles, synthesise a command trace, schedule it through the FCFS
controller — and most of those stages depend only on the matrix data and a
handful of parameters. :class:`ArtifactCache` keys each intermediate on a
SHA-256 digest of exactly those inputs (matrix arrays, kernel parameters,
timing configuration), so re-running a sweep, or sweeping a new parameter
that leaves an earlier stage unchanged, reuses the stored artifact instead
of recomputing it.

Artifacts are pickled to ``<root>/<kind>/<digest>.pkl`` where *root*
resolves, in order, to: an explicit path, the ``PSYNCPIM_CACHE_DIR``
environment variable, or ``~/.cache/psyncpim``. Every file carries a
magic tag plus the SHA-256 of its pickle payload, verified on load:
a corrupt, truncated or bit-flipped entry fails the content check and
is treated as a miss and overwritten, never silently unpickled. Writes
are atomic (temp file + rename) so concurrent sweep workers can share
one cache directory. A disabled cache (``enabled=False``, the
``--no-cache`` escape hatch) computes everything and never touches the
filesystem — results are bitwise-identical either way, only the time to
produce them changes.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..formats import COOMatrix

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "PSYNCPIM_CACHE_DIR"

#: Bump to invalidate every previously stored artifact (layout changes).
#: v2: traces are emitted with CommandRun batching — regenerating stored
#: per-command traces lets cached sweeps use the closed-form pricing path.
#: v3: SubMatrix/PartitionPlan pickle with cached per-tile statistics
#: (touched_rows, tile_nnz/x_lengths arrays) from the vectorized planner.
#: v4: files carry a magic + SHA-256 integrity header; pre-v4 headerless
#: pickles would fail the check anyway, but the bump keeps them from
#: accumulating as permanent misses under live keys.
#: v5: executions gained channel-sharding fields (num_channels,
#: channel_execs) and sweep keys a channels component; pre-v5 pickles
#: lack the new dataclass fields.
#: v6: sweep keys gained a partitioning-strategy component and a "tune"
#: artifact kind; HBM2Config grew pseudo_channels_per_channel, which
#: changes every config-keyed digest via the dataclass field walk.
#: v7: host staging is emitted as BankSweep entries — regenerating stored
#: ``trace`` artifacts keeps them in the current form (as for v2).
#: v8: one pricing pass per job — ``trace`` holds the SegmentedTrace,
#: ``schedule`` holds ``(PerfReport, RunReport or None)`` and the
#: separate ``attrib`` kind is gone.
CACHE_VERSION = 8

#: On-disk artifact header: magic, then the SHA-256 of the payload.
_MAGIC = b"PSPC1\n"

_MISS = object()


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$PSYNCPIM_CACHE_DIR`` or ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "psyncpim"


# ----------------------------------------------------------------------
# stable content digests
# ----------------------------------------------------------------------
def _feed(h, obj: Any) -> None:
    """Feed *obj* into hash *h* with a stable, type-tagged encoding.

    Supports the vocabulary sweep keys are built from: primitives,
    numpy arrays, enums, (nested) dataclasses, COO matrices and plain
    containers. Unknown types raise so a key can never silently collapse
    two distinct inputs.
    """
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00B1" if obj else b"\x00B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"\x00I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"\x00F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"\x00S" + obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        h.update(b"\x00Y" + obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"\x00A" + obj.dtype.str.encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, enum.Enum):
        h.update(b"\x00E" + type(obj).__name__.encode() + obj.name.encode())
    elif isinstance(obj, COOMatrix):
        h.update(b"\x00M" + str(obj.shape).encode())
        for arr in (obj.rows, obj.cols, obj.vals):
            _feed(h, arr)
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00D" + type(obj).__qualname__.encode())
        for f in dataclass_fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00L" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00G" + str(len(obj)).encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        _feed(h, sorted(obj, key=str))
    else:
        raise TypeError(f"cannot build a stable cache key from "
                        f"{type(obj).__name__!r}")


def stable_digest(*parts: Any) -> str:
    """SHA-256 hex digest of *parts* under the stable encoding."""
    h = hashlib.sha256()
    _feed(h, CACHE_VERSION)
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def matrix_digest(matrix: COOMatrix) -> str:
    """Content digest of one sparse matrix (shape + coordinate arrays)."""
    return stable_digest(matrix)


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """Content-addressed pickle store with per-kind hit/miss counters."""

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 enabled: bool = True) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.enabled = enabled
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}

    # -- keys ----------------------------------------------------------
    def key(self, *parts: Any) -> str:
        """Digest arbitrary key parts (see :func:`stable_digest`)."""
        return stable_digest(*parts)

    def path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    # -- counters ------------------------------------------------------
    @property
    def hit_count(self) -> int:
        return sum(self.hits.values())

    @property
    def miss_count(self) -> int:
        return sum(self.misses.values())

    def counters(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(hits, misses)`` pairs."""
        kinds = sorted(set(self.hits) | set(self.misses))
        return {kind: (self.hits.get(kind, 0), self.misses.get(kind, 0))
                for kind in kinds}

    # -- storage -------------------------------------------------------
    def load(self, kind: str, key: str) -> Any:
        """Return the stored artifact or the module-private miss marker.

        The payload's SHA-256 must match the stored header: a truncated,
        bit-flipped or pre-header file is a miss, never a silent
        unpickle of corrupt bytes.
        """
        if not self.enabled:
            return _MISS
        path = self.path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            return _MISS
        header_len = len(_MAGIC) + hashlib.sha256().digest_size
        if len(data) < header_len or not data.startswith(_MAGIC):
            return _MISS
        digest = data[len(_MAGIC):header_len]
        payload = data[header_len:]
        if hashlib.sha256(payload).digest() != digest:
            return _MISS
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ValueError):
            return _MISS

    def store(self, kind: str, key: str, value: Any) -> None:
        """Atomically persist *value* (no-op when disabled)."""
        if not self.enabled:
            return
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_compute(self, kind: str, key: str,
                       compute: Callable[[], Any]) -> Any:
        """Fetch ``(kind, key)`` or compute, store and count a miss."""
        value = self.load(kind, key)
        if value is not _MISS:
            self.hits[kind] = self.hits.get(kind, 0) + 1
            return value
        self.misses[kind] = self.misses.get(kind, 0) + 1
        value = compute()
        self.store(kind, key, value)
        return value

    def clear(self) -> int:
        """Delete every stored artifact under the root; returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"ArtifactCache({str(self.root)!r}, {state}, "
                f"hits={self.hit_count}, misses={self.miss_count})")

"""Content-addressed on-disk result cache, safe to share across
concurrent campaigns.

Entries are pickled :class:`~repro.workloads.JobResult` objects stored
at ``<root>/<key[:2]>/<key>.pkl``. A result's per-synchronization log
is one structured array (``JobResult.syncs``), so an entry pickles as
one array buffer, not one object per synchronization; cell keys are
salted with a digest of the ``repro`` sources, so entries of an older
result layout are never looked up. Writes are atomic (temp file +
``os.replace``) so concurrent campaigns sharing a cache directory can
never observe a torn entry; unreadable entries are treated as misses
and removed.

Single-flight
-------------
Two CLI invocations sharing a store must never compute the same cell
twice, and never corrupt each other's entries. The store provides
**advisory per-key leases** built on ``fcntl.flock`` over sidecar
``locks/<key>.lock`` files:

* :meth:`CellStore.try_lease` — non-blockingly claim the right to
  compute a key. Exactly one process wins; the others treat the key as
  *in flight elsewhere*.
* :meth:`CellStore.wait_for` — block until the current holder releases
  (commit or crash — the OS drops a dead holder's lock), then re-read
  the entry. Returns ``None`` if the holder died without committing,
  in which case the caller should claim the lease itself.

Locks are advisory and crash-safe: a SIGKILLed holder's lease
evaporates with its file descriptor, so a shared store can never
deadlock on a dead campaign. On platforms without ``fcntl`` the lease
degrades to always-acquired (single-flight off, correctness unchanged
— the content-addressed entries themselves stay atomic).
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from pathlib import Path

try:  # POSIX advisory locking; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = ["CellLease", "CellStore", "default_cache_dir", "drop_inherited_leases"]

#: leases this process holds; a process forked while they are held
#: inherits their fds and drops them (:func:`drop_inherited_leases`).
#: Weak, so a lease nobody references still closes its file when freed.
_held: weakref.WeakSet[CellLease] = weakref.WeakSet()


def default_cache_dir() -> Path:
    """Default cache location: ``$SEESAW_CACHE_DIR`` if set, else the
    XDG cache home."""
    env = os.environ.get("SEESAW_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "seesaw-repro" / "cells"


class CellLease:
    """An exclusive advisory lease on one cell key (see module doc)."""

    def __init__(self, key: str, fh) -> None:
        self.key = key
        self._fh = fh
        if fh is not None:
            _held.add(self)

    @property
    def held(self) -> bool:
        return self._fh is not None

    def release(self) -> None:
        fh, self._fh = self._fh, None
        if fh is None:
            return
        _held.discard(self)
        try:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            fh.close()

    def __enter__(self) -> "CellLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def drop_inherited_leases() -> None:
    """Close the lease fds a forked child inherited, without unlocking.

    ``flock`` locks belong to the open file, which parent and child
    share: unlocking here would release the parent's lease, while
    closing this process's copy leaves the parent holding it and stops
    a child that outlives the parent from keeping it locked.
    """
    for lease in list(_held):
        fh, lease._fh = lease._fh, None
        fh.close()
    _held.clear()


class CellStore:
    """Pickle-backed content-addressed store keyed by cell hash."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: single-flight accounting (reset per process, read by tests
        #: and the engine's journal summary)
        self.lease_acquired = 0
        self.lease_lost = 0
        self.lease_waits = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / f"{key}.lock"

    def get(self, key: str):
        """Cached result for ``key``, or ``None`` on miss/corruption."""
        path = self.path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # corrupt or truncated entry: drop it and treat as a miss
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, value) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------ single-flight
    def try_lease(self, key: str) -> CellLease | None:
        """Claim the right to compute ``key``; ``None`` if another
        process already holds it. Always succeeds without ``fcntl``."""
        lock_path = self._lock_path(key)
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            fh = lock_path.open("a")
        except OSError:
            return CellLease(key, None)  # degraded: no locking possible
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            fh.close()
            return CellLease(key, None)
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            self.lease_lost += 1
            return None
        self.lease_acquired += 1
        return CellLease(key, fh)

    def wait_for(self, key: str, timeout_s: float | None = None):
        """Block until the in-flight computation of ``key`` finishes
        (or its holder dies), then return the entry — ``None`` when the
        holder exited without committing or ``timeout_s`` elapsed."""
        lock_path = self._lock_path(key)
        self.lease_waits += 1
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        if fcntl is None or not lock_path.exists():
            return self.get(key)
        try:
            fh = lock_path.open("a")
        except OSError:
            return self.get(key)
        try:
            while True:
                try:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    if deadline is not None and time.monotonic() > deadline:
                        return self.get(key)
                    time.sleep(0.02)
                    continue
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
                return self.get(key)
        finally:
            fh.close()

    # ------------------------------------------------------------ misc
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            removed += 1
        for lock in self.root.glob("locks/*.lock"):
            lock.unlink(missing_ok=True)
        return removed

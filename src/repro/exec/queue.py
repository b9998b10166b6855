"""Shared job queue: SQLite-backed leases over a shareable directory.

The queue is one directory -- ``<dir>/queue.db`` holds job state, and
completed results land beside it as ordinary content-addressed
:class:`~repro.exec.cache.ResultCache` entries (``<key>.pkl``), so the
directory doubles as the fabric's network-shareable result namespace
(``repro cache stats`` reports it as the ``queue`` namespace).  Any
process that can see the directory can participate: submitters push
units, ``repro worker`` processes -- on this host or on many hosts
mounting the same path -- lease, execute and complete them.

**Lease protocol.**  A worker :meth:`~JobQueue.lease`\\ s the oldest
runnable job inside one ``BEGIN IMMEDIATE`` transaction: pending jobs,
or leased jobs whose deadline passed (the holder is presumed dead).
Leasing stamps the worker's owner id, bumps the attempt counter and
sets ``deadline = now + lease_ttl``; long units
:meth:`~JobQueue.heartbeat` to push the deadline out.  Completion and
failure are owner-checked, so a worker that lost its lease to a timeout
cannot clobber the re-lease -- its late result writes are harmless
anyway, because results are content-addressed and byte-identical.
A job that exhausts ``max_attempts`` parks as ``failed`` with the last
error recorded; everything else eventually reaches ``done``.

**Payloads** cross the wire as versioned JSON (:mod:`repro.exec.wire`),
never pickle: a queue directory shared between hosts must not be a code
-execution channel.  The job id is the content hash of the unit's job
keys, so resubmitting the same unit -- from the same client or another
one -- reuses the existing row and its result instead of simulating
twice.

:class:`QueueBackend` adapts the queue to the
:class:`~repro.exec.backend.ExecutionBackend` interface: submit all
units, optionally spawn local drain workers, poll until every job is
done, then assemble results from the cache namespace in order.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .backend import ExecutionBackend, Unit, UnitResults, register_backend
from .cache import ResultCache, default_cache_dir
from .jobs import SimJob, execute_unit
from .serialize import fingerprint
from .wire import WireError, dumps, loads

#: Seconds a lease lasts without a heartbeat before the job is presumed
#: abandoned and becomes leasable again.
DEFAULT_LEASE_TTL = 60.0
#: Lease attempts before a job parks as failed.
DEFAULT_MAX_ATTEMPTS = 3
#: Database file name inside a queue directory.
QUEUE_DB = "queue.db"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id        TEXT PRIMARY KEY,
    payload   TEXT NOT NULL,
    state     TEXT NOT NULL DEFAULT 'pending',
    owner     TEXT,
    deadline  REAL,
    attempts  INTEGER NOT NULL DEFAULT 0,
    error     TEXT,
    created   REAL NOT NULL,
    seq       INTEGER
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, created);
"""


def default_queue_dir() -> Path:
    """The shared queue directory the environment selects.

    ``REPRO_QUEUE_DIR`` wins; otherwise the queue lives in the result
    cache's ``queue`` namespace, so local fabric runs need no setup and
    ``repro cache stats`` accounts for it.
    """
    env = os.environ.get("REPRO_QUEUE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "queue"


class QueueDirError(OSError):
    """A queue directory that cannot be created."""


@dataclass(frozen=True)
class LeasedJob:
    """One leased unit: execute, heartbeat while long, then complete."""

    job_id: str
    unit: Tuple[Tuple[str, SimJob], ...]
    attempts: int


def _encode_unit(unit: Unit) -> str:
    return dumps("queue-unit", {
        "keys": [key for key, _ in unit],
        "jobs": [job for _, job in unit],
    })


def _decode_unit(text: str) -> Tuple[Tuple[str, SimJob], ...]:
    payload = loads(text, kind="queue-unit")
    keys, jobs = payload["keys"], payload["jobs"]
    if len(keys) != len(jobs):
        raise WireError("queue unit keys/jobs length mismatch")
    return tuple(zip(keys, jobs))


def unit_job_id(unit: Unit) -> str:
    """Content-addressed queue id: the hash of the unit's job keys."""
    return fingerprint({"queue-unit": [key for key, _ in unit]})


class JobQueue:
    """Lease-based job queue over one SQLite database."""

    def __init__(self, root: "Optional[str | os.PathLike]" = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.root = Path(root) if root is not None else default_queue_dir()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise QueueDirError(
                f"cannot create queue directory {self.root}: "
                f"{exc.strerror or exc}") from exc
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self._db = self.root / QUEUE_DB
        # Autocommit session: executescript force-commits any pending
        # transaction, so it must not run inside an explicit one.
        with self._session() as con:
            con.executescript(_SCHEMA)

    @contextlib.contextmanager
    def _session(self, write: bool = False):
        # A fresh connection per operation: trivially safe across
        # threads and fork, and cheap next to a simulation.  WAL lets
        # submitters and workers read concurrently; the busy timeout
        # rides out sibling writers instead of raising immediately.
        # ``write`` wraps the session in one immediate transaction, so
        # read-modify-write sequences (lease, fail) are atomic against
        # sibling workers.
        con = sqlite3.connect(self._db, timeout=30.0, isolation_level=None)
        try:
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA busy_timeout=30000")
            if write:
                con.execute("BEGIN IMMEDIATE")
            try:
                yield con
            except BaseException:
                if write:
                    con.execute("ROLLBACK")
                raise
            if write:
                con.execute("COMMIT")
        finally:
            con.close()

    # ------------------------------------------------------------------
    # Submit side
    # ------------------------------------------------------------------

    def submit(self, unit: Unit) -> str:
        """Enqueue one unit; returns its content-addressed job id.

        Submitting an already-known unit is a no-op (``done`` rows keep
        their results; in-flight rows keep their lease) except that a
        ``failed`` row is given a fresh set of attempts -- an explicit
        resubmission is the operator saying "try again".
        """
        job_id = unit_job_id(unit)
        payload = _encode_unit(unit)
        with self._session(write=True) as con:
            con.execute(
                "INSERT OR IGNORE INTO jobs (id, payload, created)"
                " VALUES (?, ?, ?)",
                (job_id, payload, time.time()))
            con.execute(
                "UPDATE jobs SET state='pending', owner=NULL, deadline=NULL,"
                " attempts=0, error=NULL WHERE id=? AND state='failed'",
                (job_id,))
        return job_id

    def states(self, job_ids: Sequence[str]) -> Dict[str, str]:
        """Current state of each id (missing ids are absent)."""
        out: Dict[str, str] = {}
        with self._session() as con:
            for job_id in job_ids:
                row = con.execute(
                    "SELECT state FROM jobs WHERE id=?", (job_id,)).fetchone()
                if row is not None:
                    out[job_id] = row[0]
        return out

    def error_of(self, job_id: str) -> Optional[str]:
        with self._session() as con:
            row = con.execute(
                "SELECT error FROM jobs WHERE id=?", (job_id,)).fetchone()
        return row[0] if row else None

    def counts(self) -> Dict[str, int]:
        """Job counts by state (pending/leased/done/failed)."""
        with self._session() as con:
            rows = con.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        return {state: count for state, count in rows}

    def recent_done(self, limit: int = 8
                    ) -> "List[Tuple[str, Tuple[Tuple[str, SimJob], ...]]]":
        """The most recently created completed units, newest first.

        ``repro status`` decodes these to summarize what the fabric
        just produced (the results live in the directory's cache
        namespace under each unit's job keys).
        """
        with self._session() as con:
            rows = con.execute(
                "SELECT id, payload FROM jobs WHERE state='done'"
                " ORDER BY created DESC, id LIMIT ?",
                (max(0, int(limit)),)).fetchall()
        return [(job_id, _decode_unit(payload)) for job_id, payload in rows]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def lease(self, owner: str) -> Optional[LeasedJob]:
        """Atomically claim the oldest runnable job, or None.

        Runnable = pending, or leased past its deadline (the holder is
        presumed dead; content-addressed results make its late writes
        harmless).  A job seen more than ``max_attempts`` times parks
        as failed instead of looping forever.
        """
        now = time.time()
        with self._session(write=True) as con:
            while True:
                row = con.execute(
                    "SELECT id, payload, attempts FROM jobs"
                    " WHERE state='pending'"
                    "    OR (state='leased' AND deadline < ?)"
                    " ORDER BY created, id LIMIT 1", (now,)).fetchone()
                if row is None:
                    return None
                job_id, payload, attempts = row
                if attempts >= self.max_attempts:
                    con.execute(
                        "UPDATE jobs SET state='failed', owner=NULL,"
                        " error=COALESCE(error, 'lease expired "
                        "max_attempts times') WHERE id=?", (job_id,))
                    continue
                con.execute(
                    "UPDATE jobs SET state='leased', owner=?, deadline=?,"
                    " attempts=? WHERE id=?",
                    (owner, now + self.lease_ttl, attempts + 1, job_id))
                return LeasedJob(job_id, _decode_unit(payload), attempts + 1)

    def heartbeat(self, job_id: str, owner: str) -> bool:
        """Extend a held lease; False means the lease was lost."""
        with self._session(write=True) as con:
            cur = con.execute(
                "UPDATE jobs SET deadline=? WHERE id=? AND owner=?"
                " AND state='leased'",
                (time.time() + self.lease_ttl, job_id, owner))
        return cur.rowcount == 1

    def complete(self, job_id: str, owner: str) -> bool:
        """Mark a held lease done; False means the lease was lost."""
        with self._session(write=True) as con:
            cur = con.execute(
                "UPDATE jobs SET state='done', owner=NULL, deadline=NULL,"
                " error=NULL WHERE id=? AND owner=? AND state='leased'",
                (job_id, owner))
        return cur.rowcount == 1

    def fail(self, job_id: str, owner: str, error: str) -> bool:
        """Record a failed attempt: retry while attempts remain.

        Under ``max_attempts`` the job returns to ``pending`` for any
        worker to retry; at the cap it parks as ``failed`` with the
        error preserved for :meth:`error_of`.
        """
        with self._session(write=True) as con:
            row = con.execute(
                "SELECT attempts FROM jobs WHERE id=? AND owner=?"
                " AND state='leased'", (job_id, owner)).fetchone()
            if row is None:
                return False
            state = "failed" if row[0] >= self.max_attempts else "pending"
            con.execute(
                "UPDATE jobs SET state=?, owner=NULL, deadline=NULL, error=?"
                " WHERE id=?", (state, error, job_id))
        return True

    def summary(self) -> str:
        counts = self.counts()
        total = sum(counts.values())
        parts = [f"jobs={total}"] + [
            f"{state}={counts[state]}"
            for state in ("pending", "leased", "done", "failed")
            if counts.get(state)]
        return " ".join(parts)


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------

def worker_id() -> str:
    """Owner id for this process's leases (host-qualified)."""
    import socket
    return f"{socket.gethostname()}:{os.getpid()}"


def run_worker(root: "Optional[str | os.PathLike]" = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS,
               poll: float = 0.1,
               drain: bool = False,
               idle_timeout: Optional[float] = None,
               max_jobs: Optional[int] = None,
               log=None) -> int:
    """Lease-execute-complete until stopped; returns units executed.

    ``drain`` exits as soon as no job is leasable; ``idle_timeout``
    exits after that many idle seconds; ``max_jobs`` caps the units one
    worker takes (crash-recovery tests lease one and stop).  With none
    of those set the worker serves forever.  Results are written to the
    queue directory's content-addressed namespace *before* the job is
    marked done, so a submitter that observes ``done`` always finds
    every result.
    """
    queue = JobQueue(root, lease_ttl=lease_ttl, max_attempts=max_attempts)
    results = ResultCache(queue.root)
    owner = worker_id()
    executed = 0
    idle_since = time.monotonic()
    while True:
        job = queue.lease(owner)
        if job is None:
            if drain:
                return executed
            if idle_timeout is not None \
                    and time.monotonic() - idle_since >= idle_timeout:
                return executed
            time.sleep(poll)
            continue
        idle_since = time.monotonic()
        if log:
            log(f"worker {owner}: lease {job.job_id[:12]} "
                f"({len(job.unit)} job(s), attempt {job.attempts})")
        try:
            queue.heartbeat(job.job_id, owner)
            for key, result in execute_unit(job.unit):
                results.put(key, result)
                queue.heartbeat(job.job_id, owner)
            queue.complete(job.job_id, owner)
            executed += 1
        except Exception as exc:  # noqa: BLE001 -- recorded, retried
            queue.fail(job.job_id, owner, f"{type(exc).__name__}: {exc}")
            if log:
                log(f"worker {owner}: {job.job_id[:12]} failed: {exc}")
        if max_jobs is not None and executed >= max_jobs:
            return executed


def spawn_worker(root: "str | os.PathLike",
                 drain: bool = True,
                 poll: float = 0.05) -> "subprocess.Popen[bytes]":
    """Start a ``repro worker`` subprocess against ``root``.

    Used by :class:`QueueBackend`'s local-worker convenience and the
    fabric tests; ensures the running checkout is importable in the
    child even when the parent was launched via ``PYTHONPATH``.
    """
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, "-m", "repro", "worker", "--queue-dir", str(root),
            "--poll", str(poll)]
    if drain:
        argv.append("--drain")
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


# ----------------------------------------------------------------------
# The backend adapter
# ----------------------------------------------------------------------

class QueueBackend(ExecutionBackend):
    """Run units through the shared queue (workers do the simulating).

    ``local_workers`` spawns that many drain-mode worker subprocesses
    per :meth:`run_units` call -- the zero-setup local fabric ``repro
    submit --local-workers N`` and the conformance tests use; 0 (the
    default) relies on externally started ``repro worker`` processes.
    ``timeout`` bounds the wait for the whole submission (None waits
    forever, the right default when remote workers may be slow).
    """

    name = "queue"

    def __init__(self, root: "Optional[str | os.PathLike]" = None,
                 local_workers: int = 0,
                 poll: float = 0.05,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 timeout: Optional[float] = None) -> None:
        self.queue = JobQueue(root, lease_ttl=lease_ttl,
                              max_attempts=max_attempts)
        self.results = ResultCache(self.queue.root)
        self.local_workers = max(0, int(local_workers))
        self.poll = poll
        self.timeout = timeout

    def describe(self) -> str:
        return f"queue:{self.queue.root}"

    def run_units(self, units: Sequence[Unit]) -> List[UnitResults]:
        units = [list(unit) for unit in units]
        ids = [self.queue.submit(unit) for unit in units]
        workers = [spawn_worker(self.queue.root, poll=self.poll)
                   for _ in range(self.local_workers)]
        try:
            self._wait(ids)
        finally:
            for proc in workers:
                proc.wait()
        out: List[UnitResults] = []
        for unit in units:
            unit_results: UnitResults = []
            for key, _job in unit:
                result = self.results.get(key)
                if result is None:
                    raise RuntimeError(
                        f"queue job done but result {key[:12]}... missing "
                        f"from {self.queue.root} -- namespace cleared "
                        "between completion and collection?")
                unit_results.append((key, result))
            out.append(unit_results)
        return out

    def _wait(self, ids: Sequence[str]) -> None:
        deadline = None if self.timeout is None \
            else time.monotonic() + self.timeout
        pending = list(dict.fromkeys(ids))
        while pending:
            states = self.queue.states(pending)
            failed = [job_id for job_id in pending
                      if states.get(job_id) == "failed"]
            if failed:
                reasons = "; ".join(
                    f"{job_id[:12]}...: {self.queue.error_of(job_id)}"
                    for job_id in failed)
                raise RuntimeError(f"queue job(s) failed permanently: "
                                   f"{reasons}")
            pending = [job_id for job_id in pending
                       if states.get(job_id) != "done"]
            if not pending:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(pending)} queue job(s) still "
                    f"{self.queue.summary()} after {self.timeout}s -- "
                    "are any workers attached to this queue directory?")
            time.sleep(self.poll)


register_backend(
    "queue",
    lambda jobs=None, queue_dir=None: QueueBackend(root=queue_dir))


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "JobQueue",
    "LeasedJob",
    "QueueBackend",
    "QueueDirError",
    "default_queue_dir",
    "run_worker",
    "spawn_worker",
    "unit_job_id",
    "worker_id",
]

"""Run ledger: an append-only performance history of every pipeline run.

Every ``repro`` CLI command and every benchmark appends one structured
record — command, argv, technology, git SHA, wall/CPU time, peak RSS and a
flat snapshot of all tracer counters and per-span totals — to an
append-only JSONL file *and* a SQLite index under
``~/.cache/repro/ledger`` (override with ``REPRO_LEDGER_DIR`` or the
``--ledger DIR`` flag; opt out with ``REPRO_LEDGER=0`` or ``--no-ledger``).
The JSONL file is the durable source of truth (one self-contained JSON
object per line, never rewritten); the SQLite database indexes the same
records for the ``repro perf`` queries (:mod:`repro.obs.regress`) and holds
named baselines.

The ledger is the read side of the performance observatory: the sampling
profiler (:mod:`repro.obs.profiler`) answers "where does the time go in
*this* run", the ledger answers "how does this run compare to every run
before it".

Disabled cost: one environment lookup per *command* (not per call site),
measured by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics
import subprocess
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .logsetup import get_logger

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "Ledger",
    "BaselineStat",
    "ledger_enabled",
    "resolve_ledger_dir",
    "current_git_sha",
    "flatten_metrics",
    "snapshot_metrics",
    "peak_rss_kb",
]

log = get_logger("obs")

#: Bump when the record shape changes; records carry their version.
SCHEMA_VERSION = 1

#: ``REPRO_LEDGER=0`` (or false/no/off) disables all ledger writes.
ENV_SWITCH = "REPRO_LEDGER"
#: Overrides the ledger directory (highest precedence after ``--ledger``).
ENV_DIR = "REPRO_LEDGER_DIR"

_FALSY = {"0", "false", "no", "off"}


def ledger_enabled(opt_out: bool = False) -> bool:
    """Whether runs should be recorded (``--no-ledger`` / ``REPRO_LEDGER=0``)."""
    if opt_out:
        return False
    return os.environ.get(ENV_SWITCH, "1").strip().lower() not in _FALSY


def resolve_ledger_dir(override: Union[str, Path, None] = None) -> Path:
    """The ledger directory: explicit override > ``$REPRO_LEDGER_DIR`` > default."""
    if override is not None:
        return Path(override)
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "ledger"


# ---------------------------------------------------------------------------
_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def current_git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The current checkout's short SHA, or ``None`` outside a repository.

    Cached per working directory — the ledger stamps every command and a
    ``git rev-parse`` subprocess per record would dominate small commands.
    Falls back to ``$GITHUB_SHA`` (CI detached worktrees without git).
    """
    key = str(cwd or os.getcwd())
    if key in _GIT_SHA_CACHE:
        return _GIT_SHA_CACHE[key]
    sha: Optional[str] = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=key, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - no git
        sha = None
    if sha is None:
        sha = os.environ.get("GITHUB_SHA", "")[:12] or None
    _GIT_SHA_CACHE[key] = sha
    return sha


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (``None`` if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if os.uname().sysname == "Darwin":  # pragma: no cover - platform
        peak //= 1024
    return int(peak)


# ---------------------------------------------------------------------------
def flatten_metrics(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts of numbers into ``{"a.b.c": value}``.

    Non-numeric leaves (strings, lists, ``None``, booleans) are dropped —
    the result is the flat metric namespace ``repro perf`` diffs over.
    """
    flat: Dict[str, float] = {}
    if isinstance(payload, Mapping):
        for key, value in payload.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, name))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        if prefix:
            flat[prefix] = float(payload)
    return flat


def snapshot_metrics(stats: Any) -> Dict[str, float]:
    """Flatten a :class:`~repro.obs.sinks.StatsSink` into ledger metrics.

    Counters keep their dotted names; spans contribute
    ``span.<name>.total_s`` and ``span.<name>.calls`` plus histogram
    percentiles ``span.<name>.p50_s`` / ``.p90_s`` / ``.p99_s`` (the
    ``_s`` suffix keeps them in the perf-check noise classification with
    the other timing metrics).
    """
    metrics: Dict[str, float] = {}
    for name, value in stats.counters.items():
        metrics[name] = float(value)
    for name, span in stats.spans.items():
        metrics[f"span.{name}.total_s"] = span.total_ns / 1e9
        metrics[f"span.{name}.calls"] = float(span.calls)
        p50, p90, p99 = span.hist.percentiles((50, 90, 99))
        metrics[f"span.{name}.p50_s"] = p50 / 1e9
        metrics[f"span.{name}.p90_s"] = p90 / 1e9
        metrics[f"span.{name}.p99_s"] = p99 / 1e9
    return metrics


# ---------------------------------------------------------------------------
class RunRecord:
    """One ledger entry; ``rowid`` is assigned by :meth:`Ledger.append`."""

    __slots__ = (
        "run_id", "ts", "kind", "command", "argv", "tech", "git_sha",
        "status", "wall_s", "cpu_s", "peak_rss_kb", "metrics", "extra",
        "rowid",
    )

    def __init__(
        self,
        command: str,
        *,
        kind: str = "cli",
        argv: Sequence[str] = (),
        tech: Optional[str] = None,
        git_sha: Optional[str] = None,
        status: int = 0,
        wall_s: Optional[float] = None,
        cpu_s: Optional[float] = None,
        peak_rss_kb: Optional[int] = None,
        metrics: Optional[Dict[str, float]] = None,
        extra: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        ts: Optional[str] = None,
        rowid: Optional[int] = None,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.ts = ts or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.kind = kind
        self.command = command
        self.argv = list(argv)
        self.tech = tech
        self.git_sha = git_sha
        self.status = status
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_kb = peak_rss_kb
        self.metrics = dict(metrics or {})
        self.extra = dict(extra or {})
        self.rowid = rowid

    # ------------------------------------------------------------------
    def all_metrics(self) -> Dict[str, float]:
        """The tracked metrics plus the built-in resource measurements."""
        merged = dict(self.metrics)
        for name, value in (
            ("wall_s", self.wall_s),
            ("cpu_s", self.cpu_s),
            ("peak_rss_kb", self.peak_rss_kb),
        ):
            if value is not None:
                merged[name] = float(value)
        return merged

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "ts": self.ts,
            "kind": self.kind,
            "command": self.command,
            "argv": self.argv,
            "tech": self.tech,
            "git_sha": self.git_sha,
            "status": self.status,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any],
                  rowid: Optional[int] = None) -> "RunRecord":
        return cls(
            data["command"],
            kind=data.get("kind", "cli"),
            argv=data.get("argv") or (),
            tech=data.get("tech"),
            git_sha=data.get("git_sha"),
            status=int(data.get("status") or 0),
            wall_s=data.get("wall_s"),
            cpu_s=data.get("cpu_s"),
            peak_rss_kb=data.get("peak_rss_kb"),
            metrics=data.get("metrics") or {},
            extra=data.get("extra") or {},
            run_id=data.get("run_id"),
            ts=data.get("ts"),
            rowid=rowid,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunRecord(#{self.rowid} {self.command!r} {self.ts}"
                f" wall={self.wall_s})")


class BaselineStat:
    """Median/MAD of one metric inside a named baseline."""

    __slots__ = ("median", "mad", "samples")

    def __init__(self, median: float, mad: float, samples: int) -> None:
        self.median = median
        self.mad = mad
        self.samples = samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaselineStat(median={self.median}, mad={self.mad}, n={self.samples})"


# ---------------------------------------------------------------------------
_DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL,
    ts TEXT NOT NULL,
    kind TEXT NOT NULL,
    command TEXT NOT NULL,
    tech TEXT,
    git_sha TEXT,
    status INTEGER NOT NULL DEFAULT 0,
    wall_s REAL,
    cpu_s REAL,
    peak_rss_kb INTEGER,
    json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_command ON runs (command, id);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id),
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS baselines (
    name TEXT NOT NULL,
    command TEXT NOT NULL,
    metric TEXT NOT NULL,
    median REAL NOT NULL,
    mad REAL NOT NULL DEFAULT 0,
    samples INTEGER NOT NULL DEFAULT 1,
    created_ts TEXT NOT NULL,
    PRIMARY KEY (name, command, metric)
);
"""


class Ledger:
    """The append-only run store: ``ledger.jsonl`` + ``ledger.sqlite3``.

    Appends go to both files; reads come from SQLite.  Every write is
    wrapped so a broken ledger (read-only home, corrupt database) degrades
    to a logged warning — recording history must never fail the command
    being recorded.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = resolve_ledger_dir(root)
        self.jsonl_path = self.root / "ledger.jsonl"
        self.db_path = self.root / "ledger.sqlite3"
        self._conn: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------
    def _db(self) -> sqlite3.Connection:
        if self._conn is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.db_path)
            self._conn.executescript(_DDL)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append *record* to the JSONL log and the SQLite index."""
        db = self._db()
        with open(self.jsonl_path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record.to_json(), default=str) + "\n")
        with db:
            cursor = db.execute(
                "INSERT INTO runs (run_id, ts, kind, command, tech, git_sha,"
                " status, wall_s, cpu_s, peak_rss_kb, json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id, record.ts, record.kind, record.command,
                    record.tech, record.git_sha, record.status,
                    record.wall_s, record.cpu_s, record.peak_rss_kb,
                    json.dumps(record.to_json(), default=str),
                ),
            )
            record.rowid = cursor.lastrowid
            db.executemany(
                "INSERT OR REPLACE INTO metrics (run_id, name, value)"
                " VALUES (?, ?, ?)",
                [
                    (record.rowid, name, value)
                    for name, value in record.all_metrics().items()
                ],
            )
        return record

    def try_append(self, record: RunRecord) -> Optional[RunRecord]:
        """:meth:`append`, but degrade to a warning on any failure."""
        try:
            return self.append(record)
        except Exception as exc:  # noqa: BLE001 - never fail the command
            log.warning("ledger: could not record run %s under %s: %s",
                        record.command, self.root, exc)
            return None

    # ------------------------------------------------------------------
    def _rows_to_records(self, rows: Iterable[Tuple[int, str]]) -> List[RunRecord]:
        return [RunRecord.from_json(json.loads(blob), rowid=rowid)
                for rowid, blob in rows]

    def runs(
        self,
        command: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Records newest-first, optionally filtered by command/kind."""
        if not self.db_path.exists():
            return []
        query = "SELECT id, json FROM runs"
        clauses, params = [], []
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        return self._rows_to_records(self._db().execute(query, params))

    def get(self, rowid: int) -> Optional[RunRecord]:
        if not self.db_path.exists():
            return None
        rows = self._db().execute(
            "SELECT id, json FROM runs WHERE id = ?", (int(rowid),)
        ).fetchall()
        records = self._rows_to_records(rows)
        return records[0] if records else None

    def last(self, command: Optional[str] = None, offset: int = 0) -> Optional[RunRecord]:
        """The newest record (``offset`` steps back), optionally per command."""
        records = self.runs(command=command, limit=offset + 1)
        return records[offset] if len(records) > offset else None

    def commands(self) -> List[str]:
        """Distinct commands recorded, most recently used first."""
        if not self.db_path.exists():
            return []
        rows = self._db().execute(
            "SELECT command, MAX(id) AS latest FROM runs"
            " GROUP BY command ORDER BY latest DESC"
        ).fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    def save_baseline(
        self,
        name: str,
        command: Optional[str] = None,
        k: int = 5,
    ) -> Dict[str, Dict[str, BaselineStat]]:
        """Freeze median/MAD of the last *k* runs' metrics as baseline *name*.

        Stats are kept per command; with *command* ``None`` the window is
        grouped per command, so one named baseline covers every workload
        the ledger has seen.
        """
        commands = [command] if command is not None else self.commands()
        stats: Dict[str, Dict[str, BaselineStat]] = {}
        for cmd in commands:
            window = self.runs(command=cmd, limit=k)
            samples: Dict[str, List[float]] = {}
            for record in window:
                for metric, value in record.all_metrics().items():
                    samples.setdefault(metric, []).append(value)
            if not samples:
                continue
            per_cmd = stats.setdefault(cmd, {})
            for metric, values in samples.items():
                med = statistics.median(values)
                mad = statistics.median([abs(v - med) for v in values])
                per_cmd[metric] = BaselineStat(med, mad, len(values))
        if not stats:
            raise ValueError(f"no runs to baseline (command={command!r})")
        db = self._db()
        created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        with db:
            db.execute("DELETE FROM baselines WHERE name = ?", (name,))
            db.executemany(
                "INSERT INTO baselines (name, command, metric, median, mad,"
                " samples, created_ts) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (name, cmd, metric, stat.median, stat.mad, stat.samples,
                     created)
                    for cmd, metrics in stats.items()
                    for metric, stat in metrics.items()
                ],
            )
        return stats

    def baseline(self, name: str) -> Dict[str, Dict[str, BaselineStat]]:
        """Baseline *name* as ``{command: {metric: stat}}`` (empty if unknown)."""
        if not self.db_path.exists():
            return {}
        rows = self._db().execute(
            "SELECT command, metric, median, mad, samples FROM baselines"
            " WHERE name = ?",
            (name,),
        ).fetchall()
        stats: Dict[str, Dict[str, BaselineStat]] = {}
        for command, metric, median, mad, samples in rows:
            stats.setdefault(command, {})[metric] = BaselineStat(
                median, mad, samples
            )
        return stats

    def baseline_names(self) -> List[str]:
        if not self.db_path.exists():
            return []
        rows = self._db().execute(
            "SELECT DISTINCT name FROM baselines ORDER BY name"
        ).fetchall()
        return [row[0] for row in rows]

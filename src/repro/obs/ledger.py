"""Run ledger: an append-only performance history of every pipeline run.

Every ``repro`` CLI command and every benchmark appends one structured
record — command, argv, technology, git SHA, wall/CPU time, peak RSS and a
flat snapshot of all tracer counters and per-span totals — as one JSON line
of ``ledger.jsonl`` under ``~/.cache/repro/ledger`` (override with
``REPRO_LEDGER_DIR`` or the ``--ledger DIR`` flag; opt out with
``REPRO_LEDGER=0`` or ``--no-ledger``).  That file is the only store: lines
are never rewritten, and the ``repro perf`` queries
(:mod:`repro.obs.regress`) scan it newest-first.  A ``ledger.sqlite3``
left beside it by older versions mirrored the same records and is ignored.

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
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .logsetup import get_logger

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "Ledger",
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
    import subprocess

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
    the result is the flat metric namespace ``repro perf`` compares.
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
    percentiles ``span.<name>.p50_s`` / ``.p90_s`` / ``.p99_s``.
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
        self.run_id = run_id or os.urandom(6).hex()
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


# ---------------------------------------------------------------------------
#: Bytes read per step when walking the file from its end.
_BLOCK = 1 << 16
#: How every line :meth:`Ledger.append` writes begins.
_RECORD_START = b'{"schema": '


def _lines_newest_first(path: Path) -> Iterator[Tuple[int, bytes]]:
    """``(line number, line)`` pairs of *path*, last line first.

    One forward pass counts the lines, then the file is read backwards in
    blocks, so memory stays bounded by the block size and the longest line.
    """
    try:
        stream = open(path, "rb")
    except FileNotFoundError:
        return
    with stream:
        blocks = iter(lambda: stream.read(_BLOCK), b"")
        count = sum(block.count(b"\n") for block in blocks)
        end = stream.tell()
        if end == 0:
            return
        stream.seek(end - 1)
        if stream.read(1) == b"\n":
            end -= 1  # the final newline ends the last line; it starts none
        else:
            count += 1  # an unterminated last line is still a line
        number = count
        pending = b""
        while end > 0:
            start = max(0, end - _BLOCK)
            stream.seek(start)
            pieces = (stream.read(end - start) + pending).split(b"\n")
            end = start
            # Unless the block began the file, its first piece may be the
            # tail of a line that starts in an earlier block.
            pending = pieces.pop(0) if start else b""
            for line in reversed(pieces):
                yield number, line
                number -= 1


class Ledger:
    """The append-only run store: one JSON object per line of ``ledger.jsonl``.

    An append writes one line and never reads the file; reads walk it
    newest-first, and a record's ``rowid`` is its 1-based line number.  A
    line that does not decode (a torn append) is skipped with a logged
    warning and keeps its number, so later rowids never shift; a record
    appended onto a torn line is still read.  Every write is wrapped so a
    broken ledger (read-only home, a file where the directory should be)
    degrades to a logged warning — recording history must never fail the
    command being recorded.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = resolve_ledger_dir(root)
        self.jsonl_path = self.root / "ledger.jsonl"

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append *record* as one JSON line (its rowid is set on read)."""
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_json(), default=str) + "\n"
        with open(self.jsonl_path, "a", encoding="utf-8") as stream:
            stream.write(line)
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
    def _decode(self, rowid: int, line: bytes) -> Optional[RunRecord]:
        try:
            return RunRecord.from_json(json.loads(line), rowid=rowid)
        except (ValueError, KeyError, TypeError):
            if not line.strip():
                return None
            log.warning("ledger: skipping undecodable line %d of %s",
                        rowid, self.jsonl_path)
            # A torn append ends without its newline, so the next append
            # continues the same line: keep the record that starts there.
            start = line.rfind(_RECORD_START, 1)
            return self._decode(rowid, line[start:]) if start > 0 else None

    def runs(
        self,
        command: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Records newest-first, optionally filtered by command/kind."""
        # A record's line holds each filter value as a JSON string, so a
        # substring test rejects most other lines before they are decoded.
        tokens = [json.dumps(value).encode()
                  for value in (command, kind) if value is not None]
        records: List[RunRecord] = []
        if limit is not None and limit <= 0:
            return records
        for rowid, line in _lines_newest_first(self.jsonl_path):
            if not all(token in line for token in tokens):
                continue
            record = self._decode(rowid, line)
            if record is None:
                continue
            if command is not None and record.command != command:
                continue
            if kind is not None and record.kind != kind:
                continue
            records.append(record)
            if len(records) == limit:
                break
        return records

    def newest(self, commands: Sequence[str]) -> Dict[str, RunRecord]:
        """The newest record of each of *commands*, found in one walk."""
        wanted = {json.dumps(command).encode(): command for command in commands}
        found: Dict[str, RunRecord] = {}
        for rowid, line in _lines_newest_first(self.jsonl_path):
            if len(found) == len(wanted):
                break
            if not any(token in line for token in wanted):
                continue
            record = self._decode(rowid, line)
            if (record is not None and record.command in wanted.values()
                    and record.command not in found):
                found[record.command] = record
        return found

    def get(self, rowid: int) -> Optional[RunRecord]:
        """The record on line *rowid* (``None`` if absent or undecodable)."""
        for number, line in _lines_newest_first(self.jsonl_path):
            if number == rowid:
                return self._decode(number, line)
        return None

    def last(self, command: Optional[str] = None, offset: int = 0) -> Optional[RunRecord]:
        """The newest record (``offset`` steps back), optionally per command."""
        records = self.runs(command=command, limit=offset + 1)
        return records[offset] if len(records) > offset else None

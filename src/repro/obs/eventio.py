"""Event-log persistence: JSONL export, gzip rotation, tailing.

The on-disk format is one JSON document per line in the shape of
:meth:`repro.obs.events.Event.to_dict` (schema-versioned via the per
-record ``"v"`` field).  :class:`JsonlEventWriter` appends events to a
plain-text ``.jsonl`` file and, when a size threshold is crossed,
rotates the full file aside as ``<path>.1.gz`` (older generations
shift to ``.2.gz``, ``.3.gz``, ... up to `MAX_ROTATIONS`), so a
long-running ``repro serve`` keeps a bounded, compressed history
instead of one unbounded log.

Readers accept both live ``.jsonl`` files and rotated ``.gz``
segments; :func:`read_events` stitches rotated generations back
together oldest-first.
"""

from __future__ import annotations

import gzip
import json
import os
import time
import zlib
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.obs.events import Event, EventLog


#: Rotated generations kept beside the live file; the oldest is
#: dropped when one more rotation would exceed it.
MAX_ROTATIONS = 8


class JsonlEventWriter:
    """Appends events to a JSONL file with optional gzip rotation.

    ``rotate_bytes=None`` disables rotation (the file grows without
    bound — fine for one-shot CLI runs).  The writer tracks the last
    sequence number it has persisted, so :meth:`drain` can be called
    repeatedly against a live :class:`~repro.obs.events.EventLog`
    without duplicating records.
    """

    def __init__(
        self,
        path: str,
        rotate_bytes: Optional[int] = None,
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError("rotate_bytes must be >= 1")
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.rotations = 0
        self.written = 0
        self._last_seq = -1
        self._fh: Optional[TextIO] = None

    # -- writing --------------------------------------------------------

    def _file(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self.path, "a")
        return self._fh

    def write(self, events: Sequence[Event]) -> int:
        """Append *events*; returns how many records were written."""
        if not events:
            return 0
        fh = self._file()
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            self._last_seq = max(self._last_seq, event.seq)
            self.written += 1
        fh.flush()
        self._maybe_rotate()
        return len(events)

    def drain(self, log: EventLog) -> int:
        """Persist every retained event newer than the last drain."""
        return self.write(log.events(since_seq=self._last_seq))

    def _maybe_rotate(self) -> None:
        if self.rotate_bytes is None:
            return
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size < self.rotate_bytes:
            return
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        # Shift older generations up: .N-1.gz -> .N.gz, dropping the
        # oldest once MAX_ROTATIONS is reached.
        oldest = f"{self.path}.{MAX_ROTATIONS}.gz"
        if os.path.exists(oldest):
            os.remove(oldest)
        for generation in range(MAX_ROTATIONS - 1, 0, -1):
            src = f"{self.path}.{generation}.gz"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{generation + 1}.gz")
        with open(self.path, "rb") as raw:
            payload = raw.read()
        # mtime=0 keeps rotated segments byte-stable for identical
        # payloads (same convention as the atlas snapshots).
        with open(f"{self.path}.1.gz", "wb") as out:
            with gzip.GzipFile(
                filename="", fileobj=out, mode="wb", mtime=0
            ) as gz:
                gz.write(payload)
        os.remove(self.path)
        self.rotations += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def _lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` for each non-blank line of a ``.jsonl``
    or ``.jsonl.gz`` file."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as fh:  # type: ignore[operator]
        for number, line in enumerate(fh, 1):
            if line.strip():
                yield number, line


def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield raw JSON documents from a ``.jsonl`` or ``.jsonl.gz`` file."""
    for _, line in _lines(path):
        yield json.loads(line)


def _rotated_segments(path: str) -> List[str]:
    """Rotated generations of *path*, oldest first."""
    segments: List[str] = []
    generation = 1
    while os.path.exists(f"{path}.{generation}.gz"):
        segments.append(f"{path}.{generation}.gz")
        generation += 1
    segments.reverse()
    return segments


def read_events(
    path: str, include_rotated: bool = True
) -> List[Event]:
    """Load events from *path* (plus rotated segments), oldest-first.

    Raises :class:`FileNotFoundError` when neither the live file nor
    any rotated segment exists, and :class:`ValueError`, naming the
    file, the line and the field, for anything in them that is not an
    event record of this schema version: a truncated or retyped line,
    a damaged gzip segment.
    """
    sources: List[str] = []
    if include_rotated:
        sources.extend(_rotated_segments(path))
    if os.path.exists(path):
        sources.append(path)
    elif not sources:
        raise FileNotFoundError(path)
    events: List[Event] = []
    for source in sources:
        try:
            for number, line in _lines(source):
                try:
                    events.append(Event.from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{source}:{number}: {exc}") from exc
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ValueError(f"{source}: damaged gzip: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{source}: not text: {exc}") from exc
    events.sort(key=lambda event: event.seq)
    return events


def follow_jsonl(
    path: str,
    poll_interval: float = 0.5,
    max_seconds: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """``tail -f`` for a JSONL event file, rotation-aware.

    Yields existing records, then polls for appended lines every
    *poll_interval* seconds until *max_seconds* elapses (``None``
    follows until the consumer stops iterating / interrupts).

    :class:`JsonlEventWriter` rotation moves the live file aside as
    ``<path>.1.gz`` and starts a fresh one, so a naive offset-based
    tail would silently skip everything written between the last poll
    and the rotation, then misread the new file from a stale offset.
    The follower detects rotation/truncation (inode change or the file
    shrinking below the read offset), drains the freshly rotated
    ``.1.gz`` segment for records it has not yet yielded — records
    carry monotone ``seq`` numbers, which de-duplicate the handoff —
    and resumes from the top of the new live file.
    """
    deadline = (
        time.monotonic() + max_seconds if max_seconds is not None else None
    )
    position = 0
    buffer = ""
    identity: Optional[Tuple[int, int]] = None
    last_seq = -1

    def drain_rotated() -> Iterator[Dict[str, Any]]:
        archive = f"{path}.1.gz"
        try:
            docs = list(iter_jsonl(archive))
        except OSError:
            return
        for doc in docs:
            if doc.get("seq", -1) > last_seq:
                yield doc

    while True:
        try:
            stat = os.stat(path)
        except OSError:
            stat = None
        if stat is None:
            if identity is not None:
                # The live file vanished mid-follow: rotation won the
                # race between our stat and the writer's os.remove.
                # Catch up from the archive and await the new file.
                for doc in drain_rotated():
                    last_seq = max(last_seq, doc.get("seq", -1))
                    yield doc
                identity = None
                position = 0
                buffer = ""
        else:
            file_id = (stat.st_ino, stat.st_dev)
            if identity is not None and (
                file_id != identity or stat.st_size < position
            ):
                for doc in drain_rotated():
                    last_seq = max(last_seq, doc.get("seq", -1))
                    yield doc
                position = 0
                buffer = ""
            identity = file_id
            try:
                with open(path) as fh:
                    fh.seek(position)
                    chunk = fh.read()
                    position = fh.tell()
            except OSError:
                chunk = ""
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                line = line.strip()
                if line:
                    doc = json.loads(line)
                    last_seq = max(last_seq, doc.get("seq", -1))
                    yield doc
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll_interval)

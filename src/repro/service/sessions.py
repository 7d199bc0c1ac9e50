"""Genome sessions: load and parse a reference once, search it many times.

The serving layer's second amortisation axis (next to the compiled
:mod:`~repro.service.cache`): FASTA parsing and sequence encoding cost
seconds at genome scale, so a reference is registered once as a
*session* and every subsequent request names the session instead of
re-shipping or re-reading the reference. This mirrors how the paper's
platforms hold the symbol stream constant while swapping automata in
and out.

Each session also owns a :class:`~repro.core.bitparallel.LaneIndex`
over its sequences: the PAM lanes and lane code boards of every chunk
the kernel scans depend only on the genome and the PAM layout, so the
first panel of a layout builds them and later panels reuse them. The
index is empty until then, holds at most
:data:`~repro.core.bitparallel.LANE_INDEX_BYTES_PER_SYMBOL` bytes per
base, and dies with its session. In-process scans read through it.
Shard-pool workers forked after the session registered inherit its
sequences and keep an index of their own over them, under the same
bound; the session's index names the genome to them (its ``token``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from ..core.bitparallel import LaneIndex
from ..errors import ServiceError
from ..genome.fasta import read_fasta
from ..genome.sequence import Sequence
from ..obs import Metrics


@dataclass(frozen=True)
class GenomeSession:
    """One loaded reference: an id, its sequences, and provenance.

    ``lanes`` is the session's lane index, which in-process scans of
    these sequences read their lanes through, and which names them to
    the pool workers that inherited them.
    """

    session_id: str
    sequences: tuple[Sequence, ...]
    source: str = "<memory>"
    lanes: LaneIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ServiceError("session id must be non-empty")
        if not self.sequences:
            raise ServiceError(f"session {self.session_id!r} has no sequences")
        object.__setattr__(self, "lanes", LaneIndex(self.sequences))

    @property
    def total_length(self) -> int:
        """Total reference length in bp."""
        return sum(len(sequence) for sequence in self.sequences)

    def describe(self) -> dict[str, object]:
        """JSON-friendly summary for ``--stats-json`` / the stats op."""
        return {
            "session": self.session_id,
            "source": self.source,
            "sequences": [sequence.name for sequence in self.sequences],
            "total_length": self.total_length,
            "lane_index": self.lanes.stats(),
        }


class SessionRegistry:
    """Thread-safe id → :class:`GenomeSession` store with reuse counters.

    ``service.sessions.loaded`` / ``.bytes_loaded`` count the one-time
    loading work; ``service.sessions.reuses`` counts every request that
    was served without re-reading a reference — the registry's whole
    point.
    """

    def __init__(self, *, metrics: Metrics | None = None) -> None:
        self._metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._sessions: dict[str, GenomeSession] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def _register(self, session: GenomeSession) -> GenomeSession:
        with self._lock:
            if session.session_id in self._sessions:
                raise ServiceError(
                    f"session {session.session_id!r} is already registered"
                )
            self._sessions[session.session_id] = session
            self._metrics.incr("service.sessions.loaded")
            self._metrics.incr("service.sessions.bytes_loaded", session.total_length)
            self._metrics.gauge("service.sessions.count", len(self._sessions))
        return session

    def add_sequences(
        self, session_id: str, sequences: Union[Sequence, Iterable[Sequence]]
    ) -> GenomeSession:
        """Register in-memory sequences under *session_id*."""
        if isinstance(sequences, Sequence):
            sequences = (sequences,)
        return self._register(
            GenomeSession(session_id, tuple(sequences), source="<memory>")
        )

    def add_fasta(self, session_id: str, path: Union[str, Path]) -> GenomeSession:
        """Read *path* once and register its records under *session_id*."""
        records = read_fasta(path)
        if not records:
            raise ServiceError(f"FASTA {path} contains no records")
        return self._register(
            GenomeSession(
                session_id,
                tuple(record.sequence for record in records),
                source=str(path),
            )
        )

    def get(self, session_id: str) -> GenomeSession:
        """The session for *session_id*; counts the reuse."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                known = sorted(self._sessions)
                raise ServiceError(
                    f"unknown session {session_id!r}; registered: {known}"
                )
            self._metrics.incr("service.sessions.reuses")
            return session

    def remove(self, session_id: str) -> None:
        """Drop a session (its sequences and lane index become collectable)."""
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise ServiceError(f"unknown session {session_id!r}")
            self._metrics.gauge("service.sessions.count", len(self._sessions))

    def describe(self) -> list[dict[str, object]]:
        """Summaries of every registered session, id order."""
        with self._lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.session_id)
        return [session.describe() for session in sessions]

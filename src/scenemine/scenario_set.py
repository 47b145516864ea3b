"""ScenarioSet: the universal result type of scenario predicates.

A ScenarioSet maps track ids to the non-empty set of timestamps at which a
condition holds for that track. It behaves like an immutable set of
(track_id, timestamp) pairs with a per-track grouping.

A set a predicate makes on a log is held as that ``log`` plus a read-only
[frames, tracks] bool ``mask`` of the log's present pairs; ``LogPack.split``
gives each log of a pack a view of its rows. Predicates and scoring read any
set as its mask on their log (``mask_on``); the track -> timestamps mapping
is built from a mask only when read.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidParameter, MalformedFile

if TYPE_CHECKING:
    from .tracklog import TrackLog


class ScenarioSet:
    """Mapping track_id -> frozenset of timestamps; tracks with no timestamps are dropped.

    A set made from a mask holds that ``log`` and ``mask``; a set built from a
    mapping holds None for both.
    """

    def __init__(self, entries: Mapping[str, Iterable[int]] | None = None):
        """The set of ``entries``: str track ids, each to an iterable of integer timestamps (numpy's too, not bool).

        InvalidParameter names the first track id, or the timestamps of the first track, that is anything else.
        """
        self.entries = {}
        for track, stamps in (entries or {}).items():
            if not isinstance(track, str):
                raise InvalidParameter(f"a scenario set's track ids must be str, got {track!r}")
            values = list(stamps) if isinstance(stamps, Iterable) else None
            kinds = set(map(type, values or ()))
            if values is None or not all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
                raise InvalidParameter(f"track '{track}' of a scenario set needs integer timestamps, got {stamps!r}")
            if values:
                self.entries[track] = frozenset(values if kinds == {int} else map(int, values))
        self.log = self.mask = None

    @classmethod
    def from_mask(cls, log: "TrackLog", mask: np.ndarray) -> "ScenarioSet":
        """The pairs of ``log`` where ``mask`` [frames, tracks] is True; every True pair must be present.

        The mask becomes read-only and is kept, not copied.
        """
        mask.flags.writeable = False
        out = cls.__new__(cls)
        out.log, out.mask = log, mask
        return out

    @classmethod
    def empty(cls) -> "ScenarioSet":
        return cls()

    @functools.cached_property
    def entries(self) -> dict[str, frozenset[int]]:
        """Track id -> its timestamps; a set made from a mask builds them on first use."""
        stamps, mask = self.log.timestamps, self.mask
        rows = mask.T.nonzero()[1].tolist()  # column by column, rows in order
        entries, start = {}, 0
        for track, end in zip(self.log.track_ids, np.count_nonzero(mask, axis=0).cumsum().tolist()):
            if end > start:
                entries[track] = frozenset([stamps[i] for i in rows[start:end]])
                start = end
        return entries

    def mask_on(self, log: "TrackLog") -> np.ndarray:
        """The read-only [frames, tracks] mask of this set's pairs that are present in ``log``."""
        if self.log is log:
            return self.mask
        row, column = log.row, log.column
        mask = np.zeros(log.present.shape, dtype=bool)
        for track, stamps in self.entries.items():
            if track in column:
                mask[[row[ts] for ts in stamps if ts in row], column[track]] = True
        mask &= log.present
        mask.flags.writeable = False
        return mask

    @property
    def is_empty(self) -> bool:
        return not self.entries if self.mask is None else not np.count_nonzero(self.mask)

    def __len__(self) -> int:
        """Number of (track, timestamp) pairs."""
        if self.mask is None:
            return sum(len(stamps) for stamps in self.entries.values())
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSet):
            return NotImplemented
        return self.entries == other.entries

    @functools.cached_property
    def _hash(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __hash__(self) -> int:
        """Agrees with ``__eq__``: computed over the entries, once per set."""
        return self._hash

    def __repr__(self) -> str:
        return f"ScenarioSet(entries={self.entries!r})"

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        track, ts = pair
        return ts in self.entries.get(track, frozenset())

    def tracks(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def timestamps_for(self, track: str) -> frozenset[int]:
        return self.entries.get(track, frozenset())

    def pairs(self) -> Iterator[tuple[str, int]]:
        for track in sorted(self.entries):
            for ts in sorted(self.entries[track]):
                yield track, ts

    def to_json_dict(self) -> dict[str, list[int]]:
        """Serializable form: sorted track keys, sorted timestamp lists."""
        return {track: sorted(self.entries[track]) for track in sorted(self.entries)}

    @classmethod
    def from_json_dict(cls, raw: object) -> "ScenarioSet":
        """The set a JSON object of track id -> list of integer timestamps holds, without the empty lists' tracks.

        MalformedFile for anything else: a string, float, bool or null for a list or a timestamp.
        """
        if not isinstance(raw, dict) or not all(type(v) is list and set(map(type, v)) <= {int} for v in raw.values()):
            raise MalformedFile("a scenario set must map track ids to lists of integer timestamps")
        return cls(raw)

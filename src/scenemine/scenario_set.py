"""ScenarioSet: the universal result type of scenario predicates.

A ScenarioSet maps track ids to the non-empty set of timestamps at which a
condition holds for that track. It behaves like an immutable set of
(track_id, timestamp) pairs with a per-track grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class ScenarioSet:
    """Mapping track_id -> frozenset of timestamps; tracks with no timestamps are dropped."""

    entries: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized = {
            str(track): frozenset(map(int, stamps))
            for track, stamps in self.entries.items()
            if len(stamps) > 0
        }
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def empty(cls) -> "ScenarioSet":
        return cls({})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "ScenarioSet":
        grouped: dict[str, set[int]] = {}
        for track, ts in pairs:
            grouped.setdefault(track, set()).add(ts)
        return cls(grouped)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        """Number of (track, timestamp) pairs."""
        return sum(len(stamps) for stamps in self.entries.values())

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        track, ts = pair
        return ts in self.entries.get(track, frozenset())

    def tracks(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def timestamps_for(self, track: str) -> frozenset[int]:
        return self.entries.get(track, frozenset())

    def all_timestamps(self) -> frozenset[int]:
        """Union of timestamps over every track (the flattened frame labels)."""
        out: set[int] = set()
        for stamps in self.entries.values():
            out.update(stamps)
        return frozenset(out)

    def pairs(self) -> Iterator[tuple[str, int]]:
        for track in sorted(self.entries):
            for ts in sorted(self.entries[track]):
                yield track, ts

    def union(self, other: "ScenarioSet") -> "ScenarioSet":
        merged: dict[str, frozenset[int]] = dict(self.entries)
        for track, stamps in other.entries.items():
            merged[track] = merged.get(track, frozenset()) | stamps
        return ScenarioSet(merged)

    def intersection(self, other: "ScenarioSet") -> "ScenarioSet":
        out: dict[str, frozenset[int]] = {}
        for track, stamps in self.entries.items():
            common = stamps & other.entries.get(track, frozenset())
            if common:
                out[track] = common
        return ScenarioSet(out)

    def difference(self, other: "ScenarioSet") -> "ScenarioSet":
        out: dict[str, frozenset[int]] = {}
        for track, stamps in self.entries.items():
            left = stamps - other.entries.get(track, frozenset())
            if left:
                out[track] = left
        return ScenarioSet(out)

    def issubset(self, other: "ScenarioSet") -> bool:
        return all(stamps <= other.entries.get(track, frozenset()) for track, stamps in self.entries.items())

    def to_json_dict(self) -> dict[str, list[int]]:
        """Serializable form: sorted track keys, sorted timestamp lists."""
        return {track: sorted(self.entries[track]) for track in sorted(self.entries)}

    @classmethod
    def from_json_dict(cls, raw: Mapping[str, Iterable[int]]) -> "ScenarioSet":
        return cls({track: frozenset(stamps) for track, stamps in raw.items()})

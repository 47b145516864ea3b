"""The object category vocabulary.

The seven Argoverse-style names in :data:`REQUIRED_CATEGORIES` are the whole
vocabulary: logs, ground truth and programs may name no other category.
:data:`DEFAULT_REGISTRY` checks names against it. A category is its name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownCategory

REQUIRED_CATEGORIES = (
    "REGULAR_VEHICLE",
    "PEDESTRIAN",
    "TRUCK",
    "BUS",
    "BICYCLIST",
    "MOTORCYCLIST",
    "EGO_VEHICLE",
)


@dataclass(frozen=True)
class CategoryRegistry:
    """An ordered, duplicate-free set of category names."""

    names: tuple[str, ...]

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def category(self, name: str) -> str:
        """The name itself, once checked; UnknownCategory for a name outside the vocabulary."""
        if name not in self.names:
            raise UnknownCategory(f"unknown category '{name}'; registry has: {', '.join(self.names)}")
        return name


DEFAULT_REGISTRY = CategoryRegistry(REQUIRED_CATEGORIES)

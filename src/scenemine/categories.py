"""The object category vocabulary.

The seven Argoverse-style names in :data:`REQUIRED_CATEGORIES` are the whole
vocabulary: logs, ground truth and programs may name no other category.
:data:`DEFAULT_REGISTRY` checks and resolves names against it.
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
class ObjectCategory:
    """A validated category name. Obtain instances via DEFAULT_REGISTRY.category()."""

    name: str


@dataclass(frozen=True)
class CategoryRegistry:
    """An ordered, duplicate-free set of category names."""

    names: tuple[str, ...]

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def category(self, name: str) -> ObjectCategory:
        """Resolve a name to an ObjectCategory, or raise UnknownCategory."""
        if name not in self.names:
            raise UnknownCategory(f"unknown category '{name}'; registry has: {', '.join(self.names)}")
        return ObjectCategory(name)


DEFAULT_REGISTRY = CategoryRegistry(REQUIRED_CATEGORIES)

"""Axis-aligned bounding boxes (OGC ``Envelope``).

Envelopes drive the *filter* step of the two-step query model: the imprints
probe on X and Y uses the query geometry's envelope, and every spatial
predicate first short-circuits on envelope relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate box: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    # -- measures ------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.xmin + self.xmax) / 2, (self.ymin + self.ymax) / 2)

    @property
    def corners(self) -> Tuple[Tuple[float, float], ...]:
        """The four corners, counter-clockwise from (xmin, ymin)."""
        return (
            (self.xmin, self.ymin),
            (self.xmax, self.ymin),
            (self.xmax, self.ymax),
            (self.xmin, self.ymax),
        )

    # -- relations -------------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def contains_box(self, other: "Box") -> bool:
        return (
            self.xmin <= other.xmin
            and self.xmax >= other.xmax
            and self.ymin <= other.ymin
            and self.ymax >= other.ymax
        )

    def intersects(self, other: "Box") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def union(self, other: "Box") -> "Box":
        return Box(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def expand(self, margin: float) -> "Box":
        """Grow (or shrink, negative margin) by ``margin`` on every side."""
        return Box(
            self.xmin - margin,
            self.ymin - margin,
            self.xmax + margin,
            self.ymax + margin,
        )

    # -- distances ---------------------------------------------------------------

    def min_distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance to the nearest box point (0 when inside)."""
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return (dx * dx + dy * dy) ** 0.5

"""An STR-bulk-loaded R-tree over patch bounding boxes.

The block-storage baseline indexes its patches with an R-tree (PostGIS
GiST / Oracle spatial index in the real systems).  Sort-Tile-Recursive
bulk loading packs the leaf level optimally for static data, which is the
regime here: patches are built once at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..gis.envelope import Box

DEFAULT_NODE_CAPACITY = 16


@dataclass
class _Node:
    box: Box
    children: List["_Node"] = field(default_factory=list)
    entry_id: Optional[int] = None  # set on leaf entries

    @property
    def is_leaf_entry(self) -> bool:
        return self.entry_id is not None


class RTree:
    """Static R-tree over ``(Box, id)`` entries.

    Parameters
    ----------
    boxes:
        One bounding box per entry; entry ids are positions in this list.
    node_capacity:
        Maximum children per internal node.
    """

    def __init__(
        self, boxes: Sequence[Box], node_capacity: int = DEFAULT_NODE_CAPACITY
    ) -> None:
        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")
        self.node_capacity = node_capacity
        self.n_entries = len(boxes)
        entries = [
            _Node(box=box, entry_id=i) for i, box in enumerate(boxes)
        ]
        self.root = self._bulk_load(entries) if entries else None
        self.height = self._height(self.root)

    # -- STR bulk load -----------------------------------------------------------

    def _bulk_load(self, nodes: List[_Node]) -> _Node:
        while len(nodes) > 1:
            nodes = self._build_level(nodes)
        return nodes[0]

    def _build_level(self, nodes: List[_Node]) -> List[_Node]:
        """Pack one level: sort by x, slice, sort slices by y, chunk."""
        cap = self.node_capacity
        n_parents = int(np.ceil(len(nodes) / cap))
        n_slices = max(1, int(np.ceil(np.sqrt(n_parents))))
        per_slice = int(np.ceil(len(nodes) / n_slices))

        by_x = sorted(nodes, key=lambda node: node.box.center[0])
        parents: List[_Node] = []
        for s in range(0, len(by_x), per_slice):
            strip = sorted(
                by_x[s : s + per_slice], key=lambda node: node.box.center[1]
            )
            for c in range(0, len(strip), cap):
                children = strip[c : c + cap]
                box = children[0].box
                for child in children[1:]:
                    box = box.union(child.box)
                parents.append(_Node(box=box, children=children))
        return parents

    def _height(self, node: Optional[_Node]) -> int:
        h = 0
        while node is not None and node.children:
            h += 1
            node = node.children[0]
        return h

    # -- query -------------------------------------------------------------------

    def query(self, box: Box) -> List[int]:
        """Entry ids whose bbox intersects ``box`` (sorted)."""
        if self.root is None:
            return []
        hits: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(box):
                continue
            if node.is_leaf_entry:
                hits.append(node.entry_id)
            else:
                stack.extend(node.children)
        hits.sort()
        return hits

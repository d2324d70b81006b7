"""Block tensors laid out flat inside a Global Array.

A :class:`BlockTensor` is an N-index tensor whose every index runs over
the tiles of one orbital kind. Each tile block is stored contiguously
(row-major within the block) at a fixed offset of a flat
:class:`~repro.ga.array.GlobalArray` — the same "hashed block" layout
the TCE code addresses through ``GET_HASH_BLOCK``/``ADD_HASH_BLOCK``.
Because the GA distributes *elements* contiguously across nodes, a block
can straddle node memories, which is what forces the multi-instance
WRITE_C tasks of the paper's Figure 8.

The tensor itself is pure data — a name and a layout — so the chain IR
that refers to it can be shared by every run of a structure; a run binds
the name to its own array (:class:`~repro.workloads.base.BoundTensor`).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from repro.tce.orbital_space import OrbitalSpace, Tile
from repro.util.errors import ConfigurationError

__all__ = ["BlockLayout", "BlockTensor"]

BlockKey = tuple[int, ...]


class BlockLayout:
    """Offset table mapping block keys to flat element ranges.

    ``dims`` is a string of tile kinds, one letter per tensor index
    (e.g. ``"hphh"``); ``keep`` optionally drops blocks (symmetry
    restriction). Blocks are enumerated in lexicographic key order, so
    layouts are deterministic.
    """

    def __init__(
        self,
        space: OrbitalSpace,
        dims: str,
        keep: Optional[Callable[[BlockKey], bool]] = None,
    ) -> None:
        if not dims:
            raise ConfigurationError("tensor needs at least one index")
        self.space = space
        self.dims = dims
        self._tile_lists: list[tuple[Tile, ...]] = [space.tiles(k) for k in dims]
        self._offsets: dict[BlockKey, int] = {}
        self._shapes: dict[BlockKey, tuple[int, ...]] = {}
        self._sizes: dict[BlockKey, int] = {}
        cursor = 0
        for key in self._iter_keys():
            if keep is not None and not keep(key):
                continue
            shape = tuple(
                self._tile_lists[axis][tile].size for axis, tile in enumerate(key)
            )
            self._offsets[key] = cursor
            self._shapes[key] = shape
            size = math.prod(shape)
            self._sizes[key] = size
            cursor += size
        self.total = cursor

    def _iter_keys(self) -> Iterable[BlockKey]:
        def rec(prefix: tuple[int, ...], axis: int):
            if axis == len(self._tile_lists):
                yield prefix
                return
            for tile_index in range(len(self._tile_lists[axis])):
                yield from rec(prefix + (tile_index,), axis + 1)

        yield from rec((), 0)

    # ------------------------------------------------------------------
    def __contains__(self, key: BlockKey) -> bool:
        return key in self._offsets

    def keys(self) -> list[BlockKey]:
        """All stored block keys in layout order."""
        return list(self._offsets)

    def block_shape(self, key: BlockKey) -> tuple[int, ...]:
        """Per-axis tile sizes of one stored block."""
        try:
            return self._shapes[key]
        except KeyError:
            raise ConfigurationError(f"block {key} not stored in layout {self.dims}") from None

    def block_size(self, key: BlockKey) -> int:
        """Element count of one stored block."""
        try:
            return self._sizes[key]
        except KeyError:
            raise ConfigurationError(
                f"block {key} not stored in layout {self.dims}"
            ) from None

    def block_range(self, key: BlockKey) -> tuple[int, int]:
        """Flat ``[lo, hi)`` element range of one stored block."""
        try:
            lo = self._offsets[key]
        except KeyError:
            raise ConfigurationError(f"block {key} not stored in layout {self.dims}") from None
        return lo, lo + self.block_size(key)

    @property
    def n_blocks(self) -> int:
        return len(self._offsets)


class BlockTensor:
    """A named block tensor: the name of its Global Array and its layout.

    ``stream`` names the seeded standard-normal draw the tensor's
    contents come from (an input), or is None for a tensor that starts
    at zero (an output).
    """

    #: constant contents (see ``repro.workloads.base.Structure.bind``)
    values = None

    def __init__(
        self, name: str, layout: BlockLayout, stream: Optional[str] = None
    ) -> None:
        self.name = name
        self.layout = layout
        self.stream = stream

    # -- layout passthrough ------------------------------------------------
    def block_range(self, key: BlockKey) -> tuple[int, int]:
        return self.layout.block_range(key)

    def block_shape(self, key: BlockKey) -> tuple[int, ...]:
        return self.layout.block_shape(key)

    def block_size(self, key: BlockKey) -> int:
        return self.layout.block_size(key)

    @property
    def total(self) -> int:
        return self.layout.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockTensor({self.name!r}, dims={self.layout.dims!r}, "
            f"blocks={self.layout.n_blocks}, total={self.total})"
        )

"""Block tensors laid out flat inside a Global Array.

A :class:`BlockTensor` is an N-index tensor whose every index runs over
the tiles of one orbital kind. Each tile block is stored contiguously
(row-major within the block) at a fixed offset of a flat
:class:`~repro.ga.array.GlobalArray` — the same "hashed block" layout
the TCE code addresses through ``GET_HASH_BLOCK``/``ADD_HASH_BLOCK``.
Because the GA distributes *elements* contiguously across nodes, a block
can straddle node memories, which is what forces the multi-instance
WRITE_C tasks of the paper's Figure 8.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

import numpy as np

from repro.tce.orbital_space import OrbitalSpace, Tile
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

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
    """A named block tensor bound to a Global Array.

    Create through :meth:`create`, which allocates the backing GA with
    the element-contiguous node distribution.
    """

    def __init__(self, name: str, layout: BlockLayout, array) -> None:
        self.name = name
        self.layout = layout
        self.array = array

    @classmethod
    def create(
        cls,
        ga_runtime,
        name: str,
        space: OrbitalSpace,
        dims: str,
        keep: Optional[Callable[[BlockKey], bool]] = None,
    ) -> "BlockTensor":
        """Allocate a tensor named ``name`` with index kinds ``dims``."""
        layout = BlockLayout(space, dims, keep)
        array = ga_runtime.create(name, layout.total)
        return cls(name, layout, array)

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

    # -- data conveniences (setup/verification; not cost-modeled) -----------
    def fill_random(self, rng: RngStream, scale: float = 1.0) -> None:
        """Fill the whole tensor with seeded standard-normal data."""
        if not self.array.holds_data:
            return
        self.array.scatter(scale * rng.standard_normal(self.total))

    def block_values(self, key: BlockKey) -> np.ndarray:
        """Read-only snapshot of one block, in its block shape."""
        lo, hi = self.block_range(key)
        return self.array.read_range_direct(lo, hi).reshape(self.block_shape(key))

    def flat_values(self) -> np.ndarray:
        """Copy of the whole flat tensor contents."""
        return self.array.gather()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockTensor({self.name!r}, dims={self.layout.dims!r}, "
            f"blocks={self.layout.n_blocks}, total={self.total})"
        )

"""Red-Black Gauss-Seidel smoother as a two-wave task workload.

Following "Exploiting Task-Based Parallelism for the Red-Black
Gauss-Seidel Method on 2D Grids" (PAPERS.md): the grid is tiled, tiles
are colored checkerboard-style, and each colored smoother sweep is a
*task wave* — every tile update is one task whose inputs are the tile
itself plus its four von-Neumann neighbors (the halo exchange), and
the two waves are barrier-separated because black updates read the
red-updated values (that read-after-write is what makes it
Gauss-Seidel rather than Jacobi).

The lowering reuses the chain IR unchanged: a tile update is a chain
of rank-1 GEMMs — each ``C(1, ty*tx) += w(1,1)^T @ src-tile(1, ty*tx)``
scales one stencil source by its coefficient and accumulates — followed
by one active identity SORT_4 writing the smoothed tile into ``u_next``.
Boundary tiles clip missing neighbors, so chains have 3-5 GEMMs (the
chain-length diversity the segmenting variants care about). Halo
exchange happens exactly where the paper's READ tasks live: each
source-tile READ is placed on the GA owner node of that neighbor's
block, and the data crosses the network as a task dependency.

Red wave (level 0): ``u_next(red) = w_c*u(red) + w_n*Σ u(neighbors)``.
Black wave (level 1): neighbors (all red) come from ``u_next``; the
center still comes from ``u``. After both waves ``u_next`` holds the
complete smoothed grid.
"""

from __future__ import annotations

import numpy as np

from repro.tce.reference import BlockReader
from repro.tce.subroutine import (
    BlockRefs,
    ChainSpec,
    GemmOp,
    SortWrite,
    Subroutine,
    skew_chain,
)
from repro.tce.terms import SORT_VARIANTS
from repro.util.errors import ConfigurationError
from repro.workloads.base import Structure

__all__ = ["GridTensor", "RbgsStructure", "RBGS_PRESETS", "parse_grid"]

#: damped-Jacobi-within-tile / Gauss-Seidel-across-colors smoother
#: coefficients: center weight and the uniform 4-neighbor weight
W_CENTER = 0.2
W_NEIGHBOR = 0.2

#: stencil sources in a fixed order: center, north, south, west, east
STENCIL_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))

#: preset grid shapes: (grid_y, grid_x, tile) — chosen so "tiny" REAL
#: runs are test-cheap and "paper"/"full" stress the sweep like t2_7
RBGS_PRESETS: dict[str, tuple[int, int, int]] = {
    "tiny": (6, 6, 4),
    "small": (12, 12, 6),
    "paper": (32, 32, 8),
    "full": (48, 48, 8),
}


class GridTensor:
    """A 2D grid of (ty, tx) tiles stored flat in one Global Array.

    Duck-types the :class:`~repro.tce.tensor.BlockTensor` surface the
    chain IR and the bind touch (``name``/``total``/``block_range``/
    ``block_shape``/``stream``/``values``), with blocks keyed
    ``(iy, ix)`` laid out row-major — so the GA's element-contiguous
    node distribution gives each node a contiguous band of tile rows,
    and halo exchanges between bands cross node memories.
    """

    values = None

    def __init__(
        self, name: str, grid_y: int, grid_x: int, tile: int, stream=None
    ) -> None:
        self.name = name
        self.grid_y = grid_y
        self.grid_x = grid_x
        self.tile = tile
        self.stream = stream

    @property
    def total(self) -> int:
        return self.grid_y * self.grid_x * self.tile * self.tile

    def block_range(self, key: tuple[int, ...]) -> tuple[int, int]:
        iy, ix = key
        if not (0 <= iy < self.grid_y and 0 <= ix < self.grid_x):
            raise ConfigurationError(f"tile {key} outside {self.grid_y}x{self.grid_x} grid")
        size = self.tile * self.tile
        lo = (iy * self.grid_x + ix) * size
        return lo, lo + size

    def block_shape(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return (self.tile, self.tile)

    def block_size(self, key: tuple[int, ...]) -> int:
        return self.tile * self.tile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridTensor({self.name!r}, {self.grid_y}x{self.grid_x} tiles "
            f"of {self.tile}x{self.tile})"
        )


class _WeightTensor:
    """Five 1x1 coefficient blocks (one per stencil source), constant."""

    stream = None

    def __init__(self, name: str, weights: tuple[float, ...]) -> None:
        self.name = name
        self.values = np.array(weights, dtype=float)
        self.values.flags.writeable = False

    @property
    def total(self) -> int:
        return len(self.values)

    def block_range(self, key: tuple[int, ...]) -> tuple[int, int]:
        return key[0], key[0] + 1

    def block_shape(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return (1, 1)


def parse_grid(params: str) -> tuple[int, int, int]:
    """``"tiny"`` | ``"GYxGX"`` | ``"GYxGXxTILE"`` → (gy, gx, tile)."""
    preset = RBGS_PRESETS.get(params)
    if preset is not None:
        return preset
    parts = params.lower().split("x")
    if len(parts) not in (2, 3) or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise ConfigurationError(
            f"bad rbgs grid {params!r}: expected a scale name "
            f"({sorted(RBGS_PRESETS)}), 'GYxGX', or 'GYxGXxTILE'"
        )
    gy, gx = int(parts[0]), int(parts[1])
    tile = int(parts[2]) if len(parts) == 3 else 4
    return gy, gx, tile


class RbgsStructure(Structure):
    """Grid tensors + two-wave chain IR for one red-black sweep."""

    def __init__(
        self,
        grid_y: int,
        grid_x: int,
        tile: int,
        skew_factor: int = 1,
        skew_period: int = 0,
    ) -> None:
        if grid_y < 2 or grid_x < 2:
            raise ConfigurationError(
                f"rbgs grid must be at least 2x2 tiles, got {grid_y}x{grid_x}"
            )
        if skew_factor < 1:
            raise ConfigurationError(f"skew_factor must be >= 1, got {skew_factor}")
        if skew_period < 0:
            raise ConfigurationError(f"skew_period must be >= 0, got {skew_period}")
        self.grid_y, self.grid_x, self.tile = grid_y, grid_x, tile
        self.skew_factor = skew_factor
        self.skew_period = skew_period
        self.name = "rbgs"
        self.u = GridTensor("rbgs_u", grid_y, grid_x, tile, stream="rbgs-u")
        self.u_next = self.output = GridTensor("rbgs_u_next", grid_y, grid_x, tile)
        self.weights = _WeightTensor("rbgs_w", (W_CENTER,) + (W_NEIGHBOR,) * 4)
        self.tensors = (self.u, self.u_next, self.weights)
        block_ref = BlockRefs()  # both waves share the grids' blocks
        self.levels = tuple(self._build_wave(color, block_ref) for color in (0, 1))

    # -- chain generation ----------------------------------------------
    def _build_wave(self, color: int, block_ref: BlockRefs) -> Subroutine:
        """One colored sweep as a subroutine (level == color)."""
        chains: list[ChainSpec] = []
        chain_id = 0
        for iy in range(self.grid_y):
            for ix in range(self.grid_x):
                if (iy + ix) % 2 != color:
                    continue
                gemms: list[GemmOp] = []
                for w_index, (dy, dx) in enumerate(STENCIL_OFFSETS):
                    jy, jx = iy + dy, ix + dx
                    if not (0 <= jy < self.grid_y and 0 <= jx < self.grid_x):
                        continue  # Dirichlet boundary: missing halo clips
                    center = dy == 0 and dx == 0
                    # black neighbors are all red: Gauss-Seidel reads the
                    # red-updated values; the center always reads u
                    src = self.u if (color == 0 or center) else self.u_next
                    gemms.append(
                        GemmOp(
                            position=len(gemms),
                            a=block_ref(self.weights, (w_index,)),
                            b=block_ref(src, (jy, jx)),
                            m=1,
                            n=self.tile * self.tile,
                            k=1,
                        )
                    )
                gemms = skew_chain(
                    gemms, chain_id, self.skew_factor, self.skew_period
                )
                target = block_ref(self.u_next, (iy, ix))
                sort_writes = tuple(
                    SortWrite(
                        sort_index=index,
                        guard=index == 0,
                        perm=perm,
                        sign=sign,
                        target=target,
                    )
                    for index, (perm, sign) in enumerate(SORT_VARIANTS)
                )
                chains.append(
                    ChainSpec(
                        chain_id=chain_id,
                        key=(iy, ix, color, 0),
                        tile_shape=(1, 1, self.tile, self.tile),
                        gemms=tuple(gemms),
                        sort_writes=sort_writes,
                        level=color,
                    )
                )
                chain_id += 1
        return Subroutine(
            name=f"rbgs_{'red' if color == 0 else 'black'}",
            chains=chains,
            inputs=[self.weights, self.u, self.u_next],
            output=self.u_next,
            level=color,
            structure_token=(
                "rbgs",
                self.grid_y,
                self.grid_x,
                self.tile,
                self.skew_factor,
                self.skew_period,
                color,
            ),
        )

    def reference(self, arrays: dict) -> np.ndarray:
        """Dense NumPy smoother over the grid's snapshots (REAL mode)."""
        size = self.tile * self.tile
        u = BlockReader(arrays[self.u.name])
        w = arrays[self.weights.name].gather()
        out = np.zeros(self.u_next.total)
        repeat = max(1, self.skew_factor)
        for color in (0, 1):
            src = u if color == 0 else out
            chain_id = 0
            for iy in range(self.grid_y):
                for ix in range(self.grid_x):
                    if (iy + ix) % 2 != color:
                        continue
                    acc = np.zeros(size)
                    for w_index, (dy, dx) in enumerate(STENCIL_OFFSETS):
                        jy, jx = iy + dy, ix + dx
                        if not (0 <= jy < self.grid_y and 0 <= jx < self.grid_x):
                            continue
                        center = dy == 0 and dx == 0
                        grid = u if (color == 0 or center) else src
                        lo = (jy * self.grid_x + jx) * size
                        acc += w[w_index] * grid[lo : lo + size]
                    skewed = (
                        self.skew_period > 0
                        and self.skew_factor > 1
                        and chain_id % self.skew_period == 0
                    )
                    lo = (iy * self.grid_x + ix) * size
                    out[lo : lo + size] += acc * (repeat if skewed else 1)
                    chain_id += 1
        return out

    def describe(self) -> str:
        red, black = self.levels
        return (
            f"rbgs: {self.grid_y}x{self.grid_x} tiles of "
            f"{self.tile}x{self.tile}, 2 colored waves "
            f"({red.n_chains} red + {black.n_chains} black chains, "
            f"{red.n_gemms + black.n_gemms} stencil GEMMs)"
        )

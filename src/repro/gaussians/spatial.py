"""Spatial acceleration for frustum culling (paper §8, future work).

The paper notes that naive frustum culling iterates over every Gaussian and
"future work could explore integrating spatial acceleration structures,
such as bounding volume hierarchies, to skip non-intersected regions".
This module implements that extension as a uniform spatial grid (the
flat-BVH equivalent that vectorizes well), stored as CSR arrays:

- Gaussians are binned by centre into cubic cells; one stable argsort of
  the cell key lists the rows cell by cell, cells in lexicographic
  ``(x, y, z)`` order and rows ascending within a cell;
- each cell keeps an AABB (of centres) and the maximum 3-sigma support
  radius of its members;
- rows with a non-finite position, scale or rotation are not binned (they
  would stretch the grid's bounds): they sit in :attr:`CullingGrid.unbinned`
  and always go to the exact test;
- a query classifies whole cells against the frustum planes:

  * **outside** — some plane is farther than ``support`` below every
    corner: the entire cell is skipped with no per-Gaussian work;
  * **inside** — every corner is inside every plane: all members pass
    without per-Gaussian work (a centre inside the frustum always passes
    the support test);
  * **boundary** — the exact per-Gaussian support test runs on members.

Both cell decisions carry a relative slack of :data:`SLACK`, far above the
rounding of the AABB corner sums and of the support bound, so a cell whose
decision rounding could flip falls through to the exact test.  Queries run
through :func:`repro.gaussians.frustum.cull_gaussians` with ``grid=``, so
the exact test is the linear cull's own and the result is *identical* to
it, while only the boundary shell of cells is tested for sparse views —
exactly the BigCity regime the paper worries about.

The grid is cheap enough to rebuild on every multi-view cull from the
current critical attributes (Adam moves positions in place and
densification changes N).  On a 2-CPU host a build takes ~10 ms at 90k
Gaussians and ~0.6 ms at 2.7k; one linear cull of 90k rows takes ~70 ms.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.frustum import CULL_SIGMA, cull_gaussians, frustum_planes

#: Relative slack on both cell decisions: a cell is outside or inside only
#: by a margin of ``SLACK`` times the magnitudes that entered the sums.
SLACK = 1e-9


def max_support_radius(log_scales: np.ndarray) -> np.ndarray:
    """Upper bound of the 3-sigma support in any direction.

    ``sqrt(n^T Sigma n) <= s_max`` for unit ``n``, so ``3 s_max`` bounds
    the ellipsoid's reach regardless of rotation.
    """
    # Column by column: much faster than a max over the 3-wide axis.
    return CULL_SIGMA * np.exp(reduce(np.maximum, log_scales.T))


class CullingGrid:
    """Uniform grid over Gaussian centres for accelerated frustum culling.

    Built per multi-view cull (see the module docstring); queried per
    camera.  ``rows[starts[c]:starts[c + 1]]`` are the members of cell
    ``c``, whose integer coordinates are ``cell_coords[c]``.
    """

    def __init__(
        self,
        positions: np.ndarray,
        log_scales: np.ndarray,
        raw_quats: np.ndarray,
        target_cells_per_axis: int = 16,
    ) -> None:
        self.positions = positions
        self.log_scales = log_scales
        self.raw_quats = raw_quats
        self.num_gaussians = positions.shape[0]
        radii = max_support_radius(log_scales)
        # A row's probe is non-finite iff one of its attributes is (or the
        # sum overflows, which only huge coordinates do).
        probe = positions @ np.ones(3) + raw_quats @ np.ones(4) + radii
        finite = np.isfinite(probe)
        self.unbinned = np.flatnonzero(~finite)
        rows = np.flatnonzero(finite)
        pts = positions[rows]
        # Per-column extremes: much faster than min/max over axis 0.
        bounds = np.zeros((3, 2))
        if rows.size:
            bounds = np.array([(c.min(), c.max()) for c in pts.T])
        self.origin = bounds[:, 0]
        extent = float(np.max(bounds[:, 1] - self.origin))
        self.cell_size = max(extent / max(target_cells_per_axis, 1), 1e-9)
        coords = np.floor((pts - self.origin) / self.cell_size).astype(np.int64)
        # Cells per axis: the coordinates of the farthest centres, plus one.
        top = np.floor((bounds[:, 1] - self.origin) / self.cell_size)
        dims = top.astype(np.int64) + 1
        key = (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]
        # Keys of up to 16 bits take NumPy's radix sort.
        small = key.astype(np.min_scalar_type(int(np.prod(dims)) - 1))
        order = np.argsort(small, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        self.rows = rows[order]
        self.starts = np.append(first, rows.size)
        self.counts = np.diff(self.starts)
        self.cell_coords = coords[order[first]]
        pts = pts[order]
        self.lo = np.minimum.reduceat(pts, first, axis=0)
        self.hi = np.maximum.reduceat(pts, first, axis=0)
        self.max_radius = np.maximum.reduceat(radii[self.rows], first)

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.counts.size

    def classify(self, planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(outside, inside)`` masks over cells for ``(6, 4)`` planes;
        a cell in neither is a boundary cell (so is one with a NaN sum)."""
        normals = planes[:, :3]
        offsets = planes[:, 3]
        pos_n = np.maximum(normals, 0.0)
        neg_n = np.minimum(normals, 0.0)
        # Per plane, signed distance of the farthest/nearest AABB corner:
        # positive normal components take hi (lo), negative ones lo (hi).
        max_signed = self.lo @ neg_n.T + self.hi @ pos_n.T + offsets  # (C, P)
        min_signed = self.lo @ pos_n.T + self.hi @ neg_n.T + offsets
        reach = np.maximum(np.abs(self.lo), np.abs(self.hi))
        slack = SLACK * (reach @ np.abs(normals).T + np.abs(offsets))
        rads = (1.0 + SLACK) * self.max_radius[:, None]
        outside = np.any(max_signed + rads + slack < 0.0, axis=1)
        inside = np.all(min_signed >= slack, axis=1)
        return outside, inside

    def split(self, planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(accepted, tested)`` rows for ``planes``: the members of inside
        cells, which pass with no per-Gaussian work, and those of boundary
        cells plus the unbinned rows, which need the exact test."""
        outside, inside = self.classify(planes)
        boundary = ~(outside | inside)
        accepted = self.rows[np.repeat(inside, self.counts)]
        tested = self.rows[np.repeat(boundary, self.counts)]
        return accepted, np.concatenate([tested, self.unbinned])

    def query(self, camera: Camera) -> np.ndarray:
        """In-frustum index set; identical to the linear support-test cull."""
        return cull_gaussians(
            camera, self.positions, self.log_scales, self.raw_quats, grid=self
        )

    def query_stats(self, camera: Camera) -> Dict[str, int]:
        """Cell classification counts (for the §8 ablation benchmark)."""
        outside, inside = self.classify(frustum_planes(camera))
        boundary = ~(outside | inside)
        return {
            "outside": int(outside.sum()),
            "inside": int(inside.sum()),
            "boundary": int(boundary.sum()),
            "tested": int(self.counts[boundary].sum()) + self.unbinned.size,
        }

"""Frustum culling on selection-critical attributes.

This module implements the paper's §4.1 observation: deciding whether a
Gaussian intersects the view frustum requires only its *position, scale and
rotation* (10 of 59 floats) — the attributes CLM keeps resident on the GPU.
The function signatures enforce that separation: nothing here touches SH
coefficients or opacity.

The intersection test matches the reference implementations: a Gaussian is
in-frustum when its 3-sigma ellipsoid intersects the frustum, evaluated per
frustum plane through the ellipsoid support function
``r(n) = 3 * sqrt(n^T Sigma n)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.gaussians import quaternion
from repro.gaussians.camera import Camera

if TYPE_CHECKING:
    from repro.gaussians.spatial import CullingGrid

#: Number of standard deviations used for the extent of a Gaussian; 3-sigma
#: culling is standard practice in 3DGS implementations (paper §4.1).
CULL_SIGMA = 3.0


def frustum_planes(camera: Camera) -> np.ndarray:
    """World-space frustum planes of ``camera`` as ``(6, 4)`` rows ``(n, d)``.

    Each row encodes the half-space ``n . p + d >= 0`` with ``n`` a unit
    inward normal; a point is inside the frustum iff all six constraints
    hold.  Plane order: near, far, left, right, top, bottom.
    """
    if camera._cached_planes is not None:
        return camera._cached_planes
    lo_x = -camera.cx / camera.fx
    hi_x = (camera.width - camera.cx) / camera.fx
    lo_y = -camera.cy / camera.fy
    hi_y = (camera.height - camera.cy) / camera.fy
    cam_planes = np.array(
        [
            [0.0, 0.0, 1.0, -camera.znear],  # z >= znear
            [0.0, 0.0, -1.0, camera.zfar],  # z <= zfar
            [1.0, 0.0, -lo_x, 0.0],  # x >= lo_x * z
            [-1.0, 0.0, hi_x, 0.0],  # x <= hi_x * z
            [0.0, 1.0, -lo_y, 0.0],  # y >= lo_y * z
            [0.0, -1.0, hi_y, 0.0],  # y <= hi_y * z
        ],
        dtype=np.float64,
    )
    normals_cam = cam_planes[:, :3]
    norms = np.linalg.norm(normals_cam, axis=1, keepdims=True)
    normals_cam = normals_cam / norms
    offsets = cam_planes[:, 3] / norms[:, 0]
    normals_world = normals_cam @ camera.rotation  # W^T n per row
    d_world = offsets - normals_world @ camera.center
    planes = np.concatenate([normals_world, d_world[:, None]], axis=1)
    camera._cached_planes = planes
    return planes


def support_radii(
    normals: np.ndarray, log_scales: np.ndarray, raw_quats: np.ndarray
) -> np.ndarray:
    """3-sigma support radius of each Gaussian along each plane normal.

    ``n^T Sigma n = |diag(s) R^T n|^2`` so no covariance matrix is
    materialized.  Returns shape ``(P, N)`` for ``P`` planes, ``N``
    Gaussians.
    """
    scales = np.exp(log_scales)
    rot = quaternion.to_rotation_matrices(quaternion.normalize(raw_quats))
    # v[p, n, :] = diag(s_n) R_n^T normal_p, spelled out term by term (like
    # the signed distances below) so a row's value never depends on which
    # other rows share the call.
    v = (
        normals[:, None, 0:1] * rot[:, 0, :]
        + normals[:, None, 1:2] * rot[:, 1, :]
        + normals[:, None, 2:3] * rot[:, 2, :]
    ) * scales
    return CULL_SIGMA * np.linalg.norm(v, axis=-1)


def _support_test(
    planes: np.ndarray,
    positions: np.ndarray,
    log_scales: np.ndarray,
    raw_quats: np.ndarray,
) -> np.ndarray:
    """The exact per-Gaussian test: does each 3-sigma ellipsoid reach the
    inner side of every plane?  Returns a boolean mask over the rows."""
    n = planes[:, :3]
    signed = (
        positions[:, 0:1] * n[:, 0]
        + positions[:, 1:2] * n[:, 1]
        + positions[:, 2:3] * n[:, 2]
        + planes[:, 3]
    )  # (N, P)
    radii = support_radii(n, log_scales, raw_quats)  # (P, N)
    return np.all(signed + radii.T >= 0.0, axis=1)


def cull_gaussians(
    camera: Camera,
    positions: np.ndarray,
    log_scales: np.ndarray,
    raw_quats: np.ndarray,
    grid: Optional[CullingGrid] = None,
) -> np.ndarray:
    """Return the sorted indices of Gaussians intersecting the frustum.

    This is the pre-rendering frustum culling of §5.1: it runs *before*
    rasterization, producing the explicit in-frustum index set ``S_i`` that
    drives CLM's selective loading, caching and scheduling.

    ``grid`` is a :class:`repro.gaussians.spatial.CullingGrid` built over
    these same arrays.  It accepts the members of cells wholly inside the
    frustum, skips cells wholly outside, and leaves only the remaining rows
    to the exact test, so the result is the same as without it.
    """
    planes = frustum_planes(camera)
    if grid is None:
        keep = _support_test(planes, positions, log_scales, raw_quats)
        return np.nonzero(keep)[0].astype(np.int64)
    accepted, rows = grid.split(planes)
    keep = _support_test(
        planes, positions[rows], log_scales[rows], raw_quats[rows]
    )
    return np.sort(np.concatenate([accepted, rows[keep]]))


def sparsity(camera: Camera, positions, log_scales, raw_quats) -> float:
    """The per-view sparsity ``rho_i = |S_i| / N`` of §3."""
    n = positions.shape[0]
    if n == 0:
        return 0.0
    return cull_gaussians(camera, positions, log_scales, raw_quats).size / n

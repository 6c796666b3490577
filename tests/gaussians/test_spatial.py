"""Grid-accelerated frustum culling (§8 extension): exactness + pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.spatial import CullingGrid, max_support_radius
from repro.scenes.datasets import scene_names


def grid_for(model, cells=12):
    return CullingGrid(
        model.positions, model.log_scales, model.quaternions,
        target_cells_per_axis=cells,
    )


def test_max_support_radius_bounds_directional_support(rng):
    from repro.gaussians.frustum import support_radii

    log_scales = rng.uniform(-3, 0, size=(30, 3))
    quats = rng.normal(size=(30, 4))
    normals = rng.normal(size=(10, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    bound = max_support_radius(log_scales)
    directional = support_radii(normals, log_scales, quats)
    assert np.all(directional <= bound[None, :] + 1e-9)


@pytest.mark.parametrize("scene_name", scene_names())
def test_grid_matches_linear_cull_on_all_scenes(scene_name, scene_cache):
    scene = scene_cache(scene_name, 1e-4, 12)
    grid = grid_for(scene.model)
    for cam in scene.cameras[:6]:
        linear = cull_gaussians(
            cam, scene.model.positions, scene.model.log_scales,
            scene.model.quaternions,
        )
        accelerated = grid.query(cam)
        np.testing.assert_array_equal(accelerated, linear), scene_name


def test_grid_matches_linear_random_models(rng, tiny_camera):
    from repro.gaussians.model import GaussianModel

    for seed in range(5):
        model = GaussianModel.random(200, extent=4.0, sh_degree=1, seed=seed)
        grid = grid_for(model)
        linear = cull_gaussians(
            tiny_camera, model.positions, model.log_scales, model.quaternions
        )
        np.testing.assert_array_equal(grid.query(tiny_camera), linear)


def test_cell_resolution_does_not_change_result(scene_cache):
    scene = scene_cache("bigcity", 1e-4, 12)
    cam = scene.cameras[0]
    results = [
        grid_for(scene.model, cells=c).query(cam) for c in (2, 8, 24)
    ]
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])


def test_grid_prunes_most_cells_on_sparse_scene(scene_cache):
    """The §8 motivation: on city-scale scenes most cells are skipped
    without any per-Gaussian work."""
    scene = scene_cache("bigcity", 1e-4, 12)
    grid = grid_for(scene.model, cells=16)
    stats = grid.query_stats(scene.cameras[0])
    total_cells = grid.num_cells
    assert stats["outside"] > 0.8 * total_cells
    # Exact tests run on far fewer Gaussians than the model holds.
    assert stats["tested"] < 0.3 * scene.model.num_gaussians


def test_empty_model():
    grid = CullingGrid(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)))
    from repro.gaussians.camera import look_at_camera

    cam = look_at_camera(eye=(0, -2, 0), target=(0, 0, 0))
    assert grid.query(cam).size == 0
    assert grid.num_cells == 0


def test_single_gaussian():
    from repro.gaussians.camera import look_at_camera
    from repro.gaussians.model import GaussianModel

    model = GaussianModel.random(1, extent=0.1, sh_degree=1, seed=0)
    grid = grid_for(model)
    cam = look_at_camera(eye=(0, -2, 0), target=(0, 0, 0))
    linear = cull_gaussians(
        cam, model.positions, model.log_scales, model.quaternions
    )
    np.testing.assert_array_equal(grid.query(cam), linear)


def test_result_sorted_unique(scene_cache):
    from repro.utils.setops import is_sorted_unique

    scene = scene_cache("rubble", 1e-4, 12)
    out = grid_for(scene.model).query(scene.cameras[0])
    assert is_sorted_unique(out)


def test_csr_cells_walk_in_lexicographic_order(scene_cache):
    """Cells are listed in lexicographic (x, y, z) order with ascending
    member rows; sharding cuts its runs along this order."""
    model = scene_cache("rubble", 1e-4, 12).model
    grid = grid_for(model)
    coords = grid.cell_coords
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    np.testing.assert_array_equal(order, np.arange(grid.num_cells))
    assert np.unique(coords, axis=0).shape[0] == grid.num_cells
    np.testing.assert_array_equal(np.sort(grid.rows), np.arange(model.num_gaussians))
    cell_of_row = np.repeat(np.arange(grid.num_cells), grid.counts)
    expected = np.floor(
        (model.positions[grid.rows] - grid.origin) / grid.cell_size
    ).astype(np.int64)
    np.testing.assert_array_equal(coords[cell_of_row], expected)
    for lo, hi in zip(grid.starts[:-1], grid.starts[1:]):
        assert np.all(np.diff(grid.rows[lo:hi]) > 0)


def test_query_stats_agrees_with_split(scene_cache):
    from repro.gaussians.frustum import frustum_planes

    scene = scene_cache("bigcity", 1e-4, 12)
    grid = grid_for(scene.model)
    for cam in scene.cameras[:4]:
        stats = grid.query_stats(cam)
        accepted, tested = grid.split(frustum_planes(cam))
        assert stats["tested"] == tested.size
        assert stats["outside"] + stats["inside"] + stats["boundary"] == grid.num_cells
        assert accepted.size + tested.size <= scene.model.num_gaussians


BAD_ROWS = {
    "nan_position": ("positions", 0, np.nan),
    "inf_position": ("positions", 1, np.inf),
    "neg_inf_position": ("positions", 2, -np.inf),
    "log_scale_plus_80": ("log_scales", slice(None), 80.0),
    "log_scale_minus_80": ("log_scales", slice(None), -80.0),
    "nan_log_scale": ("log_scales", 1, np.nan),
    "zero_quaternion": ("quaternions", slice(None), 0.0),
    "nan_quaternion": ("quaternions", 0, np.nan),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_bad_rows_do_not_collapse_the_grid(bad, scene_cache):
    """A row with a non-finite or extreme attribute neither changes the
    grid's cells nor the result: it is appended as a copy of row 0 with
    one attribute spoiled, and the grid must still equal linear culling."""
    scene = scene_cache("bigcity", 1e-4, 12)
    arrays = {}
    for attr in ("positions", "log_scales", "quaternions"):
        rows = getattr(scene.model, attr)
        arrays[attr] = np.concatenate([rows, rows[:1]])
    attr, column, value = BAD_ROWS[bad]
    arrays[attr][-1, column] = value
    clean = grid_for(scene.model)
    grid = CullingGrid(
        arrays["positions"], arrays["log_scales"], arrays["quaternions"],
        target_cells_per_axis=12,
    )
    assert grid.num_cells == clean.num_cells
    finite = np.isfinite(arrays[attr][-1]).all()
    assert grid.unbinned.tolist() == ([] if finite else [scene.model.num_gaussians])
    with np.errstate(invalid="ignore"):
        for cam in scene.cameras:
            linear = cull_gaussians(
                cam, arrays["positions"], arrays["log_scales"], arrays["quaternions"]
            )
            np.testing.assert_array_equal(grid.query(cam), linear)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-4, 4),
    cells=st.integers(1, 24),
)
def test_grid_equals_linear_at_the_support_boundary(seed, ulps, cells):
    """Gaussians whose centre sits within a few ulps of +-its own support
    radius from a frustum plane: whichever way rounding decides them, the
    grid must decide the same as linear culling.  Isotropic scales make a
    member's support equal the cell's radius bound; log-scales of -80 put
    centres within ulps of the plane itself."""
    from repro.gaussians.camera import look_at_camera
    from repro.gaussians.frustum import frustum_planes, support_radii

    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    cam = look_at_camera(
        eye=rng.uniform(2.0, 6.0) * direction / np.linalg.norm(direction),
        target=rng.uniform(-0.5, 0.5, 3),
        fov_y_deg=rng.uniform(30.0, 90.0), width=64, height=48,
        znear=rng.uniform(0.05, 1.0), zfar=rng.uniform(4.0, 12.0),
    )
    planes = frustum_planes(cam)

    n = 192
    log_scales = rng.uniform(-4.0, 0.5, size=(n, 3))
    log_scales[: n // 2] = log_scales[: n // 2, :1]  # isotropic
    log_scales[: n // 3] = -80.0
    quats = rng.normal(size=(n, 4))
    # Points spread through the view volume, each projected onto a random
    # plane and stepped off it by +-its support radius (and a few ulps).
    uv1 = np.stack([
        rng.uniform(-cam.cx / cam.fx, (cam.width - cam.cx) / cam.fx, n),
        rng.uniform(-cam.cy / cam.fy, (cam.height - cam.cy) / cam.fy, n),
        np.ones(n),
    ], axis=1)
    depth = rng.uniform(cam.znear, cam.zfar, size=(n, 1))
    inner = cam.center + (uv1 * depth) @ cam.rotation
    plane = rng.integers(0, 6, n)
    normals = planes[plane, :3]
    rows = np.arange(n)
    signed = (inner @ planes[:, :3].T + planes[:, 3])[rows, plane]
    radius = support_radii(planes[:, :3], log_scales, quats)[plane, rows]
    side = rng.choice([-1.0, 1.0], size=n)
    positions = inner + ((side * radius - signed)[:, None]) * normals
    positions += ulps * np.spacing(np.abs(positions)) * np.sign(normals)

    background = rng.uniform(-6.0, 6.0, size=(150, 3))
    positions = np.concatenate([positions, background])
    log_scales = np.concatenate([log_scales, rng.uniform(-4.0, 0.0, size=(150, 3))])
    quats = np.concatenate([quats, rng.normal(size=(150, 4))])

    grid = CullingGrid(positions, log_scales, quats, target_cells_per_axis=cells)
    linear = cull_gaussians(cam, positions, log_scales, quats)
    np.testing.assert_array_equal(grid.query(cam), linear)

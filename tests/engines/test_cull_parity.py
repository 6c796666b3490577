"""Engine-level culling parity: ``cull_views`` answers every view of a
call from one freshly built ``CullingGrid``, and each set must equal the
per-view linear support-test cull over the engine's current critical
attributes — after Adam has moved positions, after ``rebuild`` changes N,
on the ``render_view`` path and for ``clm_sharded`` at K=1."""

import numpy as np
import pytest

import repro
import repro.engines.base as engines_base
from repro.core.config import EngineConfig
from repro.engines import available_engines, create_engine
from repro.gaussians.frustum import cull_gaussians
from repro.gaussians.model import GaussianModel
from repro.gaussians.spatial import CullingGrid
from repro.scenes.pointcloud import sfm_like_cloud
from repro.scenes.synthetic import aerial_cloud
from repro.scenes.trajectories import aerial_grid_trajectory

BATCHES = ([0, 5, 9, 14, 18, 23], [2, 7, 11, 16, 20, 3], [1, 6, 10, 15, 19, 22])


@pytest.fixture(scope="module")
def survey():
    """A scaled-down aerial survey: a 3k-Gaussian world seen by 24 views at
    32x24, and an SfM-like initial model of the same size (rho ~ a few %)."""
    rng = np.random.default_rng(7)
    positions, colors = aerial_cloud(3000, seed=rng)
    world = GaussianModel.from_point_cloud(
        positions, colors=colors, sh_degree=1, initial_opacity=0.8, seed=rng
    )
    cameras = aerial_grid_trajectory(24, width=32, height_px=24, seed=rng)
    grid = CullingGrid(world.positions, world.log_scales, world.quaternions)
    targets = {
        cam.view_id: repro.render(cam, world.gather(grid.query(cam))).image
        for cam in cameras
    }
    points, point_colors = sfm_like_cloud(
        positions, colors, keep_fraction=1.0, noise_scale=0.02, seed=rng
    )
    init = GaussianModel.from_point_cloud(
        points, colors=point_colors, sh_degree=1, seed=0
    )
    return cameras, targets, init


def engine_for(name, survey):
    cameras, _, init = survey
    return create_engine(
        name, init, cameras, EngineConfig(seed=1, num_devices=1)
    )


def linear_sets(engine, view_ids):
    model = engine.snapshot_model()
    return [
        cull_gaussians(
            engine.cameras[vid], model.positions, model.log_scales,
            model.quaternions,
        )
        for vid in view_ids
    ]


def assert_matches_linear(engine, view_ids):
    grid_sets = engine.cull_views(view_ids)
    linear = linear_sets(engine, view_ids)
    assert sum(s.size for s in linear) > 0
    for vid, got, want in zip(view_ids, grid_sets, linear):
        np.testing.assert_array_equal(got, want, err_msg=f"view {vid}")


@pytest.mark.parametrize("name", available_engines())
def test_cull_views_matches_linear_after_training(name, survey):
    _, targets, init = survey
    engine = engine_for(name, survey)
    for batch in BATCHES:
        engine.train_batch(batch, targets)
    assert not np.array_equal(engine.snapshot_model().positions, init.positions)
    assert_matches_linear(engine, list(range(24)))


@pytest.mark.parametrize("change", ["densify", "prune"])
def test_cull_views_matches_linear_after_rebuild(change, survey):
    _, targets, _ = survey
    engine = engine_for("clm", survey)
    engine.train_batch(BATCHES[0], targets)
    model = engine.snapshot_model()
    n = model.num_gaussians
    if change == "densify":
        clones = model.gather(np.arange(0, n, 4))
        clones.positions += 0.01
        model = model.extend(clones)
        origins = np.concatenate([np.arange(n), np.full(clones.num_gaussians, -1)])
    else:
        origins = np.arange(0, n, 3)
        model = model.gather(origins)
    engine.rebuild(model, origins)
    assert engine.num_gaussians == model.num_gaussians != n
    assert_matches_linear(engine, list(range(24)))
    engine.train_batch(BATCHES[1], targets)
    assert_matches_linear(engine, list(range(24)))


@pytest.mark.parametrize("name", ["clm", "clm_sharded"])
def test_render_view_culls_through_the_grid(name, survey, monkeypatch):
    _, targets, _ = survey
    engine = engine_for(name, survey)
    engine.train_batch(BATCHES[0], targets)
    calls = []

    def spy(camera, positions, log_scales, quaternions, grid=None):
        result = cull_gaussians(camera, positions, log_scales, quaternions, grid=grid)
        calls.append((camera.view_id, grid, result))
        return result

    monkeypatch.setattr(engines_base, "cull_gaussians", spy)
    for vid in (4, 12):
        engine.render_view(vid)
    assert [c[0] for c in calls] == [4, 12]
    assert all(isinstance(grid, CullingGrid) for _, grid, _ in calls)
    for (_, _, got), want in zip(calls, linear_sets(engine, [4, 12])):
        np.testing.assert_array_equal(got, want)

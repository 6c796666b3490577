"""Spatial sharding: coverage, balance, determinism, halo algebra."""

import numpy as np
import pytest

from repro.gaussians.model import GaussianModel
from repro.sharding import ShardAssignment, assign_views, halo_rows, spatial_shard


@pytest.fixture(scope="module")
def model():
    return GaussianModel.random(600, extent=2.0, sh_degree=1, seed=21)


def shard(model, k):
    return spatial_shard(
        model.positions, model.log_scales, model.quaternions, k
    )


def test_single_device_owns_everything(model):
    a = shard(model, 1)
    assert a.num_devices == 1
    assert (a.owner == 0).all()
    assert a.counts().tolist() == [model.num_gaussians]


def test_every_row_owned_exactly_once(model):
    a = shard(model, 4)
    assert a.owner.shape == (model.num_gaussians,)
    assert a.owner.min() >= 0 and a.owner.max() < 4
    assert int(a.counts().sum()) == model.num_gaussians


def test_shards_are_nearly_balanced(model):
    a = shard(model, 4)
    counts = a.counts()
    ideal = model.num_gaussians / 4
    # Whole grid cells move at once, so balance is approximate.
    assert counts.min() > 0.5 * ideal
    assert counts.max() < 1.5 * ideal


def test_deterministic(model):
    a = shard(model, 8)
    b = shard(model, 8)
    assert np.array_equal(a.owner, b.owner)


def test_rows_and_owned_subset(model):
    a = shard(model, 3)
    for k in range(3):
        rows = a.rows(k)
        assert (a.owner[rows] == k).all()
        # owned_subset preserves the query order.
        query = rows[::-1]
        assert np.array_equal(a.owned_subset(query, k), query)
        assert a.owned_subset(a.rows((k + 1) % 3), k).size == 0


def test_halo_rows_are_exactly_the_foreign_rows(model):
    a = shard(model, 4)
    working = np.arange(0, model.num_gaussians, 3, dtype=np.int64)
    for k in range(4):
        h = halo_rows(working, a, k)
        assert (a.owner[h] != k).all()
        local = working[np.isin(working, h, invert=True)]
        assert (a.owner[local] == k).all()
        assert h.size + local.size == working.size


def test_owner_array_is_read_only(model):
    a = shard(model, 2)
    with pytest.raises(ValueError):
        a.owner[0] = 1


def test_rejects_zero_devices(model):
    with pytest.raises(ValueError, match="num_devices"):
        shard(model, 0)


def test_assign_views_plurality():
    a = ShardAssignment(
        num_devices=2, owner=np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    )
    sets = [
        np.array([0, 1, 3], dtype=np.int64),  # 2 votes device 0
        np.array([3, 4, 5], dtype=np.int64),  # all device 1
        np.array([0, 3], dtype=np.int64),  # tie -> lowest id
        np.empty(0, dtype=np.int64),  # empty -> device 0
    ]
    assert assign_views(sets, a) == [0, 1, 0, 0]


def walk_cells_in_lexicographic_order(model, k, cells=16):
    """Reference partition: bin rows into the grid's cells, visit the
    cells in np.lexsort order of their (x, y, z) coordinates and advance
    to the next device once the running total reaches its N/K quota."""
    pos = model.positions
    lo = pos.min(axis=0)
    cell_size = max(float(np.max(pos.max(axis=0) - lo)) / cells, 1e-9)
    coords = np.floor((pos - lo) / cell_size).astype(np.int64)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    split = np.flatnonzero(np.any(np.diff(coords[order], axis=0) != 0, axis=1)) + 1
    owner = np.zeros(model.num_gaussians, dtype=np.int64)
    device = assigned = 0
    n = model.num_gaussians
    for members in np.split(order, split):
        owner[members] = device
        assigned += members.size
        while device < k - 1 and assigned >= (device + 1) * n / k:
            device += 1
    return owner


@pytest.mark.parametrize("k", [2, 3, 4, 7, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_owner_matches_the_lexicographic_cell_walk(k, seed):
    model = GaussianModel.random(
        500 + 97 * seed, extent=1.0 + seed, sh_degree=1, seed=seed
    )
    expected = walk_cells_in_lexicographic_order(model, k)
    np.testing.assert_array_equal(shard(model, k).owner, expected)


def test_unbinned_rows_form_the_last_run(model):
    positions = model.positions.copy()
    positions[[3, 10]] = np.nan
    a = spatial_shard(positions, model.log_scales, model.quaternions, 4)
    assert a.owner[3] == a.owner[10] == 3
    assert int(a.counts().sum()) == model.num_gaussians

"""The benchmark's workloads: seeded input generators, the wrapped layer
callables, and the measured loops.

The program is driven only through its public API:
``repro.session(...).train_batch``, ``engine.render_view``,
``ServingSession.serve`` and the scene and stream generators.  Inputs are
generated from the seed before any timed region starts.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro
import repro.engines.base as engines_base
import repro.gaussians.rasterizer as rasterizer
import repro.kernels as kernels
from repro.core.config import EngineConfig
from repro.core.stores import GpuWorkingSet
from repro.gaussians.loss import psnr
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings
from repro.gaussians.spatial import CullingGrid
from repro.optim.packed_adam import PackedSparseAdam
from repro.planning.planner import BatchPlanner
from repro.scenes.images import TrainableScene
from repro.scenes.pointcloud import sfm_like_cloud
from repro.scenes.synthetic import aerial_cloud
from repro.scenes.trajectories import aerial_grid_trajectory
from repro.serving import (
    RenderRequest,
    ServingConfig,
    ServingSession,
    trajectory_stream,
)
from repro.serving.batcher import ServingBatcher
from tracing import Layer, Tracer, percentile

# ``repro.gaussians.render`` as an attribute is the function the package
# re-exports, so the module is looked up by name.
render_module = importlib.import_module("repro.gaussians.render")

BATCH_SIZE = 8
#: Batches per training episode: one warm-up batch, then the timed ones.
EPISODE_BATCHES = 5
#: Each timed batch's latency is its median over at least this many
#: episodes, which filters the one-off stalls of a shared host.
MIN_EPISODES = 3
QUALITY_VIEWS = 8
#: Timed set-ups per phase (training adds one per episode).
SETUPS = 5
#: Requests per served stream chunk; chunks are served until the run has
#: lasted ``--seconds`` and completed enough requests for its p99.
SERVE_CHUNK = 250
SERVE_MIN_COMPLETED = 1000
SERVE_MAX_CHUNKS = 12
#: Offered load: ~10-15% of the single-render capacity (~30-40 renders/s
#: on a 2-CPU host), so the backlog does not grow and the p99 reflects
#: plan misses and large renders more than the queueing after host
#: stalls (at 10 req/s the p99 of one seed varied 2x between runs).
SERVE_RATE_RPS = 4.0
SERVE_DWELL = 4
#: Ground truth is rendered on the background make_trainable_scene uses.
REFERENCE_SETTINGS = RasterSettings(background=(0.08, 0.08, 0.08))


# ---------------------------------------------------------------------------
# Wrapped layers.  Each target is the binding its caller looks up at call
# time, so patching it reaches every call site named in the layer table.
def _cull_counts(args, kwargs, result, state):
    return {"cull.rows_scanned": len(args[1]), "cull.rows_returned": result.size}


def _plan_counts(args, kwargs, result, hits_before):
    return {"plan.cache_hits": args[0].counters.cache_hits - hits_before}


LAYERS = (
    Layer("cull", engines_base, "cull_gaussians", count=_cull_counts),
    Layer("grid_cull", CullingGrid, "query"),
    Layer(
        "plan", BatchPlanner, "plan",
        count=_plan_counts, before=lambda args: args[0].counters.cache_hits,
    ),
    Layer(
        "gather", GpuWorkingSet, "assemble",
        count=lambda a, k, r, s: {
            "gather.loaded_rows": a[2].size, "gather.cached_rows": a[3].size,
        },
    ),
    Layer("scatter", GpuWorkingSet, "add_grads"),
    Layer(
        "scatter", GpuWorkingSet, "retire",
        count=lambda a, k, r, s: {"scatter.stored_rows": a[1].size},
    ),
    Layer("preprocess", rasterizer, "preprocess"),
    Layer(
        "bin", rasterizer, "build_tile_bins",
        count=lambda a, k, r, s: {"bin.entries": r.num_entries},
    ),
    Layer(
        "raster_fwd", render_module, "rasterize_forward",
        count=lambda a, k, r, s: {"raster.splats_rendered": r[2].proj.ids.size},
    ),
    Layer("raster_bwd", render_module, "rasterize_backward"),
    Layer("kernels", kernels, "resolve_backend"),
    Layer("kernels", kernels, "compile_with_fallback"),
    Layer("loss", engines_base, "photometric_loss"),
    Layer(
        "adam", PackedSparseAdam, "step_packed",
        count=lambda a, k, r, s: {"adam.rows": np.asarray(a[3]).size},
    ),
    Layer("serve_batch", ServingBatcher, "execute"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


# ---------------------------------------------------------------------------
# Seeded inputs.  Each workload's scene is one fixed scene; the run's seed
# draws what a run samples from it (how the training views are grouped
# into batches, the arrival schedule and the tour's starting view).
# Seeded scenes made the cost of a run differ by ~12% between seeds.
SCENE_SEED = 0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@dataclass
class TrainWorkload:
    scene: TrainableScene
    capacity_bytes: float
    #: ``batches[0]`` is the warm-up batch of every episode.
    batches: List[List[int]]
    quality_views: List[int]

    def config(self) -> EngineConfig:
        # A fresh config per session: sessions mutate theirs in place.
        return EngineConfig(
            batch_size=BATCH_SIZE, gpu_capacity_bytes=self.capacity_bytes
        )

    @property
    def targets(self) -> Dict[int, np.ndarray]:
        return {c.view_id: img for c, img in zip(self.scene.cameras, self.scene.images)}


def quality_views(view_ids: List[int]) -> List[int]:
    """Evenly spaced views whose PSNR is the quality figure."""
    step = len(view_ids) // QUALITY_VIEWS
    return [view_ids[i * step] for i in range(QUALITY_VIEWS)]


def training_pool(cameras, size: int) -> List[int]:
    """``size`` evenly spaced views that training batches are drawn from."""
    picks = np.linspace(0, len(cameras) - 1, size).round().astype(int)
    return [cameras[i].view_id for i in picks]


def _batches(rng: np.random.Generator, pool: List[int]) -> List[List[int]]:
    """Seeded passes over ``pool``, cut into batches: each pass trains
    every pool view once, so the seed sets how views are grouped and
    ordered, not which views a run happens to draw (independent draws
    moved transfer per image by ±8% between seeds)."""
    needed = EPISODE_BATCHES * BATCH_SIZE
    passes = -(-needed // len(pool))
    order = np.concatenate([rng.permutation(pool) for _ in range(passes)])
    return [
        [int(v) for v in order[i : i + BATCH_SIZE]]
        for i in range(0, needed, BATCH_SIZE)
    ]


def make_train_dense(seed: int) -> TrainWorkload:
    """train_dense: the CLM engine on a yard orbit.

    About 2.7k trained Gaussians, 96x72 images, batch 8, mean rho ~0.6.
    Why: raster forward + backward is ~93% of a batch, and precise
    caching serves ~3/4 of the working-set rows, so raster and caching
    changes show here while culling (~1%) does not.
    """
    scene = repro.make_trainable_scene(
        reference_gaussians=5400,
        num_views=24,
        image_size=(96, 72),
        init_fraction=0.5,
        seed=_rng(SCENE_SEED),
    )
    pool = training_pool(scene.cameras, 24)
    return TrainWorkload(scene, 8e6, _batches(_rng(seed), pool), quality_views(pool))


def aerial_survey(rng: np.random.Generator, gaussians: int = 90_000, views: int = 128):
    """An aerial survey (``aerial_cloud`` + ``aerial_grid_trajectory``):
    the reference "world" model, the 64x48 survey cameras and an
    SfM-like initial cloud of the same size."""
    positions, colors = aerial_cloud(gaussians, seed=rng)
    world = GaussianModel.from_point_cloud(
        positions, colors=colors, sh_degree=1, initial_opacity=0.8, seed=rng
    )
    world.log_scales += rng.uniform(-0.3, 0.6, size=world.log_scales.shape)
    cameras = aerial_grid_trajectory(views, width=64, height_px=48, seed=rng)
    init_points, init_colors = sfm_like_cloud(
        positions, colors, keep_fraction=1.0, noise_scale=0.02, seed=rng
    )
    return world, cameras, init_points, init_colors


def render_references(world: GaussianModel, cameras) -> List[np.ndarray]:
    """Ground-truth images, each rendered from its view's in-frustum
    subset only.  The rasterizer applies the same 3-sigma culling test,
    so the image equals a full-model render at ~1% of the projection
    work (full renders of the 90k world take about a minute)."""
    grid = CullingGrid(world.positions, world.log_scales, world.quaternions)
    return [
        repro.render(cam, world.gather(grid.query(cam)), REFERENCE_SETTINGS).image
        for cam in cameras
    ]


def make_train_sparse(seed: int) -> TrainWorkload:
    """train_sparse: the CLM engine on a 128-view aerial survey.

    About 90k trained Gaussians, 64x48 images, batch 8, mean rho ~1%.
    The 32 MB cap sits below the full model state (~85 MB) and above
    CLM's peak (~17 MB).  Why: this is the paper's large-scene regime.
    Culling the 90k model is ~50-60% of a batch and raster ~40%; caching is
    nearly idle and loads dominate traffic, so the offload machinery, not
    compositing, sets throughput here.
    """
    world, cameras, init_points, init_colors = aerial_survey(_rng(SCENE_SEED))
    scene = TrainableScene(
        cameras=cameras,
        images=render_references(world, cameras),
        init_points=init_points,
        init_colors=init_colors,
        reference=world,
    )
    pool = training_pool(cameras, EPISODE_BATCHES * BATCH_SIZE)
    return TrainWorkload(scene, 32e6, _batches(_rng(seed), pool), quality_views(pool))


@dataclass
class ServeWorkload:
    model: GaussianModel
    cameras: list
    targets: Dict[int, np.ndarray]
    quality_views: List[int]
    capacity_bytes: float
    seed: int
    #: The tour's first view, drawn from the seed.
    start_view: int

    def stream(self, chunk: int) -> List[RenderRequest]:
        """Chunk ``chunk`` of the seeded tour: each chunk continues the
        trajectory where the previous one stopped."""
        shift = (self.start_view + chunk * SERVE_CHUNK // SERVE_DWELL) % len(self.cameras)
        tour = self.cameras[shift:] + self.cameras[:shift]
        return trajectory_stream(
            tour,
            SERVE_CHUNK,
            rate_rps=SERVE_RATE_RPS,
            dwell=SERVE_DWELL,
            seed=np.random.SeedSequence([self.seed, chunk]),
        )


def make_serve_sparse(seed: int) -> ServeWorkload:
    """serve_sparse: forward-only serving of the aerial survey's model.

    Requests follow a seeded trajectory stream (dwell 4) at a fixed
    offered rate well below capacity.  Why: this workload only reads.
    It runs raster forward only, culls through ``CullingGrid`` instead of
    ``cull_gaussians``, and hits the plan cache most of the time; it runs
    no backward pass, no Adam and no scatter.  So a backward or Adam
    change must leave it unchanged, and a forward change must move it.
    """
    world, cameras, init_points, init_colors = aerial_survey(_rng(SCENE_SEED))
    model = GaussianModel.from_point_cloud(
        init_points, colors=init_colors, sh_degree=1, seed=0
    )
    views = quality_views([c.view_id for c in cameras])
    images = render_references(world, [cameras[v] for v in views])
    start_view = int(_rng(seed).integers(len(cameras)))
    return ServeWorkload(
        model, cameras, dict(zip(views, images)), views, 32e6, seed, start_view
    )


GENERATORS = {
    "train_dense": make_train_dense,
    "train_sparse": make_train_sparse,
    "serve_sparse": make_serve_sparse,
}


# ---------------------------------------------------------------------------
# Measured loops.
@dataclass
class Phase:
    """What one measured phase (untraced or traced) observed."""

    setup_s: List[float] = field(default_factory=list)
    #: Train: the ``train_batch`` latencies of each timed batch, one per
    #: episode.
    batch_latencies_s: Dict[int, List[float]] = field(default_factory=dict)
    episodes: int = 0
    #: Serve: completed requests.
    images: int = 0
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    psnr_db: float = math.nan
    gpu_peak_bytes: float = math.nan
    transfer_bytes_per_image: float = math.nan
    properties: Dict[str, float] = field(default_factory=dict)
    #: Serve: ``(chunk, record)`` of every completed request.
    records: list = field(default_factory=list)

    @property
    def latencies_s(self) -> List[float]:
        """Serve: every completed request, from its due time; train: each
        timed batch's median over the episodes."""
        if self.records:
            return [record.latency_s for _, record in self.records]
        return [percentile(v, 50) for v in self.batch_latencies_s.values()]

    @property
    def images_per_s(self) -> float:
        if self.batch_latencies_s:
            return BATCH_SIZE * len(self.batch_latencies_s) / sum(self.latencies_s)
        return self.images / self.measured_s if self.measured_s > 0 else math.nan


def _root(tracer: Optional[Tracer], name: str, **args):
    return tracer.root(name, **args) if tracer is not None else contextlib.nullcontext()


def quality_psnr(render_view, targets, views, phase: Phase) -> float:
    values = []
    for view in views:
        image = render_view(view).image
        if not np.all(np.isfinite(image)):
            phase.problems.append(f"non-finite image for view {view}")
        values.append(psnr(image, targets[view]))
    return float(np.mean(values))


def mean_rho(model: GaussianModel, cameras) -> float:
    """Mean in-frustum fraction over all views (the grid cull is exact)."""
    grid = CullingGrid(model.positions, model.log_scales, model.quaternions)
    return float(np.mean([grid.query(c).size for c in cameras]) / model.num_gaussians)


def initial_state(work: TrainWorkload) -> "tuple[float, float]":
    """PSNR of the untrained model on the quality views and its mean rho,
    from a session of its own so these renders leave no trace in the
    measured sessions."""
    sess = repro.session(work.scene, engine="clm", config=work.config())
    value = quality_psnr(sess.render_view, work.targets, work.quality_views, Phase())
    rho = mean_rho(sess.snapshot_model(), work.scene.cameras)
    sess.engine.close()
    return value, rho


def _train_setup(work: TrainWorkload, phase: Phase):
    start = time.perf_counter()
    sess = repro.session(work.scene, engine="clm", config=work.config())
    phase.setup_s.append(time.perf_counter() - start)
    return sess


def _train_episode(work: TrainWorkload, phase: Phase, tracer: Optional[Tracer]) -> None:
    sess = _train_setup(work, phase)
    # The TSP search is time-boxed (1 ms) by default, which makes the
    # batch order, and with it every result, depend on machine speed.
    # Unboxed, it stops after its restart cap and is deterministic.
    sess.planner.tsp_time_limit_s = math.inf
    losses = []
    try:
        for index, batch in enumerate(work.batches):
            phase.attempted += 1
            timed = index > 0
            with _root(tracer if timed else None, "batch", batch=index, views=batch):
                t0 = time.perf_counter()
                result = sess.train_batch(batch)
                elapsed = time.perf_counter() - t0
            losses.append(result.loss)
            losses.extend(result.per_view_loss[v] for v in sorted(result.per_view_loss))
            if timed:
                phase.batch_latencies_s.setdefault(index, []).append(elapsed)
                phase.measured_s += elapsed
    except Exception:  # a batch that raises (OOM at the cap too) fails the run
        traceback.print_exc(file=sys.stderr)
        phase.failed += 1
        sess.engine.close()
        return
    if not all(math.isfinite(x) for x in losses):
        phase.problems.append("non-finite loss")
    perf = sess.perf
    peak = sess.engine.pool.peak
    transfer = perf.transfer_bytes / perf.images
    if not phase.losses:
        phase.losses = losses
        phase.gpu_peak_bytes = peak
        phase.transfer_bytes_per_image = transfer
        phase.properties["gather.cache_hit_ratio"] = perf.cached_gaussians / max(
            1, perf.cached_gaussians + perf.loaded_gaussians
        )
        phase.properties["plan.cache_hit_rate"] = sess.planner.counters.hit_rate
        phase.psnr_db = quality_psnr(
            sess.render_view, work.targets, work.quality_views, phase
        )
    elif (losses, peak, transfer) != (
        phase.losses, phase.gpu_peak_bytes, phase.transfer_bytes_per_image
    ):
        phase.problems.append("episodes of one run disagree")
    sess.engine.close()


def train_phase(work: TrainWorkload, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
    """Closed loop, one caller: whole episodes (fresh session, warm-up
    batch, timed batches), at least ``MIN_EPISODES`` and until ``seconds``
    of ``train_batch`` time."""
    phase = Phase()
    for _ in range(SETUPS):
        _train_setup(work, phase).engine.close()
    while not phase.failed and (
        phase.episodes < MIN_EPISODES or phase.measured_s < seconds
    ):
        _train_episode(work, phase, tracer)
        phase.episodes += 1
    return phase


def serve_setup(work: ServeWorkload, engine, phase: Phase) -> ServingSession:
    sess = None
    for _ in range(SETUPS):
        sess = None  # drop the previous session before timing the next
        start = time.perf_counter()
        sess = ServingSession.from_engine(engine, ServingConfig(seed=work.seed))
        phase.setup_s.append(time.perf_counter() - start)
    return sess


def serve_engine(work: ServeWorkload):
    """The CLM engine whose model is served (its offloaded ``render_view``
    gives the quality and GPU-peak figures)."""
    return repro.create_engine(
        "clm", work.model, work.cameras,
        EngineConfig(batch_size=BATCH_SIZE, gpu_capacity_bytes=work.capacity_bytes),
    )


def serve_quality(work: ServeWorkload, engine, phase: Phase) -> None:
    """Offloaded CLM renders of the quality views (PSNR, GPU peak); each
    served image must equal CLM's offloaded render bit for bit."""
    phase.psnr_db = quality_psnr(engine.render_view, work.targets, work.quality_views, phase)
    phase.gpu_peak_bytes = engine.pool.peak
    sess = ServingSession.from_engine(engine, ServingConfig(seed=work.seed))
    for view in work.quality_views:
        request = RenderRequest(-1, view, work.cameras[view], 0.0, 1.0)
        served = sess.render_request(request).image
        if not np.array_equal(served, engine.render_view(view).image):
            phase.problems.append(f"served image differs from CLM render, view {view}")


def serve_phase(
    work: ServeWorkload, engine, seconds: float, tracer: Optional[Tracer] = None
) -> Phase:
    """Open loop: seeded arrival chunks until ``seconds`` of serving-loop
    wall time and ``SERVE_MIN_COMPLETED`` completed requests."""
    phase = Phase()
    sess = serve_setup(work, engine, phase)
    counters = sess.planner.counters
    hits0, requests0 = counters.cache_hits, counters.requests
    row_bytes = sum(a[:1].nbytes for a in work.model.parameters().values())
    gathered_rows = 0
    chunk = 0
    done: list = []
    while chunk < SERVE_MAX_CHUNKS and (
        chunk == 0 or phase.measured_s < seconds or len(done) < SERVE_MIN_COMPLETED
    ):
        stream = work.stream(chunk)
        with _root(tracer, "serve", chunk=chunk):
            report = sess.serve(stream)
        ids = sorted(r.request_id for r in report.records)
        if ids != [r.request_id for r in stream]:
            phase.problems.append(f"chunk {chunk}: not one record per request")
        completed = report.completed
        phase.attempted += len(stream)
        phase.failed += len(stream) - len(completed)
        phase.measured_s += report.wall_time_s
        renders = {(r.batch_id, r.view_id): r.working_set for r in completed}
        gathered_rows += sum(renders.values())
        done.extend((chunk, record) for record in completed)
        chunk += 1
    phase.images = len(done)
    phase.records = done
    phase.transfer_bytes_per_image = gathered_rows * row_bytes / max(1, len(done))
    phase.properties["plan.cache_hit_rate"] = (counters.cache_hits - hits0) / max(
        1, counters.requests - requests0
    )
    phase.properties["serve.coalesce_rate"] = sess.batcher.counters.coalesce_rate
    return phase


def request_events(phase: Phase) -> List[dict]:
    """Served requests as Chrome trace async events on the session's
    virtual clock (a process of their own), arrival to completion; chunks
    are laid end to end.  Requests overlap, so they are async slices."""
    events = [{"name": "process_name", "ph": "M", "pid": 2,
               "args": {"name": "requests (virtual clock)"}}]
    offset, chunk_end, current = 0.0, 0.0, 0
    for chunk, record in phase.records:
        if chunk != current:
            offset, current = offset + chunk_end, chunk
            chunk_end = 0.0
        chunk_end = max(chunk_end, record.done_s)
        common = {"name": "request", "cat": "request", "id": f"{chunk}.{record.request_id}",
                  "pid": 2, "tid": 1}
        events.append({**common, "ph": "b", "ts": (offset + record.arrival_s) * 1e6,
                       "args": {"request_id": record.request_id, "chunk": chunk,
                                "batch_id": record.batch_id, "view_id": record.view_id}})
        events.append({**common, "ph": "e", "ts": (offset + record.done_s) * 1e6})
    return events


# ---------------------------------------------------------------------------
# One run.
def _ms(values, q):
    return percentile(values, q) * 1e3


def end_to_end(phase: Phase, peak_rss_mb: float) -> Dict[str, float]:
    return {
        "images_per_s": phase.images_per_s,
        "latency_p50_ms": _ms(phase.latencies_s, 50),
        "latency_p99_ms": _ms(phase.latencies_s, 99),
        "final_psnr_db": phase.psnr_db,
        "gpu_peak_mb": phase.gpu_peak_bytes / 1e6,
        "transfer_mb_per_image": phase.transfer_bytes_per_image / 1e6,
        "setup_s": percentile(phase.setup_s, 50),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    tracer: Tracer, traced: Phase, untraced: Phase, rho: float
) -> Dict[str, float]:
    summary = tracer.summary()
    counters = tracer.counters
    metrics: Dict[str, float] = {}
    for name in LAYER_NAMES:
        stats = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "share": 0.0})
        for key in ("calls", "busy_s", "self_s", "share"):
            metrics[f"{name}.{key}"] = float(stats[key])

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    loaded, cached = counters["gather.loaded_rows"], counters["gather.cached_rows"]
    metrics.update({
        "cull.selectivity": ratio("cull.rows_returned", "cull.rows_scanned"),
        "plan.cache_hit_rate": (
            counters["plan.cache_hits"] / metrics["plan.calls"] if metrics["plan.calls"] else 0.0
        ),
        "gather.loaded_rows": loaded,
        "gather.cached_rows": cached,
        "gather.cache_hit_ratio": cached / (loaded + cached) if loaded + cached else 0.0,
        "scatter.stored_rows": counters["scatter.stored_rows"],
        "bin.entries": counters["bin.entries"],
        "raster.splats_rendered": counters["raster.splats_rendered"],
        "adam.rows": counters["adam.rows"],
        "workload.mean_rho": rho,
    })
    records = [r for _, r in traced.records]
    metrics.update({
        "serve.queue_ms_p50": _ms([r.queue_s for r in records], 50) if records else 0.0,
        "serve.plan_ms_p50": _ms([r.plan_s for r in records], 50) if records else 0.0,
        "serve.render_ms_p50": _ms([r.render_s for r in records], 50) if records else 0.0,
        "serve.plan_cache_hit_rate": traced.properties.get("plan.cache_hit_rate", 0.0)
        if records else 0.0,
        "serve.coalesce_rate": traced.properties.get("serve.coalesce_rate", 0.0),
        "lod.composited_mean": float(np.mean([r.working_set for r in records]))
        if records else 0.0,
        "trace.unattributed_share": summary["trace"]["unattributed_share"],
        "trace.overhead": 1.0 - traced.images_per_s / untraced.images_per_s,
    })
    return metrics

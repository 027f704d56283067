//! Node-level time stepper — the paper's §6.2.1 experiment: "a single
//! rotating star with a level of refinement of four is simulated for five
//! time steps", measuring *cells processed per second* while scaling from
//! one core to all four.
//!
//! Per step, interleaving the two solvers exactly as §3.3 describes:
//! ghost exchange → CFL reduction → gravity solve (P2M / M2M / multipole +
//! monopole kernels) → hydro kernel → apply update + gravity sources. Every
//! per-leaf kernel invocation is one `amt` task, so the runtime always sees
//! `leaf_count` concurrent kernels per phase — the paper's source of
//! multicore utilization even with the Kokkos Serial execution space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use amt::par::scope;
use amt::{Handle, Runtime};
use apex_lite::trace::{self, Cat};
use apex_lite::{CounterRegistry, CounterSnapshot};

use crate::aggregate::{
    self, AccelEntry, AccelSlot, AggregationRegion, AggregationStats, BatchScratchPool,
    GravityBatchCtx, HydroBatchCtx,
};
use crate::config::OctoConfig;
use crate::gravity::{
    self, BlockSoA, CacheStats, EnsureReport, GravityKernels, GravityWorkspace, InteractionCache,
};
use crate::hydro::{self, HydroStage};
use crate::kernel_backend::Dispatch;
use crate::octree::{NodeId, Octree};
use crate::recycle::{PoolStats, RecyclePool};
use crate::star::{InitialModel, RotatingStar, NF};
use crate::subgrid::{Face, SubGrid, CELLS};

/// Work counters accumulated over a run — the measured quantities the
/// `rv-machine` projection turns into per-architecture runtimes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkEstimate {
    /// Estimated hydro flops.
    pub hydro_flops: u64,
    /// Estimated gravity flops (multipole + monopole kernels).
    pub gravity_flops: u64,
    /// Estimated bytes of field traffic.
    pub bytes: u64,
    /// Far-field (M2L) node-block interactions.
    pub far_interactions: u64,
    /// Near-field (P2P) block-block interactions.
    pub near_interactions: u64,
    /// Ghost cells filled by per-cell tree-descent sampling (level jumps and
    /// domain boundaries) — latency-bound on in-order cores.
    pub ghost_samples: u64,
    /// Bytes moved by fast same-level ghost slab copies.
    pub ghost_slab_bytes: u64,
    /// Multipole-acceptance (MAC) evaluations executed by the dual
    /// traversal. Charged only on interaction-cache *misses*: cached solves
    /// skip the traversal, and the projection must not bill flops that
    /// never ran.
    pub mac_evals: u64,
}

impl WorkEstimate {
    /// Total flops.
    pub fn flops(&self) -> u64 {
        self.hydro_flops + self.gravity_flops
    }

    /// Write the `/gravity/…` interaction and `/work/…` counters.
    pub(crate) fn counters_into(&self, snap: &mut CounterSnapshot) {
        snap.set_count("/gravity/far_interactions", self.far_interactions);
        snap.set_count("/gravity/near_interactions", self.near_interactions);
        snap.set_count("/gravity/mac_evals", self.mac_evals);
        snap.set_count("/work/hydro_flops", self.hydro_flops);
        snap.set_count("/work/gravity_flops", self.gravity_flops);
        snap.set_count("/work/bytes", self.bytes);
        snap.set_count("/work/ghost_samples", self.ghost_samples);
        snap.set_count("/work/ghost_slab_bytes", self.ghost_slab_bytes);
    }
}

impl std::ops::AddAssign for WorkEstimate {
    fn add_assign(&mut self, o: Self) {
        self.hydro_flops += o.hydro_flops;
        self.gravity_flops += o.gravity_flops;
        self.bytes += o.bytes;
        self.far_interactions += o.far_interactions;
        self.near_interactions += o.near_interactions;
        self.ghost_samples += o.ghost_samples;
        self.ghost_slab_bytes += o.ghost_slab_bytes;
        self.mac_evals += o.mac_evals;
    }
}

/// The observability harness of a run, shared by [`Driver::run_on`] and
/// [`DistRun`](crate::dist_driver::DistRun): trace reset/enable, the
/// `--sample_interval_ms` sampler, the `--counter-table` per-step deltas
/// and tables, the `--metrics-out` CSV and the `--trace-out` export.
pub(crate) struct RunHarness {
    registry: Arc<CounterRegistry>,
    sampler: Option<apex_lite::Sampler>,
    counter_table: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    prev: Option<CounterSnapshot>,
    step_deltas: Vec<CounterSnapshot>,
}

impl RunHarness {
    /// Enable tracing if `--trace-out` asks for it and start the sampler
    /// over `registry`.
    pub(crate) fn start(config: &OctoConfig, registry: CounterRegistry) -> Self {
        if config.trace_out.is_some() {
            trace::reset();
            trace::set_enabled(true);
        }
        let registry = Arc::new(registry);
        let sampler = config
            .sample_interval_ms
            .map(|ms| apex_lite::Sampler::start(Arc::clone(&registry), Duration::from_millis(ms)));
        RunHarness {
            registry,
            sampler,
            counter_table: config.counter_table,
            metrics_out: config.metrics_out.clone(),
            trace_out: config.trace_out.clone(),
            prev: None,
            step_deltas: Vec::new(),
        }
    }

    /// The shared counter registry.
    pub(crate) fn registry(&self) -> &CounterRegistry {
        &self.registry
    }

    /// Under `--counter-table`, take a snapshot with `sample` and record its
    /// delta against the previous one; the first call sets the baseline.
    pub(crate) fn sample_step(&mut self, sample: impl FnOnce(&CounterRegistry) -> CounterSnapshot) {
        if !self.counter_table {
            return;
        }
        let cur = sample(&self.registry);
        if let Some(prev) = &self.prev {
            self.step_deltas.push(cur.delta(prev));
        }
        self.prev = Some(cur);
    }

    /// Print the counter tables titled `title`, stop the sampler and write
    /// the metrics CSV and the trace, with `counters` as the run's final
    /// snapshot. Returns the sampler ticks taken.
    pub(crate) fn finish(self, title: &str, counters: &CounterSnapshot) -> u64 {
        if self.counter_table {
            let steps = format!("{title} per-step counters");
            print!(
                "{}",
                apex_lite::render_step_table(&steps, &self.step_deltas)
            );
            let totals = format!("{title} run totals");
            print!("{}", apex_lite::render_table(&totals, counters));
        }
        // The sampler's series ride along in the Chrome trace as `"C"`
        // counter events and back the `--metrics-out` CSV.
        let mut series = match self.sampler {
            Some(s) => s.stop(),
            None => apex_lite::TimeSeries::default(),
        };
        if self.metrics_out.is_some() && series.samples == 0 {
            // No cadence requested: one final sample so the CSV is never
            // empty.
            series.push(trace::now_ns(), counters);
        }
        if let Some(path) = &self.metrics_out {
            if let Err(e) = std::fs::write(path, series.render_csv()) {
                eprintln!("warning: failed to write metrics to {path}: {e}");
            }
        }
        if let Some(path) = &self.trace_out {
            trace::set_enabled(false);
            let t = trace::drain();
            if let Err(e) = std::fs::write(path, apex_lite::export_with_counters(&t, &series)) {
                eprintln!("warning: failed to write trace to {path}: {e}");
            }
        }
        series.samples
    }
}

/// Results of a timed run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Steps executed.
    pub steps: u32,
    /// Octree leaves.
    pub leaf_count: usize,
    /// Interior cells (leaves × 512).
    pub cell_count: usize,
    /// `cells × steps` — the paper's throughput numerator.
    pub cells_processed: u64,
    /// Wall-clock seconds on the host.
    pub elapsed_seconds: f64,
    /// Cells processed per second (host) — Fig. 7/8's y-axis.
    pub cells_per_second: f64,
    /// Scheduler event counts over the run.
    pub runtime_stats: amt::RuntimeStats,
    /// Work counters for the machine projection.
    pub work: WorkEstimate,
    /// Interaction-list cache hit/miss counters over the run.
    pub cache: CacheStats,
    /// Final simulation time.
    pub sim_time: f64,
    /// Fraction of the shorter solver's wall-time during which the gravity
    /// and hydro kernel families ran concurrently, accumulated over the run
    /// (0 in barriered mode, > 0 when the futurized graph interleaves).
    pub overlap_ratio: f64,
    /// Peak resident set size of the process in bytes (`VmHWM`), or the
    /// self-measured arena high-water mark where the OS counter is
    /// unavailable. Depth regressions in memory are invisible at level 2 —
    /// this is the number `BENCH_scale.json` tracks against depth.
    pub peak_rss_bytes: u64,
    /// Unified counter dump (`/runtime/…`, `/gravity/…`, `/work/…`,
    /// `/energy/…`) sampled at the end of the run.
    pub counters: CounterSnapshot,
    /// Background counter-sampler ticks taken during the run (0 unless
    /// `--sample_interval_ms` was set).
    pub counter_samples: u64,
}

/// Wall-clock envelope of one task family within a step: the earliest start
/// and latest end across all its per-leaf tasks (monotonic `now_ns` stamps).
struct Envelope {
    start: AtomicU64,
    end: AtomicU64,
}

impl Envelope {
    fn new() -> Self {
        Envelope {
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(0),
        }
    }

    fn record(&self, s: u64, e: u64) {
        self.start.fetch_min(s, Ordering::Relaxed);
        self.end.fetch_max(e, Ordering::Relaxed);
    }

    fn interval(&self) -> Option<(u64, u64)> {
        let s = self.start.load(Ordering::Relaxed);
        let e = self.end.load(Ordering::Relaxed);
        (s != u64::MAX && e >= s).then_some((s, e))
    }
}

/// Run totals behind the `/runtime/overlap_ratio` counter.
#[derive(Debug, Clone, Copy, Default)]
struct OverlapTotals {
    gravity_ns: u64,
    hydro_ns: u64,
    overlap_ns: u64,
}

/// Gravity state handed through the futurized step's moments task: the
/// workspace and cache are *moved* into the task (the serial M2M pass runs
/// concurrently with per-leaf hydro) and published back afterwards.
struct GravityHandoff {
    ws: GravityWorkspace,
    cache: InteractionCache,
    report: EnsureReport,
}

/// One leaf's SoA hydro staging view, built by the CFL pass and consumed by
/// the hydro kernel of the same step.
pub(crate) type StageSlot = Mutex<Option<HydroStage>>;

/// The node-level simulation driver.
pub struct Driver {
    tree: Octree,
    config: OctoConfig,
    sim_time: f64,
    work: WorkEstimate,
    /// cppuddle-style scratch-buffer pool for the hydro kernels.
    pool: Arc<RecyclePool<[f64; NF]>>,
    /// Pool behind the SoA primitive staging views of the SIMD hydro path.
    stage_pool: Arc<RecyclePool<f64>>,
    /// Gravity/hydro concurrency totals (futurized-mode latency hiding).
    overlap: OverlapTotals,
    /// Recycled gravity solve state (moments table, traversal order).
    gravity_ws: GravityWorkspace,
    /// Cross-step interaction-list cache keyed on tree topology.
    interaction_cache: InteractionCache,
    /// Recycled batch-fused gravity streams (far tables + near mega-stream).
    batch_scratch: BatchScratchPool,
    /// Work-aggregation seal/launch counters
    /// (`/work/aggregation/…`).
    agg: AggregationStats,
    /// Regrid sweeps executed (`/regrid/sweeps`).
    regrid_sweeps: u64,
    /// Leaves split across all sweeps, cascades included
    /// (`/regrid/leaves_refined`).
    regrid_leaves: u64,
}

/// What one [`Driver::regrid`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridReport {
    /// Leaves split this sweep — the requested ones that were still leaves
    /// plus every cascade split the 2:1 grading closure forced.
    pub leaves_refined: usize,
}

/// Map every leaf of `leaves` through `f` in parallel (one task per
/// leaf). Still used by the ghost exchange; the compute phases fan out
/// through the aggregation regions instead.
fn par_map_leaves<T, F>(handle: &Handle, leaves: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(NodeId) -> T + Send + Sync,
{
    let mut out: Vec<Option<T>> = (0..leaves.len()).map(|_| None).collect();
    scope(handle, |sc| {
        for (slot, &leaf) in out.iter_mut().zip(leaves) {
            let f = &f;
            sc.spawn(move || {
                *slot = Some(f(leaf));
            });
        }
    });
    out.into_iter()
        .map(|s| s.expect("scope completed"))
        .collect()
}

impl Driver {
    /// Build the rotating-star problem for `config` on a `[-1, 1]³` domain.
    pub fn new(config: OctoConfig) -> Self {
        Self::with_model(&RotatingStar::paper_default(), config)
    }

    /// Build any [`InitialModel`] problem (e.g. a
    /// [`crate::star::BinaryStar`]) on a `[-1, 1]³` domain.
    pub fn with_model<M: InitialModel>(model: &M, config: OctoConfig) -> Self {
        config.validate().expect("invalid configuration");
        let tree = Octree::build_with_model(model, &config, 1.0);
        Driver {
            tree,
            config,
            sim_time: 0.0,
            work: WorkEstimate::default(),
            pool: Arc::new(RecyclePool::new()),
            stage_pool: Arc::new(RecyclePool::new()),
            overlap: OverlapTotals::default(),
            gravity_ws: GravityWorkspace::new(),
            interaction_cache: InteractionCache::new(),
            batch_scratch: BatchScratchPool::new(),
            agg: AggregationStats::new(),
            regrid_sweeps: 0,
            regrid_leaves: 0,
        }
    }

    /// The underlying octree.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// The octree, mutably: a distributed run installs its peer's halo
    /// leaves here.
    pub(crate) fn tree_mut(&mut self) -> &mut Octree {
        &mut self.tree
    }

    /// The active configuration.
    pub fn config(&self) -> &OctoConfig {
        &self.config
    }

    /// Execute one time step on `runtime`; returns `dt`.
    ///
    /// Dispatches on [`OctoConfig::futurize`]: the per-leaf futurized task
    /// graph (default) or the barrier-separated four-phase ablation. Both
    /// modes produce bitwise-identical states — the graph only reorders
    /// *independent* work.
    pub fn step(&mut self, runtime: &Runtime) -> f64 {
        if self.config.futurize {
            self.step_futurized(runtime)
        } else {
            self.step_barriered(runtime)
        }
    }

    /// Ghost exchange over `leaves`: parallel per-leaf gather, serial
    /// scatter. Shared by both step modes (it runs before any of the step's
    /// compute tasks) and by each locality of a
    /// [`DistRun`](crate::dist_driver::DistRun) over its owned leaves.
    pub(crate) fn exchange_ghosts(&mut self, handle: &Handle, leaves: &[NodeId]) {
        let _span = trace::span(Cat::Phase, "ghost_exchange");
        let ghost_data = {
            let tree = &self.tree;
            par_map_leaves(handle, leaves, |leaf| {
                Face::ALL
                    .into_iter()
                    .map(|face| (face, tree.ghost_data_for(leaf, face)))
                    .collect::<Vec<_>>()
            })
        };
        for (&leaf, faces) in leaves.iter().zip(ghost_data) {
            for (face, data) in faces {
                self.tree.apply_ghost(leaf, face, &data);
            }
        }
    }

    /// The barriered step: ghost → CFL → gravity → hydro, each phase a full
    /// task barrier (the seed's structure, kept as the `--futurize=off`
    /// ablation the bench compares against). Each phase fans out through an
    /// [`AggregationRegion`], so one task covers `--*_host_tasks` leaves;
    /// batch size 1 reproduces the per-leaf launches bitwise. A distributed
    /// run drives the same phases over each locality's owned leaves, with
    /// its exchanges in between.
    fn step_barriered(&mut self, runtime: &Runtime) -> f64 {
        let handle = runtime.handle();
        let leaves: Vec<NodeId> = self.tree.leaf_ids().to_vec();
        self.exchange_ghosts(&handle, &leaves);
        let (max_rate, stages) = {
            let _span = trace::span(Cat::Phase, "cfl_reduction");
            self.cfl_phase(&handle, &leaves)
        };
        let dt = self.config.cfl / max_rate;
        let (accels, report) = {
            let _span = trace::span(Cat::Phase, "gravity_solve");
            let blocks = self.p2m_phase(&handle, &leaves);
            self.gravity_phase(&handle, &leaves, &blocks)
        };
        let _span = trace::span(Cat::Phase, "hydro_step");
        self.hydro_phase(&handle, &leaves, stages, dt, &accels, report);
        dt
    }

    /// CFL over `leaves`: the largest signal speed / dx, folded from 1e-30
    /// in leaf order. A vector policy also builds each leaf's SoA staging
    /// view here; the tree is immutable until the apply, so
    /// [`Self::hydro_phase`] reuses the returned stages instead of staging
    /// twice.
    pub(crate) fn cfl_phase(&self, handle: &Handle, leaves: &[NodeId]) -> (f64, Vec<StageSlot>) {
        let n = leaves.len();
        let dispatch = Dispatch::new(self.config.hydro_kernel, handle, 4);
        let hctx = self.hydro_ctx(leaves, &dispatch);
        let speeds: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stages: Vec<StageSlot> = (0..n).map(|_| Mutex::new(None)).collect();
        let cap = self.config.hydro_host_tasks;
        aggregate::for_each_batch(handle, n, cap, &self.agg, |_, batch| {
            aggregate::run_cfl_batch(&hctx, batch, false, &speeds, &stages)
        });
        let max_rate = speeds
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Acquire)))
            .fold(1e-30_f64, f64::max);
        (max_rate, stages)
    }

    /// P2M over `leaves` (batched): one block table entry per leaf, slice
    /// order.
    pub(crate) fn p2m_phase(&self, handle: &Handle, leaves: &[NodeId]) -> Vec<BlockSoA> {
        let n = leaves.len();
        let slots: Vec<Mutex<Option<BlockSoA>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cap = self.config.multipole_host_tasks;
        aggregate::for_each_batch(handle, n, cap, &self.agg, |_, batch| {
            aggregate::run_p2m_batch(&self.tree, leaves, batch, false, &slots)
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("block slot").expect("p2m done"))
            .collect()
    }

    /// Gravity for `leaves` from the complete leaf-order block table: M2M
    /// (serial, recycled workspace) → interaction lists (cached across
    /// steps) → FMM kernels (batched fused streams, recycled batch scratch).
    pub(crate) fn gravity_phase(
        &mut self,
        handle: &Handle,
        leaves: &[NodeId],
        blocks: &[BlockSoA],
    ) -> (Vec<AccelEntry>, EnsureReport) {
        self.gravity_ws.upward_pass(&self.tree, blocks);
        if !self.config.use_interaction_cache {
            // Cache-off ablation: force the dual traversal every step.
            self.interaction_cache.invalidate();
        }
        let report =
            self.interaction_cache
                .ensure(&self.tree, &self.gravity_ws.moments, self.config.theta);
        let multipole = Dispatch::new(self.config.multipole_kernel, handle, 4);
        let monopole = Dispatch::new(self.config.monopole_kernel, handle, 4);
        let kernels = GravityKernels {
            multipole: &multipole,
            monopole: &monopole,
            simd: self.config.simd_policy(),
        };
        let gctx = GravityBatchCtx {
            tree: &self.tree,
            moments: &self.gravity_ws.moments,
            blocks,
            leaf_pos: &self.gravity_ws.leaf_pos,
            leaves,
            lists: self.interaction_cache.lists(),
            kernels: &kernels,
            scratch: &self.batch_scratch,
        };
        let slots: Vec<AccelSlot> = (0..leaves.len()).map(|_| Mutex::new(None)).collect();
        let agg_cfg = self.config.aggregation();
        aggregate::run_gravity_stage(handle, &gctx, agg_cfg, &self.agg, false, &|_, _| {}, &slots);
        let accels = slots
            .into_iter()
            .map(|m| m.into_inner().expect("accel slot").expect("gravity done"))
            .collect();
        (accels, report)
    }

    /// Hydro kernels over `leaves` (batched, pure: each batch writes one
    /// fused state buffer, a batch-sized class of the recycle pool), then
    /// the serial apply of hydro updates and gravity sources, then the
    /// step's accounting.
    pub(crate) fn hydro_phase(
        &mut self,
        handle: &Handle,
        leaves: &[NodeId],
        stages: Vec<StageSlot>,
        dt: f64,
        accels: &[AccelEntry],
        report: EnsureReport,
    ) {
        let n = leaves.len();
        let cap = self.config.hydro_host_tasks;
        let batch_states: Vec<Mutex<Option<Vec<[f64; NF]>>>> =
            (0..AggregationRegion::batch_count(n, cap))
                .map(|_| Mutex::new(None))
                .collect();
        {
            let dispatch = Dispatch::new(self.config.hydro_kernel, handle, 4);
            let hctx = self.hydro_ctx(leaves, &dispatch);
            aggregate::for_each_batch(handle, n, cap, &self.agg, |bid, batch| {
                aggregate::run_hydro_batch(
                    &hctx,
                    batch,
                    dt,
                    false,
                    &|_, _| {},
                    &stages,
                    &batch_states[bid],
                )
            });
        }
        self.apply(leaves, batch_states, accels, dt);
        self.account_step(leaves, accels, report);
    }

    /// The CFL/hydro batch context over `leaves`.
    fn hydro_ctx<'a>(&'a self, leaves: &'a [NodeId], dispatch: &'a Dispatch) -> HydroBatchCtx<'a> {
        HydroBatchCtx {
            tree: &self.tree,
            leaves,
            dispatch,
            policy: self.config.simd_policy(),
            state_pool: &self.pool,
            stage_pool: &self.stage_pool,
        }
    }

    /// Serial apply, shared by both step modes: walk the fused hydro
    /// buffers in batch order and slice leaves back out — the same leaf
    /// order (and the same bits) as the per-leaf apply — adding each leaf's
    /// hydro update and gravity source terms; then advance the clock.
    fn apply(
        &mut self,
        leaves: &[NodeId],
        batch_states: Vec<Mutex<Option<Vec<[f64; NF]>>>>,
        accels: &[AccelEntry],
        dt: f64,
    ) {
        let mut pos = 0usize;
        for slot in batch_states {
            let fused = slot.into_inner().expect("state slot").expect("hydro done");
            for k in 0..fused.len() / CELLS {
                let grid = self.tree.subgrid_mut(leaves[pos]);
                hydro::apply_interior(grid, &fused[k * CELLS..(k + 1) * CELLS]);
                hydro::apply_gravity_source(grid, &accels[pos].0, dt);
                pos += 1;
            }
            self.pool.release(fused);
        }
        assert_eq!(
            pos,
            leaves.len(),
            "fused batches cover every leaf exactly once"
        );
        self.sim_time += dt;
    }

    /// The futurized step: one per-step task graph instead of four phase
    /// barriers, expressed as *continuations* — no task ever blocks on a
    /// condition another task must produce (a help-stealing waiter could
    /// end up nested above its own producer on one stack and deadlock).
    /// Instead, the last *batch* task of each root phase to retire runs the
    /// serial join and fans the dependent batch tasks out in a nested
    /// scope (the aggregation regions seal batches of `--*_host_tasks`
    /// leaves; batch size 1 degenerates to the per-leaf graph):
    ///
    /// ```text
    /// cfl batches  ──last──► dt reduction ──► hydro batches
    /// p2m batches  ──last──► M2M + lists  ──► gravity batches
    /// ```
    ///
    /// Each hydro batch needs only the global `dt`; a gravity batch
    /// overlaps hydro batches on other workers, and the *serial* M2M/list
    /// pass is hidden behind CFL/hydro work — the paper's HPX futurization
    /// argument at sub-grid granularity. The per-leaf arithmetic and the
    /// serial apply order are identical to the barriered step, so the
    /// states match bitwise at every batch size.
    fn step_futurized(&mut self, runtime: &Runtime) -> f64 {
        let handle = runtime.handle();
        let hydro_dispatch = Dispatch::new(self.config.hydro_kernel, &handle, 4);
        let multipole_dispatch = Dispatch::new(self.config.multipole_kernel, &handle, 4);
        let monopole_dispatch = Dispatch::new(self.config.monopole_kernel, &handle, 4);
        let policy = self.config.simd_policy();
        let cfl_factor = self.config.cfl;
        let theta = self.config.theta;
        let agg_cfg = self.config.aggregation();

        let leaves: Vec<NodeId> = self.tree.leaf_ids().to_vec();
        self.exchange_ghosts(&handle, &leaves);
        let n = leaves.len();
        let n_hydro_batches = AggregationRegion::batch_count(n, agg_cfg.hydro);
        let n_p2m_batches = AggregationRegion::batch_count(n, agg_cfg.multipole);

        if !self.config.use_interaction_cache {
            self.interaction_cache.invalidate();
        }
        // The serial M2M/list pass runs inside a task, concurrent with
        // per-leaf hydro — so the gravity state is moved in (claimed by the
        // continuation) and published back out afterwards (same workspace
        // and cache objects; their stats accumulate across steps).
        let ws_in = std::mem::replace(&mut self.gravity_ws, GravityWorkspace::new());
        let cache_in = std::mem::replace(&mut self.interaction_cache, InteractionCache::new());
        let gravity_state: Mutex<Option<(GravityWorkspace, InteractionCache)>> =
            Mutex::new(Some((ws_in, cache_in)));

        let speeds: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stage_slots: Vec<StageSlot> = (0..n).map(|_| Mutex::new(None)).collect();
        let block_slots: Vec<Mutex<Option<BlockSoA>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let accel_slots: Vec<AccelSlot> = (0..n).map(|_| Mutex::new(None)).collect();
        let batch_states: Vec<Mutex<Option<Vec<[f64; NF]>>>> =
            (0..n_hydro_batches).map(|_| Mutex::new(None)).collect();
        // The continuation counters count *batches*, not leaves: the last
        // CFL batch to retire runs the dt reduction, the last P2M batch
        // runs the moments pass — the coalescer's seal-on-flush idiom
        // applied to the task graph's joins.
        let cfl_remaining = AtomicU64::new(n_hydro_batches as u64);
        let p2m_remaining = AtomicU64::new(n_p2m_batches as u64);
        let dt_bits = AtomicU64::new(0);
        let published: OnceLock<GravityHandoff> = OnceLock::new();
        let g_env = Envelope::new();
        let h_env = Envelope::new();

        {
            let tree = &self.tree;
            let kernels = GravityKernels {
                multipole: &multipole_dispatch,
                monopole: &monopole_dispatch,
                simd: policy,
            };
            let kernels = &kernels;
            let hctx = &self.hydro_ctx(&leaves, &hydro_dispatch);
            let batch_scratch = &self.batch_scratch;
            let agg = &self.agg;
            let handle_ref = &handle;
            let leaves_ref = &leaves;
            let (speeds, stage_slots, block_slots) = (&speeds, &stage_slots, &block_slots);
            let (accel_slots, batch_states) = (&accel_slots, &batch_states);
            let (cfl_remaining, p2m_remaining) = (&cfl_remaining, &p2m_remaining);
            let (dt_bits, published, gravity_state) = (&dt_bits, &published, &gravity_state);
            let g_record: &(dyn Fn(u64, u64) + Sync) = &|s, e| g_env.record(s, e);
            let h_record: &(dyn Fn(u64, u64) + Sync) = &|s, e| h_env.record(s, e);

            scope(&handle, |sc| {
                // Roots of the graph: CFL batches and P2M batches — no
                // dependencies, all runnable now. The regions seal full
                // batches as the index streams through and flush the ragged
                // tails; each sealed batch is one spawned task covering
                // `--*_host_tasks` leaves.
                let spawn_cfl = |batch: Vec<usize>| {
                    sc.spawn(move || {
                        {
                            let _launch = aggregate::launch_span(agg_cfg.hydro);
                            aggregate::run_cfl_batch(hctx, &batch, true, speeds, stage_slots);
                        }
                        if cfl_remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
                            return;
                        }
                        // Continuation of the last CFL batch: global dt
                        // (deterministic leaf-order fold, identical to the
                        // barriered reduction), then the hydro batch
                        // fan-out.
                        let dt = {
                            let _span = trace::span(Cat::Phase, "cfl_reduction");
                            let max_rate = speeds
                                .iter()
                                .map(|s| f64::from_bits(s.load(Ordering::Acquire)))
                                .fold(1e-30_f64, f64::max);
                            cfl_factor / max_rate
                        };
                        dt_bits.store(dt.to_bits(), Ordering::Release);
                        scope(handle_ref, |hsc| {
                            let mut region = AggregationRegion::new(agg_cfg.hydro, agg);
                            let spawn_hydro = |(bid, hbatch): (usize, Vec<usize>)| {
                                hsc.spawn(move || {
                                    let _launch = aggregate::launch_span(agg_cfg.hydro);
                                    aggregate::run_hydro_batch(
                                        hctx,
                                        &hbatch,
                                        dt,
                                        true,
                                        h_record,
                                        stage_slots,
                                        &batch_states[bid],
                                    );
                                });
                            };
                            for idx in 0..leaves_ref.len() {
                                if let Some(sealed) = region.push(idx) {
                                    spawn_hydro(sealed);
                                }
                            }
                            if let Some(sealed) = region.flush() {
                                spawn_hydro(sealed);
                            }
                        });
                    });
                };
                let spawn_p2m = |batch: Vec<usize>| {
                    sc.spawn(move || {
                        {
                            let _launch = aggregate::launch_span(agg_cfg.multipole);
                            aggregate::run_p2m_batch(tree, leaves_ref, &batch, true, block_slots);
                        }
                        if p2m_remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
                            return;
                        }
                        // Continuation of the last P2M batch: the barriered
                        // step's serial M2M + interaction-list section (now
                        // hidden behind CFL/hydro work on other workers),
                        // then the aggregated gravity fan-out.
                        let (mut ws, mut cache) = gravity_state
                            .lock()
                            .expect("gravity state")
                            .take()
                            .expect("claimed once");
                        let blocks: Vec<BlockSoA> = block_slots
                            .iter()
                            .map(|m| m.lock().expect("block slot").take().expect("p2m done"))
                            .collect();
                        let report = {
                            let _span = trace::span(Cat::Phase, "gravity_moments");
                            ws.upward_pass(tree, &blocks);
                            cache.ensure(tree, &ws.moments, theta)
                        };
                        {
                            let gctx = GravityBatchCtx {
                                tree,
                                moments: &ws.moments,
                                blocks: &blocks,
                                leaf_pos: &ws.leaf_pos,
                                leaves: leaves_ref,
                                lists: cache.lists(),
                                kernels,
                                scratch: batch_scratch,
                            };
                            aggregate::run_gravity_stage(
                                handle_ref,
                                &gctx,
                                agg_cfg,
                                agg,
                                true,
                                g_record,
                                accel_slots,
                            );
                        }
                        let handoff = GravityHandoff { ws, cache, report };
                        assert!(
                            published.set(handoff).is_ok(),
                            "gravity continuation publishes exactly once"
                        );
                    });
                };
                let mut cfl_region = AggregationRegion::new(agg_cfg.hydro, agg);
                for idx in 0..n {
                    if let Some((_, batch)) = cfl_region.push(idx) {
                        spawn_cfl(batch);
                    }
                }
                if let Some((_, batch)) = cfl_region.flush() {
                    spawn_cfl(batch);
                }
                let mut p2m_region = AggregationRegion::new(agg_cfg.multipole, agg);
                for idx in 0..n {
                    if let Some((_, batch)) = p2m_region.push(idx) {
                        spawn_p2m(batch);
                    }
                }
                if let Some((_, batch)) = p2m_region.flush() {
                    spawn_p2m(batch);
                }
            });
        }

        // Restore the gravity state the moments task took.
        let handoff = published.into_inner().expect("moments task ran");
        self.gravity_ws = handoff.ws;
        self.interaction_cache = handoff.cache;
        let report = handoff.report;
        let dt = f64::from_bits(dt_bits.load(Ordering::Acquire));

        // Serial apply, identical order to the barriered step: walk the
        // fused hydro buffers in batch order and slice leaves back out.
        let accels: Vec<AccelEntry> = accel_slots
            .into_iter()
            .map(|m| m.into_inner().expect("accel slot").expect("gravity done"))
            .collect();
        self.apply(&leaves, batch_states, &accels, dt);
        self.accumulate_overlap(&g_env, &h_env);
        self.account_step(&leaves, &accels, report);
        dt
    }

    /// Fold one step's gravity/hydro kernel-family envelopes into the run's
    /// overlap totals (the `/runtime/overlap_ratio` counter).
    fn accumulate_overlap(&mut self, g: &Envelope, h: &Envelope) {
        if let (Some((g0, g1)), Some((h0, h1))) = (g.interval(), h.interval()) {
            self.overlap.gravity_ns += g1 - g0;
            self.overlap.hydro_ns += h1 - h0;
            self.overlap.overlap_ns += g1.min(h1).saturating_sub(g0.max(h0));
        }
    }

    /// Post-step ghost and work accounting, shared by both step modes.
    fn account_step(
        &mut self,
        leaves: &[NodeId],
        accels: &[(Vec<[f64; 3]>, u64, u64)],
        report: EnsureReport,
    ) {
        // Ghost-path accounting (for the machine projection).
        // Values per face slab: NF × NG × NX².
        let slab_values = (crate::star::NF * crate::subgrid::NG * 8 * 8) as u64;
        for &leaf in leaves {
            for face in Face::ALL {
                if self.tree.ghost_fast_path(leaf, face) {
                    self.work.ghost_slab_bytes += slab_values * 8;
                } else {
                    self.work.ghost_samples += slab_values;
                }
            }
        }

        // Work accounting. Far (M2L) interactions are charged on the
        // SIMD-*padded* source count: the remainder pack of each far list
        // still occupies full vector lanes, and the projection must see
        // that waste. Near lists stream 64-block leaves (a multiple of
        // every width), so padding is a no-op there.
        let cells = (leaves.len() * CELLS) as u64;
        self.work.hydro_flops += cells * hydro::HYDRO_FLOPS_PER_CELL;
        self.work.bytes += cells * hydro::HYDRO_BYTES_PER_CELL;
        let lanes = self.config.simd_policy().lanes() as u64;
        let near_total: u64 = accels.iter().map(|(_, _, near)| near).sum();
        let far_padded: u64 = accels
            .iter()
            .map(|(_, far, _)| rv_machine::simd_padded_interactions(*far, lanes))
            .sum();
        let far_inter = far_padded * gravity::BLOCKS as u64;
        let near_inter = near_total * (gravity::BLOCKS * gravity::BLOCKS) as u64;
        self.work.far_interactions += far_inter;
        self.work.near_interactions += near_inter;
        self.work.gravity_flops += far_inter * gravity::MULTIPOLE_FLOPS_PER_INTERACTION
            + near_inter * gravity::MONOPOLE_FLOPS_PER_INTERACTION;
        // MAC evaluations only ran on a cache miss, and a *partial* rebuild
        // only traversed the dirty leaves — the ensure report carries the
        // exact entry count of the lists that were re-traversed (every
        // accepted or opened node was MAC-tested). Retained lists cost 0.
        self.work.mac_evals += report.mac_evals;
        self.work.gravity_flops += report.mac_evals * gravity::MAC_FLOPS_PER_EVAL;
    }

    /// Run `stop_step` steps on a fresh runtime of `threads` workers and
    /// report throughput — one point of Fig. 7.
    pub fn run(&mut self, threads: usize) -> RunMetrics {
        let runtime = Runtime::new(threads);
        self.run_on(&runtime)
    }

    /// Run `stop_step` steps on an existing runtime.
    ///
    /// Honours the observability flags: `--trace-out=FILE` records a
    /// Chrome trace of the run (scheduler tasks, driver phases, gravity
    /// kernels) and `--counter-table` prints per-step counter deltas.
    pub fn run_on(&mut self, runtime: &Runtime) -> RunMetrics {
        let mut registry = CounterRegistry::new();
        runtime
            .handle()
            .register_counters(&mut registry, "/runtime");
        runtime.reset_stats();
        // The background sampler covers the registered providers
        // (`/runtime/...` including the imbalance gauge); the driver-owned
        // counters (`counters_into`, borrowing `&self`) join the per-step
        // and final snapshots only.
        let mut harness = RunHarness::start(&self.config, registry);
        let start = Instant::now();
        let mut steps = 0;
        harness.sample_step(|r| self.sample_counters(r));
        for _ in 0..self.config.stop_step {
            self.step(runtime);
            steps += 1;
            harness.sample_step(|r| self.sample_counters(r));
        }
        let elapsed = start.elapsed().as_secs_f64();
        rv_machine::memory::note_arena_bytes(self.tree.resident_bytes());
        let mut counters = self.sample_counters(harness.registry());
        rv_machine::energy_counters_into(
            &mut counters,
            rv_machine::CpuArch::Jh7110,
            1,
            runtime.worker_stats().len() as u32,
            elapsed,
        );
        let counter_samples = harness.finish("octotiger", &counters);
        let cell_count = self.tree.cell_count();
        let cells_processed = cell_count as u64 * u64::from(steps);
        RunMetrics {
            steps,
            leaf_count: self.tree.leaf_count(),
            cell_count,
            cells_processed,
            elapsed_seconds: elapsed,
            cells_per_second: cells_processed as f64 / elapsed.max(1e-12),
            runtime_stats: runtime.stats(),
            work: self.work,
            cache: self.interaction_cache.stats(),
            sim_time: self.sim_time,
            overlap_ratio: self.overlap_ratio(),
            peak_rss_bytes: rv_machine::memory::peak_rss_bytes(),
            counters,
            counter_samples,
        }
    }

    /// Sample the registry and fold in the driver-owned counters.
    fn sample_counters(&self, registry: &CounterRegistry) -> CounterSnapshot {
        let mut snap = registry.sample();
        self.counters_into(&mut snap);
        snap
    }

    /// Write the driver's `/gravity/…` and `/work/…` counters into `snap`.
    /// These live on `&self` (not behind a registry provider) because the
    /// driver is single-owner mutable state.
    pub fn counters_into(&self, snap: &mut CounterSnapshot) {
        let cs = self.interaction_cache.stats();
        snap.set_count("/gravity/cache_hits", cs.hits);
        snap.set_count("/gravity/cache_misses", cs.misses);
        snap.set_count("/gravity/cache/partial_rebuilds", cs.partial_rebuilds);
        snap.set_count("/gravity/cache/leaves_rebuilt", cs.leaves_rebuilt);
        snap.set_count("/gravity/cache/leaves_retained", cs.leaves_retained);
        snap.set_count("/regrid/sweeps", self.regrid_sweeps);
        snap.set_count("/regrid/leaves_refined", self.regrid_leaves);
        snap.set_count(
            "/runtime/peak_rss_bytes",
            rv_machine::memory::peak_rss_bytes(),
        );
        self.work.counters_into(snap);
        snap.set_count("/runtime/overlap_ns", self.overlap.overlap_ns);
        snap.set_gauge("/runtime/overlap_ratio", self.overlap_ratio());
        let agg = self.agg.snapshot();
        snap.set_count("/work/aggregation/fused_launches", agg.fused_launches);
        snap.set_count("/work/aggregation/seals_on_full", agg.seals_on_full);
        snap.set_count("/work/aggregation/seals_on_flush", agg.seals_on_flush);
        snap.set_gauge("/work/aggregation/batch_size_avg", agg.batch_size_avg());
    }

    /// Work-aggregation seal/launch counters accumulated so far.
    pub fn aggregation_stats(&self) -> crate::aggregate::AggregationSnapshot {
        self.agg.snapshot()
    }

    /// Fraction of the shorter kernel family's wall-clock envelope that
    /// overlapped the other family, accumulated over all steps so far.
    /// Barriered runs report ~0 (phases are serialized); futurized runs on
    /// multiple workers report a positive ratio — the direct evidence for
    /// the paper's "interleaving of the two solvers" claim.
    pub fn overlap_ratio(&self) -> f64 {
        let denom = self.overlap.gravity_ns.min(self.overlap.hydro_ns);
        if denom == 0 {
            0.0
        } else {
            self.overlap.overlap_ns as f64 / denom as f64
        }
    }

    /// Hit/miss counters of the SoA hydro staging-buffer pool.
    pub fn stage_pool_stats(&self) -> PoolStats {
        self.stage_pool.stats()
    }

    /// Work counters accumulated so far.
    pub fn work(&self) -> WorkEstimate {
        self.work
    }

    /// Interaction-list cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.interaction_cache.stats()
    }

    /// Refine one leaf mid-run (dynamic AMR) as a serial single-leaf sweep.
    /// Bumps the octree's topology generation, which the interaction-list
    /// cache and gravity workspace pick up *incrementally* on the next step
    /// (only the split's neighbour cone re-traverses). For whole batches use
    /// [`Driver::regrid`], which fans the prolongation out as tasks.
    pub fn refine_leaf(&mut self, leaf: NodeId) -> [NodeId; 8] {
        if let Some(kids) = self.tree.children_of(leaf) {
            return kids; // no-op refine: no sweep, no span
        }
        // One phase span per sweep (not per split: the grading cascade's
        // splits all belong to this sweep).
        let _span = trace::span(Cat::Phase, "regrid");
        let splits = self.tree.regrid(&[leaf]);
        self.regrid_sweeps += 1;
        self.regrid_leaves += splits.len() as u64;
        rv_machine::memory::note_arena_bytes(self.tree.resident_bytes());
        self.tree.children_of(leaf).expect("sweep split the leaf")
    }

    /// Refine a batch of leaves mid-run as **one** regrid sweep driven as an
    /// `amt` task graph: serial structural split + 2:1 grading closure, the
    /// prolongation of every split fanned out as tasks (batched
    /// `--regrid_host_tasks` splits per task, the aggregation idiom), then a
    /// serial install with a single generation bump. One `regrid` phase
    /// span wraps the whole sweep — a 1000-leaf regrid used to emit 1000.
    pub fn regrid(&mut self, runtime: &Runtime, requested: &[NodeId]) -> RegridReport {
        let _span = trace::span(Cat::Phase, "regrid");
        let splits = self.tree.begin_regrid(requested);
        if splits.is_empty() {
            return RegridReport::default();
        }
        let batch = self.config.regrid_host_tasks.max(1);
        let mut grids: Vec<Option<[SubGrid; 8]>> = (0..splits.len()).map(|_| None).collect();
        {
            let tree = &self.tree;
            let handle = runtime.handle();
            scope(&handle, |sc| {
                for (slots, parents) in grids.chunks_mut(batch).zip(splits.chunks(batch)) {
                    sc.spawn(move || {
                        for (slot, &(parent, _)) in slots.iter_mut().zip(parents) {
                            *slot = Some(tree.prolongate_children(parent));
                        }
                    });
                }
            });
        }
        let installs = splits
            .iter()
            .zip(grids)
            .map(|(&(parent, _), g)| (parent, g.expect("scope prolongated every split")))
            .collect();
        self.tree.finish_regrid(installs);
        self.regrid_sweeps += 1;
        self.regrid_leaves += splits.len() as u64;
        rv_machine::memory::note_arena_bytes(self.tree.resident_bytes());
        RegridReport {
            leaves_refined: splits.len(),
        }
    }

    /// Current simulation time.
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;
    use crate::star::field;

    fn tiny_config(kernel: KernelType) -> OctoConfig {
        OctoConfig {
            max_level: 1,
            stop_step: 2,
            threads: 2,
            ..OctoConfig::with_all_kernels(kernel)
        }
    }

    #[test]
    fn run_produces_metrics() {
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let m = d.run(2);
        assert_eq!(m.steps, 2);
        assert_eq!(m.cell_count, m.leaf_count * CELLS);
        assert_eq!(m.cells_processed, 2 * m.cell_count as u64);
        assert!(m.cells_per_second > 0.0);
        assert!(m.work.flops() > 0);
        assert!(m.sim_time > 0.0);
        assert!(m.runtime_stats.tasks_spawned > 0);
    }

    #[test]
    fn dt_is_positive_and_stable() {
        let mut d = Driver::new(tiny_config(KernelType::Legacy));
        let rt = Runtime::new(2);
        let dt1 = d.step(&rt);
        let dt2 = d.step(&rt);
        assert!(dt1 > 0.0 && dt2 > 0.0);
        // Quasi-static star: dt should not collapse between steps.
        assert!(dt2 > 0.25 * dt1, "dt collapsed: {dt1} -> {dt2}");
    }

    #[test]
    fn mass_approximately_conserved_over_steps() {
        // The star is in near-equilibrium; over two short steps mass change
        // should be tiny (boundary outflow of floor material only).
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let before = d.tree().total_mass();
        let rt = Runtime::new(2);
        d.step(&rt);
        d.step(&rt);
        let after = d.tree().total_mass();
        assert!(
            ((after - before) / before).abs() < 0.01,
            "mass drifted {before} -> {after}"
        );
    }

    #[test]
    fn density_stays_positive_everywhere() {
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        for _ in 0..3 {
            d.step(&rt);
        }
        for &leaf in d.tree().leaf_ids() {
            let g = d.tree().subgrid(leaf);
            for c in 0..CELLS {
                let (i, j, k) = crate::hydro::cell_coords(c);
                assert!(g.at(field::RHO, i, j, k) > 0.0);
                assert!(g.at(field::EGAS, i, j, k) > 0.0);
            }
        }
    }

    #[test]
    fn all_kernel_backends_run_and_agree_on_structure() {
        let mut results = Vec::new();
        for kind in KernelType::ALL {
            let mut d = Driver::new(tiny_config(kind));
            let m = d.run(2);
            results.push((kind, m.leaf_count, m.sim_time));
        }
        // Same tree and same dt sequence regardless of backend.
        assert!(results.windows(2).all(|w| w[0].1 == w[1].1));
        for w in results.windows(2) {
            assert!(
                (w[0].2 - w[1].2).abs() < 1e-12,
                "sim time must not depend on dispatch backend: {results:?}"
            );
        }
    }

    #[test]
    fn interaction_cache_hits_across_steps() {
        let mut d = Driver::new(OctoConfig {
            stop_step: 4,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let m = d.run(2);
        // Static topology: one miss on the first step, hits after.
        assert_eq!(m.cache.misses, 1);
        assert_eq!(m.cache.hits, 3);
        // Cache-off ablation rebuilds every step.
        let mut off = Driver::new(OctoConfig {
            stop_step: 4,
            use_interaction_cache: false,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let m_off = off.run(2);
        assert_eq!(m_off.cache.misses, 4);
        assert_eq!(m_off.cache.hits, 0);
        assert!(
            m_off.work.mac_evals > m.work.mac_evals,
            "cache hits must not be billed MAC evaluations"
        );
    }

    #[test]
    fn noop_refine_keeps_cache_warm() {
        // Refining an already-refined node must not bump the topology
        // generation, so the interaction-list cache survives.
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        d.step(&rt);
        let victim = d.tree().leaf_ids()[0];
        let kids = d.refine_leaf(victim);
        d.step(&rt); // miss: topology changed
        let gen = d.tree().generation();
        assert_eq!(d.refine_leaf(victim), kids, "no-op refine returns children");
        assert_eq!(d.tree().generation(), gen);
        d.step(&rt); // hit: the cache must still be valid
        assert_eq!(d.cache_stats().misses, 2);
        assert_eq!(d.cache_stats().hits, 1);
    }

    #[test]
    fn refinement_between_solves_matches_uncached_driver() {
        // The ISSUE's regression test: refining the octree between solves
        // must invalidate the interaction-list cache, so a cached run stays
        // bitwise identical to a cache-off run.
        let cfg_on = tiny_config(KernelType::KokkosSerial);
        let cfg_off = OctoConfig {
            use_interaction_cache: false,
            ..cfg_on.clone()
        };
        let mut d_on = Driver::new(cfg_on);
        let mut d_off = Driver::new(cfg_off);
        let rt = Runtime::new(2);
        d_on.step(&rt);
        d_off.step(&rt);
        let leaf_on = d_on.tree().leaf_ids()[0];
        let leaf_off = d_off.tree().leaf_ids()[0];
        assert_eq!(leaf_on, leaf_off);
        let gen_before = d_on.tree().generation();
        d_on.refine_leaf(leaf_on);
        d_off.refine_leaf(leaf_off);
        assert!(d_on.tree().generation() > gen_before);
        d_on.step(&rt);
        d_off.step(&rt);
        assert_eq!(d_on.tree().leaf_count(), d_off.tree().leaf_count());
        for (&a, &b) in d_on.tree().leaf_ids().iter().zip(d_off.tree().leaf_ids()) {
            assert_eq!(a, b);
            let ga = d_on.tree().subgrid(a).interior_data();
            let gb = d_off.tree().subgrid(b).interior_data();
            assert_eq!(ga, gb, "cached run diverged from uncached after refine");
        }
        // Both steps of the cached run were misses: the initial build and
        // the rebuild forced by the generation bump.
        assert_eq!(d_on.cache_stats().misses, 2);
        assert_eq!(d_on.cache_stats().hits, 0);
    }

    #[test]
    fn work_estimate_scales_with_steps() {
        let mut d1 = Driver::new(OctoConfig {
            stop_step: 1,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let mut d2 = Driver::new(OctoConfig {
            stop_step: 2,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let w1 = d1.run(1).work;
        let w2 = d2.run(1).work;
        assert_eq!(w2.hydro_flops, 2 * w1.hydro_flops);
        assert!(w2.gravity_flops >= w1.gravity_flops * 2 * 9 / 10);
    }
}

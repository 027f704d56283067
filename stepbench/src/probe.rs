//! The outside-in probe: the barriered step replayed on the probe's own
//! octree from public calls only, with a span around each layer call.
//! Nothing inside the program is instrumented for it; a later change that
//! restructures the step updates this file and no other.
//!
//! Gravity runs as the split path (every leaf's M2L, then every leaf's
//! P2P) so far and near field are separate phases. The repository keeps
//! the split, unified, batched, barriered and futurized paths bitwise
//! equal, so after the same steps the probe's state must equal that of a
//! `Driver` with `futurize=off` — [`same_state`] checks it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use amt::par::scope;
use amt::Handle;
use apex_lite::trace::{self, Cat, EventKind, Trace};
use octotiger::aggregate::{
    self, AccelEntry, AccelSlot, AggregationRegion, AggregationStats, BatchScratchPool,
    GravityBatchCtx, HalfSlot, HydroBatchCtx,
};
use octotiger::gravity::{BlockSoA, GravityKernels, GravityWorkspace, InteractionCache};
use octotiger::hydro::{self, HydroStage};
use octotiger::kernel_backend::Dispatch;
use octotiger::octree::{NodeId, Octree};
use octotiger::recycle::RecyclePool;
use octotiger::star::{RotatingStar, NF};
use octotiger::subgrid::{Face, SubGrid, CELLS};
use octotiger::OctoConfig;

/// Span around one whole probe step.
pub const STEP: &str = "probe.step";
/// Span around one regrid sweep (between steps, outside [`STEP`]).
pub const REGRID: &str = "probe.regrid";
/// Layer spans inside [`STEP`], in call order.
pub const LAYERS: [&str; 10] = [
    GHOST_GATHER,
    GHOST_SCATTER,
    CFL,
    P2M,
    M2M,
    LISTS,
    M2L,
    P2P,
    HYDRO,
    APPLY,
];
pub const GHOST_GATHER: &str = "probe.ghost_gather";
pub const GHOST_SCATTER: &str = "probe.ghost_scatter";
pub const CFL: &str = "probe.cfl";
pub const P2M: &str = "probe.p2m";
pub const M2M: &str = "probe.m2m";
pub const LISTS: &str = "probe.lists";
pub const M2L: &str = "probe.m2l";
pub const P2P: &str = "probe.p2p";
pub const HYDRO: &str = "probe.hydro";
pub const APPLY: &str = "probe.apply";
/// The sections that run on the driver thread alone (Amdahl's serial part).
pub const SERIAL: [&str; 4] = [GHOST_SCATTER, M2M, LISTS, APPLY];

fn span(name: &'static str) -> trace::SpanGuard {
    trace::span(Cat::Phase, name)
}

/// The probe's own copy of the simulation state and the recycled solver
/// state the driver would hold.
pub struct Probe {
    tree: Octree,
    config: OctoConfig,
    ws: GravityWorkspace,
    cache: InteractionCache,
    scratch: BatchScratchPool,
    agg: AggregationStats,
    state_pool: RecyclePool<[f64; NF]>,
    stage_pool: RecyclePool<f64>,
}

impl Probe {
    pub fn new(config: OctoConfig) -> Self {
        Probe {
            tree: Octree::build_with_model(&RotatingStar::paper_default(), &config, 1.0),
            config,
            ws: GravityWorkspace::new(),
            cache: InteractionCache::new(),
            scratch: BatchScratchPool::new(),
            agg: AggregationStats::new(),
            state_pool: RecyclePool::new(),
            stage_pool: RecyclePool::new(),
        }
    }

    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// One barriered step; returns `dt`.
    pub fn step(&mut self, handle: &Handle) -> f64 {
        let _step = span(STEP);
        let hydro_dispatch = Dispatch::new(self.config.hydro_kernel, handle, 4);
        let multipole = Dispatch::new(self.config.multipole_kernel, handle, 4);
        let monopole = Dispatch::new(self.config.monopole_kernel, handle, 4);
        let policy = self.config.simd_policy();
        let agg_cfg = self.config.aggregation();
        let leaves: Vec<NodeId> = self.tree.leaf_ids().to_vec();
        let n = leaves.len();

        let ghosts = {
            let _s = span(GHOST_GATHER);
            gather_ghosts(handle, &self.tree, &leaves)
        };
        {
            let _s = span(GHOST_SCATTER);
            for (&leaf, faces) in leaves.iter().zip(ghosts) {
                for (face, data) in faces {
                    self.tree.apply_ghost(leaf, face, &data);
                }
            }
        }

        let hctx = HydroBatchCtx {
            tree: &self.tree,
            leaves: &leaves,
            dispatch: &hydro_dispatch,
            policy,
            state_pool: &self.state_pool,
            stage_pool: &self.stage_pool,
        };
        let stage_slots: Vec<Mutex<Option<HydroStage>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let dt = {
            let _s = span(CFL);
            let speeds: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            aggregate::for_each_batch(handle, n, agg_cfg.hydro, &self.agg, |_, batch| {
                aggregate::run_cfl_batch(&hctx, batch, false, &speeds, &stage_slots)
            });
            let max_rate = speeds
                .iter()
                .map(|s| f64::from_bits(s.load(Ordering::Acquire)))
                .fold(1e-30_f64, f64::max);
            self.config.cfl / max_rate
        };

        let blocks: Vec<BlockSoA> = {
            let _s = span(P2M);
            let slots: Vec<Mutex<Option<BlockSoA>>> = (0..n).map(|_| Mutex::new(None)).collect();
            aggregate::for_each_batch(handle, n, agg_cfg.multipole, &self.agg, |_, batch| {
                aggregate::run_p2m_batch(&self.tree, &leaves, batch, false, &slots)
            });
            slots
                .into_iter()
                .map(|m| m.into_inner().expect("block slot").expect("p2m done"))
                .collect()
        };
        {
            let _s = span(M2M);
            self.ws.upward_pass(&self.tree, &blocks);
        }
        {
            let _s = span(LISTS);
            self.cache
                .ensure(&self.tree, &self.ws.moments, self.config.theta);
        }

        let kernels = GravityKernels {
            multipole: &multipole,
            monopole: &monopole,
            simd: policy,
        };
        let gctx = GravityBatchCtx {
            tree: &self.tree,
            moments: &self.ws.moments,
            blocks: &blocks,
            leaf_pos: &self.ws.leaf_pos,
            leaves: &leaves,
            lists: self.cache.lists(),
            kernels: &kernels,
            scratch: &self.scratch,
        };
        let pending: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(2)).collect();
        let halves: Vec<HalfSlot> = (0..n).map(|_| Mutex::new((None, None))).collect();
        let accel_slots: Vec<AccelSlot> = (0..n).map(|_| Mutex::new(None)).collect();
        let no_record = |_: u64, _: u64| {};
        {
            let _s = span(M2L);
            aggregate::for_each_batch(handle, n, agg_cfg.multipole, &self.agg, |_, batch| {
                aggregate::run_m2l_batch(
                    &gctx,
                    batch,
                    &halves,
                    &pending,
                    false,
                    &no_record,
                    &accel_slots,
                )
            });
        }
        let accels: Vec<AccelEntry> = {
            let _s = span(P2P);
            aggregate::for_each_batch(handle, n, agg_cfg.monopole, &self.agg, |_, batch| {
                aggregate::run_p2p_batch(
                    &gctx,
                    batch,
                    &halves,
                    &pending,
                    false,
                    &no_record,
                    &accel_slots,
                )
            });
            accel_slots
                .into_iter()
                .map(|m| m.into_inner().expect("accel slot").expect("gravity done"))
                .collect()
        };

        let batch_states: Vec<Mutex<Option<Vec<[f64; NF]>>>> =
            (0..AggregationRegion::batch_count(n, agg_cfg.hydro))
                .map(|_| Mutex::new(None))
                .collect();
        {
            let _s = span(HYDRO);
            aggregate::for_each_batch(handle, n, agg_cfg.hydro, &self.agg, |bid, batch| {
                aggregate::run_hydro_batch(
                    &hctx,
                    batch,
                    dt,
                    false,
                    &no_record,
                    &stage_slots,
                    &batch_states[bid],
                )
            });
        }
        {
            let _s = span(APPLY);
            let mut pos = 0usize;
            for slot in batch_states {
                let fused = slot.into_inner().expect("state slot").expect("hydro done");
                for k in 0..fused.len() / CELLS {
                    let grid = self.tree.subgrid_mut(leaves[pos]);
                    hydro::apply_interior(grid, &fused[k * CELLS..(k + 1) * CELLS]);
                    hydro::apply_gravity_source(grid, &accels[pos].0, dt);
                    pos += 1;
                }
                self.state_pool.release(fused);
            }
            assert_eq!(pos, n, "fused batches cover every leaf exactly once");
        }
        dt
    }

    /// One regrid sweep, as `Driver::regrid` runs it: serial split and
    /// grading, prolongation fanned out as tasks, serial install. Returns
    /// the number of leaves split.
    pub fn regrid(&mut self, handle: &Handle, requested: &[NodeId]) -> usize {
        let _s = span(REGRID);
        let splits = self.tree.begin_regrid(requested);
        if splits.is_empty() {
            return 0;
        }
        let batch = self.config.regrid_host_tasks.max(1);
        let mut grids: Vec<Option<[SubGrid; 8]>> = (0..splits.len()).map(|_| None).collect();
        let tree = &self.tree;
        scope(handle, |sc| {
            for (slots, parents) in grids.chunks_mut(batch).zip(splits.chunks(batch)) {
                sc.spawn(move || {
                    for (slot, &(parent, _)) in slots.iter_mut().zip(parents) {
                        *slot = Some(tree.prolongate_children(parent));
                    }
                });
            }
        });
        let installs = splits
            .iter()
            .zip(grids)
            .map(|(&(parent, _), g)| (parent, g.expect("every split prolongated")))
            .collect();
        self.tree.finish_regrid(installs);
        splits.len()
    }
}

/// Parallel ghost gather, one task per leaf, as `Driver` runs it.
fn gather_ghosts(handle: &Handle, tree: &Octree, leaves: &[NodeId]) -> Vec<Vec<(Face, Vec<f64>)>> {
    let mut out: Vec<Vec<(Face, Vec<f64>)>> = vec![Vec::new(); leaves.len()];
    scope(handle, |sc| {
        for (slot, &leaf) in out.iter_mut().zip(leaves) {
            sc.spawn(move || {
                *slot = Face::ALL
                    .into_iter()
                    .map(|face| (face, tree.ghost_data_for(leaf, face)))
                    .collect();
            });
        }
    });
    out
}

/// Bitwise equality of two trees: same leaves, same interior bits.
pub fn same_state(a: &Octree, b: &Octree) -> bool {
    a.leaf_ids() == b.leaf_ids()
        && a.leaf_ids().iter().all(|&leaf| {
            let (x, y) = (
                a.subgrid(leaf).interior_data(),
                b.subgrid(leaf).interior_data(),
            );
            x.iter()
                .map(|v| v.to_bits())
                .eq(y.iter().map(|v| v.to_bits()))
        })
}

/// Total span time per `probe.*` name in `t`, in nanoseconds.
pub fn span_totals(t: &Trace, into: &mut BTreeMap<&'static str, u64>) {
    for (_, events) in &t.threads {
        for e in events {
            if let EventKind::Span { dur_ns } = e.kind {
                if e.name.starts_with("probe.") {
                    *into.entry(e.name).or_default() += dur_ns;
                }
            }
        }
    }
}

/// Append `more` to `into`, thread by thread (each drain is in time
/// order, so per-thread order is kept).
pub fn append_trace(into: &mut Trace, more: Trace) {
    for (meta, events) in more.threads {
        match into.threads.iter_mut().find(|(m, _)| m.tid == meta.tid) {
            Some((_, evs)) => evs.extend(events),
            None => into.threads.push((meta, events)),
        }
    }
    into.dropped += more.dropped;
}

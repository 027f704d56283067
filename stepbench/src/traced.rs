//! The traced run: per-layer numbers for one workload. Three legs run the
//! same steps on the same tree — the default futurized `Driver` (counts
//! and runtime statistics from its public accessors), a `Driver` with
//! `futurize=off` (the barriered reference), and the probe (layer times
//! from its spans). `dist2-l3` adds a `DistRun` and a replay of its
//! measured traffic through `Cluster::invoke`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use amt::{Runtime, RuntimeStats, WorkerStats};
use apex_lite::critpath;
use apex_lite::trace::{self, Trace};
use distrib::{Cluster, ClusterConfig, CoalesceConfig, LocalityHandle};
use octotiger::gravity::{
    CacheStats, MONOPOLE_FLOPS_PER_INTERACTION, MULTIPOLE_FLOPS_PER_INTERACTION,
};
use octotiger::hydro::{HYDRO_BYTES_PER_CELL, HYDRO_FLOPS_PER_CELL};
use octotiger::{DistMetrics, DistRun, Driver, WorkEstimate};
use rv_machine::NetBackend;

use crate::check::check_step;
use crate::probe::{self, Probe};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::workload::{
    check_dist, guarded, DistReference, Outcome, Round, Victims, Workload, WORKERS,
};

/// Replayed steps of measured traffic: enough invocations (9 per step
/// on `dist2-l3`) that the p99 has ten samples beyond it.
const REPLAY_STEPS: usize = 120;
/// Probe steps written to the Chrome trace (of the first round only):
/// the analyzer's cost grows faster than linearly in spans.
const TRACE_STEPS: usize = 2;
/// Largest share of the probe step its layer spans may leave uncovered.
const MAX_UNATTRIBUTED: f64 = 0.05;

// ---------------------------------------------------------------- machine

/// Size of the last-level data or unified cache, from CPUID leaf 4.
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> Option<u64> {
    use std::arch::x86_64::__cpuid_count;
    let mut best: Option<(u32, u64)> = None;
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        if best.is_none_or(|(l, _)| level >= l) {
            best = Some((level, ways * partitions * line * sets));
        }
    }
    best.map(|(_, size)| size)
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> Option<u64> {
    None
}

/// STREAM-Triad bandwidth with each array at least 4× the last-level
/// cache (128 MiB assumed when CPUID does not say).
struct Triad {
    llc_bytes: u64,
    array_bytes: u64,
    gbs: f64,
}

fn triad(rt: &Runtime) -> Triad {
    let llc = llc_bytes().unwrap_or(128 << 20);
    let n = ((4 * llc).max(64 << 20) / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let handle = rt.handle();
    let mut rates = Vec::new();
    for pass in 0..6 {
        let t = Instant::now();
        let sum = octo_core::membench::stream_triad(&handle, &mut a, &b, &c, 3.0);
        let s = t.elapsed().as_secs_f64();
        assert_eq!(sum, 7.0 * n as f64, "triad checksum");
        if pass > 0 {
            rates.push(octo_core::membench::triad_bytes(n) as f64 / s / 1e9);
        }
    }
    Triad {
        llc_bytes: llc,
        array_bytes: 8 * n as u64,
        gbs: median(&rates),
    }
}

// ---------------------------------------------------------------- legs

/// The default futurized driver or the barriered reference, over one
/// round of the workload.
struct DriverLeg {
    driver: Driver,
    cold_step_ms: f64,
    step_ms: Vec<f64>,
    work: WorkEstimate,
    cache: CacheStats,
    launches: u64,
    batch_size_avg: f64,
    stage_pool_hit_ratio: f64,
    overlap_ratio: f64,
    counters: StepCounters,
    leaves_refined: u64,
}

/// Scheduler and per-worker counters summed over the driver's `step`
/// calls alone, from snapshots taken around each call, so that the
/// regrid sweeps and the output checks between steps are not counted. A
/// park still open at a snapshot is charged when it ends, at most 0.5 ms
/// later.
#[derive(Default)]
struct StepCounters {
    rt: RuntimeStats,
    workers: Vec<WorkerStats>,
    wall_s: f64,
}

impl StepCounters {
    /// Run `f`, add the counters it accrued, return its result and wall
    /// time in seconds.
    fn around<T>(&mut self, rt: &Runtime, f: impl FnOnce() -> T) -> (T, f64) {
        let (s0, w0) = (rt.stats(), rt.worker_stats());
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let (s1, w1) = (rt.stats(), rt.worker_stats());
        self.wall_s += wall_s;
        self.rt.tasks_executed += s1.tasks_executed - s0.tasks_executed;
        self.rt.steals += s1.steals - s0.steals;
        self.rt.parks += s1.parks - s0.parks;
        self.workers.resize(w1.len(), WorkerStats::default());
        for (acc, (a, b)) in self.workers.iter_mut().zip(w0.iter().zip(&w1)) {
            acc.busy_ns += b.busy_ns - a.busy_ns;
            acc.park_ns += b.park_ns - a.park_ns;
        }
        (out, wall_s)
    }
}

fn driver_leg(
    w: Workload,
    seed: u64,
    futurize: bool,
    rt: &Runtime,
    round: &mut Round,
) -> DriverLeg {
    let mut driver = Driver::new(w.octo(futurize));
    let t = Instant::now();
    driver.step(rt);
    let cold_step_ms = t.elapsed().as_secs_f64() * 1e3;
    let (work0, cache0) = (driver.work(), driver.cache_stats());
    let (agg0, pool0) = (driver.aggregation_stats(), driver.stage_pool_stats());
    let mass0 = driver.tree().total_mass();
    let mut victims = Victims::new(w, seed);
    let mut leaves_refined = 0;
    let mut step_ms = Vec::new();
    let mut counters = StepCounters::default();
    for step in 0..w.steps() {
        if let Some(v) = victims.before_step(step, driver.tree()) {
            leaves_refined += driver.regrid(rt, &v).leaves_refined as u64;
        }
        let (dt, wall_s) = counters.around(rt, || driver.step(rt));
        step_ms.push(wall_s * 1e3);
        let check = check_step(driver.tree(), dt, mass0, w.drift_bound());
        round.record(driver.tree().cell_count(), wall_s, dt, check);
    }
    let (work1, cache1) = (driver.work(), driver.cache_stats());
    let (agg1, pool1) = (driver.aggregation_stats(), driver.stage_pool_stats());
    let pool_hits = pool1.hits - pool0.hits;
    let pool_misses = pool1.misses - pool0.misses;
    DriverLeg {
        cold_step_ms,
        step_ms,
        work: WorkEstimate {
            hydro_flops: work1.hydro_flops - work0.hydro_flops,
            gravity_flops: work1.gravity_flops - work0.gravity_flops,
            bytes: work1.bytes - work0.bytes,
            far_interactions: work1.far_interactions - work0.far_interactions,
            near_interactions: work1.near_interactions - work0.near_interactions,
            ghost_samples: work1.ghost_samples - work0.ghost_samples,
            ghost_slab_bytes: work1.ghost_slab_bytes - work0.ghost_slab_bytes,
            mac_evals: work1.mac_evals - work0.mac_evals,
        },
        cache: CacheStats {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            partial_rebuilds: cache1.partial_rebuilds - cache0.partial_rebuilds,
            leaves_rebuilt: cache1.leaves_rebuilt - cache0.leaves_rebuilt,
            leaves_retained: cache1.leaves_retained - cache0.leaves_retained,
        },
        launches: agg1.fused_launches - agg0.fused_launches,
        batch_size_avg: ratio(
            (agg1.items - agg0.items) as f64,
            (agg1.fused_launches - agg0.fused_launches) as f64,
        ),
        stage_pool_hit_ratio: ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
        overlap_ratio: driver.overlap_ratio(),
        counters,
        leaves_refined,
        driver,
    }
}

/// The probe over one round: layer span totals of the timed steps.
struct ProbeLeg {
    probe: Probe,
    spans: BTreeMap<&'static str, u64>,
    step_ms: Vec<f64>,
    cells: u64,
}

fn probe_leg(
    w: Workload,
    seed: u64,
    rt: &Runtime,
    mut keep: Option<&mut Trace>,
    round: &mut Round,
) -> ProbeLeg {
    let handle = rt.handle();
    let mut probe = Probe::new(w.octo(false));
    probe.step(&handle);
    let mass0 = probe.tree().total_mass();
    let mut victims = Victims::new(w, seed);
    let mut spans = BTreeMap::new();
    let mut step_ms = Vec::new();
    let mut cells = 0;
    trace::reset();
    for step in 0..w.steps() {
        let v = victims.before_step(step, probe.tree());
        trace::set_enabled(true);
        if let Some(v) = v {
            probe.regrid(&handle, &v);
        }
        let dt = probe.step(&handle);
        trace::set_enabled(false);
        let t = trace::drain();
        let mut this_step = BTreeMap::new();
        probe::span_totals(&t, &mut this_step);
        step_ms.push(this_step.get(probe::STEP).copied().unwrap_or(0) as f64 / 1e6);
        for (name, ns) in this_step {
            *spans.entry(name).or_insert(0) += ns;
        }
        if let Some(k) = keep.as_deref_mut().filter(|_| step < TRACE_STEPS) {
            probe::append_trace(k, t);
        }
        cells += probe.tree().cell_count() as u64;
        let check = check_step(probe.tree(), dt, mass0, w.drift_bound());
        round.record(probe.tree().cell_count(), 0.0, dt, check);
    }
    ProbeLeg {
        probe,
        spans,
        step_ms,
        cells,
    }
}

/// Per-step counts of the distributed run.
struct DistLeg {
    messages_per_step: f64,
    bytes_per_step: f64,
    parcels_per_step: f64,
    queue_depth_hwm: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    owned_imbalance: f64,
    tasks_per_step: f64,
    steals_per_step: f64,
    parks_per_step: f64,
    park_ms: f64,
    busy_frac: f64,
    imbalance: f64,
}

/// Busy and parked nanoseconds of every worker of every locality, from
/// the run's `/runtime/locality{i}/worker{n}/{busy,park}_ns` counters.
fn dist_workers(m: &DistMetrics) -> BTreeMap<&str, WorkerStats> {
    let mut out: BTreeMap<&str, WorkerStats> = BTreeMap::new();
    for (path, v) in m.counters.iter() {
        if !path.starts_with("/runtime/locality") {
            continue;
        }
        let ns = v.as_f64() as u64;
        if let Some(worker) = path.strip_suffix("/busy_ns") {
            out.entry(worker).or_default().busy_ns = ns;
        } else if let Some(worker) = path.strip_suffix("/park_ns") {
            out.entry(worker).or_default().park_ns = ns;
        }
    }
    out
}

fn checked_dist_run(
    w: Workload,
    steps: usize,
    reference: &DistReference,
    round: &mut Round,
) -> DistMetrics {
    let mut cfg = w.dist();
    cfg.octo.stop_step = steps as u32;
    let m = DistRun::execute(cfg);
    round.attempted += u64::from(m.steps);
    if let Err(e) = check_dist(&m, reference) {
        round.failed += u64::from(m.steps);
        round.failure.get_or_insert(e);
    }
    m
}

/// `DistRun`'s counters run from cluster start to after the final flush,
/// so they include the domain build, the cold first step and the flush.
/// A run of 2N steps less a run of N leaves N warm steps alone: every
/// per-step figure here is that difference over N.
fn dist_leg(w: Workload, reference: &DistReference, round: &mut Round) -> DistLeg {
    let short = checked_dist_run(w, w.steps(), reference, round);
    let long = checked_dist_run(w, 2 * w.steps(), reference, round);
    let n = f64::from(long.steps - short.steps);
    let per_step = |f: &dyn Fn(&DistMetrics) -> u64| (f(&long) as f64 - f(&short) as f64) / n;
    let (w0, w1) = (dist_workers(&short), dist_workers(&long));
    let workers: Vec<WorkerStats> = w1
        .iter()
        .map(|(name, b)| {
            let a = w0.get(name).copied().unwrap_or_default();
            WorkerStats {
                busy_ns: b.busy_ns.saturating_sub(a.busy_ns),
                park_ns: b.park_ns.saturating_sub(a.park_ns),
                ..WorkerStats::default()
            }
        })
        .collect();
    let park_s: f64 = workers.iter().map(|s| s.park_ns as f64 / 1e9).sum();
    let wall_s = long.elapsed_seconds - short.elapsed_seconds;
    let latency = long
        .counters
        .histogram("/comms/parcel_latency")
        .unwrap_or_default();
    let owned: Vec<f64> = long.owned_per_node.iter().map(|&o| o as f64).collect();
    let owned_mean = owned.iter().sum::<f64>() / owned.len() as f64;
    DistLeg {
        messages_per_step: per_step(&|m| m.net.messages),
        bytes_per_step: per_step(&|m| m.net.bytes),
        parcels_per_step: per_step(&|m| m.port.parcels),
        queue_depth_hwm: long.port.queue_depth_hwm as f64,
        latency_p50_us: latency.quantile(0.5) as f64 / 1e3,
        latency_p99_us: latency.quantile(0.99) as f64 / 1e3,
        owned_imbalance: ratio(owned.iter().copied().fold(0.0, f64::max), owned_mean),
        tasks_per_step: per_step(&|m| m.runtime_stats.tasks_executed),
        steals_per_step: per_step(&|m| m.runtime_stats.steals),
        parks_per_step: per_step(&|m| m.runtime_stats.parks),
        park_ms: park_s * 1e3 / n,
        busy_frac: 1.0 - ratio(park_s, workers.len() as f64 * wall_s),
        imbalance: amt::imbalance(&workers),
    }
}

/// Replay of the measured per-step traffic on a fresh 2-locality TCP
/// cluster: per step, `messages / 2` echo invocations, each carrying the
/// measured mean bytes per message there and back.
struct WireLeg {
    invoke_us: Vec<f64>,
    step_ms: Vec<f64>,
    serialize_gbs: f64,
}

fn wire_leg(messages_per_step: f64, bytes_per_step: f64) -> WireLeg {
    let cluster = Cluster::new(ClusterConfig {
        localities: 2,
        threads_per_locality: WORKERS / 2,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
    });
    cluster.register_action("echo", |_: &LocalityHandle, _, payload: Vec<f64>| payload);
    let target = cluster.locality(1).new_component(());
    let origin = cluster.locality(0);
    let invokes = ((messages_per_step / 2.0).round() as usize).max(1);
    let mean_values = ratio(bytes_per_step, messages_per_step * 8.0).max(1.0);
    let payload = vec![0.5f64; mean_values.round() as usize];
    let mut invoke_us = Vec::new();
    let mut step_ms = Vec::new();
    for _ in 0..REPLAY_STEPS {
        let t = Instant::now();
        for _ in 0..invokes {
            let ti = Instant::now();
            let back: Vec<f64> = origin.invoke(target, "echo", &payload).get();
            invoke_us.push(ti.elapsed().as_secs_f64() * 1e6);
            assert_eq!(back.len(), payload.len(), "echo returned the payload");
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut bytes = 0u64;
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(200) {
        bytes += std::hint::black_box(distrib::to_bytes(&payload))
            .expect("serialize")
            .len() as u64;
    }
    WireLeg {
        invoke_us,
        step_ms,
        serialize_gbs: bytes as f64 / t.elapsed().as_secs_f64() / 1e9,
    }
}

// ---------------------------------------------------------------- run

/// The per-layer metrics of one round, in print order.
fn round_values(
    w: Workload,
    fut: &DriverLeg,
    bar: &DriverLeg,
    pl: &ProbeLeg,
    dist: Option<(&DistLeg, &WireLeg)>,
    triad_gbs: f64,
) -> Metrics {
    let k = w.steps() as f64;
    let span_ms = |name: &str| pl.spans.get(name).copied().unwrap_or(0) as f64 / 1e6 / k;
    let gflops = |flops: f64, ms: f64| ratio(flops, ms * 1e6);
    let step_ms = span_ms(probe::STEP);
    let layers_ms: f64 = probe::LAYERS.iter().map(|l| span_ms(l)).sum();
    let serial_ms: f64 = probe::SERIAL.iter().map(|l| span_ms(l)).sum();
    let cells = pl.cells as f64 / k;
    let (p2p_ms, m2l_ms, hydro_ms) = (
        span_ms(probe::P2P),
        span_ms(probe::M2L),
        span_ms(probe::HYDRO),
    );
    let hydro_gbs = gflops(cells * HYDRO_BYTES_PER_CELL as f64, hydro_ms);
    let per_step = |n: u64| n as f64 / k;
    let near = per_step(fut.work.near_interactions);
    let far = per_step(fut.work.far_interactions);
    let c = &fut.cache;
    let (d, wire) = (dist.map(|x| x.0), dist.map(|x| x.1));
    // The runtime numbers belong to the workload's own runtime: the
    // distributed run's on `dist2-l3`, the futurized driver's otherwise.
    let amt = match d {
        Some(d) => [
            d.tasks_per_step,
            d.steals_per_step,
            d.parks_per_step,
            d.park_ms,
            d.busy_frac,
            d.imbalance,
        ],
        None => {
            let c = &fut.counters;
            let park: f64 = c.workers.iter().map(|s| s.park_ns as f64).sum();
            [
                per_step(c.rt.tasks_executed),
                per_step(c.rt.steals),
                per_step(c.rt.parks),
                park / 1e6 / k,
                1.0 - ratio(park / 1e9, c.workers.len() as f64 * c.wall_s),
                amt::imbalance(&c.workers),
            ]
        }
    };
    let dv = |f: fn(&DistLeg) -> f64| d.map_or(0.0, f);
    let wv = |f: fn(&WireLeg) -> f64| wire.map_or(0.0, f);

    let mut m = Metrics::default();
    m.push("gravity.p2p_ms", p2p_ms, "ms");
    m.push("gravity.near_interactions", near, "count");
    m.push(
        "gravity.p2p_gflops",
        gflops(near * MONOPOLE_FLOPS_PER_INTERACTION as f64, p2p_ms),
        "GFLOP/s",
    );
    m.push("gravity.m2l_ms", m2l_ms, "ms");
    m.push("gravity.far_interactions", far, "count");
    m.push(
        "gravity.m2l_gflops",
        gflops(far * MULTIPOLE_FLOPS_PER_INTERACTION as f64, m2l_ms),
        "GFLOP/s",
    );
    m.push("gravity.p2m_ms", span_ms(probe::P2M), "ms");
    m.push("gravity.m2m_ms", span_ms(probe::M2M), "ms");
    m.push("gravity.lists_ms", span_ms(probe::LISTS), "ms");
    m.push("gravity.mac_evals", per_step(fut.work.mac_evals), "count");
    m.push(
        "gravity.cache_hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
        "ratio",
    );
    m.push(
        "gravity.leaves_rebuilt_ratio",
        ratio(
            c.leaves_rebuilt as f64,
            (c.leaves_rebuilt + c.leaves_retained) as f64,
        ),
        "ratio",
    );
    m.push("octree.ghost_gather_ms", span_ms(probe::GHOST_GATHER), "ms");
    m.push(
        "octree.ghost_scatter_ms",
        span_ms(probe::GHOST_SCATTER),
        "ms",
    );
    m.push(
        "octree.ghost_samples",
        per_step(fut.work.ghost_samples),
        "count",
    );
    m.push(
        "octree.ghost_slab_bytes",
        per_step(fut.work.ghost_slab_bytes),
        "B",
    );
    m.push("octree.apply_ms", span_ms(probe::APPLY), "ms");
    m.push("octree.regrid_ms", span_ms(probe::REGRID), "ms");
    m.push(
        "octree.leaves_refined",
        per_step(fut.leaves_refined),
        "count",
    );
    m.push("hydro.cfl_ms", span_ms(probe::CFL), "ms");
    m.push("hydro.kernel_ms", hydro_ms, "ms");
    m.push(
        "hydro.gflops",
        gflops(cells * HYDRO_FLOPS_PER_CELL as f64, hydro_ms),
        "GFLOP/s",
    );
    m.push("hydro.gbytes_per_s", hydro_gbs, "GB/s");
    m.push("hydro.bw_fraction", ratio(hydro_gbs, triad_gbs), "ratio");
    m.push("aggregate.fused_launches", per_step(fut.launches), "count");
    m.push("aggregate.batch_size_avg", fut.batch_size_avg, "count");
    m.push(
        "recycle.stage_pool_hit_ratio",
        fut.stage_pool_hit_ratio,
        "ratio",
    );
    m.push("amt.tasks_per_step", amt[0], "count");
    m.push("amt.steals_per_step", amt[1], "count");
    m.push("amt.parks_per_step", amt[2], "count");
    m.push("amt.park_ms", amt[3], "ms");
    m.push("amt.busy_frac", amt[4], "ratio");
    m.push("amt.imbalance", amt[5], "ratio");
    m.push("amt.serial_frac", ratio(serial_ms, step_ms), "ratio");
    m.push("driver.step_ms_p50", median(&fut.step_ms), "ms");
    m.push("driver.cold_step_ms", fut.cold_step_ms, "ms");
    m.push("driver.barriered_step_ms", median(&bar.step_ms), "ms");
    m.push("driver.overlap_ratio", fut.overlap_ratio, "ratio");
    m.push(
        "distrib.messages_per_step",
        dv(|d| d.messages_per_step),
        "count",
    );
    m.push("distrib.bytes_per_step", dv(|d| d.bytes_per_step), "B");
    m.push(
        "distrib.parcels_per_step",
        dv(|d| d.parcels_per_step),
        "count",
    );
    m.push(
        "distrib.queue_depth_hwm",
        dv(|d| d.queue_depth_hwm),
        "count",
    );
    m.push(
        "distrib.parcel_latency_p50_us",
        dv(|d| d.latency_p50_us),
        "us",
    );
    m.push(
        "distrib.parcel_latency_p99_us",
        dv(|d| d.latency_p99_us),
        "us",
    );
    m.push(
        "distrib.owned_imbalance",
        dv(|d| d.owned_imbalance),
        "ratio",
    );
    m.push(
        "distrib.invoke_us_p50",
        wv(|x| quantile(&x.invoke_us, 0.5)),
        "us",
    );
    m.push(
        "distrib.invoke_us_p99",
        wv(|x| quantile(&x.invoke_us, 0.99)),
        "us",
    );
    m.push("distrib.wire_ms_per_step", wv(|x| median(&x.step_ms)), "ms");
    m.push("distrib.serialize_gbs", wv(|x| x.serialize_gbs), "GB/s");
    m.push("machine.triad_gbs", triad_gbs, "GB/s");
    m.push("probe.step_ms", step_ms, "ms");
    m.push(
        "probe.unattributed_frac",
        ratio(step_ms - layers_ms, step_ms),
        "ratio",
    );
    m.push(
        "probe.overhead_frac",
        ratio(median(&pl.step_ms), median(&bar.step_ms)) - 1.0,
        "ratio",
    );
    m.push(
        "probe.state_match",
        f64::from(u8::from(probe::same_state(
            pl.probe.tree(),
            bar.driver.tree(),
        ))),
        "bool",
    );
    m
}

/// Write the probe trace into the benchmark's `out/` directory and hold it
/// to what `trace_report --check` requires with the layer spans as
/// phases: it parses, the layers give a non-empty critical path no longer
/// than the wall, and there is a worker lane.
fn export_trace(w: Workload, t: &Trace) -> Result<String, String> {
    let path = format!("{}/out/probe-{}.json", env!("CARGO_MANIFEST_DIR"), w.name());
    let json = apex_lite::export(t);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
    let summary = apex_lite::validate(&json)?;
    let phases: Vec<String> = probe::LAYERS
        .iter()
        .chain([&probe::REGRID])
        .map(|s| s.to_string())
        .collect();
    let cp = critpath::critical_path(&summary, &phases);
    if cp.path_ns == 0 || cp.path_ns > cp.wall_ns {
        return Err(format!(
            "critical path {} ns over wall {} ns",
            cp.path_ns, cp.wall_ns
        ));
    }
    if critpath::worker_utilization(&summary).is_empty() {
        return Err("no worker lanes".into());
    }
    Ok(path)
}

pub fn per_layer(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let rt = Runtime::new(WORKERS);
    let machine = triad(&rt);
    println!(
        "machine: last-level cache {:.1} MiB, triad arrays 3 x {:.1} MiB, {:.2} GB/s",
        machine.llc_bytes as f64 / 1048576.0,
        machine.array_bytes as f64 / 1048576.0,
        machine.gbs
    );
    let reference = (w == Workload::Dist2L3).then(|| DistReference::new(w));
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut record = Round::default();
    let mut problems = Vec::new();
    let mut kept = Trace::default();
    loop {
        let r0 = Instant::now();
        let first = rounds.is_empty();
        let mut values = None;
        // Three legs of `steps()`, and on `dist2-l3` two runs of 1× and 2×.
        let legs = if reference.is_some() { 6 } else { 3 };
        let steps = legs * w.steps();
        let ok = guarded(steps, &mut record, |round| {
            let fut = driver_leg(w, seed, true, &rt, round);
            let bar = driver_leg(w, seed, false, &rt, round);
            let pl = probe_leg(w, seed, &rt, first.then_some(&mut kept), round);
            let dist = reference.as_ref().map(|r| {
                let d = dist_leg(w, r, round);
                let wire = wire_leg(d.messages_per_step, d.bytes_per_step);
                (d, wire)
            });
            values = Some(round_values(
                w,
                &fut,
                &bar,
                &pl,
                dist.as_ref().map(|(d, x)| (d, x)),
                machine.gbs,
            ));
        });
        if let Some(v) = values {
            rounds.push(v);
        }
        if !ok || start.elapsed() + r0.elapsed() > budget {
            break;
        }
    }
    problems.extend(record.failure.take());

    // Every round yields the same metrics in the same order: report the
    // median of each over the rounds.
    let mut metrics = Metrics::default();
    if let Some(first) = rounds.first() {
        for (i, &(name, _, unit)) in first.0.iter().enumerate() {
            let samples: Vec<f64> = rounds.iter().map(|r| r.0[i].1).collect();
            metrics.push(name, median(&samples), unit);
        }
    }
    let lookup = |name: &str| metrics.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    if rounds
        .iter()
        .any(|r| r.0.iter().any(|m| m.0 == "probe.state_match" && m.1 != 1.0))
    {
        problems.push("probe state differs from the barriered driver's".into());
    }
    let unattributed = lookup("probe.unattributed_frac");
    if !(0.0..=MAX_UNATTRIBUTED).contains(&unattributed) {
        problems.push(format!(
            "layer spans cover {:.1}% of the probe step (need {:.0}%)",
            100.0 * (1.0 - unattributed),
            100.0 * (1.0 - MAX_UNATTRIBUTED)
        ));
    }
    match export_trace(w, &kept) {
        Ok(path) => println!("probe trace: {path}"),
        Err(e) => problems.push(format!("probe trace: {e}")),
    }
    Outcome {
        attempted: record.attempted,
        failed: record.failed,
        problems,
        metrics,
    }
}

//! The three workloads, their regrid schedule, and the untraced
//! end-to-end run that measures what a user of the drivers sees.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use amt::Runtime;
use distrib::CoalesceConfig;
use octotiger::octree::{NodeId, Octree};
use octotiger::subgrid::Face;
use octotiger::{DistConfig, DistRun, Driver, OctoConfig};
use rv_machine::NetBackend;

use crate::check::check_step;
use crate::stats::{median, ratio, Metrics, SplitMix64};

/// Worker threads in total, on every workload: one process, two workers
/// (two localities of one worker each for `dist2-l3`).
pub const WORKERS: usize = 2;

/// Set-up samples a run takes at least, so `setup_s` is a median even on
/// a workload whose rounds are long.
const MIN_SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Driver` on the level-3 rotating star: static topology, P2P-bound.
    StarL3,
    /// `DistRun` on the same star, two localities over TCP.
    Dist2L3,
    /// `Driver` from level 2 with seed-chosen regrid sweeps between steps.
    AmrL2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::StarL3, Workload::Dist2L3, Workload::AmrL2];

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (star-l3, dist2-l3, amr-l2)"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarL3 => "star-l3",
            Workload::Dist2L3 => "dist2-l3",
            Workload::AmrL2 => "amr-l2",
        }
    }

    fn max_level(self) -> u32 {
        match self {
            Workload::StarL3 | Workload::Dist2L3 => 3,
            Workload::AmrL2 => 2,
        }
    }

    /// Timed steps in one round (one fresh build of the workload).
    pub fn steps(self) -> usize {
        match self {
            Workload::StarL3 => 8,
            Workload::Dist2L3 => 5,
            Workload::AmrL2 => 20,
        }
    }

    /// Bound on the relative mass drift over a round. The static star
    /// drifted ~4e-6 in 10 level-3 steps, the growing tree 2–5e-3 in 20:
    /// faces at level jumps get no flux correction, so mass is not
    /// conserved across them.
    pub fn drift_bound(self) -> f64 {
        match self {
            Workload::StarL3 | Workload::Dist2L3 => 1e-4,
            Workload::AmrL2 => 2e-2,
        }
    }

    /// The node driver's configuration: the default paper configuration
    /// (KokkosSerial kernels, SIMD width 4, `*_host_tasks=1`, list cache
    /// on) at this workload's level and worker count.
    pub fn octo(self, futurize: bool) -> OctoConfig {
        OctoConfig {
            max_level: self.max_level(),
            stop_step: self.steps() as u32,
            threads: WORKERS,
            futurize,
            ..OctoConfig::default()
        }
    }

    /// The distributed run: 2 localities × 1 worker, TCP, no coalescing.
    pub fn dist(self) -> DistConfig {
        DistConfig {
            nodes: 2,
            threads_per_node: WORKERS / 2,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig {
                threads: WORKERS / 2,
                ..self.octo(true)
            },
        }
    }
}

/// The regrid schedule. On `amr-l2` every other timed step is preceded by
/// one sweep: every leaf touching the star's centre plus `VICTIMS`
/// seed-chosen leaves, all drawn from the leaves below `VICTIM_LEVEL_CAP`
/// that split without a 2:1 grading cascade. Every seed thus ends a round
/// with the same leaf count and the same finest (centre) cells, so `dt`
/// and the work per step do not depend on the seed. Every round restarts
/// the generator, so all rounds of a run, and every leg of a traced run,
/// grow the same tree.
pub struct Victims(Option<SplitMix64>);

const VICTIMS: usize = 4;
const VICTIM_LEVEL_CAP: u32 = 4;

impl Victims {
    pub fn new(w: Workload, seed: u64) -> Self {
        Victims((w == Workload::AmrL2).then(|| SplitMix64::new(seed)))
    }

    pub fn before_step(&mut self, step: usize, tree: &Octree) -> Option<Vec<NodeId>> {
        let rng = self.0.as_mut()?;
        if !step.is_multiple_of(2) {
            return None;
        }
        let (mut picks, mut pool): (Vec<NodeId>, Vec<NodeId>) = tree
            .leaf_ids()
            .iter()
            .copied()
            .filter(|&leaf| splits_alone(tree, leaf))
            .partition(|&leaf| touches_centre(tree, leaf));
        for _ in 0..VICTIMS.min(pool.len()) {
            picks.push(pool.swap_remove(rng.below(pool.len())));
        }
        Some(picks)
    }
}

/// True when one corner of `leaf` is the star's centre, the origin.
fn touches_centre(tree: &Octree, leaf: NodeId) -> bool {
    let node = tree.node(leaf);
    let half = (1u32 << node.level) / 2;
    node.coords.iter().all(|&c| c + 1 == half || c == half)
}

/// True when `leaf` is below the level cap and splitting it forces no
/// cascade: every face neighbour inside the domain is at least as fine.
fn splits_alone(tree: &Octree, leaf: NodeId) -> bool {
    let node = tree.node(leaf);
    node.level < VICTIM_LEVEL_CAP
        && Face::ALL.into_iter().all(|face| {
            tree.neighbor_coords(node.level, node.coords, face)
                .is_none_or(|c| tree.node_at(node.level, c).is_some())
        })
}

/// One round: a fresh build of the workload, its warm-up step, then
/// `steps()` timed steps.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub steps: Vec<TimedStep>,
    pub attempted: u64,
    pub failed: u64,
    pub failure: Option<String>,
}

/// What one timed step processed and how long it took. A `DistRun`
/// round is timed as a whole and gives one entry for all its steps.
pub struct TimedStep {
    pub cells: u64,
    pub wall_s: f64,
    pub sim_time: f64,
}

impl Round {
    pub fn record(&mut self, cells: usize, wall_s: f64, dt: f64, check: Result<(), String>) {
        self.steps.push(TimedStep {
            cells: cells as u64,
            wall_s,
            sim_time: dt,
        });
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.failure.get_or_insert(e);
        }
    }

    /// Count every step of the round not yet attempted as failed.
    pub fn fail_rest(&mut self, steps: usize, why: String) {
        let rest = (steps as u64).saturating_sub(self.attempted);
        self.attempted += rest;
        self.failed += rest;
        self.failure.get_or_insert(why);
    }
}

/// Cells and simulated time per second over the timed steps. Every round
/// repeats the same steps on the same inputs, so each step's wall time is
/// taken as its median over the rounds before summing: one slow round on
/// a shared host moves the result less than it would move a plain sum.
fn rates(rounds: &[Round]) -> (f64, f64) {
    let n = rounds.iter().map(|r| r.steps.len()).min().unwrap_or(0);
    let (mut cells, mut sim_time, mut wall_s) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let walls: Vec<f64> = rounds.iter().map(|r| r.steps[i].wall_s).collect();
        wall_s += median(&walls);
        cells += rounds[0].steps[i].cells as f64;
        sim_time += rounds[0].steps[i].sim_time;
    }
    (ratio(cells, wall_s), ratio(sim_time, wall_s))
}

/// Run `f` on `round`; a panic fails the rest of the round.
pub fn guarded(steps: usize, round: &mut Round, f: impl FnOnce(&mut Round)) -> bool {
    match catch_unwind(AssertUnwindSafe(|| f(&mut *round))) {
        Ok(()) => true,
        Err(p) => {
            let why = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            round.fail_rest(steps, format!("panicked: {why}"));
            false
        }
    }
}

/// Build the node workload and run its warm-up step (fills the list cache
/// and the pools); returns the driver, its runtime and the set-up time.
fn node_setup(w: Workload) -> Result<(Driver, Runtime, f64), String> {
    let t0 = Instant::now();
    let mut driver = Driver::new(w.octo(true));
    let rt = Runtime::new(WORKERS);
    let dt = driver.step(&rt);
    let setup_s = t0.elapsed().as_secs_f64();
    // Drift is bounded from the first timed step on.
    let mass = driver.tree().total_mass();
    check_step(driver.tree(), dt, mass, f64::INFINITY).map_err(|e| format!("warm-up step: {e}"))?;
    Ok((driver, rt, setup_s))
}

fn node_round(w: Workload, seed: u64, round: &mut Round) {
    let (mut driver, rt, setup_s) = match node_setup(w) {
        Ok(s) => s,
        Err(e) => return round.fail_rest(w.steps(), e),
    };
    round.setup_s = setup_s;
    let mass0 = driver.tree().total_mass();
    let mut victims = Victims::new(w, seed);
    for step in 0..w.steps() {
        let t = Instant::now();
        if let Some(v) = victims.before_step(step, driver.tree()) {
            driver.regrid(&rt, &v);
        }
        let dt = driver.step(&rt);
        let wall_s = t.elapsed().as_secs_f64();
        let check = check_step(driver.tree(), dt, mass0, w.drift_bound());
        round.record(driver.tree().cell_count(), wall_s, dt, check);
    }
}

/// What `dist2-l3` is checked against: the node driver on the same
/// problem. `DistRun` reports no `dt`, so the simulated time of its steps
/// is taken from this run of the same steps.
pub struct DistReference {
    pub leaf_count: usize,
    pub sim_time: f64,
}

impl DistReference {
    pub fn new(w: Workload) -> Self {
        let mut driver = Driver::new(w.octo(false));
        let rt = Runtime::new(WORKERS);
        let sim_time = (0..w.steps()).map(|_| driver.step(&rt)).sum();
        DistReference {
            leaf_count: driver.tree().leaf_count(),
            sim_time,
        }
    }
}

/// Checks on a finished distributed run: the same tree as the node
/// driver, one latency observation per parcel received, a positive rate.
pub fn check_dist(m: &octotiger::DistMetrics, reference: &DistReference) -> Result<(), String> {
    if m.leaf_count != reference.leaf_count {
        return Err(format!(
            "{} leaves, the node-level tree has {}",
            m.leaf_count, reference.leaf_count
        ));
    }
    let observed = m
        .counters
        .histogram("/comms/parcel_latency")
        .map_or(0, |h| h.count());
    if observed != m.port.parcels {
        return Err(format!(
            "latency histogram holds {observed} observations for {} parcels",
            m.port.parcels
        ));
    }
    if !(m.cells_per_second.is_finite() && m.cells_per_second > 0.0) {
        return Err(format!("cells/s = {}", m.cells_per_second));
    }
    Ok(())
}

/// `DistRun` builds, steps and tears down in one call; it times its own
/// step loop, and everything else in the call is set-up.
fn dist_round(w: Workload, reference: &DistReference, round: &mut Round) {
    let t0 = Instant::now();
    let m = DistRun::execute(w.dist());
    round.setup_s = t0.elapsed().as_secs_f64() - m.elapsed_seconds;
    round.steps.push(TimedStep {
        cells: m.cells_processed,
        wall_s: m.elapsed_seconds,
        sim_time: reference.sim_time,
    });
    round.attempted = u64::from(m.steps);
    if let Err(e) = check_dist(&m, reference) {
        round.failed = round.attempted;
        round.failure = Some(e);
    }
}

/// Result of one benchmark invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

/// The untraced run: rounds until `seconds` are spent (at least one),
/// medians over rounds.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let reference = (w == Workload::Dist2L3).then(|| DistReference::new(w));
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_bytes = 0;
    loop {
        let r0 = Instant::now();
        let mut round = Round::default();
        let ok = guarded(w.steps(), &mut round, |round| match &reference {
            Some(r) => dist_round(w, r, round),
            None => node_round(w, seed, round),
        });
        rounds.push(round);
        if rounds.len() == 1 {
            // Peak of one complete pass of the workload. Later rounds only
            // repeat it for timing, and each one starts fresh threads
            // whose allocator arenas raise the high-water mark by chance.
            peak_rss_bytes = rv_machine::memory::peak_rss_bytes();
        }
        if !ok || start.elapsed() + r0.elapsed() > budget {
            break;
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while reference.is_none() && setups.len() < MIN_SETUP_SAMPLES {
        match node_setup(w) {
            Ok((_, _, s)) => setups.push(s),
            Err(_) => break,
        }
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let (cells_per_s, sim_time_per_s) = rates(&rounds);
    let mut metrics = Metrics::default();
    metrics.push("cells_per_s", cells_per_s, "1/s");
    metrics.push("sim_time_per_s", sim_time_per_s, "t_code/s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("peak_rss_mb", peak_rss_bytes as f64 / 1e6, "MB");
    metrics.push(
        "step_ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    Outcome {
        attempted,
        failed,
        problems: rounds.into_iter().filter_map(|r| r.failure).collect(),
        metrics,
    }
}

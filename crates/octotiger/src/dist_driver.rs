//! Distributed time stepper — the paper's §6.2.2 experiment: the rotating
//! star on the two-board VisionFive2 cluster, one locality per board with
//! all four cores, comparing the TCP and MPI parcelports (Fig. 8).
//!
//! This module is wiring, not a second engine. Each locality's domain
//! component holds a node-level [`Driver`] over a replica of the whole
//! octree, but **owns** only the leaves on its side of the x = 0 plane
//! (supervisor: x < 0, delegate: x ≥ 0, mirroring the paper's
//! supervisor/delegate command lines of Listings 2–3). Per step the actions
//! run the driver's barriered phases over the owned leaves — so the
//! `--*_host_tasks` batch sizes apply, while `--futurize` does not — with
//! three exchanges in between:
//!
//! 1. **halo leaves** — the full interior state of owned leaves that touch
//!    remotely owned ones, pulled before the ghost exchange (so ghost fill
//!    stays local),
//! 2. the **CFL reduction** — each locality's max rate, reduced to the
//!    global `dt` by the supervisor,
//! 3. **gravity blocks** — each side's P2M results, so both run the same
//!    FMM over the complete mass distribution while computing
//!    accelerations only for their own leaves.
//!
//! Every payload crosses the `distrib` wire as real serialized bytes, so
//! the Fig. 8 projection consumes *measured* message counts and volumes.
//! Owned leaves end every step bitwise equal to a node-level run.

use serde::{Deserialize, Serialize};

use apex_lite::trace::{self, Cat};
use apex_lite::{CounterRegistry, CounterSnapshot};
use distrib::{
    Cluster, ClusterConfig, CoalesceConfig, Gid, LocalityHandle, NetSnapshot, PortSnapshot,
};
use rv_machine::NetBackend;

use crate::config::OctoConfig;
use crate::driver::{Driver, RunHarness, StageSlot, WorkEstimate};
use crate::gravity::BlockSoA;
use crate::octree::NodeId;
use crate::subgrid::{Face, CELLS};

/// Configuration of a distributed run. (`Clone` but not `Copy`: the
/// embedded [`OctoConfig`] carries the heap-allocated trace-output path.)
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Localities (boards): 1 or 2 in the paper.
    pub nodes: u32,
    /// Worker threads per locality (4 on the VisionFive2).
    pub threads_per_node: usize,
    /// Parcelport backend.
    pub backend: NetBackend,
    /// Parcel-coalescing layer (off by default, like the paper's runs).
    pub coalesce: CoalesceConfig,
    /// Application configuration.
    pub octo: OctoConfig,
}

impl DistConfig {
    /// The paper's configuration on `nodes` boards with `backend`.
    pub fn paper(nodes: u32, backend: NetBackend) -> Self {
        DistConfig {
            nodes,
            threads_per_node: 4,
            backend,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig::default(),
        }
    }

    /// Distributed configuration derived from a parsed [`OctoConfig`]: the
    /// backend follows `--hpx:parcelport`, the thread count `--hpx:threads`,
    /// and the coalescing layer `--coalesce`.
    pub fn from_octo(nodes: u32, octo: OctoConfig) -> Self {
        DistConfig {
            nodes,
            threads_per_node: octo.threads,
            backend: octo.parcelport,
            coalesce: if octo.coalesce {
                CoalesceConfig::enabled()
            } else {
                CoalesceConfig::default()
            },
            octo,
        }
    }
}

/// Results of a distributed run.
#[derive(Debug, Clone)]
pub struct DistMetrics {
    /// Localities used.
    pub nodes: u32,
    /// Steps executed.
    pub steps: u32,
    /// Global leaf count.
    pub leaf_count: usize,
    /// Global interior cell count.
    pub cell_count: usize,
    /// `cells × steps`.
    pub cells_processed: u64,
    /// Wall-clock seconds on the host.
    pub elapsed_seconds: f64,
    /// Cells per second (host) — Fig. 8's y-axis.
    pub cells_per_second: f64,
    /// Wire statistics (messages, bytes) for the projection.
    pub net: NetSnapshot,
    /// Raw parcelport counters (frames, parcels, coalesced batches, queue
    /// high-water mark).
    pub port: PortSnapshot,
    /// Aggregate work counters across localities.
    pub work: WorkEstimate,
    /// Aggregate scheduler statistics across localities.
    pub runtime_stats: amt::RuntimeStats,
    /// Leaves owned per locality (load balance diagnostic).
    pub owned_per_node: Vec<usize>,
    /// Unified counter dump (`/runtime/locality{N}/…`, `/comms/…`,
    /// `/gravity/…`, `/work/…`, `/energy/…`) sampled at the end of the run.
    pub counters: CounterSnapshot,
    /// Number of periodic counter samples taken (0 unless
    /// `--sample_interval_ms` was set).
    pub counter_samples: u64,
}

/// Per-locality domain component: a node-level driver plus what the
/// exchanges stage between actions.
struct Domain {
    driver: Driver,
    /// Owned leaves, leaf order.
    owned: Vec<NodeId>,
    /// Leaf positions of `owned`.
    owned_pos: Vec<usize>,
    /// Leaf positions whose data must be shipped to the peer.
    halo_out: Vec<usize>,
    /// Snapshot staged for the peer's halo pull.
    halo_snapshot: Vec<(u64, Vec<f64>)>,
    /// Own leaves' blocks (leaf position → wire blocks), staged for pull.
    blocks_snapshot: Vec<(u64, BlocksWire)>,
    /// Hydro stages the CFL phase built, consumed by the solve.
    stages: Vec<StageSlot>,
}

/// Serializable form of [`BlockSoA`] — the SoA lanes go on the wire as four
/// flat streams, same layout the SIMD kernels consume.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlocksWire {
    mass: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl From<&BlockSoA> for BlocksWire {
    fn from(b: &BlockSoA) -> Self {
        BlocksWire {
            mass: b.mass.to_vec(),
            x: b.x.to_vec(),
            y: b.y.to_vec(),
            z: b.z.to_vec(),
        }
    }
}

impl From<&BlocksWire> for BlockSoA {
    fn from(w: &BlocksWire) -> Self {
        let mut b = BlockSoA::zero();
        b.mass.copy_from_slice(&w.mass);
        b.x.copy_from_slice(&w.x);
        b.y.copy_from_slice(&w.y);
        b.z.copy_from_slice(&w.z);
        b
    }
}

/// Reply of `solve_step`: the locality's work for the step as its driver
/// billed it — cells stepped, far and near interactions, hydro and gravity
/// flops, bytes, MAC evaluations.
type StepReceipt = [u64; 7];

fn build_domain(cfg: OctoConfig, node: u32, nodes: u32) -> Domain {
    let mut driver = Driver::new(cfg);
    let tree = driver.tree();
    // Spatial split at x = 0 (supervisor keeps x < 0).
    let owned: Vec<bool> = tree
        .leaf_ids()
        .iter()
        .map(|&l| {
            if nodes == 1 {
                return true;
            }
            let (origin, dx) = tree.node_geometry(l);
            let cx = origin[0] + 4.0 * dx;
            if node == 0 {
                cx < 0.0
            } else {
                cx >= 0.0
            }
        })
        .collect();
    // Leaves with a face neighbour on the other side of the split: owned
    // ones are this side's halo; remote ones arrive as the peer's halo.
    // The ghost exchange reads no other remote leaf, so the replica frees
    // those leaves' field data.
    let leaf_pos = crate::gravity::leaf_positions(tree);
    let mut halo_out = Vec::new();
    let mut unread = Vec::new();
    for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
        let (origin, dxc) = tree.node_geometry(leaf);
        let size = tree.node_size(tree.node(leaf).level);
        let boundary = Face::ALL.into_iter().any(|face| {
            // Probe across the face; sampling covers level jumps.
            let mut p = origin.map(|o| o + size / 2.0);
            p[face.axis()] += face.sign() as f64 * (size / 2.0 + dxc / 2.0);
            p[face.axis()].abs() < 1.0 && owned[leaf_pos[tree.locate(p).0]] != owned[pos]
        });
        match (owned[pos], boundary) {
            (true, true) => halo_out.push(pos),
            (false, false) => unread.push(leaf),
            _ => {}
        }
    }
    let owned_pos: Vec<usize> = (0..owned.len()).filter(|&p| owned[p]).collect();
    let owned = owned_pos.iter().map(|&p| tree.leaf_ids()[p]).collect();
    for leaf in unread {
        driver.tree_mut().release_subgrid(leaf);
    }
    Domain {
        owned,
        owned_pos,
        halo_out,
        halo_snapshot: Vec::new(),
        blocks_snapshot: Vec::new(),
        stages: Vec::new(),
        driver,
    }
}

/// Register all domain actions on `cluster`.
fn register_actions(cluster: &Cluster) {
    // Stage the halo snapshot (owned boundary leaves' interior data).
    cluster.register_action("prepare_halo", |ctx: &LocalityHandle, gid, (): ()| -> u64 {
        ctx.with_component::<Domain, _>(gid, |d| {
            let tree = d.driver.tree();
            d.halo_snapshot = d
                .halo_out
                .iter()
                .map(|&pos| {
                    let leaf = tree.leaf_ids()[pos];
                    (pos as u64, tree.subgrid(leaf).interior_data())
                })
                .collect();
            d.halo_snapshot.len() as u64
        })
        .expect("domain component")
    });

    // Serve the staged halo.
    cluster.register_action(
        "get_halo",
        |ctx: &LocalityHandle, gid, (): ()| -> Vec<(u64, Vec<f64>)> {
            ctx.with_component::<Domain, _>(gid, |d| d.halo_snapshot.clone())
                .expect("domain component")
        },
    );

    // Pull the peer's halo and install it into the local tree replica.
    cluster.register_action(
        "pull_halo",
        |ctx: &LocalityHandle, gid, peer: Option<Gid>| -> u64 {
            let Some(peer) = peer else { return 0 };
            let halo: Vec<(u64, Vec<f64>)> = ctx.invoke(peer, "get_halo", &()).get();
            ctx.with_component::<Domain, _>(gid, |d| {
                let tree = d.driver.tree_mut();
                for (pos, data) in &halo {
                    let leaf = tree.leaf_ids()[*pos as usize];
                    tree.subgrid_mut(leaf).set_interior_data(data);
                }
                halo.len() as u64
            })
            .expect("domain component")
        },
    );

    // Ghost exchange + CFL over owned leaves: the local max rate.
    cluster.register_action(
        "local_max_rate",
        |ctx: &LocalityHandle, gid, (): ()| -> f64 {
            let handle = ctx.runtime();
            ctx.with_component::<Domain, _>(gid, |d| {
                d.driver.exchange_ghosts(&handle, &d.owned);
                let (max_rate, stages) = d.driver.cfl_phase(&handle, &d.owned);
                d.stages = stages;
                max_rate
            })
            .expect("domain component")
        },
    );

    // P2M for owned leaves; stage the wire snapshot for the peer.
    cluster.register_action(
        "prepare_blocks",
        |ctx: &LocalityHandle, gid, (): ()| -> u64 {
            let handle = ctx.runtime();
            ctx.with_component::<Domain, _>(gid, |d| {
                let blocks = d.driver.p2m_phase(&handle, &d.owned);
                d.blocks_snapshot = d
                    .owned_pos
                    .iter()
                    .zip(&blocks)
                    .map(|(&pos, b)| (pos as u64, BlocksWire::from(b)))
                    .collect();
                d.blocks_snapshot.len() as u64
            })
            .expect("domain component")
        },
    );

    cluster.register_action(
        "get_blocks",
        |ctx: &LocalityHandle, gid, (): ()| -> Vec<(u64, BlocksWire)> {
            ctx.with_component::<Domain, _>(gid, |d| d.blocks_snapshot.clone())
                .expect("domain component")
        },
    );

    // Pull peer blocks, then the back half of the step over owned leaves:
    // gravity (FMM over the complete mass distribution), hydro, apply.
    cluster.register_action(
        "solve_step",
        |ctx: &LocalityHandle, gid, (dt, peer): (f64, Option<Gid>)| -> StepReceipt {
            // Pull strictly *before* taking the component lock: the peer's
            // `get_blocks` needs its own lock, and both sides solving at
            // once must not deadlock.
            let peer_blocks: Vec<(u64, BlocksWire)> = match peer {
                Some(p) => ctx.invoke(p, "get_blocks", &()).get(),
                None => Vec::new(),
            };
            let handle = ctx.runtime();
            ctx.with_component::<Domain, _>(gid, |d| {
                let mut blocks: Vec<BlockSoA> = (0..d.driver.tree().leaf_count())
                    .map(|_| BlockSoA::zero())
                    .collect();
                for (pos, w) in d.blocks_snapshot.iter().chain(&peer_blocks) {
                    blocks[*pos as usize] = BlockSoA::from(w);
                }
                let before = d.driver.work();
                let stages = std::mem::take(&mut d.stages);
                let (accels, report) = d.driver.gravity_phase(&handle, &d.owned, &blocks);
                d.driver
                    .hydro_phase(&handle, &d.owned, stages, dt, &accels, report);
                let w = d.driver.work();
                [
                    (d.owned.len() * CELLS) as u64,
                    w.far_interactions - before.far_interactions,
                    w.near_interactions - before.near_interactions,
                    w.hydro_flops - before.hydro_flops,
                    w.gravity_flops - before.gravity_flops,
                    w.bytes - before.bytes,
                    w.mac_evals - before.mac_evals,
                ]
            })
            .expect("domain component")
        },
    );
}

/// Entry point for distributed runs.
pub struct DistRun;

impl DistRun {
    /// Execute a distributed rotating-star run and collect [`DistMetrics`].
    pub fn execute(config: DistConfig) -> DistMetrics {
        run(config).0
    }
}

/// Run `config` and hand back the still-live cluster and the per-locality
/// domain components, so tests can read the final state.
fn run(config: DistConfig) -> (DistMetrics, Cluster, Vec<Gid>) {
    assert!(
        (1..=2).contains(&config.nodes),
        "the in-house cluster has two boards"
    );
    let cluster = Cluster::new(ClusterConfig {
        localities: config.nodes,
        threads_per_locality: config.threads_per_node,
        backend: config.backend,
        coalesce: config.coalesce,
    });
    register_actions(&cluster);

    // Create one domain component per locality.
    let mut gids: Vec<Gid> = Vec::new();
    let mut owned_per_node = Vec::new();
    let mut leaf_count = 0;
    for node in 0..config.nodes {
        let domain = build_domain(config.octo.clone(), node, config.nodes);
        leaf_count = domain.driver.tree().leaf_count();
        owned_per_node.push(domain.owned.len());
        gids.push(cluster.locality(node).new_component(domain));
    }
    let cell_count = leaf_count * CELLS;
    let supervisor = cluster.locality(0);
    cluster.reset_net_stats();

    let peer_of = |i: usize| -> Option<Gid> {
        if config.nodes == 2 {
            Some(gids[1 - i])
        } else {
            None
        }
    };

    let mut registry = CounterRegistry::new();
    cluster.register_counters(&mut registry);
    let mut harness = RunHarness::start(&config.octo, registry);
    // The supervising thread gets its own Chrome lane, distinct from
    // every locality pid: its phase envelopes span whole remote
    // exchanges, and folding them into locality 0's lane would hide
    // the wire legs from the distributed critical-path analysis.
    trace::set_thread_label(config.nodes, trace::ThreadLabel::Named("driver"));
    harness.sample_step(CounterRegistry::sample);

    let start = std::time::Instant::now();
    let steps = config.octo.stop_step;
    for step in 0..steps {
        // Stamp the step index so queue-depth high-water marks can be
        // attributed to the step that produced them.
        cluster.note_step(u64::from(step));
        // Phase barriers driven from the supervisor, mirroring the
        // paper's supervisor/delegate roles.
        let barrier_u64 = |action: &str, with_peer: bool| {
            let futs: Vec<amt::Future<u64>> = gids
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    if with_peer {
                        supervisor.invoke(g, action, &peer_of(i))
                    } else {
                        supervisor.invoke(g, action, &())
                    }
                })
                .collect();
            amt::when_all(futs).get();
        };
        {
            let _span = trace::span(Cat::Phase, "halo_exchange");
            barrier_u64("prepare_halo", false);
            barrier_u64("pull_halo", true);
        }
        let dt = {
            let _span = trace::span(Cat::Phase, "cfl_reduction");
            let rates: Vec<f64> = amt::when_all(
                gids.iter()
                    .map(|&g| supervisor.invoke(g, "local_max_rate", &()))
                    .collect(),
            )
            .get();
            config.octo.cfl / rates.iter().copied().fold(1e-30_f64, f64::max)
        };
        {
            // P2M + block exchange: the distributed gravity front half.
            let _span = trace::span(Cat::Phase, "gravity_solve");
            barrier_u64("prepare_blocks", false);
        }
        {
            // Gravity back half + hydro + apply, per locality in `solve_step`.
            let _span = trace::span(Cat::Phase, "hydro_step");
            let receipts: Vec<StepReceipt> = amt::when_all(
                gids.iter()
                    .enumerate()
                    .map(|(i, &g)| supervisor.invoke(g, "solve_step", &(dt, peer_of(i))))
                    .collect(),
            )
            .get();
            let stepped: u64 = receipts.iter().map(|r| r[0]).sum();
            assert_eq!(stepped, cell_count as u64, "every cell stepped once");
        }
        harness.sample_step(CounterRegistry::sample);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Close any open coalescer batches so the port counters are final.
    {
        let _span = trace::span(Cat::Phase, "comm_flush");
        cluster.flush_network();
    }

    // Sum the localities' work; cache counters stay per locality.
    let mut work = WorkEstimate::default();
    let mut counters = harness.registry().sample();
    for (i, &g) in gids.iter().enumerate() {
        let (w, cache) = cluster
            .locality(i as u32)
            .with_component::<Domain, _>(g, |d| (d.driver.work(), d.driver.cache_stats()))
            .expect("domain component");
        work += w;
        counters.set_count(format!("/gravity/locality{i}/cache_hits"), cache.hits);
        counters.set_count(format!("/gravity/locality{i}/cache_misses"), cache.misses);
    }
    work.counters_into(&mut counters);
    rv_machine::energy_counters_into(
        &mut counters,
        rv_machine::CpuArch::Jh7110,
        config.nodes,
        config.threads_per_node as u32,
        elapsed,
    );
    let counter_samples = harness.finish("distributed", &counters);

    let cells_processed = cell_count as u64 * u64::from(steps);
    let metrics = DistMetrics {
        nodes: config.nodes,
        steps,
        leaf_count,
        cell_count,
        cells_processed,
        elapsed_seconds: elapsed,
        cells_per_second: cells_processed as f64 / elapsed.max(1e-12),
        net: cluster.net_stats(),
        port: cluster.port_stats(),
        work,
        runtime_stats: cluster.runtime_stats(),
        owned_per_node,
        counters,
        counter_samples,
    };
    (metrics, cluster, gids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;

    fn tiny(nodes: u32, backend: NetBackend) -> DistConfig {
        DistConfig {
            nodes,
            threads_per_node: 2,
            backend,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig {
                max_level: 1,
                stop_step: 2,
                threads: 2,
                ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
            },
        }
    }

    #[test]
    fn single_node_run_has_no_wire_traffic() {
        let m = DistRun::execute(tiny(1, NetBackend::Tcp));
        assert_eq!(m.nodes, 1);
        assert_eq!(m.net.messages, 0, "single locality stays off the wire");
        assert!(m.net.local_actions > 0);
        assert!(m.cells_per_second > 0.0);
        assert_eq!(m.owned_per_node, vec![m.leaf_count]);
    }

    #[test]
    fn two_node_run_exchanges_real_bytes() {
        let m = DistRun::execute(tiny(2, NetBackend::Tcp));
        assert_eq!(m.nodes, 2);
        assert!(m.net.messages > 0);
        assert!(
            m.net.bytes > 10_000,
            "halo + blocks are real payloads: {}",
            m.net.bytes
        );
        assert_eq!(m.owned_per_node.iter().sum::<usize>(), m.leaf_count);
        // The x = 0 split of a centred star is balanced.
        let diff = m.owned_per_node[0].abs_diff(m.owned_per_node[1]);
        assert!(
            diff <= m.leaf_count / 4,
            "imbalanced split: {:?}",
            m.owned_per_node
        );
    }

    /// Interior data of every leaf a locality owns, keyed on leaf
    /// position, after running `config`.
    fn owned_final_state(config: DistConfig) -> Vec<(usize, Vec<f64>)> {
        let (_, cluster, gids) = run(config);
        let mut state = Vec::new();
        for (i, &g) in gids.iter().enumerate() {
            cluster
                .locality(i as u32)
                .with_component::<Domain, _>(g, |d| {
                    for (&pos, &leaf) in d.owned_pos.iter().zip(&d.owned) {
                        state.push((pos, d.driver.tree().subgrid(leaf).interior_data()));
                    }
                })
                .expect("domain component");
        }
        state
    }

    fn host_tasks(octo: OctoConfig, n: usize) -> OctoConfig {
        OctoConfig {
            monopole_host_tasks: n,
            multipole_host_tasks: n,
            hydro_host_tasks: n,
            ..octo
        }
    }

    #[test]
    fn two_node_matches_single_node_shape() {
        // Every owned leaf ends bitwise equal to the node driver's, on one
        // and two localities, whatever the aggregation batch sizes on
        // either side and with the node step futurized or barriered.
        for max_level in [2, 3] {
            let octo = OctoConfig {
                max_level,
                stop_step: 3,
                threads: 2,
                ..OctoConfig::default()
            };
            let node_state = |futurize: bool, tasks: usize| {
                let mut d = crate::Driver::new(OctoConfig {
                    futurize,
                    ..host_tasks(octo.clone(), tasks)
                });
                let rt = amt::Runtime::new(2);
                for _ in 0..octo.stop_step {
                    d.step(&rt);
                }
                let tree = d.tree();
                let state: Vec<Vec<f64>> = tree
                    .leaf_ids()
                    .iter()
                    .map(|&l| tree.subgrid(l).interior_data())
                    .collect();
                state
            };
            let reference = node_state(false, 1);
            for futurize in [false, true] {
                for tasks in [1, 4] {
                    assert!(
                        node_state(futurize, tasks) == reference,
                        "node driver, level {max_level}, futurize {futurize}, host_tasks {tasks}"
                    );
                }
            }
            for nodes in [1, 2] {
                for tasks in [1, 4] {
                    let mut cfg = tiny(nodes, NetBackend::Tcp);
                    cfg.octo = host_tasks(octo.clone(), tasks);
                    let state = owned_final_state(cfg);
                    let mut seen: Vec<usize> = state.iter().map(|(pos, _)| *pos).collect();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..reference.len()).collect::<Vec<_>>());
                    let differ = state
                        .iter()
                        .filter(|(pos, data)| *data != reference[*pos])
                        .count();
                    assert_eq!(
                        differ,
                        0,
                        "{differ}/{} leaves differ: level {max_level}, {nodes} localities, \
                         host_tasks {tasks}",
                        state.len()
                    );
                }
            }
        }
    }

    #[test]
    fn mpi_and_tcp_same_messages_different_backend() {
        let t = DistRun::execute(tiny(2, NetBackend::Tcp));
        let m = DistRun::execute(tiny(2, NetBackend::Mpi));
        // Identical communication pattern; the backend only changes the
        // modelled link cost (consumed by the Fig. 8 projection).
        assert_eq!(t.net.messages, m.net.messages);
        assert_eq!(t.net.bytes, m.net.bytes);
    }

    #[test]
    fn lci_backend_same_traffic_as_tcp() {
        let t = DistRun::execute(tiny(2, NetBackend::Tcp));
        let l = DistRun::execute(tiny(2, NetBackend::Lci));
        // The explicit-progress port carries the identical communication
        // pattern; only the modelled link cost differs.
        assert_eq!(t.net.messages, l.net.messages);
        assert_eq!(t.net.bytes, l.net.bytes);
        assert_eq!(t.port.parcels, l.port.parcels);
    }

    #[test]
    fn coalescing_preserves_parcels_and_never_inflates_frames() {
        let base = DistRun::execute(tiny(2, NetBackend::Tcp));
        let mut cfg = tiny(2, NetBackend::Tcp);
        cfg.coalesce = CoalesceConfig::enabled();
        let coal = DistRun::execute(cfg);
        // Same application → same parcels; batching can only merge frames.
        assert_eq!(coal.port.parcels, base.port.parcels);
        assert!(
            coal.port.messages <= base.port.messages,
            "coalesced {} > baseline {}",
            coal.port.messages,
            base.port.messages
        );
        assert_eq!(base.port.batches, 0, "baseline runs uncoalesced");
    }

    #[test]
    fn from_octo_honours_parcelport_flag() {
        let octo = OctoConfig::from_args(["--hpx:parcelport=lci", "--hpx:threads=2"]).unwrap();
        let cfg = DistConfig::from_octo(2, octo);
        assert_eq!(cfg.backend, NetBackend::Lci);
        assert_eq!(cfg.threads_per_node, 2);
        assert!(!cfg.coalesce.enabled, "coalescing stays off unless asked");
        let octo = OctoConfig::from_args(["--coalesce=on"]).unwrap();
        assert!(DistConfig::from_octo(2, octo).coalesce.enabled);
    }

    #[test]
    #[should_panic(expected = "two boards")]
    fn three_nodes_rejected() {
        let _ = DistRun::execute(tiny(3, NetBackend::Tcp));
    }
}

//! The adaptive octree — Octo-Tiger's central data structure (paper §3.3):
//! a tree over the cubic domain whose *leaves* carry 8×8×8 sub-grids, refined
//! where the star's mass sits, with 2:1 level grading between face
//! neighbours.
//!
//! In real Octo-Tiger every tree node is an HPX component; here the tree is
//! the node-level structure, and `dist_driver` layers the component/locality
//! split on top.
//!
//! # Storage
//!
//! Node metadata lives in structure-of-arrays lanes (`levels`, `coords`,
//! `parents`, `first_child`) instead of an array of fat `Node` structs: at
//! level 5–6 the tree holds 10⁵–10⁶ nodes and the old 96-byte AoS node (two
//! `Option`s, one of them `[NodeId; 8]` = 64 bytes of children pointers)
//! dominated resident metadata. [`Octree::refine`] always pushes the 8
//! children contiguously, so the children array compresses to a single
//! `first_child: u32` index (`u32::MAX` = leaf) and the `(level, coords)`
//! index key packs into one `u64`. [`Octree::node`] materialises the classic
//! [`Node`] view on demand for callers.
//!
//! # Regrid
//!
//! Mid-run refinement is a three-phase *sweep* so the driver can run the
//! expensive part in parallel:
//!
//! 1. [`Octree::begin_regrid`] — serial: split the requested leaves
//!    structurally and run the 2:1 grading closure (a worklist fixpoint),
//!    returning every `(parent, children)` split of the sweep. Parent
//!    sub-grids stay in place.
//! 2. [`Octree::prolongate_children`] — pure `&self`: compute one split's 8
//!    child sub-grids from the parent's data. Safe to fan out as parallel
//!    tasks.
//! 3. [`Octree::finish_regrid`] — serial: install the child grids, drop the
//!    parent data, bump the topology generation **once for the whole
//!    sweep**, append the sweep's splits to the split log and re-collect the
//!    leaf order.
//!
//! The split log ([`Octree::splits_since`]) is what lets the gravity layer
//! invalidate incrementally: a consumer holding lists built at generation
//! `g0` can ask exactly which nodes stopped being leaves since then.

use std::collections::HashMap;

use crate::config::OctoConfig;
use crate::star::{InitialModel, RotatingStar, NF};
use crate::subgrid::{Face, SubGrid, NG, NT, NX};

/// Index of a node within the tree arena.
pub type NodeId = usize;

/// Sentinel for "no node" in the compressed u32 lanes.
const NONE: u32 = u32::MAX;

/// Heap bytes of one leaf's field data (`[NF][NT][NT][NT]` f64).
pub const SUBGRID_BYTES: usize = NF * NT * NT * NT * std::mem::size_of::<f64>();

/// A by-value view of one octree node, materialised from the SoA lanes.
/// Only leaves own a [`SubGrid`]; query that with [`Octree::has_subgrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Refinement level (root = 0).
    pub level: u32,
    /// Integer position of the node within its level (0..2^level per axis).
    pub coords: [u32; 3],
    /// Parent node (None for the root).
    pub parent: Option<NodeId>,
    /// Children in z-major order (index = 4x + 2y + z), if refined.
    pub children: Option<[NodeId; 8]>,
}

/// The adaptive octree over `[-L, L]³`.
#[derive(Debug)]
pub struct Octree {
    /// Per-node refinement level (root = 0). Levels are capped at 8 by
    /// config validation, so a byte is plenty.
    levels: Vec<u8>,
    /// Per-node integer position within its level.
    coords: Vec<[u32; 3]>,
    /// Per-node parent id (`NONE` for the root).
    parents: Vec<u32>,
    /// Per-node first-child id (`NONE` = leaf). Children of a refined node
    /// are the 8 consecutive ids starting here (z-major order).
    first_child: Vec<u32>,
    /// Per-node field data (data-carrying leaves only).
    subgrids: Vec<Option<SubGrid>>,
    leaves: Vec<NodeId>,
    /// `(level, coords)` → node id, key packed into one u64.
    index: HashMap<u64, u32>,
    domain_half: f64,
    max_level: u32,
    generation: u64,
    /// `(generation after the split, node id)` for every node that stopped
    /// being a leaf mid-run, in generation order. Build-time refinement is
    /// not logged (nothing can hold a stale view of generation 0).
    split_log: Vec<(u64, u32)>,
}

/// Pack a `(level, coords)` index key into one u64 (16 bits per component;
/// levels are ≤ 8 so coordinates fit in 9 bits).
fn key(level: u32, c: [u32; 3]) -> u64 {
    debug_assert!(level <= 16 && c.iter().all(|&x| x < 1 << 16));
    (u64::from(level) << 48) | (u64::from(c[0]) << 32) | (u64::from(c[1]) << 16) | u64::from(c[2])
}

impl Octree {
    /// Build the tree for `star` under `config` (the paper's single
    /// rotating star).
    pub fn build(star: &RotatingStar, config: &OctoConfig, domain_half: f64) -> Self {
        Self::build_with_model(star, config, domain_half)
    }

    /// Build the tree for any [`InitialModel`]: refine wherever the model's
    /// density exceeds `refine_density_frac × ρ_ref` down to `max_level`,
    /// enforce 2:1 face grading, then allocate and initialize leaf
    /// sub-grids.
    pub fn build_with_model<M: InitialModel>(
        star: &M,
        config: &OctoConfig,
        domain_half: f64,
    ) -> Self {
        assert!(domain_half > 0.0);
        let mut tree = Octree {
            levels: Vec::new(),
            coords: Vec::new(),
            parents: Vec::new(),
            first_child: Vec::new(),
            subgrids: Vec::new(),
            leaves: Vec::new(),
            index: HashMap::new(),
            domain_half,
            max_level: config.max_level,
            generation: 0,
            split_log: Vec::new(),
        };
        let root = tree.push_node(0, [0, 0, 0], NONE);
        // Density-driven refinement.
        let threshold = config.refine_density_frac * star.reference_density();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let (level, coords) = (u32::from(tree.levels[id]), tree.coords[id]);
            if level < config.max_level && tree.region_max_density(star, level, coords) > threshold
            {
                for child in tree.refine(id) {
                    stack.push(child);
                }
            }
        }
        // Grading closure over everything refined so far.
        let refined: Vec<NodeId> = (0..tree.len()).filter(|&id| !tree.is_leaf(id)).collect();
        tree.enforce_grading(refined, |_, _| {});
        tree.collect_leaves();
        // Allocate + initialize leaf sub-grids.
        for &leaf in &tree.leaves.clone() {
            let (origin, dx) = tree.node_geometry(leaf);
            let mut grid = SubGrid::new(origin, dx);
            grid.init_from_model(star);
            tree.subgrids[leaf] = Some(grid);
        }
        tree
    }

    fn len(&self) -> usize {
        self.levels.len()
    }

    fn is_leaf(&self, id: NodeId) -> bool {
        self.first_child[id] == NONE
    }

    fn push_node(&mut self, level: u32, coords: [u32; 3], parent: u32) -> NodeId {
        let id = self.len();
        self.levels.push(level as u8);
        self.coords.push(coords);
        self.parents.push(parent);
        self.first_child.push(NONE);
        self.subgrids.push(None);
        self.index.insert(key(level, coords), id as u32);
        id
    }

    fn refine(&mut self, id: NodeId) -> [NodeId; 8] {
        assert!(self.is_leaf(id), "node already refined");
        let (level, c) = (u32::from(self.levels[id]), self.coords[id]);
        let first = self.len() as u32;
        let mut kids = [0; 8];
        for (n, kid) in kids.iter_mut().enumerate() {
            let d = [(n >> 2) as u32 & 1, (n >> 1) as u32 & 1, n as u32 & 1];
            *kid = self.push_node(
                level + 1,
                [2 * c[0] + d[0], 2 * c[1] + d[1], 2 * c[2] + d[2]],
                id as u32,
            );
        }
        self.first_child[id] = first;
        kids
    }

    /// Topology generation: bumped once per regrid *sweep* that actually
    /// split at least one node. Consumers that cache topology-derived data —
    /// the gravity interaction lists, the solver workspace — key on this
    /// counter, and can recover the exact set of splits between two
    /// generations from [`Octree::splits_since`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Nodes that stopped being leaves after generation `g0`, oldest first.
    /// The log only records mid-run splits, so a consumer whose snapshot is
    /// at `g0` rebuilds exactly the lists these nodes invalidate.
    pub fn splits_since(&self, g0: u64) -> impl Iterator<Item = NodeId> + '_ {
        let start = self.split_log.partition_point(|&(g, _)| g <= g0);
        self.split_log[start..].iter().map(|&(_, id)| id as usize)
    }

    /// Refine one leaf in place mid-run (dynamic AMR) as a one-leaf sweep:
    /// split it into 8 children, prolongate the leaf's fields onto them
    /// piecewise-constant (conservative: each child cell copies its covering
    /// parent cell), restore the 2:1 face grading by refining any
    /// now-too-coarse neighbour leaves the same way, bump the topology
    /// generation once and re-collect the leaf order. Returns the 8 children
    /// of `leaf`.
    ///
    /// Refining an already-refined node is a no-op: the existing children
    /// are returned and the generation counter is *not* bumped, so cached
    /// topology-derived data (the interaction lists) stays valid instead of
    /// being discarded for a refinement that changed nothing.
    pub fn refine_leaf(&mut self, leaf: NodeId) -> [NodeId; 8] {
        if let Some(kids) = self.children_of(leaf) {
            return kids;
        }
        self.regrid(&[leaf]);
        self.children_of(leaf).expect("leaf was split by the sweep")
    }

    /// One serial regrid sweep: split every requested leaf (already-refined
    /// entries are skipped), restore grading, prolongate and install child
    /// data, and finalize with a single generation bump. Returns the sweep's
    /// splits. The driver's parallel regrid drives the same three phases
    /// with the prolongation fanned out as tasks.
    pub fn regrid(&mut self, requested: &[NodeId]) -> Vec<(NodeId, [NodeId; 8])> {
        let splits = self.begin_regrid(requested);
        let installs = splits
            .iter()
            .map(|&(parent, _)| (parent, self.prolongate_children(parent)))
            .collect();
        self.finish_regrid(installs);
        splits
    }

    /// Phase 1 of a regrid sweep: structurally split the requested leaves
    /// (skipping any that are already refined) and run the 2:1 grading
    /// closure. Parent sub-grids are left in place for
    /// [`Octree::prolongate_children`]; the generation, split log and leaf
    /// order are untouched until [`Octree::finish_regrid`].
    pub fn begin_regrid(&mut self, requested: &[NodeId]) -> Vec<(NodeId, [NodeId; 8])> {
        let mut splits = Vec::new();
        let mut seed = Vec::new();
        for &leaf in requested {
            if !self.is_leaf(leaf) {
                continue;
            }
            let kids = self.refine(leaf);
            splits.push((leaf, kids));
            seed.push(leaf);
        }
        self.enforce_grading(seed, |id, kids| splits.push((id, kids)));
        splits
    }

    /// Phase 2 of a regrid sweep: prolongate one split parent's fields onto
    /// its 8 children, piecewise constant (conservative: each child cell
    /// copies its covering parent cell). Pure read — the driver fans these
    /// out as parallel tasks over the sweep's splits.
    pub fn prolongate_children(&self, parent: NodeId) -> [SubGrid; 8] {
        let parent_grid = self.subgrids[parent]
            .as_ref()
            .expect("regrid splits a data-carrying leaf");
        let fc = self.first_child[parent] as usize;
        std::array::from_fn(|n| {
            let d = [(n >> 2) & 1, (n >> 1) & 1, n & 1];
            let (origin, dx) = self.node_geometry(fc + n);
            let mut grid = SubGrid::new(origin, dx);
            for f in 0..NF {
                for i in 0..NX {
                    for j in 0..NX {
                        for k in 0..NX {
                            let v = parent_grid.at(
                                f,
                                (d[0] * NX / 2 + i / 2) as i64,
                                (d[1] * NX / 2 + j / 2) as i64,
                                (d[2] * NX / 2 + k / 2) as i64,
                            );
                            grid.set(f, i as i64, j as i64, k as i64, v);
                        }
                    }
                }
            }
            grid
        })
    }

    /// Phase 3 of a regrid sweep: install the prolongated child grids, drop
    /// the parent data, append the sweep's splits to the split log, bump the
    /// generation **once** and re-collect the leaf order. An empty sweep
    /// (every requested leaf was already refined) leaves the generation
    /// untouched so caches stay warm.
    pub fn finish_regrid(&mut self, installs: Vec<(NodeId, [SubGrid; 8])>) {
        if installs.is_empty() {
            return;
        }
        self.generation += 1;
        for (parent, grids) in installs {
            self.split_log.push((self.generation, parent as u32));
            self.max_level = self.max_level.max(u32::from(self.levels[parent]) + 1);
            self.subgrids[parent] = None;
            let fc = self.first_child[parent] as usize;
            for (n, grid) in grids.into_iter().enumerate() {
                self.subgrids[fc + n] = Some(grid);
            }
        }
        self.collect_leaves();
    }

    /// Max model density sampled on a 5³ lattice over the node's region.
    fn region_max_density<M: InitialModel>(&self, star: &M, level: u32, coords: [u32; 3]) -> f64 {
        let size = self.node_size(level);
        let origin = self.node_origin(level, coords);
        let mut max = 0.0f64;
        let samples = 5;
        for a in 0..samples {
            for b in 0..samples {
                for c in 0..samples {
                    let p = [
                        origin[0] + size * (a as f64 + 0.5) / samples as f64,
                        origin[1] + size * (b as f64 + 0.5) / samples as f64,
                        origin[2] + size * (c as f64 + 0.5) / samples as f64,
                    ];
                    max = max.max(star.density_at(p[0], p[1], p[2]));
                }
            }
        }
        max
    }

    /// Enforce 2:1 grading as a worklist fixpoint: every refined node's
    /// same-level face neighbours must exist; refine covering leaves until
    /// they do. Node creation is monotone (no node is ever removed), so an
    /// invariant that held before the sweep can only be broken by this
    /// sweep's own splits — the worklist starts from those and re-checks a
    /// node only while a covering split is still coarser than required. This
    /// replaces the old whole-tree rescan per fixpoint pass, which at 10⁵
    /// nodes cost O(nodes) per *refined leaf*.
    fn enforce_grading(
        &mut self,
        seed: Vec<NodeId>,
        mut on_split: impl FnMut(NodeId, [NodeId; 8]),
    ) {
        let mut work = seed;
        while let Some(id) = work.pop() {
            if self.is_leaf(id) {
                continue; // only refined nodes carry the neighbour requirement
            }
            let (level, coords) = (u32::from(self.levels[id]), self.coords[id]);
            let mut recheck = false;
            for face in Face::ALL {
                let Some(nc) = self.neighbor_coords(level, coords, face) else {
                    continue;
                };
                if self.index.contains_key(&key(level, nc)) {
                    continue;
                }
                // Find the covering leaf (some strict ancestor of the
                // missing position) and split it.
                let cover = self.deepest_node_at(level, nc);
                if self.is_leaf(cover) {
                    let kids = self.refine(cover);
                    on_split(cover, kids);
                    work.push(cover);
                }
                // The cover may still be coarser than `level − 1`; the node
                // at `(level, nc)` then still doesn't exist, so come back.
                if u32::from(self.levels[cover]) + 1 < level {
                    recheck = true;
                }
            }
            if recheck {
                work.push(id);
            }
        }
    }

    /// Deepest existing node whose region contains the position
    /// `(level, coords)` (may be that node itself).
    fn deepest_node_at(&self, level: u32, coords: [u32; 3]) -> NodeId {
        let mut l = level;
        let mut c = coords;
        loop {
            if let Some(&id) = self.index.get(&key(l, c)) {
                return id as usize;
            }
            assert!(l > 0, "root must exist");
            l -= 1;
            c = [c[0] / 2, c[1] / 2, c[2] / 2];
        }
    }

    /// Same-level neighbour coordinates across `face`, or `None` at the
    /// domain boundary.
    pub fn neighbor_coords(&self, level: u32, coords: [u32; 3], face: Face) -> Option<[u32; 3]> {
        let n = 1u32 << level;
        let axis = face.axis();
        let mut c = coords;
        match face.sign() {
            -1 => {
                if c[axis] == 0 {
                    return None;
                }
                c[axis] -= 1;
            }
            _ => {
                if c[axis] + 1 >= n {
                    return None;
                }
                c[axis] += 1;
            }
        }
        Some(c)
    }

    fn collect_leaves(&mut self) {
        let mut leaves: Vec<NodeId> = (0..self.len()).filter(|&i| self.is_leaf(i)).collect();
        // Deterministic order: by (level, Morton-ish coords).
        leaves.sort_by_key(|&i| (self.levels[i], self.coords[i]));
        self.leaves = leaves;
    }

    /// Edge length of a node at `level`.
    pub fn node_size(&self, level: u32) -> f64 {
        2.0 * self.domain_half / f64::from(1u32 << level)
    }

    fn node_origin(&self, level: u32, coords: [u32; 3]) -> [f64; 3] {
        let size = self.node_size(level);
        [
            -self.domain_half + f64::from(coords[0]) * size,
            -self.domain_half + f64::from(coords[1]) * size,
            -self.domain_half + f64::from(coords[2]) * size,
        ]
    }

    /// (origin, cell width) of a node's sub-grid.
    pub fn node_geometry(&self, id: NodeId) -> ([f64; 3], f64) {
        let level = u32::from(self.levels[id]);
        let origin = self.node_origin(level, self.coords[id]);
        (origin, self.node_size(level) / NX as f64)
    }

    /// Leaf ids in deterministic order.
    pub fn leaf_ids(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Total interior cells (`leaves × 512` — the paper's "606208 cells"
    /// metric for level 4).
    pub fn cell_count(&self) -> usize {
        self.leaves.len() * crate::subgrid::CELLS
    }

    /// Total node count (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.len()
    }

    /// Node metadata + field-data bytes resident in this tree (SoA lanes,
    /// index, leaf order, sub-grids). Feeds the arena high-water mark that
    /// backs `/runtime/peak_rss_bytes` when the OS counter is unavailable.
    pub fn resident_bytes(&self) -> u64 {
        let lanes = self.levels.capacity()
            + self.coords.capacity() * std::mem::size_of::<[u32; 3]>()
            + self.parents.capacity() * 4
            + self.first_child.capacity() * 4
            + self.subgrids.capacity() * std::mem::size_of::<Option<SubGrid>>();
        let index = self.index.len() * (std::mem::size_of::<u64>() + 4);
        let leaves = self.leaves.capacity() * std::mem::size_of::<NodeId>();
        let grids = self.subgrids.iter().flatten().count() * SUBGRID_BYTES;
        let log = self.split_log.capacity() * std::mem::size_of::<(u64, u32)>();
        (lanes + index + leaves + grids + log) as u64
    }

    /// Materialise the classic node view for `id` from the SoA lanes.
    pub fn node(&self, id: NodeId) -> Node {
        Node {
            level: u32::from(self.levels[id]),
            coords: self.coords[id],
            parent: (self.parents[id] != NONE).then(|| self.parents[id] as usize),
            children: self.children_of(id),
        }
    }

    /// Children of `id` (z-major order), if refined. The 8 children are
    /// always pushed consecutively, so they are recovered from the stored
    /// first-child index.
    pub fn children_of(&self, id: NodeId) -> Option<[NodeId; 8]> {
        let fc = self.first_child[id];
        (fc != NONE).then(|| std::array::from_fn(|n| fc as usize + n))
    }

    /// Whether `id` currently carries field data (i.e. is a data leaf).
    pub fn has_subgrid(&self, id: NodeId) -> bool {
        self.subgrids[id].is_some()
    }

    /// Free a leaf's field data but keep the leaf in the topology (a
    /// distributed replica drops the remote leaves it never reads); any
    /// later access to its sub-grid panics.
    pub(crate) fn release_subgrid(&mut self, id: NodeId) {
        self.subgrids[id] = None;
    }

    /// Node id at exactly `(level, coords)`, if that node exists.
    pub fn node_at(&self, level: u32, coords: [u32; 3]) -> Option<NodeId> {
        self.index.get(&key(level, coords)).map(|&id| id as usize)
    }

    /// Mutable access to a leaf's sub-grid.
    pub fn subgrid_mut(&mut self, id: NodeId) -> &mut SubGrid {
        self.subgrids[id]
            .as_mut()
            .expect("node is not a leaf with data")
    }

    /// Immutable access to a leaf's sub-grid.
    pub fn subgrid(&self, id: NodeId) -> &SubGrid {
        self.subgrids[id]
            .as_ref()
            .expect("node is not a leaf with data")
    }

    /// Maximum refinement level present.
    pub fn deepest_level(&self) -> u32 {
        self.leaves
            .iter()
            .map(|&l| u32::from(self.levels[l]))
            .max()
            .unwrap_or(0)
    }

    /// Locate the leaf containing physical position `p` (clamped into the
    /// domain) and return `(leaf, cell index)`.
    pub fn locate(&self, p: [f64; 3]) -> (NodeId, [usize; 3]) {
        let eps = 1e-12;
        let clamp = |x: f64| x.clamp(-self.domain_half + eps, self.domain_half - eps);
        let q = [clamp(p[0]), clamp(p[1]), clamp(p[2])];
        let mut id: NodeId = 0; // the root is always node 0
        while self.first_child[id] != NONE {
            let fc = self.first_child[id] as usize;
            let level = u32::from(self.levels[id]);
            let size = self.node_size(level);
            let origin = self.node_origin(level, self.coords[id]);
            let half = size / 2.0;
            let ix = usize::from(q[0] >= origin[0] + half);
            let iy = usize::from(q[1] >= origin[1] + half);
            let iz = usize::from(q[2] >= origin[2] + half);
            id = fc + 4 * ix + 2 * iy + iz;
        }
        let (origin, dx) = self.node_geometry(id);
        let cell = |x: f64, o: f64| (((x - o) / dx) as usize).min(NX - 1);
        (
            id,
            [
                cell(q[0], origin[0]),
                cell(q[1], origin[1]),
                cell(q[2], origin[2]),
            ],
        )
    }

    /// Sample conserved field `f` at physical position `p` (piecewise
    /// constant).
    pub fn sample(&self, f: usize, p: [f64; 3]) -> f64 {
        let (leaf, c) = self.locate(p);
        self.subgrid(leaf)
            .at(f, c[0] as i64, c[1] as i64, c[2] as i64)
    }

    /// Ghost data for one face of one leaf (read-only; apply with
    /// [`Octree::apply_ghost`]). Uses the fast same-level slab copy when the
    /// face neighbour is a same-level leaf, physical sampling (handling
    /// coarse neighbours, fine neighbours and the outflow domain boundary)
    /// otherwise.
    pub fn ghost_data_for(&self, leaf: NodeId, face: Face) -> Vec<f64> {
        let (level, coords) = (u32::from(self.levels[leaf]), self.coords[leaf]);
        if let Some(nc) = self.neighbor_coords(level, coords, face) {
            if let Some(nid) = self.node_at(level, nc) {
                if self.is_leaf(nid) {
                    return self.subgrid(nid).face_slab(face.opposite());
                }
            }
        }
        // Generic path: sample every ghost cell position.
        let grid = self.subgrid(leaf);
        let mut out = Vec::with_capacity(NF * NG * NX * NX);
        for f in 0..NF {
            for d in 0..NG as i64 {
                for a in 0..NX as i64 {
                    for b in 0..NX as i64 {
                        let (i, j, k) = ghost_index(face, d, a, b);
                        let p = grid.cell_center(i, j, k);
                        out.push(self.sample(f, p));
                    }
                }
            }
        }
        out
    }

    /// Whether [`Octree::ghost_data_for`] can use the fast same-level slab
    /// copy for this face (false = per-cell tree-descent sampling, the
    /// latency-bound path the machine model charges per sample).
    pub fn ghost_fast_path(&self, leaf: NodeId, face: Face) -> bool {
        let (level, coords) = (u32::from(self.levels[leaf]), self.coords[leaf]);
        if let Some(nc) = self.neighbor_coords(level, coords, face) {
            if let Some(nid) = self.node_at(level, nc) {
                return self.is_leaf(nid);
            }
        }
        false
    }

    /// Install ghost data produced by [`Octree::ghost_data_for`].
    pub fn apply_ghost(&mut self, leaf: NodeId, face: Face, data: &[f64]) {
        self.subgrid_mut(leaf).set_ghost_slab(face, data);
    }

    /// Fill every leaf's face ghosts (sequential reference version; the
    /// driver runs the gather phase as parallel tasks).
    pub fn fill_ghosts(&mut self) {
        let work: Vec<(NodeId, Face, Vec<f64>)> = self
            .leaves
            .clone()
            .into_iter()
            .flat_map(|leaf| {
                Face::ALL
                    .into_iter()
                    .map(move |face| (leaf, face))
                    .collect::<Vec<_>>()
            })
            .map(|(leaf, face)| (leaf, face, self.ghost_data_for(leaf, face)))
            .collect();
        for (leaf, face, data) in work {
            self.apply_ghost(leaf, face, &data);
        }
    }

    /// Total mass over all leaves (conservation diagnostics).
    pub fn total_mass(&self) -> f64 {
        self.leaves.iter().map(|&l| self.subgrid(l).mass()).sum()
    }

    /// Volume integral of an arbitrary field over all leaves.
    pub fn total_integral(&self, f: usize) -> f64 {
        self.leaves
            .iter()
            .map(|&l| self.subgrid(l).integral(f))
            .sum()
    }

    /// Verify the 2:1 grading invariant by brute force (test helper).
    pub fn is_balanced(&self) -> bool {
        for &leaf in &self.leaves {
            let level = u32::from(self.levels[leaf]);
            let (origin, _) = self.node_geometry(leaf);
            let size = self.node_size(level);
            // Probe points just across each face.
            for face in Face::ALL {
                let mut p = [
                    origin[0] + size / 2.0,
                    origin[1] + size / 2.0,
                    origin[2] + size / 2.0,
                ];
                p[face.axis()] += face.sign() as f64 * (size / 2.0 + size / 16.0);
                if p[face.axis()].abs() >= self.domain_half {
                    continue;
                }
                let (nl, _) = self.locate(p);
                let diff = i64::from(self.levels[nl]) - i64::from(level);
                if diff.abs() > 1 {
                    return false;
                }
            }
        }
        true
    }

    /// The configured maximum refinement level.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Domain half-width L (domain is `[-L, L]³`).
    pub fn domain_half(&self) -> f64 {
        self.domain_half
    }
}

/// Ghost-cell index for layer `d` (nearest first), transverse `(a, b)`.
fn ghost_index(face: Face, d: i64, a: i64, b: i64) -> (i64, i64, i64) {
    let n = NX as i64;
    let normal = match face.sign() {
        -1 => -1 - d,
        _ => n + d,
    };
    match face.axis() {
        0 => (normal, a, b),
        1 => (a, normal, b),
        _ => (a, b, normal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::field;

    fn small_tree(max_level: u32) -> Octree {
        let star = RotatingStar::paper_default();
        let cfg = OctoConfig {
            max_level,
            ..OctoConfig::default()
        };
        Octree::build(&star, &cfg, 1.0)
    }

    #[test]
    fn level_zero_is_a_single_leaf() {
        let t = small_tree(0);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.cell_count(), 512);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn refinement_grows_with_level() {
        let c1 = small_tree(1).leaf_count();
        let c2 = small_tree(2).leaf_count();
        let c3 = small_tree(3).leaf_count();
        assert!(c1 < c2 && c2 < c3, "{c1} {c2} {c3}");
        assert_eq!(small_tree(1).deepest_level(), 1);
        assert_eq!(small_tree(3).deepest_level(), 3);
    }

    #[test]
    fn tree_is_balanced() {
        for level in 1..=3 {
            assert!(small_tree(level).is_balanced(), "level {level}");
        }
    }

    #[test]
    fn leaves_tile_the_domain() {
        // Total leaf volume must equal the domain volume.
        let t = small_tree(3);
        let vol: f64 = t
            .leaf_ids()
            .iter()
            .map(|&l| t.node_size(t.node(l).level).powi(3))
            .sum();
        assert!((vol - 8.0).abs() < 1e-9, "domain [-1,1]³ has volume 8");
    }

    #[test]
    fn locate_finds_containing_leaf() {
        let t = small_tree(3);
        for p in [[0.0, 0.0, 0.0], [0.5, -0.3, 0.2], [-0.99, 0.99, 0.0]] {
            let (leaf, cell) = t.locate(p);
            let (origin, dx) = t.node_geometry(leaf);
            for d in 0..3 {
                let lo = origin[d] + cell[d] as f64 * dx;
                assert!(
                    p[d] >= lo - 1e-9 && p[d] <= lo + dx + 1e-9,
                    "{p:?} axis {d}"
                );
            }
        }
    }

    #[test]
    fn locate_clamps_outside_points() {
        let t = small_tree(1);
        let (_, cell) = t.locate([5.0, 5.0, 5.0]);
        assert!(cell.iter().all(|&c| c < NX));
    }

    #[test]
    fn sample_matches_star_density() {
        let t = small_tree(3);
        let star = RotatingStar::paper_default();
        // At a point deep inside the star the sampled cell density should be
        // close to the analytic value (cell-center discretization error).
        let p = [0.1, 0.05, -0.08];
        let rho = t.sample(field::RHO, p);
        let want = star.density((p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt());
        assert!((rho - want).abs() / want < 0.1, "{rho} vs {want}");
    }

    #[test]
    fn total_mass_close_to_star_mass() {
        let t = small_tree(3);
        let star = RotatingStar::paper_default();
        let m = t.total_mass();
        assert!(
            ((m - star.mass) / star.mass).abs() < 0.05,
            "grid mass {m} vs star mass {}",
            star.mass
        );
    }

    #[test]
    fn ghost_fill_matches_neighbors_across_same_level_faces() {
        let mut t = small_tree(2);
        t.fill_ghosts();
        // Pick a leaf with a same-level neighbor and check ghost == neighbor
        // interior.
        let leaves = t.leaf_ids().to_vec();
        let mut checked = 0;
        for &leaf in &leaves {
            let n = t.node(leaf);
            let (level, coords) = (n.level, n.coords);
            for face in Face::ALL {
                let Some(nc) = t.neighbor_coords(level, coords, face) else {
                    continue;
                };
                let Some(nid) = t.node_at(level, nc) else {
                    continue;
                };
                if t.node(nid).children.is_some() {
                    continue;
                }
                // ghost layer 0 equals neighbor's boundary layer.
                let g = t.subgrid(leaf);
                let ng = t.subgrid(nid);
                let (i, j, k) = super::ghost_index(face, 0, 3, 4);
                let p = g.cell_center(i, j, k);
                let r = ng.at(
                    field::RHO,
                    {
                        let (origin, dx) = t.node_geometry(nid);
                        ((p[0] - origin[0]) / dx) as i64
                    },
                    ((p[1] - t.node_geometry(nid).0[1]) / t.node_geometry(nid).1) as i64,
                    ((p[2] - t.node_geometry(nid).0[2]) / t.node_geometry(nid).1) as i64,
                );
                assert_eq!(g.at(field::RHO, i, j, k), r);
                checked += 1;
            }
        }
        assert!(checked > 0, "no same-level faces checked");
    }

    #[test]
    fn ghost_fill_boundary_is_outflow() {
        // Level-0 tree: all ghosts come from the domain boundary (clamped
        // sampling = copy of the edge cells).
        let mut t = small_tree(0);
        t.fill_ghosts();
        let g = t.subgrid(t.leaf_ids()[0]);
        for a in 0..NX as i64 {
            for b in 0..NX as i64 {
                assert_eq!(
                    g.at(field::RHO, -1, a, b),
                    g.at(field::RHO, 0, a, b),
                    "XM outflow"
                );
                assert_eq!(
                    g.at(field::RHO, NX as i64, a, b),
                    g.at(field::RHO, NX as i64 - 1, a, b),
                    "XP outflow"
                );
            }
        }
    }

    #[test]
    fn level4_tree_is_paper_scale() {
        // The paper's level-4 rotating star has 1184 leaves / 606208 cells;
        // our star/refinement should land in the same order of magnitude.
        let t = small_tree(4);
        let leaves = t.leaf_count();
        assert!(
            (300..4096).contains(&leaves),
            "level-4 leaf count {leaves} should be paper-scale (~1184)"
        );
        assert_eq!(t.cell_count(), leaves * 512);
    }

    #[test]
    fn refine_leaf_bumps_generation_and_conserves_mass() {
        let mut t = small_tree(1);
        assert_eq!(t.generation(), 0);
        let mass_before = t.total_mass();
        let leaves_before = t.leaf_count();
        let victim = t.leaf_ids()[0];
        let kids = t.refine_leaf(victim);
        assert_eq!(t.generation(), 1);
        // One leaf became 8 (uniform level-1 tree stays 2:1 balanced, so
        // no cascading refinement).
        assert_eq!(t.leaf_count(), leaves_before + 7);
        assert!(t.is_balanced());
        for &kid in &kids {
            assert_eq!(t.node(kid).level, 2);
            assert!(t.has_subgrid(kid), "children carry data");
        }
        assert!(!t.has_subgrid(victim), "parent data moved down");
        // Piecewise-constant prolongation is conservative.
        let mass_after = t.total_mass();
        assert!(
            ((mass_after - mass_before) / mass_before).abs() < 1e-12,
            "refinement must conserve mass: {mass_before} -> {mass_after}"
        );
        // Leaf order stays deterministic (sorted by level, coords).
        let ids = t.leaf_ids();
        let mut keys: Vec<_> = ids
            .iter()
            .map(|&l| {
                let n = t.node(l);
                (n.level, n.coords)
            })
            .collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort_unstable();
            s
        };
        keys.sort_unstable();
        assert_eq!(keys, sorted);
        // Prolongated children sample the same density field as the parent
        // did (piecewise constant).
        let sampled = t.sample(field::RHO, [-0.9, -0.9, -0.9]);
        assert!(sampled >= 0.0);
    }

    #[test]
    fn refine_of_already_refined_node_is_a_noop() {
        // Regression: a no-op refine used to panic (the node no longer
        // carries data) and, had it survived, would have bumped the
        // generation and discarded the interaction-list cache for a
        // topology that did not change.
        let mut t = small_tree(1);
        let victim = t.leaf_ids()[0];
        let kids = t.refine_leaf(victim);
        let gen_after = t.generation();
        let leaves_after = t.leaf_count();
        let kids_again = t.refine_leaf(victim);
        assert_eq!(kids_again, kids, "existing children are returned");
        assert_eq!(
            t.generation(),
            gen_after,
            "no-op refine must not invalidate topology-keyed caches"
        );
        assert_eq!(t.leaf_count(), leaves_after);
        assert!(t.is_balanced());
    }

    #[test]
    fn refine_leaf_restores_grading_recursively() {
        let mut t = small_tree(2);
        // Find the deepest leaf and refine it twice: the second split can
        // force neighbours to refine to keep the 2:1 grading.
        let deepest = *t
            .leaf_ids()
            .iter()
            .max_by_key(|&&l| t.node(l).level)
            .unwrap();
        let kids = t.refine_leaf(deepest);
        assert!(t.is_balanced());
        let g1 = t.generation();
        t.refine_leaf(kids[0]);
        assert!(t.is_balanced(), "cascaded refinement keeps 2:1 grading");
        assert_eq!(t.generation(), g1 + 1);
        for &l in t.leaf_ids() {
            assert!(t.has_subgrid(l), "every leaf carries data");
        }
    }

    #[test]
    fn batch_regrid_equals_one_sweep() {
        // A whole batch of refines is one sweep: one generation bump, one
        // split-log segment, same grading invariant.
        let mut t = small_tree(2);
        let victims: Vec<NodeId> = t.leaf_ids().iter().copied().take(4).collect();
        let g0 = t.generation();
        let splits = t.regrid(&victims);
        assert_eq!(t.generation(), g0 + 1, "one bump per sweep");
        assert!(splits.len() >= victims.len());
        assert!(t.is_balanced());
        let logged: Vec<NodeId> = t.splits_since(g0).collect();
        assert_eq!(
            logged,
            splits.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            "split log records exactly the sweep's splits"
        );
        for &l in t.leaf_ids() {
            assert!(t.has_subgrid(l), "every leaf carries data");
        }
        // Requesting already-refined nodes again is an empty sweep.
        let g1 = t.generation();
        assert!(t.regrid(&victims).is_empty());
        assert_eq!(t.generation(), g1, "empty sweep keeps caches warm");
    }

    #[test]
    fn split_log_filters_by_generation() {
        let mut t = small_tree(1);
        let a = t.leaf_ids()[0];
        t.refine_leaf(a);
        let g1 = t.generation();
        let b = *t.leaf_ids().last().unwrap();
        t.refine_leaf(b);
        let since_start: Vec<NodeId> = t.splits_since(0).collect();
        assert!(since_start.contains(&a) && since_start.contains(&b));
        let since_g1: Vec<NodeId> = t.splits_since(g1).collect();
        assert!(!since_g1.contains(&a) && since_g1.contains(&b));
        assert_eq!(t.splits_since(t.generation()).count(), 0);
    }

    #[test]
    fn phased_regrid_matches_serial_sweep() {
        // begin/prolongate/finish driven by hand must equal the serial
        // convenience sweep bitwise (this is the contract the driver's
        // parallel regrid relies on).
        let mut a = small_tree(2);
        let mut b = small_tree(2);
        let victims: Vec<NodeId> = a.leaf_ids().iter().copied().take(3).collect();
        a.regrid(&victims);
        let splits = b.begin_regrid(&victims);
        let installs: Vec<(NodeId, [SubGrid; 8])> = splits
            .iter()
            .map(|&(p, _)| (p, b.prolongate_children(p)))
            .collect();
        b.finish_regrid(installs);
        assert_eq!(a.leaf_ids(), b.leaf_ids());
        assert_eq!(a.generation(), b.generation());
        for &l in a.leaf_ids() {
            let (ga, gb) = (a.subgrid(l), b.subgrid(l));
            for f in 0..NF {
                for i in 0..NX as i64 {
                    for j in 0..NX as i64 {
                        for k in 0..NX as i64 {
                            assert_eq!(ga.at(f, i, j, k).to_bits(), gb.at(f, i, j, k).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resident_bytes_tracks_leaf_data() {
        let t = small_tree(2);
        let bytes = t.resident_bytes();
        assert!(bytes >= (t.leaf_count() * SUBGRID_BYTES) as u64);
        // Metadata overhead should be small next to field data.
        assert!(bytes < (t.leaf_count() * 2 * SUBGRID_BYTES) as u64);
    }

    #[test]
    fn neighbor_coords_domain_edges() {
        let t = small_tree(1);
        assert_eq!(t.neighbor_coords(1, [0, 0, 0], Face::XM), None);
        assert_eq!(t.neighbor_coords(1, [0, 0, 0], Face::XP), Some([1, 0, 0]));
        assert_eq!(t.neighbor_coords(1, [1, 1, 1], Face::ZP), None);
        assert_eq!(t.neighbor_coords(0, [0, 0, 0], Face::YP), None);
    }
}

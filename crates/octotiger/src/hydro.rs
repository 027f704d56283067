//! Finite-volume hydro solver — Octo-Tiger's hydro module (paper §3.3:
//! "the hydro solver uses finite volumes to compute the inviscid
//! Navier-Stokes equations", i.e. the compressible Euler equations).
//!
//! Per sub-grid kernel: second-order MUSCL reconstruction (minmod limiter)
//! of the primitive variables, HLL Riemann fluxes, dimension-by-dimension,
//! forward-Euler update. Each kernel invocation processes one 8³ sub-grid
//! with its ghost shell — exactly the paper's per-sub-grid kernel-launch
//! granularity — and dispatches its cell loop through
//! [`Dispatch`](crate::kernel_backend::Dispatch), so the same physics runs
//! as legacy loops, Kokkos-Serial or Kokkos-HPX.

use kokkos_lite::simd::{sweep_packs, Simd};

use crate::kernel_backend::{Dispatch, SimdPolicy};
use crate::recycle::RecyclePool;
use crate::star::{field, GAMMA, NF, P_FLOOR, RHO_FLOOR};
use crate::subgrid::{SubGrid, CELLS, NG, NT, NX};

/// Flat interior-cell index.
#[inline]
pub fn cell_index(i: usize, j: usize, k: usize) -> usize {
    (i * NX + j) * NX + k
}

/// Inverse of [`cell_index`].
#[inline]
pub fn cell_coords(c: usize) -> (i64, i64, i64) {
    let k = c % NX;
    let j = (c / NX) % NX;
    let i = c / (NX * NX);
    (i as i64, j as i64, k as i64)
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[inline]
fn sound_speed(rho: f64, p: f64) -> f64 {
    (GAMMA * p / rho).sqrt()
}

#[inline]
fn energy_of(prim: &[f64; 5]) -> f64 {
    let [rho, vx, vy, vz, p] = *prim;
    p / (GAMMA - 1.0) + 0.5 * rho * (vx * vx + vy * vy + vz * vz)
}

#[inline]
fn conserved_of(prim: &[f64; 5]) -> [f64; NF] {
    let [rho, vx, vy, vz, _p] = *prim;
    [rho, rho * vx, rho * vy, rho * vz, energy_of(prim)]
}

/// Physical flux of the Euler equations along `axis` for primitive state.
#[inline]
fn physical_flux(prim: &[f64; 5], axis: usize) -> [f64; NF] {
    let [rho, vx, vy, vz, p] = *prim;
    let v = [vx, vy, vz];
    let vn = v[axis];
    let e = energy_of(prim);
    let mut f = [
        rho * vn,
        rho * vx * vn,
        rho * vy * vn,
        rho * vz * vn,
        (e + p) * vn,
    ];
    f[field::SX + axis] += p;
    f
}

/// HLL numerical flux between left/right primitive face states.
#[inline]
fn hll_flux(left: &[f64; 5], right: &[f64; 5], axis: usize) -> [f64; NF] {
    let cl = sound_speed(left[0], left[4]);
    let cr = sound_speed(right[0], right[4]);
    let vnl = left[1 + axis];
    let vnr = right[1 + axis];
    let sl = (vnl - cl).min(vnr - cr);
    let sr = (vnl + cl).max(vnr + cr);
    if sl >= 0.0 {
        return physical_flux(left, axis);
    }
    if sr <= 0.0 {
        return physical_flux(right, axis);
    }
    let fl = physical_flux(left, axis);
    let fr = physical_flux(right, axis);
    let ul = conserved_of(left);
    let ur = conserved_of(right);
    let mut out = [0.0; NF];
    let inv = 1.0 / (sr - sl);
    for f in 0..NF {
        out[f] = (sr * fl[f] - sl * fr[f] + sl * sr * (ur[f] - ul[f])) * inv;
    }
    out
}

/// Primitive state of the cell at offset `o` cells along `axis` from
/// `(i, j, k)` (may reach two ghost layers).
#[inline]
fn prim_off(sub: &SubGrid, axis: usize, i: i64, j: i64, k: i64, o: i64) -> [f64; 5] {
    match axis {
        0 => sub.primitives(i + o, j, k),
        1 => sub.primitives(i, j + o, k),
        _ => sub.primitives(i, j, k + o),
    }
}

/// HLL flux through the **low** face of cell `(i, j, k)` along `axis`, with
/// minmod-limited linear reconstruction.
fn face_flux(sub: &SubGrid, axis: usize, i: i64, j: i64, k: i64) -> [f64; NF] {
    let m2 = prim_off(sub, axis, i, j, k, -2);
    let m1 = prim_off(sub, axis, i, j, k, -1);
    let p0 = prim_off(sub, axis, i, j, k, 0);
    let p1 = prim_off(sub, axis, i, j, k, 1);
    let mut left = [0.0; 5];
    let mut right = [0.0; 5];
    for f in 0..5 {
        left[f] = m1[f] + 0.5 * minmod(m1[f] - m2[f], p0[f] - m1[f]);
        right[f] = p0[f] - 0.5 * minmod(p0[f] - m1[f], p1[f] - p0[f]);
    }
    // Floors after reconstruction.
    left[0] = left[0].max(RHO_FLOOR);
    right[0] = right[0].max(RHO_FLOOR);
    left[4] = left[4].max(P_FLOOR);
    right[4] = right[4].max(P_FLOOR);
    hll_flux(&left, &right, axis)
}

/// Maximum signal speed (|v| + c_s over all axes) in the interior —
/// Octo-Tiger's CFL reduction kernel.
pub fn max_signal_speed(sub: &SubGrid, dispatch: &Dispatch) -> f64 {
    dispatch.reduce_max(CELLS, |c| {
        let (i, j, k) = cell_coords(c);
        let [rho, vx, vy, vz, p] = sub.primitives(i, j, k);
        let cs = sound_speed(rho, p);
        vx.abs().max(vy.abs()).max(vz.abs()) + cs
    })
}

/// One forward-Euler hydro update: returns the new interior conserved
/// states (ghosts must be filled first). Pure function of the sub-grid — the
/// caller applies it with [`apply_interior`], which is what allows all
/// leaves' kernels to run concurrently.
pub fn step_interior(sub: &SubGrid, dt: f64, dispatch: &Dispatch) -> Vec<[f64; NF]> {
    step_into(sub, dt, dispatch, vec![[0.0; NF]; CELLS])
}

fn step_into(
    sub: &SubGrid,
    dt: f64,
    dispatch: &Dispatch,
    mut out: Vec<[f64; NF]>,
) -> Vec<[f64; NF]> {
    step_into_slice(sub, dt, dispatch, &mut out);
    out
}

/// Scalar hydro update written into a caller-provided `CELLS`-sized slice —
/// the entry the work-aggregation executor uses to land several leaves'
/// updates in one fused batch buffer.
fn step_into_slice(sub: &SubGrid, dt: f64, dispatch: &Dispatch, out: &mut [[f64; NF]]) {
    let lambda = dt / sub.dx;
    debug_assert_eq!(out.len(), CELLS);
    dispatch.fill(out, |c| {
        let (i, j, k) = cell_coords(c);
        let mut u = [0.0; NF];
        for (f, slot) in u.iter_mut().enumerate() {
            *slot = sub.at(f, i, j, k);
        }
        for axis in 0..3 {
            let f_lo = face_flux(sub, axis, i, j, k);
            let (hi_i, hi_j, hi_k) = match axis {
                0 => (i + 1, j, k),
                1 => (i, j + 1, k),
                _ => (i, j, k + 1),
            };
            let f_hi = face_flux(sub, axis, hi_i, hi_j, hi_k);
            for f in 0..NF {
                u[f] += lambda * (f_lo[f] - f_hi[f]);
            }
        }
        // Positivity floors.
        u[field::RHO] = u[field::RHO].max(RHO_FLOOR);
        let kinetic = 0.5
            * (u[field::SX] * u[field::SX]
                + u[field::SY] * u[field::SY]
                + u[field::SZ] * u[field::SZ])
            / u[field::RHO];
        u[field::EGAS] = u[field::EGAS].max(kinetic + P_FLOOR / (GAMMA - 1.0));
        u
    });
}

// ---------------------------------------------------------------------------
// Explicitly-vectorized hydro path: an SoA primitive staging view plus
// width-generic `Simd<W>` MUSCL + HLL kernels. The scalar functions above
// remain the bit-exact reference — every vector expression below mirrors its
// scalar counterpart's operation order exactly (plain mul/add, no FMA
// contraction), and every branch is a lane-wise select of identically-valued
// operands, so the SIMD path agrees **bitwise** with the scalar path at all
// widths. That is the same discipline PR 2 established for the gravity
// kernels and what the agreement tests enforce.
// ---------------------------------------------------------------------------

/// Primitive quantities staged per cell (ρ, vx, vy, vz, p).
pub const STAGE_PRIMS: usize = 5;
/// Cells per staged field lane (the full ghost frame).
pub const STAGE_CELLS: usize = NT * NT * NT;
/// Flat length of one staging view.
pub const STAGE_LEN: usize = STAGE_PRIMS * STAGE_CELLS;

/// Element stride between cells one apart along each axis in the staging
/// view (and in each conserved-field block of the `SubGrid` view): the z
/// index is fastest, so z-lanes are unit-stride and a stencil offset along
/// any axis is a single scaled displacement of the same contiguous pack.
const AXIS_STRIDE: [usize; 3] = [NT * NT, NT, 1];

/// SoA primitive staging view of one sub-grid, built once per step from the
/// ghost-filled conserved fields (paper §3.3's per-sub-grid kernel staging;
/// Octo-Tiger proper keeps such SoA buffers in cppuddle-recycled
/// allocations, which is why construction draws from a [`RecyclePool`]).
///
/// Staging converts conserved→primitive (with floors) exactly **once** per
/// cell per step; the scalar path re-derives primitives at every stencil
/// visit (~24× per cell), so the staging view is itself a large fraction of
/// the vector path's speedup.
pub struct HydroStage {
    buf: Vec<f64>,
}

impl HydroStage {
    /// Build the staging view for `sub`, drawing the buffer from `pool`.
    pub fn build(sub: &SubGrid, pool: &RecyclePool<f64>) -> Self {
        let mut buf = pool.acquire(STAGE_LEN);
        sub.stage_primitives(&mut buf);
        HydroStage { buf }
    }

    /// Return the staging buffer to its pool.
    pub fn release(self, pool: &RecyclePool<f64>) {
        pool.release(self.buf);
    }

    /// Contiguous lane of one staged primitive over the ghost frame.
    #[inline]
    fn prim_lane(&self, q: usize) -> &[f64] {
        &self.buf[q * STAGE_CELLS..(q + 1) * STAGE_CELLS]
    }
}

/// Ghost-frame staging index of interior cell `(i, j, k)`.
#[inline]
fn stage_index(i: usize, j: usize, k: usize) -> usize {
    ((i + NG) * NT + (j + NG)) * NT + (k + NG)
}

/// Load the five primitive packs of `W` consecutive-z cells at `at`.
#[inline]
fn load_prims<const W: usize>(stage: &HydroStage, at: usize) -> [Simd<W>; 5] {
    [
        Simd::from_slice(stage.prim_lane(0), at),
        Simd::from_slice(stage.prim_lane(1), at),
        Simd::from_slice(stage.prim_lane(2), at),
        Simd::from_slice(stage.prim_lane(3), at),
        Simd::from_slice(stage.prim_lane(4), at),
    ]
}

/// Lane-wise [`minmod`]: the data-dependent branches become selects of
/// pre-computed operands, so the pack never diverges.
#[inline]
fn minmod_v<const W: usize>(a: Simd<W>, b: Simd<W>) -> Simd<W> {
    let zero = Simd::zero();
    let slope = a.abs().lt(b.abs()).select(a, b);
    (a * b).le(zero).select(zero, slope)
}

#[inline]
fn sound_speed_v<const W: usize>(rho: Simd<W>, p: Simd<W>) -> Simd<W> {
    (Simd::splat(GAMMA) * p / rho).sqrt()
}

#[inline]
fn energy_of_v<const W: usize>(prim: &[Simd<W>; 5]) -> Simd<W> {
    let [rho, vx, vy, vz, p] = *prim;
    p / Simd::splat(GAMMA - 1.0) + Simd::splat(0.5) * rho * (vx * vx + vy * vy + vz * vz)
}

#[inline]
fn conserved_of_v<const W: usize>(prim: &[Simd<W>; 5]) -> [Simd<W>; NF] {
    let [rho, vx, vy, vz, _p] = *prim;
    [rho, rho * vx, rho * vy, rho * vz, energy_of_v(prim)]
}

#[inline]
fn physical_flux_v<const W: usize>(prim: &[Simd<W>; 5], axis: usize) -> [Simd<W>; NF] {
    let [rho, vx, vy, vz, p] = *prim;
    let v = [vx, vy, vz];
    let vn = v[axis];
    let e = energy_of_v(prim);
    let mut f = [
        rho * vn,
        rho * vx * vn,
        rho * vy * vn,
        rho * vz * vn,
        (e + p) * vn,
    ];
    f[field::SX + axis] = f[field::SX + axis] + p;
    f
}

/// Lane-wise [`hll_flux`]: the scalar early returns become a two-level
/// select. The middle state is computed unconditionally for every lane —
/// always finite, because `sr − sl ≥ 2·min(c_l, c_r) > 0` (the floors
/// guarantee p ≥ P_FLOOR and ρ ≥ RHO_FLOOR, so both sound speeds are
/// positive).
#[inline]
fn hll_flux_v<const W: usize>(
    left: &[Simd<W>; 5],
    right: &[Simd<W>; 5],
    axis: usize,
) -> [Simd<W>; NF] {
    let cl = sound_speed_v(left[0], left[4]);
    let cr = sound_speed_v(right[0], right[4]);
    let vnl = left[1 + axis];
    let vnr = right[1 + axis];
    let sl = (vnl - cl).min(vnr - cr);
    let sr = (vnl + cl).max(vnr + cr);
    let fl = physical_flux_v(left, axis);
    let fr = physical_flux_v(right, axis);
    let ul = conserved_of_v(left);
    let ur = conserved_of_v(right);
    let zero = Simd::zero();
    let left_wins = sl.ge(zero);
    let right_wins = sr.le(zero);
    let inv = Simd::splat(1.0) / (sr - sl);
    let mut out = [Simd::zero(); NF];
    for f in 0..NF {
        let mid = (sr * fl[f] - sl * fr[f] + sl * sr * (ur[f] - ul[f])) * inv;
        out[f] = left_wins.select(fl[f], right_wins.select(fr[f], mid));
    }
    out
}

/// Lane-wise [`face_flux`] through the low faces along `axis` of the `W`
/// consecutive-z cells at staging index `at`. The stencil walks along the
/// axis stride while the pack lanes stay z-contiguous, so all four stencil
/// loads are plain unit-stride packs.
#[inline]
fn face_flux_v<const W: usize>(stage: &HydroStage, axis: usize, at: usize) -> [Simd<W>; NF] {
    let s = AXIS_STRIDE[axis];
    let m2 = load_prims(stage, at - 2 * s);
    let m1 = load_prims(stage, at - s);
    let p0 = load_prims(stage, at);
    let p1 = load_prims(stage, at + s);
    let half = Simd::splat(0.5);
    let mut left = [Simd::zero(); 5];
    let mut right = [Simd::zero(); 5];
    for f in 0..5 {
        left[f] = m1[f] + half * minmod_v(m1[f] - m2[f], p0[f] - m1[f]);
        right[f] = p0[f] - half * minmod_v(p0[f] - m1[f], p1[f] - p0[f]);
    }
    // Floors after reconstruction (lane-wise max, exact like the scalar max).
    left[0] = left[0].max(Simd::splat(RHO_FLOOR));
    right[0] = right[0].max(Simd::splat(RHO_FLOOR));
    left[4] = left[4].max(Simd::splat(P_FLOOR));
    right[4] = right[4].max(Simd::splat(P_FLOOR));
    hll_flux_v(&left, &right, axis)
}

/// SIMD hydro row kernel written into a caller-provided `CELLS`-sized slice
/// (see [`step_into_slice`] for why the slice form exists).
fn step_rows_simd_slice<const W: usize>(
    sub: &SubGrid,
    stage: &HydroStage,
    dt: f64,
    dispatch: &Dispatch,
    out: &mut [[f64; NF]],
) {
    debug_assert_eq!(out.len(), CELLS);
    // NX = 8 is divisible by every supported width, so there are no tail
    // packs; Simd<1> is the degenerate scalar pack for completeness.
    const {
        assert!(
            NX.is_multiple_of(W),
            "pack width must divide the row length"
        )
    };
    let lambda = Simd::<W>::splat(dt / sub.dx);
    let u_all = sub.u.as_slice();
    dispatch.fill_rows(out, NX, |row, chunk| {
        let i = row / NX;
        let j = row % NX;
        let at0 = stage_index(i, j, 0);
        sweep_packs::<W>(NX, |k0, is_tail| {
            debug_assert!(!is_tail, "NX is a multiple of every pack width");
            let at = at0 + k0;
            let mut u = [Simd::<W>::zero(); NF];
            for (f, slot) in u.iter_mut().enumerate() {
                // Conserved fields are already SoA per field in the View:
                // `[NF][NT][NT][NT]` row-major, z contiguous.
                let base = ((f * NT + (i + NG)) * NT + (j + NG)) * NT + (k0 + NG);
                *slot = Simd::from_slice(u_all, base);
            }
            for (axis, &stride) in AXIS_STRIDE.iter().enumerate() {
                let f_lo = face_flux_v::<W>(stage, axis, at);
                let f_hi = face_flux_v::<W>(stage, axis, at + stride);
                for f in 0..NF {
                    u[f] = u[f] + lambda * (f_lo[f] - f_hi[f]);
                }
            }
            // Positivity floors.
            u[field::RHO] = u[field::RHO].max(Simd::splat(RHO_FLOOR));
            let kinetic = Simd::splat(0.5)
                * (u[field::SX] * u[field::SX]
                    + u[field::SY] * u[field::SY]
                    + u[field::SZ] * u[field::SZ])
                / u[field::RHO];
            u[field::EGAS] = u[field::EGAS].max(kinetic + Simd::splat(P_FLOOR / (GAMMA - 1.0)));
            for (lane, cell) in chunk[k0..k0 + W].iter_mut().enumerate() {
                for (f, uf) in u.iter().enumerate() {
                    cell[f] = uf.extract(lane);
                }
            }
        });
    });
}

fn max_signal_speed_stage_w<const W: usize>(stage: &HydroStage) -> f64 {
    const {
        assert!(
            NX.is_multiple_of(W),
            "pack width must divide the row length"
        )
    };
    let mut acc = Simd::<W>::splat(f64::NEG_INFINITY);
    for i in 0..NX {
        for j in 0..NX {
            let at0 = stage_index(i, j, 0);
            sweep_packs::<W>(NX, |k0, is_tail| {
                debug_assert!(!is_tail, "NX is a multiple of every pack width");
                let [rho, vx, vy, vz, p] = load_prims::<W>(stage, at0 + k0);
                let cs = sound_speed_v(rho, p);
                acc = acc.max(vx.abs().max(vy.abs()).max(vz.abs()) + cs);
            });
        }
    }
    acc.reduce_max()
}

/// CFL reduction over a pre-built staging view at SIMD width `w`. The max
/// reduction is order-independent over f64 (all speeds are positive), so the
/// result is bitwise identical to the scalar [`max_signal_speed`].
pub fn max_signal_speed_stage(stage: &HydroStage, w: usize) -> f64 {
    match w {
        1 => max_signal_speed_stage_w::<1>(stage),
        2 => max_signal_speed_stage_w::<2>(stage),
        4 => max_signal_speed_stage_w::<4>(stage),
        8 => max_signal_speed_stage_w::<8>(stage),
        other => panic!("unsupported SIMD width {other}"),
    }
}

/// Per-leaf CFL speed via `policy`. For a vector policy this builds the
/// step's staging view and returns it so the hydro kernel of the same step
/// can reuse it (the tree is immutable between the CFL reduction and the
/// hydro update, so the staged primitives stay valid).
pub fn max_signal_speed_policy(
    sub: &SubGrid,
    dispatch: &Dispatch,
    policy: SimdPolicy,
    stage_pool: &RecyclePool<f64>,
) -> (f64, Option<HydroStage>) {
    match policy {
        SimdPolicy::Scalar => (max_signal_speed(sub, dispatch), None),
        SimdPolicy::Width(w) => {
            let stage = HydroStage::build(sub, stage_pool);
            let speed = max_signal_speed_stage(&stage, w);
            (speed, Some(stage))
        }
    }
}

/// Policy-dispatched hydro update, reusing an optional staging view handed
/// over from [`max_signal_speed_policy`] (built here when absent and
/// needed). The staging buffer and the output buffer both come from (and
/// the staging buffer returns to) recycle pools, so steady-state steps
/// allocate nothing.
pub fn step_interior_staged(
    sub: &SubGrid,
    stage: Option<HydroStage>,
    dt: f64,
    dispatch: &Dispatch,
    policy: SimdPolicy,
    state_pool: &RecyclePool<[f64; NF]>,
    stage_pool: &RecyclePool<f64>,
) -> Vec<[f64; NF]> {
    let mut out = state_pool.acquire(CELLS);
    step_interior_staged_into(sub, stage, dt, dispatch, policy, &mut out, stage_pool);
    out
}

/// [`step_interior_staged`] writing into a caller-provided `CELLS`-sized
/// slice. The work-aggregation executor points this at one leaf's segment
/// of a batch-fused state buffer: the per-leaf arithmetic is untouched, so
/// the fused buffer's contents are bitwise-identical to the per-leaf
/// buffers it replaces.
pub fn step_interior_staged_into(
    sub: &SubGrid,
    stage: Option<HydroStage>,
    dt: f64,
    dispatch: &Dispatch,
    policy: SimdPolicy,
    out: &mut [[f64; NF]],
    stage_pool: &RecyclePool<f64>,
) {
    match policy {
        SimdPolicy::Scalar => {
            if let Some(st) = stage {
                st.release(stage_pool);
            }
            step_into_slice(sub, dt, dispatch, out);
        }
        SimdPolicy::Width(w) => {
            let st = match stage {
                Some(st) => st,
                None => HydroStage::build(sub, stage_pool),
            };
            match w {
                1 => step_rows_simd_slice::<1>(sub, &st, dt, dispatch, out),
                2 => step_rows_simd_slice::<2>(sub, &st, dt, dispatch, out),
                4 => step_rows_simd_slice::<4>(sub, &st, dt, dispatch, out),
                8 => step_rows_simd_slice::<8>(sub, &st, dt, dispatch, out),
                other => panic!("unsupported SIMD width {other}"),
            }
            st.release(stage_pool);
        }
    }
}

/// Single-call convenience over [`step_interior_staged`]: builds, uses and
/// releases the staging view internally.
pub fn step_interior_policy(
    sub: &SubGrid,
    dt: f64,
    dispatch: &Dispatch,
    policy: SimdPolicy,
    state_pool: &RecyclePool<[f64; NF]>,
    stage_pool: &RecyclePool<f64>,
) -> Vec<[f64; NF]> {
    step_interior_staged(sub, None, dt, dispatch, policy, state_pool, stage_pool)
}

/// Write the interior states produced by [`step_interior`] back.
pub fn apply_interior(sub: &mut SubGrid, new_state: &[[f64; NF]]) {
    assert_eq!(new_state.len(), CELLS, "state buffer size mismatch");
    for (c, u) in new_state.iter().enumerate() {
        let (i, j, k) = cell_coords(c);
        for (f, v) in u.iter().enumerate() {
            sub.set(f, i, j, k, *v);
        }
    }
}

/// Apply the gravitational source terms for one step: momentum gains
/// ρ·g·dt, energy gains v·g·ρ·dt (work done by gravity).
pub fn apply_gravity_source(sub: &mut SubGrid, acc: &[[f64; 3]], dt: f64) {
    assert_eq!(acc.len(), CELLS, "acceleration buffer size mismatch");
    for (c, g) in acc.iter().enumerate() {
        let (i, j, k) = cell_coords(c);
        let rho = sub.at(field::RHO, i, j, k);
        let sx = sub.at(field::SX, i, j, k);
        let sy = sub.at(field::SY, i, j, k);
        let sz = sub.at(field::SZ, i, j, k);
        sub.set(field::SX, i, j, k, sx + rho * g[0] * dt);
        sub.set(field::SY, i, j, k, sy + rho * g[1] * dt);
        sub.set(field::SZ, i, j, k, sz + rho * g[2] * dt);
        let de = (sx * g[0] + sy * g[1] + sz * g[2]) * dt;
        let e = sub.at(field::EGAS, i, j, k);
        sub.set(field::EGAS, i, j, k, e + de);
    }
}

/// Analytic flop estimate for one hydro cell update (used by the machine
/// projection; derivation: 6 face fluxes × [4 primitive conversions ≈ 22
/// flops each + reconstruction 5 fields × 6 + HLL ≈ 70 incl. two sqrt] ≈
/// 6 × 190, plus update/floor arithmetic ≈ 60).
pub const HYDRO_FLOPS_PER_CELL: u64 = 1200;

/// Bytes moved per hydro cell update (5 fields read over a ~4-wide stencil
/// reach + 5 written, 8 B each, with cache reuse ≈ 3× single-field
/// traffic).
pub const HYDRO_BYTES_PER_CELL: u64 = 240;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;
    use crate::star::RotatingStar;

    fn uniform_grid(rho: f64, v: [f64; 3], p: f64) -> SubGrid {
        let mut g = SubGrid::new([0.0; 3], 0.1);
        let prim = [rho, v[0], v[1], v[2], p];
        let u = conserved_of(&prim);
        let ng = crate::subgrid::NG as i64;
        for i in -ng..(NX as i64 + ng) {
            for j in -ng..(NX as i64 + ng) {
                for k in -ng..(NX as i64 + ng) {
                    for (f, val) in u.iter().enumerate() {
                        g.set(f, i, j, k, *val);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn uniform_state_is_stationary() {
        let g = uniform_grid(1.0, [0.1, -0.2, 0.3], 0.7);
        let before: Vec<f64> = (0..CELLS)
            .map(|c| {
                let (i, j, k) = cell_coords(c);
                g.at(field::RHO, i, j, k)
            })
            .collect();
        let out = step_interior(&g, 0.01, &Dispatch::Legacy);
        for (c, u) in out.iter().enumerate() {
            assert!(
                (u[field::RHO] - before[c]).abs() < 1e-13,
                "uniform flow must not change"
            );
        }
    }

    #[test]
    fn hll_flux_consistency_with_physical_flux() {
        // Equal left/right supersonic states → upwind flux.
        let prim = [1.0, 2.0, 0.0, 0.0, 0.1]; // v > c
        let f = hll_flux(&prim, &prim, 0);
        let want = physical_flux(&prim, 0);
        for (a, b) in f.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hll_mass_flux_sign_follows_flow() {
        let left = [1.0, 1.5, 0.0, 0.0, 1.0];
        let right = [1.0, 1.5, 0.0, 0.0, 1.0];
        assert!(hll_flux(&left, &right, 0)[field::RHO] > 0.0);
        let lneg = [1.0, -1.5, 0.0, 0.0, 1.0];
        assert!(hll_flux(&lneg, &lneg, 0)[field::RHO] < 0.0);
    }

    #[test]
    fn pressure_jump_accelerates_toward_low_pressure() {
        // High pressure in the left half: after one step the interface
        // cells must gain positive x-momentum.
        let mut g = uniform_grid(1.0, [0.0; 3], 0.1);
        for i in -2..4i64 {
            for j in -2..(NX as i64 + 2) {
                for k in -2..(NX as i64 + 2) {
                    g.set(field::EGAS, i, j, k, 10.0 / (GAMMA - 1.0));
                }
            }
        }
        let out = step_interior(&g, 0.001, &Dispatch::Legacy);
        let c = cell_index(4, 4, 4); // right of the interface at i=4
        assert!(
            out[c][field::SX] > 0.0,
            "gas must accelerate toward low pressure: sx = {}",
            out[c][field::SX]
        );
    }

    #[test]
    fn interior_mass_conserved_with_closed_box() {
        // A centred blob with vacuum at the edges: over one small step no
        // mass reaches the boundary, so interior mass is conserved to
        // round-off.
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        // Zero the ghost/boundary flux by surrounding with floor values
        // (init_from_star already gives near-floor at this sub-grid's rim?
        // Not necessarily — so measure flux-consistent conservation instead:
        // sum of interior change equals net boundary flux; with symmetric
        // data the x-momentum stays ≈ antisymmetric.)
        let before = g.mass();
        let out = step_interior(&g, 1e-6, &Dispatch::Legacy);
        let mut after = 0.0;
        for u in &out {
            after += u[field::RHO];
        }
        after *= g.dx * g.dx * g.dx;
        assert!(
            ((after - before) / before).abs() < 1e-3,
            "tiny step must nearly conserve mass: {before} -> {after}"
        );
    }

    #[test]
    fn all_dispatch_backends_agree_bitwise() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        let rt = amt::Runtime::new(3);
        let reference = step_interior(&g, 1e-4, &Dispatch::Legacy);
        for kind in [KernelType::KokkosSerial, KernelType::KokkosHpx] {
            let d = Dispatch::new(kind, &rt.handle(), 4);
            let out = step_interior(&g, 1e-4, &d);
            for (a, b) in reference.iter().zip(&out) {
                for f in 0..NF {
                    assert_eq!(a[f].to_bits(), b[f].to_bits(), "{kind:?} diverged");
                }
            }
        }
    }

    #[test]
    fn signal_speed_positive_and_scales_with_pressure() {
        let cold = uniform_grid(1.0, [0.0; 3], 0.1);
        let hot = uniform_grid(1.0, [0.0; 3], 10.0);
        let d = Dispatch::Legacy;
        let sc = max_signal_speed(&cold, &d);
        let sh = max_signal_speed(&hot, &d);
        assert!(sc > 0.0);
        assert!(sh > sc * 5.0, "c_s ∝ √p: {sc} vs {sh}");
    }

    #[test]
    fn gravity_source_adds_momentum_and_work() {
        let mut g = uniform_grid(2.0, [1.0, 0.0, 0.0], 1.0);
        let acc = vec![[0.5, 0.0, 0.0]; CELLS];
        let e0 = g.at(field::EGAS, 3, 3, 3);
        let sx0 = g.at(field::SX, 3, 3, 3);
        apply_gravity_source(&mut g, &acc, 0.1);
        let sx1 = g.at(field::SX, 3, 3, 3);
        let e1 = g.at(field::EGAS, 3, 3, 3);
        assert!((sx1 - (sx0 + 2.0 * 0.5 * 0.1)).abs() < 1e-12);
        assert!((e1 - (e0 + sx0 * 0.5 * 0.1)).abs() < 1e-12);
    }

    #[test]
    fn positivity_floors_hold_in_vacuum() {
        let g = uniform_grid(RHO_FLOOR, [0.0; 3], P_FLOOR);
        let out = step_interior(&g, 0.01, &Dispatch::Legacy);
        for u in &out {
            assert!(u[field::RHO] >= RHO_FLOOR);
            assert!(u[field::EGAS] > 0.0);
        }
    }

    #[test]
    fn cell_index_roundtrip() {
        for c in 0..CELLS {
            let (i, j, k) = cell_coords(c);
            assert_eq!(cell_index(i as usize, j as usize, k as usize), c);
        }
    }

    #[test]
    fn simd_step_matches_scalar_bitwise_at_all_widths() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        let d = Dispatch::Legacy;
        let state_pool = RecyclePool::new();
        let stage_pool = RecyclePool::new();
        let reference = step_interior(&g, 1e-4, &d);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let out =
                step_interior_policy(&g, 1e-4, &d, SimdPolicy::Width(w), &state_pool, &stage_pool);
            for (c, (a, b)) in reference.iter().zip(&out).enumerate() {
                for f in 0..NF {
                    assert_eq!(
                        a[f].to_bits(),
                        b[f].to_bits(),
                        "width {w} diverged at cell {c} field {f}"
                    );
                }
            }
            state_pool.release(out);
        }
        // Scalar policy through the same entry point is the reference path.
        let out = step_interior_policy(&g, 1e-4, &d, SimdPolicy::Scalar, &state_pool, &stage_pool);
        assert_eq!(out, reference);
    }

    #[test]
    fn simd_step_matches_scalar_in_floored_vacuum() {
        // Shock/floor regime: vacuum floors everywhere, so the limiter and
        // both HLL early-return branches are exercised with clamped states.
        let g = uniform_grid(RHO_FLOOR, [0.0; 3], P_FLOOR);
        let d = Dispatch::Legacy;
        let state_pool = RecyclePool::new();
        let stage_pool = RecyclePool::new();
        let reference = step_interior(&g, 0.01, &d);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let out =
                step_interior_policy(&g, 0.01, &d, SimdPolicy::Width(w), &state_pool, &stage_pool);
            for (a, b) in reference.iter().zip(&out) {
                for f in 0..NF {
                    assert_eq!(a[f].to_bits(), b[f].to_bits(), "width {w} diverged");
                }
            }
        }
    }

    #[test]
    fn staged_cfl_matches_scalar_bitwise() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        let d = Dispatch::Legacy;
        let stage_pool = RecyclePool::new();
        let want = max_signal_speed(&g, &d);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let (got, stage) = max_signal_speed_policy(&g, &d, SimdPolicy::Width(w), &stage_pool);
            assert_eq!(got.to_bits(), want.to_bits(), "width {w} CFL diverged");
            stage
                .expect("vector policy builds a stage")
                .release(&stage_pool);
        }
        let (got, stage) = max_signal_speed_policy(&g, &d, SimdPolicy::Scalar, &stage_pool);
        assert_eq!(got.to_bits(), want.to_bits());
        assert!(stage.is_none(), "scalar policy stages nothing");
    }

    #[test]
    fn stage_handoff_from_cfl_to_step_reuses_the_pool() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        let d = Dispatch::Legacy;
        let state_pool = RecyclePool::new();
        let stage_pool = RecyclePool::new();
        let reference = step_interior(&g, 1e-4, &d);
        for round in 0..3 {
            let (_, stage) = max_signal_speed_policy(&g, &d, SimdPolicy::Width(4), &stage_pool);
            let out = step_interior_staged(
                &g,
                stage,
                1e-4,
                &d,
                SimdPolicy::Width(4),
                &state_pool,
                &stage_pool,
            );
            assert_eq!(out, reference, "round {round}");
            state_pool.release(out);
        }
        let s = stage_pool.stats();
        assert_eq!(s.misses, 1, "one staging buffer serves every round");
        assert_eq!(s.hits, 2, "later rounds recycle it");
    }
}

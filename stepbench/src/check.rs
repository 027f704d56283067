//! Output checks applied after every timed step (outside the timed
//! window), and the self-test that proves the harness counts a broken
//! state as a failure.

use octotiger::config::OctoConfig;
use octotiger::octree::Octree;
use octotiger::star::{field, RotatingStar, NF};
use octotiger::subgrid::CELLS;

/// Check one step's output: `dt` must be finite and positive, every
/// interior value of every leaf finite, and the total mass within
/// `drift_bound` (relative) of `mass0`, the mass when timing began.
pub fn check_step(tree: &Octree, dt: f64, mass0: f64, drift_bound: f64) -> Result<(), String> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(format!("dt = {dt} is not a finite positive step"));
    }
    let mut buf = [0.0; CELLS];
    for &leaf in tree.leaf_ids() {
        let grid = tree.subgrid(leaf);
        for f in 0..NF {
            grid.interior_field(f, &mut buf);
            if let Some(c) = buf.iter().position(|v| !v.is_finite()) {
                return Err(format!("leaf {leaf}: field {f} cell {c} = {}", buf[c]));
            }
        }
    }
    let drift = (tree.total_mass() - mass0) / mass0;
    if drift.is_nan() || drift.abs() > drift_bound {
        return Err(format!(
            "relative mass drift {drift:e} beyond the bound {drift_bound:e}"
        ));
    }
    Ok(())
}

/// Corrupt a healthy level-1 star three ways (a non-finite cell, a zero
/// `dt`, a mass jump) and require [`check_step`] to reject each one.
pub fn self_test() -> Result<(), String> {
    let cfg = OctoConfig {
        max_level: 1,
        ..OctoConfig::default()
    };
    let mut tree = Octree::build_with_model(&RotatingStar::paper_default(), &cfg, 1.0);
    let mass0 = tree.total_mass();
    check_step(&tree, 1e-3, mass0, 1e-12).map_err(|e| format!("healthy state rejected: {e}"))?;
    if check_step(&tree, 0.0, mass0, 1e-12).is_ok() {
        return Err("dt = 0 was not counted as a failure".into());
    }
    if check_step(&tree, 1e-3, mass0 * 1.01, 1e-3).is_ok() {
        return Err("a 1% mass drift was not counted as a failure".into());
    }
    let leaf = tree.leaf_ids()[tree.leaf_count() / 2];
    tree.subgrid_mut(leaf).set(field::EGAS, 3, 4, 5, f64::NAN);
    if check_step(&tree, 1e-3, mass0, 1e-12).is_ok() {
        return Err("an injected non-finite cell was not counted as a failure".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_counts_injected_faults() {
        super::self_test().expect("self-test");
    }
}

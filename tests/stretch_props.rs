//! Property tests for the paper's central "painless operation":
//! stretching preserves design rules, connectivity and device structure.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use std::collections::BTreeSet;

use bristle_blocks::cell::{stretch, Cell, CellId, Library, Shape};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;
use bristle_blocks::geom::{Axis, Layer, Rect};

mod common;
use common::Rng;

/// A randomized-but-legal cell: a transistor pair plus wiring, with a
/// stretch line between the devices.
fn testbed(gap: i64) -> (Library, CellId) {
    let mut lib = Library::new("prop");
    let mut c = Cell::new("dut");
    // Lower transistor.
    c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 10)));
    c.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, 4, 4, 6)));
    // Upper transistor, `gap` above.
    let y = 14 + gap;
    c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, y, 2, y + 10)));
    c.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, y + 4, 4, y + 6)));
    // A vertical metal wire crossing the stretch region.
    c.push_shape(Shape::rect(Layer::Metal, Rect::new(8, 0, 12, y + 10)));
    c.add_stretch_y(12);
    let id = lib.add_cell(c).unwrap();
    (lib, id)
}

/// Grows cell `id` by `extra` λ along y, spread over its stretch lines:
/// the plan-and-apply path pass 1 runs on every column.
fn grow(lib: &mut Library, id: CellId, extra: i64) {
    let plan = stretch::StretchPlan::distribute(lib.cell(id).stretch_y(), extra).unwrap();
    stretch::apply_plan(lib.cell_mut(id), Axis::Y, &plan);
}

#[test]
fn stretching_preserves_drc() {
    let mut rng = Rng::new(0x57E7_0001);
    for case in 0..64 {
        let extra = rng.range(0, 200);
        let (mut lib, id) = testbed(4);
        let before = lib.bbox(id).unwrap().height();
        grow(&mut lib, id, extra);
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "case {case}: {report}");
        assert_eq!(lib.bbox(id).unwrap().height(), before + extra, "case {case}");
    }
}

#[test]
fn stretching_preserves_devices() {
    let mut rng = Rng::new(0x57E7_0002);
    for case in 0..64 {
        let extra = rng.range(0, 200);
        let gap = rng.range(0, 40);
        let (mut lib, id) = testbed(gap);
        let devices_before = extract(&lib, id).transistors.len();
        let before = lib.bbox(id).unwrap().height();
        grow(&mut lib, id, extra);
        assert_eq!(lib.bbox(id).unwrap().height(), before + extra, "case {case}");
        let devices_after = extract(&lib, id).transistors.len();
        assert_eq!(devices_before, devices_after, "case {case}");
    }
}

#[test]
fn stretch_map_is_monotone_and_gap_preserving() {
    let mut rng = Rng::new(0x57E7_0003);
    for case in 0..64 {
        let n = rng.range(2, 20);
        let positions: Vec<i64> = (0..n).map(|_| rng.range(-100, 100)).collect();
        let line = rng.range(-50, 50);
        let delta = rng.range(0, 60);
        let mut plan = stretch::StretchPlan::new();
        plan.insert(line, delta).unwrap();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Monotone and never compressing.
            assert!(plan.map(b) - plan.map(a) >= b - a, "case {case}");
        }
    }
}

#[test]
fn distribute_totals_exactly() {
    let mut rng = Rng::new(0x57E7_0004);
    for case in 0..64 {
        let mut lines: BTreeSet<i64> = BTreeSet::new();
        for _ in 0..rng.range(1, 6) {
            lines.insert(rng.range(-40, 40));
        }
        let total = rng.range(0, 100);
        let lines: Vec<i64> = lines.into_iter().collect();
        let plan = stretch::StretchPlan::distribute(&lines, total).unwrap();
        assert_eq!(plan.total(), total, "case {case}");
        // A point beyond every line moves by exactly `total`.
        assert_eq!(plan.map(1000), 1000 + total, "case {case}");
        // A point before every line does not move.
        assert_eq!(plan.map(-1000), -1000, "case {case}");
    }
}

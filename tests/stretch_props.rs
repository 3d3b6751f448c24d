//! Property tests for the paper's central "painless operation":
//! stretching preserves design rules, connectivity and device structure.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use bristle_blocks::cell::{
    Bristle, Cell, CellId, Flavor, InterfaceStd, Library, Rail, Shape, Side, TrackSet, Tracks,
};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;
use bristle_blocks::geom::{Layer, Point, Rect};

mod common;
use common::Rng;

/// A randomized-but-legal bit cell: a transistor pair plus wiring, with
/// a stretch line between the devices and the four track bristles on its
/// west edge (GND below the line, the buses and VDD above it).
fn testbed(gap: i64) -> Cell {
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
    for (name, ty, flavor) in [
        ("gnd", 0, Flavor::Power(Rail::Gnd)),
        ("busA", y, Flavor::Bus { bus: 0 }),
        ("busB", y + 5, Flavor::Bus { bus: 1 }),
        ("vdd", y + 10, Flavor::Power(Rail::Vdd)),
    ] {
        c.push_bristle(Bristle::new(name, Layer::Metal, Point::new(-2, ty), Side::West, flavor));
    }
    c
}

/// A library holding `cell` alone, and its id.
fn library(cell: Cell) -> (Library, CellId) {
    let mut lib = Library::new("prop");
    let id = lib.add_cell(cell).unwrap();
    (lib, id)
}

/// Grows `cell` by `extra` λ along y the way pass 1 does, before the
/// cell enters a library: the cell's natural tracks and a column
/// `extra` λ taller above GND vote on the standard, and
/// [`InterfaceStd::align`] stretches the cell onto it.
fn grow(mut cell: Cell, extra: i64) -> Cell {
    let natural = TrackSet::from_cell(&cell).unwrap();
    let [gnd, a, b, vdd] = natural.tracks.ys();
    let taller = TrackSet {
        tracks: Tracks::from_ys([gnd, a + extra, b + extra, vdd + extra]),
        top: natural.top + extra,
    };
    let std = InterfaceStd::from_tracks(&[natural, taller]);
    std.align(&mut cell).unwrap();
    cell
}

#[test]
fn stretching_preserves_drc() {
    let mut rng = Rng::new(0x57E7_0001);
    for case in 0..64 {
        let extra = rng.range(0, 200);
        let before = testbed(4).local_bbox().unwrap().height();
        let (lib, id) = library(grow(testbed(4), extra));
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
        let (lib, id) = library(testbed(gap));
        let devices_before = extract(&lib, id).transistors.len();
        let before = lib.bbox(id).unwrap().height();
        let (lib, id) = library(grow(testbed(gap), extra));
        assert_eq!(lib.bbox(id).unwrap().height(), before + extra, "case {case}");
        let devices_after = extract(&lib, id).transistors.len();
        assert_eq!(devices_before, devices_after, "case {case}");
    }
}

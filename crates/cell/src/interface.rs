//! The standard cell interface.
//!
//! *"By agreeing on a standard interface to begin with, any cell can be
//! guaranteed to mesh properly with adjacent cells before the neighboring
//! cells are specified. Boundary conditions like these allow design rule
//! checking to be performed on individual cells as the cells are
//! designed."* — Johannsen, DAC 1979.
//!
//! A bit slice carries four standard horizontal tracks, bottom to top:
//! GND rail, bus A (the paper's *lower bus* feeds upward), bus B, and the
//! VDD rail. [`InterfaceStd`] fixes their center-line y offsets within the
//! slice and the slice pitch itself — the paper's "common pitch (width)".
//! Natural track positions are read off a bit cell's bristles
//! ([`TrackSet::from_cell`]); the compiler computes the per-segment maxima
//! over all elements and stretch-aligns every cell to the standard.

use std::fmt;

use crate::bristle::{Flavor, Rail};
use crate::cell::Cell;
use crate::stretch::{StretchError, StretchPlan};

/// Natural track positions of one bit cell, read from its bristles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackSet {
    /// GND rail center y.
    pub gnd_y: i64,
    /// Bus A (upper bus, index 0) center y.
    pub bus_a_y: i64,
    /// Bus B (lower bus, index 1) center y.
    pub bus_b_y: i64,
    /// VDD rail center y.
    pub vdd_y: i64,
    /// Top of the cell's own geometry (bbox top).
    pub top: i64,
}

/// Why a cell fails the interface standard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterfaceViolation {
    /// A required track bristle is missing.
    MissingTrack(&'static str),
    /// Tracks are out of vertical order.
    TrackOrder,
    /// A track sits off its standard offset.
    Misaligned {
        /// Which track.
        track: &'static str,
        /// Standard offset.
        want: i64,
        /// Actual offset.
        got: i64,
    },
}

impl fmt::Display for InterfaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterfaceViolation::MissingTrack(t) => {
                write!(f, "bit cell lacks a `{t}` track bristle")
            }
            InterfaceViolation::TrackOrder => {
                f.write_str("track bristles are not in GND < busA < busB < VDD order")
            }
            InterfaceViolation::Misaligned { track, want, got } => {
                write!(f, "track `{track}` at y={got}, standard requires y={want}")
            }
        }
    }
}

impl std::error::Error for InterfaceViolation {}

impl TrackSet {
    /// Reads the natural track positions from a bit cell's bristles.
    ///
    /// The cell must carry `Power(Gnd)`, `Bus{bus:0}`, `Bus{bus:1}` and
    /// `Power(Vdd)` bristles (sides are not constrained here; stdcells
    /// put them on West/East edges for abutment).
    ///
    /// # Errors
    ///
    /// Returns a violation if a track bristle is missing or the tracks
    /// are out of order.
    pub fn from_cell(cell: &Cell) -> Result<TrackSet, InterfaceViolation> {
        let mut gnd = None;
        let mut bus_a = None;
        let mut bus_b = None;
        let mut vdd = None;
        for b in cell.bristles() {
            match &b.flavor {
                Flavor::Power(Rail::Gnd) => gnd = Some(b.pos.y),
                Flavor::Power(Rail::Vdd) => vdd = Some(b.pos.y),
                Flavor::Bus { bus: 0, .. } => bus_a = Some(b.pos.y),
                Flavor::Bus { bus: 1, .. } => bus_b = Some(b.pos.y),
                _ => {}
            }
        }
        let gnd_y = gnd.ok_or(InterfaceViolation::MissingTrack("GND"))?;
        let bus_a_y = bus_a.ok_or(InterfaceViolation::MissingTrack("busA"))?;
        let bus_b_y = bus_b.ok_or(InterfaceViolation::MissingTrack("busB"))?;
        let vdd_y = vdd.ok_or(InterfaceViolation::MissingTrack("VDD"))?;
        if !(gnd_y < bus_a_y && bus_a_y < bus_b_y && bus_b_y < vdd_y) {
            return Err(InterfaceViolation::TrackOrder);
        }
        let top = cell.local_bbox().map_or(vdd_y, |b| b.y1);
        Ok(TrackSet {
            gnd_y,
            bus_a_y,
            bus_b_y,
            vdd_y,
            top,
        })
    }
}

/// The resolved interface standard all bit cells are stretched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceStd {
    /// Slice pitch (the paper's common cell "width").
    pub pitch: i64,
    /// Standard GND rail center y within a slice.
    pub gnd_y: i64,
    /// Standard bus A center y.
    pub bus_a_y: i64,
    /// Standard bus B center y.
    pub bus_b_y: i64,
    /// Standard VDD rail center y.
    pub vdd_y: i64,
}

/// Metal width (λ) of every horizontal track — both power rails and both
/// buses. Rails are not sized by current: every cell draws them at this
/// width.
pub const TRACK_WIDTH: i64 = 4;

/// Minimum clearance kept between the VDD rail of one slice and the GND
/// rail of the slice above (the metal spacing rule).
pub const SLICE_CLEARANCE: i64 = 3;

impl InterfaceStd {
    /// Computes the standard as the per-segment maximum over all natural
    /// track sets — "every cell must be designed as wide as the widest
    /// cell", applied per inter-track segment so every track can be
    /// aligned by stretching (which only grows).
    ///
    /// # Panics
    ///
    /// Panics if `tracks` is empty.
    #[must_use]
    pub fn from_tracks(tracks: &[TrackSet]) -> InterfaceStd {
        assert!(!tracks.is_empty(), "no track sets supplied");
        let seg0 = tracks.iter().map(|t| t.gnd_y).max().unwrap();
        let seg1 = tracks.iter().map(|t| t.bus_a_y - t.gnd_y).max().unwrap();
        let seg2 = tracks.iter().map(|t| t.bus_b_y - t.bus_a_y).max().unwrap();
        let seg3 = tracks.iter().map(|t| t.vdd_y - t.bus_b_y).max().unwrap();
        let overhang = tracks.iter().map(|t| t.top - t.vdd_y).max().unwrap();
        let gnd_y = seg0;
        let bus_a_y = gnd_y + seg1;
        let bus_b_y = bus_a_y + seg2;
        let vdd_y = bus_b_y + seg3;
        // The next slice's GND bottom edge must clear this slice's
        // tallest geometry.
        let half = TRACK_WIDTH / 2;
        let mut pitch = (vdd_y + overhang.max(half) + SLICE_CLEARANCE) - (gnd_y - half);
        // And the pitch must land tracks of every slice on the lattice.
        if pitch % 2 == 1 {
            pitch += 1;
        }
        InterfaceStd {
            pitch,
            gnd_y,
            bus_a_y,
            bus_b_y,
            vdd_y,
        }
    }

    /// Standard track offsets as `(name, y)` pairs, bottom to top.
    #[must_use]
    pub fn tracks(&self) -> [(&'static str, i64); 4] {
        [
            ("GND", self.gnd_y),
            ("busA", self.bus_a_y),
            ("busB", self.bus_b_y),
            ("VDD", self.vdd_y),
        ]
    }

    /// Plans the vertical stretch aligning a natural track set to this
    /// standard. One insertion lands in each segment that must grow, at a
    /// stretch line the cell declared inside that segment.
    ///
    /// # Errors
    ///
    /// [`StretchError::NotStretchable`] if a segment must grow but the
    /// cell declares no stretch line strictly inside `[lower_track,
    /// upper_track)`.
    pub fn plan_alignment(
        &self,
        natural: &TrackSet,
        stretch_lines: &[i64],
        cell_name: &str,
    ) -> Result<StretchPlan, StretchError> {
        let mut plan = StretchPlan::new();
        // (segment lower bound in natural coords, natural track y, standard track y)
        let segments = [
            (i64::MIN, natural.gnd_y, self.gnd_y),
            (natural.gnd_y, natural.bus_a_y, self.bus_a_y),
            (natural.bus_a_y, natural.bus_b_y, self.bus_b_y),
            (natural.bus_b_y, natural.vdd_y, self.vdd_y),
        ];
        let mut inserted = 0i64;
        for (lo, nat, std) in segments {
            let delta = (std - nat) - inserted;
            debug_assert!(delta >= 0, "standard below natural: segment maxima violated");
            if delta == 0 {
                continue;
            }
            // A line at position p moves coordinates > p; to move `nat`
            // without moving `lo`, we need p in [lo, nat).
            let line = stretch_lines
                .iter()
                .copied()
                .find(|&p| p >= lo && p < nat)
                .ok_or(StretchError::NotStretchable {
                    cell: cell_name.to_owned(),
                    axis: bristle_geom::Axis::Y,
                    needed: delta,
                })?;
            plan.insert(line, delta)?;
            inserted += delta;
        }
        Ok(plan)
    }

    /// Checks that a (stretched) cell's tracks sit exactly on the
    /// standard offsets.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check(&self, cell: &Cell) -> Result<(), InterfaceViolation> {
        let t = TrackSet::from_cell(cell)?;
        for (name, want, got) in [
            ("GND", self.gnd_y, t.gnd_y),
            ("busA", self.bus_a_y, t.bus_a_y),
            ("busB", self.bus_b_y, t.bus_b_y),
            ("VDD", self.vdd_y, t.vdd_y),
        ] {
            if want != got {
                return Err(InterfaceViolation::Misaligned {
                    track: name,
                    want,
                    got,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for InterfaceStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pitch {}λ; GND@{} busA@{} busB@{} VDD@{}",
            self.pitch, self.gnd_y, self.bus_a_y, self.bus_b_y, self.vdd_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bristle::{Bristle, Side};
    use crate::shape::Shape;
    use crate::stretch::apply_plan;
    use bristle_geom::{Axis, Layer, Point, Rect};

    /// Builds a bit cell with tracks at the given offsets and a stretch
    /// line between each pair of tracks.
    fn tracked_cell(name: &str, gnd: i64, a: i64, b: i64, vdd: i64) -> Cell {
        let mut c = Cell::new(name);
        for (n, y, flavor) in [
            ("gnd", gnd, Flavor::Power(Rail::Gnd)),
            ("busA", a, Flavor::Bus { bus: 0, bit: 0 }),
            ("busB", b, Flavor::Bus { bus: 1, bit: 0 }),
            ("vdd", vdd, Flavor::Power(Rail::Vdd)),
        ] {
            c.push_bristle(Bristle::new(n, Layer::Metal, Point::new(0, y), Side::West, flavor));
        }
        // Geometry spanning the slice so bbox is meaningful.
        c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, gnd - 2, 20, vdd + 2)));
        c.add_stretch_y(gnd + 1);
        c.add_stretch_y(a + 1);
        c.add_stretch_y(b + 1);
        c.add_stretch_y(0);
        c
    }

    #[test]
    fn trackset_reads_bristles() {
        let c = tracked_cell("t", 2, 10, 18, 26);
        let t = TrackSet::from_cell(&c).unwrap();
        assert_eq!((t.gnd_y, t.bus_a_y, t.bus_b_y, t.vdd_y), (2, 10, 18, 26));
        assert_eq!(t.top, 28);
    }

    #[test]
    fn missing_track_detected() {
        let mut c = tracked_cell("t", 2, 10, 18, 26);
        c.bristles_mut().retain(|b| b.name != "busB");
        assert_eq!(
            TrackSet::from_cell(&c),
            Err(InterfaceViolation::MissingTrack("busB"))
        );
    }

    #[test]
    fn std_is_segmentwise_max() {
        let c1 = tracked_cell("a", 2, 10, 18, 26);
        let c2 = tracked_cell("b", 4, 8, 20, 24);
        let t1 = TrackSet::from_cell(&c1).unwrap();
        let t2 = TrackSet::from_cell(&c2).unwrap();
        let std = InterfaceStd::from_tracks(&[t1, t2]);
        assert_eq!(std.gnd_y, 4); // max(2,4)
        assert_eq!(std.bus_a_y, 4 + 8); // max(8,4)=8
        assert_eq!(std.bus_b_y, 12 + 12); // max(8,12)=12
        assert_eq!(std.vdd_y, 24 + 8); // max(8,4)=8
        assert!(std.pitch >= std.vdd_y + SLICE_CLEARANCE);
        assert_eq!(std.pitch % 2, 0);
    }

    #[test]
    fn alignment_plan_aligns_both_cells() {
        let mut c1 = tracked_cell("a", 2, 10, 18, 26);
        let mut c2 = tracked_cell("b", 4, 8, 20, 24);
        let t1 = TrackSet::from_cell(&c1).unwrap();
        let t2 = TrackSet::from_cell(&c2).unwrap();
        let std = InterfaceStd::from_tracks(&[t1, t2]);
        for (cell, t) in [(&mut c1, t1), (&mut c2, t2)] {
            let plan = std
                .plan_alignment(&t, &cell.stretch_y().to_vec(), cell.name())
                .unwrap();
            apply_plan(cell, Axis::Y, &plan);
            std.check(cell).unwrap();
        }
    }

    #[test]
    fn alignment_fails_without_lines() {
        let mut c = tracked_cell("a", 2, 10, 18, 26);
        c.set_stretch_y(Vec::new());
        let t = TrackSet::from_cell(&c).unwrap();
        let other = TrackSet {
            gnd_y: 6,
            bus_a_y: 14,
            bus_b_y: 22,
            vdd_y: 30,
            top: 32,
        };
        let std = InterfaceStd::from_tracks(&[t, other]);
        let err = std.plan_alignment(&t, &[], "a").unwrap_err();
        assert!(matches!(err, StretchError::NotStretchable { .. }));
    }

    #[test]
    fn check_reports_misalignment() {
        let c = tracked_cell("a", 2, 10, 18, 26);
        let t = TrackSet::from_cell(&c).unwrap();
        let mut std = InterfaceStd::from_tracks(&[t]);
        std.bus_a_y += 2;
        assert!(matches!(
            std.check(&c),
            Err(InterfaceViolation::Misaligned { track: "busA", .. })
        ));
    }
}

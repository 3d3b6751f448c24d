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
//! VDD rail. [`Tracks`] holds their center-line y offsets; it is the one
//! type every cell, the compiler and the frame builder describe tracks
//! with. Natural track positions are read off a bit cell's bristles
//! ([`TrackSet::from_cell`]); the compiler computes the per-segment maxima
//! over all elements ([`InterfaceStd::from_tracks`], which also fixes the
//! slice pitch — the paper's "common pitch (width)") and stretches every
//! cell to the standard with one call, [`InterfaceStd::align`].
//!
//! Bristle Blocks abuts core elements along x (the chip "length" in the
//! paper's vocabulary) and measures the common cell pitch along y (the
//! paper's "width"), so alignment only ever stretches along y.

use std::fmt;

use crate::bristle::{Flavor, Rail};
use crate::cell::Cell;
use crate::stretch::StretchPlan;

/// Center-line y offsets of the four standard tracks of a bit slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tracks {
    /// GND rail center y.
    pub gnd_y: i64,
    /// Bus A (upper bus, index 0) center y.
    pub bus_a_y: i64,
    /// Bus B (lower bus, index 1) center y.
    pub bus_b_y: i64,
    /// VDD rail center y.
    pub vdd_y: i64,
}

impl Tracks {
    /// Track names, bottom to top.
    const NAMES: [&'static str; 4] = ["GND", "busA", "busB", "VDD"];

    /// Tracks from their offsets, bottom to top.
    #[must_use]
    pub fn from_ys([gnd_y, bus_a_y, bus_b_y, vdd_y]: [i64; 4]) -> Tracks {
        Tracks {
            gnd_y,
            bus_a_y,
            bus_b_y,
            vdd_y,
        }
    }

    /// Offsets, bottom to top.
    #[must_use]
    pub fn ys(&self) -> [i64; 4] {
        [self.gnd_y, self.bus_a_y, self.bus_b_y, self.vdd_y]
    }

    /// `(name, y)` pairs, bottom to top.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, i64)> {
        Tracks::NAMES.into_iter().zip(self.ys())
    }

    /// Each track's rise over the one below it (GND's over y = 0).
    fn rises(&self) -> [i64; 4] {
        let y = self.ys();
        [y[0], y[1] - y[0], y[2] - y[1], y[3] - y[2]]
    }
}

/// Natural track positions of one bit cell, read from its bristles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackSet {
    /// The four track offsets.
    pub tracks: Tracks,
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
    /// A track must move up by `needed` λ, but the cell declares no
    /// stretch line in the segment below it.
    NotStretchable {
        /// Which track.
        track: &'static str,
        /// λ of growth that could not be realized.
        needed: i64,
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
            InterfaceViolation::NotStretchable { track, needed } => write!(
                f,
                "track `{track}` must rise {needed}λ, but no stretch line lies below it"
            ),
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
        let mut found = [None; 4];
        for b in cell.bristles() {
            let track = match &b.flavor {
                Flavor::Power(Rail::Gnd) => 0,
                Flavor::Bus { bus: 0 } => 1,
                Flavor::Bus { bus: 1 } => 2,
                Flavor::Power(Rail::Vdd) => 3,
                _ => continue,
            };
            found[track] = Some(b.pos.y);
        }
        let mut ys = [0; 4];
        for ((y, found), name) in ys.iter_mut().zip(found).zip(Tracks::NAMES) {
            *y = found.ok_or(InterfaceViolation::MissingTrack(name))?;
        }
        if !ys.windows(2).all(|w| w[0] < w[1]) {
            return Err(InterfaceViolation::TrackOrder);
        }
        Ok(TrackSet {
            tracks: Tracks::from_ys(ys),
            top: cell.local_bbox().map_or(ys[3], |b| b.y1),
        })
    }
}

/// The resolved interface standard all bit cells are stretched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceStd {
    /// Slice pitch (the paper's common cell "width").
    pub pitch: i64,
    /// Standard track offsets within a slice.
    pub tracks: Tracks,
}

/// Metal width (λ) of every horizontal track — both power rails and both
/// buses. Rails are not sized by current: every cell draws them at this
/// width.
pub const TRACK_WIDTH: i64 = 4;

/// Minimum clearance kept between the VDD rail of one slice and the GND
/// rail of the slice above (the metal spacing rule).
const SLICE_CLEARANCE: i64 = 3;

impl InterfaceStd {
    /// Computes the standard as the per-segment maximum over all natural
    /// track sets — "every cell must be designed as wide as the widest
    /// cell", applied per inter-track segment so every track can be
    /// aligned by stretching (which only grows). This is the one pitch
    /// rule: a single track set gives that cell's natural pitch.
    ///
    /// # Panics
    ///
    /// Panics if `tracks` is empty.
    #[must_use]
    pub fn from_tracks(tracks: &[TrackSet]) -> InterfaceStd {
        assert!(!tracks.is_empty(), "no track sets supplied");
        let mut y = 0;
        let std = Tracks::from_ys(std::array::from_fn(|i| {
            y += tracks.iter().map(|t| t.tracks.rises()[i]).max().unwrap();
            y
        }));
        let overhang = tracks.iter().map(|t| t.top - t.tracks.vdd_y).max().unwrap();
        // The next slice's GND bottom edge must clear this slice's
        // tallest geometry.
        let half = TRACK_WIDTH / 2;
        let mut pitch = (std.vdd_y + overhang.max(half) + SLICE_CLEARANCE) - (std.gnd_y - half);
        // And the pitch must land tracks of every slice on the lattice.
        if pitch % 2 == 1 {
            pitch += 1;
        }
        InterfaceStd { pitch, tracks: std }
    }

    /// Stretches a bit cell along y so its tracks sit exactly on the
    /// standard offsets: one insertion lands in each segment that must
    /// grow, at the first stretch line the cell declares in `[track
    /// below, track)`. A refused cell is left untouched.
    ///
    /// # Errors
    ///
    /// A missing or out-of-order track (see [`TrackSet::from_cell`]);
    /// [`InterfaceViolation::Misaligned`] if the standard puts a track
    /// below where stretching the segments under it carries the track
    /// (stretching only grows);
    /// [`InterfaceViolation::NotStretchable`] if a segment must grow but
    /// holds no stretch line.
    pub fn align(&self, cell: &mut Cell) -> Result<(), InterfaceViolation> {
        let nat = TrackSet::from_cell(cell)?.tracks.ys();
        // The natural track below each track bounds its segment.
        let below = [i64::MIN, nat[0], nat[1], nat[2]];
        let mut plan = StretchPlan::default();
        let mut inserted = 0;
        for (((track, want), got), lo) in self.tracks.iter().zip(nat).zip(below) {
            let needed = want - got - inserted;
            if needed < 0 {
                // Stretching below already carries the track to `got + inserted`.
                let got = got + inserted;
                return Err(InterfaceViolation::Misaligned { track, want, got });
            }
            if needed == 0 {
                continue;
            }
            // A line at p moves coordinates > p; to move `got` without
            // moving `lo`, p must lie in [lo, got).
            let line = cell
                .stretch_y()
                .iter()
                .copied()
                .find(|&p| p >= lo && p < got)
                .ok_or(InterfaceViolation::NotStretchable { track, needed })?;
            plan.insert(line, needed);
            inserted += needed;
        }
        plan.apply(cell);
        let got = TrackSet::from_cell(cell)?.tracks;
        for ((track, want), got) in self.tracks.iter().zip(got.ys()) {
            if want != got {
                return Err(InterfaceViolation::Misaligned { track, want, got });
            }
        }
        Ok(())
    }
}

impl fmt::Display for InterfaceStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pitch {}λ;", self.pitch)?;
        for (name, y) in self.tracks.iter() {
            write!(f, " {name}@{y}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bristle::{Bristle, Side};
    use crate::shape::Shape;
    use bristle_geom::{Layer, Point, Rect};

    /// Builds a bit cell with tracks at the given offsets and a stretch
    /// line between each pair of tracks.
    fn tracked_cell(name: &str, gnd: i64, a: i64, b: i64, vdd: i64) -> Cell {
        let mut c = Cell::new(name);
        for (n, y, flavor) in [
            ("gnd", gnd, Flavor::Power(Rail::Gnd)),
            ("busA", a, Flavor::Bus { bus: 0 }),
            ("busB", b, Flavor::Bus { bus: 1 }),
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
        assert_eq!(t.tracks.ys(), [2, 10, 18, 26]);
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
        assert_eq!(std.tracks.gnd_y, 4); // max(2,4)
        assert_eq!(std.tracks.bus_a_y, 4 + 8); // max(8,4)=8
        assert_eq!(std.tracks.bus_b_y, 12 + 12); // max(8,12)=12
        assert_eq!(std.tracks.vdd_y, 24 + 8); // max(8,4)=8
        assert!(std.pitch >= std.tracks.vdd_y + SLICE_CLEARANCE);
        assert_eq!(std.pitch % 2, 0);
    }

    #[test]
    fn alignment_plan_aligns_both_cells() {
        let mut c1 = tracked_cell("a", 2, 10, 18, 26);
        let mut c2 = tracked_cell("b", 4, 8, 20, 24);
        let t1 = TrackSet::from_cell(&c1).unwrap();
        let t2 = TrackSet::from_cell(&c2).unwrap();
        let std = InterfaceStd::from_tracks(&[t1, t2]);
        for cell in [&mut c1, &mut c2] {
            std.align(cell).unwrap();
            assert_eq!(TrackSet::from_cell(cell).unwrap().tracks, std.tracks);
        }
    }

    /// GND can rise on the line at y = 0, but busB must rise 2λ more and
    /// no line lies in its segment: the cell is refused whole.
    #[test]
    fn alignment_fails_without_lines() {
        let mut c = tracked_cell("a", 2, 10, 18, 26);
        c.set_stretch_y(vec![0]);
        let std = InterfaceStd {
            pitch: 40,
            tracks: Tracks::from_ys([6, 14, 24, 32]),
        };
        let before = c.clone();
        assert_eq!(
            std.align(&mut c),
            Err(InterfaceViolation::NotStretchable { track: "busB", needed: 2 })
        );
        assert_eq!(c, before);
    }

    #[test]
    fn check_reports_misalignment() {
        let mut c = tracked_cell("a", 2, 10, 18, 26);
        let t = TrackSet::from_cell(&c).unwrap();
        let mut std = InterfaceStd::from_tracks(&[t]);
        std.tracks.bus_a_y -= 2;
        let before = c.clone();
        assert_eq!(
            std.align(&mut c),
            Err(InterfaceViolation::Misaligned { track: "busA", want: 8, got: 10 })
        );
        assert_eq!(c, before);
    }
}

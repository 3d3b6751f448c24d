//! Pad-ring geometry: perimeter coordinates, even slot spacing, tracks.

use bristle_cell::Side;
use bristle_geom::{Point, Rect};

/// One pad position on the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadSlot {
    /// Slot index, clockwise from the north-west corner.
    pub index: usize,
    /// Pad center position (on the ring rectangle).
    pub pos: Point,
    /// Chip side the pad sits on.
    pub side: Side,
}

/// Maps a perimeter coordinate of `r` (clockwise from the NW corner,
/// wrapped) to the boundary point it names and that point's side.
pub(crate) fn perimeter_point(r: Rect, s: i64) -> (Point, Side) {
    let (w, h) = (r.width(), r.height());
    let s = s.rem_euclid(2 * (w + h));
    if s < w {
        (Point::new(r.x0 + s, r.y1), Side::North)
    } else if s < w + h {
        (Point::new(r.x1, r.y1 - (s - w)), Side::East)
    } else if s < 2 * w + h {
        (Point::new(r.x1 - (s - w - h), r.y0), Side::South)
    } else {
        (Point::new(r.x0, r.y0 + (s - 2 * w - h)), Side::West)
    }
}

/// Projects `p` to the perimeter coordinate of `r`'s nearest edge,
/// clamped to that edge. The inverse of [`perimeter_point`] for points
/// on the boundary.
pub(crate) fn perimeter_param(r: Rect, p: Point) -> i64 {
    let (w, h) = (r.width(), r.height());
    // Distance to each edge line; pick the closest edge, then clamp.
    let d_n = (r.y1 - p.y).abs();
    let d_e = (r.x1 - p.x).abs();
    let d_s = (p.y - r.y0).abs();
    let d_w = (p.x - r.x0).abs();
    let min = d_n.min(d_e).min(d_s).min(d_w);
    let x = p.x.clamp(r.x0, r.x1);
    let y = p.y.clamp(r.y0, r.y1);
    if min == d_n {
        x - r.x0
    } else if min == d_e {
        w + (r.y1 - y)
    } else if min == d_s {
        w + h + (r.x1 - x)
    } else {
        2 * w + h + (y - r.y0)
    }
}

/// The pad ring: a rectangle outside the core on which pads sit evenly
/// spaced, and a routing channel between the core and the ring.
///
/// Perimeter coordinates run **clockwise** starting at the north-west
/// corner (matching the paper's clockwise sort): north edge west→east,
/// east edge north→south, south edge east→west, west edge south→north.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// The rectangle pads sit on (pad inner edge).
    pub rect: Rect,
    /// Number of routing tracks in the channel (track 0 nearest core).
    pub tracks: usize,
    /// Distance between adjacent tracks (λ).
    pub track_pitch: i64,
    /// Clearance between the core boundary and track 0, and between the
    /// last track and the ring (λ).
    pub margin: i64,
}

impl Ring {
    /// Builds a ring around `core` with room for `tracks` routing tracks.
    ///
    /// # Panics
    ///
    /// Panics if `tracks` is 0.
    #[must_use]
    pub fn around(core: Rect, tracks: usize) -> Ring {
        assert!(tracks > 0, "need at least one track");
        let track_pitch = 8;
        let margin = 10;
        let channel = 2 * margin + track_pitch * tracks as i64;
        Ring {
            rect: core.inflate(channel),
            tracks,
            track_pitch,
            margin,
        }
    }

    /// Total perimeter length.
    #[must_use]
    pub fn perimeter(&self) -> i64 {
        2 * (self.rect.width() + self.rect.height())
    }

    /// Maps a perimeter coordinate (clockwise from NW corner, wrapped)
    /// to a position and side on the ring rectangle.
    #[must_use]
    pub fn at(&self, s: i64) -> (Point, Side) {
        perimeter_point(self.rect, s)
    }

    /// Projects an arbitrary point (typically a core-boundary connection
    /// point) to the nearest perimeter coordinate.
    #[must_use]
    pub fn project(&self, p: Point) -> i64 {
        perimeter_param(self.rect, p)
    }

    /// Clockwise distance between perimeter coordinates (shorter way).
    #[must_use]
    pub fn perimeter_distance(&self, a: i64, b: i64) -> i64 {
        let l = self.perimeter();
        let d = (a - b).rem_euclid(l);
        d.min(l - d)
    }

    /// `n` evenly spaced pad slots, clockwise, starting at `offset`
    /// perimeter units from the NW corner.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[must_use]
    pub fn slots(&self, n: usize, offset: i64) -> Vec<PadSlot> {
        assert!(n > 0, "no slots requested");
        let l = self.perimeter();
        (0..n)
            .map(|i| {
                let s = offset + (l * i as i64) / n as i64;
                let (pos, side) = self.at(s);
                PadSlot {
                    index: i,
                    pos,
                    side,
                }
            })
            .collect()
    }

    /// The rectangle of routing track `k` (0 nearest the core).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.tracks`.
    #[must_use]
    pub fn track_rect(&self, k: usize) -> Rect {
        assert!(k < self.tracks, "track {k} out of {}", self.tracks);
        let inset = self.margin + self.track_pitch * (self.tracks - 1 - k) as i64;
        self.rect.inflate(-inset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::around(Rect::new(0, 0, 100, 60), 4)
    }

    #[test]
    fn around_leaves_channel() {
        let r = ring();
        // channel = 2*10 + 8*4 = 52.
        assert_eq!(r.rect, Rect::new(-52, -52, 152, 112));
        assert_eq!(r.perimeter(), 2 * (204 + 164));
    }

    #[test]
    fn at_walks_clockwise() {
        let r = ring();
        let (p, side) = r.at(0);
        assert_eq!((p, side), (Point::new(-52, 112), Side::North));
        let (p, side) = r.at(r.rect.width());
        assert_eq!((p, side), (Point::new(152, 112), Side::East));
        let (p, side) = r.at(r.rect.width() + r.rect.height());
        assert_eq!((p, side), (Point::new(152, -52), Side::South));
        // Wraps.
        let (p0, _) = r.at(r.perimeter());
        assert_eq!(p0, Point::new(-52, 112));
    }

    #[test]
    fn project_round_trips_ring_points() {
        let r = ring();
        for s in [0, 7, 200, 350, 600, r.perimeter() - 1] {
            let (p, _) = r.at(s);
            assert_eq!(r.project(p), s, "s={s} p={p}");
        }
    }

    #[test]
    fn project_core_edge_points() {
        let r = ring();
        // A point on the core's north edge projects onto the ring north.
        let s = r.project(Point::new(50, 60));
        let (p, side) = r.at(s);
        assert_eq!(side, Side::North);
        assert_eq!(p.x, 50);
    }

    #[test]
    fn perimeter_distance_wraps() {
        let r = ring();
        let l = r.perimeter();
        assert_eq!(r.perimeter_distance(0, 10), 10);
        assert_eq!(r.perimeter_distance(10, 0), 10);
        assert_eq!(r.perimeter_distance(0, l - 5), 5);
    }

    #[test]
    fn slots_are_even_and_distinct() {
        let r = ring();
        let slots = r.slots(12, 20);
        assert_eq!(slots.len(), 12);
        let l = r.perimeter();
        let spacing = l / 12;
        for w in slots.windows(2) {
            let a = r.project(w[0].pos);
            let b = r.project(w[1].pos);
            let d = (b - a).rem_euclid(l);
            assert!((d - spacing).abs() <= 1, "uneven spacing {d} vs {spacing}");
        }
    }

    #[test]
    fn tracks_nest() {
        let r = ring();
        let t0 = r.track_rect(0);
        let t3 = r.track_rect(3);
        assert!(t3.contains_rect(&t0));
        // Track 0 clears the core by margin + one pitch; track 3 (last)
        // clears the ring by the margin.
        assert_eq!(t0, Rect::new(0, 0, 100, 60).inflate(10 + 8));
        assert_eq!(t3, r.rect.inflate(-10));
    }
}

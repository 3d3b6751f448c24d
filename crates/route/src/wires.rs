//! Physical pad wires: metal tracks, poly spokes, boundary stubs.
//!
//! Every routed net owns one **track** — a rectangle loop in the channel
//! between core and pad ring — reached by **spokes** that run
//! perpendicular from the core connection point (outward) and from the
//! pad (inward). Spokes are poly, tracks are metal, so a spoke passes
//! under every foreign track without shorting; contact constructs join
//! the layers at each spoke's own track. This makes *any* pad↔point
//! assignment routable, which is what lets the Roto-Router optimize
//! freely.

use std::fmt;

use bristle_cell::{Shape, Side};
use bristle_geom::{Layer, Path, Point, Rect};

use crate::ring::{perimeter_param, perimeter_point, Ring};
use crate::roto::RouteAssignment;

/// Errors from wire generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The ring has fewer tracks than there are nets.
    TooFewTracks {
        /// Nets to route.
        nets: usize,
        /// Tracks available.
        tracks: usize,
    },
    /// Two connection points on the same core edge are closer than the
    /// 7λ the escape constructs need.
    PointsTooClose(String, String),
    /// Pad slots are too dense to keep spokes apart.
    SlotsTooDense,
    /// A point does not lie on the core boundary.
    PointOffCore(String),
    /// No spoke coordinate within reach of this net's pad keeps clear of
    /// the pad squares and of the other spokes' via constructs.
    SpokeCongestion(String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooFewTracks { nets, tracks } => {
                write!(f, "{nets} nets but only {tracks} routing tracks")
            }
            RouteError::PointsTooClose(a, b) => {
                write!(f, "connection points `{a}` and `{b}` are closer than 7λ")
            }
            RouteError::SlotsTooDense => f.write_str("pad slots closer than 16λ"),
            RouteError::PointOffCore(n) => {
                write!(f, "connection point `{n}` is not on the core boundary")
            }
            RouteError::SpokeCongestion(n) => {
                write!(f, "no short-free spoke coordinate for net `{n}`")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// One routed pad wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedWire {
    /// Net name (the connection point's qualified bristle name).
    pub name: String,
    /// Pad slot index serving this net.
    pub slot: usize,
    /// All mask shapes of the wire (poly spokes, metal track arc,
    /// contact constructs, stubs).
    pub shapes: Vec<Shape>,
    /// Center-line length in λ.
    pub length: i64,
}

/// Which core side a boundary point sits on (nearest edge).
fn side_of(core: Rect, p: Point) -> Side {
    let d = [
        (core.y1 - p.y).abs(), // North
        (core.x1 - p.x).abs(), // East
        (p.y - core.y0).abs(), // South
        (p.x - core.x0).abs(), // West
    ];
    let mut best = 0;
    for (i, &v) in d.iter().enumerate() {
        if v < d[best] {
            best = i;
        }
    }
    [Side::North, Side::East, Side::South, Side::West][best]
}

/// A via construct: 4×4 metal pad, 2×2 cut, 4×4 poly pad, centered.
fn via(at: Point, label: &str) -> Vec<Shape> {
    vec![
        Shape::rect(Layer::Metal, Rect::centered(at, 4, 4)).with_label(label),
        Shape::rect(Layer::Contact, Rect::centered(at, 2, 2)),
        Shape::rect(Layer::Poly, Rect::centered(at, 4, 4)).with_label(label),
    ]
}

/// Polyline along a rectangle boundary from parameter `s0` to `s1`,
/// walking the shorter way (clockwise on a tie), corners included.
fn rect_walk(r: Rect, s0: i64, s1: i64) -> Vec<Point> {
    let (w, h) = (r.width(), r.height());
    let l = 2 * (w + h);
    let (a, b) = (s0.rem_euclid(l), s1.rem_euclid(l));
    let cw = (b - a).rem_euclid(l);
    let dir = if cw <= l - cw { 1 } else { -1 };
    // Distance from `a` along the walk.
    let along = |s: i64| (dir * (s - a)).rem_euclid(l);
    // Corners strictly between the ends (params of NW, NE, SE, SW).
    let mut corners: Vec<i64> = [0, w, w + h, 2 * w + h]
        .into_iter()
        .filter(|&c| (1..along(b)).contains(&along(c)))
        .collect();
    corners.sort_by_key(|&c| along(c));
    let mut pts: Vec<Point> = std::iter::once(a)
        .chain(corners)
        .chain(std::iter::once(b))
        .map(|s| perimeter_point(r, s).0)
        .collect();
    // Drop consecutive duplicates (a == b, or the coincident corners of
    // a degenerate rectangle).
    pts.dedup();
    pts
}

/// Generates the physical wires realizing `assignment`.
///
/// `points` are `(net name, position, layer)` triples; positions must lie
/// on (or very near) the `core` boundary. The ring must have at least one
/// track per net.
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_wires(
    ring: &Ring,
    core: Rect,
    points: &[(String, Point, Layer)],
    assignment: &RouteAssignment,
) -> Result<Vec<RoutedWire>, RouteError> {
    let n = points.len();
    if ring.tracks < n {
        return Err(RouteError::TooFewTracks {
            nets: n,
            tracks: ring.tracks,
        });
    }
    // Same-side points must be ≥ 7λ apart for the via constructs.
    for i in 0..n {
        for j in i + 1..n {
            let (pi, pj) = (points[i].1, points[j].1);
            if side_of(core, pi) == side_of(core, pj) {
                let d = match side_of(core, pi) {
                    Side::North | Side::South => (pi.x - pj.x).abs(),
                    Side::East | Side::West => (pi.y - pj.y).abs(),
                };
                if d < 7 {
                    return Err(RouteError::PointsTooClose(
                        points[i].0.clone(),
                        points[j].0.clone(),
                    ));
                }
            }
        }
    }
    let slots = ring.slots(n, 0);
    if n > 1 && ring.perimeter() / (n as i64) < 16 {
        return Err(RouteError::SlotsTooDense);
    }

    // Spoke coordinates already claimed, per side, with the outermost
    // track each spoke crosses: (side, coord, hi_track). A point spoke
    // runs out from the core to its track; a pad spoke runs in from the
    // ring, past every outer track, so its `hi_track` is `ring.tracks`.
    let mut claimed: Vec<(Side, i64, usize)> = Vec::new();
    let coord_of = |side: Side, p: Point| match side {
        Side::North | Side::South => p.x,
        Side::East | Side::West => p.y,
    };
    for (i, (_, p, _)) in points.iter().enumerate() {
        let side = side_of(core, *p);
        let track = assignment.slot_of[i];
        claimed.push((side, coord_of(side, *p), track));
    }

    let mut wires = Vec::with_capacity(n);
    for (i, (name, p, layer)) in points.iter().enumerate() {
        let slot = assignment.slot_of[i];
        let track = slot; // one private track per net
        let track_rect = ring.track_rect(track);
        let side_p = side_of(core, *p);
        let mut shapes: Vec<Shape> = Vec::new();
        let mut length = 0i64;

        // --- Point spoke: perpendicular from the core edge out to the
        //     net's track.
        let (spoke_end_p, spoke_len_p) = match side_p {
            Side::North => (Point::new(p.x, track_rect.y1), (track_rect.y1 - p.y).abs()),
            Side::East => (Point::new(track_rect.x1, p.y), (track_rect.x1 - p.x).abs()),
            Side::South => (Point::new(p.x, track_rect.y0), (p.y - track_rect.y0).abs()),
            Side::West => (Point::new(track_rect.x0, p.y), (p.x - track_rect.x0).abs()),
        };
        if *layer == Layer::Metal {
            shapes.extend(via(*p, name));
        }
        if spoke_len_p > 0 {
            shapes.push(Shape::wire(
                Layer::Poly,
                Path::new(vec![*p, spoke_end_p], 2).expect("point spoke"),
            ));
        }
        length += spoke_len_p;
        shapes.extend(via(spoke_end_p, name));

        // --- Pad spoke: from the pad slot inward to the track, with a
        //     boundary stub if the coordinate must shift to clear other
        //     spokes or a track corner.
        let pad = &slots[slot];
        let side_s = pad.side;
        let pin = coord_of(side_s, pad.pos);
        // Keep inside the track rectangle's straight segment, 7λ clear
        // of the corners: the arc turns the corner with a 4λ-wide bend,
        // and a spoke via closer than 7λ leaves a 1λ notch between its
        // pad and the perpendicular arm of the bend.
        let (seg_lo, seg_hi) = match side_s {
            Side::North | Side::South => (track_rect.x0 + 7, track_rect.x1 - 7),
            Side::East | Side::West => (track_rect.y0 + 7, track_rect.y1 - 7),
        };
        let mut coord = pin.clamp(seg_lo, seg_hi);
        // A coordinate conflicts when it is < 7λ from a claimed spoke
        // that reaches our track or beyond (ours runs from `track` out
        // to the ring): the via constructs are 4λ wide, so anything
        // closer leaves a sub-3λ metal notch between the via pads. The
        // pad squares are keep-out bands too: a via < 25λ from a foreign
        // pin shorts or notches that 40λ pad, and one 22..24λ from our
        // own pin sits 1..2λ off its edge.
        let conflict = |c: i64| {
            (22..25).contains(&(c - pin).abs())
                || slots.iter().enumerate().any(|(si, s)| {
                    si != slot && s.side == side_s && (c - coord_of(side_s, s.pos)).abs() < 25
                })
                || claimed
                    .iter()
                    .any(|&(s, cc, hi)| s == side_s && (cc - c).abs() < 7 && hi >= track)
        };
        // Symmetric outward search for the nearest clear coordinate, so
        // a crowded edge does not send the stub wandering across half
        // the ring (and through foreign pad territory). If none is
        // clear, the edge cannot be routed clean: a hard error, never a
        // dirty wire.
        if conflict(coord) {
            coord = (1..=64)
                .find_map(|k| {
                    [coord + 4 * k, coord - 4 * k]
                        .into_iter()
                        .find(|&c| (seg_lo..=seg_hi).contains(&c) && !conflict(c))
                })
                .ok_or_else(|| RouteError::SpokeCongestion(name.clone()))?;
        }
        claimed.push((side_s, coord, ring.tracks));

        // The boundary stub runs 2λ outside the ring rectangle: core
        // connection points sit on the frame boundary 5λ in, and their
        // via pads protrude 2λ into the margin, so a stub centered on
        // the boundary itself would graze every point via by 1λ.
        let (stub_from, spoke_start, spoke_end_s) = match side_s {
            Side::North => (
                pad.pos,
                Point::new(coord, ring.rect.y1 + 2),
                Point::new(coord, track_rect.y1),
            ),
            Side::East => (
                pad.pos,
                Point::new(ring.rect.x1 + 2, coord),
                Point::new(track_rect.x1, coord),
            ),
            Side::South => (
                pad.pos,
                Point::new(coord, ring.rect.y0 - 2),
                Point::new(coord, track_rect.y0),
            ),
            Side::West => (
                pad.pos,
                Point::new(ring.rect.x0 - 2, coord),
                Point::new(track_rect.x0, coord),
            ),
        };
        if stub_from != spoke_start {
            // The pad pin may sit a few λ outside the ring rectangle, so
            // route the stub as an axis-aligned L (perpendicular drop to
            // the boundary, then along it) — a skewed two-point path
            // renders as a staircase whose corners graze the vias.
            let corner = match side_s {
                Side::North | Side::South => Point::new(stub_from.x, spoke_start.y),
                Side::East | Side::West => Point::new(spoke_start.x, stub_from.y),
            };
            let mut pts = vec![stub_from, corner, spoke_start];
            pts.dedup();
            shapes.push(Shape::wire(
                Layer::Metal,
                Path::new(pts, 4).expect("pad stub"),
            ));
            length += stub_from.manhattan(spoke_start);
        }
        shapes.extend(via(spoke_start, name));
        let spoke_len_s = spoke_start.manhattan(spoke_end_s);
        if spoke_len_s > 0 {
            shapes.push(Shape::wire(
                Layer::Poly,
                Path::new(vec![spoke_start, spoke_end_s], 2).expect("pad spoke"),
            ));
        }
        length += spoke_len_s;
        shapes.extend(via(spoke_end_s, name));

        // --- Track arc between the two spoke landings.
        let s0 = perimeter_param(track_rect, spoke_end_p);
        let s1 = perimeter_param(track_rect, spoke_end_s);
        if s0 != s1 {
            let pts = rect_walk(track_rect, s0, s1);
            if pts.len() >= 2 {
                let arc = Path::new(pts, 4).expect("track arc");
                length += arc.length();
                shapes.push(Shape::wire(Layer::Metal, arc).with_label(name.clone()));
            }
        }

        wires.push(RoutedWire {
            name: name.clone(),
            slot,
            shapes,
            length,
        });
    }
    Ok(wires)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roto::RotoRouter;

    fn setup(pts: &[(i64, i64)]) -> (Ring, Rect, Vec<(String, Point, Layer)>) {
        let core = Rect::new(0, 0, 200, 120);
        let ring = Ring::around(core, pts.len());
        let points: Vec<(String, Point, Layer)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (format!("p{i}"), Point::new(x, y), Layer::Metal))
            .collect();
        (ring, core, points)
    }

    #[test]
    fn routes_simple_set() {
        let (ring, core, points) = setup(&[(50, 120), (150, 120), (200, 60), (100, 0)]);
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        let wires = route_wires(&ring, core, &points, &assignment).unwrap();
        assert_eq!(wires.len(), 4);
        for w in &wires {
            assert!(w.length > 0);
            assert!(!w.shapes.is_empty());
            // Every wire has at least two via constructs (6 shapes).
            let contacts = w
                .shapes
                .iter()
                .filter(|s| s.layer == Layer::Contact)
                .count();
            assert!(contacts >= 2, "wire {} has {contacts} contacts", w.name);
        }
        // All slots distinct.
        let mut slots: Vec<usize> = wires.iter().map(|w| w.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn wire_shapes_stay_inside_ring() {
        let (ring, core, points) = setup(&[(50, 120), (150, 120), (100, 0)]);
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        let wires = route_wires(&ring, core, &points, &assignment).unwrap();
        // Stubs run 2λ outside the ring rectangle (plus 2λ half-width).
        let outer = ring.rect.inflate(5);
        for w in &wires {
            for s in &w.shapes {
                assert!(
                    outer.contains_rect(&s.bbox()),
                    "{}: {s} outside ring",
                    w.name
                );
            }
        }
    }

    #[test]
    fn too_few_tracks_rejected() {
        let core = Rect::new(0, 0, 100, 100);
        let ring = Ring::around(core, 1);
        let points = vec![
            ("a".to_string(), Point::new(20, 100), Layer::Metal),
            ("b".to_string(), Point::new(80, 100), Layer::Metal),
        ];
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        assert!(matches!(
            route_wires(&ring, core, &points, &assignment),
            Err(RouteError::TooFewTracks { nets: 2, tracks: 1 })
        ));
    }

    #[test]
    fn close_points_rejected() {
        let core = Rect::new(0, 0, 100, 100);
        let ring = Ring::around(core, 2);
        let points = vec![
            ("a".to_string(), Point::new(50, 100), Layer::Metal),
            ("b".to_string(), Point::new(53, 100), Layer::Metal),
        ];
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        assert!(matches!(
            route_wires(&ring, core, &points, &assignment),
            Err(RouteError::PointsTooClose(_, _))
        ));
    }

    #[test]
    fn crowded_edge_is_spoke_congestion() {
        // Ten points 8λ apart crowd the north edge: for some pad spoke
        // every coordinate in reach lies < 7λ from another spoke or in a
        // pad square's keep-out band, so the router refuses the set
        // instead of emitting a notched via.
        let core = Rect::new(0, 0, 88, 39);
        let points: Vec<(String, Point, Layer)> = (1..=10)
            .map(|k| (format!("p{k}"), Point::new(8 * k, 39), Layer::Metal))
            .collect();
        let ring = Ring::around(core, points.len());
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        assert!(matches!(
            route_wires(&ring, core, &points, &assignment),
            Err(RouteError::SpokeCongestion(_))
        ));
    }

    #[test]
    fn rect_walk_shorter_way() {
        let r = Rect::new(0, 0, 10, 10);
        // From mid-north to mid-east: clockwise through NE corner.
        let s0 = perimeter_param(r, Point::new(5, 10));
        let s1 = perimeter_param(r, Point::new(10, 5));
        let pts = rect_walk(r, s0, s1);
        assert_eq!(
            pts,
            vec![Point::new(5, 10), Point::new(10, 10), Point::new(10, 5)]
        );
        // Reverse walk goes counter-clockwise through the same corner.
        let rev = rect_walk(r, s1, s0);
        assert_eq!(
            rev,
            vec![Point::new(10, 5), Point::new(10, 10), Point::new(5, 10)]
        );
    }

    #[test]
    fn param_point_round_trip() {
        let r = Rect::new(-5, -5, 20, 15);
        let l = 2 * (r.width() + r.height());
        for s in (0..l).step_by(7) {
            let p = perimeter_point(r, s).0;
            assert_eq!(perimeter_param(r, p), s, "s={s}");
        }
    }

    #[test]
    fn poly_spokes_clear_each_other() {
        // Many points and pads; verify no two poly shapes from different
        // wires are closer than 2λ (the poly spacing rule).
        let (ring, core, points) = setup(&[
            (20, 120),
            (60, 120),
            (100, 120),
            (140, 120),
            (180, 120),
            (200, 90),
            (200, 30),
            (140, 0),
            (60, 0),
            (0, 60),
        ]);
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let assignment = RotoRouter::new().assign(&ring, &raw);
        let wires = route_wires(&ring, core, &points, &assignment).unwrap();
        for (i, a) in wires.iter().enumerate() {
            for b in wires.iter().skip(i + 1) {
                for sa in a.shapes.iter().filter(|s| s.layer == Layer::Poly) {
                    for sb in b.shapes.iter().filter(|s| s.layer == Layer::Poly) {
                        for ra in sa.to_rects() {
                            for rb in sb.to_rects() {
                                assert!(
                                    ra.spacing(&rb) >= 2,
                                    "{} and {} poly too close: {ra} vs {rb}",
                                    a.name,
                                    b.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

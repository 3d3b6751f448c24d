//! Wires: Manhattan center-line paths with a width.

use std::fmt;

use crate::{Point, Rect};

/// A wire: a Manhattan center-line with a (λ) width.
///
/// Paths are the natural way to express routing — bus wires, control
/// lines, pad connections — and they degrade gracefully into rectangle
/// soup via [`Path::to_rects`] for DRC and extraction. Joints are squared
/// off: segments are extended by `width / 2` at interior vertices so
/// corners stay design-rule-clean, while the two terminal endpoints stay
/// flush (cells may end wires exactly on their abutment boundary).
///
/// # Examples
///
/// ```
/// use bristle_geom::{Path, Point, Rect};
///
/// let wire = Path::new(vec![Point::new(0, 0), Point::new(10, 0), Point::new(10, 8)], 2).unwrap();
/// assert_eq!(wire.length(), 18);
/// let rects = wire.to_rects();
/// assert_eq!(rects[0], Rect::new(0, -1, 11, 1));  // horizontal leg, corner squared
/// assert_eq!(rects[1], Rect::new(9, -1, 11, 8));  // vertical leg, corner squared
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    points: Vec<Point>,
    width: i64,
}

/// Error constructing a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Fewer than two points were supplied.
    TooFewPoints(usize),
    /// The width is zero, negative, or odd (odd widths put wire edges off
    /// the λ lattice when centered).
    BadWidth(i64),
    /// A segment is neither horizontal nor vertical.
    NotManhattan(usize),
    /// Two consecutive points coincide.
    EmptySegment(usize),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooFewPoints(n) => write!(f, "path needs at least 2 points, got {n}"),
            PathError::BadWidth(w) => write!(f, "path width must be positive and even, got {w}"),
            PathError::NotManhattan(i) => write!(f, "path segment {i} is not axis-aligned"),
            PathError::EmptySegment(i) => write!(f, "path segment {i} has zero length"),
        }
    }
}

impl std::error::Error for PathError {}

impl Path {
    /// Creates a Manhattan wire from its center-line points and width.
    ///
    /// # Errors
    ///
    /// Rejects paths with fewer than two points, non-positive or odd
    /// widths, zero-length segments, and diagonal segments.
    pub fn new(points: Vec<Point>, width: i64) -> Result<Path, PathError> {
        if points.len() < 2 {
            return Err(PathError::TooFewPoints(points.len()));
        }
        if width <= 0 || width % 2 != 0 {
            return Err(PathError::BadWidth(width));
        }
        for i in 0..points.len() - 1 {
            let (a, b) = (points[i], points[i + 1]);
            if a == b {
                return Err(PathError::EmptySegment(i));
            }
            if a.x != b.x && a.y != b.y {
                return Err(PathError::NotManhattan(i));
            }
        }
        Ok(Path { points, width })
    }

    /// The center-line vertices.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The wire width in λ.
    #[must_use]
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Total center-line length in λ.
    #[must_use]
    pub fn length(&self) -> i64 {
        self.points
            .windows(2)
            .map(|w| w[0].manhattan(w[1]))
            .sum()
    }

    /// Expands the wire into axis-aligned rectangles, one per segment:
    /// inflated by `width / 2` across the segment and extended by
    /// `width / 2` past interior vertices, so elbows are fully covered
    /// while terminal endpoints stay flush.
    #[must_use]
    pub fn to_rects(&self) -> Vec<Rect> {
        self.rects().collect()
    }

    /// The rectangles of [`Path::to_rects`], without collecting them.
    fn rects(&self) -> impl Iterator<Item = Rect> + '_ {
        let h = self.width / 2;
        let n = self.points.len() - 1;
        (0..n)
            .map(move |i| {
                let (a, b) = (self.points[i], self.points[i + 1]);
                // Extension applies only at interior vertices.
                let ext_a = if i > 0 { h } else { 0 };
                let ext_b = if i + 1 < n { h } else { 0 };
                if a.y == b.y {
                    // Horizontal segment.
                    let (x0, ea, x1, eb) = if a.x <= b.x {
                        (a.x, ext_a, b.x, ext_b)
                    } else {
                        (b.x, ext_b, a.x, ext_a)
                    };
                    Rect::new(x0 - ea, a.y - h, x1 + eb, a.y + h)
                } else {
                    let (y0, ea, y1, eb) = if a.y <= b.y {
                        (a.y, ext_a, b.y, ext_b)
                    } else {
                        (b.y, ext_b, a.y, ext_a)
                    };
                    Rect::new(a.x - h, y0 - ea, a.x + h, y1 + eb)
                }
            })
    }

    /// Bounding box of the full wire (including width).
    #[must_use]
    pub fn bbox(&self) -> Rect {
        self.rects()
            .reduce(|bb, r| bb.union(&r))
            .expect("a path has at least one segment")
    }

    /// Translates the whole wire.
    #[must_use]
    pub fn translate(&self, d: Point) -> Path {
        Path {
            points: self.points.iter().map(|&p| p + d).collect(),
            width: self.width,
        }
    }

    /// Applies an arbitrary point map to every vertex, keeping the width.
    ///
    /// The caller must ensure the map preserves Manhattan-ness (all maps in
    /// this workspace — stretches and D₄ transforms — do).
    #[must_use]
    pub fn map_points(&self, mut f: impl FnMut(Point) -> Point) -> Path {
        Path {
            points: self.points.iter().map(|&p| f(p)).collect(),
            width: self.width,
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire[{} pts, w={}, len={}]",
            self.points.len(),
            self.width,
            self.length()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(matches!(
            Path::new(vec![Point::ORIGIN], 2),
            Err(PathError::TooFewPoints(1))
        ));
        assert!(matches!(
            Path::new(vec![Point::ORIGIN, Point::new(2, 0)], 3),
            Err(PathError::BadWidth(3))
        ));
        assert!(matches!(
            Path::new(vec![Point::ORIGIN, Point::new(2, 2)], 2),
            Err(PathError::NotManhattan(0))
        ));
        assert!(matches!(
            Path::new(vec![Point::ORIGIN, Point::ORIGIN], 2),
            Err(PathError::EmptySegment(0))
        ));
    }

    #[test]
    fn straight_wire_rects() {
        let p = Path::new(vec![Point::new(0, 0), Point::new(6, 0)], 2).unwrap();
        assert_eq!(p.to_rects(), vec![Rect::new(0, -1, 6, 1)]);
        assert_eq!(p.length(), 6);
        assert_eq!(p.bbox(), Rect::new(0, -1, 6, 1));
    }

    #[test]
    fn elbow_covers_corner() {
        let p = Path::new(vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)], 2).unwrap();
        let rects = p.to_rects();
        // The corner square around (4,0) must be covered with margin.
        let corner = Rect::new(3, -1, 5, 1);
        assert!(rects.iter().any(|r| r.contains_rect(&corner)), "{rects:?}");
        // Terminal endpoints stay flush with the center-line ends.
        let bb = p.bbox();
        assert_eq!((bb.x0, bb.y1), (0, 4));
    }

    #[test]
    fn translate_and_map() {
        let p = Path::new(vec![Point::new(0, 0), Point::new(4, 0)], 2).unwrap();
        let t = p.translate(Point::new(1, 1));
        assert_eq!(t.points(), &[Point::new(1, 1), Point::new(5, 1)]);
        let m = p.map_points(|q| Point::new(q.x * 2, q.y));
        assert_eq!(m.length(), 8);
    }

    #[test]
    fn reverse_direction_segments() {
        // Right-to-left and top-to-bottom segments normalize correctly;
        // the shared corner at (0,4) is squared off on both legs.
        let p = Path::new(vec![Point::new(6, 4), Point::new(0, 4), Point::new(0, 0)], 2).unwrap();
        let rects = p.to_rects();
        assert_eq!(rects[0], Rect::new(-1, 3, 6, 5));
        assert_eq!(rects[1], Rect::new(-1, 0, 1, 5));
    }
}

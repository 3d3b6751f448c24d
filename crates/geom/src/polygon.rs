//! Simple rectilinear polygons.

use std::fmt;

use crate::{Point, Rect};

/// A simple (non-self-intersecting) polygon on the λ lattice.
///
/// Bristle Blocks uses polygons sparingly — pads and a few corner
/// structures — so this type provides only what the compiler and the CIF
/// writer need: area, bounding box, translation and rectilinearity checks.
///
/// # Examples
///
/// ```
/// use bristle_geom::{Point, Polygon};
///
/// let l_shape = Polygon::new(vec![
///     Point::new(0, 0),
///     Point::new(4, 0),
///     Point::new(4, 2),
///     Point::new(2, 2),
///     Point::new(2, 4),
///     Point::new(0, 4),
/// ]).unwrap();
/// assert_eq!(l_shape.area(), 12);
/// assert!(l_shape.is_rectilinear());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Error constructing a [`Polygon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices(usize),
    /// Two consecutive vertices coincide.
    RepeatedVertex(usize),
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => {
                write!(f, "polygon needs at least 3 vertices, got {n}")
            }
            PolygonError::RepeatedVertex(i) => {
                write!(f, "polygon vertices {i} and {} coincide", i + 1)
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Creates a polygon from its vertex loop (implicitly closed).
    ///
    /// # Errors
    ///
    /// Returns [`PolygonError::TooFewVertices`] for fewer than three
    /// vertices and [`PolygonError::RepeatedVertex`] if consecutive
    /// vertices coincide.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        for i in 0..vertices.len() {
            let j = (i + 1) % vertices.len();
            if vertices[i] == vertices[j] {
                return Err(PolygonError::RepeatedVertex(i));
            }
        }
        Ok(Polygon { vertices })
    }

    /// A rectangle as a four-vertex polygon (counter-clockwise).
    #[must_use]
    pub fn from_rect(r: Rect) -> Polygon {
        Polygon {
            vertices: vec![
                Point::new(r.x0, r.y0),
                Point::new(r.x1, r.y0),
                Point::new(r.x1, r.y1),
                Point::new(r.x0, r.y1),
            ],
        }
    }

    /// The vertex loop.
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Absolute enclosed area (shoelace formula). Integer because vertices
    /// are lattice points and the polygon is rectilinear in practice.
    #[must_use]
    pub fn area(&self) -> i64 {
        let mut twice = 0i64;
        for i in 0..self.vertices.len() {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % self.vertices.len()];
            twice += a.x * b.y - b.x * a.y;
        }
        twice.abs() / 2
    }

    /// Axis-aligned bounding box.
    #[must_use]
    pub fn bbox(&self) -> Rect {
        let mut lo = self.vertices[0];
        let mut hi = self.vertices[0];
        for &v in &self.vertices[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Rect::from_points(lo, hi)
    }

    /// True if every edge is horizontal or vertical.
    #[must_use]
    pub fn is_rectilinear(&self) -> bool {
        (0..self.vertices.len()).all(|i| {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % self.vertices.len()];
            a.x == b.x || a.y == b.y
        })
    }

    /// Translates every vertex by `d`.
    #[must_use]
    pub fn translate(&self, d: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + d).collect(),
        }
    }

    /// Applies an arbitrary point map to every vertex. Used by the stretch
    /// engine and by instance flattening.
    #[must_use]
    pub fn map_points(&self, mut f: impl FnMut(Point) -> Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Decomposes a **rectilinear** polygon into non-overlapping
    /// rectangles by horizontal slab sweep (even–odd fill rule).
    ///
    /// The union of the returned rectangles equals the polygon interior,
    /// and their areas sum to [`Polygon::area`].
    ///
    /// # Panics
    ///
    /// Panics if the polygon is not rectilinear.
    #[must_use]
    pub fn to_rects(&self) -> Vec<Rect> {
        assert!(self.is_rectilinear(), "to_rects requires a rectilinear polygon");
        let n = self.vertices.len();
        // Vertical edges only; horizontal edges merely bound the slabs.
        let mut vedges: Vec<(i64, i64, i64)> = Vec::new(); // (x, ylo, yhi)
        let mut ys: Vec<i64> = Vec::new();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            ys.push(a.y);
            if a.x == b.x && a.y != b.y {
                vedges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
            }
        }
        ys.sort_unstable();
        ys.dedup();
        let mut rects = Vec::new();
        for slab in ys.windows(2) {
            let (ylo, yhi) = (slab[0], slab[1]);
            // Vertical edges spanning this slab, sorted by x; pair them up
            // (even–odd rule) to get the covered x intervals.
            let mut xs: Vec<i64> = vedges
                .iter()
                .filter(|&&(_, elo, ehi)| elo <= ylo && yhi <= ehi)
                .map(|&(x, _, _)| x)
                .collect();
            xs.sort_unstable();
            debug_assert!(xs.len().is_multiple_of(2), "odd crossing count in simple polygon");
            for pair in xs.chunks(2) {
                if pair.len() == 2 && pair[0] < pair[1] {
                    rects.push(Rect::new(pair[0], ylo, pair[1], yhi));
                }
            }
        }
        rects
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poly[{} vertices, area {}]", self.vertices.len(), self.area())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![Point::ORIGIN, Point::new(1, 1)]),
            Err(PolygonError::TooFewVertices(2))
        ));
        assert!(matches!(
            Polygon::new(vec![Point::ORIGIN, Point::ORIGIN, Point::new(1, 1)]),
            Err(PolygonError::RepeatedVertex(0))
        ));
    }

    #[test]
    fn rect_round_trip() {
        let r = Rect::new(1, 2, 5, 7);
        let p = Polygon::from_rect(r);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bbox(), r);
        assert!(p.is_rectilinear());
    }

    #[test]
    fn l_shape_area() {
        let p = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap();
        assert_eq!(p.area(), 12);
        assert_eq!(p.bbox(), Rect::new(0, 0, 4, 4));
    }

    #[test]
    fn translate_moves_bbox() {
        let p = Polygon::from_rect(Rect::new(0, 0, 2, 2)).translate(Point::new(5, 5));
        assert_eq!(p.bbox(), Rect::new(5, 5, 7, 7));
        assert_eq!(p.area(), 4);
    }

    #[test]
    fn diagonal_is_not_rectilinear() {
        let p = Polygon::new(vec![Point::new(0, 0), Point::new(2, 1), Point::new(0, 2)]).unwrap();
        assert!(!p.is_rectilinear());
    }

    #[test]
    fn rectangulation_covers_l_shape() {
        let p = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap();
        let rects = p.to_rects();
        let total: i64 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, p.area());
        // No two output rectangles overlap.
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn rectangulation_of_plain_rect() {
        let r = Rect::new(-3, 2, 5, 9);
        assert_eq!(Polygon::from_rect(r).to_rects(), vec![r]);
    }

    #[test]
    fn rectangulation_of_u_shape() {
        // U shape: two towers joined at the bottom.
        let p = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(6, 0),
            Point::new(6, 4),
            Point::new(4, 4),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap();
        let rects = p.to_rects();
        let total: i64 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, p.area());
        assert_eq!(p.area(), 6 * 2 + 2 * 2 * 2);
    }
}

//! Simple rectilinear polygons.

use std::collections::BTreeSet;
use std::fmt;

use crate::{Point, Rect};

/// A simple (non-self-intersecting) polygon on the λ lattice.
///
/// Bristle Blocks uses polygons sparingly — pads and a few corner
/// structures — so this type provides only what the compiler and the CIF
/// writer need: area, bounding box, translation, and rectilinearity and
/// simplicity checks. [`Polygon::new`] checks neither; a cell library
/// refuses a polygon that fails them when the cell is added.
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

    /// The vertex loop.
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Absolute enclosed area (shoelace formula). Integer because vertices
    /// are lattice points and the polygon is rectilinear in practice.
    ///
    /// Exact for a simple polygon within ±[`MAX_COORD`](crate::MAX_COORD)
    /// λ: each term of the doubled sum fits `i64` there, and so does the
    /// total. A running sum may pass `i64` on the way when the vertex
    /// loop winds, so it wraps and still ends on the exact total.
    #[must_use]
    pub fn area(&self) -> i64 {
        let mut twice = 0i64;
        for i in 0..self.vertices.len() {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % self.vertices.len()];
            twice = twice.wrapping_add(a.x * b.y - b.x * a.y);
        }
        twice.abs() / 2
    }

    /// Bounding box, edges parallel to the axes.
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

    /// True if the polygon is rectilinear and its vertex loop never
    /// touches itself: edges that are not neighbours share no point, and
    /// no edge folds back over the one before it. Compares coordinates
    /// only, so it cannot overflow. Sorts the edges and sweeps them once,
    /// so it takes O(n log n) time and O(n) space in the vertex count,
    /// however long the edges are.
    #[must_use]
    pub fn is_simple_rectilinear(&self) -> bool {
        let v = &self.vertices;
        let n = v.len();
        // `a` and `c` lie strictly on one side of their shared `b`.
        let folds = |a: i64, b: i64, c: i64| (a < b && c < b) || (a > b && c > b);
        if !self.is_rectilinear()
            || (0..n).any(|i| {
                let (a, b, c) = (v[i], v[(i + 1) % n], v[(i + 2) % n]);
                folds(a.x, b.x, c.x) || folds(a.y, b.y, c.y)
            })
        {
            return false;
        }
        // Edge `i` touches its neighbours `i ± 1` (the first and last
        // close the loop) at their shared vertices, and must touch
        // nothing else.
        let neighbours = |i: usize, j: usize| (i + 1) % n == j || (j + 1) % n == i;
        // Only a horizontal and a vertical edge need comparing. Where two
        // parallel edges touch, the runs of collinear edges they lie on
        // overlap, so one run ends inside the other, and the
        // perpendicular edge at that end touches an edge of the other
        // run that is not its neighbour.
        //
        // Sweep x: a horizontal edge is live from its left end to its
        // right end inclusive (at one x, starts come before vertical
        // edges and ends after), and each vertical edge looks up the live
        // ones on the lines in its span. Only its two neighbours may be
        // there, so a lookup visits at most three.
        let mut events: Vec<(i64, u8, usize)> = Vec::with_capacity(2 * n);
        for i in 0..n {
            let (a, b) = (v[i], v[(i + 1) % n]);
            if a.y == b.y {
                events.extend([(a.x.min(b.x), 0, i), (a.x.max(b.x), 2, i)]);
            } else {
                events.push((a.x, 1, i));
            }
        }
        events.sort_unstable();
        let mut live = BTreeSet::new();
        for (_, what, i) in events {
            let (a, b) = (v[i], v[(i + 1) % n]);
            match what {
                0 => {
                    live.insert((a.y, i));
                }
                2 => {
                    live.remove(&(a.y, i));
                }
                _ => {
                    let span = (a.y.min(b.y), 0)..=(a.y.max(b.y), usize::MAX);
                    if live.range(span).any(|&(_, j)| !neighbours(i, j)) {
                        return false;
                    }
                }
            }
        }
        true
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

    /// A rectangle as a four-vertex polygon (counter-clockwise).
    fn from_rect(r: Rect) -> Polygon {
        Polygon::new(vec![
            Point::new(r.x0, r.y0),
            Point::new(r.x1, r.y0),
            Point::new(r.x1, r.y1),
            Point::new(r.x0, r.y1),
        ])
        .unwrap()
    }

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

    fn poly(v: &[(i64, i64)]) -> Polygon {
        Polygon::new(v.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// The all-pairs simplicity check: every two edges that are not
    /// neighbours are compared.
    fn is_simple_rectilinear_oracle(p: &Polygon) -> bool {
        let v = &p.vertices;
        let n = v.len();
        let edges: Vec<Rect> = (0..n).map(|i| Rect::from_points(v[i], v[(i + 1) % n])).collect();
        let folds = |a: i64, b: i64, c: i64| (a < b && c < b) || (a > b && c > b);
        p.is_rectilinear()
            && (0..n).all(|i| {
                let (a, b, c) = (v[i], v[(i + 1) % n], v[(i + 2) % n]);
                !folds(a.x, b.x, c.x)
                    && !folds(a.y, b.y, c.y)
                    // Edges i and j ≥ i + 2 are not neighbours, except
                    // the first and last, which close the loop.
                    && (i + 2..n)
                        .filter(|&j| i > 0 || j < n - 1)
                        .all(|j| !edges[i].touches(&edges[j]))
            })
    }

    /// Deterministic xorshift64 stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n) as i64
        }
    }

    /// A random closed rectilinear loop whose edges alternate between
    /// horizontal and vertical: `(x[0], y[0]), (x[1], y[0]), (x[1], y[1]),
    /// …, (x[0], y[m-1])`. On a small lattice most loops cross or touch
    /// themselves.
    fn random_loop(rng: &mut Rng, m: usize, span: u64) -> Option<Polygon> {
        let xs: Vec<i64> = (0..m).map(|_| rng.below(span)).collect();
        let ys: Vec<i64> = (0..m).map(|_| rng.below(span)).collect();
        let mut v = Vec::with_capacity(2 * m);
        for k in 0..m {
            v.push(Point::new(xs[k], ys[k]));
            v.push(Point::new(xs[(k + 1) % m], ys[k]));
        }
        Polygon::new(v).ok()
    }

    /// A histogram: bars of random heights side by side on the x axis.
    /// Simple while every bar is taller than zero; a zero-height bar
    /// makes its top edge touch the base.
    fn random_histogram(rng: &mut Rng, bars: usize) -> Option<Polygon> {
        let mut x = 0;
        let mut xs = vec![x];
        for _ in 0..bars {
            x += 1 + rng.below(4);
            xs.push(x);
        }
        let hs: Vec<i64> = (0..bars).map(|_| rng.below(6)).collect();
        let mut v = vec![Point::new(0, 0), Point::new(x, 0)];
        for k in (0..bars).rev() {
            v.push(Point::new(xs[k + 1], hs[k]));
            v.push(Point::new(xs[k], hs[k]));
        }
        // Collinear runs are fine, repeated vertices are not.
        v.dedup();
        if v.first() == v.last() {
            v.pop();
        }
        Polygon::new(v).ok()
    }

    /// A random walk of `m` steps, each along a random axis to a random
    /// lattice coordinate, closed by one step back to the start's x: it
    /// has collinear runs, folds and crossings.
    fn random_walk(rng: &mut Rng, m: usize, span: u64) -> Option<Polygon> {
        let mut v = vec![Point::new(rng.below(span), rng.below(span))];
        for _ in 0..m {
            let mut q = *v.last().unwrap();
            if rng.below(2) == 0 {
                q.x = rng.below(span);
            } else {
                q.y = rng.below(span);
            }
            v.push(q);
        }
        v.push(Point::new(v[0].x, v.last().unwrap().y));
        v.dedup();
        if v.first() == v.last() {
            v.pop();
        }
        Polygon::new(v).ok()
    }

    #[test]
    fn simplicity_matches_all_pairs_oracle() {
        let mut rng = Rng(0x5109_1E00_0000_0001);
        let (mut simple, mut touching) = (0, 0);
        for case in 0..3000 {
            let size = 1 + rng.below(12) as usize;
            let p = match case % 4 {
                0 => random_loop(&mut rng, 2 + size % 5, 8),
                1 => random_loop(&mut rng, 1 + size, 40),
                2 => random_walk(&mut rng, 2 + size % 6, 6),
                _ => random_histogram(&mut rng, size),
            };
            let Some(p) = p else { continue };
            let want = is_simple_rectilinear_oracle(&p);
            assert_eq!(p.is_simple_rectilinear(), want, "case {case}: {p:?}");
            // Stretched across most of the coordinate range, with the
            // origin moved far negative, the loop touches itself where it
            // did before.
            let far = p.map_points(|q| Point::new(q.x * (1 << 22) - (1 << 28), q.y * (1 << 21) - (1 << 27)));
            assert_eq!(far.is_simple_rectilinear(), want, "case {case} stretched: {far:?}");
            if want {
                simple += 1;
            } else {
                touching += 1;
            }
        }
        assert!(simple > 300 && touching > 300, "{simple} simple, {touching} touching");
    }

    #[test]
    fn simplicity() {
        let l_shape = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)];
        assert!(poly(&l_shape).is_simple_rectilinear());
        // A collinear vertex is no fold.
        assert!(poly(&[(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)]).is_simple_rectilinear());
        for (what, v) in [
            ("wound twice", [(0, 0), (4, 0), (4, 4), (0, 4)].repeat(2)),
            ("crossing figure-eight", vec![(0, 0), (2, 0), (2, 4), (4, 4), (4, 2), (0, 2)]),
            ("touching lobes", vec![(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2)]),
            ("fold back", vec![(0, 0), (4, 0), (2, 0), (2, 2), (0, 2)]),
            ("flat", vec![(0, 0), (2, 0), (1, 0)]),
            ("triangle", vec![(0, 0), (4, 0), (0, 4)]),
        ] {
            assert!(!poly(&v).is_simple_rectilinear(), "{what}");
        }
    }

    #[test]
    fn rect_round_trip() {
        let r = Rect::new(1, 2, 5, 7);
        let p = from_rect(r);
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
        let p = from_rect(Rect::new(0, 0, 2, 2)).translate(Point::new(5, 5));
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
        assert_eq!(from_rect(r).to_rects(), vec![r]);
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

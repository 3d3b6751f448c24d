//! Rectangles with edges parallel to the axes, the workhorse of mask geometry.

use std::fmt;

use crate::Point;

/// An axis-aligned rectangle in λ units.
///
/// Rectangles are kept **normalized**: `x0 <= x1` and `y0 <= y1`.
/// Degenerate (zero width or height) rectangles are allowed — they arise
/// naturally as cut lines during stretching — but report `area() == 0` and
/// never intersect anything with positive overlap.
///
/// # Examples
///
/// ```
/// use bristle_geom::Rect;
///
/// let r = Rect::new(2, 8, 10, 3); // corners may come in any order
/// assert_eq!((r.x0, r.y0, r.x1, r.y1), (2, 3, 10, 8));
/// assert_eq!(r.width(), 8);
/// assert_eq!(r.height(), 5);
/// assert_eq!(r.area(), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    /// Left edge.
    pub x0: i64,
    /// Bottom edge.
    pub y0: i64,
    /// Right edge.
    pub x1: i64,
    /// Top edge.
    pub y1: i64,
}

impl Rect {
    /// Creates a normalized rectangle from two opposite corners.
    #[must_use]
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from two corner points.
    #[must_use]
    pub fn from_points(a: Point, b: Point) -> Rect {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Creates a rectangle from its center, width and height.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative or if `w`/`h` are odd (the center
    /// would fall off the λ lattice).
    #[must_use]
    pub fn centered(center: Point, w: i64, h: i64) -> Rect {
        assert!(w >= 0 && h >= 0, "negative dimensions {w}x{h}");
        assert!(w % 2 == 0 && h % 2 == 0, "odd dimensions {w}x{h} off-lattice");
        Rect::new(
            center.x - w / 2,
            center.y - h / 2,
            center.x + w / 2,
            center.y + h / 2,
        )
    }

    /// Width (x extent); non-negative.
    #[must_use]
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height (y extent); non-negative.
    #[must_use]
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in λ².
    #[must_use]
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// True if the rectangle has zero area.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// Bottom-left corner.
    #[must_use]
    pub fn lo(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Top-right corner.
    #[must_use]
    pub fn hi(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// True if `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// True if `other` lies entirely inside or on the boundary of `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && other.x1 <= self.x1 && self.y0 <= other.y0 && other.y1 <= self.y1
    }

    /// True if the two rectangles overlap with **positive** area.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// True if the rectangles overlap or share boundary (touch).
    #[must_use]
    pub fn touches(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// The overlapping region, if it has positive area.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if self.overlaps(other) {
            Some(Rect {
                x0: self.x0.max(other.x0),
                y0: self.y0.max(other.y0),
                x1: self.x1.min(other.x1),
                y1: self.y1.min(other.y1),
            })
        } else {
            None
        }
    }

    /// Smallest rectangle containing both.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Separation between two non-overlapping rectangles: the Chebyshev gap
    /// used by spacing design rules. Zero when touching or overlapping.
    ///
    /// For diagonally-separated rectangles this returns the **maximum** of
    /// the x- and y-gaps, matching the corner-to-corner interpretation of
    /// Mead–Conway spacing rules on Manhattan geometry.
    #[must_use]
    pub fn spacing(&self, other: &Rect) -> i64 {
        let dx = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let dy = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        dx.max(dy)
    }

    /// Translates by `d`.
    #[must_use]
    pub fn translate(&self, d: Point) -> Rect {
        Rect {
            x0: self.x0 + d.x,
            y0: self.y0 + d.y,
            x1: self.x1 + d.x,
            y1: self.y1 + d.y,
        }
    }

    /// Grows (or shrinks, for negative `d`) every side outward by `d`.
    ///
    /// # Panics
    ///
    /// Panics if shrinking would invert the rectangle.
    #[must_use]
    pub fn inflate(&self, d: i64) -> Rect {
        let r = Rect {
            x0: self.x0 - d,
            y0: self.y0 - d,
            x1: self.x1 + d,
            y1: self.y1 + d,
        };
        assert!(r.x0 <= r.x1 && r.y0 <= r.y1, "inflate({d}) inverted {self:?}");
        r
    }

    /// Subtracts `cuts` from this rectangle, returning disjoint residual
    /// pieces whose union is `self − ⋃cuts`.
    ///
    /// The allocating form of [`Rect::subtract_into`]; the reference
    /// extractor splits diffusion at transistor gates with it.
    ///
    /// ```
    /// use bristle_geom::Rect;
    /// let r = Rect::new(0, 0, 10, 2);
    /// let pieces = r.subtract(&[Rect::new(4, 0, 6, 2)]);
    /// assert_eq!(pieces, vec![Rect::new(0, 0, 4, 2), Rect::new(6, 0, 10, 2)]);
    /// ```
    #[must_use]
    pub fn subtract(&self, cuts: &[Rect]) -> Vec<Rect> {
        let (mut pieces, mut spare) = (Vec::new(), Vec::new());
        self.subtract_into(cuts, &mut pieces, &mut spare);
        pieces
    }

    /// [`Rect::subtract`] into caller-owned buffers: `pieces` is cleared
    /// and receives the residual pieces, `spare` is scratch. Cuts apply in
    /// order, each splitting every piece it overlaps into up to four
    /// (left, right, below, above), so the same cuts in the same order
    /// always give the same pieces. Netlist extraction splits diffusion
    /// at its nearby gates with two reused buffers and allocates nothing
    /// once they have grown.
    pub fn subtract_into(&self, cuts: &[Rect], pieces: &mut Vec<Rect>, spare: &mut Vec<Rect>) {
        pieces.clear();
        pieces.push(*self);
        for cut in cuts {
            spare.clear();
            for &piece in pieces.iter() {
                match piece.intersection(cut) {
                    None => spare.push(piece),
                    Some(hit) => {
                        if piece.x0 < hit.x0 {
                            spare.push(Rect::new(piece.x0, piece.y0, hit.x0, piece.y1));
                        }
                        if piece.x1 > hit.x1 {
                            spare.push(Rect::new(hit.x1, piece.y0, piece.x1, piece.y1));
                        }
                        if piece.y0 < hit.y0 {
                            spare.push(Rect::new(hit.x0, piece.y0, hit.x1, hit.y0));
                        }
                        if piece.y1 > hit.y1 {
                            spare.push(Rect::new(hit.x0, hit.y1, hit.x1, piece.y1));
                        }
                    }
                }
            }
            std::mem::swap(pieces, spare);
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} {}x{}]", self.x0, self.y0, self.width(), self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let r = Rect::new(10, 5, 0, 0);
        assert_eq!(r, Rect::new(0, 0, 10, 5));
        assert_eq!(Rect::from_points(Point::new(10, 5), Point::new(0, 0)), r);
    }

    #[test]
    fn centered_even() {
        let r = Rect::centered(Point::new(0, 0), 4, 2);
        assert_eq!(r, Rect::new(-2, -1, 2, 1));
    }

    #[test]
    #[should_panic(expected = "odd dimensions")]
    fn centered_odd_panics() {
        let _ = Rect::centered(Point::ORIGIN, 3, 2);
    }

    #[test]
    fn overlap_semantics() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(4, 0, 8, 4); // abutting
        let c = Rect::new(3, 3, 6, 6); // overlapping
        assert!(!a.overlaps(&b));
        assert!(a.touches(&b));
        assert!(a.overlaps(&c));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.intersection(&c), Some(Rect::new(3, 3, 4, 4)));
    }

    #[test]
    fn union_contains_both() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(5, -3, 7, 1);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, Rect::new(0, -3, 7, 2));
    }

    #[test]
    fn spacing_gaps() {
        let a = Rect::new(0, 0, 2, 2);
        assert_eq!(a.spacing(&Rect::new(5, 0, 7, 2)), 3); // pure x gap
        assert_eq!(a.spacing(&Rect::new(0, 6, 2, 8)), 4); // pure y gap
        assert_eq!(a.spacing(&Rect::new(4, 5, 6, 7)), 3); // diagonal: max(2,3)
        assert_eq!(a.spacing(&Rect::new(2, 0, 4, 2)), 0); // touching
        assert_eq!(a.spacing(&Rect::new(1, 1, 3, 3)), 0); // overlapping
    }

    #[test]
    fn degenerate() {
        let line = Rect::new(0, 0, 0, 5);
        assert!(line.is_degenerate());
        assert!(!line.overlaps(&Rect::new(-1, 0, 1, 5)) || line.area() == 0);
    }

    #[test]
    fn translate_inflate() {
        let r = Rect::new(0, 0, 2, 2);
        assert_eq!(r.translate(Point::new(3, -1)), Rect::new(3, -1, 5, 1));
        assert_eq!(r.inflate(1), Rect::new(-1, -1, 3, 3));
        assert_eq!(r.inflate(1).inflate(-1), r);
    }

    #[test]
    fn subtract_splits_and_preserves_area() {
        let r = Rect::new(0, 0, 10, 10);
        let cuts = [Rect::new(2, 2, 4, 8), Rect::new(6, 0, 8, 10)];
        let pieces = r.subtract(&cuts);
        let cut_area: i64 = cuts.iter().map(Rect::area).sum();
        let piece_area: i64 = pieces.iter().map(Rect::area).sum();
        assert_eq!(piece_area, r.area() - cut_area);
        for (i, a) in pieces.iter().enumerate() {
            for b in &pieces[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
            for c in &cuts {
                assert!(!a.overlaps(c), "{a} overlaps cut {c}");
            }
        }
    }

    #[test]
    fn subtract_disjoint_cut_is_noop() {
        let r = Rect::new(0, 0, 4, 4);
        assert_eq!(r.subtract(&[Rect::new(10, 10, 12, 12)]), vec![r]);
        assert_eq!(r.subtract(&[]), vec![r]);
    }

    #[test]
    fn subtract_into_reuses_buffers_and_matches_subtract() {
        let r = Rect::new(0, 0, 10, 10);
        let (mut pieces, mut spare) = (vec![Rect::new(99, 99, 100, 100)], Vec::new());
        for cuts in [
            &[Rect::new(2, 2, 4, 8), Rect::new(6, 0, 8, 10)][..],
            &[Rect::new(-1, -1, 11, 11)],
            &[],
        ] {
            r.subtract_into(cuts, &mut pieces, &mut spare);
            assert_eq!(pieces, r.subtract(cuts));
        }
    }

    #[test]
    fn subtract_total_cover_is_empty() {
        let r = Rect::new(0, 0, 4, 4);
        assert!(r.subtract(&[Rect::new(-1, -1, 5, 5)]).is_empty());
    }

    #[test]
    fn center_and_contains() {
        let r = Rect::new(0, 0, 4, 4);
        assert!(r.contains(Point::new(0, 4)));
        assert!(!r.contains(Point::new(5, 2)));
        assert!(r.contains_rect(&Rect::new(1, 1, 3, 3)));
        assert!(!r.contains_rect(&Rect::new(1, 1, 5, 3)));
    }
}

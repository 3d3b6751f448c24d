//! Integer lattice points in λ units.

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point on the λ lattice.
///
/// # Examples
///
/// ```
/// use bristle_geom::Point;
///
/// let a = Point::new(3, 4);
/// let b = Point::new(-1, 2);
/// assert_eq!(a + b, Point::new(2, 6));
/// assert_eq!(a.manhattan(b), 4 + 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate in λ.
    pub x: i64,
    /// Vertical coordinate in λ.
    pub y: i64,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point from its coordinates.
    #[must_use]
    pub const fn new(x: i64, y: i64) -> Point {
        Point { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the wire-length metric used throughout the Roto-Router.
    #[must_use]
    pub fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Point {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(3, -4);
        assert_eq!(a + b, Point::new(4, -2));
        assert_eq!(a - b, Point::new(-2, 6));
        assert_eq!(-a, Point::new(-1, -2));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
        assert_eq!(Point::new(-2, 5).manhattan(Point::new(-2, 5)), 0);
        // Symmetric.
        let (a, b) = (Point::new(7, -3), Point::new(-1, 9));
        assert_eq!(a.manhattan(b), b.manhattan(a));
    }

    #[test]
    fn min_max_display_from() {
        let a = Point::new(1, 9);
        let b = Point::new(5, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(5, 9));
        assert_eq!(a.to_string(), "(1, 9)");
        assert_eq!(Point::from((2, 3)), Point::new(2, 3));
    }
}

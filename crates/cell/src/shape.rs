//! Geometric primitives carried by cells.

use std::fmt;

use bristle_geom::{Layer, Path, Point, Polygon, Rect, Transform};

/// The geometry of a [`Shape`]: the paper's "instances of lines, boxes,
/// and polygons, each with an associated mask layer".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeGeom {
    /// An axis-aligned box.
    Box(Rect),
    /// A wire (Manhattan center-line with width) — the paper's "line".
    Wire(Path),
    /// A simple rectilinear polygon.
    Poly(Polygon),
}

/// A mask-layer geometric primitive inside a cell.
///
/// The optional `label` names the electrical net the shape belongs to;
/// extraction uses labels to seed net names, and the power machinery uses
/// them to find rails to widen.
///
/// # Examples
///
/// ```
/// use bristle_cell::Shape;
/// use bristle_geom::{Layer, Rect};
///
/// let rail = Shape::rect(Layer::Metal, Rect::new(0, 0, 40, 4)).with_label("VDD");
/// assert_eq!(rail.label(), Some("VDD"));
/// assert_eq!(rail.bbox(), Rect::new(0, 0, 40, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Mask layer.
    pub layer: Layer,
    /// The geometry.
    pub geom: ShapeGeom,
    label: Option<String>,
}

impl Shape {
    /// A box on `layer`.
    #[must_use]
    pub fn rect(layer: Layer, r: Rect) -> Shape {
        Shape {
            layer,
            geom: ShapeGeom::Box(r),
            label: None,
        }
    }

    /// A wire on `layer`.
    #[must_use]
    pub fn wire(layer: Layer, path: Path) -> Shape {
        Shape {
            layer,
            geom: ShapeGeom::Wire(path),
            label: None,
        }
    }

    /// A polygon on `layer`.
    #[must_use]
    pub fn polygon(layer: Layer, poly: Polygon) -> Shape {
        Shape {
            layer,
            geom: ShapeGeom::Poly(poly),
            label: None,
        }
    }

    /// Attaches a net label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Shape {
        self.label = Some(label.into());
        self
    }

    /// The net label, if any.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Bounding box, edges parallel to the axes.
    #[must_use]
    pub fn bbox(&self) -> Rect {
        match &self.geom {
            ShapeGeom::Box(r) => *r,
            ShapeGeom::Wire(p) => p.bbox(),
            ShapeGeom::Poly(p) => p.bbox(),
        }
    }

    /// The shape as rectangle soup (wires expanded, polygons
    /// rectangulated). This is the form DRC and extraction consume.
    #[must_use]
    pub fn to_rects(&self) -> Vec<Rect> {
        match &self.geom {
            ShapeGeom::Box(r) => vec![*r],
            ShapeGeom::Wire(p) => p.to_rects(),
            ShapeGeom::Poly(p) => p.to_rects(),
        }
    }

    /// Calls `f` on each rectangle of [`Shape::to_rects`], in the same
    /// order. A box, the common case, allocates nothing.
    pub fn for_each_rect(&self, mut f: impl FnMut(Rect)) {
        match &self.geom {
            ShapeGeom::Box(r) => f(*r),
            ShapeGeom::Wire(p) => p.to_rects().into_iter().for_each(f),
            ShapeGeom::Poly(p) => p.to_rects().into_iter().for_each(f),
        }
    }

    /// Area of the drawn geometry in λ².
    #[must_use]
    pub fn area(&self) -> i64 {
        match &self.geom {
            ShapeGeom::Box(r) => r.area(),
            ShapeGeom::Wire(_) => self.to_rects().iter().map(Rect::area).sum(),
            ShapeGeom::Poly(p) => p.area(),
        }
    }

    /// Applies a rigid transform (orientation + translation), keeping the
    /// layer and label.
    #[must_use]
    pub fn transform(&self, t: &Transform) -> Shape {
        let geom = match &self.geom {
            ShapeGeom::Box(r) => ShapeGeom::Box(t.apply_rect(*r)),
            ShapeGeom::Wire(p) => ShapeGeom::Wire(p.map_points(|q| t.apply(q))),
            ShapeGeom::Poly(p) => ShapeGeom::Poly(p.map_points(|q| t.apply(q))),
        };
        Shape {
            layer: self.layer,
            geom,
            label: self.label.clone(),
        }
    }

    /// Applies an arbitrary monotone point map (the stretch engine),
    /// keeping layer, label and wire widths.
    #[must_use]
    pub fn map_points(&self, mut f: impl FnMut(Point) -> Point) -> Shape {
        let geom = match &self.geom {
            ShapeGeom::Box(r) => {
                ShapeGeom::Box(Rect::from_points(f(r.lo()), f(r.hi())))
            }
            ShapeGeom::Wire(p) => ShapeGeom::Wire(p.map_points(&mut f)),
            ShapeGeom::Poly(p) => ShapeGeom::Poly(p.map_points(&mut f)),
        };
        Shape {
            layer: self.layer,
            geom,
            label: self.label.clone(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.geom {
            ShapeGeom::Box(r) => write!(f, "{} box {}", self.layer, r),
            ShapeGeom::Wire(p) => write!(f, "{} {}", self.layer, p),
            ShapeGeom::Poly(p) => write!(f, "{} {}", self.layer, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_geom::Orientation;

    #[test]
    fn rect_shape_basics() {
        let s = Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 2));
        assert_eq!(s.bbox(), Rect::new(0, 0, 4, 2));
        assert_eq!(s.area(), 8);
        assert_eq!(s.to_rects().len(), 1);
        assert_eq!(s.label(), None);
    }

    #[test]
    fn wire_shape_rects() {
        let w = Path::new(vec![Point::new(0, 0), Point::new(10, 0)], 2).unwrap();
        let s = Shape::wire(Layer::Poly, w);
        assert_eq!(s.to_rects(), vec![Rect::new(0, -1, 10, 1)]);
        assert_eq!(s.area(), 20);
    }

    #[test]
    fn label_survives_transform() {
        let s = Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)).with_label("GND");
        let t = Transform::new(Orientation::R90, Point::new(10, 0));
        let moved = s.transform(&t);
        assert_eq!(moved.label(), Some("GND"));
        assert_eq!(moved.bbox(), Rect::new(8, 0, 10, 2));
    }

    #[test]
    fn map_points_renormalizes_boxes() {
        let s = Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4));
        // A mirror-like map must still produce a normalized box.
        let m = s.map_points(|p| Point::new(-p.x, p.y));
        assert_eq!(m.bbox(), Rect::new(-4, 0, 0, 4));
    }

    /// The polygon of the box `(0, 0)..(3, 3)`.
    fn square3() -> Polygon {
        let corners = [(0, 0), (3, 0), (3, 3), (0, 3)].map(|(x, y)| Point::new(x, y));
        Polygon::new(corners.to_vec()).unwrap()
    }

    #[test]
    fn for_each_rect_visits_to_rects() {
        let wire = Path::new(vec![Point::new(0, 0), Point::new(10, 0), Point::new(10, 8)], 2)
            .unwrap();
        let poly = square3();
        for s in [
            Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 2)),
            Shape::wire(Layer::Poly, wire),
            Shape::polygon(Layer::Diffusion, poly),
        ] {
            let mut seen = Vec::new();
            s.for_each_rect(|r| seen.push(r));
            assert_eq!(seen, s.to_rects());
        }
    }

    #[test]
    fn polygon_shape_area() {
        let poly = square3();
        let s = Shape::polygon(Layer::Overglass, poly);
        assert_eq!(s.area(), 9);
        assert_eq!(s.to_rects(), vec![Rect::new(0, 0, 3, 3)]);
    }
}

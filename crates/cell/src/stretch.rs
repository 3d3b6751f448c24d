//! The stretch engine.
//!
//! *"By introducing stretchable cells, this problem can be avoided. Each of
//! the cells are designed with places to stretch. … As the elements produce
//! their cells, each cell is stretched (a painless operation) to fit all
//! other cells."* — Johannsen, DAC 1979.
//!
//! A stretch line at position `p` along an axis divides the cell: every
//! coordinate **strictly greater** than `p` shifts by the inserted delta,
//! while coordinates at or below `p` stay. A shape crossing the line
//! therefore widens; a shape strictly beyond it shifts rigidly.
//!
//! Because the coordinate map is monotone and gap-non-decreasing (for
//! non-negative deltas), stretching **preserves minimum-width and
//! minimum-spacing design rules and preserves connectivity** — which is
//! what makes it the paper's "painless operation". The property tests in
//! this module and in `bristle-drc` verify exactly that.

use std::fmt;

use bristle_geom::Axis;

use crate::cell::Cell;

/// Errors from stretching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StretchError {
    /// The cell must grow by `needed` λ along the axis but declares no
    /// stretch lines there.
    NotStretchable {
        /// Cell name.
        cell: String,
        /// Axis along which growth was requested.
        axis: Axis,
        /// λ of growth that could not be realized.
        needed: i64,
    },
    /// Negative stretch (shrinking) was requested.
    NegativeDelta(i64),
}

impl fmt::Display for StretchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StretchError::NotStretchable { cell, axis, needed } => write!(
                f,
                "cell `{cell}` cannot stretch by {needed}λ along {axis}: no stretch lines"
            ),
            StretchError::NegativeDelta(d) => write!(f, "negative stretch delta {d}"),
        }
    }
}

impl std::error::Error for StretchError {}

/// A set of insertions along one axis: at each line position, insert the
/// given non-negative number of λ.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StretchPlan {
    insertions: Vec<(i64, i64)>, // (line position, delta), sorted by position
}

impl StretchPlan {
    /// Creates an empty plan (the identity stretch).
    #[must_use]
    pub fn new() -> StretchPlan {
        StretchPlan::default()
    }

    /// Adds an insertion of `delta` λ at line `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`StretchError::NegativeDelta`] if `delta < 0`.
    pub fn insert(&mut self, pos: i64, delta: i64) -> Result<(), StretchError> {
        if delta < 0 {
            return Err(StretchError::NegativeDelta(delta));
        }
        if delta == 0 {
            return Ok(());
        }
        match self.insertions.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => self.insertions[i].1 += delta,
            Err(i) => self.insertions.insert(i, (pos, delta)),
        }
        Ok(())
    }

    /// Total λ inserted.
    #[must_use]
    pub fn total(&self) -> i64 {
        self.insertions.iter().map(|&(_, d)| d).sum()
    }

    /// True if the plan changes nothing.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.insertions.is_empty()
    }

    /// The monotone coordinate map: `c ↦ c + Σ {delta | pos < c}`.
    #[must_use]
    pub fn map(&self, c: i64) -> i64 {
        let mut shift = 0;
        for &(pos, delta) in &self.insertions {
            if pos < c {
                shift += delta;
            } else {
                break;
            }
        }
        c + shift
    }

    /// Distributes `total` λ of growth evenly across the given lines
    /// (remainder to the leftmost lines), producing a plan.
    ///
    /// # Errors
    ///
    /// Returns [`StretchError::NegativeDelta`] for negative totals. An
    /// empty `lines` slice with positive `total` yields an empty plan —
    /// callers detect this via [`StretchPlan::total`].
    pub fn distribute(lines: &[i64], total: i64) -> Result<StretchPlan, StretchError> {
        if total < 0 {
            return Err(StretchError::NegativeDelta(total));
        }
        let mut plan = StretchPlan::new();
        if lines.is_empty() || total == 0 {
            return Ok(plan);
        }
        let n = lines.len() as i64;
        let base = total / n;
        let extra = total % n;
        let mut sorted = lines.to_vec();
        sorted.sort_unstable();
        for (i, &pos) in sorted.iter().enumerate() {
            let d = base + i64::from((i as i64) < extra);
            plan.insert(pos, d)?;
        }
        Ok(plan)
    }
}

/// Applies a stretch plan to a cell along `axis`, in place.
///
/// Shapes, bristles, stretch lines and instance origins all move through
/// the plan's coordinate map. Instance *interiors* do not stretch — in
/// Bristle Blocks each cell stretches itself before being instanced.
pub fn apply_plan(cell: &mut Cell, axis: Axis, plan: &StretchPlan) {
    if plan.is_identity() {
        return;
    }
    let map_point = |p: bristle_geom::Point| p.with_along(axis, plan.map(p.along(axis)));
    for shape in cell.shapes_mut() {
        *shape = shape.map_points(map_point);
    }
    for b in cell.bristles_mut() {
        b.pos = map_point(b.pos);
    }
    for inst in cell.instances_mut() {
        inst.transform.offset = map_point(inst.transform.offset);
    }
    match axis {
        Axis::X => {
            let xs = cell.stretch_x().iter().map(|&x| plan.map(x)).collect();
            cell.set_stretch_x(xs);
        }
        Axis::Y => {
            let ys = cell.stretch_y().iter().map(|&y| plan.map(y)).collect();
            cell.set_stretch_y(ys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bristle::{Bristle, Flavor, Side};
    use crate::cell::Library;
    use crate::shape::Shape;
    use bristle_geom::{Layer, Point, Rect};

    fn sample_cell() -> Cell {
        let mut c = Cell::new("s");
        // A box left of the line, one crossing it, one right of it.
        c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 2)));
        c.push_shape(Shape::rect(Layer::Poly, Rect::new(2, 4, 10, 6)));
        c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(8, 0, 12, 2)));
        c.push_bristle(Bristle::new(
            "b",
            Layer::Metal,
            Point::new(12, 1),
            Side::East,
            Flavor::Signal,
        ));
        c.add_stretch_x(6);
        c
    }

    #[test]
    fn map_semantics() {
        let mut plan = StretchPlan::new();
        plan.insert(6, 4).unwrap();
        assert_eq!(plan.map(0), 0);
        assert_eq!(plan.map(6), 6); // at the line: stays
        assert_eq!(plan.map(7), 11); // beyond: shifts
    }

    #[test]
    fn stretch_widens_crossers_and_shifts_right() {
        let mut lib = Library::new("t");
        let mut cell = sample_cell();
        let mut plan = StretchPlan::new();
        plan.insert(6, 4).unwrap();
        apply_plan(&mut cell, Axis::X, &plan);
        let id = lib.add_cell(cell).unwrap();
        let c = lib.cell(id);
        assert_eq!(c.shapes()[0].bbox(), Rect::new(0, 0, 4, 2)); // untouched
        assert_eq!(c.shapes()[1].bbox(), Rect::new(2, 4, 14, 6)); // widened
        assert_eq!(c.shapes()[2].bbox(), Rect::new(12, 0, 16, 2)); // shifted
        assert_eq!(c.bristles()[0].pos, Point::new(16, 1)); // bristle shifted
        assert_eq!(c.stretch_x(), &[6]); // the line itself stays
    }

    #[test]
    fn stretch_to_exact_target() {
        let mut cell = sample_cell();
        assert_eq!(cell.local_bbox().unwrap().width(), 12);
        let plan = StretchPlan::distribute(cell.stretch_x(), 8).unwrap();
        apply_plan(&mut cell, Axis::X, &plan);
        assert_eq!(cell.local_bbox().unwrap().width(), 20);
        // Distributing nothing is the identity.
        let plan = StretchPlan::distribute(cell.stretch_x(), 0).unwrap();
        assert!(plan.is_identity());
        apply_plan(&mut cell, Axis::X, &plan);
        assert_eq!(cell.local_bbox().unwrap().width(), 20);
    }

    #[test]
    fn shrink_rejected() {
        assert_eq!(
            StretchPlan::distribute(sample_cell().stretch_x(), -2),
            Err(StretchError::NegativeDelta(-2))
        );
    }

    #[test]
    fn distribute_evenly_with_remainder() {
        let plan = StretchPlan::distribute(&[2, 8, 14], 7).unwrap();
        // 7 = 3+2+2, extra to leftmost.
        assert_eq!(plan.map(3), 3 + 3);
        assert_eq!(plan.map(9), 9 + 5);
        assert_eq!(plan.map(15), 15 + 7);
        assert_eq!(plan.total(), 7);
    }

    #[test]
    fn multi_line_plan_is_cumulative() {
        let mut plan = StretchPlan::new();
        plan.insert(2, 1).unwrap();
        plan.insert(10, 5).unwrap();
        plan.insert(2, 1).unwrap(); // merges with the first
        assert_eq!(plan.map(2), 2);
        assert_eq!(plan.map(3), 5);
        assert_eq!(plan.map(11), 18);
        assert_eq!(plan.total(), 7);
    }

    #[test]
    fn instance_origins_shift() {
        let mut lib = Library::new("t");
        let leaf = {
            let mut c = Cell::new("leaf");
            c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
            lib.add_cell(c).unwrap()
        };
        let mut parent = Cell::new("p");
        parent.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
        parent.add_stretch_x(4);
        let t = bristle_geom::Transform::translate(Point::new(6, 0));
        parent.push_instance(crate::cell::Instance::new(leaf, "i", t));
        let plan = StretchPlan::distribute(parent.stretch_x(), 4).unwrap();
        apply_plan(&mut parent, Axis::X, &plan);
        assert_eq!(parent.instances()[0].transform.offset, Point::new(10, 0));
        let pid = lib.add_cell(parent).unwrap();
        assert_eq!(lib.bbox(pid).unwrap().width(), 12); // [0..8] before
    }

    #[test]
    fn gaps_never_shrink() {
        // The key DRC-preservation property, spot-checked; the full
        // property test lives in tests/stretch_props.rs.
        let mut plan = StretchPlan::new();
        plan.insert(5, 3).unwrap();
        let coords = [-4, 0, 5, 6, 9, 20];
        for &a in &coords {
            for &b in &coords {
                if a < b {
                    assert!(plan.map(b) - plan.map(a) >= b - a);
                }
            }
        }
    }
}

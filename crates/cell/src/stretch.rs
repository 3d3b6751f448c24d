//! The stretch engine, vertical only.
//!
//! *"By introducing stretchable cells, this problem can be avoided. Each of
//! the cells are designed with places to stretch. … As the elements produce
//! their cells, each cell is stretched (a painless operation) to fit all
//! other cells."* — Johannsen, DAC 1979.
//!
//! Pass 1 stretches each bit cell along y only, to the slice pitch, and
//! [`crate::InterfaceStd::align`] is the one caller. A stretch line at
//! `y = p` divides the cell: every y **strictly greater** than `p` shifts
//! by the inserted delta, while y at or below `p` stays. A shape crossing
//! the line therefore grows taller; a shape strictly above it shifts
//! rigidly.
//!
//! Because the coordinate map is monotone and gap-non-decreasing (deltas
//! are non-negative), stretching **preserves minimum-width and
//! minimum-spacing design rules and preserves connectivity** — which is
//! what makes it the paper's "painless operation". The property tests in
//! this module and in `tests/stretch_props.rs` verify exactly that.

use crate::cell::Cell;

/// A set of insertions along y: at each line position, insert the given
/// non-negative number of λ.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct StretchPlan {
    insertions: Vec<(i64, i64)>, // (line position, delta), sorted by position
}

impl StretchPlan {
    /// Adds an insertion of `delta ≥ 0` λ at line `pos`.
    pub(crate) fn insert(&mut self, pos: i64, delta: i64) {
        debug_assert!(delta >= 0, "negative stretch delta {delta}");
        if delta == 0 {
            return;
        }
        match self.insertions.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => self.insertions[i].1 += delta,
            Err(i) => self.insertions.insert(i, (pos, delta)),
        }
    }

    /// The monotone coordinate map: `y ↦ y + Σ {delta | pos < y}`.
    pub(crate) fn map(&self, y: i64) -> i64 {
        let mut shift = 0;
        for &(pos, delta) in &self.insertions {
            if pos < y {
                shift += delta;
            } else {
                break;
            }
        }
        y + shift
    }

    /// Applies the plan to a cell's y coordinates, in place.
    ///
    /// Shapes, bristles, stretch lines and instance origins all move
    /// through the coordinate map. Instance *interiors* do not stretch —
    /// in Bristle Blocks each cell stretches itself before being
    /// instanced.
    pub(crate) fn apply(&self, cell: &mut Cell) {
        if self.insertions.is_empty() {
            return;
        }
        let map_point = |p: bristle_geom::Point| bristle_geom::Point::new(p.x, self.map(p.y));
        for shape in cell.shapes_mut() {
            *shape = shape.map_points(map_point);
        }
        for b in cell.bristles_mut() {
            b.pos = map_point(b.pos);
        }
        for inst in cell.instances_mut() {
            inst.transform.offset = map_point(inst.transform.offset);
        }
        let ys = cell.stretch_y().iter().map(|&y| self.map(y)).collect();
        cell.set_stretch_y(ys);
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
        // A box below the line, one crossing it, one above it.
        c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 4)));
        c.push_shape(Shape::rect(Layer::Poly, Rect::new(4, 2, 6, 10)));
        c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 8, 2, 12)));
        c.push_bristle(Bristle::new(
            "b",
            Layer::Metal,
            Point::new(1, 12),
            Side::North,
            Flavor::Signal,
        ));
        c.add_stretch_y(6);
        c
    }

    fn plan(insertions: &[(i64, i64)]) -> StretchPlan {
        let mut plan = StretchPlan::default();
        for &(pos, delta) in insertions {
            plan.insert(pos, delta);
        }
        plan
    }

    #[test]
    fn map_semantics() {
        let plan = plan(&[(6, 4)]);
        assert_eq!(plan.map(0), 0);
        assert_eq!(plan.map(6), 6); // at the line: stays
        assert_eq!(plan.map(7), 11); // beyond: shifts
    }

    #[test]
    fn stretch_widens_crossers_and_shifts_up() {
        let mut lib = Library::new("t");
        let mut cell = sample_cell();
        plan(&[(6, 4)]).apply(&mut cell);
        let id = lib.add_cell(cell).unwrap();
        let c = lib.cell(id);
        assert_eq!(c.shapes()[0].bbox(), Rect::new(0, 0, 2, 4)); // untouched
        assert_eq!(c.shapes()[1].bbox(), Rect::new(4, 2, 6, 14)); // taller
        assert_eq!(c.shapes()[2].bbox(), Rect::new(0, 12, 2, 16)); // shifted
        assert_eq!(c.bristles()[0].pos, Point::new(1, 16)); // bristle shifted
        assert_eq!(c.stretch_y(), &[6]); // the line itself stays
    }

    #[test]
    fn stretch_to_exact_target() {
        let mut cell = sample_cell();
        assert_eq!(cell.local_bbox().unwrap().height(), 12);
        plan(&[(6, 8)]).apply(&mut cell);
        assert_eq!(cell.local_bbox().unwrap().height(), 20);
        // Inserting nothing is the identity.
        plan(&[(6, 0)]).apply(&mut cell);
        assert_eq!(cell.local_bbox().unwrap().height(), 20);
    }

    #[test]
    fn multi_line_plan_is_cumulative() {
        let plan = plan(&[(2, 1), (10, 5), (2, 1)]); // the third merges with the first
        assert_eq!(plan.map(2), 2);
        assert_eq!(plan.map(3), 5);
        assert_eq!(plan.map(11), 18);
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
        parent.add_stretch_y(4);
        let t = bristle_geom::Transform::translate(Point::new(0, 6));
        parent.push_instance(crate::cell::Instance::new(leaf, "i", t));
        plan(&[(4, 4)]).apply(&mut parent);
        assert_eq!(parent.instances()[0].transform.offset, Point::new(0, 10));
        let pid = lib.add_cell(parent).unwrap();
        assert_eq!(lib.bbox(pid).unwrap().height(), 12); // [0..8] before
    }

    #[test]
    fn gaps_never_shrink() {
        // The key DRC-preservation property, spot-checked; the randomized
        // version is the next test.
        let plan = plan(&[(5, 3)]);
        let coords = [-4, 0, 5, 6, 9, 20];
        for &a in &coords {
            for &b in &coords {
                if a < b {
                    assert!(plan.map(b) - plan.map(a) >= b - a);
                }
            }
        }
    }

    #[test]
    fn stretch_map_is_monotone_and_gap_preserving() {
        // xorshift64: deterministic, dependency-free.
        let mut state = 0x57E7_0003u64;
        let mut range = |lo: i64, hi: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (state % (hi - lo) as u64) as i64
        };
        for case in 0..64 {
            let n = range(2, 20);
            let mut ys: Vec<i64> = (0..n).map(|_| range(-100, 100)).collect();
            let lines: Vec<(i64, i64)> =
                (0..range(1, 4)).map(|_| (range(-50, 50), range(0, 60))).collect();
            let plan = plan(&lines);
            ys.sort_unstable();
            for w in ys.windows(2) {
                let (a, b) = (w[0], w[1]);
                // Monotone and never compressing.
                assert!(plan.map(b) - plan.map(a) >= b - a, "case {case}");
            }
        }
    }
}

//! The Roto-Router: clockwise sorting, rotation search, swap refinement.

use bristle_geom::Point;

use crate::ring::Ring;

/// Sorts connection points clockwise around their centroid, starting
/// from "north" (12 o'clock), returning indices into `points`.
///
/// Ties (identical angles) break by distance from the centroid, then by
/// index, so the order is deterministic.
#[must_use]
pub fn clockwise_order(points: &[Point]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    let cx: i64 = points.iter().map(|p| p.x).sum::<i64>() / points.len() as i64;
    let cy: i64 = points.iter().map(|p| p.y).sum::<i64>() / points.len() as i64;
    let mut idx: Vec<usize> = (0..points.len()).collect();
    // Clockwise angle from north: atan2(dx, dy) grows clockwise.
    let key = |i: usize| {
        let dx = (points[i].x - cx) as f64;
        let dy = (points[i].y - cy) as f64;
        let mut a = dx.atan2(dy); // 0 at north, +π/2 at east
        if a < 0.0 {
            a += std::f64::consts::TAU;
        }
        (a, dx * dx + dy * dy)
    };
    idx.sort_by(|&i, &j| {
        let (ai, di) = key(i);
        let (aj, dj) = key(j);
        ai.partial_cmp(&aj)
            .unwrap()
            .then(di.partial_cmp(&dj).unwrap())
            .then(i.cmp(&j))
    });
    idx
}

/// The outcome of Roto-Routing: which pad slot serves each connection
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAssignment {
    /// `slot_of[i]` is the pad-slot index serving connection point `i`
    /// (indices refer to the caller's original point order).
    pub slot_of: Vec<usize>,
    /// Total estimated wire length (perimeter metric).
    pub cost: i64,
}

/// The Roto-Router.
///
/// Pads sit on evenly spaced slots; connection points are sorted
/// clockwise and matched to slots in order; the router then *rotates*
/// the matching through all N offsets keeping the clockwise order, and
/// finally refines with pairwise swaps. Cost is the perimeter distance
/// between each point's ring projection and its pad slot.
#[derive(Debug, Clone, Default)]
pub struct RotoRouter {
    /// Keep the rotation-0 clockwise matching: no rotation search and no
    /// swap refinement (ablation A2 baseline: first-fit).
    pub first_fit: bool,
}

impl RotoRouter {
    /// A router with all optimizations enabled.
    #[must_use]
    pub fn new() -> RotoRouter {
        RotoRouter::default()
    }

    /// Assigns each connection point a pad slot on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn assign(&self, ring: &Ring, points: &[Point]) -> RouteAssignment {
        assert!(!points.is_empty(), "no connection points to route");
        let n = points.len();
        let slots = ring.slots(n, 0);
        let slot_proj: Vec<i64> = slots.iter().map(|s| ring.project(s.pos)).collect();
        let point_proj: Vec<i64> = points.iter().map(|&p| ring.project(p)).collect();
        let order = clockwise_order(points);

        let cost_of = |assignment: &[usize]| -> i64 {
            assignment
                .iter()
                .enumerate()
                .map(|(i, &s)| ring.perimeter_distance(point_proj[i], slot_proj[s]))
                .sum()
        };

        // Base assignment: clockwise order to slots in order, rotation 0.
        let build = |rot: usize| -> Vec<usize> {
            let mut slot_of = vec![0usize; n];
            for (k, &pi) in order.iter().enumerate() {
                slot_of[pi] = (k + rot) % n;
            }
            slot_of
        };

        let rotations = if self.first_fit { 1 } else { n };
        let mut best = build(0);
        let mut best_cost = cost_of(&best);
        for rot in 1..rotations {
            let cand = build(rot);
            let c = cost_of(&cand);
            if c < best_cost {
                best = cand;
                best_cost = c;
            }
        }

        if !self.first_fit {
            // Pairwise-swap hill climbing to a local optimum.
            let mut improved = true;
            while improved {
                improved = false;
                for i in 0..n {
                    for j in i + 1..n {
                        let before = ring.perimeter_distance(point_proj[i], slot_proj[best[i]])
                            + ring.perimeter_distance(point_proj[j], slot_proj[best[j]]);
                        let after = ring.perimeter_distance(point_proj[i], slot_proj[best[j]])
                            + ring.perimeter_distance(point_proj[j], slot_proj[best[i]]);
                        if after < before {
                            best.swap(i, j);
                            best_cost = best_cost - before + after;
                            improved = true;
                        }
                    }
                }
            }
        }

        RouteAssignment {
            slot_of: best,
            cost: best_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_geom::Rect;

    #[test]
    fn clockwise_order_of_compass_points() {
        let pts = [
            Point::new(0, 10),  // N
            Point::new(10, 0),  // E
            Point::new(0, -10), // S
            Point::new(-10, 0), // W
        ];
        assert_eq!(clockwise_order(&pts), vec![0, 1, 2, 3]);
        // Shuffled input, same circular order.
        let pts2 = [
            Point::new(-10, 0), // W
            Point::new(0, 10),  // N
            Point::new(0, -10), // S
            Point::new(10, 0),  // E
        ];
        assert_eq!(clockwise_order(&pts2), vec![1, 3, 2, 0]);
    }

    #[test]
    fn order_is_permutation() {
        let pts: Vec<Point> = (0..17)
            .map(|i| Point::new((i * 13) % 31 - 15, (i * 7) % 29 - 14))
            .collect();
        let mut order = clockwise_order(&pts);
        order.sort_unstable();
        assert_eq!(order, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn rotation_beats_or_matches_identity() {
        let naive = RotoRouter { first_fit: true };
        let ring = Ring::around(Rect::new(0, 0, 200, 100), 3);
        // Points clustered near the east edge.
        let pts = vec![
            Point::new(200, 80),
            Point::new(200, 60),
            Point::new(200, 40),
            Point::new(200, 20),
        ];
        let full = RotoRouter::new().assign(&ring, &pts);
        assert!(full.cost <= naive.assign(&ring, &pts).cost);
        // Assignment is a bijection.
        let mut slots = full.slot_of.clone();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn swaps_never_worsen() {
        let ring = Ring::around(Rect::new(0, 0, 120, 120), 2);
        let pts: Vec<Point> = (0..9)
            .map(|i| Point::new((i * 37) % 120, (i * 53) % 120))
            .collect();
        let n = pts.len();
        let slot_proj: Vec<i64> = ring
            .slots(n, 0)
            .iter()
            .map(|s| ring.project(s.pos))
            .collect();
        let cost_of = |slot_of: &[usize]| -> i64 {
            slot_of
                .iter()
                .enumerate()
                .map(|(i, &s)| ring.perimeter_distance(ring.project(pts[i]), slot_proj[s]))
                .sum()
        };
        // Best clockwise matching over all rotations, before any swap.
        let order = clockwise_order(&pts);
        let no_swap = (0..n)
            .map(|rot| {
                let mut slot_of = vec![0usize; n];
                for (k, &pi) in order.iter().enumerate() {
                    slot_of[pi] = (k + rot) % n;
                }
                cost_of(&slot_of)
            })
            .min()
            .unwrap();
        let with_swap = RotoRouter::new().assign(&ring, &pts);
        assert_eq!(with_swap.cost, cost_of(&with_swap.slot_of));
        assert!(with_swap.cost <= no_swap);
    }

    #[test]
    fn single_point() {
        let ring = Ring::around(Rect::new(0, 0, 50, 50), 1);
        let a = RotoRouter::new().assign(&ring, &[Point::new(25, 50)]);
        assert_eq!(a.slot_of, vec![0]);
    }
}

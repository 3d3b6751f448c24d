//! Property tests for the Roto-Router and the pad ring.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use bristle_blocks::cell::Side;
use bristle_blocks::geom::{Point, Rect};
use bristle_blocks::route::{clockwise_order, Ring, RotoRouter};

mod common;
use common::Rng;

/// `n` candidate connection points spread over the boundary of a 400x400
/// core so they are spaced like real connection points.
fn arb_points(rng: &mut Rng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = rng.range(0, 50);
            let b = rng.range(0, 50);
            match i % 4 {
                0 => Point::new(8 * a, 400),
                1 => Point::new(400, 8 * b),
                2 => Point::new(8 * a, 0),
                _ => Point::new(0, 8 * b),
            }
        })
        .collect()
}

#[test]
fn clockwise_order_is_permutation() {
    let mut rng = Rng::new(0x0707_0001);
    for case in 0..64 {
        let pts = arb_points(&mut rng, 9);
        let mut order = clockwise_order(&pts);
        order.sort_unstable();
        assert_eq!(order, (0..pts.len()).collect::<Vec<_>>(), "case {case}");
    }
}

#[test]
fn assignment_is_bijective() {
    let mut rng = Rng::new(0x0707_0002);
    for case in 0..64 {
        let pts = arb_points(&mut rng, 7);
        let ring = Ring::around(Rect::new(0, 0, 400, 400), pts.len());
        let a = RotoRouter::new().assign(&ring, &pts);
        let mut slots = a.slot_of.clone();
        slots.sort_unstable();
        assert_eq!(slots, (0..pts.len()).collect::<Vec<_>>(), "case {case}");
    }
}

#[test]
fn optimization_never_loses_to_naive() {
    let mut rng = Rng::new(0x0707_0003);
    for case in 0..64 {
        let pts = arb_points(&mut rng, 8);
        let ring = Ring::around(Rect::new(0, 0, 400, 400), pts.len());
        let full = RotoRouter::new().assign(&ring, &pts);
        let naive = RotoRouter { first_fit: true }.assign(&ring, &pts);
        assert!(full.cost <= naive.cost, "case {case}");
    }
}

#[test]
fn ring_walk_round_trips() {
    let mut rng = Rng::new(0x0707_0004);
    for case in 0..64 {
        let ring = Ring::around(Rect::new(-10, -20, 300, 200), 3);
        let s = rng.range(0, 2000) % ring.perimeter();
        let (p, side) = ring.at(s);
        assert_eq!(ring.project(p), s, "case {case}");
        // Sides partition the perimeter.
        assert!(
            matches!(side, Side::North | Side::East | Side::South | Side::West),
            "case {case}"
        );
    }
}

#[test]
fn slots_are_distinct_positions() {
    let mut rng = Rng::new(0x0707_0005);
    for case in 0..64 {
        let n = rng.range(3, 24) as usize;
        let ring = Ring::around(Rect::new(0, 0, 500, 300), n);
        let slots = ring.slots(n, 11);
        let mut positions: Vec<Point> = slots.iter().map(|s| s.pos).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), n, "case {case}");
    }
}

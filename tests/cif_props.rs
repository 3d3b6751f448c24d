//! Property tests: CIF write∘parse is the identity on cell libraries,
//! and the cell design language round-trips everything CIF cannot carry
//! (bristles, stretch lines, representations).
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use bristle_blocks::cell::{load_library, save_library, Cell, Instance, Library, Shape};
use bristle_blocks::cif::{cif_to_library, parse_cif, write_cif, ParseCifError, WriteCifError};
use bristle_blocks::core::{parse_page, Compiler};
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
    for i in 0..rng.range(0, 4) {
        let o = Orientation::ALL[rng.range(0, 8) as usize];
        let x = rng.range(-50, 50);
        let y = rng.range(-50, 50);
        let t = Transform::new(o, Point::new(2 * x, 2 * y));
        top.push_instance(Instance::new(leaf_id, format!("u{i}"), t));
    }
    lib.add_cell(top).unwrap();
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
        assert_eq!(
            lib.flatten_shared(top),
            back.flatten_shared(btop),
            "case {case}"
        );
    }
}

/// Every cell comes back equal in all it holds: shapes, instances,
/// bristles, stretch lines, power and representations (the `behavior`
/// key the SIMULATION machine is built from among them). Inputs are
/// random libraries and the four reference chips' compiled libraries.
#[test]
fn cdl_round_trip_is_identity() {
    let mut rng = Rng::new(0xC1F0_0002);
    let random = (0..48).map(|case| (format!("case {case}"), arb_library(&mut rng)));
    let chips = bristle_bench::reference_specs().into_iter().map(|spec| {
        let chip = Compiler::new().compile(&spec).unwrap();
        (format!("chip {}", spec.name), chip.lib)
    });
    for (what, lib) in random.chain(chips) {
        let text = save_library(&lib).unwrap();
        let back = load_library(&text).unwrap();
        assert_eq!(back.len(), lib.len(), "{what}");
        for (_, cell) in lib.iter() {
            let rid = back.find(cell.name()).unwrap();
            assert_eq!(back.cell(rid), cell, "{what}");
        }
    }
}

/// A chip named by a one-element page; its name reaches the library and
/// every chip-level cell name.
fn chip_named(name: &str) -> bristle_blocks::core::CompiledChip {
    let spec = parse_page(&format!("chip {name}\nelement alu\n")).unwrap();
    Compiler::new().compile(&spec).unwrap()
}

#[test]
fn cif_delimiters_in_chip_names_are_rejected() {
    for name in ["a(b", "a)b", "a;b"] {
        let want = Err(WriteCifError::UnwritableName(name.to_owned()));
        assert_eq!(chip_named(name).layout_cif(), want);
    }
}

#[test]
fn other_punctuation_in_chip_names_round_trips() {
    for name in ["a--b", "a&b", "é"] {
        let chip = chip_named(name);
        let text = chip.layout_cif().unwrap();
        let back = cif_to_library(&parse_cif(&text).unwrap()).unwrap();
        let top = chip.lib.cell(chip.top).name();
        let btop = back.find(top).unwrap_or_else(|| panic!("no `{top}`"));
        assert_eq!(back.bbox(btop), chip.lib.bbox(chip.top), "chip `{name}`");
    }
}

/// A box centred at an extreme of the `i64` range has an edge outside
/// it: reading it back must be a syntax error, never an overflow panic
/// (debug) or a wrapped coordinate (release).
#[test]
fn boxes_centred_at_i64_extremes_are_rejected() {
    for (cx, cy) in [(i64::MIN, 0), (i64::MAX, 0), (0, i64::MIN), (0, i64::MAX)] {
        let text = format!("DS 1 125 1;\n9 edge;\nL NM;\nB 4 2 {cx} {cy};\nDF;\nE\n");
        let file = parse_cif(&text).unwrap_or_else(|e| panic!("({cx}, {cy}) parses: {e}"));
        let got = cif_to_library(&file);
        assert!(
            matches!(got, Err(ParseCifError::Syntax { .. })),
            "({cx}, {cy}): {got:?}"
        );
    }
}

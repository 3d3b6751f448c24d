//! `Library::add_cell` records each cell's hierarchy box and total
//! power once, from its own items and its children's records. On every
//! cell of each compiled reference chip, the records equal the direct
//! recursion over every instance occurrence.

use bristle_bench::{compile, reference_specs};
use bristle_blocks::cell::{CellId, Library};
use bristle_blocks::geom::Rect;

/// The box of `id`'s hierarchy, recursing once per occurrence.
fn bbox_oracle(lib: &Library, id: CellId) -> Option<Rect> {
    let cell = lib.cell(id);
    let mut bb = cell.local_bbox();
    for inst in cell.instances() {
        if let Some(child) = bbox_oracle(lib, inst.cell) {
            let moved = inst.transform.apply_rect(child);
            bb = Some(bb.map_or(moved, |acc| acc.union(&moved)));
        }
    }
    bb
}

/// The current of `id`'s hierarchy, recursing once per occurrence.
fn power_oracle(lib: &Library, id: CellId) -> u64 {
    let cell = lib.cell(id);
    cell.instances().iter().map(|i| power_oracle(lib, i.cell)).sum::<u64>() + cell.power().current_ua()
}

#[test]
fn stored_boxes_and_power_match_the_recursion() {
    for spec in reference_specs() {
        let chip = compile(&spec).unwrap();
        for (id, cell) in chip.lib.iter() {
            let what = format!("{}: `{}`", spec.name, cell.name());
            assert_eq!(chip.lib.bbox(id), bbox_oracle(&chip.lib, id), "{what}");
            assert_eq!(chip.lib.total_power_ua(id), power_oracle(&chip.lib, id), "{what}");
        }
        assert_eq!(chip.lib.bbox(chip.top), Some(chip.die_bbox), "{}", spec.name);
        assert!(chip.lib.total_power_ua(chip.top) > 0, "{}", spec.name);
    }
}

//! Extraction and DRC read one indexed layer view per flat cell:
//! `Library::flat_layers_shared`. A view is built only on a miss of that
//! cache (its constructor is private to `bristle-cell`), so a view that
//! is still the cached one after both checkers ran is the only view they
//! built.

use std::sync::Arc;

use bristle_bench::{compile, reference_specs};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;

/// `extract(top)` builds the view, `check_flat(top)` reads the same one
/// and its gates, and the report equals that of a cold library.
#[test]
fn extract_then_check_flat_share_one_view() {
    let rules = RuleSet::mead_conway();
    for spec in &reference_specs()[..2] {
        let chip = compile(spec).unwrap();
        let cold = check_flat(&chip.lib.clone(), chip.top, &rules);
        let netlist = extract(&chip.lib, chip.top);
        let view = chip.lib.flat_layers_shared(chip.top);
        let gates = view.gates().as_ptr();
        let report = check_flat(&chip.lib, chip.top, &rules);
        assert_eq!(report, cold, "{}: DRC after extraction", spec.name);
        let after = chip.lib.flat_layers_shared(chip.top);
        assert!(Arc::ptr_eq(&view, &after), "{}: DRC built a second view", spec.name);
        assert_eq!(after.gates().as_ptr(), gates, "{}: gates computed twice", spec.name);
        // And the other way round: DRC first, then extraction.
        let lib = chip.lib.clone();
        assert_eq!(check_flat(&lib, chip.top, &rules), cold);
        let view = lib.flat_layers_shared(chip.top);
        assert_eq!(extract(&lib, chip.top), netlist, "{}: extraction after DRC", spec.name);
        assert!(Arc::ptr_eq(&view, &lib.flat_layers_shared(chip.top)));
    }
}

/// `clear_flat_cache` drops the view; the next checkers build a fresh
/// one and report the same. It is the only way a view goes: a cell in a
/// library never changes, so no view goes stale.
#[test]
fn clearing_drops_the_view() {
    let rules = RuleSet::mead_conway();
    let chip = compile(&reference_specs()[0]).unwrap();
    let want = check_flat(&chip.lib, chip.top, &rules);
    let netlist = extract(&chip.lib, chip.top);
    let view = chip.lib.flat_layers_shared(chip.top);
    chip.lib.clear_flat_cache();
    assert_eq!(check_flat(&chip.lib, chip.top, &rules), want);
    let rebuilt = chip.lib.flat_layers_shared(chip.top);
    assert!(!Arc::ptr_eq(&view, &rebuilt), "clear_flat_cache kept the view");
    assert_eq!(extract(&chip.lib, chip.top), netlist);
    assert!(Arc::ptr_eq(&rebuilt, &chip.lib.flat_layers_shared(chip.top)));
}

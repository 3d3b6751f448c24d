//! Deterministic-parallelism regression: DRC and extraction must
//! produce byte-identical results regardless of worker count. DRC's
//! per-cell loop runs on `par_map`, whose workers merge in input order
//! by construction; extraction is serial, so the worker cap must not
//! reach it at all. This test pins both end to end on a real chip.
//!
//! Kept in its own integration binary because it flips the global
//! worker cap — the cap is process-wide, and other suites must never
//! observe it mid-flight.

use bristle_bench::{compile, sweep_spec};
use bristle_blocks::drc::{check_hierarchical, RuleSet};
use bristle_blocks::extract::extract;
use bristle_blocks::geom::{max_workers, set_max_workers};

#[test]
fn drc_and_extraction_identical_across_thread_counts() {
    let spec = sweep_spec(8, 4, 2);
    let chip = compile(&spec).unwrap();
    let rules = RuleSet::mead_conway();

    // Serial baseline. The flatten cache is shared state too — clear it
    // between runs so each pass rebuilds everything from scratch.
    set_max_workers(1);
    chip.lib.clear_flat_cache();
    let netlist_1 = extract(&chip.lib, chip.core_cell);
    let report_1 = check_hierarchical(&chip.lib, chip.core_cell, &RuleSet::mead_conway());

    for workers in [2usize, 8, 0 /* auto */] {
        set_max_workers(workers);
        chip.lib.clear_flat_cache();
        let netlist_n = extract(&chip.lib, chip.core_cell);
        assert_eq!(
            netlist_1, netlist_n,
            "extraction differs between 1 and {workers} workers"
        );
        let report_n = check_hierarchical(&chip.lib, chip.core_cell, &rules);
        assert_eq!(
            format!("{report_1}"),
            format!("{report_n}"),
            "DRC report differs between 1 and {workers} workers"
        );
        assert_eq!(report_1.violations.len(), report_n.violations.len());
    }

    set_max_workers(0);
    assert_eq!(max_workers(), 0);
}

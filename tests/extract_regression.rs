//! Regression tests pinning the indexed/parallel extraction pipeline to
//! the exact netlists the naive pre-index extractor produces — the
//! "identical netlist" guarantee of the flatten-once rework.

use bristle_bench::{compile, reference_specs, sweep_spec};
use bristle_blocks::extract::{extract, extract_reference};
use bristle_blocks::verify::{Rng, SpecGen};

/// The indexed extractor must equal the naive reference — net names,
/// transistors (kind, nets, geometry, W/L) and terminals, byte for byte —
/// on the full cpu16 reference chip.
#[test]
fn cpu16_netlist_identical_to_reference_extractor() {
    let spec = &reference_specs()[3];
    assert_eq!(spec.name, "cpu16");
    let chip = compile(spec).unwrap();
    let fast = extract(&chip.lib, chip.core_cell);
    let slow = extract_reference(&chip.lib, chip.core_cell);
    assert_eq!(fast.net_names, slow.net_names, "net names/order must match");
    assert_eq!(fast.transistors, slow.transistors, "devices must match");
    assert_eq!(fast.terminals, slow.terminals, "terminals must match");
}

/// Golden snapshot of the cpu16 netlist shape: guards against silent
/// connectivity drift that the reference comparison alone would miss if
/// both implementations changed together.
///
/// Per-element derivation: start from the same core built of bare
/// discharge chains, with no restoring inverters and no decoded
/// RAM/stack selects (1552 nets / 1008 devices / 4096 terminals), and
/// add, per bit slice × 16 bits:
///
/// * **registers** (4 columns): each storage copy gains an in-frame
///   depletion-load inverter → per cell +2 nets (the two `nstore*`
///   output nodes), +4 devices (2 depletion loads + 2 inverter
///   drivers; the read chains still carry 2 gates each), +2 terminals
///   (`nstoreA`/`nstoreB` probe bristles). 4 × 16 × (2, 4, 2).
/// * **ram** (4 words): read chain grows to sel & rd & ~cell (3 gates)
///   and the write chain is now selw-gated (2 gates) → per cell
///   +4 nets (`ncell` output node + 2 extra chain islands + the wider
///   select wiring), +4 devices (1 depletion + 3 enhancement),
///   +3 terminals (`ncell` probe, `selw` column + its north
///   continuation). 4 × 16 × (4, 4, 3).
/// * **stack** (4 levels): same restoring structure plus the sp-decoded
///   `sel`/`selw` columns over a broadcast-only cell → per
///   cell +5 nets, +4 devices (1 depletion + 3 enhancement),
///   +5 terminals (`nlevel` probe, `sel`, `sel_n`, `selw`, `selw_n`).
///   4 × 16 × (5, 4, 5).
///
/// Totals: nets +44/bit → 1552 + 704 = 2256; devices +48/bit → 1008 +
/// 768 = 1776 (of which 16 × 16 = 256 depletion); terminals +40/bit →
/// 4096 + 640 = 4736.
#[test]
fn cpu16_netlist_golden_counts() {
    let chip = compile(&reference_specs()[3]).unwrap();
    let n = extract(&chip.lib, chip.core_cell);
    assert_eq!(n.net_count(), 2256, "net count");
    assert_eq!(n.transistors.len(), 1776, "transistor count");
    assert_eq!(n.terminals.len(), 4736, "terminal count");
    // The restoring read path puts exactly one depletion load per
    // storage plate: registers carry two copies per bit, RAM words and
    // stack levels one each → (4·2 + 4 + 4) × 16 = 256.
    let dep = n
        .transistors
        .iter()
        .filter(|t| t.kind == bristle_blocks::extract::TransistorKind::Depletion)
        .count();
    assert_eq!(dep, 256, "one depletion load per storage plate");
    assert!(
        n.transistors.iter().all(|t| t.width > 0 && t.length > 0),
        "every channel must have positive W and L"
    );
    // Extraction must be deterministic call to call.
    let again = extract(&chip.lib, chip.core_cell);
    assert_eq!(n, again, "extraction must be deterministic");
}

/// The remaining reference chips stay identical too (fast, so all
/// three), and so does the 16-bit sweep chip with every extra element.
#[test]
fn smaller_reference_chips_identical_to_reference_extractor() {
    let mut specs = reference_specs();
    specs.truncate(3);
    specs.push(sweep_spec(16, 8, 4));
    for spec in &specs {
        let chip = compile(spec).unwrap();
        let fast = extract(&chip.lib, chip.core_cell);
        let slow = extract_reference(&chip.lib, chip.core_cell);
        assert_eq!(fast, slow, "{} netlist must match reference", spec.name);
    }
}

/// The reference extractor is quadratic in the piece count; cells with
/// more flat shapes than this are left to the reference chips above.
const ORACLE_SHAPES: usize = 2_500;

/// Generated chips stay identical too: the top and core cells of
/// full-diversity `random_spec` chips (bus breaks, PLA fields, every
/// element kind) up to [`ORACLE_SHAPES`] flat shapes, and the cores of
/// `random_cosim_spec` chips, the ones the differential suite extracts.
#[test]
fn generated_chips_identical_to_reference_extractor() {
    let mut capped_in = 0;
    for k in 0..24u64 {
        let spec = SpecGen::random_spec(&mut Rng::new(0xB215_713E + 3000 + k), &format!("r{k}"));
        let chip = compile(&spec).unwrap();
        for cell in [chip.top, chip.core_cell] {
            if chip.lib.flatten_shared(cell).len() > ORACLE_SHAPES {
                continue;
            }
            let fast = extract(&chip.lib, cell);
            assert_eq!(fast, extract_reference(&chip.lib, cell), "{} cell {cell:?}", spec.name);
            capped_in += 1;
        }
        let spec =
            SpecGen::random_cosim_spec(&mut Rng::new(0xB215_713E + 4000 + k), &format!("c{k}"));
        let chip = compile(&spec).unwrap();
        let fast = extract(&chip.lib, chip.core_cell);
        assert_eq!(fast, extract_reference(&chip.lib, chip.core_cell), "{}", spec.name);
    }
    // The cap keeps 26 of the 48 random_spec cells; it must not grow to
    // skip most of them.
    assert!(capped_in >= 16, "only {capped_in} random_spec cells compared");
}

//! Integration tests spanning the whole workspace: compile complete
//! chips and hold them to the paper's standards.

use bristle_bench::{hand_core_area, reference_specs, sweep_spec};
use bristle_blocks::cif::{cif_to_library, parse_cif};
use bristle_blocks::core::{ChipSpec, Compiler};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;

fn small() -> ChipSpec {
    ChipSpec::builder("it_small")
        .data_width(4)
        .element("registers", &[("count", 2)])
        .element("alu", &[])
        .build()
        .unwrap()
}

fn datapath8() -> ChipSpec {
    ChipSpec::builder("it_dp8")
        .data_width(8)
        .element("inport", &[])
        .element("registers", &[("count", 4)])
        .element("shifter", &[])
        .element("alu", &[])
        .element("outport", &[])
        .build()
        .unwrap()
}

#[test]
fn core_cell_is_drc_clean() {
    // The datapath core — every generated, stretched, stacked and
    // abutted cell — passes the Mead–Conway rules.
    let rules = RuleSet::mead_conway();
    let chip = Compiler::new().compile(&small()).unwrap();
    let report = check_flat(&chip.lib, chip.core_cell, &rules);
    assert!(report.is_clean(), "{report}");
    // So does every reference chip, at its core and at the top cell,
    // pads and glue included.
    for spec in reference_specs() {
        let chip = Compiler::new().compile(&spec).unwrap();
        for (what, cell) in [("core", chip.core_cell), ("top", chip.top)] {
            let report = check_flat(&chip.lib, cell, &rules);
            assert!(report.is_clean(), "{} {what}: {report}", spec.name);
        }
    }
}

#[test]
fn chip_compiles_at_many_widths() {
    let mut specs: Vec<ChipSpec> = [2u32, 4, 8, 16, 24]
        .into_iter()
        .map(|width| {
            ChipSpec::builder(format!("w{width}"))
                .data_width(width)
                .element("registers", &[("count", 2)])
                .element("alu", &[])
                .build()
                .unwrap()
        })
        .collect();
    // The chip-space sweep grid, and the widest sweep chip with every
    // extra element.
    for width in [4u32, 8, 16] {
        for registers in [2i64, 8] {
            specs.push(sweep_spec(width, registers, 2));
        }
    }
    specs.push(sweep_spec(32, 8, 4));
    for spec in &specs {
        let width = spec.data_width;
        let chip = Compiler::new().compile(spec).unwrap();
        assert!(chip.die_area() > 0, "{}", spec.name);
        let report = check_flat(&chip.lib, chip.top, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{}: {report}", spec.name);
        // Core height grows with the word width: n−1 full slices plus
        // the top slice's content (which stops short of the next pitch).
        let h = chip.core_bbox.height();
        assert!(
            h > i64::from(width - 1) * chip.pitch && h <= i64::from(width) * chip.pitch,
            "{}: height {h} vs pitch {}",
            spec.name,
            chip.pitch
        );
    }
}

#[test]
fn cif_round_trips_the_whole_chip() {
    let chip = Compiler::new().compile(&small()).unwrap();
    let text = chip.layout_cif().unwrap();
    let back = cif_to_library(&parse_cif(&text).unwrap()).unwrap();
    // Same flattened footprint after the round trip.
    let top = back.find("it_small_chip").unwrap();
    assert_eq!(back.bbox(top), Some(chip.die_bbox));
    assert_eq!(
        back.flatten_shared(top).len(),
        chip.lib.flatten_shared(chip.top).len(),
        "shape population must survive CIF"
    );
}

#[test]
fn extraction_finds_every_element_device() {
    let chip = Compiler::new().compile(&datapath8()).unwrap();
    let netlist = extract(&chip.lib, chip.core_cell);
    // Every bit slice of every column contributes transistors; an 8-bit
    // datapath with 8 columns has hundreds.
    assert!(
        netlist.transistors.len() > 200,
        "only {} devices",
        netlist.transistors.len()
    );
    // Bus precharge pull-ups appear (gates on the phi2 columns).
    assert!(netlist.net_count() > 100);
}

#[test]
fn representations_are_mutually_consistent() {
    let chip = Compiler::new().compile(&datapath8()).unwrap();
    let manual = chip.text_manual();
    // Every control line the decoder drives appears in the manual.
    for (name, _) in &chip.controls {
        assert!(manual.contains(name), "manual lacks control {name}");
    }
    // Every microcode field appears.
    for f in chip.microcode.fields() {
        assert!(manual.contains(&f.name), "manual lacks field {}", f.name);
    }
    // The decoder PLA has one output per control line.
    assert_eq!(chip.pla.outputs().len(), chip.controls.len());
    // The machine accepts a word made of every field's max value.
    let mut machine = chip.simulation().unwrap();
    let word = (0..chip.microcode.word_width()).fold(0u64, |w, b| w | 1 << b);
    machine.step_word(word).unwrap();
}

#[test]
fn sim_register_file_round_trip() {
    let chip = Compiler::new().compile(&datapath8()).unwrap();
    let mut m = chip.simulation().unwrap();
    let mc = m.microcode().clone();
    // in -> r2 -> shifter -> r3 (exercising three elements).
    m.set_pad("e0_inport_pad", 0x5A);
    let w1 = mc
        .encode(&[("e0_inport_io", 1), ("e1_registers_ld", 3)])
        .unwrap();
    m.step_word(w1).unwrap();
    assert_eq!(m.peek("e1_registers", "r2").unwrap(), 0x5A);
    let w2 = mc
        .encode(&[("e1_registers_rda", 3), ("e2_shifter_sh", 1)])
        .unwrap();
    m.step_word(w2).unwrap();
    assert_eq!(m.peek("e2_shifter", "value").unwrap(), 0x5A);
}

#[test]
fn bus_break_inserts_precharge() {
    let with_break = ChipSpec::builder("brk")
        .data_width(4)
        .element("registers", &[("count", 2)])
        .break_bus(0)
        .element("alu", &[])
        .build()
        .unwrap();
    let chip = Compiler::new().compile(&with_break).unwrap();
    let precharges = chip
        .elements
        .iter()
        .filter(|e| e.kind == "precharge")
        .count();
    assert_eq!(precharges, 2, "head precharge + one per break");
}

#[test]
fn pitch_is_stable_across_recompiles() {
    let a = Compiler::new().compile(&datapath8()).unwrap();
    let b = Compiler::new().compile(&datapath8()).unwrap();
    assert_eq!(a.pitch, b.pitch);
    assert_eq!(a.die_bbox, b.die_bbox, "compilation must be deterministic");
    assert_eq!(a.wire_length, b.wire_length);
}

#[test]
fn hand_baseline_never_exceeds_the_compiled_core() {
    // Stretching only grows cells, so the natural-pitch baseline of
    // experiments T1/A1 can never be larger than the compiled core: a
    // negative alignment overhead means the two sides are measured
    // differently.
    for spec in reference_specs() {
        let chip = Compiler::new().compile(&spec).unwrap();
        let (hand, compiled) = (hand_core_area(&chip), chip.core_area());
        assert!(
            hand <= compiled,
            "{}: hand {hand} > compiled {compiled}",
            spec.name
        );
    }
}

//! The experiment harness: regenerates every figure (f1–f3) and table
//! (t1–t3) of the paper, plus the ablations a1–a5 (stretching,
//! rotorouter, decoder optimisation, conditional assembly, smart cells)
//! and the glue-fault probe g1. Performance measurement beyond the
//! paper's t2/t3 tables is the `perfbench` benchmark's job.
//!
//! Run everything:    `cargo run --release -p bristle-bench --bin experiments`
//! Run one:           `cargo run --release -p bristle-bench --bin experiments -- t1`

use std::time::Instant;

use bristle_bench::{compile, hand_core_area, reference_specs, sweep_spec};
use bristle_core::{ChipSpec, Compiler};
use bristle_drc::{check_flat, RuleSet};
use bristle_geom::Point;

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let run = |id: &str| which.is_empty() || which.iter().any(|w| w.eq_ignore_ascii_case(id));
    if run("f1") {
        f1_physical_format();
    }
    if run("f2") {
        f2_logical_format();
    }
    if run("f3") {
        f3_compiler_space();
    }
    if run("t1") {
        t1_area_vs_hand();
    }
    if run("t2") {
        t2_compile_time();
    }
    if run("t3") {
        t3_design_loop();
    }
    if run("a1") {
        a1_stretch_ablation();
    }
    if run("a2") {
        a2_rotorouter_ablation();
    }
    if run("a3") {
        a3_decoder_opt();
    }
    if run("a4") {
        a4_conditional_assembly();
    }
    if run("a5") {
        a5_smart_cells();
    }
    if run("g1") {
        g1_glue_faults();
    }
}

fn banner(id: &str, title: &str) {
    println!("\n==== {id}: {title} ====");
}

/// F1 — the paper's Figure 1: physical chip format.
fn f1_physical_format() {
    banner("F1", "physical chip format (paper fig. 1)");
    let chip = compile(&reference_specs()[2]).unwrap();
    print!("{}", chip.block_physical());
}

/// F2 — the paper's Figure 2: logical chip format.
fn f2_logical_format() {
    banner("F2", "logical chip format (paper fig. 2)");
    let chip = compile(&reference_specs()[2]).unwrap();
    print!("{}", chip.block_logical());
}

/// F3 — the paper's Figure 3: the compiler-space coverage of the current
/// system (how much of chip space the one architecture covers).
fn f3_compiler_space() {
    banner("F3", "compiler space coverage (paper fig. 3)");
    let mut attempted = 0;
    let mut compiled = 0;
    let mut clean = 0;
    for width in [2u32, 4, 8, 16, 32] {
        for regs in [1i64, 2, 4, 8] {
            for extras in 0..=4 {
                attempted += 1;
                let spec = sweep_spec(width, regs, extras);
                match compile(&spec) {
                    Ok(chip) => {
                        compiled += 1;
                        let r = check_flat(&chip.lib, chip.top, &RuleSet::mead_conway());
                        if r.is_clean() {
                            clean += 1;
                        } else {
                            println!("  DIRTY: {} -> {}", spec.name, r.violations.len());
                        }
                    }
                    Err(e) => println!("  FAILED: {} -> {e}", spec.name),
                }
            }
        }
    }
    println!("chip space: {attempted} specs attempted, {compiled} compiled");
    println!("DRC: {clean}/{compiled} compiled chips clean at the top cell");
}

/// T1 — "±10% of the area of a chip produced by hand".
fn t1_area_vs_hand() {
    banner("T1", "compiled core area vs hand layout (paper: within ±10%)");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "chip", "compiled λ²", "hand λ²", "ratio"
    );
    for spec in reference_specs() {
        let chip = compile(&spec).unwrap();
        let compiled = chip.core_area();
        let hand = hand_core_area(&chip);
        println!(
            "{:<12} {:>12} {:>12} {:>8.3}",
            spec.name,
            compiled,
            hand,
            compiled as f64 / hand as f64
        );
    }
}

/// T2 — compile-time scaling ("approximately 4 minutes … 10-15 minutes"
/// on a 1978 PDP-10; we report the shape).
fn t2_compile_time() {
    banner("T2", "compile time vs chip size (all representations)");
    println!(
        "{:<24} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "chip", "ctl", "core ms", "ctrl ms", "pads ms", "reprs ms", "total ms"
    );
    for width in [4u32, 8, 16, 32] {
        for regs in [2i64, 8] {
            let spec = sweep_spec(width, regs, 4);
            let chip = compile(&spec).unwrap();
            let t = Instant::now();
            let _ = chip.layout_cif().unwrap();
            let _ = chip.sticks();
            let _ = chip.transistors();
            let _ = chip.logic();
            let _ = chip.text_manual();
            let _ = chip.simulation().unwrap();
            let _ = chip.block_physical();
            let reprs_ms = t.elapsed().as_secs_f64() * 1e3;
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            println!(
                "{:<24} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
                spec.name,
                chip.controls.len(),
                ms(chip.timings.core),
                ms(chip.timings.control),
                ms(chip.timings.pads),
                reprs_ms,
                ms(chip.timings.total()) + reprs_ms,
            );
        }
    }
}

/// T3 — the single-afternoon design loop: how fast can a designer
/// change a parameter and see the new chip?
fn t3_design_loop() {
    banner("T3", "edit-recompile design loop");
    let mut total = 0.0;
    let mut n = 0;
    for count in [2i64, 3, 4, 6, 8] {
        let spec = ChipSpec::builder(format!("loop{count}"))
            .data_width(16)
            .element("registers", &[("count", count)])
            .element("alu", &[])
            .element("outport", &[])
            .build()
            .unwrap();
        let t = Instant::now();
        let chip = compile(&spec).unwrap();
        let dt = t.elapsed().as_secs_f64() * 1e3;
        total += dt;
        n += 1;
        println!(
            "  registers={count}: {dt:.2} ms -> die {}x{} λ",
            chip.die_bbox.width(),
            chip.die_bbox.height()
        );
    }
    println!("  mean edit-to-masks latency: {:.2} ms", total / f64::from(n));
}

/// A1 — stretchable cells: how much area does the uniform pitch cost
/// relative to per-element natural pitches (which the paper's stretch
/// mechanism makes unnecessary to hand-redesign)?
fn a1_stretch_ablation() {
    banner("A1", "stretchable-cell pitch alignment overhead");
    println!(
        "{:<12} {:>7} {:>14} {:>14} {:>9}",
        "chip", "pitch", "aligned λ²", "natural λ²", "overhead"
    );
    for spec in reference_specs() {
        let chip = compile(&spec).unwrap();
        let aligned = chip.core_area();
        let natural = hand_core_area(&chip);
        println!(
            "{:<12} {:>7} {:>14} {:>14} {:>8.1}%",
            spec.name,
            chip.pitch,
            aligned,
            natural,
            100.0 * (aligned - natural) as f64 / natural as f64
        );
    }
}

/// A2 — Roto-Router vs naive first-fit pad assignment.
fn a2_rotorouter_ablation() {
    banner("A2", "Roto-Router vs first-fit pad assignment");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>8}",
        "chip", "pads", "roto λ", "naive λ", "saving"
    );
    for spec in reference_specs() {
        let roto = Compiler::new().compile(&spec).unwrap();
        let naive = Compiler {
            naive_pads: true,
            ..Compiler::new()
        }
        .compile(&spec)
        .unwrap();
        println!(
            "{:<12} {:>6} {:>12} {:>12} {:>7.1}%",
            spec.name,
            roto.pad_count,
            roto.wire_length,
            naive.wire_length,
            100.0 * (naive.wire_length - roto.wire_length) as f64 / naive.wire_length as f64
        );
    }
}

/// A3 — the two-tape machine's decoder optimization vs the raw text
/// array, with functional equivalence verified.
fn a3_decoder_opt() {
    banner("A3", "decoder optimization (two-tape machine) vs raw PLA");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>11} {:>11} {:>7}",
        "chip", "ctl", "raw terms", "opt terms", "raw grid", "opt grid", "equiv"
    );
    for spec in reference_specs() {
        let raw = Compiler {
            unoptimized_decoder: true,
            ..Compiler::new()
        }
        .compile(&spec)
        .unwrap();
        let opt = Compiler::new().compile(&spec).unwrap();
        // Exhaustive up to 24 used bits; wider decoders are sampled.
        let used = raw
            .pla
            .used_input_bits()
            .len()
            .max(opt.pla.used_input_bits().len());
        let equiv = if used <= 24 {
            raw.pla.equivalent(&opt.pla, 24)
        } else {
            (0..1u64 << 16).step_by(7).all(|seed| {
                let word = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                raw.pla.eval(word) == opt.pla.eval(word)
            })
        };
        println!(
            "{:<12} {:>6} {:>10} {:>10} {:>11} {:>11} {:>7}",
            spec.name,
            opt.controls.len(),
            raw.pla.terms().len(),
            opt.pla.terms().len(),
            raw.pla.stats().grid_area(),
            opt.pla.stats().grid_area(),
            equiv
        );
    }
}

/// A4 — conditional assembly: PROTOTYPE vs production.
fn a4_conditional_assembly() {
    banner("A4", "conditional assembly: PROTOTYPE flag");
    let base = reference_specs().remove(2);
    for proto in [true, false] {
        let mut spec = base.clone();
        spec.name = format!("{}_{}", base.name, if proto { "proto" } else { "prod" });
        spec.flags.insert("PROTOTYPE".into(), proto);
        let chip = compile(&spec).unwrap();
        println!(
            "  PROTOTYPE={proto:<5} pads={:<3} die={:>9} λ²  wire={:>6} λ",
            chip.pad_count,
            chip.die_area(),
            chip.wire_length
        );
    }
}

/// A5 — smart-cell minimum-area variant selection.
fn a5_smart_cells() {
    banner("A5", "smart-cell variant selection (min area at pitch)");
    for spec in reference_specs() {
        let smart = Compiler::new().compile(&spec).unwrap();
        let dumb = Compiler {
            no_variants: true,
            ..Compiler::new()
        }
        .compile(&spec)
        .unwrap();
        println!(
            "  {:<12} smart core={:>10} λ²  primary-only={:>10} λ²  Δ={:>6}",
            spec.name,
            smart.core_area(),
            dumb.core_area(),
            dumb.core_area() - smart.core_area()
        );
    }
}

/// G1 — the paper's folklore: chips fail from faulty *glue*, not faulty
/// leaf cells. Inject mutations into leaf geometry vs assembly offsets
/// and count which are caught by DRC of the core.
fn g1_glue_faults() {
    banner("G1", "fault injection: leaf cells vs glue");
    let spec = &reference_specs()[0];
    let trials = 12usize;
    let mut leaf_caught = 0;
    let mut glue_caught = 0;
    for k in 0..trials {
        // Leaf mutation: nudge one shape of one column cell by 1λ.
        let mut chip = compile(spec).unwrap();
        {
            let col = chip.elements[1].columns[0];
            let cell = chip.lib.cell_mut(col);
            let i = (k * 7) % cell.shapes().len();
            let moved = cell.shapes()[i]
                .clone()
                .map_points(|p| Point::new(p.x + 1, p.y));
            cell.shapes_replace(i, moved);
        }
        if !check_flat(&chip.lib, chip.core_cell, &RuleSet::mead_conway()).is_clean() {
            leaf_caught += 1;
        }
        // Glue mutation: nudge one instance of the core by a few λ.
        let mut chip = compile(spec).unwrap();
        {
            let core = chip.core_cell;
            let cell = chip.lib.cell_mut(core);
            let n = cell.instances().len();
            let i = (k * 5) % n;
            cell.nudge_instance(i, Point::new(1 + (k as i64 % 3), 0));
        }
        if !check_flat(&chip.lib, chip.core_cell, &RuleSet::mead_conway()).is_clean() {
            glue_caught += 1;
        }
    }
    println!("  leaf mutations caught by DRC : {leaf_caught}/{trials}");
    println!("  glue mutations caught by DRC : {glue_caught}/{trials}");
    println!("  (the paper's interface standards are what make the glue checkable)");
}

/// Test-support helpers the bench needs on `Cell`.
trait CellMut {
    fn shapes_replace(&mut self, index: usize, shape: bristle_cell::Shape);
    fn nudge_instance(&mut self, index: usize, by: Point);
}

impl CellMut for bristle_cell::Cell {
    fn shapes_replace(&mut self, index: usize, shape: bristle_cell::Shape) {
        let mut shapes: Vec<_> = self.shapes().to_vec();
        shapes[index] = shape;
        // Rebuild in place: clear by retaining nothing, then push.
        let bristles: Vec<_> = self.bristles().to_vec();
        let name = self.name().to_owned();
        let mut fresh = bristle_cell::Cell::new(name);
        for s in shapes {
            fresh.push_shape(s);
        }
        for b in bristles {
            fresh.push_bristle(b);
        }
        for i in self.instances().to_vec() {
            fresh.push_instance(i);
        }
        *self = fresh;
    }

    fn nudge_instance(&mut self, index: usize, by: Point) {
        let mut insts = self.instances().to_vec();
        insts[index].transform.offset += by;
        let name = self.name().to_owned();
        let shapes: Vec<_> = self.shapes().to_vec();
        let bristles: Vec<_> = self.bristles().to_vec();
        let mut fresh = bristle_cell::Cell::new(name);
        for s in shapes {
            fresh.push_shape(s);
        }
        for b in bristles {
            fresh.push_bristle(b);
        }
        for i in insts {
            fresh.push_instance(i);
        }
        *self = fresh;
    }
}

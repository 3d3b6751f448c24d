//! The experiment harness: regenerates the paper's figures (f1–f3) and
//! timing tables (t2–t3), plus the ablations a1–a4 (stretching,
//! rotorouter, decoder optimisation, conditional assembly), the
//! glue-fault probe g1 and the variant census. Performance measurement
//! beyond the paper's t2/t3 tables is the `perfbench` benchmark's job.
//!
//! Run everything:    `cargo run --release -p bristle-bench --bin experiments`
//! Run one:           `cargo run --release -p bristle-bench --bin experiments -- census`
//!
//! An unknown id prints the known ones to stderr and exits with status 2.

use std::time::Instant;

use bristle_bench::{compile, natural_core_area, reference_specs, sweep_spec};
use bristle_cell::{ActiveWhen, Cell, CellId, Flavor, LogicKind, PadKind, Phase};
use bristle_core::{ChipSpec, Compiler};
use bristle_drc::{check_flat, RuleSet};
use bristle_geom::Point;
use bristle_verify::{Rng, SpecGen};

/// Every experiment, in run order.
const EXPERIMENTS: [(&str, fn()); 11] = [
    ("f1", f1_physical_format),
    ("f2", f2_logical_format),
    ("f3", f3_compiler_space),
    ("t2", t2_compile_time),
    ("t3", t3_design_loop),
    ("a1", a1_stretch_ablation),
    ("a2", a2_rotorouter_ablation),
    ("a3", a3_decoder_opt),
    ("a4", a4_conditional_assembly),
    ("g1", g1_glue_faults),
    ("census", census),
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let known = |w: &String| EXPERIMENTS.iter().any(|(id, _)| w.eq_ignore_ascii_case(id));
    if let Some(bad) = which.iter().find(|w| !known(w)) {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!("unknown experiment `{bad}`; known: {}", ids.join(" "));
        std::process::exit(2);
    }
    for (id, run) in EXPERIMENTS {
        if which.is_empty() || which.iter().any(|w| w.eq_ignore_ascii_case(id)) {
            run();
        }
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
    for spec in sweep_grid() {
        attempted += 1;
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
    println!("chip space: {attempted} specs attempted, {compiled} compiled");
    println!("DRC: {clean}/{compiled} compiled chips clean at the top cell");
}

/// The 100-spec chip-space grid of F3: widths × register counts ×
/// extras.
fn sweep_grid() -> Vec<ChipSpec> {
    let mut specs = Vec::new();
    for width in [2u32, 4, 8, 16, 32] {
        for regs in [1i64, 2, 4, 8] {
            for extras in 0..=4 {
                specs.push(sweep_spec(width, regs, extras));
            }
        }
    }
    specs
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
/// The repo has no independent hand layout, so the paper's "±10 % of a
/// hand-drawn chip" claim is not reproduced; this is the nearest measure.
fn a1_stretch_ablation() {
    banner("A1", "stretchable-cell pitch alignment overhead");
    println!(
        "{:<12} {:>7} {:>14} {:>14} {:>9}",
        "chip", "pitch", "aligned λ²", "natural λ²", "overhead"
    );
    for spec in reference_specs() {
        let chip = compile(&spec).unwrap();
        let aligned = chip.core_area();
        let natural = natural_core_area(&chip);
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

/// G1 — the paper's folklore: chips fail from faulty *glue*, not faulty
/// leaf cells. Inject mutations into leaf geometry vs assembly offsets
/// and count which are caught by DRC of the core.
fn g1_glue_faults() {
    banner("G1", "fault injection: leaf cells vs glue");
    let spec = &reference_specs()[0];
    let trials = 12usize;
    let mut leaf_caught = 0;
    let mut glue_caught = 0;
    let chip = compile(spec).unwrap();
    let caught = |col: CellId, cell: Cell| {
        let lib = chip.lib.with_cell_replaced(col, cell).unwrap();
        !check_flat(&lib, chip.core_cell, &RuleSet::mead_conway()).is_clean()
    };
    for k in 0..trials {
        // Leaf mutation: nudge one shape of one column cell by 1λ.
        let col = chip.elements[1].columns[0];
        let mut cell = chip.lib.cell(col).clone();
        let i = (k * 7) % cell.shapes().len();
        let shape = &mut cell.shapes_mut()[i];
        *shape = shape.clone().map_points(|p| Point::new(p.x + 1, p.y));
        leaf_caught += usize::from(caught(col, cell));
        // Glue mutation: nudge one instance of the core by a few λ.
        let mut cell = chip.lib.cell(chip.core_cell).clone();
        let i = (k * 5) % cell.instances().len();
        cell.instances_mut()[i].transform.offset += Point::new(1 + (k as i64 % 3), 0);
        glue_caught += usize::from(caught(chip.core_cell, cell));
    }
    println!("  leaf mutations caught by DRC : {leaf_caught}/{trials}");
    println!("  glue mutations caught by DRC : {glue_caught}/{trials}");
    println!("  (the paper's interface standards are what make the glue checkable)");
}

/// CENSUS — how often the compiled corpus reaches each variant of the
/// decode, pad, clock and gate enums, read from `CompiledChip` fields
/// only. The corpus: the 4 reference specs, the F3 grid, 1,000
/// `random_spec` seeds and 300 `random_cosim_spec` seeds. A zero row is
/// a variant no emitted chip reaches: a deletion candidate or a
/// generator gap (ROADMAP item 11).
fn census() {
    const SEED: u64 = 0xB215_713E;
    banner("CENSUS", "variant hits over the compiled corpus");
    let mut corpus = reference_specs();
    corpus.extend(sweep_grid());
    corpus.extend(
        (0..1000).map(|k| SpecGen::random_spec(&mut Rng::new(SEED + 5000 + k), &format!("r{k}"))),
    );
    corpus.extend(
        (0..300).map(|k| SpecGen::random_cosim_spec(&mut Rng::new(SEED + k), &format!("c{k}"))),
    );
    // Every variant's row is seeded, so a variant no chip reaches prints 0.
    let seeds = [ActiveWhen::Equals(0), ActiveWhen::Bit(0)]
        .map(|a| active_row(&a))
        .into_iter()
        .chain(PadKind::ALL.map(pad_row))
        .chain(Phase::ALL.map(clock_row))
        .chain(LogicKind::ALL.map(gate_row));
    let mut rows: Vec<(String, usize)> = seeds.map(|label| (label.to_owned(), 0)).collect();
    let mut hit = |label: &str| match rows.iter_mut().find(|(l, _)| l == label) {
        Some(row) => row.1 += 1,
        None => rows.push((label.to_owned(), 1)),
    };
    let mut compiled = 0;
    for spec in &corpus {
        let Ok(chip) = compile(spec) else { continue };
        compiled += 1;
        for (_, line) in &chip.controls {
            hit(active_row(&line.active));
        }
        for (_, terms) in chip.pla.outputs() {
            hit(&format!("PLA output with {} term(s)", terms.len()));
        }
        for inst in chip.lib.cell(chip.top).instances() {
            let label = chip.lib.cell(inst.cell).reprs().block_label.as_deref();
            if let Some(kind) = PadKind::ALL
                .into_iter()
                .find(|k| label == Some(&format!("PAD:{k}")))
            {
                hit(pad_row(kind));
            }
        }
        let clocks = chip
            .lib
            .flat_bristles_where(chip.core_cell, |_, _, f| matches!(f, Flavor::Clock(_)));
        for b in clocks {
            if let Flavor::Clock(phase) = b.flavor {
                hit(clock_row(phase));
            }
        }
        for g in chip.logic() {
            hit(gate_row(g.kind));
        }
    }
    println!("  {compiled} of {} specs compiled", corpus.len());
    for (label, n) in rows {
        println!("  {label:<32} {n:>8}");
    }
}

// Each row name comes from a `match` with no `_` arm, so a new variant
// does not build until the census counts it.

fn active_row(a: &ActiveWhen) -> &'static str {
    match a {
        ActiveWhen::Equals(_) => "ActiveWhen::Equals",
        ActiveWhen::Bit(_) => "ActiveWhen::Bit",
    }
}

fn pad_row(k: PadKind) -> &'static str {
    match k {
        PadKind::Input => "PadKind::Input",
        PadKind::Output => "PadKind::Output",
        PadKind::Vdd => "PadKind::Vdd",
        PadKind::Gnd => "PadKind::Gnd",
        PadKind::Phi1 => "PadKind::Phi1",
        PadKind::Phi2 => "PadKind::Phi2",
    }
}

fn clock_row(p: Phase) -> &'static str {
    match p {
        Phase::Phi1 => "Flavor::Clock(Phi1)",
        Phase::Phi2 => "Flavor::Clock(Phi2)",
    }
}

fn gate_row(k: LogicKind) -> &'static str {
    match k {
        LogicKind::And => "LogicKind::And",
        LogicKind::Xor => "LogicKind::Xor",
        LogicKind::Pass => "LogicKind::Pass",
        LogicKind::Latch => "LogicKind::Latch",
    }
}

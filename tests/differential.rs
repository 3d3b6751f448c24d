//! Differential verification: randomized chip specs, compiled through
//! the full pipeline (compile → layout → extract), co-simulated at
//! switch level against the functional SIMULATION machine under
//! identical random microcode programs, with cycle-by-cycle **direct**
//! bus / plate / pad equality — the restoring (non-inverting) read path
//! makes the silicon's φ1 buses equal the machine's bit for bit, and
//! RAM words and stack levels co-simulate actively alongside registers.
//! Every case's chip must also be DRC-clean at the top cell.
//!
//! Seed policy: every case derives from `BASE_SEED + index`. To replay
//! one case locally: `BRISTLE_VERIFY_SEED=<seed> cargo test --release
//! --test differential -- one_seed --nocapture`. On failure the minimal
//! reproducer dump is written to `target/verify-failures/` (CI uploads
//! that directory as an artifact).

use std::fmt::Write as _;

use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_verify::{
    run_cosim, run_cosim_with, shrink, CosimError, CosimStats, Fault, Prepared, Program, Rng,
    SpecGen,
};

/// Base seed for the pinned CI seed set. Changing it invalidates no
/// goldens — every derived case is checked the same way.
const BASE_SEED: u64 = 0xB215_713E;

/// Cycles per program: enough for several write→retain→read rounds.
const CYCLES: usize = 18;

fn dump_failure(name: &str, text: &str) {
    let dir = std::path::Path::new("target").join("verify-failures");
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(format!("{name}.txt")), text);
}

fn run_seed(seed: u64) -> Result<bristle_verify::CosimStats, String> {
    let spec = SpecGen::random_cosim_spec(&mut Rng::new(seed), &format!("dv{seed:x}"));
    let program = Program::random(&spec, seed ^ 0x9E37_79B9, CYCLES);
    let fail =
        |e: &dyn std::fmt::Display| format!("case seed {seed} ({seed:#x}): {e}\nspec:\n{spec}");
    let prepared = Prepared::new(&spec, None).map_err(|e| fail(&e))?;
    // The emitted chip must be DRC-clean at the top cell, not only
    // agree with the machine in its core.
    let chip = prepared.chip();
    let drc = check_flat(&chip.lib, chip.top, &RuleSet::mead_conway());
    if !drc.is_clean() {
        return Err(fail(&format_args!("top cell not DRC-clean: {drc}")));
    }
    prepared.run(&program).map_err(|e| match e {
        CosimError::Diverged(_) => {
            // Shrink before reporting so the failure is actionable. The
            // shrunk reproducer carries the *program* seed; the case
            // seed below is what BRISTLE_VERIFY_SEED replays.
            let repro = shrink(&spec, seed ^ 0x9E37_79B9, CYCLES, None, 60);
            let mut msg = format!("case seed {seed} ({seed:#x}): {e}\n");
            if let Some(r) = repro {
                let _ = write!(msg, "{r}");
            }
            msg
        }
        other => fail(&other),
    })
}

/// The acceptance gate: ≥ 25 seeded random specs co-simulate to
/// cycle-by-cycle equivalence.
#[test]
fn cosim_random_specs_switch_vs_machine() {
    let n: u64 = std::env::var("BRISTLE_VERIFY_SPECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let mut failures = Vec::new();
    let mut total_checks = 0usize;
    let mut total_devices = 0usize;
    for i in 0..n {
        match run_seed(BASE_SEED + i) {
            Ok(stats) => {
                assert_eq!(stats.cycles, CYCLES);
                total_checks += stats.checks;
                total_devices += stats.transistors;
            }
            Err(msg) => failures.push(msg),
        }
    }
    if !failures.is_empty() {
        let text = failures.join("\n----\n");
        dump_failure("cosim_random_specs", &text);
        panic!("{} of {n} seeds failed:\n{text}", failures.len());
    }
    assert!(
        total_checks >= n as usize * CYCLES * 4,
        "suspiciously few checks: {total_checks}"
    );
    assert!(total_devices > 0);
}

/// Replay hook: run exactly one seed from the environment. Accepts the
/// seed exactly as failure reports print it (hex `0x…` or decimal).
#[test]
fn one_seed() {
    let Ok(seed) = std::env::var("BRISTLE_VERIFY_SEED") else {
        return; // nothing requested
    };
    let seed = seed
        .strip_prefix("0x")
        .map_or_else(|| seed.parse(), |h| u64::from_str_radix(h, 16))
        .expect("BRISTLE_VERIFY_SEED must be a u64 (decimal or 0x hex)");
    run_seed(seed).unwrap();
}

/// Extended sweep for the workflow_dispatch nightly-style CI job; `cargo
/// test --release --test differential -- --ignored` runs it.
#[test]
#[ignore = "long run; exercised by the extended CI workflow"]
fn cosim_extended_sweep() {
    let n: u64 = std::env::var("BRISTLE_VERIFY_SPECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut failures = Vec::new();
    for i in 0..n {
        if let Err(msg) = run_seed(BASE_SEED ^ (i.wrapping_mul(0x0101_0101_0101_0101))) {
            failures.push(msg);
        }
    }
    if !failures.is_empty() {
        let text = failures.join("\n----\n");
        dump_failure("cosim_extended_sweep", &text);
        panic!("{} of {n} seeds failed:\n{text}", failures.len());
    }
}

/// Regression for the pad-pass escape-lane collision: two inports and
/// two outports on one chip compile, check DRC-clean all the way to the
/// pad ring (per-port escape lanes spread 8λ apart), and co-simulate to
/// direct equality.
#[test]
fn two_inports_two_outports_drc_clean_and_cosim() {
    let spec = bristle_blocks::core::ChipSpec::builder("twoports")
        .data_width(4)
        .element("inport", &[])
        .element("outport", &[])
        .element("registers", &[("count", 2)])
        .element("inport", &[])
        .element("outport", &[])
        .build()
        .unwrap();
    let chip = bristle_blocks::core::Compiler::new()
        .compile(&spec)
        .expect("two ports of each kind must route");
    let report = bristle_blocks::drc::check_flat(
        &chip.lib,
        chip.top,
        &bristle_blocks::drc::RuleSet::mead_conway(),
    );
    assert!(report.is_clean(), "escape lanes must be DRC-clean:\n{report}");
    // Both inports genuinely drive: programs with either port asserted
    // must co-simulate (several seeds so multi-port write cycles occur).
    for seed in 0..6u64 {
        let program = Program::random(&spec, seed, CYCLES);
        assert!(
            program
                .cycles
                .iter()
                .any(|c| c.inports.len() == 2),
            "seed {seed}: no dual-drive cycle generated"
        );
        run_cosim(&spec, &program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// `Program` copies the generators' column-count defaults (`count` 2,
/// `words` 4, `depth` 4) for elements that leave them unset. Every storage
/// element here sets no params, so the program's sizes must equal the
/// columns the compiler generated, and the chip must co-simulate.
#[test]
fn program_defaults_match_generated_columns() {
    let spec = bristle_blocks::core::ChipSpec::builder("defaults")
        .data_width(4)
        .element("inport", &[])
        .element("registers", &[])
        .element("ram", &[])
        .element("stack", &[])
        .element("outport", &[])
        .build()
        .unwrap();
    let chip = bristle_blocks::core::Compiler::new().compile(&spec).unwrap();
    let columns = |prefix: &str| {
        chip.elements
            .iter()
            .find(|e| e.prefix == prefix)
            .map(|e| e.columns.len())
    };
    for seed in 0..6u64 {
        let program = Program::random(&spec, seed, CYCLES);
        let sizes: Vec<&(String, usize)> = program
            .reg_elements
            .iter()
            .chain(&program.rams)
            .chain(&program.stacks)
            .collect();
        assert_eq!(sizes.len(), 3);
        for (prefix, size) in sizes {
            assert_eq!(columns(prefix), Some(*size), "seed {seed}: {prefix}");
        }
        run_cosim(&spec, &program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// An injected open-circuit fault must be caught and shrink to a minimal
/// reproducer that still pinpoints the divergence.
#[test]
fn injected_fault_is_caught_and_shrunk() {
    // A deliberately rich spec: the shrinker has elements to throw away.
    let spec = bristle_blocks::core::ChipSpec::builder("faulty")
        .data_width(4)
        .element("inport", &[])
        .element("registers", &[("count", 2)])
        .element("shifter", &[])
        .element("alu", &[])
        .element("outport", &[])
        .build()
        .unwrap();
    // Open the bit-0 read pull-down of register 0: with the restoring
    // read path, reads of r0 stop asserting bit 0 low when the stored
    // bit is 0 (the bus bit floats at its precharge instead).
    let fault = Fault::DropGateDevice("_b0/rda0".into());
    // Find a seed whose program writes an even value into r0 and reads
    // it back — with write-heavy generation this happens fast.
    let mut caught = None;
    for seed in 0..20u64 {
        let program = Program::random(&spec, seed, CYCLES);
        match run_cosim_with(&spec, &program, Some(&fault)) {
            Err(CosimError::Diverged(d)) => {
                caught = Some((seed, d));
                break;
            }
            Ok(_) => {}
            Err(other) => panic!("fault run failed structurally: {other}"),
        }
    }
    let (seed, divergence) = caught.expect("no seed exposed the injected fault");
    assert_eq!(divergence.check, "phi1-bus");
    assert_eq!(divergence.signal, "busA");

    let repro = shrink(&spec, seed, CYCLES, Some(&fault), 80)
        .expect("shrinker must reproduce the divergence");
    // Keeping the accepted spec prepared between runs changes no shrink
    // decision, so the run count on this case is pinned exactly.
    assert_eq!(repro.runs, 23, "shrink run count moved: {repro}");
    // The reproducer is genuinely minimal-ish: fewer cycles than the
    // original program and the rider elements (shifter, ALU) dropped.
    // The outport may survive: dropping it reshuffles the program
    // stream, and the shrinker only accepts candidates that still
    // reproduce the divergence.
    assert!(repro.cycles <= divergence.cycle + 1);
    assert!(
        repro.spec.elements.len() <= 3,
        "shrink kept unrelated elements: {}",
        repro.spec
    );
    assert!(
        repro
            .spec
            .elements
            .iter()
            .all(|e| !matches!(e.kind.as_str(), "alu" | "shifter")),
        "shrink kept rider elements: {}",
        repro.spec
    );
    assert_eq!(repro.spec.data_width, 2, "width should shrink to 2");
    let text = repro.to_string();
    assert!(text.contains("seed="), "report must carry the seed: {text}");
    // And the reproducer replays: same divergence check fails again.
    let program = Program::random(&repro.spec, repro.seed, repro.skip + repro.cycles);
    let mut program = program;
    program.cycles.drain(..repro.skip);
    match run_cosim_with(&repro.spec, &program, Some(&fault)) {
        Err(CosimError::Diverged(d)) => assert_eq!(d.check, repro.divergence.check),
        other => panic!("minimal repro did not replay: {other:?}"),
    }
}

/// One `Prepared` runs many programs, each from power-on: every result,
/// passing or diverging, equals a fresh `run_cosim_with`, in either run
/// order, so no switch-level charge or machine pad leaks between runs.
#[test]
fn one_prepared_many_programs() {
    let spec = bristle_blocks::core::ChipSpec::builder("reused")
        .data_width(4)
        .element("inport", &[])
        .element("registers", &[("count", 2)])
        .element("ram", &[])
        .element("stack", &[])
        .element("outport", &[])
        .build()
        .unwrap();
    let fault = Fault::DropGateDevice("_b0/rda0".into());
    let programs: Vec<Program> = (0..6u64)
        .map(|seed| Program::random(&spec, seed, CYCLES))
        .collect();
    for fault in [None, Some(&fault)] {
        let prepared = Prepared::new(&spec, fault).unwrap();
        let fresh: Vec<String> = programs
            .iter()
            .map(|p| format!("{:?}", run_cosim_with(&spec, p, fault)))
            .collect();
        let diverged = fresh.iter().filter(|r| r.contains("Diverged")).count();
        if fault.is_some() {
            assert!(diverged > 0 && diverged < fresh.len(), "{fresh:#?}");
        } else {
            assert_eq!(diverged, 0, "{fresh:#?}");
        }
        for i in (0..programs.len()).chain((0..programs.len()).rev()) {
            let reused = format!("{:?}", prepared.run(&programs[i]));
            assert_eq!(reused, fresh[i], "program {i}, fault {fault:?}");
        }
    }
}

/// A long run on one soak-shaped chip: width 8, every element kind,
/// 300 cycles of one random program. The pinned seeds run 18-cycle
/// programs, so this is the case that re-drives every control column,
/// pad and clock net hundreds of times and reads every storage column
/// back after each re-drive. The stats are pinned exactly.
#[test]
fn long_run_soak_chip() {
    let spec = bristle_blocks::core::ChipSpec::builder("soak8")
        .data_width(8)
        .element("inport", &[])
        .element("registers", &[("count", 4)])
        .element("alu", &[])
        .element("shifter", &[])
        .element("ram", &[("words", 3)])
        .element("stack", &[("depth", 3)])
        .element("outport", &[])
        .build()
        .unwrap();
    let program = Program::random(&spec, BASE_SEED ^ 0x736F_616B, 300);
    let stats = run_cosim(&spec, &program).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        stats,
        CosimStats {
            cycles: 300,
            nets: 984,
            transistors: 776,
            checks: 5700,
        }
    );
}

/// Full-diversity robustness fuzz: every generated spec must compile,
/// extract with parseable stable terminal names, and step its machine.
#[test]
fn compile_fuzz_full_diversity_specs() {
    for i in 0..12u64 {
        let seed = BASE_SEED + 1000 + i;
        let spec = SpecGen::random_spec(&mut Rng::new(seed), &format!("fz{i}"));
        let chip = bristle_blocks::core::Compiler::new()
            .compile(&spec)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: compile failed: {e}\n{spec}"));
        // Every cell the compiler added to the library is part of the chip.
        let mut reached = std::collections::HashSet::from([chip.top]);
        let mut stack = vec![chip.top];
        while let Some(id) = stack.pop() {
            for inst in chip.lib.cell(id).instances() {
                if reached.insert(inst.cell) {
                    stack.push(inst.cell);
                }
            }
        }
        let orphans: Vec<&str> = chip
            .lib
            .iter()
            .filter(|(id, _)| !reached.contains(id))
            .map(|(_, cell)| cell.name())
            .collect();
        assert!(orphans.is_empty(), "seed {seed:#x}: cells unreachable from the top: {orphans:?}");
        let netlist = bristle_blocks::extract::extract(&chip.lib, chip.core_cell);
        assert!(!netlist.transistors.is_empty(), "seed {seed:#x}: no devices");
        // Terminal naming guarantee: every core terminal parses back to
        // (element, column, bit, local) and bus rows are continuous.
        let mut parsed = 0usize;
        for (name, _) in &netlist.terminals {
            if bristle_blocks::sim::parse_terminal(name).is_some() {
                parsed += 1;
            }
        }
        assert!(
            parsed * 10 >= netlist.terminals.len() * 9,
            "seed {seed:#x}: only {parsed}/{} terminals parse",
            netlist.terminals.len()
        );
        bristle_blocks::sim::NetlistBridge::new(&netlist, spec.data_width)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: bridge: {e}"));
        let mut machine = chip.simulation().unwrap();
        machine.step_word(0).unwrap();
        let drc = bristle_blocks::drc::check_flat(
            &chip.lib,
            chip.top,
            &bristle_blocks::drc::RuleSet::mead_conway(),
        );
        assert!(
            drc.is_clean(),
            "seed {seed:#x}: top cell not DRC-clean: {drc}\n{spec}"
        );
    }
}

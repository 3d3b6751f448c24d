//! The traced replay of one differential verdict.
//!
//! `run_cosim` is one public call, so tracing it from outside shows
//! nothing of where its time goes. The replay makes the same public
//! calls `run_cosim` makes, in the same order, with a span around each:
//! compile, extract, `CompiledChip::simulation`, `NetlistBridge::new`,
//! then per cycle the pad and control drives, `settle`, the reads and
//! `Machine::step_word`. The runner checks on every case that the
//! replay's `CosimStats` equal `run_cosim`'s, so this copy of the driver
//! loop cannot drift from the real one unnoticed. Only the direct
//! (restoring-read) relation is replayed; the benchmark's specs never
//! set the legacy flag.

use bristle_cell::{ControlLine, Flavor, Phase};
use bristle_core::{ChipSpec, CompiledChip, Compiler};
use bristle_extract::extract;
use bristle_sim::{Level, NetlistBridge};
use bristle_verify::{CosimStats, Program};

use crate::trace::Tracer;

/// The control bindings `run_cosim` drives: per element, the distinct
/// (local name, decode) pairs of its column cells' control bristles.
fn element_controls(chip: &CompiledChip) -> Vec<(String, Vec<(String, ControlLine)>)> {
    let mut out = Vec::new();
    for e in &chip.elements {
        let mut refs: Vec<(String, ControlLine)> = Vec::new();
        for &col in &e.columns {
            for b in chip.lib.cell(col).bristles() {
                if let Flavor::Control(line) = &b.flavor {
                    if !refs.iter().any(|(n, _)| *n == b.name) {
                        refs.push((b.name.clone(), line.clone()));
                    }
                }
            }
        }
        out.push((e.prefix.clone(), refs));
    }
    out
}

fn mismatch(cycle: usize, what: &str, want: u64, got: impl std::fmt::Debug) -> String {
    format!("replay diverged at cycle {cycle}: {what}: expected {want:#x}, got {got:?}")
}

/// Drives every control of `controls` for one phase of `word`.
fn drive_controls(
    bridge: &mut NetlistBridge<'_>,
    machine: &bristle_sim::Machine,
    controls: &[(String, Vec<(String, ControlLine)>)],
    word: u64,
    phase: Phase,
) -> Result<(), String> {
    for (prefix, refs) in controls {
        for (local, line) in refs {
            let field = machine
                .microcode()
                .extract(word, &line.field)
                .map_err(|e| e.to_string())?;
            let on = line.phase == phase && line.active.eval(field);
            bridge
                .drive_group(prefix, local, Level::from_bool(on))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Replays `run_cosim(spec, program)` under spans.
pub fn replay(spec: &ChipSpec, program: &Program, tr: &mut Tracer) -> Result<CosimStats, String> {
    let chip = tr
        .span("core", "core.compile_ms", || Compiler::new().compile(spec))
        .map_err(|e| e.to_string())?;
    crate::workloads::record_compile(&chip, tr);
    let netlist = tr.span("extract", "extract.core_ms", || {
        extract(&chip.lib, chip.core_cell)
    });
    tr.add("extract.core_nets", netlist.net_count() as f64);
    tr.add("extract.core_devices", netlist.transistors.len() as f64);
    let mut machine = tr
        .span("sim", "sim.machine_ms", || chip.simulation())
        .map_err(|e| e.to_string())?;
    let controls = element_controls(&chip);
    let mut bridge = tr
        .span("sim", "sim.bridge_ms", || {
            NetlistBridge::new(&netlist, spec.data_width)
        })
        .map_err(|e| e.to_string())?;
    let mask = if spec.data_width == 64 {
        u64::MAX
    } else {
        (1u64 << spec.data_width) - 1
    };

    // Power-on, as in `run_cosim`: storage low, controls and pads low,
    // one φ2 to precharge.
    let id = tr.start("sim", "sim.drive_ms");
    bridge.sim.preset_all(Level::L0);
    for (prefix, refs) in &controls {
        for (local, _) in refs {
            bridge
                .drive_group(prefix, local, Level::L0)
                .map_err(|e| e.to_string())?;
        }
    }
    for p in &program.inports {
        bridge
            .drive_word(p, "pad_in", 0)
            .map_err(|e| e.to_string())?;
        machine.set_pad(format!("{p}_pad"), 0);
    }
    bridge.drive_clocks("phi1", Level::L0);
    bridge.drive_clocks("phi2", Level::L1);
    tr.end(id);
    tr.span("sim", "sim.settle_ms", || bridge.settle())
        .map_err(|e| e.to_string())?;

    let mut checks = 0usize;
    for (ci, cycle) in program.cycles.iter().enumerate() {
        let word = tr
            .span("verify", "verify.encode_ms", || {
                program.encode_cycle(machine.microcode(), cycle)
            })
            .map_err(|e| e.to_string())?;

        // φ1: pads, decode-asserted controls up, clocks swap.
        let id = tr.start("sim", "sim.drive_ms");
        for p in &program.inports {
            let pad = cycle.inports.get(p).copied().unwrap_or(0);
            bridge
                .drive_word(p, "pad_in", pad)
                .map_err(|e| e.to_string())?;
            machine.set_pad(format!("{p}_pad"), pad);
        }
        bridge.drive_clocks("phi2", Level::L0);
        bridge.drive_clocks("phi1", Level::L1);
        drive_controls(&mut bridge, &machine, &controls, word, Phase::Phi1)?;
        tr.end(id);
        tr.span("sim", "sim.settle_ms", || bridge.settle())
            .map_err(|e| e.to_string())?;
        let (phys_a, phys_b) = tr.span("sim", "sim.read_ms", || {
            (bridge.read_bus(0), bridge.read_bus(1))
        });

        let mach = tr
            .span("sim", "sim.step_word_ms", || machine.step_word(word))
            .map_err(|e| e.to_string())?;
        if phys_a != Ok(mach[0]) {
            return Err(mismatch(ci, "phi1 busA", mach[0], phys_a));
        }
        if phys_b != Ok(mach[1]) {
            return Err(mismatch(ci, "phi1 busB", mach[1], phys_b));
        }
        checks += 2;

        // φ2: φ2-phase decodes only, clocks swap, settle.
        let id = tr.start("sim", "sim.drive_ms");
        drive_controls(&mut bridge, &machine, &controls, word, Phase::Phi2)?;
        bridge.drive_clocks("phi1", Level::L0);
        bridge.drive_clocks("phi2", Level::L1);
        tr.end(id);
        tr.span("sim", "sim.settle_ms", || bridge.settle())
            .map_err(|e| e.to_string())?;

        let id = tr.start("sim", "sim.read_ms");
        for bus in 0..2 {
            let got = bridge.read_bus(bus);
            if got != Ok(mask) {
                return Err(mismatch(ci, "phi2 precharge", mask, got));
            }
            checks += 1;
        }
        for (eidx, e) in spec.elements.iter().enumerate() {
            let prefix = format!("e{eidx}_{}", e.kind);
            let (plates, key, default): (&[&str], &str, i64) = match e.kind.as_str() {
                "registers" => (&["storeA", "storeB"], "count", 2),
                "ram" => (&["cell"], "words", 4),
                "stack" => (&["level"], "depth", 4),
                _ => continue,
            };
            let state = match e.kind.as_str() {
                "registers" => "r",
                "ram" => "m",
                _ => "s",
            };
            let n = e.params.get(key).copied().unwrap_or(default) as usize;
            for k in 0..n {
                let want = machine
                    .peek(&prefix, &format!("{state}{k}"))
                    .map_err(|e| e.to_string())?;
                for plate in plates {
                    let got = bridge.read_column_word(&prefix, plate, k as u32);
                    if got != Ok(want) {
                        return Err(mismatch(ci, plate, want, got));
                    }
                    checks += 1;
                }
            }
        }
        for p in &program.outports {
            let Some(want) = machine.pad(&format!("{p}_pad")) else {
                continue;
            };
            let got = bridge.read_word(p, "pad_out");
            if got != Ok(want) {
                return Err(mismatch(ci, "pad_out", want, got));
            }
            checks += 1;
        }
        tr.end(id);
    }

    Ok(CosimStats {
        cycles: program.cycles.len(),
        nets: netlist.net_count(),
        transistors: netlist.transistors.len(),
        checks,
    })
}

//! The differential co-simulation driver.
//!
//! For one (spec, program) pair the driver:
//!
//! 1. compiles the spec through the full pipeline and extracts the
//!    datapath core's transistor netlist,
//! 2. builds the functional [`Machine`] (the SIMULATION representation)
//!    and a [`NetlistBridge`] over the extracted netlist,
//! 3. steps both, cycle by cycle, through the program's microcode
//!    words: the machine via [`Machine::step_word`], the silicon by
//!    driving the decoded control columns and the φ1/φ2 clock columns
//!    and settling the switch-level network once per phase,
//! 4. asserts, every cycle: **direct bus equality** — the settled φ1
//!    buses equal the machine's buses bit for bit (the restoring read
//!    path asserts stored words, so no inverting abstraction is
//!    needed) — both buses precharge back to all-ones (φ2), every
//!    register's `storeA`/`storeB` plates, every RAM word's `cell`
//!    plates and every stack level's `level` plates equal the machine's
//!    state, and output-port pad words equal the machine's pads.
//!
//! The silicon is initialized with an explicit power-on preset
//! (all nodes low) so dynamic storage starts equal to the machine's
//! all-zero registers; see [`bristle_sim::SwitchSim::preset_all`].

use std::fmt;

use bristle_cell::{ControlLine, Phase};
use bristle_core::{ChipSpec, CompileError, Compiler};
use bristle_extract::extract;
use bristle_sim::{BridgeError, Level, Microcode, NetlistBridge, SimError};

use crate::fault::Fault;
use crate::program::Program;

/// Where and how the two simulations disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based cycle index.
    pub cycle: usize,
    /// Which check failed (`"phi1-busA"`, `"phi2-precharge-busB"`,
    /// `"storeA"`, `"pad_out"`, …).
    pub check: String,
    /// The signal involved (element prefix or bus name).
    pub signal: String,
    /// The value the functional side predicts.
    pub expected: u64,
    /// What the silicon produced (`"X@bit<k>"` for non-binary reads).
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} of `{}`: expected {:#x}, silicon read {}",
            self.cycle, self.check, self.signal, self.expected, self.got
        )
    }
}

/// Summary of a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimStats {
    /// Cycles executed.
    pub cycles: usize,
    /// Nets in the extracted core netlist.
    pub nets: usize,
    /// Transistors simulated.
    pub transistors: usize,
    /// Individual equivalence checks performed.
    pub checks: usize,
}

/// Why a run could not complete or did not agree.
#[derive(Debug)]
pub enum CosimError {
    /// The compiler rejected the spec (a generator/compiler bug).
    Compile(CompileError),
    /// The machine could not be assembled or stepped.
    Sim(SimError),
    /// Bridge construction or switch-level simulation failed.
    Bridge(BridgeError),
    /// The two simulations disagreed.
    Diverged(Divergence),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Compile(e) => write!(f, "compile: {e}"),
            CosimError::Sim(e) => write!(f, "machine: {e}"),
            CosimError::Bridge(e) => write!(f, "bridge: {e}"),
            CosimError::Diverged(d) => write!(f, "diverged: {d}"),
        }
    }
}

impl std::error::Error for CosimError {}

impl From<CompileError> for CosimError {
    fn from(e: CompileError) -> CosimError {
        CosimError::Compile(e)
    }
}
impl From<SimError> for CosimError {
    fn from(e: SimError) -> CosimError {
        CosimError::Sim(e)
    }
}
impl From<BridgeError> for CosimError {
    fn from(e: BridgeError) -> CosimError {
        CosimError::Bridge(e)
    }
}

/// Drives every decoded control column for one clock phase of `word`: a
/// line of that phase follows its decode, every other line goes low.
fn drive_controls(
    bridge: &mut NetlistBridge<'_>,
    mc: &Microcode,
    controls: &[(&str, Vec<(&str, ControlLine)>)],
    word: u64,
    phase: Phase,
) -> Result<(), CosimError> {
    for (prefix, refs) in controls {
        for (local, line) in refs {
            let field = mc.extract(word, &line.field).map_err(SimError::Microcode)?;
            let on = line.phase == phase && line.active.eval(field);
            bridge.drive_group(prefix, local, Level::from_bool(on))?;
        }
    }
    Ok(())
}

/// Runs the differential co-simulation; equivalent to
/// [`run_cosim_with`] without a fault.
///
/// # Errors
///
/// See [`CosimError`].
pub fn run_cosim(spec: &ChipSpec, program: &Program) -> Result<CosimStats, CosimError> {
    run_cosim_with(spec, program, None)
}

/// Runs the differential co-simulation, optionally injecting a netlist
/// fault after extraction.
///
/// # Errors
///
/// See [`CosimError`]; an injected fault is expected to surface as
/// [`CosimError::Diverged`].
pub fn run_cosim_with(
    spec: &ChipSpec,
    program: &Program,
    fault: Option<&Fault>,
) -> Result<CosimStats, CosimError> {
    let chip = Compiler::new().compile(spec)?;
    let mut netlist = extract(&chip.lib, chip.core_cell);
    if let Some(f) = fault {
        f.apply(&mut netlist);
    }
    let mut machine = chip.simulation()?;
    // Per element prefix, the control bindings the decoder drives.
    let controls: Vec<_> = chip
        .elements
        .iter()
        .map(|e| (e.prefix.as_str(), chip.element_controls(e)))
        .collect();
    let mut bridge = NetlistBridge::new(&netlist, spec.data_width)?;
    let mask = if spec.data_width == 64 {
        u64::MAX
    } else {
        (1u64 << spec.data_width) - 1
    };

    // Power-on: all storage low (matching the machine's zeroed registers),
    // every decoder column and pad driven low, then one φ2 to precharge.
    bridge.sim.preset_all(Level::L0);
    for (prefix, refs) in &controls {
        for (local, _) in refs {
            // Controls may be missing from the netlist only if a cell has
            // no geometry for them — that would itself be a bug, so fail.
            bridge.drive_group(prefix, local, Level::L0)?;
        }
    }
    for p in &program.inports {
        bridge.drive_word(p, "pad_in", 0)?;
        machine.set_pad(format!("{p}_pad"), 0);
    }
    bridge.drive_clocks("phi1", Level::L0);
    bridge.drive_clocks("phi2", Level::L1);
    bridge.settle()?;

    let mut checks = 0usize;
    for (ci, cycle) in program.cycles.iter().enumerate() {
        let word = program
            .encode_cycle(machine.microcode(), cycle)
            .map_err(SimError::Microcode)?;
        let diverge = |check: &str, signal: &str, expected: u64, got: &Result<u64, BridgeError>| {
            CosimError::Diverged(Divergence {
                cycle: ci,
                check: check.to_owned(),
                signal: signal.to_owned(),
                expected,
                got: match got {
                    Ok(v) => format!("{v:#x}"),
                    Err(e) => format!("({e})"),
                },
            })
        };

        // Pads for this cycle (undriven ports idle at 0; their `drv`
        // stays off, so the value never reaches the bus).
        for p in &program.inports {
            let pad = cycle.inports.get(p).copied().unwrap_or(0);
            bridge.drive_word(p, "pad_in", pad)?;
            machine.set_pad(format!("{p}_pad"), pad);
        }

        // φ1: decode-asserted controls up, φ2 clocks down, settle.
        bridge.drive_clocks("phi2", Level::L0);
        bridge.drive_clocks("phi1", Level::L1);
        drive_controls(
            &mut bridge,
            machine.microcode(),
            &controls,
            word,
            Phase::Phi1,
        )?;
        bridge.settle()?;

        let phys_a = bridge.read_bus(0);
        let phys_b = bridge.read_bus(1);

        // Step the functional machine (its step covers φ1 + φ2).
        let mach_buses = machine.step_word(word)?;

        // Direct bus equality: the restoring read path asserts stored
        // words, so silicon and machine buses must agree bit for bit on
        // every cycle — reads, writes and idles alike.
        if phys_a != Ok(mach_buses[0]) {
            return Err(diverge("phi1-bus", "busA", mach_buses[0], &phys_a));
        }
        if phys_b != Ok(mach_buses[1]) {
            return Err(diverge("phi1-bus", "busB", mach_buses[1], &phys_b));
        }
        checks += 2;

        // φ2: controls down except φ2-phase decodes, clocks swap, settle.
        drive_controls(
            &mut bridge,
            machine.microcode(),
            &controls,
            word,
            Phase::Phi2,
        )?;
        bridge.drive_clocks("phi1", Level::L0);
        bridge.drive_clocks("phi2", Level::L1);
        bridge.settle()?;

        // Precharge restored on both buses.
        for (bus, name) in [(0usize, "busA"), (1, "busB")] {
            let got = bridge.read_bus(bus);
            if got != Ok(mask) {
                return Err(diverge("phi2-precharge", name, mask, &got));
            }
            checks += 1;
        }

        // Storage equivalence: every register's plates equal the
        // machine's registers (both plates are written from bus A), and
        // RAM words and stack levels co-simulate actively — their plates
        // must match too. Each register, word or level is one column.
        for e in &chip.elements {
            let prefix = e.prefix.as_str();
            let n = e.columns.len() as u32;
            match e.kind.as_str() {
                "registers" => {
                    for r in 0..n {
                        let want = machine.peek(prefix, &format!("r{r}"))?;
                        for plate in ["storeA", "storeB"] {
                            let got = bridge.read_column_word(prefix, plate, r);
                            if got != Ok(want) {
                                return Err(diverge(plate, prefix, want, &got));
                            }
                            checks += 1;
                        }
                    }
                }
                "ram" => {
                    for w in 0..n {
                        let want = machine.peek(prefix, &format!("m{w}"))?;
                        let got = bridge.read_column_word(prefix, "cell", w);
                        if got != Ok(want) {
                            return Err(diverge("ram-cell", prefix, want, &got));
                        }
                        checks += 1;
                    }
                }
                "stack" => {
                    for l in 0..n {
                        let want = machine.peek(prefix, &format!("s{l}"))?;
                        let got = bridge.read_column_word(prefix, "level", l);
                        if got != Ok(want) {
                            return Err(diverge("stack-level", prefix, want, &got));
                        }
                        checks += 1;
                    }
                }
                _ => {}
            }
        }

        // Pad equivalence: output-port pad wires match machine pads.
        for p in &program.outports {
            let Some(want) = machine.pad(&format!("{p}_pad")) else {
                continue;
            };
            let got = bridge.read_word(p, "pad_out");
            if got != Ok(want) {
                return Err(diverge("pad_out", p, want, &got));
            }
            checks += 1;
        }
    }

    Ok(CosimStats {
        cycles: program.cycles.len(),
        nets: netlist.net_count(),
        transistors: netlist.transistors.len(),
        checks,
    })
}

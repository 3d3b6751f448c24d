//! The differential co-simulation driver.
//!
//! A verdict is prepared once per (spec, fault) and run per program:
//!
//! 1. [`Prepared::new`] compiles the spec through the full pipeline,
//!    extracts the datapath core's transistor netlist and applies the
//!    fault, if any. It then drops the library's flatten cache: runs
//!    read only the cells.
//! 2. [`Prepared::run`] builds a fresh functional [`Machine`] (the
//!    SIMULATION representation) and a [`NetlistBridge`] over the
//!    netlist, and binds the whole relation before cycle 0: each decoded
//!    control column, each storage column's plates with its machine key
//!    (`r3`, `m0`, …) and check label, and each input and output pad,
//!    resolved once to `(bit, net)` slices by [`NetlistBridge::nets`].
//! 3. It steps both, cycle by cycle, through the program's microcode
//!    words: the machine via [`Machine::step_word`], the silicon by
//!    driving the decoded control columns and the φ1/φ2 clock columns
//!    and settling the switch-level network once per phase. The loop
//!    drives and reads only through [`NetlistBridge::drive`] and
//!    [`NetlistBridge::read`] on the bound slices, and formats text
//!    only on a divergence.
//! 4. It asserts, every cycle: **direct bus equality** — the settled φ1
//!    buses equal the machine's buses bit for bit (the restoring read
//!    path asserts stored words, so no inverting abstraction is
//!    needed) — both buses precharge back to all-ones (φ2), every
//!    register's `storeA`/`storeB` plates, every RAM word's `cell`
//!    plates and every stack level's `level` plates equal the machine's
//!    state, and output-port pad words equal the machine's pads.
//!
//! Every run starts from power-on: the silicon is initialized with an
//! explicit preset (all nodes low) so dynamic storage starts equal to
//! the machine's all-zero registers (see
//! [`bristle_sim::SwitchSim::preset_all`]), and the machine is built
//! afresh. One [`Prepared`] therefore runs any number of programs
//! independently; [`run_cosim_with`] is `Prepared::new(..)?.run(..)`.
//! A signal group the relation needs but the netlist lacks fails before
//! cycle 0 as [`CosimError::Bridge`].
//!
//! [`Machine`]: bristle_sim::Machine
//! [`Machine::step_word`]: bristle_sim::Machine::step_word

use std::fmt;

use bristle_cell::Phase;
use bristle_core::{ChipSpec, CompileError, CompiledChip, Compiler};
use bristle_extract::{extract, Netlist};
use bristle_sim::behaviors::storage_by_key;
use bristle_sim::BridgeError::{self, XLevel};
use bristle_sim::{Level, NetlistBridge, SimError};

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

/// A compiled, extracted and (optionally) faulted chip, ready to run any
/// number of programs. Each [`Prepared::run`] starts from power-on, so
/// runs never see one another's state.
pub struct Prepared {
    chip: CompiledChip,
    netlist: Netlist,
}

impl Prepared {
    /// Compiles `spec`, extracts the core netlist and applies `fault`.
    ///
    /// # Errors
    ///
    /// [`CosimError::Compile`] if the compiler rejects the spec.
    pub fn new(spec: &ChipSpec, fault: Option<&Fault>) -> Result<Prepared, CosimError> {
        let chip = Compiler::new().compile(spec)?;
        let mut netlist = extract(&chip.lib, chip.core_cell);
        if let Some(f) = fault {
            f.apply(&mut netlist);
        }
        // Runs read only the cells; the flattened geometry would sit idle.
        chip.lib.clear_flat_cache();
        Ok(Prepared { chip, netlist })
    }

    /// The compiled chip; its `spec` is the one this was prepared from.
    #[must_use]
    pub fn chip(&self) -> &CompiledChip {
        &self.chip
    }

    /// Runs the differential co-simulation of `program` from power-on.
    ///
    /// # Errors
    ///
    /// See [`CosimError`]; an injected fault is expected to surface as
    /// [`CosimError::Diverged`].
    pub fn run(&self, program: &Program) -> Result<CosimStats, CosimError> {
        let chip = &self.chip;
        let mut machine = chip.simulation()?;
        let mut bridge = NetlistBridge::new(&self.netlist, chip.spec.data_width)?;
        let mask = u64::MAX >> (64 - chip.spec.data_width);

        // The relation, bound once: per decoded control column its nets
        // and decode; per storage column (every register, RAM word and
        // stack level) its machine key and, per plate, the check label,
        // the signal a non-binary read names and the nets; per pad its
        // machine key, that signal and the nets.
        let mut controls = Vec::new();
        let mut storage = Vec::new();
        for e in &chip.elements {
            let prefix = e.prefix.as_str();
            for (local, line) in chip.element_controls(e) {
                controls.push((bridge.nets(prefix, local, None)?, line));
            }
            // The key that built the element's model picks its plates.
            let Some(words) = chip.behavior_key(e).and_then(storage_by_key) else {
                continue;
            };
            for column in 0..e.columns.len() as u32 {
                let mut bound = Vec::new();
                for &(plate, check) in words.plates {
                    let signal = format!("{prefix}/{plate}[c{column}]");
                    bound.push((check, signal, bridge.nets(prefix, plate, Some(column))?));
                }
                storage.push((prefix, format!("{}{column}", words.letter), bound));
            }
        }
        let mut pads = [Vec::new(), Vec::new()];
        for (i, ports, local) in [
            (0, &program.inports, "pad_in"),
            (1, &program.outports, "pad_out"),
        ] {
            for p in ports {
                let nets = bridge.nets(p, local, None)?;
                pads[i].push((p.as_str(), format!("{p}_pad"), format!("{p}/{local}"), nets));
            }
        }
        let [inports, outports] = pads;

        // Power-on: all storage low (matching the machine's zeroed registers),
        // every decoder column and pad driven low, then one φ2 to precharge.
        bridge.sim.preset_all(Level::L0);
        for (nets, _) in &controls {
            bridge.drive(nets, 0);
        }
        for (_, key, _, nets) in &inports {
            bridge.drive(nets, 0);
            machine.set_pad(key.as_str(), 0);
        }
        bridge.drive_clocks("phi1", Level::L0);
        bridge.drive_clocks("phi2", Level::L1);
        bridge.settle()?;

        // A word read of bound nets; a non-binary bit names `signal`.
        let read = |bridge: &NetlistBridge<'_>, nets, signal: &String| {
            bridge.read(nets).map_err(|bit| XLevel {
                signal: signal.clone(),
                bit,
            })
        };
        let mut checks = 0usize;
        for (ci, cycle) in program.cycles.iter().enumerate() {
            let word = program
                .encode_cycle(machine.microcode(), cycle)
                .map_err(SimError::Microcode)?;
            let diverge = |check: &str, signal: &str, expected: u64, got: Result<u64, _>| {
                CosimError::Diverged(Divergence {
                    cycle: ci,
                    check: check.to_owned(),
                    signal: signal.to_owned(),
                    expected,
                    got: got.map_or_else(|e: BridgeError| format!("({e})"), |v| format!("{v:#x}")),
                })
            };
            // One phase of the decoder: a line of that phase follows its
            // decode, every other line goes low.
            let decode = |bridge: &mut NetlistBridge<'_>, phase| -> Result<(), SimError> {
                for (nets, line) in &controls {
                    let on = line.phase == phase && chip.microcode.asserted(word, line)?;
                    bridge.drive(nets, if on { u64::MAX } else { 0 });
                }
                Ok(())
            };

            // Pads for this cycle (undriven ports idle at 0; their `drv`
            // stays off, so the value never reaches the bus).
            for (p, key, _, nets) in &inports {
                let pad = cycle.inports.get(*p).copied().unwrap_or(0);
                bridge.drive(nets, pad);
                machine.set_pad(key.as_str(), pad);
            }

            // φ1: decode-asserted controls up, φ2 clocks down, settle.
            bridge.drive_clocks("phi2", Level::L0);
            bridge.drive_clocks("phi1", Level::L1);
            decode(&mut bridge, Phase::Phi1)?;
            bridge.settle()?;
            let phys = [bridge.read_bus(0), bridge.read_bus(1)];

            // Step the functional machine (its step covers φ1 + φ2).
            let mach_buses = machine.step_word(word)?;

            // Direct bus equality: the restoring read path asserts stored
            // words, so silicon and machine buses must agree bit for bit on
            // every cycle — reads, writes and idles alike.
            for ((got, want), name) in phys.into_iter().zip(mach_buses).zip(["busA", "busB"]) {
                if got != Ok(want) {
                    return Err(diverge("phi1-bus", name, want, got));
                }
            }
            checks += 2;

            // φ2: controls down except φ2-phase decodes, clocks swap, settle.
            decode(&mut bridge, Phase::Phi2)?;
            bridge.drive_clocks("phi1", Level::L0);
            bridge.drive_clocks("phi2", Level::L1);
            bridge.settle()?;

            // Precharge restored on both buses.
            for (bus, name) in [(0usize, "busA"), (1, "busB")] {
                let got = bridge.read_bus(bus);
                if got != Ok(mask) {
                    return Err(diverge("phi2-precharge", name, mask, got));
                }
                checks += 1;
            }

            // Storage equivalence.
            for (prefix, key, plates) in &storage {
                let want = machine.peek(prefix, key)?;
                for (check, signal, nets) in plates {
                    let got = read(&bridge, nets, signal);
                    if got != Ok(want) {
                        return Err(diverge(check, prefix, want, got));
                    }
                    checks += 1;
                }
            }

            // Pad equivalence: output-port pad wires match machine pads.
            for (p, key, signal, nets) in &outports {
                let Some(want) = machine.pad(key) else {
                    continue;
                };
                let got = read(&bridge, nets, signal);
                if got != Ok(want) {
                    return Err(diverge("pad_out", p, want, got));
                }
                checks += 1;
            }
        }

        Ok(CosimStats {
            cycles: program.cycles.len(),
            nets: self.netlist.net_count(),
            transistors: self.netlist.transistors.len(),
            checks,
        })
    }
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
/// fault after extraction: `Prepared::new(spec, fault)?.run(program)`.
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
    Prepared::new(spec, fault)?.run(program)
}

//! # bristle-sim
//!
//! The two simulators behind the paper's SIMULATION representation:
//!
//! * [`SwitchSim`] — a switch-level simulator over extracted transistor
//!   netlists, with ternary levels, drive strengths, nMOS threshold
//!   drops, charge storage and ratioed pull-ups. This validates leaf
//!   cells against their logic models and exercises the two-phase,
//!   precharged-bus discipline at the electrical level.
//! * [`Machine`] — a functional microcode-level simulator of a compiled
//!   chip: two precharged buses, datapath element behaviors, and the
//!   φ1/φ2 non-overlapping clock, *"so that software can be written for
//!   the chip to explore the feasibility of the design"*.
//!
//! [`Microcode`] describes the instruction word format (the first section
//! of the user's chip description) and is shared with the compiler.
//!
//! [`NetlistBridge`] is the adapter between the two worlds: it maps
//! extracted terminal names (`{element}_c{col}_b{bit}/{signal}`) onto
//! machine-level signal groups — per-bit bus nets, decoder-driven control
//! columns, clock columns, storage-plate probes and pad wires — so the
//! differential test suite can co-simulate compiled silicon against the
//! functional model cycle by cycle. A harness resolves each group once
//! with [`NetlistBridge::nets`] to `(bit, net)` pairs and then drives and
//! reads words through [`NetlistBridge::drive`] and
//! [`NetlistBridge::read`]; the by-name methods wrap those three.
//!
//! # Examples
//!
//! Functional simulation of a register + ALU datapath:
//!
//! ```
//! use bristle_sim::{Machine, Microcode, behaviors};
//! use bristle_cell::{ActiveWhen, ControlLine, Phase};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mc = Microcode::new();
//! mc.add_field("rd", 2)?;   // value 1: reg0 -> busA; 2: reg1 -> busA
//! mc.add_field("ld", 2)?;   // value 1: busA -> reg0; 2: busA -> reg1
//! let mut machine = Machine::new(8, mc);
//! let reg = behaviors::by_key("registers", "regs", 2).unwrap();
//! machine.add_element(reg, &[
//!     ("rda0", ControlLine { field: "rd".into(), active: ActiveWhen::Equals(1), phase: Phase::Phi1 }),
//!     ("rda1", ControlLine { field: "rd".into(), active: ActiveWhen::Equals(2), phase: Phase::Phi1 }),
//!     ("ld0",  ControlLine { field: "ld".into(), active: ActiveWhen::Equals(1), phase: Phase::Phi1 }),
//!     ("ld1",  ControlLine { field: "ld".into(), active: ActiveWhen::Equals(2), phase: Phase::Phi1 }),
//! ])?;
//! machine.poke("regs", "r0", 42)?;
//! // Copy r0 -> r1 in one cycle: rd=1, ld=2.
//! let word = machine.microcode().encode(&[("rd", 1), ("ld", 2)])?;
//! machine.step_word(word)?;
//! assert_eq!(machine.peek("regs", "r1")?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;
mod bridge;
mod machine;
mod microcode;
mod switch;

pub use bridge::{parse_terminal, BridgeError, NetlistBridge};
pub use machine::{ElementCtx, Behavior, Machine, SimError};
pub use microcode::{Microcode, MicrocodeError, MicrocodeField};
pub use switch::{Level, SwitchError, SwitchSim};

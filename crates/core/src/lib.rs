//! # bristle-core
//!
//! The Bristle Blocks silicon compiler: *"produce an entire LSI mask set
//! from a single page, high level description of the integrated
//! circuit"*.
//!
//! * [`ChipSpec`] — the paper's three-section user input: microcode
//!   fields, data width + buses, and the ordered element list.
//! * [`Compiler`] — the three passes: Pass 1 lays out the core
//!   (the interface-standard vote that resolves the pitch, stretching,
//!   bus precharge),
//!   Pass 2 generates the instruction decoder (text array → two-tape
//!   Turing machine → optimized PLA → control channel), Pass 3 places
//!   pads (clockwise sort → Roto-Router → wires).
//! * [`CompiledChip`] — the result, able to emit all seven
//!   representations: LAYOUT (CIF/SVG), STICKS, TRANSISTORS, LOGIC,
//!   TEXT, SIMULATION (a runnable [`bristle_sim::Machine`]) and BLOCK.
//!
//! # Examples
//!
//! ```
//! use bristle_core::{ChipSpec, Compiler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ChipSpec::builder("demo")
//!     .data_width(4)
//!     .element("registers", &[("count", 2)])
//!     .element("alu", &[])
//!     .build()?;
//! let chip = Compiler::new().compile(&spec)?;
//! assert!(chip.die_area() > 0);
//! let machine = chip.simulation()?;
//! assert_eq!(machine.width(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod parse;
mod reprs;
mod spec;

pub use compile::{CompileError, CompiledChip, Compiler, ElementInfo, PassTimings};
pub use parse::{parse_page, ParsePageError};
pub use spec::{ChipSpec, ChipSpecBuilder, ElementSpec, SpecError};

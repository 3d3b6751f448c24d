//! # Bristle Blocks
//!
//! A Rust reproduction of *Bristle Blocks: A Silicon Compiler*
//! (Dave Johannsen, Caltech, DAC 1979) — the first silicon compiler.
//!
//! Bristle Blocks turns a single-page, high-level description of an LSI
//! chip (microcode word format, data word width, bus list, and an ordered
//! list of datapath elements) into a complete nMOS mask set plus six other
//! coupled representations: sticks, transistors, logic, text, simulation
//! and block diagrams.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — integer-λ Manhattan geometry and the nMOS layer set,
//! * [`cell`] — procedural stretchable cells with *bristle* connection points,
//! * [`cif`] — CIF 2.0 mask output and SVG rendering,
//! * [`drc`] — Mead–Conway λ design rules on flattened, indexed artwork,
//! * [`extract`] — transistor netlist extraction,
//! * [`sim`] — switch-level and functional microcode simulators,
//! * [`pla`] — instruction-decoder generation (text array → two-tape
//!   Turing machine → optimized PLA),
//! * [`route`] — the Roto-Router pad placer and perimeter wire router,
//! * [`stdcells`] — the procedural low-level cell library,
//! * [`core`] — the three-pass compiler and the seven representations,
//! * [`verify`] — differential verification: random specs co-simulated
//!   switch-level (extracted silicon) vs the functional machine.
//!
//! # Quickstart
//!
//! ```
//! use bristle_blocks::core::{ChipSpec, Compiler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ChipSpec::builder("demo")
//!     .data_width(4)
//!     .microcode_field("op", 2)
//!     .bus("A")
//!     .bus("B")
//!     .element("registers", &[("count", 2)])
//!     .element("alu", &[])
//!     .build()?;
//! let chip = Compiler::new().compile(&spec)?;
//! assert!(chip.die_area() > 0);
//! # Ok(())
//! # }
//! ```

pub use bristle_cell as cell;
pub use bristle_cif as cif;
pub use bristle_core as core;
pub use bristle_drc as drc;
pub use bristle_extract as extract;
pub use bristle_geom as geom;
pub use bristle_pla as pla;
pub use bristle_route as route;
pub use bristle_sim as sim;
pub use bristle_stdcells as stdcells;
pub use bristle_verify as verify;

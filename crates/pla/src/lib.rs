//! # bristle-pla
//!
//! The instruction-decoder generator: Pass 2 of the Bristle Blocks
//! compiler.
//!
//! *"An text array is constructed which specifies the decode functions
//! needed for each buffer. A two-tape Turing machine operates on one
//! 'tape', which contains the text array, and writes the second 'tape',
//! producing compiled silicon code. When it has finished operating on the
//! array, the Turing machine will have generated and optimized the
//! instruction decoder."* — Johannsen, DAC 1979.
//!
//! The pipeline:
//!
//! 1. [`DecodeSpec`] — the *text array*: one decode function per control
//!    buffer, expressed as cubes over the microcode word,
//! 2. [`TwoTapeMachine`] — a literal two-tape machine that reads the
//!    serialized text array and writes *silicon code* (PLA programming
//!    commands), sharing identical product terms by scanning back over
//!    its output tape,
//! 3. [`Pla`] — the programmable logic array personality the output tape
//!    loads into, with exhaustive equivalence checking. The machine's
//!    scan-back is the decoder's one optimization,
//! 4. [`layout_pla`] — nMOS PLA artwork (AND/OR NOR–NOR planes, ground
//!    columns, depletion pull-ups, input drivers with true/complement
//!    columns) that passes `bristle-drc` and extracts/simulates correctly
//!    (see the crate's integration tests).
//!
//! # Examples
//!
//! ```
//! use bristle_pla::{DecodeSpec, Cube};
//!
//! // 4-bit word; assert `ld` when bits1:0 == 2, `op` when bit3 is set.
//! let mut spec = DecodeSpec::new(4);
//! spec.add_line("ld", Cube { care: 0b0011, value: 0b0010 });
//! spec.add_line("op", Cube { care: 0b1000, value: 0b1000 });
//! let pla = spec.to_pla();
//! assert_eq!(pla.eval(0b1010), vec![("ld".to_string(), true), ("op".to_string(), true)]);
//! assert_eq!(pla.eval(0b0001), vec![("ld".to_string(), false), ("op".to_string(), false)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod pla;
mod spec;
mod tape;

pub use layout::{layout_pla, PlaLayoutError};
pub use pla::{Pla, PlaStats};
pub use spec::{decode_spec_from_controls, Cube, DecodeLine, DecodeSpec};
pub use tape::{compile_on_tape, TapeSymbol, TwoTapeMachine};

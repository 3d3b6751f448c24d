//! # bristle-cif
//!
//! Mask output for Bristle Blocks: a **CIF 2.0** writer and parser, plus
//! SVG renderings of two of the seven representations for visual
//! inspection: LAYOUT ([`render_svg`]) and STICKS ([`render_sticks_svg`]).
//!
//! CIF — the *Caltech Intermediate Form* — was the mask interchange format
//! of the Mead–Conway community and the natural output target for a 1979
//! Caltech silicon compiler. Cells become CIF symbol definitions
//! (`DS … DF`), instances become calls (`C`) with mirror/rotate/translate
//! transformations, and geometry becomes `B`ox, `W`ire and `P`olygon
//! commands on `L`ayer-selected nMOS layers.
//!
//! Coordinates: cells are designed in integer λ. CIF distances are
//! centimicrons, and λ = 2.5 µm = 250 centimicrons; symbols are emitted
//! with `DS n 125 1` and coordinates in **half-λ** so box centers stay
//! integral. The reader reads that scale only (`DS n a b` with
//! `a = 125·b`) and refuses a symbol in any other units rather than
//! convert it.
//!
//! # Examples
//!
//! ```
//! use bristle_cell::{Cell, Library, Shape};
//! use bristle_geom::{Layer, Rect};
//! use bristle_cif::{write_cif, parse_cif, cif_to_library};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new("demo");
//! let mut c = Cell::new("unit");
//! c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)));
//! let id = lib.add_cell(c)?;
//! let text = write_cif(&lib, id)?;
//! let file = parse_cif(&text)?;
//! let back = cif_to_library(&file)?;
//! assert!(back.find("unit").is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod svg;
mod text;
mod write;

pub use parse::{cif_to_library, parse_cif, CifCommand, CifFile, CifSymbol, ParseCifError};
pub use svg::{render_svg, render_sticks_svg};
pub use write::{write_cif, WriteCifError};

/// Scale numerator written in `DS` lines: coordinates are half-λ and
/// λ = 250 centimicrons, so each CIF unit is 125 centimicrons.
pub const CIF_SCALE_NUM: i64 = bristle_geom::LAMBDA_CENTIMICRONS / 2;

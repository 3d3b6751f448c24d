//! # bristle-extract
//!
//! Transistor netlist extraction from Manhattan nMOS layout.
//!
//! This is the substrate behind the paper's TRANSISTORS representation
//! ("a transistor diagram for the chip or subsection of the chip") and
//! the input to the switch-level simulator in `bristle-sim`.
//!
//! The extractor:
//!
//! 1. reads the cell's flattened rectangles per layer from the view it
//!    shares with DRC (`Library::flat_layers_shared`),
//! 2. finds **gates** — poly∩diffusion overlaps not covered by a buried
//!    contact — and splits the diffusion there (channels do not conduct
//!    at rest),
//! 3. unions connectivity: same-layer touching rects (one pair join
//!    over each conductor layer's grid index), contact cuts joining
//!    metal↔poly/diffusion, buried contacts joining poly↔diffusion
//!    (one index probe per cut and layer),
//! 4. classifies each gate as enhancement or depletion (implant),
//!    measures W/L, and identifies its source/drain diffusion nets,
//! 5. names nets from shape labels and bristles.
//!
//! # Examples
//!
//! ```
//! use bristle_cell::{Cell, Library, Shape};
//! use bristle_geom::{Layer, Rect};
//! use bristle_extract::extract;
//!
//! // A bare enhancement transistor.
//! let mut lib = Library::new("demo");
//! let mut c = Cell::new("fet");
//! c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)).with_label("d"));
//! c.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)).with_label("g"));
//! let id = lib.add_cell(c).unwrap();
//! let netlist = extract(&lib, id);
//! assert_eq!(netlist.transistors.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod netlist;
mod union_find;

pub use netlist::{extract, Netlist, NetId, Transistor, TransistorKind};
#[doc(hidden)]
pub use netlist::extract_reference;
pub use union_find::UnionFind;

//! # bristle-cell
//!
//! The Bristle Blocks cell model: **procedural, stretchable cells** whose
//! edges carry **bristles** (typed connection points).
//!
//! In Johannsen's words (DAC 1979): *"Bristle Blocks uses procedural cells
//! while standard practice makes use of database cells. … Procedural cells
//! are little programs that can do several things, one of which is to draw
//! itself. These cells may also stretch themselves \[and\] compute their
//! power requirements."*
//!
//! The crate provides:
//!
//! * [`Shape`] — a mask-layer geometric primitive (box, wire or polygon),
//! * [`Bristle`] — a typed connection point on a cell edge ([`Flavor`]
//!   distinguishes pad requests, decoder-driven control lines, bus taps,
//!   power, clocks and plain signals),
//! * [`Cell`] and [`Library`] — the hierarchical cell store with
//!   [`Instance`] references,
//! * [`stretch`] — the stretch engine that lets every cell match the
//!   widest cell's pitch ("a painless operation"),
//! * [`CellGenerator`] — the trait implemented by procedural cells,
//!   with [`Ballot`] for the paper's global-parameter voting,
//! * [`InterfaceStd`] — the standard cell interface (bus, rail and clock
//!   track offsets) that lets any two elements plug together,
//! * [`CellReprs`] — per-cell data for the non-layout representations
//!   (sticks, logic, text, simulation, block).
//!
//! # Examples
//!
//! ```
//! use bristle_cell::{Cell, Library, Shape};
//! use bristle_geom::{Layer, Rect};
//!
//! let mut lib = Library::new("demo");
//! let mut inv = Cell::new("inverter");
//! inv.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 8)));
//! inv.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, 3, 4, 5)));
//! let id = lib.add_cell(inv)?;
//! assert_eq!(lib.cell(id).name(), "inverter");
//! # Ok::<(), bristle_cell::CellError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bristle;
mod cdl;
mod cell;
mod generator;
mod interface;
mod power;
mod reprs;
mod shape;
pub mod stretch;

pub use bristle::{ActiveWhen, Bristle, ControlLine, Flavor, PadKind, Phase, Rail, Side};
pub use cdl::{load_library, save_library, CdlError};
pub use cell::{Cell, CellError, CellId, Instance, Library};
pub use generator::{Ballot, CellGenerator, GenCtx, GenError, VotePolicy};
pub use interface::{InterfaceStd, InterfaceViolation, TrackSet, SLICE_CLEARANCE};
pub use power::{rail_width_for_ua, PowerInfo, INVERTER_STATIC_UA, MIN_RAIL_WIDTH, UA_PER_LAMBDA};
pub use reprs::{CellReprs, LogicGate, LogicKind, Stick};
pub use shape::{Shape, ShapeGeom};

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
//!   [`Instance`] references, and [`FlatLayers`], the per-layer indexed
//!   view of a flattened cell that extraction and DRC share,
//! * [`CellGenerator`] — the trait implemented by procedural cells,
//! * [`Tracks`] — the four standard track offsets of a bit slice (GND,
//!   bus A, bus B, VDD, bottom to top), the one type a cell's natural
//!   tracks ([`TrackSet`]) and the standard's tracks share,
//! * [`InterfaceStd`] — the standard cell interface (the track offsets
//!   plus the slice pitch) that lets any two elements plug together; it
//!   is the paper's global-parameter vote, resolved by
//!   [`InterfaceStd::from_tracks`] over every column's natural tracks,
//!   and the one pitch rule; [`InterfaceStd::align`] stretches a column
//!   along y onto it ("a painless operation"), the one use of the
//!   crate-private stretch engine,
//! * [`CellReprs`] — per-cell data for the non-layout representations
//!   (logic, text, simulation, block).
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
mod flat_layers;
mod generator;
mod interface;
mod power;
mod reprs;
mod shape;
mod stretch;

pub use bristle::{ActiveWhen, Bristle, ControlLine, Flavor, PadKind, Phase, Rail, Side};
pub use cdl::{load_library, save_library, CdlError};
pub use cell::{Cell, CellError, CellId, Instance, Library};
pub use flat_layers::FlatLayers;
pub use generator::{CellGenerator, GenCtx, GenError};
pub use interface::{InterfaceStd, InterfaceViolation, TrackSet, Tracks, TRACK_WIDTH};
pub use power::{PowerInfo, INVERTER_STATIC_UA, MIN_RAIL_WIDTH, UA_PER_LAMBDA};
pub use reprs::{CellReprs, LogicGate, LogicKind, Stick};
pub use shape::{Shape, ShapeGeom};

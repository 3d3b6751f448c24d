//! # bristle-geom
//!
//! Integer-λ Manhattan geometry kernel for the Bristle Blocks silicon
//! compiler, using the Mead–Conway nMOS layer set.
//!
//! All coordinates are in **lambda** (λ) units, the scalable design unit of
//! Mead & Conway's *Introduction to VLSI Systems* (1978). In the 1979
//! process that Bristle Blocks targeted, λ = 2.5 µm; the value only matters
//! when emitting physical mask formats (see [`LAMBDA_CENTIMICRONS`]).
//!
//! The kernel provides:
//!
//! * [`Point`] and [`Rect`] — integer Manhattan primitives,
//! * [`Polygon`] — simple rectilinear polygons (shoelace area, bbox),
//! * [`Path`] — wires with width, convertible to rectangle soup,
//! * [`Orientation`] and [`Transform`] — the 8-element dihedral symmetry
//!   group of the Manhattan plane plus translation,
//! * [`Layer`] — the nMOS mask layers with their CIF names,
//! * [`covered_by`] — is a window covered by a union of rectangles, and
//!   [`gate_regions`] — the transistor gates DRC and extraction share,
//! * [`RectIndex`] — a build-once dense grid index on power-of-two bins
//!   used by DRC and extraction, with one allocation-free probe
//!   ([`RectIndex::for_each_touching`]) and one pair join
//!   ([`RectIndex::for_each_touching_pair`]).
//!
//! # Examples
//!
//! ```
//! use bristle_geom::{Point, Rect, Transform, Orientation};
//!
//! let r = Rect::new(0, 0, 4, 2);
//! let t = Transform::new(Orientation::R90, Point::new(10, 0));
//! let rotated = t.apply_rect(r);
//! assert_eq!(rotated, Rect::new(8, 0, 10, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod layer;
mod path;
mod point;
mod polygon;
mod rect;
mod rect_index;
mod transform;

pub use cover::{covered_by, gate_regions};
pub use layer::Layer;
pub use path::{Path, PathError};
pub use point::Point;
pub use polygon::{Polygon, PolygonError};
pub use rect::Rect;
pub use rect_index::RectIndex;
pub use transform::{Orientation, Transform};

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker cap that `perfbench`, its only reader and writer, sets to
/// one and prints as `worker_cap`. No library code spawns a thread, so
/// nothing else reads it; it guards no other data, so `Relaxed` is
/// enough. It goes when the benchmark stops printing it.
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Stores the worker cap; kept only for `perfbench`.
#[doc(hidden)]
pub fn set_max_workers(n: usize) {
    MAX_WORKERS.store(n, Ordering::Relaxed);
}

/// The stored worker cap; kept only for `perfbench`, which prints it.
#[doc(hidden)]
#[must_use]
pub fn max_workers() -> usize {
    MAX_WORKERS.load(Ordering::Relaxed)
}

/// The one bound on geometry: every coordinate a library holds, flattened
/// or not, lies within ±`MAX_COORD` λ (2^29 λ, about 1.3 km at
/// λ = 2.5 µm). `bristle_cell::Library::add_cell` rejects any cell whose
/// hierarchy leaves it, so every consumer may rely on it. Inside the
/// bound, with `|x|, |y| ≤ 2^29`:
///
/// * widths and heights are at most 2^30 and [`Rect::area`] at most 2^60;
/// * each term of the doubled shoelace sum in [`Polygon::area`] is at
///   most 2·2^58 = 2^59, and the sum of a simple polygon at most twice
///   its box's area, 2·(2^30)² = 2^61;
/// * SVG pixels at 4 px/λ, margin included, are at most 4·(2^30 + 8) <
///   2^33;
/// * doubled CIF coordinates are at most 2^30, doubled box extents 2^31;
/// * a box within the bound placed by an offset within the bound stays
///   within ±2^30, so composing a cell's box from its children's boxes
///   cannot overflow either.
pub const MAX_COORD: i64 = 1 << 29;

/// Physical size of one λ in CIF centimicrons (10⁻⁸ m).
///
/// Mead–Conway 1978 nMOS used λ = 2.5 µm = 250 centimicrons. CIF 2.0
/// distances are expressed in centimicrons, so a λ-unit coordinate is
/// multiplied by this constant on output.
pub const LAMBDA_CENTIMICRONS: i64 = 250;

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
//! * [`covered_by`] — is a window covered by a union of rectangles,
//! * [`RectIndex`] — a binned spatial index used by DRC and extraction,
//!   with an allocation-free stamped-dedup query path ([`QueryScratch`]),
//! * [`par`] — deterministic scoped-thread parallel maps for the
//!   embarrassingly parallel DRC/extraction outer loops.
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
pub mod par;
mod path;
mod point;
mod polygon;
mod rect;
mod rect_index;
mod transform;

pub use cover::covered_by;
pub use layer::Layer;
pub use par::{max_workers, par_chunks, par_map, set_max_workers};
pub use path::Path;
pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;
pub use rect_index::{QueryScratch, RectIndex};
pub use transform::{Orientation, Transform};

/// Physical size of one λ in CIF centimicrons (10⁻⁸ m).
///
/// Mead–Conway 1978 nMOS used λ = 2.5 µm = 250 centimicrons. CIF 2.0
/// distances are expressed in centimicrons, so a λ-unit coordinate is
/// multiplied by this constant on output.
pub const LAMBDA_CENTIMICRONS: i64 = 250;

/// Manhattan axes.
///
/// Bristle Blocks stacks core elements along [`Axis::X`] (the chip
/// "length" in the paper's vocabulary) and measures the common cell pitch
/// along [`Axis::Y`] (the paper's "width").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// Horizontal axis (chip length; element stacking direction).
    X,
    /// Vertical axis (datapath pitch; bit-stacking direction).
    Y,
}

impl Axis {
    /// The other axis.
    ///
    /// ```
    /// use bristle_geom::Axis;
    /// assert_eq!(Axis::X.perpendicular(), Axis::Y);
    /// ```
    #[must_use]
    pub fn perpendicular(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::X => f.write_str("x"),
            Axis::Y => f.write_str("y"),
        }
    }
}

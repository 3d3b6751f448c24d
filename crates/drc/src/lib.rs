//! # bristle-drc
//!
//! A hierarchical λ design-rule checker for Mead–Conway nMOS.
//!
//! Bristle Blocks leans on interface standards so that *"design rule
//! checking \[can\] be performed on individual cells as the cells are
//! designed, rather than on fully instantiated artwork"*. This crate
//! implements both modes:
//!
//! * [`check_flat`] — flatten a hierarchy and check every shape pair,
//! * [`check_hierarchical`] — check each distinct cell once, on one view
//!   of its own shapes and its instances' flattened subtrees, skipping
//!   the pairs inside one instance (its own cell checks them). On the
//!   reference chips it finds the same violations as the flat check and
//!   attributes each to the cell that draws it; it does not visit fewer
//!   pairs ([`Report::checked_pairs`]).
//!
//! Checked rules (integer-λ variants of Mead & Conway 1978):
//!
//! | Rule | Value |
//! |---|---|
//! | min width: diffusion, poly | 2λ |
//! | min width: metal | 3λ |
//! | min spacing: diffusion–diffusion, metal–metal | 3λ |
//! | min spacing: poly–poly | 2λ |
//! | min spacing: poly–diffusion (non-transistor) | 1λ |
//! | transistor: poly gate overhang past diffusion | 2λ |
//! | transistor: diffusion S/D extension past poly | 2λ |
//! | contact: cut size exactly 2×2λ, enclosed 1λ by metal and by poly/diff |
//! | implant: surrounds depletion gates by 1λ, clear of others by 1λ |
//!
//! A same-layer gap that other shapes on that layer fill is one solid
//! shape drawn in pieces, and is not a spacing violation.
//!
//! # Examples
//!
//! ```
//! use bristle_cell::{Cell, Library, Shape};
//! use bristle_geom::{Layer, Rect};
//! use bristle_drc::{check_flat, RuleSet};
//!
//! let mut lib = Library::new("demo");
//! let mut c = Cell::new("thin");
//! c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 10))); // 2λ metal: too thin
//! let id = lib.add_cell(c).unwrap();
//! let report = check_flat(&lib, id, &RuleSet::mead_conway());
//! assert_eq!(report.violations.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod rules;

pub use check::{check_flat, check_hierarchical, Report, Violation};
pub use rules::{RuleKind, RuleSet};

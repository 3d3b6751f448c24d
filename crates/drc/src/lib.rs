//! # bristle-drc
//!
//! A λ design-rule checker for Mead–Conway nMOS.
//!
//! Bristle Blocks leans on interface standards so that *"design rule
//! checking \[can\] be performed on individual cells as the cells are
//! designed, rather than on fully instantiated artwork"*. This crate has
//! one check, [`check_flat`]: flatten the cell (one walk of its
//! hierarchy, memoized for that cell) and run every rule on the cell's
//! per-layer indexed view of its rectangles, which extraction reads too
//! (`Library::flat_layers_shared`). Checking "individual
//! cells as they are designed" is then simply `check_flat` on a leaf:
//! the generators in `bristle-stdcells` and `bristle-pla` test each of
//! their cells that way, and checking the top cell finds the glue
//! faults between them.
//!
//! A per-cell hierarchical mode, which checked each distinct cell once
//! on its own shapes plus its instances' subtrees, was measured against
//! this check and removed. On counter4 / alu8 / datapath16 / cpu16 at
//! the top cell (release, one thread, best of 7 on a 2-vCPU x86-64
//! host) it took 2.3 / 4.5 / 12.6 / 21.8 ms and examined 1,311 / 2,781
//! / 8,281 / 14,695 pairs, where this check took 0.8 / 1.8 / 5.2 /
//! 8.8 ms and examined 898 / 2,058 / 6,571 / 11,577 pairs; both found
//! the same violations there and on 1,100 other compiled chips. Each
//! parent re-checked the pairs between its children, so the hierarchy
//! did more work, not less. Over the dense-grid `RectIndex`, this check
//! now takes 0.46 / 1.06 / 3.05 / 4.29 ms on those chips for the same
//! pairs (median of six best-of-7 runs on the same kind of host).
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

//! Procedural cell generation: the [`CellGenerator`] trait.
//!
//! *"After all of the elements vote on the values of global parameters,
//! each element is executed in turn, resulting in a hierarchy of cells
//! which implement the core of the chip."* — Johannsen, DAC 1979.
//!
//! The one global parameter elements vote on is the interface standard:
//! every generated column contributes its natural tracks and
//! [`crate::InterfaceStd::from_tracks`] resolves them to the slice pitch
//! and the shared track offsets.

use std::collections::BTreeMap;
use std::fmt;

use crate::cell::Cell;

/// Everything a procedural cell may consult while generating itself.
#[derive(Debug, Clone, Default)]
pub struct GenCtx {
    /// Element parameters from the user's chip description.
    pub params: BTreeMap<String, i64>,
    /// Name prefix making generated cell names unique per element
    /// instance (e.g. `"e3_alu"`).
    pub prefix: String,
}

impl GenCtx {
    /// Creates a context with no parameters and no prefix.
    #[must_use]
    pub fn new() -> GenCtx {
        GenCtx::default()
    }

    /// Fetches an optional integer parameter with a default.
    #[must_use]
    pub fn param_or(&self, name: &str, default: i64) -> i64 {
        self.params.get(name).copied().unwrap_or(default)
    }

    /// Prefixes a cell name with this element's unique prefix.
    #[must_use]
    pub fn cell_name(&self, base: &str) -> String {
        if self.prefix.is_empty() {
            base.to_owned()
        } else {
            format!("{}_{base}", self.prefix)
        }
    }
}

/// Errors produced by procedural cell generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// A parameter value is out of range.
    BadParam {
        /// Parameter name.
        name: String,
        /// Offending value.
        value: i64,
        /// Human-readable constraint.
        reason: String,
    },
    /// The generator does not support the requested configuration.
    Unsupported(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::BadParam { name, value, reason } => {
                write!(f, "bad parameter `{name}` = {value}: {reason}")
            }
            GenError::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
        }
    }
}

impl std::error::Error for GenError {}

/// A procedural cell: "a little program that can draw itself".
///
/// Implementors generate one or more **columns**; each column is a bit
/// cell that the compiler stacks once per data bit. Bit cells carry
/// bristles for their bus taps ([`crate::Flavor::Bus`]), power rails,
/// control lines (South side, toward the decoder) and pad requests.
///
/// The compiler calls [`CellGenerator::generate`] once per element: every
/// column's natural tracks vote on the chip's interface standard, and
/// each column is then stretched to it with [`crate::InterfaceStd::align`]
/// before the compiler adds it to the chip's library, where it cannot
/// change any more. A generator offers one layout and never sees the
/// library.
pub trait CellGenerator {
    /// The element type name users write in the chip description
    /// (e.g. `"alu"`, `"registers"`).
    fn name(&self) -> &str;

    /// Microcode fields this element requires, as `(name, width)` pairs.
    /// Names should be prefixed via [`GenCtx::cell_name`]-style
    /// conventions so concurrent instances stay distinct. The compiler
    /// appends these to the user's own field declarations.
    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        let _ = ctx;
        Vec::new()
    }

    /// Generates the element's column bit cells at natural size, left to
    /// right. Each is a leaf cell, named through [`GenCtx::cell_name`].
    ///
    /// # Errors
    ///
    /// Implementations report missing/bad parameters and layouts they
    /// cannot draw.
    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_params_and_cell_names() {
        let mut ctx = GenCtx::new();
        ctx.params.insert("count".into(), 4);
        ctx.prefix = "e2_reg".into();
        assert_eq!(ctx.param_or("count", 7), 4);
        assert_eq!(ctx.param_or("nope", 7), 7);
        assert_eq!(ctx.cell_name("bit"), "e2_reg_bit");
    }
}

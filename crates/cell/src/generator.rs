//! Procedural cell generation: the [`CellGenerator`] trait and the
//! global-parameter [`Ballot`].
//!
//! *"After all of the elements vote on the values of global parameters,
//! each element is executed in turn, resulting in a hierarchy of cells
//! which implement the core of the chip."* — Johannsen, DAC 1979.

use std::collections::BTreeMap;
use std::fmt;

use crate::cell::{CellError, CellId, Library};
use crate::stretch::StretchError;

/// How concurrent votes for the same global parameter combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VotePolicy {
    /// The parameter resolves to the maximum vote (e.g. rail width).
    Max,
    /// Votes accumulate (e.g. total supply current).
    Sum,
}

impl fmt::Display for VotePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VotePolicy::Max => f.write_str("max"),
            VotePolicy::Sum => f.write_str("sum"),
        }
    }
}

/// The ballot box for global parameters.
///
/// Each element casts votes during the first phase of the core pass; the
/// compiler then reads the resolved values.
///
/// # Examples
///
/// ```
/// use bristle_cell::{Ballot, VotePolicy};
///
/// let mut ballot = Ballot::new();
/// ballot.vote("rail_width", VotePolicy::Max, 4).unwrap();
/// ballot.vote("rail_width", VotePolicy::Max, 6).unwrap();
/// assert_eq!(ballot.result("rail_width"), Some(6));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ballot {
    entries: BTreeMap<String, (VotePolicy, i64)>,
}

impl Ballot {
    /// Creates an empty ballot.
    #[must_use]
    pub fn new() -> Ballot {
        Ballot::default()
    }

    /// Casts a vote.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::VoteConflict`] if a prior vote for the same
    /// parameter used a different policy.
    pub fn vote(
        &mut self,
        param: impl Into<String>,
        policy: VotePolicy,
        value: i64,
    ) -> Result<(), GenError> {
        let param = param.into();
        match self.entries.get_mut(&param) {
            None => {
                self.entries.insert(param, (policy, value));
                Ok(())
            }
            Some((existing, acc)) => {
                if *existing != policy {
                    return Err(GenError::VoteConflict {
                        param,
                        a: *existing,
                        b: policy,
                    });
                }
                *acc = match policy {
                    VotePolicy::Max => (*acc).max(value),
                    VotePolicy::Sum => *acc + value,
                };
                Ok(())
            }
        }
    }

    /// The resolved value of a parameter, if anyone voted.
    #[must_use]
    pub fn result(&self, param: &str) -> Option<i64> {
        self.entries.get(param).map(|&(_, v)| v)
    }

    /// Iterates over `(name, policy, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, VotePolicy, i64)> {
        self.entries.iter().map(|(k, &(p, v))| (k.as_str(), p, v))
    }
}

/// Everything a procedural cell may consult while generating itself.
#[derive(Debug, Clone)]
pub struct GenCtx {
    /// Data word width in bits (slices to stack).
    pub data_width: u32,
    /// Element parameters from the user's chip description.
    pub params: BTreeMap<String, i64>,
    /// Name prefix making generated cell names unique per element
    /// instance (e.g. `"e3_alu"`).
    pub prefix: String,
}

impl GenCtx {
    /// Creates a context with the given data width and defaults elsewhere.
    #[must_use]
    pub fn new(data_width: u32) -> GenCtx {
        GenCtx {
            data_width,
            params: BTreeMap::new(),
            prefix: String::new(),
        }
    }

    /// Fetches a required integer parameter.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::MissingParam`] if absent.
    pub fn param(&self, name: &str) -> Result<i64, GenError> {
        self.params
            .get(name)
            .copied()
            .ok_or_else(|| GenError::MissingParam(name.to_owned()))
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
    /// A required element parameter was not supplied.
    MissingParam(String),
    /// A parameter value is out of range.
    BadParam {
        /// Parameter name.
        name: String,
        /// Offending value.
        value: i64,
        /// Human-readable constraint.
        reason: String,
    },
    /// Two votes for one parameter disagreed on the merge policy.
    VoteConflict {
        /// Parameter name.
        param: String,
        /// First policy.
        a: VotePolicy,
        /// Conflicting policy.
        b: VotePolicy,
    },
    /// The library rejected a generated cell.
    Cell(CellError),
    /// Stretching a generated cell failed.
    Stretch(StretchError),
    /// The generator does not support the requested configuration.
    Unsupported(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::MissingParam(p) => write!(f, "missing element parameter `{p}`"),
            GenError::BadParam { name, value, reason } => {
                write!(f, "bad parameter `{name}` = {value}: {reason}")
            }
            GenError::VoteConflict { param, a, b } => {
                write!(f, "vote policy conflict on `{param}`: {a} vs {b}")
            }
            GenError::Cell(e) => write!(f, "{e}"),
            GenError::Stretch(e) => write!(f, "{e}"),
            GenError::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::Cell(e) => Some(e),
            GenError::Stretch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CellError> for GenError {
    fn from(e: CellError) -> GenError {
        GenError::Cell(e)
    }
}

impl From<StretchError> for GenError {
    fn from(e: StretchError) -> GenError {
        GenError::Stretch(e)
    }
}

/// A procedural cell: "a little program that can draw itself".
///
/// Implementors generate one or more **columns**; each column is a bit
/// cell that the compiler stacks `data_width` high. Bit cells carry
/// bristles for their bus taps ([`crate::Flavor::Bus`], with `bit = 0` —
/// stacking assigns real bit indices), power rails, control lines (South
/// side, toward the decoder) and pad requests.
pub trait CellGenerator {
    /// The element type name users write in the chip description
    /// (e.g. `"alu"`, `"registers"`).
    fn name(&self) -> &str;

    /// Casts votes on global parameters. The default casts none.
    fn vote(&self, ctx: &GenCtx, ballot: &mut Ballot) -> Result<(), GenError> {
        let _ = (ctx, ballot);
        Ok(())
    }

    /// Microcode fields this element requires, as `(name, width)` pairs.
    /// Names should be prefixed via [`GenCtx::cell_name`]-style
    /// conventions so concurrent instances stay distinct. The compiler
    /// appends these to the user's own field declarations.
    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        let _ = ctx;
        Vec::new()
    }

    /// Generates the element's column bit cells at natural size, left to
    /// right, adding them to `lib`.
    ///
    /// # Errors
    ///
    /// Implementations report missing/bad parameters and library failures.
    fn generate(&self, ctx: &GenCtx, lib: &mut Library) -> Result<Vec<CellId>, GenError>;

    /// Generates *candidate variants* of the element's columns, for smart
    /// minimum-area selection once the pitch is known. The default returns
    /// the single [`CellGenerator::generate`] result.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CellGenerator::generate`].
    fn variants(&self, ctx: &GenCtx, lib: &mut Library) -> Result<Vec<Vec<CellId>>, GenError> {
        Ok(vec![self.generate(ctx, lib)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_policies() {
        let mut b = Ballot::new();
        b.vote("w", VotePolicy::Max, 4).unwrap();
        b.vote("w", VotePolicy::Max, 2).unwrap();
        assert_eq!(b.result("w"), Some(4));
        b.vote("i", VotePolicy::Sum, 100).unwrap();
        b.vote("i", VotePolicy::Sum, 50).unwrap();
        assert_eq!(b.result("i"), Some(150));
        assert_eq!(b.result("absent"), None);
    }

    #[test]
    fn ballot_conflict() {
        let mut b = Ballot::new();
        b.vote("w", VotePolicy::Max, 4).unwrap();
        assert!(matches!(
            b.vote("w", VotePolicy::Sum, 4),
            Err(GenError::VoteConflict { .. })
        ));
    }

    #[test]
    fn ctx_params_and_cell_names() {
        let mut ctx = GenCtx::new(8);
        ctx.params.insert("count".into(), 4);
        ctx.prefix = "e2_reg".into();
        assert_eq!(ctx.param("count").unwrap(), 4);
        assert!(matches!(ctx.param("nope"), Err(GenError::MissingParam(_))));
        assert_eq!(ctx.param_or("nope", 7), 7);
        assert_eq!(ctx.cell_name("bit"), "e2_reg_bit");
    }

    #[test]
    fn ballot_iter_ordered() {
        let mut b = Ballot::new();
        b.vote("z", VotePolicy::Max, 1).unwrap();
        b.vote("a", VotePolicy::Sum, 2).unwrap();
        let names: Vec<&str> = b.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}

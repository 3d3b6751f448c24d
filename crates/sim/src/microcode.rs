//! The microcode word format: the first section of the user's chip
//! description.
//!
//! *"The first section states the microcode instruction width and
//! describes the decomposition of the microcode word into various fields,
//! such as the 'Register Select Field' or the 'ALU Operation Field'."*
//! — Johannsen, DAC 1979.

use std::fmt;

use bristle_cell::ControlLine;

/// One field of the microcode word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MicrocodeField {
    /// Field name (e.g. `"alu_op"`).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Bit offset of the LSB within the word (fields pack LSB-first in
    /// declaration order).
    pub offset: u32,
}

impl MicrocodeField {
    /// Mask of this field in word position.
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            ((1u64 << self.width) - 1) << self.offset
        }
    }
}

/// Errors from microcode format construction and encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicrocodeError {
    /// A field with this name already exists.
    DuplicateField(String),
    /// The word would exceed 64 bits.
    TooWide {
        /// Total bits requested (`u32::MAX` if the sum overflows).
        requested: u32,
    },
    /// Zero-width fields are meaningless.
    ZeroWidth(String),
    /// No field with this name.
    UnknownField(String),
    /// A value does not fit in its field.
    ValueTooBig {
        /// Field name.
        field: String,
        /// Offending value.
        value: u64,
        /// Field width in bits.
        width: u32,
    },
}

impl fmt::Display for MicrocodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicrocodeError::DuplicateField(n) => write!(f, "duplicate microcode field `{n}`"),
            MicrocodeError::TooWide { requested } => {
                write!(f, "microcode word would be {requested} bits (max 64)")
            }
            MicrocodeError::ZeroWidth(n) => write!(f, "microcode field `{n}` has zero width"),
            MicrocodeError::UnknownField(n) => write!(f, "no microcode field `{n}`"),
            MicrocodeError::ValueTooBig {
                field,
                value,
                width,
            } => write!(f, "value {value} does not fit in {width}-bit field `{field}`"),
        }
    }
}

impl std::error::Error for MicrocodeError {}

/// The microcode word format: an ordered set of named bit fields.
///
/// # Examples
///
/// ```
/// use bristle_sim::Microcode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mc = Microcode::new();
/// mc.add_field("reg_sel", 3)?;
/// mc.add_field("alu_op", 2)?;
/// assert_eq!(mc.word_width(), 5);
/// let w = mc.encode(&[("reg_sel", 5), ("alu_op", 2)])?;
/// assert_eq!(mc.extract(w, "reg_sel")?, 5);
/// assert_eq!(mc.extract(w, "alu_op")?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Microcode {
    fields: Vec<MicrocodeField>,
}

impl Microcode {
    /// An empty format.
    #[must_use]
    pub fn new() -> Microcode {
        Microcode::default()
    }

    /// Appends a field of `width` bits.
    ///
    /// # Errors
    ///
    /// Rejects duplicates, zero widths and formats beyond 64 bits.
    pub fn add_field(
        &mut self,
        name: impl Into<String>,
        width: u32,
    ) -> Result<(), MicrocodeError> {
        let name = name.into();
        if width == 0 {
            return Err(MicrocodeError::ZeroWidth(name));
        }
        if self.fields.iter().any(|f| f.name == name) {
            return Err(MicrocodeError::DuplicateField(name));
        }
        let offset = self.word_width();
        let requested = offset.saturating_add(width);
        if requested > 64 {
            return Err(MicrocodeError::TooWide { requested });
        }
        self.fields.push(MicrocodeField {
            name,
            width,
            offset,
        });
        Ok(())
    }

    /// Total word width in bits.
    #[must_use]
    pub fn word_width(&self) -> u32 {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// The fields in declaration order.
    #[must_use]
    pub fn fields(&self) -> &[MicrocodeField] {
        &self.fields
    }

    /// Looks up a field.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&MicrocodeField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Extracts a field value from a word.
    ///
    /// # Errors
    ///
    /// [`MicrocodeError::UnknownField`] if the field does not exist.
    pub fn extract(&self, word: u64, name: &str) -> Result<u64, MicrocodeError> {
        let f = self
            .field(name)
            .ok_or_else(|| MicrocodeError::UnknownField(name.to_owned()))?;
        Ok((word & f.mask()) >> f.offset)
    }

    /// Whether `word` asserts a decoded control line: the line's decode
    /// evaluated on its field's value. The line's clock phase is the
    /// caller's to check.
    ///
    /// # Errors
    ///
    /// [`MicrocodeError::UnknownField`] if the line's field does not exist.
    pub fn asserted(&self, word: u64, line: &ControlLine) -> Result<bool, MicrocodeError> {
        Ok(line.active.eval(self.extract(word, &line.field)?))
    }

    /// Encodes a word from `(field, value)` assignments; unassigned
    /// fields are zero.
    ///
    /// # Errors
    ///
    /// Unknown fields and out-of-range values are rejected.
    pub fn encode(&self, assignments: &[(&str, u64)]) -> Result<u64, MicrocodeError> {
        let mut word = 0u64;
        for &(name, value) in assignments {
            let f = self
                .field(name)
                .ok_or_else(|| MicrocodeError::UnknownField(name.to_owned()))?;
            let max = if f.width >= 64 {
                u64::MAX
            } else {
                (1u64 << f.width) - 1
            };
            if value > max {
                return Err(MicrocodeError::ValueTooBig {
                    field: name.to_owned(),
                    value,
                    width: f.width,
                });
            }
            word |= value << f.offset;
        }
        Ok(word)
    }
}

impl fmt::Display for Microcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b:", self.word_width())?;
        for field in &self.fields {
            write!(f, " {}[{}:{}]", field.name, field.offset + field.width - 1, field.offset)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_is_lsb_first() {
        let mut mc = Microcode::new();
        mc.add_field("a", 3).unwrap();
        mc.add_field("b", 2).unwrap();
        assert_eq!(mc.field("a").unwrap().offset, 0);
        assert_eq!(mc.field("b").unwrap().offset, 3);
        assert_eq!(mc.field("b").unwrap().mask(), 0b11000);
    }

    #[test]
    fn encode_extract_round_trip() {
        let mut mc = Microcode::new();
        mc.add_field("x", 4).unwrap();
        mc.add_field("y", 4).unwrap();
        let w = mc.encode(&[("x", 0xA), ("y", 0x5)]).unwrap();
        assert_eq!(w, 0x5A);
        assert_eq!(mc.extract(w, "x").unwrap(), 0xA);
        assert_eq!(mc.extract(w, "y").unwrap(), 0x5);
    }

    #[test]
    fn errors() {
        let mut mc = Microcode::new();
        mc.add_field("a", 3).unwrap();
        assert!(matches!(
            mc.add_field("a", 2),
            Err(MicrocodeError::DuplicateField(_))
        ));
        assert!(matches!(
            mc.add_field("z", 0),
            Err(MicrocodeError::ZeroWidth(_))
        ));
        assert!(matches!(
            mc.add_field("big", 62),
            Err(MicrocodeError::TooWide { requested: 65 })
        ));
        assert!(matches!(
            mc.add_field("huge", u32::MAX),
            Err(MicrocodeError::TooWide {
                requested: u32::MAX
            })
        ));
        assert!(matches!(
            mc.extract(0, "nope"),
            Err(MicrocodeError::UnknownField(_))
        ));
        assert!(matches!(
            mc.encode(&[("a", 8)]),
            Err(MicrocodeError::ValueTooBig { .. })
        ));
    }

    #[test]
    fn display_format() {
        let mut mc = Microcode::new();
        mc.add_field("op", 2).unwrap();
        mc.add_field("sel", 3).unwrap();
        assert_eq!(mc.to_string(), "5b: op[1:0] sel[4:2]");
    }
}

//! The *text array*: decode functions for each control buffer.

use std::fmt;

use bristle_cell::{ActiveWhen, ControlLine};
use bristle_sim::Microcode;

use crate::pla::Pla;

/// A product term over the microcode word: the input must match `value`
/// on the bits set in `care`; other bits are don't-care.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    /// Bits that participate in the term.
    pub care: u64,
    /// Required values on the `care` bits (bits outside `care` are 0).
    pub value: u64,
}

impl Cube {
    /// True if `word` satisfies the cube.
    #[must_use]
    pub fn matches(&self, word: u64) -> bool {
        word & self.care == self.value
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render LSB-first up to the highest care bit.
        let top = 64 - self.care.leading_zeros();
        if top == 0 {
            return f.write_str("(always)");
        }
        for bit in (0..top).rev() {
            let c = if self.care >> bit & 1 == 0 {
                '-'
            } else if self.value >> bit & 1 == 1 {
                '1'
            } else {
                '0'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// One output line of the decoder: a named product term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeLine {
    /// Control line name.
    pub name: String,
    /// The condition: every decode a control bristle can ask for is one
    /// cube.
    pub cube: Cube,
}

/// The text array: all decode functions the core's control bristles
/// demand of the instruction decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeSpec {
    inputs: u32,
    lines: Vec<DecodeLine>,
}

impl DecodeSpec {
    /// Creates an empty spec over an `inputs`-bit microcode word.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is 0 or exceeds 64.
    #[must_use]
    pub fn new(inputs: u32) -> DecodeSpec {
        assert!((1..=64).contains(&inputs), "bad input width {inputs}");
        DecodeSpec {
            inputs,
            lines: Vec::new(),
        }
    }

    /// Word width in bits.
    #[must_use]
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// The decode lines.
    #[must_use]
    pub fn lines(&self) -> &[DecodeLine] {
        &self.lines
    }

    /// Appends a decode line.
    pub fn add_line(&mut self, name: impl Into<String>, cube: Cube) {
        self.lines.push(DecodeLine {
            name: name.into(),
            cube,
        });
    }

    /// Builds the (unoptimized) PLA personality: every line's cube
    /// becomes its own product term, duplicates included.
    #[must_use]
    pub fn to_pla(&self) -> Pla {
        let terms = self.lines.iter().map(|l| l.cube).collect();
        let outputs = self
            .lines
            .iter()
            .enumerate()
            .map(|(i, l)| (l.name.clone(), vec![i]))
            .collect();
        Pla::from_parts(self.inputs, terms, outputs)
    }
}

impl fmt::Display for DecodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "text array ({} inputs):", self.inputs)?;
        for line in &self.lines {
            writeln!(f, "  {} = {}", line.name, line.cube)?;
        }
        Ok(())
    }
}

/// Converts a control line's decode condition into a cube over the word.
///
/// Returns `None` if the referenced field is absent from the format.
#[must_use]
pub fn cube_for_control(mc: &Microcode, line: &ControlLine) -> Option<Cube> {
    let field = mc.field(&line.field)?;
    Some(match line.active {
        ActiveWhen::Equals(v) => {
            let care = field.mask();
            Cube {
                care,
                value: (v << field.offset) & care,
            }
        }
        ActiveWhen::Bit(b) => {
            let bit = 1u64 << (field.offset + u32::from(b));
            Cube {
                care: bit,
                value: bit,
            }
        }
    })
}

/// Builds the text array for a set of named control lines against a
/// microcode format — the interface between Pass 2 and the core's
/// control bristles.
///
/// Lines referencing unknown fields are reported by name in the error.
///
/// # Errors
///
/// Returns the names of controls whose microcode fields do not exist.
pub fn decode_spec_from_controls(
    mc: &Microcode,
    controls: &[(String, ControlLine)],
) -> Result<DecodeSpec, Vec<String>> {
    let width = mc.word_width().max(1);
    let mut spec = DecodeSpec::new(width);
    let mut missing = Vec::new();
    for (name, line) in controls {
        match cube_for_control(mc, line) {
            Some(cube) => spec.add_line(name.clone(), cube),
            None => missing.push(name.clone()),
        }
    }
    if missing.is_empty() {
        Ok(spec)
    } else {
        Err(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::Phase;

    #[test]
    fn cube_matching() {
        let c = Cube {
            care: 0b1100,
            value: 0b0100,
        };
        assert!(c.matches(0b0100));
        assert!(c.matches(0b0111)); // low bits don't care
        assert!(!c.matches(0b1100));
    }

    #[test]
    fn display_cube() {
        let c = Cube {
            care: 0b1101,
            value: 0b0101,
        };
        assert_eq!(c.to_string(), "01-1");
        assert_eq!(Cube { care: 0, value: 0 }.to_string(), "(always)");
    }

    #[test]
    fn control_to_cubes() {
        let mut mc = Microcode::new();
        mc.add_field("a", 2).unwrap(); // bits 1:0
        mc.add_field("b", 3).unwrap(); // bits 4:2
        let eq = ControlLine {
            field: "b".into(),
            active: ActiveWhen::Equals(5),
            phase: Phase::Phi1,
        };
        assert_eq!(
            cube_for_control(&mc, &eq).unwrap(),
            Cube {
                care: 0b11100,
                value: 0b10100
            }
        );
        let bit = ControlLine {
            field: "b".into(),
            active: ActiveWhen::Bit(1),
            phase: Phase::Phi1,
        };
        assert_eq!(
            cube_for_control(&mc, &bit).unwrap(),
            Cube {
                care: 0b01000,
                value: 0b01000
            }
        );
    }

    #[test]
    fn spec_from_controls_reports_missing() {
        let mut mc = Microcode::new();
        mc.add_field("op", 2).unwrap();
        let good = ControlLine {
            field: "op".into(),
            active: ActiveWhen::Equals(1),
            phase: Phase::Phi1,
        };
        let bad = ControlLine {
            field: "ghost".into(),
            active: ActiveWhen::Bit(0),
            phase: Phase::Phi1,
        };
        let err = decode_spec_from_controls(
            &mc,
            &[("x".into(), good), ("y".into(), bad)],
        )
        .unwrap_err();
        assert_eq!(err, vec!["y".to_string()]);
    }
}

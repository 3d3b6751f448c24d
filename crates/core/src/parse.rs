//! The single-page chip description as a text file.
//!
//! *"The goal of the Bristle Block system is to produce an entire LSI
//! mask set from a single page, high level description of the integrated
//! circuit."* This module parses that page. The format mirrors the
//! paper's three input sections:
//!
//! ```text
//! chip cpu16
//!
//! # Section 1: microcode fields the user wants beyond the element fields.
//! field literal 8
//!
//! # Section 2: data word width and buses.
//! width 16
//! buses A B
//!
//! # Section 3: the core elements, in order, with parameters.
//! element inport
//! element registers count=4
//! element shifter
//! element alu
//! element outport
//!
//! # Conditional assembly.
//! flag PROTOTYPE on
//! ```
//!
//! `#` starts a comment; `break A` after an element marks a bus break.

use std::fmt;

use crate::spec::{ChipSpec, ChipSpecBuilder, SpecError};

/// Errors from parsing a chip description page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePageError {
    /// Malformed line, with 1-based line number and message.
    Line {
        /// Line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The resulting spec failed validation.
    Spec(SpecError),
}

impl fmt::Display for ParsePageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePageError::Line { line, message } => write!(f, "line {line}: {message}"),
            ParsePageError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParsePageError {}

impl From<SpecError> for ParsePageError {
    fn from(e: SpecError) -> ParsePageError {
        ParsePageError::Spec(e)
    }
}

/// Parses the single-page text format into a [`ChipSpec`].
///
/// An element reads only its own parameters (`count` for registers,
/// `words` for ram, `depth` for stack) and ignores any other. A port's
/// `lane` is the compiler's own numbering, so a page's `lane=` is
/// ignored too.
///
/// # Errors
///
/// Reports malformed lines with their line numbers, and propagates spec
/// validation failures.
///
/// # Examples
///
/// ```
/// use bristle_core::parse_page;
///
/// let spec = parse_page(
///     "chip demo\nwidth 8\nelement registers count=2\nelement alu\n",
/// ).unwrap();
/// assert_eq!(spec.name, "demo");
/// assert_eq!(spec.elements.len(), 2);
/// ```
pub fn parse_page(text: &str) -> Result<ChipSpec, ParsePageError> {
    let mut builder: Option<ChipSpecBuilder> = None;
    let mut pending_elements = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| ParsePageError::Line {
            line: line_no,
            message,
        };
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().unwrap();
        if keyword == "chip" {
            let name = tokens
                .next()
                .ok_or_else(|| err("`chip` needs a name".into()))?;
            if builder.is_some() {
                return Err(err("duplicate `chip` line".into()));
            }
            builder = Some(ChipSpec::builder(name));
            continue;
        }
        let b = builder
            .take()
            .ok_or_else(|| err(format!("`{keyword}` before `chip`")))?;
        let b = match keyword {
            "width" => {
                let w: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("`width` needs a bit count".into()))?;
                b.data_width(w)
            }
            "field" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err("`field` needs a name".into()))?;
                let w: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("`field` needs a width".into()))?;
                b.microcode_field(name, w)
            }
            "buses" => {
                let mut b = b;
                for bus in tokens.by_ref() {
                    b = b.bus(bus);
                }
                b
            }
            "element" => {
                let kind = tokens
                    .next()
                    .ok_or_else(|| err("`element` needs a kind".into()))?;
                let mut params: Vec<(String, i64)> = Vec::new();
                for t in tokens.by_ref() {
                    let (k, v) = t
                        .split_once('=')
                        .ok_or_else(|| err(format!("bad parameter `{t}` (want k=v)")))?;
                    let v: i64 = v
                        .parse()
                        .map_err(|_| err(format!("bad parameter value `{t}`")))?;
                    params.push((k.to_owned(), v));
                }
                pending_elements += 1;
                let refs: Vec<(&str, i64)> =
                    params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                b.element(kind, &refs)
            }
            "break" => {
                if pending_elements == 0 {
                    return Err(err("`break` before any element".into()));
                }
                let bus = tokens
                    .next()
                    .ok_or_else(|| err("`break` needs a bus (A or B)".into()))?;
                let index = match bus {
                    "A" | "a" | "0" => 0,
                    "B" | "b" | "1" => 1,
                    other => return Err(err(format!("unknown bus `{other}`"))),
                };
                b.break_bus(index)
            }
            "flag" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err("`flag` needs a name".into()))?;
                let value = match tokens.next() {
                    Some("on" | "true" | "1") | None => true,
                    Some("off" | "false" | "0") => false,
                    Some(other) => return Err(err(format!("bad flag value `{other}`"))),
                };
                b.flag(name, value)
            }
            other => return Err(err(format!("unknown keyword `{other}`"))),
        };
        if let Some(extra) = tokens.next() {
            return Err(err(format!("trailing token `{extra}`")));
        }
        builder = Some(b);
    }
    let builder = builder.ok_or(ParsePageError::Line {
        line: 0,
        message: "no `chip` line".into(),
    })?;
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# the whole chip on one page
chip cpu16

field literal 8        # user field (section 1)
width 16               # section 2
buses A B

element inport         # section 3
element registers count=4
element shifter
break A
element alu
element outport

flag PROTOTYPE on
";

    #[test]
    fn parses_the_page() {
        let spec = parse_page(PAGE).unwrap();
        assert_eq!(spec.name, "cpu16");
        assert_eq!(spec.data_width, 16);
        assert_eq!(spec.user_fields, vec![("literal".to_string(), 8)]);
        assert_eq!(spec.elements.len(), 5);
        assert_eq!(spec.elements[1].params.get("count"), Some(&4));
        assert!(spec.elements[2].break_bus_a);
        assert_eq!(spec.flags.get("PROTOTYPE"), Some(&true));
    }

    #[test]
    fn parsed_page_compiles() {
        let spec = parse_page(PAGE).unwrap();
        let chip = crate::Compiler::new().compile(&spec).unwrap();
        assert!(chip.die_area() > 0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "chip x\nwidth 8\nelephant alu\n";
        match parse_page(bad) {
            Err(ParsePageError::Line { line: 3, message }) => {
                assert!(message.contains("elephant"));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_page("width 8\n"),
            Err(ParsePageError::Line { line: 1, .. })
        ));
        assert!(matches!(
            parse_page("chip x\nbreak A\nelement alu\n"),
            Err(ParsePageError::Line { line: 2, .. })
        ));
    }

    #[test]
    fn comments_and_flags() {
        let spec = parse_page("chip c # named c\nelement alu # the alu\nflag DEBUG off\n").unwrap();
        assert_eq!(spec.flags.get("DEBUG"), Some(&false));
    }

    #[test]
    fn spec_validation_propagates() {
        assert!(matches!(
            parse_page("chip c\nwidth 99\nelement alu\n"),
            Err(ParsePageError::Spec(SpecError::BadDataWidth(99)))
        ));
    }
}

//! Per-cell data for the non-layout representations.
//!
//! *"Every fundamental element in the Bristle Block system has the
//! capability of containing each of these seven representations for
//! itself."* — Johannsen, DAC 1979.
//!
//! The LAYOUT representation is the cell geometry itself; TRANSISTORS is
//! derived by extraction, and STICKS ([`Stick`] center-lines) is derived
//! from the chip's flat layout. The remaining representations carry
//! explicit per-cell data, stored here:
//!
//! * LOGIC — a TTL-style gate list,
//! * TEXT — prose for the hierarchical "user's manual",
//! * SIMULATION — the key of the behavioral model the chip's machine
//!   builds for the element,
//! * BLOCK — a display label for the block diagram.

use std::fmt;

use bristle_geom::{Layer, Point};

/// One stick: a single-width line on a layer, preserving layout topology
/// with all features reduced to center-lines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stick {
    /// Layer the stick abstracts.
    pub layer: Layer,
    /// Line start.
    pub from: Point,
    /// Line end.
    pub to: Point,
}

impl Stick {
    /// Creates a stick.
    #[must_use]
    pub fn new(layer: Layer, from: Point, to: Point) -> Stick {
        Stick { layer, from, to }
    }
}

impl fmt::Display for Stick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}–{}", self.layer, self.from, self.to)
    }
}

/// Gate kinds for the TTL-style LOGIC representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogicKind {
    /// AND gate.
    And,
    /// Exclusive-OR gate.
    Xor,
    /// Transmission / pass gate (control input first).
    Pass,
    /// Level-sensitive latch (enable input first).
    Latch,
}

impl LogicKind {
    /// All gate kinds.
    pub const ALL: [LogicKind; 4] = [
        LogicKind::And,
        LogicKind::Xor,
        LogicKind::Pass,
        LogicKind::Latch,
    ];
}

impl fmt::Display for LogicKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogicKind::And => "AND",
            LogicKind::Xor => "XOR",
            LogicKind::Pass => "PASS",
            LogicKind::Latch => "LATCH",
        };
        f.write_str(s)
    }
}

/// One gate in the LOGIC representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicGate {
    /// Gate kind.
    pub kind: LogicKind,
    /// Input net names, in gate-specific order.
    pub inputs: Vec<String>,
    /// Output net name.
    pub output: String,
}

impl LogicGate {
    /// Creates a gate.
    #[must_use]
    pub fn new(
        kind: LogicKind,
        inputs: impl IntoIterator<Item = impl Into<String>>,
        output: impl Into<String>,
    ) -> LogicGate {
        LogicGate {
            kind,
            inputs: inputs.into_iter().map(Into::into).collect(),
            output: output.into(),
        }
    }

    /// Evaluates the gate combinationally. `Pass` gates return the data
    /// input when the control input is true, else `None` (floating).
    /// `Latch` returns the data input when enabled, else `None`
    /// (hold — the caller keeps the previous value).
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Option<bool> {
        match self.kind {
            LogicKind::And => Some(inputs.iter().all(|&b| b)),
            LogicKind::Xor => Some(inputs.iter().filter(|&&b| b).count() % 2 == 1),
            LogicKind::Pass | LogicKind::Latch => {
                if inputs[0] {
                    Some(inputs[1])
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for LogicGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} <- {}", self.kind, self.output, self.inputs.join(", "))
    }
}

/// The per-cell bundle of non-layout representation data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellReprs {
    /// LOGIC: TTL-style gate list.
    pub logic: Vec<LogicGate>,
    /// TEXT: prose description for the "user's manual".
    pub doc: String,
    /// SIMULATION: key of the behavioral model (`bristle_sim::behaviors`)
    /// the chip's machine builds for the element whose first column this
    /// is; `None` for a cell with no model of its own, such as the bus
    /// precharge the bus model covers.
    pub behavior: Option<String>,
    /// BLOCK: display label in the block diagram.
    pub block_label: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_truth_tables() {
        let and = LogicGate::new(LogicKind::And, ["a", "b"], "y");
        assert_eq!(and.eval(&[true, true]), Some(true));
        assert_eq!(and.eval(&[true, false]), Some(false));
        let xor = LogicGate::new(LogicKind::Xor, ["a", "b"], "y");
        assert_eq!(xor.eval(&[true, false]), Some(true));
        assert_eq!(xor.eval(&[true, true]), Some(false));
        let latch = LogicGate::new(LogicKind::Latch, ["en", "d"], "q");
        assert_eq!(latch.eval(&[true, false]), Some(false));
        assert_eq!(latch.eval(&[false, true]), None);
    }

    #[test]
    fn pass_gate_floats_when_off() {
        let pass = LogicGate::new(LogicKind::Pass, ["en", "d"], "y");
        assert_eq!(pass.eval(&[true, true]), Some(true));
        assert_eq!(pass.eval(&[false, true]), None);
    }

    #[test]
    fn display_forms() {
        let g = LogicGate::new(LogicKind::Xor, ["p", "q"], "out");
        assert_eq!(g.to_string(), "XOR out <- p, q");
        let s = Stick::new(Layer::Poly, Point::new(0, 0), Point::new(0, 8));
        assert_eq!(s.to_string(), "NP (0, 0)–(0, 8)");
    }
}

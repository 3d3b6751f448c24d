//! The two-tape Turing machine of Pass 2.
//!
//! *"A two-tape Turing machine operates on one 'tape', which contains the
//! text array, and writes the second 'tape', producing compiled silicon
//! code."* — Johannsen, DAC 1979.
//!
//! We take the paper at its word: [`TwoTapeMachine`] is a machine with an
//! input tape (the serialized text array), an output tape (*silicon
//! code*: PLA programming commands), a single scanning head per tape and
//! a finite control. Its one genuinely Turing-ish trick is **term
//! sharing**: before emitting a product term it rewinds the output head
//! and scans the already-written tape for an identical term, emitting a
//! back-reference instead of a duplicate — the decoder optimization the
//! paper credits to this machine, and the only one the compiler runs.

use std::fmt;

use crate::pla::Pla;
use crate::spec::{Cube, DecodeSpec};

/// Symbols on either tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeSymbol {
    /// Input-tape: start of a decode line with its output name.
    Line(String),
    /// Input-tape: a cube (care, value).
    Cube(u64, u64),
    /// Input-tape / output-tape: end of data.
    End,
    /// Output-tape: define a new product term row.
    EmitTerm(u64, u64),
    /// Output-tape: connect the most recent line's buffer to term `k`
    /// (an OR-plane programming command).
    Connect(usize),
    /// Output-tape: begin the OR-plane column for a named output.
    BeginOutput(String),
}

impl fmt::Display for TapeSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeSymbol::Line(n) => write!(f, "LINE {n}"),
            TapeSymbol::Cube(c, v) => write!(f, "CUBE {c:x}/{v:x}"),
            TapeSymbol::End => f.write_str("END"),
            TapeSymbol::EmitTerm(c, v) => write!(f, "TERM {c:x}/{v:x}"),
            TapeSymbol::Connect(k) => write!(f, "CONNECT {k}"),
            TapeSymbol::BeginOutput(n) => write!(f, "OUTPUT {n}"),
        }
    }
}

/// The two-tape machine.
#[derive(Debug)]
pub struct TwoTapeMachine {
    input: Vec<TapeSymbol>,
    input_head: usize,
    output: Vec<TapeSymbol>,
    halted: bool,
    /// Steps executed (for the compile-time bench).
    steps: u64,
}

impl TwoTapeMachine {
    /// Loads the input tape with a serialized text array.
    #[must_use]
    pub fn new(spec: &DecodeSpec) -> TwoTapeMachine {
        let mut input = Vec::new();
        for line in spec.lines() {
            input.push(TapeSymbol::Line(line.name.clone()));
            input.push(TapeSymbol::Cube(line.cube.care, line.cube.value));
        }
        input.push(TapeSymbol::End);
        TwoTapeMachine {
            input,
            input_head: 0,
            output: Vec::new(),
            halted: false,
            steps: 0,
        }
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True once the machine has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Scan-back on the output tape: `Ok` with the index of an existing
    /// identical term, or `Err` with the number of terms on the tape,
    /// which is the index a new term gets. Every cell visited costs a
    /// step, exactly as a physical head would.
    fn scan_back_for_term(&mut self, care: u64, value: u64) -> Result<usize, usize> {
        let mut term_index = 0usize;
        for sym in &self.output {
            self.steps += 1;
            if let TapeSymbol::EmitTerm(c, v) = *sym {
                if c == care && v == value {
                    return Ok(term_index);
                }
                term_index += 1;
            }
        }
        Err(term_index)
    }

    /// Executes one transition. Returns `false` once halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        self.steps += 1;
        let sym = self.input.get(self.input_head).cloned();
        self.input_head += 1;
        match sym {
            Some(TapeSymbol::Line(name)) => self.output.push(TapeSymbol::BeginOutput(name)),
            Some(TapeSymbol::Cube(care, value)) => {
                let term = match self.scan_back_for_term(care, value) {
                    Ok(k) => k,
                    Err(k) => {
                        self.output.push(TapeSymbol::EmitTerm(care, value));
                        k
                    }
                };
                self.output.push(TapeSymbol::Connect(term));
            }
            // `End`: `new` writes only a `Line` and its `Cube` per decode
            // line, then `End`, so no other symbol reaches this arm.
            _ => {
                self.output.push(TapeSymbol::End);
                self.halted = true;
            }
        }
        !self.halted
    }

    /// Runs to halt.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Loads the output tape into a [`Pla`] personality.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not halted.
    #[must_use]
    pub fn load_output(&self, inputs: u32) -> Pla {
        assert!(self.halted(), "machine still running");
        let mut terms: Vec<Cube> = Vec::new();
        let mut outputs: Vec<(String, Vec<usize>)> = Vec::new();
        for sym in &self.output {
            match sym {
                TapeSymbol::EmitTerm(care, value) => terms.push(Cube {
                    care: *care,
                    value: *value,
                }),
                TapeSymbol::BeginOutput(name) => outputs.push((name.clone(), Vec::new())),
                TapeSymbol::Connect(k) => {
                    outputs
                        .last_mut()
                        .expect("CONNECT before OUTPUT")
                        .1
                        .push(*k);
                }
                TapeSymbol::End => break,
                _ => {}
            }
        }
        Pla::from_parts(inputs, terms, outputs)
    }
}

/// Runs the whole Pass-2 pipeline: serializes the text array onto the
/// input tape, runs the machine to halt and loads the silicon-code tape.
/// Returns the PLA, whose identical terms the machine's scan-back has
/// shared, and the machine's step count.
#[must_use]
pub fn compile_on_tape(spec: &DecodeSpec) -> (Pla, u64) {
    let mut machine = TwoTapeMachine::new(spec);
    machine.run();
    (machine.load_output(spec.inputs()), machine.steps())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(care: u64, value: u64) -> Cube {
        Cube { care, value }
    }

    /// The value of output `name` for `word`; `None` if no such output.
    fn output(pla: &Pla, word: u64, name: &str) -> Option<bool> {
        pla.eval(word).into_iter().find(|(n, _)| n == name).map(|(_, b)| b)
    }

    #[test]
    fn machine_compiles_simple_spec() {
        let mut spec = DecodeSpec::new(4);
        spec.add_line("a", cube(0b11, 0b01));
        spec.add_line("b", cube(0b11, 0b10));
        let (pla, steps) = compile_on_tape(&spec);
        assert!(steps > 0);
        assert_eq!(output(&pla, 0b01, "a"), Some(true));
        assert_eq!(output(&pla, 0b01, "b"), Some(false));
        assert_eq!(output(&pla, 0b10, "b"), Some(true));
    }

    #[test]
    fn scan_back_shares_terms() {
        let mut spec = DecodeSpec::new(4);
        spec.add_line("a", cube(0b11, 0b01));
        spec.add_line("b", cube(0b11, 0b01)); // identical cube
        let mut m = TwoTapeMachine::new(&spec);
        m.run();
        let emits = m
            .output
            .iter()
            .filter(|s| matches!(s, TapeSymbol::EmitTerm(..)))
            .count();
        assert_eq!(emits, 1, "identical terms must share one row: {:?}", m.output);
        let pla = m.load_output(4);
        assert_eq!(pla.terms().len(), 1);
        assert_eq!(output(&pla, 0b01, "a"), Some(true));
        assert_eq!(output(&pla, 0b01, "b"), Some(true));
    }

    #[test]
    fn tape_machine_equivalent_to_direct() {
        let mut spec = DecodeSpec::new(6);
        spec.add_line("x", cube(0b111, 0b101));
        spec.add_line("y", cube(0b111, 0b101));
        spec.add_line("z", cube(0b111, 0b111));
        spec.add_line("w", cube(0, 0));
        let (pla, _) = compile_on_tape(&spec);
        let direct = spec.to_pla();
        assert!(pla.equivalent(&direct, 12));
    }

    #[test]
    fn halting_and_output_tape_shape() {
        let mut spec = DecodeSpec::new(2);
        spec.add_line("only", cube(0b1, 0b1));
        let mut m = TwoTapeMachine::new(&spec);
        assert!(!m.halted());
        m.run();
        assert!(m.halted());
        assert!(!m.step(), "halted machine must not step");
        let tape = m.output;
        assert!(matches!(tape[0], TapeSymbol::BeginOutput(ref n) if n == "only"));
        assert!(matches!(tape[1], TapeSymbol::EmitTerm(0b1, 0b1)));
        assert!(matches!(tape[2], TapeSymbol::Connect(0)));
        assert!(matches!(tape.last(), Some(TapeSymbol::End)));
    }

    #[test]
    fn empty_spec_halts_cleanly() {
        let spec = DecodeSpec::new(2);
        let (pla, _) = compile_on_tape(&spec);
        assert_eq!(pla.outputs().len(), 0);
        assert_eq!(pla.terms().len(), 0);
    }

    #[test]
    fn display_symbols() {
        assert_eq!(TapeSymbol::Line("x".into()).to_string(), "LINE x");
        assert_eq!(TapeSymbol::Connect(3).to_string(), "CONNECT 3");
    }
}

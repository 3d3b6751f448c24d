//! The PLA personality.

use std::fmt;

use crate::spec::Cube;

/// Size/effort statistics of a PLA, used by the decoder-optimization
/// ablation (experiment A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaStats {
    /// Microcode input bits (before trimming).
    pub inputs: u32,
    /// Input bits actually used by some term.
    pub used_inputs: u32,
    /// Product terms (AND-plane rows).
    pub terms: usize,
    /// Output lines.
    pub outputs: usize,
    /// Programmed AND-plane crossings.
    pub and_sites: usize,
    /// Programmed OR-plane crossings.
    pub or_sites: usize,
}

impl PlaStats {
    /// A crude area figure: (2·inputs + outputs) columns × terms rows —
    /// proportional to the silicon the layout generator will draw.
    #[must_use]
    pub fn grid_area(&self) -> usize {
        (2 * self.used_inputs as usize + self.outputs) * self.terms
    }
}

impl fmt::Display for PlaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} terms × ({} inputs, {} outputs); {} AND + {} OR sites",
            self.terms, self.used_inputs, self.outputs, self.and_sites, self.or_sites
        )
    }
}

/// A programmable logic array personality: shared product terms in the
/// AND plane, output membership in the OR plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pla {
    inputs: u32,
    terms: Vec<Cube>,
    /// `(output name, indices into terms)`.
    outputs: Vec<(String, Vec<usize>)>,
}

impl Pla {
    /// Assembles a PLA from parts.
    ///
    /// # Panics
    ///
    /// Panics if an output references a missing term.
    #[must_use]
    pub fn from_parts(inputs: u32, terms: Vec<Cube>, outputs: Vec<(String, Vec<usize>)>) -> Pla {
        for (name, ids) in &outputs {
            for &id in ids {
                assert!(id < terms.len(), "output `{name}` references term {id}");
            }
        }
        Pla {
            inputs,
            terms,
            outputs,
        }
    }

    /// Input word width.
    #[must_use]
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// The product terms.
    #[must_use]
    pub fn terms(&self) -> &[Cube] {
        &self.terms
    }

    /// The outputs: `(name, term indices)`.
    #[must_use]
    pub fn outputs(&self) -> &[(String, Vec<usize>)] {
        &self.outputs
    }

    /// Evaluates all outputs for a word.
    #[must_use]
    pub fn eval(&self, word: u64) -> Vec<(String, bool)> {
        let fired: Vec<bool> = self.terms.iter().map(|t| t.matches(word)).collect();
        self.outputs
            .iter()
            .map(|(name, ids)| (name.clone(), ids.iter().any(|&i| fired[i])))
            .collect()
    }

    /// Statistics for ablation A3 and the benchmark's `pla.terms`.
    #[must_use]
    pub fn stats(&self) -> PlaStats {
        let used_mask = self.terms.iter().fold(0u64, |m, t| m | t.care);
        let and_sites = self
            .terms
            .iter()
            .map(|t| t.care.count_ones() as usize)
            .sum();
        let or_sites = self.outputs.iter().map(|(_, ids)| ids.len()).sum();
        PlaStats {
            inputs: self.inputs,
            used_inputs: used_mask.count_ones(),
            terms: self.terms.len(),
            outputs: self.outputs.len(),
            and_sites,
            or_sites,
        }
    }

    /// The input bits actually used, LSB-first.
    #[must_use]
    pub fn used_input_bits(&self) -> Vec<u32> {
        let used_mask = self.terms.iter().fold(0u64, |m, t| m | t.care);
        (0..self.inputs).filter(|&b| used_mask >> b & 1 == 1).collect()
    }

    /// Exhaustively verifies functional equivalence with another PLA over
    /// all words of the used input bits.
    ///
    /// To stay tractable the check enumerates the union of both PLAs'
    /// *used* bits (≤ `max_bits`, default-cap 24) and fixes unused bits
    /// to zero — sound because unused bits cannot affect either function.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_bits` input bits are in use.
    #[must_use]
    pub fn equivalent(&self, other: &Pla, max_bits: u32) -> bool {
        if self.inputs != other.inputs {
            return false;
        }
        let names_a: Vec<&String> = self.outputs.iter().map(|(n, _)| n).collect();
        let names_b: Vec<&String> = other.outputs.iter().map(|(n, _)| n).collect();
        if names_a != names_b {
            return false;
        }
        let used = self.terms.iter().chain(other.terms.iter()).fold(0u64, |m, t| m | t.care);
        let bits: Vec<u32> = (0..64).filter(|&b| used >> b & 1 == 1).collect();
        assert!(
            bits.len() as u32 <= max_bits,
            "{} used bits exceed equivalence budget {max_bits}",
            bits.len()
        );
        for combo in 0u64..(1 << bits.len()) {
            let mut word = 0u64;
            for (i, &b) in bits.iter().enumerate() {
                if combo >> i & 1 == 1 {
                    word |= 1 << b;
                }
            }
            if self.eval(word) != other.eval(word) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Pla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PLA {}", self.stats())?;
        for (i, t) in self.terms.iter().enumerate() {
            let users: Vec<&str> = self
                .outputs
                .iter()
                .filter(|(_, ids)| ids.contains(&i))
                .map(|(n, _)| n.as_str())
                .collect();
            writeln!(f, "  t{i}: {t} -> {}", users.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DecodeSpec;

    fn cube(care: u64, value: u64) -> Cube {
        Cube { care, value }
    }

    fn sample_spec() -> DecodeSpec {
        let mut s = DecodeSpec::new(4);
        // Two lines with the identical cube, plus a third line.
        s.add_line("x", cube(0b0011, 0b0001));
        s.add_line("y", cube(0b0011, 0b0001));
        s.add_line("z", cube(0b0011, 0b0010));
        s
    }

    #[test]
    fn eval_matches_spec() {
        let pla = sample_spec().to_pla();
        let output = |word, name: &str| {
            pla.eval(word).into_iter().find(|(n, _)| n == name).map(|(_, b)| b)
        };
        assert_eq!(output(0b0001, "x"), Some(true));
        assert_eq!(output(0b0001, "y"), Some(true));
        assert_eq!(output(0b0001, "z"), Some(false));
        assert_eq!(output(0b0000, "z"), Some(false));
        assert_eq!(output(0b0010, "z"), Some(true));
        assert_eq!(output(0, "ghost"), None);
    }

    #[test]
    fn stats_and_grid_area() {
        let pla = sample_spec().to_pla();
        let st = pla.stats();
        assert_eq!(st.terms, 3);
        assert_eq!(st.outputs, 3);
        assert_eq!(st.used_inputs, 2);
        assert_eq!(st.grid_area(), (2 * 2 + 3) * 3);
    }

    #[test]
    fn inequivalent_detected() {
        let mut a = DecodeSpec::new(4);
        a.add_line("o", cube(0b1, 0b1));
        let mut b = DecodeSpec::new(4);
        b.add_line("o", cube(0b1, 0b0));
        assert!(!a.to_pla().equivalent(&b.to_pla(), 8));
    }

    #[test]
    fn used_input_bits() {
        let pla = sample_spec().to_pla();
        assert_eq!(pla.used_input_bits(), vec![0, 1]);
    }
}

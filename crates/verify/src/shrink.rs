//! Shrinking failing runs to minimal reproducers.
//!
//! Strategy (greedy, budgeted, always re-validated by a fresh run from
//! power-on):
//!
//! 1. **Truncate the program** to end right after the first divergent
//!    cycle — program generation is prefix-stable, so truncation never
//!    changes the cycles that remain.
//! 2. **Drop leading cycles** one at a time while the failure persists.
//! 3. **Drop elements** from the spec, one at a time (the program is
//!    regenerated from the same seed against each candidate spec).
//! 4. **Reduce the data width** toward 2 bits.
//!
//! Each accepted step restarts the scan; the loop stops at a fixpoint
//! or when the run budget is exhausted. The result carries the exact
//! spec, seed and cycle count needed to replay the failure.

use std::fmt;

use bristle_core::{ChipSpec, ElementSpec};

use crate::cosim::{CosimError, Divergence, Prepared};
use crate::fault::Fault;
use crate::program::Program;

/// A shrunk failing case, replayable from (spec, seed, cycles).
#[derive(Debug, Clone)]
pub struct MinimalRepro {
    /// The minimal chip spec that still fails.
    pub spec: ChipSpec,
    /// Program seed.
    pub seed: u64,
    /// Cycles to run.
    pub cycles: usize,
    /// How many leading cycles of the generated program are skipped.
    pub skip: usize,
    /// The divergence the minimal case produces.
    pub divergence: Divergence,
    /// Co-simulation runs the shrinker spent.
    pub runs: usize,
}

impl fmt::Display for MinimalRepro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "minimal reproducer ({} shrink runs):", self.runs)?;
        // `program_seed` is NOT the BRISTLE_VERIFY_SEED case seed: replay
        // by regenerating `Program::random(&spec, program_seed, skip +
        // cycles)`, draining `skip` cycles, and running against `spec`.
        writeln!(
            f,
            "  program_seed={} cycles={} skip={}",
            self.seed, self.cycles, self.skip
        )?;
        writeln!(f, "  {}", self.divergence)?;
        write!(f, "  {}", self.spec)
    }
}

/// Builds the candidate program for a spec: generate from the seed, drop
/// `skip` leading cycles, keep `cycles`.
fn candidate_program(spec: &ChipSpec, seed: u64, skip: usize, cycles: usize) -> Program {
    let mut p = Program::random(spec, seed, skip + cycles);
    p.cycles.drain(..skip.min(p.cycles.len()));
    p
}

/// Rebuilds a spec with the given elements, carrying over everything
/// else (data width unless overridden, user microcode fields, flags
/// such as `PROTOTYPE`).
fn rebuild(spec: &ChipSpec, width: u32, elements: Vec<ElementSpec>) -> Option<ChipSpec> {
    let mut b = ChipSpec::builder(spec.name.clone()).data_width(width);
    for (name, w) in &spec.user_fields {
        b = b.microcode_field(name.clone(), *w);
    }
    for (name, value) in &spec.flags {
        b = b.flag(name.clone(), *value);
    }
    for e in elements {
        b = b.push_element(e);
    }
    b.build().ok()
}

fn spec_without(spec: &ChipSpec, drop: usize) -> Option<ChipSpec> {
    if spec.elements.len() <= 1 {
        return None;
    }
    let elements: Vec<ElementSpec> = spec
        .elements
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != drop)
        .map(|(_, e)| e.clone())
        .collect();
    // The program generator needs an inport and a register bank.
    if !elements.iter().any(|e| e.kind == "inport")
        || !elements.iter().any(|e| e.kind == "registers")
    {
        return None;
    }
    rebuild(spec, spec.data_width, elements)
}

fn spec_with_width(spec: &ChipSpec, width: u32) -> Option<ChipSpec> {
    rebuild(spec, width, spec.elements.clone())
}

/// Shrinks a failing (spec, program-seed, fault) case to a minimal
/// reproducer. `budget` bounds the number of co-simulation runs.
///
/// The accepted spec stays [`Prepared`]: truncating the program and
/// dropping leading cycles rerun it without recompiling, and only an
/// element-drop or width candidate is compiled afresh. A candidate that
/// fails to compile counts as a run that did not reproduce.
///
/// Returns `None` if the initial case does not actually diverge.
#[must_use]
pub fn shrink(
    spec: &ChipSpec,
    seed: u64,
    cycles: usize,
    fault: Option<&Fault>,
    budget: usize,
) -> Option<MinimalRepro> {
    let runs = std::cell::Cell::new(0usize);
    let check = |prepared: &Prepared, skip: usize, cycles: usize| -> Option<Divergence> {
        runs.set(runs.get() + 1);
        let program = candidate_program(&prepared.chip().spec, seed, skip, cycles);
        if program.cycles.is_empty() {
            return None;
        }
        match prepared.run(&program) {
            Err(CosimError::Diverged(d)) => Some(d),
            // Bridge or machine errors on a candidate mean the candidate
            // is not a valid reproducer, not that the bug is gone.
            _ => None,
        }
    };
    let check_spec = |spec: &ChipSpec, skip: usize, cycles: usize| {
        let Ok(prepared) = Prepared::new(spec, fault) else {
            runs.set(runs.get() + 1);
            return None;
        };
        check(&prepared, skip, cycles).map(|d| (prepared, d))
    };

    let (mut best, mut divergence) = check_spec(spec, 0, cycles)?;
    let mut skip = 0usize;
    let mut best_cycles = cycles;
    // 1. Truncate to the first divergent cycle.
    if divergence.cycle + 1 < best_cycles {
        if let Some(d) = check(&best, 0, divergence.cycle + 1) {
            best_cycles = divergence.cycle + 1;
            divergence = d;
        }
    }

    let mut improved = true;
    while improved && runs.get() < budget {
        improved = false;
        // 2. Drop leading cycles.
        while best_cycles > 1 && runs.get() < budget {
            if let Some(d) = check(&best, skip + 1, best_cycles - 1) {
                skip += 1;
                best_cycles -= 1;
                divergence = d;
                improved = true;
            } else {
                break;
            }
        }
        // 3. Drop elements.
        let mut i = 0;
        while i < best.chip().spec.elements.len() && runs.get() < budget {
            if let Some(candidate) = spec_without(&best.chip().spec, i) {
                if let Some((p, d)) = check_spec(&candidate, skip, best_cycles) {
                    (best, divergence) = (p, d);
                    improved = true;
                    continue; // same index now names the next element
                }
            }
            i += 1;
        }
        // 4. Reduce width: accept the smallest width (tried ascending
        // from 2) that still fails.
        for w in 2..best.chip().spec.data_width {
            if runs.get() >= budget {
                break;
            }
            let Some(candidate) = spec_with_width(&best.chip().spec, w) else {
                continue;
            };
            if let Some((p, d)) = check_spec(&candidate, skip, best_cycles) {
                (best, divergence) = (p, d);
                improved = true;
                break;
            }
        }
    }

    Some(MinimalRepro {
        spec: best.chip().spec.clone(),
        seed,
        cycles: best_cycles,
        skip,
        divergence,
        runs: runs.get(),
    })
}

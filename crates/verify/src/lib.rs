//! # bristle-verify
//!
//! Differential verification of the silicon compiler: randomized chip
//! specs are compiled through the **full pipeline** (compile → layout →
//! extract), the extracted transistor netlist is loaded into the
//! switch-level simulator, and the silicon is co-simulated against the
//! functional [`bristle_sim::Machine`] under identical randomized
//! microcode programs, asserting bus / register / pad equivalence every
//! clock cycle.
//!
//! The paper's SIMULATION representation exists *"so that software can be
//! written for the chip to explore the feasibility of the design"* — this
//! crate closes the loop in the other direction: it checks that the
//! compiled silicon actually implements that functional model.
//!
//! A verdict has two steps. [`Prepared::new`] compiles, extracts and
//! (optionally) faults a spec once; [`Prepared::run`] co-simulates one
//! program from power-on, and may be called for any number of programs.
//! [`run_cosim`]/[`run_cosim_with`] do both in one call, and [`shrink()`]
//! keeps the accepted spec prepared while it shortens the program.
//!
//! ## The equivalence relation
//!
//! The compiled nMOS core is compared against the machine by direct
//! equality, checked in [`cosim`] on the netlist extracted from the
//! emitted layout:
//!
//! * **Storage is direct:** a register's `storeA`/`storeB` plates, a RAM
//!   word's `cell` plates and a stack level's `level` plates hold exactly
//!   the machine's word (writes are non-inverting pass gates from bus A),
//!   so plate words must equal `Machine` state after every cycle. This is
//!   the strongest end-to-end check: it covers the write path, charge
//!   retention across arbitrarily many cycles and freedom from disturbs.
//! * **Reads are direct:** each storage plate drives a restoring
//!   inverter whose output gates the read chain, so a read discharges a
//!   precharged bus bit exactly where the stored bit is **0**. Several
//!   drivers wire-AND (`AND(rᵢ)`), which is the functional model's bus
//!   convention, so the settled φ1 buses must equal the machine's buses
//!   bit for bit.
//! * **Port transfers are direct:** an input port passes its pad word
//!   onto bus A unmodified, and an output port samples bus A onto its
//!   pad wire, so output pads must equal the machine's pads.
//! * **Precharge:** after every φ2 both buses must read all-ones.
//!
//! Programs cover the transfer-faithful subset the cell library
//! physically implements: register reads and loads, RAM reads and
//! `selw`-gated writes, sp-decoded stack pushes and pops, port in/out
//! and wired multi-driver reads. RAM and stack co-simulate actively;
//! ALU and shifter columns ride along as passive layout. Divergences
//! shrink to a minimal reproducer ([`shrink()`]) before being reported.
//!
//! ## Reproducing a failure
//!
//! Every generated spec and program derives from a single `u64` seed.
//! A CI failure report prints the seed; rerun locally with
//! `BRISTLE_VERIFY_SEED=<seed> cargo test --release --test differential`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod fault;
pub mod program;
pub mod shrink;
pub mod specgen;

pub use cosim::{run_cosim, run_cosim_with, CosimError, CosimStats, Divergence, Prepared};
pub use fault::Fault;
pub use program::{Cycle, Program};
pub use shrink::{shrink, MinimalRepro};
pub use specgen::SpecGen;

/// Deterministic xorshift64* PRNG — the same dependency-free generator
/// the workspace's property tests use, so seeds mean the same thing
/// everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (zero is mapped to one).
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    /// Next raw 64-bit value.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[lo, hi)` over `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next() % (hi - lo)
    }

    /// Bernoulli draw: true with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
            let u = r.range_u64(0, 5);
            assert!(u < 5);
        }
    }
}

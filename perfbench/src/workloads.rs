//! The four workloads. Each is a closed loop: one caller issues ops back
//! to back. Inputs derive from the seed and are built in set-up (the
//! `fuzz` and `shrink` generators also build cases on demand, outside
//! the timed op).
//!
//! * `masks` — the designer's edit-to-signoff loop: compile a spec, emit
//!   all seven representations, run top-cell DRC. Inputs are the four
//!   reference chips plus one seeded small `SpecGen::random_spec` draw.
//! * `fuzz` — CI differential traffic: distinct `random_cosim_spec`
//!   seeds, one 18-cycle `run_cosim` each.
//! * `soak` — three wide co-sim chips run for 1000 cycles each, so the
//!   switch-level simulator carries the time.
//! * `shrink` — fresh (spec, fault, program) triples known to diverge,
//!   each shrunk to a minimal reproducer; the only workload that compiles
//!   and extracts the same spec many times.

use std::rc::Rc;

use bristle_cif::{cif_to_library, parse_cif};
use bristle_core::{ChipSpec, CompiledChip, Compiler, ElementSpec};
use bristle_drc::{check_hierarchical, Report, RuleSet};
use bristle_extract::{extract, extract_reference, Netlist};
use bristle_verify::{
    run_cosim, run_cosim_with, shrink, CosimError, CosimStats, Fault, MinimalRepro, Program, Rng,
    SpecGen,
};

use crate::replay::replay;
use crate::trace::Tracer;

/// Exact counts an op produced, compared across repeats of one input.
pub type Counts = Vec<(&'static str, i64)>;

/// One workload: its inputs, its timed op and the untimed checks.
pub trait Workload {
    type Input;
    type Out;
    /// The input of op `i` with a key naming the distinct input.
    fn input(&self, i: usize) -> (usize, Rc<Self::Input>);
    /// The timed op. With an enabled tracer it records spans.
    fn op(&self, input: &Self::Input, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// Untimed output checks; `first` is set on the input's first op.
    fn check(&self, input: &Self::Input, out: &Self::Out, first: bool) -> Result<(), String>;
    /// Exact counts of the output.
    fn counts(&self, out: &Self::Out) -> Counts;
    /// Units of the workload's work the op did (mask shapes, simulated
    /// cycles or co-sim runs).
    fn work(&self, out: &Self::Out) -> f64;
    /// The specs whose die areas the workload reports.
    fn area_specs(&self) -> Vec<ChipSpec>;
}

/// Records the compile-side per-layer counters of a traced op.
pub fn record_compile(chip: &CompiledChip, tr: &mut Tracer) {
    if !tr.enabled() {
        return;
    }
    tr.add("core.pass1_ms", chip.timings.core.as_secs_f64() * 1e3);
    tr.add("core.pass2_ms", chip.timings.control.as_secs_f64() * 1e3);
    tr.add("core.pass3_ms", chip.timings.pads.as_secs_f64() * 1e3);
    let stats = tr.span("pla", "", || chip.pla.stats());
    tr.add("pla.terms", stats.terms as f64);
    tr.add("pla.tape_steps", chip.tape_steps as f64);
}

fn element(kind: &str, params: &[(&str, i64)]) -> ElementSpec {
    ElementSpec {
        kind: kind.to_owned(),
        params: params.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        break_bus_a: false,
        break_bus_b: false,
    }
}

fn compile(spec: &ChipSpec) -> Result<CompiledChip, String> {
    Compiler::new()
        .compile(spec)
        .map_err(|e| format!("{}: compile: {e}", spec.name))
}

// ---------------------------------------------------------------- masks

/// Largest core (in flattened shapes) whose netlist is compared against
/// the naive `extract_reference` oracle; the oracle is quadratic.
const ORACLE_SHAPE_CAP: usize = 6000;

pub struct Masks {
    specs: Vec<Rc<ChipSpec>>,
    rules: RuleSet,
}

pub struct MasksOut {
    chip: CompiledChip,
    cif: String,
    flat_shapes: usize,
    top: Netlist,
    drc: Report,
}

impl Masks {
    pub fn setup(seed: u64, tiny: bool) -> Result<Masks, String> {
        let mut specs = bristle_bench::reference_specs();
        if tiny {
            specs.truncate(1);
        }
        // A small full-diversity draw adds coverage without moving the
        // metrics, which the reference chips set: it has at most half
        // the flattened shapes of the second-smallest reference chip
        // (alu8), so it stays cheaper and the median op is alu8 and the
        // 90th percentile cpu16 whatever the seed.
        let shapes = |s: &ChipSpec| compile(s).map(|c| c.lib.flatten_shared(c.top).len());
        let cap = shapes(&specs[specs.len().min(2) - 1])? / 2;
        let mut rng = Rng::new(seed ^ 0x6D61_736B);
        let draw = loop {
            let s = SpecGen::random_spec(&mut rng, &format!("rand{seed}"));
            if s.data_width <= 4 && s.elements.len() <= 2 && shapes(&s)? <= cap {
                break s;
            }
        };
        specs.push(draw);
        Ok(Masks {
            specs: specs.into_iter().map(Rc::new).collect(),
            rules: RuleSet::mead_conway(),
        })
    }
}

impl Workload for Masks {
    type Input = ChipSpec;
    type Out = MasksOut;

    fn input(&self, i: usize) -> (usize, Rc<ChipSpec>) {
        let k = i % self.specs.len();
        (k, Rc::clone(&self.specs[k]))
    }

    fn op(&self, spec: &ChipSpec, tr: &mut Tracer) -> Result<MasksOut, String> {
        let chip = tr.span("core", "core.compile_ms", || compile(spec))?;
        record_compile(&chip, tr);
        let flat_shapes = tr.span("cell", "cell.flatten_cold_ms", || {
            chip.lib.flatten_shared(chip.top).len()
        });
        let cif = tr
            .span("cif", "cif.cif_ms", || chip.layout_cif())
            .map_err(|e| format!("{}: CIF: {e}", spec.name))?;
        let svg = tr.span("cif", "cif.svg_ms", || chip.layout_svg());
        let sticks = tr.span("core", "core.sticks_ms", || chip.sticks_svg());
        let top = tr.span("extract", "extract.top_ms", || chip.transistors());
        tr.span("core", "core.reprs_other_ms", || {
            std::hint::black_box(chip.logic());
            std::hint::black_box(chip.text_manual());
            std::hint::black_box(chip.block_physical());
            std::hint::black_box(chip.block_logical());
            chip.simulation().map(std::hint::black_box)
        })
        .map_err(|e| format!("{}: simulation: {e}", spec.name))?;
        let drc = tr.span("drc", "drc.top_ms", || {
            check_hierarchical(&chip.lib, chip.top, &self.rules)
        });
        std::hint::black_box((svg, sticks));
        tr.add("cell.flat_shapes", flat_shapes as f64);
        tr.add("cif.bytes", cif.len() as f64);
        tr.add("extract.top_nets", top.net_count() as f64);
        tr.add("extract.top_devices", top.transistors.len() as f64);
        tr.add("drc.checked_pairs", drc.checked_pairs as f64);
        tr.add("drc.violations", drc.violations.len() as f64);
        Ok(MasksOut {
            chip,
            cif,
            flat_shapes,
            top,
            drc,
        })
    }

    fn check(&self, spec: &ChipSpec, out: &MasksOut, first: bool) -> Result<(), String> {
        if !first {
            // Repeats are checked through their counts, which include a
            // hash of the CIF text.
            return Ok(());
        }
        let chip = &out.chip;
        let back = parse_cif(&out.cif)
            .and_then(|f| cif_to_library(&f))
            .map_err(|e| format!("{}: CIF does not parse back: {e}", spec.name))?;
        let name = chip.lib.cell(chip.top).name();
        let top = back
            .find(name)
            .ok_or_else(|| format!("{}: top cell `{name}` lost in CIF", spec.name))?;
        if back.bbox(top) != Some(chip.die_bbox) {
            return Err(format!(
                "{}: CIF round trip changed the die bbox",
                spec.name
            ));
        }
        if back.flatten_shared(top).len() != out.flat_shapes {
            return Err(format!(
                "{}: CIF round trip changed the shape count",
                spec.name
            ));
        }
        if chip.lib.flatten_shared(chip.core_cell).len() <= ORACLE_SHAPE_CAP {
            let fast = extract(&chip.lib, chip.core_cell);
            let slow = extract_reference(&chip.lib, chip.core_cell);
            if fast != slow {
                return Err(format!(
                    "{}: core netlist differs from the oracle",
                    spec.name
                ));
            }
        }
        Ok(())
    }

    fn counts(&self, out: &MasksOut) -> Counts {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        out.cif.hash(&mut h);
        vec![
            ("die_area", out.chip.die_area()),
            ("pla.tape_steps", out.chip.tape_steps as i64),
            ("cell.flat_shapes", out.flat_shapes as i64),
            ("cif.hash", h.finish() as i64),
            ("extract.top_nets", out.top.net_count() as i64),
            ("extract.top_devices", out.top.transistors.len() as i64),
            ("drc.violations", out.drc.violations.len() as i64),
            ("drc.checked_pairs", out.drc.checked_pairs as i64),
        ]
    }

    fn work(&self, out: &MasksOut) -> f64 {
        out.flat_shapes as f64
    }

    /// The reference chips: the seeded draw would make the area depend
    /// on the seed.
    fn area_specs(&self) -> Vec<ChipSpec> {
        let refs = &self.specs[..self.specs.len() - 1];
        refs.iter().map(|s| (**s).clone()).collect()
    }
}

// ------------------------------------------------------- fuzz and soak

/// One differential case: a spec and the program to run on it.
pub struct Case {
    spec: ChipSpec,
    program: Program,
}

fn cosim_op(case: &Case, tr: &mut Tracer) -> Result<CosimStats, String> {
    if tr.enabled() {
        let st = replay(&case.spec, &case.program, tr)?;
        tr.add("verify.checks", st.checks as f64);
        Ok(st)
    } else {
        run_cosim(&case.spec, &case.program).map_err(|e| format!("{}: {e}", case.spec.name))
    }
}

fn cosim_check(case: &Case, st: &CosimStats) -> Result<(), String> {
    let cycles = case.program.cycles.len();
    if st.cycles != cycles || st.checks < 4 * cycles {
        return Err(format!(
            "{}: {} checks over {} cycles (want {cycles} cycles, at least {} checks)",
            case.spec.name,
            st.checks,
            st.cycles,
            4 * cycles
        ));
    }
    Ok(())
}

fn cosim_counts(st: &CosimStats) -> Counts {
    vec![
        ("cycles", st.cycles as i64),
        ("extract.core_nets", st.nets as i64),
        ("extract.core_devices", st.transistors as i64),
        ("verify.checks", st.checks as i64),
    ]
}

/// Cycles per `fuzz` verdict, as in the pinned differential suite.
const FUZZ_CYCLES: usize = 18;
/// Cases built in set-up; later ones are built on demand, untimed.
const FUZZ_POOL: usize = 2048;
/// Co-sim specs whose die areas `fuzz` and `shrink` report.
const COSIM_AREA_SPECS: u64 = 64;

/// A fixed draw of co-sim specs, independent of the seed, so the area
/// guard compares like with like across runs.
fn cosim_area_specs() -> Vec<ChipSpec> {
    (0..COSIM_AREA_SPECS)
        .map(|i| SpecGen::random_cosim_spec(&mut Rng::new(0xB215_713E + i), &format!("area{i}")))
        .collect()
}

pub struct Fuzz {
    seed: u64,
    pool: Vec<Rc<Case>>,
}

impl Fuzz {
    fn case(seed: u64, i: usize) -> Case {
        let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64);
        let spec = SpecGen::random_cosim_spec(&mut Rng::new(s), &format!("fz{i}"));
        let program = Program::random(&spec, s ^ 0x9E37_79B9, FUZZ_CYCLES);
        Case { spec, program }
    }

    pub fn setup(seed: u64, tiny: bool) -> Result<Fuzz, String> {
        let n = if tiny { 2 } else { FUZZ_POOL };
        Ok(Fuzz {
            seed,
            pool: (0..n).map(|i| Rc::new(Fuzz::case(seed, i))).collect(),
        })
    }
}

impl Workload for Fuzz {
    type Input = Case;
    type Out = CosimStats;

    fn input(&self, i: usize) -> (usize, Rc<Case>) {
        let case = self
            .pool
            .get(i)
            .map_or_else(|| Rc::new(Fuzz::case(self.seed, i)), Rc::clone);
        (i, case)
    }

    fn op(&self, case: &Case, tr: &mut Tracer) -> Result<CosimStats, String> {
        cosim_op(case, tr)
    }

    fn check(&self, case: &Case, st: &CosimStats, _first: bool) -> Result<(), String> {
        cosim_check(case, st)
    }

    fn counts(&self, st: &CosimStats) -> Counts {
        cosim_counts(st)
    }

    fn work(&self, st: &CosimStats) -> f64 {
        st.cycles as f64
    }

    fn area_specs(&self) -> Vec<ChipSpec> {
        cosim_area_specs()
    }
}

/// Cycles per `soak` run.
const SOAK_CYCLES: usize = 1000;

pub struct Soak {
    cases: Vec<Rc<Case>>,
}

impl Soak {
    /// Three cpu-like chips of widths 8, 12 and 16 with every element
    /// kind. The seed draws the programs only: the chips stay fixed so
    /// the cost does not depend on the seed.
    pub fn setup(seed: u64, tiny: bool) -> Result<Soak, String> {
        let mut rng = Rng::new(seed ^ 0x736F_616B);
        let cycles = if tiny { 20 } else { SOAK_CYCLES };
        let cases = Soak::specs(tiny)
            .into_iter()
            .map(|spec| {
                let program = Program::random(&spec, rng.next(), cycles);
                Rc::new(Case { spec, program })
            })
            .collect();
        Ok(Soak { cases })
    }

    fn specs(tiny: bool) -> Vec<ChipSpec> {
        let widths: &[u32] = if tiny { &[4] } else { &[8, 12, 16] };
        widths
            .iter()
            .map(|&width| {
                let mut b = ChipSpec::builder(format!("soak{width}")).data_width(width);
                for e in [
                    element("inport", &[]),
                    element("registers", &[("count", 4)]),
                    element("alu", &[]),
                    element("shifter", &[]),
                    element("ram", &[("words", 3)]),
                    element("stack", &[("depth", 3)]),
                    element("outport", &[]),
                ] {
                    b = b.push_element(e);
                }
                b.build().expect("soak spec is well-formed")
            })
            .collect()
    }
}

impl Workload for Soak {
    type Input = Case;
    type Out = CosimStats;

    fn input(&self, i: usize) -> (usize, Rc<Case>) {
        let k = i % self.cases.len();
        (k, Rc::clone(&self.cases[k]))
    }

    fn op(&self, case: &Case, tr: &mut Tracer) -> Result<CosimStats, String> {
        cosim_op(case, tr)
    }

    fn check(&self, case: &Case, st: &CosimStats, _first: bool) -> Result<(), String> {
        cosim_check(case, st)
    }

    fn counts(&self, st: &CosimStats) -> Counts {
        cosim_counts(st)
    }

    fn work(&self, st: &CosimStats) -> f64 {
        st.cycles as f64
    }

    fn area_specs(&self) -> Vec<ChipSpec> {
        self.cases.iter().map(|c| c.spec.clone()).collect()
    }
}

// --------------------------------------------------------------- shrink

/// Program length and run budget of each shrink, as in the pinned
/// differential suite.
const SHRINK_CYCLES: usize = 18;
const SHRINK_BUDGET: usize = 60;
/// Cases built in set-up; later ones are found on demand, untimed, so
/// every op shrinks a fresh case.
const SHRINK_POOL: usize = 16;
/// Candidate specs per case, and program seeds per candidate, tried when
/// looking for a divergence.
const SHRINK_SPECS: u64 = 8;
const SHRINK_TRIES: u64 = 12;

/// A case known to diverge: spec, program seed and injected fault.
pub struct ShrinkCase {
    spec: ChipSpec,
    program_seed: u64,
    fault: Fault,
}

pub struct Shrink {
    seed: u64,
    pool: Vec<Rc<ShrinkCase>>,
}

impl Shrink {
    /// Case `i`: the first candidate spec on which one of the program
    /// seeds diverges under the case's fault. The faults take turns.
    fn case(seed: u64, i: usize) -> Option<ShrinkCase> {
        let fault = match i % 4 {
            0 => Fault::DropGateDevice("_b0/rda0".into()),
            1 => Fault::DropGateDevice("_b1/ld0".into()),
            2 => Fault::ShortTerminalToGnd("_b0/storeA".into()),
            _ => Fault::DropGateDevice("_b0/rdb0".into()),
        };
        (0..SHRINK_SPECS).find_map(|j| {
            let s = seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ (i as u64 * SHRINK_SPECS + j);
            let spec = SpecGen::random_cosim_spec(&mut Rng::new(s), &format!("sh{i}"));
            let program_seed = (0..SHRINK_TRIES).map(|t| s ^ (t << 40)).find(|&ps| {
                let program = Program::random(&spec, ps, SHRINK_CYCLES);
                matches!(
                    run_cosim_with(&spec, &program, Some(&fault)),
                    Err(CosimError::Diverged(_))
                )
            })?;
            Some(ShrinkCase {
                spec,
                program_seed,
                fault: fault.clone(),
            })
        })
    }

    pub fn setup(seed: u64, tiny: bool) -> Result<Shrink, String> {
        let n = if tiny { 1 } else { SHRINK_POOL };
        let pool = (0..n)
            .map(|i| {
                Shrink::case(seed, i)
                    .map(Rc::new)
                    .ok_or_else(|| format!("shrink case {i}: no candidate diverges"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Shrink { seed, pool })
    }
}

impl Workload for Shrink {
    type Input = ShrinkCase;
    type Out = MinimalRepro;

    fn input(&self, i: usize) -> (usize, Rc<ShrinkCase>) {
        if let Some(c) = self.pool.get(i) {
            return (i, Rc::clone(c));
        }
        match Shrink::case(self.seed, i) {
            Some(c) => (i, Rc::new(c)),
            // No candidate diverged (rare): repeat a pool case instead.
            None => (
                i % self.pool.len(),
                Rc::clone(&self.pool[i % self.pool.len()]),
            ),
        }
    }

    fn op(&self, c: &ShrinkCase, tr: &mut Tracer) -> Result<MinimalRepro, String> {
        let r = tr
            .span("verify", "verify.shrink_ms", || {
                shrink(
                    &c.spec,
                    c.program_seed,
                    SHRINK_CYCLES,
                    Some(&c.fault),
                    SHRINK_BUDGET,
                )
            })
            .ok_or_else(|| format!("{}: known-diverging case did not reproduce", c.spec.name))?;
        tr.add("verify.shrink_runs", r.runs as f64);
        Ok(r)
    }

    fn check(&self, c: &ShrinkCase, r: &MinimalRepro, _first: bool) -> Result<(), String> {
        let mut program = Program::random(&r.spec, r.seed, r.skip + r.cycles);
        program.cycles.drain(..r.skip);
        match run_cosim_with(&r.spec, &program, Some(&c.fault)) {
            Err(CosimError::Diverged(d)) if d.check == r.divergence.check => Ok(()),
            other => Err(format!(
                "{}: minimal reproducer does not replay `{}`: {other:?}",
                c.spec.name, r.divergence.check
            )),
        }
    }

    fn counts(&self, r: &MinimalRepro) -> Counts {
        vec![
            ("verify.shrink_runs", r.runs as i64),
            ("repro.cycles", r.cycles as i64),
            ("repro.skip", r.skip as i64),
            ("repro.elements", r.spec.elements.len() as i64),
            ("repro.width", i64::from(r.spec.data_width)),
        ]
    }

    fn work(&self, r: &MinimalRepro) -> f64 {
        r.runs as f64
    }

    fn area_specs(&self) -> Vec<ChipSpec> {
        cosim_area_specs()
    }
}

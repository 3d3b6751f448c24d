//! # bristle-bench
//!
//! The four reference chips, the chip-space sweep and the natural-pitch
//! baseline, shared by the `experiments` binary (the paper's figures,
//! tables and ablations), the integration tests and the `perfbench`
//! benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bristle_core::{ChipSpec, CompileError, CompiledChip, Compiler};

/// The four reference chips of the experiments.
#[must_use]
pub fn reference_specs() -> Vec<ChipSpec> {
    vec![
        // counter4: the smallest useful chip.
        ChipSpec::builder("counter4")
            .data_width(4)
            .element("registers", &[("count", 1)])
            .element("alu", &[])
            .build()
            .unwrap(),
        // alu8: ALU with a small register bank.
        ChipSpec::builder("alu8")
            .data_width(8)
            .element("registers", &[("count", 2)])
            .element("alu", &[])
            .element("outport", &[])
            .build()
            .unwrap(),
        // datapath16: the mid-size machine.
        ChipSpec::builder("datapath16")
            .data_width(16)
            .element("inport", &[])
            .element("registers", &[("count", 4)])
            .element("shifter", &[])
            .element("alu", &[])
            .element("outport", &[])
            .build()
            .unwrap(),
        // cpu16: everything, with a stack and RAM.
        ChipSpec::builder("cpu16")
            .data_width(16)
            .element("inport", &[])
            .element("registers", &[("count", 4)])
            .element("shifter", &[])
            .element("alu", &[])
            .element("stack", &[("depth", 4)])
            .element("ram", &[("words", 4)])
            .element("outport", &[])
            .build()
            .unwrap(),
    ]
}

/// A parameterized chip for scaling sweeps.
#[must_use]
pub fn sweep_spec(width: u32, registers: i64, extras: u32) -> ChipSpec {
    let mut b = ChipSpec::builder(format!("sweep_w{width}_r{registers}_x{extras}"))
        .data_width(width)
        .element("registers", &[("count", registers)])
        .element("alu", &[]);
    if extras >= 1 {
        b = b.element("shifter", &[]);
    }
    if extras >= 2 {
        b = b.element("stack", &[("depth", 4)]);
    }
    if extras >= 3 {
        b = b.element("ram", &[("words", 4)]);
    }
    if extras >= 4 {
        b = b.element("inport", &[]).element("outport", &[]);
    }
    b.build().unwrap()
}

/// Compiles with the default compiler.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn compile(spec: &ChipSpec) -> Result<CompiledChip, CompileError> {
    Compiler::new().compile(spec)
}

/// The natural-pitch baseline of experiment A1: the chip's own elements
/// with **no uniform-pitch constraint**, each column at the pitch it
/// would have alone. Returns the baseline core area in λ².
///
/// The measure is like-for-like with [`CompiledChip::core_area`]. Each
/// column's natural pitch comes from the compiler's one pitch rule,
/// [`bristle_cell::InterfaceStd::from_tracks`], applied to that column
/// alone. A column of `n` stacked bits covers
/// `width × ((n − 1)·pitch + cell height)`, as the compiled core's
/// bounding box does. Stretching only grows cells, so the baseline
/// never exceeds the compiled core.
#[must_use]
pub fn natural_core_area(chip: &CompiledChip) -> i64 {
    use bristle_cell::{GenCtx, InterfaceStd, TrackSet};
    use bristle_stdcells::generator_named;
    let mut total = 0i64;
    let mut ctx = GenCtx::new();
    let stacked = i64::from(chip.spec.data_width) - 1;
    for e in &chip.elements {
        let Some(generator) = generator_named(&e.kind) else {
            continue;
        };
        match e.index {
            Some(i) => ctx.params.clone_from(&chip.spec.elements[i].params),
            None => ctx.params.clear(),
        }
        // As in pass 1, a spec's `lane` never reaches a generator; every
        // port keeps lane 0, its natural height.
        ctx.params.remove("lane");
        let Ok(cols) = generator.generate(&ctx) else {
            continue;
        };
        for col in cols {
            // A column is a leaf cell, so its own box is its whole box.
            let bb = col.local_bbox().unwrap();
            let ts = TrackSet::from_cell(&col).unwrap();
            let pitch = InterfaceStd::from_tracks(&[ts]).pitch;
            total += bb.width() * (stacked * pitch + bb.height());
        }
    }
    total
}

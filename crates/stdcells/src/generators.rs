//! The element generators: procedural cells for every datapath element
//! the chip description may name.
//!
//! Each generator produces one bit cell per **column**; the compiler
//! stacks columns `data_width` high and abuts elements left to right.
//! Each column's `behavior` key names its SIMULATION model in
//! `bristle_sim::behaviors::by_key` (the compiler reads the first
//! column's), and control bristle names match that model's local
//! control names, which is how the compiler wires the SIMULATION
//! representation automatically. The precharge cell carries no key.

use bristle_cell::{
    ActiveWhen, Cell, CellGenerator, CellReprs, ControlLine, GenCtx, GenError, LogicGate,
    LogicKind, PadKind, Phase,
};

use crate::frame::{BitCellSpec, Chain, FrameError, Region, Slot, Tap};

fn ctl(name: &str, field: &str, active: ActiveWhen, phase: Phase) -> Slot {
    Slot::Control {
        name: name.into(),
        line: ControlLine {
            field: field.into(),
            active,
            phase,
        },
    }
}

fn plate(name: &str) -> Slot {
    Slot::Plate { name: name.into() }
}

fn inverter(input: usize, output: usize) -> Slot {
    Slot::Inverter { input, output }
}

fn bits_for(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// A column-count parameter (`count`, `words`, `depth`): one column per
/// register, word or level, 1..=16 of them.
fn columns_param(ctx: &GenCtx, name: &str, default: i64, what: &str) -> Result<i64, GenError> {
    let n = ctx.param_or(name, default);
    if !(1..=16).contains(&n) {
        return Err(GenError::BadParam {
            name: name.into(),
            value: n,
            reason: format!("1..=16 {what} supported"),
        });
    }
    Ok(n)
}

impl From<FrameError> for GenError {
    fn from(e: FrameError) -> GenError {
        GenError::Unsupported(e.to_string())
    }
}

/// `registers` — a bank of `count` dynamic registers. Each register is
/// one column: dual storage plates (read-A copy and read-B copy), both
/// written from bus A, read onto bus A (`rda<i>`) or bus B (`rdb<i>`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistersGen;

impl CellGenerator for RegistersGen {
    fn name(&self) -> &str {
        "registers"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        let count = ctx.param_or("count", 2).max(1) as u64;
        vec![
            (format!("{}_rda", ctx.prefix), bits_for(count)),
            (format!("{}_rdb", ctx.prefix), bits_for(count)),
            (format!("{}_ld", ctx.prefix), bits_for(count)),
        ]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let count = columns_param(ctx, "count", 2, "registers")?;
        let rda_field = format!("{}_rda", ctx.prefix);
        let rdb_field = format!("{}_rdb", ctx.prefix);
        let ld_field = format!("{}_ld", ctx.prefix);
        let mut columns = Vec::new();
        for r in 0..count {
            let mut spec = BitCellSpec::new(ctx.cell_name(&format!("reg{r}_bit")));
            let sel = ActiveWhen::Equals(r as u64 + 1);
            // Restoring read path: each storage plate drives an in-frame
            // depletion-load inverter; the inverted copy gates the read
            // chain, so a read discharges the bus exactly where the stored
            // bit is 0 — the bus shows the stored word directly.
            spec.slots = vec![
                ctl(&format!("rda{r}"), &rda_field, sel.clone(), Phase::Phi1),
                plate("nstoreA"),
                Slot::Gap,
                inverter(5, 1),
                Slot::Gap,
                plate("storeA"),
                ctl(&format!("ld{r}"), &ld_field, sel.clone(), Phase::Phi1),
                Slot::Gap,
                ctl(&format!("ldb{r}"), &ld_field, sel.clone(), Phase::Phi1),
                plate("storeB"),
                Slot::Gap,
                inverter(9, 13),
                Slot::Gap,
                plate("nstoreB"),
                ctl(&format!("rdb{r}"), &rdb_field, sel, Phase::Phi1),
            ];
            spec.chains = vec![
                // Read A: rda & ~storeA pull bus A low where the stored bit
                // is 0.
                Chain {
                    region: Region::GndBusA,
                    from_slot: 0,
                    to_slot: 1,
                    left: Tap::BusA,
                    right: Tap::Gnd,
                },
                // Write copy A from bus A.
                Chain {
                    region: Region::BusABusB,
                    from_slot: 5,
                    to_slot: 6,
                    left: Tap::Plate,
                    right: Tap::BusA,
                },
                // Write copy B from bus A.
                Chain {
                    region: Region::BusABusB,
                    from_slot: 8,
                    to_slot: 9,
                    left: Tap::BusA,
                    right: Tap::Plate,
                },
                // Read B: rdb & ~storeB onto bus B (long tap crosses
                // bus A without contact).
                Chain {
                    region: Region::GndBusA,
                    from_slot: 13,
                    to_slot: 14,
                    left: Tap::Gnd,
                    right: Tap::BusB,
                },
            ];
            spec.power_ua = 60;
            spec.reprs = CellReprs {
                doc: format!(
                    "Register {r} bit: dual dynamic storage with restoring inverters; \
                     write from bus A, non-inverting read to either bus."
                ),
                behavior: Some("registers".into()),
                block_label: Some("REG".into()),
                logic: vec![
                    LogicGate::new(LogicKind::Latch, [format!("ld{r}"), "busA".into()], "storeA"),
                    LogicGate::new(
                        LogicKind::Pass,
                        [format!("rda{r}"), "storeA".into()],
                        "busA",
                    ),
                    LogicGate::new(
                        LogicKind::Pass,
                        [format!("rdb{r}"), "storeB".into()],
                        "busB",
                    ),
                ],
            };
            columns.push(spec.build()?);
        }
        Ok(columns)
    }
}

/// `alu` — operand latches from both buses, a φ2-precharged carry chain
/// and a result driver onto bus A.
#[derive(Debug, Clone, Copy, Default)]
pub struct AluGen;

impl CellGenerator for AluGen {
    fn name(&self) -> &str {
        "alu"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        vec![
            (format!("{}_op", ctx.prefix), 3),
            (format!("{}_actl", ctx.prefix), 2),
        ]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let op_field = format!("{}_op", ctx.prefix);
        let actl_field = format!("{}_actl", ctx.prefix);
        let mut spec = BitCellSpec::new(ctx.cell_name("alu_bit"));
        spec.slots = vec![
            ctl("lda", &actl_field, ActiveWhen::Equals(1), Phase::Phi1),
            plate("opa"),
            ctl("out", &actl_field, ActiveWhen::Equals(2), Phase::Phi1),
            Slot::Gap,
            ctl("ldb", &actl_field, ActiveWhen::Equals(1), Phase::Phi1),
            plate("opb"),
            Slot::Gap,
            Slot::Clock(Phase::Phi2),
            ctl("op0", &op_field, ActiveWhen::Bit(0), Phase::Phi2),
            ctl("op1", &op_field, ActiveWhen::Bit(1), Phase::Phi2),
            ctl("op2", &op_field, ActiveWhen::Bit(2), Phase::Phi2),
        ];
        spec.chains = vec![
            // Latch operand A from bus A onto plate `opa`.
            Chain {
                region: Region::BusABusB,
                from_slot: 0,
                to_slot: 1,
                left: Tap::BusA,
                right: Tap::Plate,
            },
            // Result drive: opa & out discharge bus A.
            Chain {
                region: Region::GndBusA,
                from_slot: 1,
                to_slot: 2,
                left: Tap::Gnd,
                right: Tap::BusA,
            },
            // Latch operand B from bus B onto plate `opb`.
            Chain {
                region: Region::BusABusB,
                from_slot: 4,
                to_slot: 5,
                left: Tap::BusB,
                right: Tap::Plate,
            },
            // The precharged carry chain: φ2 precharges from VDD (long
            // tap), op0 conditionally discharges to ground — the paper's
            // carry-chain example in miniature.
            Chain {
                region: Region::GndBusA,
                from_slot: 7,
                to_slot: 8,
                left: Tap::Vdd,
                right: Tap::Gnd,
            },
        ];
        spec.power_ua = 180;
        spec.reprs = CellReprs {
            doc: "ALU bit: operand latches, precharged Manhattan carry chain (φ2), result driver."
                .into(),
            behavior: Some("alu".into()),
            block_label: Some("ALU".into()),
            logic: vec![
                LogicGate::new(LogicKind::Latch, ["lda", "busA"], "opa"),
                LogicGate::new(LogicKind::Latch, ["ldb", "busB"], "opb"),
                LogicGate::new(LogicKind::Xor, ["opa", "opb"], "sum"),
                LogicGate::new(LogicKind::And, ["opa", "opb"], "carry"),
            ],
        };
        Ok(vec![spec.build()?])
    }
}

/// `shifter` — a shift register: load from bus A, shift by one per φ2,
/// drive bus B.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShifterGen;

impl CellGenerator for ShifterGen {
    fn name(&self) -> &str {
        "shifter"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        vec![(format!("{}_sh", ctx.prefix), 3)]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let f = format!("{}_sh", ctx.prefix);
        let mut spec = BitCellSpec::new(ctx.cell_name("shift_bit"));
        spec.slots = vec![
            ctl("ld", &f, ActiveWhen::Equals(1), Phase::Phi1),
            plate("hold"),
            ctl("out", &f, ActiveWhen::Equals(2), Phase::Phi1),
            Slot::Gap,
            ctl("sl", &f, ActiveWhen::Equals(3), Phase::Phi2),
            ctl("sr", &f, ActiveWhen::Equals(4), Phase::Phi2),
        ];
        spec.chains = vec![
            Chain {
                region: Region::BusABusB,
                from_slot: 0,
                to_slot: 1,
                left: Tap::BusA,
                right: Tap::Plate,
            },
            // Output: hold & out discharge bus B via a long tap.
            Chain {
                region: Region::GndBusA,
                from_slot: 1,
                to_slot: 2,
                left: Tap::Gnd,
                right: Tap::BusB,
            },
            // Shift path stub: sl & sr pass structure (neighbor transfer).
            Chain {
                region: Region::BusABusB,
                from_slot: 4,
                to_slot: 5,
                left: Tap::BusA,
                right: Tap::Open,
            },
        ];
        spec.region_heights = [12, 13, 12];
        spec.power_ua = 90;
        spec.reprs = CellReprs {
            doc: "Shifter bit: load from bus A, φ2 shift exchange with neighbors, drive bus B."
                .into(),
            behavior: Some("shifter".into()),
            block_label: Some("SHIFT".into()),
            logic: vec![LogicGate::new(LogicKind::Latch, ["ld", "busA"], "hold")],
        };
        Ok(vec![spec.build()?])
    }
}

/// One word of decoded storage — a RAM word or a stack level: the
/// column `index` of a `ram` or `stack` element. Restoring and faithful:
/// the read chain crosses the word select `sel<index>`, the `read`
/// control and the inverted plate `n<plate>`, so a read asserts the
/// stored word onto bus A; the write chain crosses `write` AND a second
/// select column `selw<index>`, so only the addressed word's plate
/// samples bus A. Both selects decode `index + 1` from `addr_field`; the
/// read/write controls decode 2/1 from `op_field`. The caller sets the
/// power and representations.
fn decoded_word_cell(
    name: String,
    index: u32,
    addr_field: &str,
    op_field: &str,
    (read, write): (&str, &str),
    plate_name: &str,
) -> BitCellSpec {
    let mut spec = BitCellSpec::new(name);
    let sel = ActiveWhen::Equals(u64::from(index) + 1);
    spec.slots = vec![
        ctl(&format!("sel{index}"), addr_field, sel.clone(), Phase::Phi1),
        ctl(read, op_field, ActiveWhen::Equals(2), Phase::Phi1),
        plate(&format!("n{plate_name}")),
        Slot::Gap,
        inverter(6, 2),
        Slot::Gap,
        plate(plate_name),
        ctl(write, op_field, ActiveWhen::Equals(1), Phase::Phi1),
        ctl(&format!("selw{index}"), addr_field, sel, Phase::Phi1),
    ];
    spec.chains = vec![
        // Read: sel & read & ~plate pull bus A low where the stored bit
        // is 0.
        Chain {
            region: Region::GndBusA,
            from_slot: 0,
            to_slot: 2,
            left: Tap::BusA,
            right: Tap::Gnd,
        },
        // Write: bus A through selw & write onto the plate.
        Chain {
            region: Region::BusABusB,
            from_slot: 6,
            to_slot: 8,
            left: Tap::Plate,
            right: Tap::BusA,
        },
    ];
    spec
}

/// `ram` — a small memory, one column per word with fully decoded word
/// lines (`decoded_word_cell` with `rd`/`wr` and plate `cell`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RamGen;

impl CellGenerator for RamGen {
    fn name(&self) -> &str {
        "ram"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        let words = ctx.param_or("words", 4).max(1) as u64;
        vec![
            (format!("{}_sel", ctx.prefix), bits_for(words)),
            (format!("{}_rw", ctx.prefix), 2),
        ]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let words = columns_param(ctx, "words", 4, "words")?;
        let sel_field = format!("{}_sel", ctx.prefix);
        let rw_field = format!("{}_rw", ctx.prefix);
        let mut columns = Vec::new();
        for wd in 0..words as u32 {
            let mut spec = decoded_word_cell(
                ctx.cell_name(&format!("ram{wd}_bit")),
                wd,
                &sel_field,
                &rw_field,
                ("rd", "wr"),
                "cell",
            );
            spec.power_ua = 40;
            spec.reprs = CellReprs {
                doc: format!(
                    "RAM word {wd} bit: decoded word line, sel-gated write, restoring read."
                ),
                behavior: Some("ram".into()),
                block_label: Some("RAM".into()),
                ..CellReprs::default()
            };
            columns.push(spec.build()?);
        }
        Ok(columns)
    }
}

/// `stack` — a hardware stack, one column per level. The microcode
/// carries the decoded stack-pointer level in the `_sp` field (the
/// program generator maintains it), so each level is a RAM word
/// (`decoded_word_cell` with `pop`/`push` and plate `level`): push
/// writes level sp, pop restores level sp−1 onto the bus.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackGen;

impl CellGenerator for StackGen {
    fn name(&self) -> &str {
        "stack"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        let depth = ctx.param_or("depth", 4).max(1) as u64;
        vec![
            (format!("{}_stk", ctx.prefix), 2),
            (format!("{}_sp", ctx.prefix), bits_for(depth)),
        ]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let depth = columns_param(ctx, "depth", 4, "levels")?;
        let stk_field = format!("{}_stk", ctx.prefix);
        let sp_field = format!("{}_sp", ctx.prefix);
        let mut columns = Vec::new();
        for lvl in 0..depth as u32 {
            let mut spec = decoded_word_cell(
                ctx.cell_name(&format!("stack{lvl}_bit")),
                lvl,
                &sp_field,
                &stk_field,
                ("pop", "push"),
                "level",
            );
            spec.power_ua = 50;
            spec.reprs = CellReprs {
                doc: format!("Stack level {lvl} bit: sp-decoded level, restoring pop."),
                behavior: Some("stack".into()),
                block_label: Some("STACK".into()),
                ..CellReprs::default()
            };
            columns.push(spec.build()?);
        }
        Ok(columns)
    }
}

/// `inport` — drives bus A from an input pad when `drv` is asserted.
#[derive(Debug, Clone, Copy, Default)]
pub struct InPortGen;

impl CellGenerator for InPortGen {
    fn name(&self) -> &str {
        "inport"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        vec![(format!("{}_io", ctx.prefix), 1)]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let f = format!("{}_io", ctx.prefix);
        let lane = ctx.param_or("lane", 0).max(0);
        let mut spec = BitCellSpec::new(ctx.cell_name("inport_bit"));
        spec.slots = vec![ctl("drv", &f, ActiveWhen::Bit(0), Phase::Phi1), Slot::Gap];
        spec.chains = vec![Chain {
            region: Region::BusABusB,
            from_slot: 0,
            to_slot: 0,
            left: Tap::BusA,
            right: Tap::PadEast(PadKind::Input, "pad_in".into()),
        }];
        // Each input port on a chip gets its own escape lane (the
        // compiler numbers them): the pad wire rides 8λ higher per lane
        // in a correspondingly taller region, so multiple inports abut
        // without their east escape wires colliding.
        spec.pad_lane = lane;
        spec.region_heights = [12, 12 + 8 * lane, 12];
        spec.power_ua = 30;
        spec.reprs = CellReprs {
            doc: "Input port bit: pad driver gated onto bus A.".into(),
            behavior: Some("inport".into()),
            block_label: Some("IN".into()),
            ..CellReprs::default()
        };
        Ok(vec![spec.build()?])
    }
}

/// `outport` — latches bus A onto an output pad when `ld` is asserted.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutPortGen;

impl CellGenerator for OutPortGen {
    fn name(&self) -> &str {
        "outport"
    }

    fn fields(&self, ctx: &GenCtx) -> Vec<(String, u32)> {
        vec![(format!("{}_io", ctx.prefix), 1)]
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let f = format!("{}_io", ctx.prefix);
        let lane = ctx.param_or("lane", 0).max(0);
        let mut spec = BitCellSpec::new(ctx.cell_name("outport_bit"));
        spec.slots = vec![ctl("ld", &f, ActiveWhen::Bit(0), Phase::Phi1), Slot::Gap];
        // Output ports use the region-1 wiring corridor (input ports use
        // region 2), so chips with both kinds route their pad wires in
        // distinct bands; within the band, each outport gets its own
        // 8λ-spaced escape lane.
        spec.chains = vec![Chain {
            region: Region::GndBusA,
            from_slot: 0,
            to_slot: 0,
            left: Tap::BusA,
            right: Tap::PadEast(PadKind::Output, "pad_out".into()),
        }];
        spec.pad_lane = lane;
        spec.region_heights = [12 + 8 * lane, 12, 12];
        spec.power_ua = 400; // pad driver
        spec.reprs = CellReprs {
            doc: "Output port bit: bus A latch driving an output pad.".into(),
            behavior: Some("outport".into()),
            block_label: Some("OUT".into()),
            ..CellReprs::default()
        };
        Ok(vec![spec.build()?])
    }
}

/// `precharge` — the bus precharge cell Pass 1 inserts at the head of
/// every bus segment: φ2-gated pull-ups for both buses.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrechargeGen;

impl CellGenerator for PrechargeGen {
    fn name(&self) -> &str {
        "precharge"
    }

    fn generate(&self, ctx: &GenCtx) -> Result<Vec<Cell>, GenError> {
        let mut spec = BitCellSpec::new(ctx.cell_name("precharge_bit"));
        spec.slots = vec![
            Slot::Clock(Phase::Phi2),
            Slot::Gap,
            Slot::Gap,
            Slot::Clock(Phase::Phi2),
        ];
        spec.chains = vec![
            // Bus A precharge: VDD through φ2 onto bus A (long tap up).
            Chain {
                region: Region::BusABusB,
                from_slot: 0,
                to_slot: 0,
                left: Tap::BusA,
                right: Tap::Vdd,
            },
            // Bus B precharge.
            Chain {
                region: Region::BusBVdd,
                from_slot: 3,
                to_slot: 3,
                left: Tap::BusB,
                right: Tap::Vdd,
            },
        ];
        spec.power_ua = 120;
        spec.reprs = CellReprs {
            doc: "Bus precharge: φ2 pull-ups restoring both buses high before each transfer."
                .into(),
            block_label: Some("PCHG".into()),
            ..CellReprs::default()
        };
        Ok(vec![spec.build()?])
    }
}

/// All built-in generators, boxed, keyed by their element names.
#[must_use]
pub fn all_generators() -> Vec<Box<dyn CellGenerator>> {
    vec![
        Box::new(RegistersGen),
        Box::new(AluGen),
        Box::new(ShifterGen),
        Box::new(RamGen),
        Box::new(StackGen),
        Box::new(InPortGen),
        Box::new(OutPortGen),
        Box::new(PrechargeGen),
    ]
}

/// Looks up a built-in generator by element name.
#[must_use]
pub fn generator_named(name: &str) -> Option<Box<dyn CellGenerator>> {
    all_generators().into_iter().find(|g| g.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{CellId, Flavor, Library, TrackSet};
    use bristle_drc::{check_flat, RuleSet};
    use bristle_extract::extract;

    fn ctx() -> GenCtx {
        let mut c = GenCtx::new();
        c.prefix = "e0".into();
        c
    }

    /// A library holding `gen`'s columns for `ctx`, and their ids.
    fn generated(gen: &dyn CellGenerator, ctx: &GenCtx) -> (Library, Vec<CellId>) {
        let mut lib = Library::new("t");
        let ids = gen.generate(ctx).unwrap().into_iter().map(|c| lib.add_cell(c).unwrap()).collect();
        (lib, ids)
    }

    #[test]
    fn every_generator_is_drc_clean() {
        for gen in all_generators() {
            let (lib, cols) = generated(gen.as_ref(), &ctx());
            assert!(!cols.is_empty(), "{} made no columns", gen.name());
            for id in cols {
                let report = check_flat(&lib, id, &RuleSet::mead_conway());
                assert!(
                    report.is_clean(),
                    "{} cell `{}`:\n{report}",
                    gen.name(),
                    lib.cell(id).name()
                );
            }
        }
    }

    #[test]
    fn every_bit_cell_has_standard_tracks() {
        for gen in all_generators() {
            for cell in gen.generate(&ctx()).unwrap() {
                assert!(cell.instances().is_empty(), "{}: a column is a leaf", cell.name());
                TrackSet::from_cell(&cell).unwrap_or_else(|e| {
                    panic!("{}: {e}", cell.name());
                });
            }
        }
    }

    #[test]
    fn register_extracts_working_devices() {
        use bristle_extract::TransistorKind;
        let (lib, cols) = generated(&RegistersGen, &ctx());
        let n = extract(&lib, cols[0]);
        // readA (rda + ~storeA), writeA (ld + tie), writeB (ldb + tie),
        // readB (rdb + ~storeB), plus two restoring inverters (driver +
        // depletion load each).
        assert_eq!(n.transistors.len(), 10, "{n}");
        let dep = n
            .transistors
            .iter()
            .filter(|t| t.kind == TransistorKind::Depletion)
            .count();
        assert_eq!(dep, 2, "one depletion load per storage copy: {n}");
    }

    #[test]
    fn ram_write_is_sel_gated() {
        use bristle_sim::{Level, SwitchSim};
        let mut c = ctx();
        c.params.insert("words".into(), 2);
        let (lib, cols) = generated(&RamGen, &c);
        // Word 1's cell: assert wr WITHOUT selw1 — the plate must hold.
        let n = extract(&lib, cols[1]);
        let mut sim = SwitchSim::new(&n);
        sim.preset_all(Level::L0);
        for ctl in ["sel1", "selw1", "rd", "wr"] {
            sim.set_input(ctl, Level::L0).unwrap();
        }
        sim.set_input("BUSA", Level::L1).unwrap();
        sim.set_input("wr", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("cell").unwrap(), Level::L0, "write must be sel-gated");
        // With selw1 up the plate samples the bus.
        sim.set_input("selw1", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("cell").unwrap(), Level::L1);
    }

    /// The pad bristles of `cell`.
    fn pads(cell: &Cell) -> Vec<&bristle_cell::Bristle> {
        cell.bristles().iter().filter(|b| matches!(b.flavor, Flavor::Pad(_))).collect()
    }

    #[test]
    fn port_lanes_spread_escape_wires() {
        let mut c0 = ctx();
        c0.prefix = "e0_inport".into();
        let a = InPortGen.generate(&c0).unwrap();
        let mut c1 = ctx();
        c1.prefix = "e1_inport".into();
        c1.params.insert("lane".into(), 1);
        let b = InPortGen.generate(&c1).unwrap();
        assert_eq!(pads(&b[0])[0].pos.y - pads(&a[0])[0].pos.y, 8, "escape lanes 8λ apart");
    }

    #[test]
    fn ports_request_pads() {
        let cols = InPortGen.generate(&ctx()).unwrap();
        let pads = pads(&cols[0]);
        assert_eq!(pads.len(), 1);
        assert_eq!(pads[0].name, "pad_in");
    }

    #[test]
    fn fields_are_prefixed() {
        let gen = RegistersGen;
        let fields = gen.fields(&ctx());
        assert!(fields.iter().all(|(n, _)| n.starts_with("e0_")));
        // 2 regs -> rda/rdb/ld values 1..=2 need 2 bits each.
        assert_eq!(fields[0].1, 2);
        assert_eq!(fields[1].1, 2);
        assert_eq!(fields[2].1, 2);
    }

    #[test]
    fn generator_lookup() {
        assert!(generator_named("alu").is_some());
        assert!(generator_named("registers").is_some());
        assert!(generator_named("flux_capacitor").is_none());
    }

    #[test]
    fn bad_params_rejected() {
        let mut c = ctx();
        c.params.insert("count".into(), 99);
        assert!(matches!(
            RegistersGen.generate(&c),
            Err(GenError::BadParam { .. })
        ));
    }

    #[test]
    fn precharge_has_two_clock_columns() {
        let cols = PrechargeGen.generate(&ctx()).unwrap();
        let clocks = cols[0]
            .bristles()
            .iter()
            .filter(|b| matches!(b.flavor, Flavor::Clock(Phase::Phi2)))
            .count();
        assert_eq!(clocks, 2);
    }
}

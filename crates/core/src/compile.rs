//! The three-pass compiler.

use std::fmt;
use std::time::{Duration, Instant};

use bristle_cell::{
    Bristle, Cell, CellError, CellId, ControlLine, Flavor, GenCtx, GenError, InterfaceStd,
    InterfaceViolation, Library, PadKind, Phase, Shape, Side, TrackSet,
};
use bristle_geom::{Layer, Orientation, Path, Point, Rect, Transform};
use bristle_pla::{compile_on_tape, decode_spec_from_controls, layout_pla, Pla, PlaLayoutError};
use bristle_route::{route_wires, Ring, RotoRouter, RouteError};
use bristle_sim::{Machine, Microcode, MicrocodeError, SimError};
use bristle_stdcells::{generator_named, pad_cell, PrechargeGen};

use crate::spec::ChipSpec;

/// Wall-clock cost of each pass (the paper reports ≈4 minutes for a
/// small chip on a PDP-10; experiment T2 regenerates the scaling).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimings {
    /// Pass 1: core layout.
    pub core: Duration,
    /// Pass 2: control design.
    pub control: Duration,
    /// Pass 3: pad layout.
    pub pads: Duration,
}

impl PassTimings {
    /// Total compile time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.core + self.control + self.pads
    }
}

/// Compilation errors.
#[derive(Debug)]
pub enum CompileError {
    /// Unknown element kind in the spec, or a cell's `behavior` key that
    /// names no SIMULATION model.
    UnknownElement(String),
    /// A generator failed.
    Gen(GenError),
    /// Library-level failure.
    Cell(CellError),
    /// Microcode format overflow or duplicates.
    Microcode(MicrocodeError),
    /// Decoder layout failure.
    Pla(PlaLayoutError),
    /// Pad routing failure.
    Route(RouteError),
    /// A column fails the interface standard: a missing or misordered
    /// track, or one stretching cannot align.
    Interface(InterfaceViolation),
    /// Simulation assembly failure.
    Sim(SimError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownElement(k) => write!(f, "unknown element kind `{k}`"),
            CompileError::Gen(e) => write!(f, "generator: {e}"),
            CompileError::Cell(e) => write!(f, "library: {e}"),
            CompileError::Microcode(e) => write!(f, "microcode: {e}"),
            CompileError::Pla(e) => write!(f, "decoder: {e}"),
            CompileError::Route(e) => write!(f, "pads: {e}"),
            CompileError::Interface(e) => write!(f, "interface: {e}"),
            CompileError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CompileError {
            fn from(e: $ty) -> CompileError {
                CompileError::$variant(e)
            }
        }
    };
}
from_err!(Gen, GenError);
from_err!(Cell, CellError);
from_err!(Microcode, MicrocodeError);
from_err!(Pla, PlaLayoutError);
from_err!(Route, RouteError);
from_err!(Interface, InterfaceViolation);
from_err!(Sim, SimError);

/// Per-element record in the compiled chip.
#[derive(Debug, Clone)]
pub struct ElementInfo {
    /// Element index in the spec; `None` for the precharge cells the
    /// compiler inserts.
    pub index: Option<usize>,
    /// Generator kind.
    pub kind: String,
    /// Unique prefix (`e<i>_<kind>`).
    pub prefix: String,
    /// Column cell ids, west to east.
    pub columns: Vec<CellId>,
    /// x-interval occupied in core coordinates.
    pub x_span: (i64, i64),
}

/// The compiler.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    /// Disable the Roto-Router's optimization (ablation A2).
    pub naive_pads: bool,
    /// Skip the two-tape machine and its term sharing: one PLA row per
    /// text-array cube (ablation A3).
    pub unoptimized_decoder: bool,
}

impl Compiler {
    /// A compiler with all optimizations enabled.
    #[must_use]
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Runs all three passes.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile(&self, spec: &ChipSpec) -> Result<CompiledChip, CompileError> {
        let mut lib = Library::new(&spec.name);
        let t0 = Instant::now();
        let core = self.pass1_core(spec, &mut lib)?;
        let t1 = Instant::now();
        let control = self.pass2_control(spec, &mut lib, &core)?;
        let t2 = Instant::now();
        let chip = self.pass3_pads(spec, &mut lib, &core, &control)?;
        let t3 = Instant::now();
        Ok(CompiledChip {
            spec: spec.clone(),
            microcode: core.microcode,
            lib,
            top: chip.top,
            core_cell: core.cell,
            core_bbox: core.bbox,
            die_bbox: chip.die_bbox,
            pitch: core.std.pitch,
            elements: core.elements,
            controls: control.controls,
            pla: control.pla,
            tape_steps: control.tape_steps,
            pad_count: chip.pad_count,
            wire_length: chip.wire_length,
            timings: PassTimings {
                core: t1 - t0,
                control: t2 - t1,
                pads: t3 - t2,
            },
        })
    }

    // ---- Pass 1: core layout -----------------------------------------

    fn pass1_core(
        &self,
        spec: &ChipSpec,
        lib: &mut Library,
    ) -> Result<CoreResult, CompileError> {
        // Assemble microcode format: user fields then element fields.
        let mut microcode = Microcode::new();
        for (name, width) in &spec.user_fields {
            microcode.add_field(name.clone(), *width)?;
        }

        // Build contexts and gather generators, inserting a precharge
        // element at the head of every bus segment (chip start and after
        // every declared break).
        struct Pending {
            index: Option<usize>,
            kind: String,
            ctx: GenCtx,
            generator: Box<dyn bristle_cell::CellGenerator>,
        }
        let mut pending: Vec<Pending> = Vec::new();
        let push_precharge = |pending: &mut Vec<Pending>, n: &mut usize| {
            let mut ctx = GenCtx::new();
            ctx.prefix = format!("pc{n}");
            *n += 1;
            pending.push(Pending {
                index: None,
                kind: "precharge".into(),
                ctx,
                generator: Box::new(PrechargeGen),
            });
        };
        let mut pc_count = 0usize;
        push_precharge(&mut pending, &mut pc_count);
        // Escape-lane numbering: every port of one kind gets its own lane
        // so the pad pass can route all their east escape wires without
        // the < 7λ collision that used to cap specs at one port per kind.
        let mut lanes: std::collections::BTreeMap<&str, i64> = std::collections::BTreeMap::new();
        for (i, e) in spec.elements.iter().enumerate() {
            let generator = generator_named(&e.kind)
                .ok_or_else(|| CompileError::UnknownElement(e.kind.clone()))?;
            let mut ctx = GenCtx::new();
            ctx.prefix = format!("e{i}_{}", e.kind);
            ctx.params = e.params.clone();
            // The lane is the compiler's own numbering: it overrides a
            // `lane` the spec gives.
            if matches!(e.kind.as_str(), "inport" | "outport") {
                let lane = lanes.entry(e.kind.as_str()).or_insert(0);
                ctx.params.insert("lane".into(), *lane);
                *lane += 1;
            }
            pending.push(Pending {
                index: Some(i),
                kind: e.kind.clone(),
                ctx,
                generator,
            });
            if e.break_bus_a || e.break_bus_b {
                push_precharge(&mut pending, &mut pc_count);
            }
        }

        // Element-required microcode fields.
        for p in &pending {
            for (name, width) in p.generator.fields(&p.ctx) {
                microcode.add_field(name, width)?;
            }
        }

        // Generate each element's columns, reading each column's natural
        // tracks once; all of them vote on the interface standard.
        let mut columns: Vec<Vec<Cell>> = Vec::new();
        let mut tracks: Vec<TrackSet> = Vec::new();
        for p in &pending {
            let cols = p.generator.generate(&p.ctx)?;
            for col in &cols {
                tracks.push(TrackSet::from_cell(col)?);
            }
            columns.push(cols);
        }
        let std = InterfaceStd::from_tracks(&tracks);

        // Stretch-align every column to the standard, add it to the
        // library, where it cannot change any more, and stack it into
        // the core cell.
        let mut core = Cell::new(format!("{}_core", spec.name));
        let mut x = 0i64;
        let mut elements = Vec::new();
        for (p, cols) in pending.into_iter().zip(columns) {
            let x_start = x;
            let mut ids = Vec::with_capacity(cols.len());
            for (ci, mut col) in cols.into_iter().enumerate() {
                std.align(&mut col)?;
                let id = lib.add_cell(col)?;
                for bit in 0..spec.data_width {
                    core.push_instance(bristle_cell::Instance::new(
                        id,
                        format!("{}_c{ci}_b{bit}", p.ctx.prefix),
                        Transform::translate(Point::new(x, i64::from(bit) * std.pitch)),
                    ));
                }
                x += lib.bbox(id).map_or(0, |b| b.width());
                ids.push(id);
            }
            elements.push(ElementInfo {
                index: p.index,
                kind: p.kind,
                prefix: p.ctx.prefix,
                columns: ids,
                x_span: (x_start, x),
            });
        }
        // PROTOTYPE conditional assembly: expose each element's first
        // control column at the north edge as an observation pad point.
        if spec.flags.get("PROTOTYPE").copied().unwrap_or(false) {
            let core_top = i64::from(spec.data_width) * std.pitch;
            for e in elements.iter().filter(|e| e.index.is_some()) {
                let Some(&col) = e.columns.first() else { continue };
                let Some(ctl) = lib
                    .cell(col)
                    .bristles()
                    .iter()
                    .find(|b| matches!(b.flavor, Flavor::Control(_)))
                    .map(|b| b.pos.x)
                else {
                    continue;
                };
                core.push_bristle(Bristle::new(
                    format!("probe_{}", e.prefix),
                    Layer::Poly,
                    Point::new(e.x_span.0 + ctl, core_top),
                    Side::North,
                    Flavor::Pad(PadKind::Output),
                ));
            }
        }
        let cell = lib.add_cell(core)?;
        let bbox = lib.bbox(cell).unwrap_or(Rect::new(0, 0, 1, 1));
        Ok(CoreResult {
            cell,
            bbox,
            std,
            microcode,
            elements,
        })
    }

    // ---- Pass 2: control design ----------------------------------------

    fn pass2_control(
        &self,
        spec: &ChipSpec,
        lib: &mut Library,
        core: &CoreResult,
    ) -> Result<ControlResult, CompileError> {
        // Collect decoder-facing control points: control and clock
        // bristles on the south edge of the bottom slice (y == 0) of the
        // core.
        let south = lib.flat_bristles_where(core.cell, |pos, side, flavor| {
            pos.y == 0
                && side == Side::South
                && matches!(flavor, Flavor::Control(_) | Flavor::Clock(_))
        });
        let mut controls: Vec<(String, ControlLine, Point)> = Vec::new();
        let mut clocks: Vec<(Phase, Point)> = Vec::new();
        for b in south {
            match b.flavor {
                Flavor::Control(line) => controls.push((sanitize(&b.name), line, b.pos)),
                Flavor::Clock(phase) => clocks.push((phase, b.pos)),
                _ => {}
            }
        }
        controls.sort_by_key(|c| c.2.x);

        // The text array and the two-tape Turing machine.
        let lines: Vec<(String, ControlLine)> = controls
            .iter()
            .map(|(name, line, _)| (name.clone(), line.clone()))
            .collect();
        let dspec = decode_spec_from_controls(&core.microcode, &lines).map_err(|missing| {
            CompileError::Gen(GenError::Unsupported(format!(
                "controls reference unknown fields: {missing:?}"
            )))
        })?;
        let (pla, tape_steps) = if self.unoptimized_decoder {
            (dspec.to_pla(), 0)
        } else {
            compile_on_tape(&dspec)
        };
        let decoder = layout_pla(&pla, lib, &format!("{}_decoder", spec.name))?;

        // Control channel: one metal track per control between the core
        // (y = 0) and the decoder below; poly risers at both ends. The
        // first two channel slots are the φ1/φ2 clock rails.
        let n = controls.len().max(1) + 2;
        let channel_h = 16 + 8 * n as i64;
        let dec_bbox = lib.bbox(decoder).unwrap_or(Rect::new(0, 0, 1, 1));
        // Place the decoder so its output bristles sit just below the
        // channel and roughly centered under the core.
        let dec_out_top = dec_bbox.y1;
        let dec_x = (core.bbox.width() - dec_bbox.width()) / 2 - dec_bbox.x0;
        let dec_y = -channel_h - dec_out_top;
        let dec_t = Transform::translate(Point::new(dec_x, dec_y));

        let mut frame = Cell::new(format!("{}_frame", spec.name));
        frame.push_instance(bristle_cell::Instance::new(
            core.cell,
            "core",
            Transform::IDENTITY,
        ));
        frame.push_instance(bristle_cell::Instance::new(decoder, "decoder", dec_t));

        // Decoder output positions after placement.
        let dec_outs: Vec<(String, Point)> = lib
            .cell(decoder)
            .bristles()
            .iter()
            .filter(|b| b.side == Side::North && matches!(b.flavor, Flavor::Signal))
            .map(|b| (b.name.clone(), dec_t.apply(b.pos)))
            .collect();

        // Output positions of every control, in control order.
        let out_of = |name: &str| {
            dec_outs
                .iter()
                .find(|(n2, _)| n2 == name)
                .map(|&(_, p)| p)
                .ok_or_else(|| {
                    CompileError::Gen(GenError::Unsupported(format!(
                        "decoder lacks output `{name}`"
                    )))
                })
        };
        let mut outs: Vec<Point> = Vec::with_capacity(controls.len());
        for (name, _, _) in &controls {
            outs.push(out_of(name)?);
        }

        // Track-order assignment. Each control owns one horizontal
        // channel track, reached by a poly riser from its decoder output
        // (rising from the channel bottom) and one from its core control
        // column (dropping from y = 0). Two vertical runs only conflict
        // when they coexist at the same height, so tracks are ordered
        // such that whenever control i's output column sits within 6λ of
        // control j's core column, i's track lies BELOW j's: i's riser
        // then tops out before j's core riser begins. (6λ covers the 2λ
        // poly spacing for riser-vs-riser and the 4λ via pads at the
        // track landings.) The PLA packs outputs ≥ 12λ apart and core
        // columns sit on an 8λ grid, so precedence cycles would need
        // mutually-close pairs; if one ever occurs it is a hard
        // congestion error — never silently emit a colliding layout.
        let nc = controls.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nc];
        let mut indeg = vec![0usize; nc];
        for i in 0..nc {
            for j in 0..nc {
                if i != j && (outs[i].x - controls[j].2.x).abs() < 6 {
                    succ[j].push(i);
                    indeg[i] += 1;
                }
            }
        }
        let mut ready: std::collections::BTreeSet<usize> = (0..nc)
            .filter(|&i| indeg[i] == 0)
            .collect();
        let mut slot_of = vec![0usize; nc];
        for slot in 0..nc {
            let Some(&i) = ready.iter().next() else {
                return Err(CompileError::Gen(GenError::Unsupported(
                    "control channel congestion: cyclic riser precedence".into(),
                )));
            };
            ready.remove(&i);
            slot_of[i] = slot;
            for &k in &succ[i] {
                indeg[k] -= 1;
                if indeg[k] == 0 {
                    ready.insert(k);
                }
            }
        }

        for (i, (_name, _line, core_pos)) in controls.iter().enumerate() {
            let track_y = -(10 + 8 * (slot_of[i] as i64 + 2));
            let out_pos = outs[i];
            // Riser from the decoder output (metal) up to the track, then
            // along, then up to the core control point. The PLA outputs
            // are active low, and the polarity-restoring control buffer
            // (`bristle_stdcells::control_buffer`) is not drawn in the
            // channel: SIMULATION and the co-sim bridge drive each control
            // at its decoded, active-high level.
            push_via(&mut frame, Point::new(out_pos.x, track_y));
            push_via(&mut frame, Point::new(core_pos.x, track_y));
            if out_pos.x != core_pos.x {
                frame.push_shape(Shape::wire(
                    Layer::Metal,
                    Path::new(
                        vec![Point::new(out_pos.x, track_y), Point::new(core_pos.x, track_y)],
                        4,
                    )
                    .expect("track"),
                ));
            }
            // A control whose output and core columns nearly coincide
            // leaves its two via pads (and riser ends) a notch apart;
            // fill the landing into one solid poly pad — it is all one
            // net.
            let dx = (out_pos.x - core_pos.x).abs();
            if dx > 0 && dx < 6 {
                frame.push_shape(Shape::rect(
                    Layer::Poly,
                    Rect::new(
                        out_pos.x.min(core_pos.x) - 2,
                        track_y - 2,
                        out_pos.x.max(core_pos.x) + 2,
                        track_y + 2,
                    ),
                ));
            }
            frame.push_shape(Shape::wire(
                Layer::Poly,
                Path::new(vec![out_pos, Point::new(out_pos.x, track_y)], 2).expect("riser"),
            ));
            frame.push_shape(Shape::wire(
                Layer::Poly,
                Path::new(vec![Point::new(core_pos.x, track_y), *core_pos], 2)
                    .expect("riser"),
            ));
        }

        // Clock rails on the first two channel slots: horizontal metal
        // from the core's west edge to the easternmost clock column,
        // with a via + poly riser up to every clock bristle. The pad
        // pass later wires the rails' west ends to the φ pads.
        let mut pad_points: Vec<(String, Point, Layer, PadKind)> = Vec::new();
        for (slot, phase) in [(0i64, Phase::Phi1), (1, Phase::Phi2)] {
            let rail_y = -(10 + 8 * slot);
            let taps: Vec<Point> = clocks
                .iter()
                .filter(|(p, _)| *p == phase)
                .map(|&(_, pos)| pos)
                .collect();
            // Rails reach the frame's west boundary so the pad pass can
            // attach there (the decoder may stick out past the core).
            let west = core.bbox.x0.min(dec_x + dec_bbox.x0);
            if taps.is_empty() {
                continue;
            }
            let east = taps.iter().map(|p| p.x).max().unwrap() + 2;
            frame.push_shape(
                Shape::rect(Layer::Metal, Rect::new(west, rail_y - 2, east, rail_y + 2))
                    .with_label(format!("{phase}")),
            );
            for tap in taps {
                push_via(&mut frame, Point::new(tap.x, rail_y));
                frame.push_shape(Shape::wire(
                    Layer::Poly,
                    Path::new(vec![Point::new(tap.x, rail_y), tap], 2).expect("clock riser"),
                ));
            }
            let kind = match phase {
                Phase::Phi1 => PadKind::Phi1,
                Phase::Phi2 => PadKind::Phi2,
            };
            pad_points.push((
                format!("{phase}"),
                Point::new(west, rail_y),
                Layer::Metal,
                kind,
            ));
        }
        for b in lib.cell(decoder).bristles() {
            if b.side == Side::South && matches!(b.flavor, Flavor::Signal) {
                pad_points.push((
                    b.name.clone(),
                    dec_t.apply(b.pos),
                    b.layer,
                    PadKind::Input,
                ));
            }
        }

        let frame_cell = lib.add_cell(frame)?;
        Ok(ControlResult {
            frame: frame_cell,
            controls: lines,
            pla,
            tape_steps,
            pad_points,
        })
    }

    // ---- Pass 3: pad layout ----------------------------------------------

    fn pass3_pads(
        &self,
        spec: &ChipSpec,
        lib: &mut Library,
        core: &CoreResult,
        control: &ControlResult,
    ) -> Result<ChipResult, CompileError> {
        // Collect all pad-needing connection points. Points that sit on
        // the core boundary but *inside* the frame bounding box (e.g.
        // port wires east of the core when the decoder is wider) get an
        // escape wire out to the frame boundary, drawn into the chip cell
        // below.
        let frame_bbox = lib.bbox(control.frame).unwrap_or(Rect::new(0, 0, 1, 1));
        let mut points: Vec<(String, Point, Layer)> = Vec::new();
        let mut kinds: Vec<PadKind> = Vec::new();
        let mut escapes: Vec<(Point, Point, Layer)> = Vec::new();
        let pads = lib.flat_bristles_where(control.frame, |_, _, flavor| {
            matches!(flavor, Flavor::Pad(_))
        });
        for b in pads {
            let Flavor::Pad(kind) = b.flavor else { continue };
            let escaped = match b.side {
                Side::East => Point::new(frame_bbox.x1, b.pos.y),
                Side::West => Point::new(frame_bbox.x0, b.pos.y),
                Side::North => Point::new(b.pos.x, frame_bbox.y1),
                Side::South => Point::new(b.pos.x, frame_bbox.y0),
            };
            if escaped != b.pos {
                escapes.push((b.pos, escaped, b.layer));
            }
            points.push((sanitize(&b.name), escaped, b.layer));
            kinds.push(kind);
        }
        for (name, pos, layer, kind) in &control.pad_points {
            points.push((sanitize(name), *pos, *layer));
            kinds.push(*kind);
        }
        // Power pads: one VDD and one GND point on the frame's west edge
        // (power-comb trunk routing is documented as out of scope; the
        // rails are tied logically by their labels).
        let gnd_pos = Point::new(frame_bbox.x0, core.std.tracks.gnd_y);
        let vdd_pos = Point::new(frame_bbox.x0, core.std.tracks.vdd_y);
        points.push(("GND".into(), gnd_pos, Layer::Metal));
        kinds.push(PadKind::Gnd);
        points.push(("VDD".into(), vdd_pos, Layer::Metal));
        kinds.push(PadKind::Vdd);

        let ring = Ring::around(frame_bbox, points.len());
        let raw: Vec<Point> = points.iter().map(|p| p.1).collect();
        let router = RotoRouter { first_fit: self.naive_pads };
        let assignment = router.assign(&ring, &raw);
        let wires = route_wires(&ring, frame_bbox, &points, &assignment)?;

        let mut chip = Cell::new(format!("{}_chip", spec.name));
        chip.push_instance(bristle_cell::Instance::new(
            control.frame,
            "frame",
            Transform::IDENTITY,
        ));
        let mut wire_length = 0;
        for (from, to, layer) in &escapes {
            let width = if *layer == Layer::Metal { 4 } else { 2 };
            chip.push_shape(Shape::wire(
                *layer,
                Path::new(vec![*from, *to], width).expect("escape wire"),
            ));
            wire_length += from.manhattan(*to);
        }
        // Pad cells at their slots, rotated to face the core.
        let slots = ring.slots(points.len(), 0);
        let wire_slots: Vec<usize> = wires.iter().map(|w| w.slot).collect();
        for w in wires {
            wire_length += w.length;
            for s in w.shapes {
                chip.push_shape(s);
            }
        }
        let mut pad_ids: Vec<(CellId, Transform)> = Vec::new();
        for (i, &wslot) in wire_slots.iter().enumerate() {
            let slot = &slots[wslot];
            let kind = kinds[i];
            let cname = format!("{}_pad{}_{}", spec.name, wslot, kind);
            let id = match lib.find(&cname) {
                Some(id) => id,
                None => lib.add_cell(pad_cell(kind, &cname))?,
            };
            let orient = match slot.side {
                Side::North => Orientation::R0,
                Side::East => Orientation::R270,
                Side::South => Orientation::R180,
                Side::West => Orientation::R90,
            };
            // Place so the pad's pin (at (20, 0) pre-transform) lands on
            // the slot position.
            let pin = orient.apply(Point::new(bristle_stdcells::PAD_SIZE / 2, 0));
            let t = Transform::new(orient, slot.pos - pin);
            pad_ids.push((id, t));
        }
        for (i, (id, t)) in pad_ids.into_iter().enumerate() {
            chip.push_instance(bristle_cell::Instance::new(id, format!("pad{i}"), t));
        }
        let top = lib.add_cell(chip)?;
        let die_bbox = lib.bbox(top).unwrap_or(Rect::new(0, 0, 1, 1));
        Ok(ChipResult {
            top,
            die_bbox,
            pad_count: points.len(),
            wire_length,
        })
    }
}

/// Replace path separators so net names survive CIF/CDL round trips.
fn sanitize(name: &str) -> String {
    name.replace('/', ".")
}

/// Metal-poly via construct pushed into a frame cell.
fn push_via(cell: &mut Cell, at: Point) {
    cell.push_shape(Shape::rect(Layer::Metal, Rect::centered(at, 4, 4)));
    cell.push_shape(Shape::rect(Layer::Contact, Rect::centered(at, 2, 2)));
    cell.push_shape(Shape::rect(Layer::Poly, Rect::centered(at, 4, 4)));
}

struct CoreResult {
    cell: CellId,
    bbox: Rect,
    std: InterfaceStd,
    microcode: Microcode,
    elements: Vec<ElementInfo>,
}

struct ControlResult {
    frame: CellId,
    controls: Vec<(String, ControlLine)>,
    pla: Pla,
    tape_steps: u64,
    pad_points: Vec<(String, Point, Layer, PadKind)>,
}

struct ChipResult {
    top: CellId,
    die_bbox: Rect,
    pad_count: usize,
    wire_length: i64,
}

/// A fully compiled chip: the library, the top cell and everything the
/// seven representations need.
pub struct CompiledChip {
    /// The chip description this was compiled from.
    pub spec: ChipSpec,
    /// The complete microcode format (user + element fields).
    pub microcode: Microcode,
    /// The cell library holding the whole design.
    pub lib: Library,
    /// The top (chip) cell.
    pub top: CellId,
    /// The datapath core cell.
    pub core_cell: CellId,
    /// Core bounding box.
    pub core_bbox: Rect,
    /// Die bounding box (pads included).
    pub die_bbox: Rect,
    /// The resolved bit-slice pitch (the paper's common cell "width").
    pub pitch: i64,
    /// Per-element records.
    pub elements: Vec<ElementInfo>,
    /// All decoder-driven control lines `(name, decode)`.
    pub controls: Vec<(String, ControlLine)>,
    /// The decoder personality the two-tape machine wrote.
    pub pla: Pla,
    /// Steps the two-tape Turing machine executed.
    pub tape_steps: u64,
    /// Pads placed.
    pub pad_count: usize,
    /// Total pad-wire length (λ).
    pub wire_length: i64,
    /// Wall-clock pass timings.
    pub timings: PassTimings,
}

impl CompiledChip {
    /// Die area in λ².
    #[must_use]
    pub fn die_area(&self) -> i64 {
        self.die_bbox.area()
    }

    /// Core area in λ².
    #[must_use]
    pub fn core_area(&self) -> i64 {
        self.core_bbox.area()
    }

    /// Builds the SIMULATION representation: a runnable [`Machine`] with
    /// one behavior per core element, control lines bound exactly as the
    /// decoder will drive them. Each element's model is the one its first
    /// column's `behavior` key names; columns with no key (the inserted
    /// precharge) add nothing, as the bus model precharges implicitly.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownElement`] names a key no model answers to;
    /// fails too if an element's controls cannot be bound.
    pub fn simulation(&self) -> Result<Machine, CompileError> {
        let mut machine = Machine::new(self.spec.data_width, self.microcode.clone());
        for e in &self.elements {
            let Some(key) = self.behavior_key(e) else {
                continue;
            };
            let behavior = bristle_sim::behaviors::by_key(key, &e.prefix, e.columns.len())
                .ok_or_else(|| CompileError::UnknownElement(key.to_owned()))?;
            machine.add_element(behavior, &self.element_controls(e))?;
        }
        Ok(machine)
    }

    /// The `behavior` key of an element: its first column's. It names
    /// the element's model ([`bristle_sim::behaviors::by_key`]) and the
    /// storage a co-simulation checks ([`bristle_sim::behaviors::storage_by_key`]).
    /// `None` for the precharge columns, which carry no key.
    #[must_use]
    pub fn behavior_key(&self, e: &ElementInfo) -> Option<&str> {
        let &first = e.columns.first()?;
        self.lib.cell(first).reprs().behavior.as_deref()
    }

    /// The control bindings of one element, exactly as the decoder
    /// drives them: the `(local name, decode spec)` pair of every control
    /// bristle in the element's columns, deduplicated by local name, in
    /// column order.
    #[must_use]
    pub fn element_controls(&self, e: &ElementInfo) -> Vec<(&str, ControlLine)> {
        let mut refs: Vec<(&str, ControlLine)> = Vec::new();
        for &col in &e.columns {
            for b in self.lib.cell(col).bristles() {
                if let Flavor::Control(line) = &b.flavor {
                    if !refs.iter().any(|(n, _)| *n == b.name) {
                        refs.push((b.name.as_str(), line.clone()));
                    }
                }
            }
        }
        refs
    }
}

impl fmt::Debug for CompiledChip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledChip")
            .field("name", &self.spec.name)
            .field("die", &self.die_bbox)
            .field("pitch", &self.pitch)
            .field("pads", &self.pad_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ChipSpec {
        ChipSpec::builder("tiny")
            .data_width(4)
            .element("registers", &[("count", 2)])
            .element("alu", &[])
            .build()
            .unwrap()
    }

    #[test]
    fn compiles_small_chip() {
        let chip = Compiler::new().compile(&small_spec()).unwrap();
        assert!(chip.die_area() > chip.core_area());
        assert!(chip.pad_count >= 4, "pads: {}", chip.pad_count);
        assert!(chip.pitch > 0);
        assert!(!chip.controls.is_empty());
        assert!(!chip.pla.terms().is_empty());
    }

    #[test]
    fn simulation_machine_works() {
        let chip = Compiler::new().compile(&small_spec()).unwrap();
        let mut m = chip.simulation().unwrap();
        // Move a value reg0 -> alu.a via bus A using the real decoder
        // field names.
        m.poke("e0_registers", "r0", 9).unwrap();
        let word = m
            .microcode()
            .encode(&[("e0_registers_rda", 1), ("e1_alu_actl", 1)])
            .unwrap();
        m.step_word(word).unwrap();
        assert_eq!(m.peek("e1_alu", "a").unwrap(), 9);
    }

    /// The machine follows each element's `behavior` key, not its kind:
    /// a key no model answers to is refused by name.
    #[test]
    fn simulation_refuses_an_unknown_behavior_key() {
        let mut chip = Compiler::new().compile(&small_spec()).unwrap();
        let col = chip.elements.iter().find(|e| e.kind == "alu").unwrap().columns[0];
        let mut cell = chip.lib.cell(col).clone();
        cell.reprs_mut().behavior = Some("abacus".into());
        chip.lib = chip.lib.with_cell_replaced(col, cell).unwrap();
        match chip.simulation().err() {
            Some(CompileError::UnknownElement(key)) => assert_eq!(key, "abacus"),
            other => panic!("expected the key refused, got {other:?}"),
        }
    }

    #[test]
    fn decoder_matches_control_spec() {
        let chip = Compiler::new().compile(&small_spec()).unwrap();
        // For a sample of words, the PLA output for each control equals
        // the direct decode of its ControlLine.
        for word in [0u64, 1, 5, 13, 37, 255] {
            let outputs: std::collections::HashMap<String, bool> = chip.pla.eval(word).into_iter().collect();
            for (name, line) in &chip.controls {
                let field = chip.microcode.extract(word, &line.field).unwrap_or(0);
                let want = line.active.eval(field);
                assert_eq!(outputs.get(name), Some(&want), "word={word} control={name}");
            }
        }
    }

    #[test]
    fn prototype_flag_adds_pads() {
        let base = Compiler::new().compile(&small_spec()).unwrap();
        let proto_spec = ChipSpec::builder("tinyp")
            .data_width(4)
            .element("registers", &[("count", 2)])
            .element("alu", &[])
            .flag("PROTOTYPE", true)
            .build()
            .unwrap();
        let proto = Compiler::new().compile(&proto_spec).unwrap();
        assert!(proto.pad_count > base.pad_count);
        assert!(proto.die_area() >= base.die_area());
    }

    #[test]
    fn naive_pads_cost_more_wire() {
        let spec = small_spec();
        let good = Compiler::new().compile(&spec).unwrap();
        let naive = Compiler {
            naive_pads: true,
            ..Compiler::new()
        }
        .compile(&spec)
        .unwrap();
        assert!(good.wire_length <= naive.wire_length);
    }

    #[test]
    fn unknown_element_rejected() {
        let spec = ChipSpec::builder("bad")
            .element("warp_drive", &[])
            .build()
            .unwrap();
        assert!(matches!(
            Compiler::new().compile(&spec),
            Err(CompileError::UnknownElement(_))
        ));
    }
}

//! The bit-cell frame: a declarative grid model for hand-designed leaf
//! cells.
//!
//! Geometry model (all λ):
//!
//! * **Tracks** — horizontal metal, [`TRACK_WIDTH`] wide, at the
//!   [`Tracks`] offsets the region heights imply: GND rail centered at
//!   `gnd_y = 2`, bus A / bus B / VDD at cell-specific offsets. Tracks
//!   span the full cell width; W/E bristles make abutment automatic.
//! * **Slots** — vertical structures on an 8λ grid: slot `k` occupies
//!   `x ∈ [8k+4, 8k+6]`. A slot is either a *control column* (poly from
//!   the south/decoder edge through the whole slice), a *clock column*
//!   (same, flavored `Clock`), or an internal *plate* (a poly storage
//!   node that does not reach the edge).
//! * **Chains** — horizontal diffusion runs in one of three device
//!   regions (between consecutive tracks). A chain from slot `a` to
//!   slot `b` crosses exactly the columns `a..=b`; each crossing is an
//!   enhancement transistor. Chain ends *tap* a neighboring track
//!   (contact + stub), tie to a plate (buried contact) or exit east as a
//!   pad wire.
//! * **Stretch lines** — one per track gap, placed where only vertical
//!   geometry crosses, so stretching never cuts a device.
//!
//! The builder validates the spec (chain collisions, long-tap clearance)
//! and emits a [`Cell`] with bristles, stretch lines, power data and
//! representation stubs.

use std::fmt;

use bristle_cell::{
    Bristle, Cell, CellReprs, ControlLine, Flavor, Phase, PowerInfo, Rail, Shape, Side, Tracks,
    TRACK_WIDTH,
};
use bristle_geom::{Layer, Point, Rect};

/// Half a track's width: the distance from a track's center line to its
/// edge.
const HALF_TRACK: i64 = TRACK_WIDTH / 2;

/// What occupies a vertical slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A control column rising from the decoder edge; carries a
    /// [`ControlLine`] decode request on its south bristle.
    Control {
        /// Element-local control name (e.g. `"ld"`).
        name: String,
        /// Decode condition the instruction decoder must satisfy.
        line: ControlLine,
    },
    /// A clock column (φ1 or φ2) rising from the south edge.
    Clock(Phase),
    /// An internal poly plate (dynamic storage node / gate wiring).
    Plate {
        /// Net name for extraction and debugging.
        name: String,
    },
    /// A depletion-load inverter: a vertical diffusion strip from the GND
    /// rail to the VDD rail, an enhancement driver gated by the `input`
    /// plate and a depletion pull-up (implant, gate tied to the output
    /// node via a buried contact) feeding the `output` plate. The restored
    /// (inverted) level on `output` is what lets read chains *assert* a
    /// stored value onto a precharged bus instead of discharging it —
    /// the non-inverting read path.
    ///
    /// Layout discipline: `input` and `output` must be [`Slot::Plate`]s
    /// exactly two slots away on opposite sides, with the slots adjacent
    /// to the inverter left as [`Slot::Gap`] (the gate/output poly
    /// branches cross them, and diffusion chains need 3λ clearance from
    /// the strip).
    Inverter {
        /// Slot index of the input plate (the stored value).
        input: usize,
        /// Slot index of the output plate (receives the inverted level).
        output: usize,
    },
    /// An unused spacer slot.
    Gap,
}

/// A device region between two adjacent tracks. Regions are declared
/// bottom to top, so `region as usize` indexes both the track below the
/// region in [`Tracks::ys`] and [`BitCellSpec::region_heights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Between the GND rail and bus A.
    GndBusA,
    /// Between bus A and bus B.
    BusABusB,
    /// Between bus B and the VDD rail.
    BusBVdd,
}

/// What a chain end connects to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tap {
    /// Contact up/down to one of the four tracks. The track need not
    /// bound the chain's region: a long tap runs its diffusion pad across
    /// the tracks in between (validation checks its clearance).
    Gnd,
    /// Bus A track.
    BusA,
    /// Bus B track.
    BusB,
    /// VDD track.
    Vdd,
    /// Tie to the plate in the adjacent slot via a buried contact.
    Plate,
    /// Leave the chain end unconnected (a probe/diagnostic stub).
    Open,
    /// Metal wire east to the cell edge, ending in a pad-request
    /// bristle of this kind (ports).
    PadEast(bristle_cell::PadKind, String),
}

impl Tap {
    /// Center y of the track this tap contacts; `None` for the taps that
    /// contact no track.
    fn track_y(&self, t: &Tracks) -> Option<i64> {
        match self {
            Tap::Gnd => Some(t.gnd_y),
            Tap::BusA => Some(t.bus_a_y),
            Tap::BusB => Some(t.bus_b_y),
            Tap::Vdd => Some(t.vdd_y),
            Tap::Plate | Tap::Open | Tap::PadEast(..) => None,
        }
    }
}

/// One diffusion chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Device region.
    pub region: Region,
    /// First slot crossed (gate or plate tie).
    pub from_slot: usize,
    /// Last slot crossed.
    pub to_slot: usize,
    /// Connection at the west end.
    pub left: Tap,
    /// Connection at the east end.
    pub right: Tap,
}

/// Declarative bit-cell specification.
#[derive(Debug, Clone, PartialEq)]
pub struct BitCellSpec {
    /// Cell name.
    pub name: String,
    /// Slot contents, west to east.
    pub slots: Vec<Slot>,
    /// Diffusion chains.
    pub chains: Vec<Chain>,
    /// Heights of the three device regions (track gap = region height;
    /// defaults 12 each). Varying these is how different element types
    /// end up with different natural pitches.
    pub region_heights: [i64; 3],
    /// Escape lane index for [`Tap::PadEast`] wires. Lane `n` places the
    /// east-bound pad metal `8n`λ higher in its region, so several ports
    /// of the same kind abut without their escape wires colliding (the
    /// pad pass needs ≥ 7λ between parallel wires). The owning region
    /// must be `12 + 8n`λ tall.
    pub pad_lane: i64,
    /// Supply current estimate (µA), excluding inverter static draw —
    /// the builder adds [`bristle_cell::INVERTER_STATIC_UA`] per
    /// [`Slot::Inverter`] itself.
    pub power_ua: u64,
    /// The cell's other representations to attach ([`CellReprs`]).
    pub reprs: CellReprs,
}

/// Errors from frame validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A chain references a slot index outside the cell.
    SlotOutOfRange(usize),
    /// A chain is reversed (`from_slot > to_slot`).
    ReversedChain(usize),
    /// Two chains in one region overlap or come closer than one slot.
    ChainsCollide(usize, usize),
    /// A plate tap's adjacent slot is not a plate.
    NotAPlate {
        /// Chain index.
        chain: usize,
        /// Slot that should have been a plate.
        slot: usize,
    },
    /// A region height is too small for devices (minimum 10λ).
    RegionTooSmall(i64),
    /// A `PadEast` tap is only legal at the right end of a chain.
    PadTapNotEast(usize),
    /// An inverter slot violates the layout discipline (plate placement,
    /// gap clearance, or region height).
    BadInverter {
        /// The inverter's slot index.
        slot: usize,
        /// What is wrong.
        reason: &'static str,
    },
    /// A diffusion chain (body or tap) comes closer than 3λ to an
    /// inverter's strip.
    ChainHitsInverter {
        /// Chain index.
        chain: usize,
        /// Inverter slot index.
        slot: usize,
    },
    /// The `pad_lane` does not fit: the region holding a `PadEast` wire
    /// must be `12 + 8·lane`λ tall.
    PadLaneDoesNotFit {
        /// The offending lane.
        lane: i64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::SlotOutOfRange(s) => write!(f, "slot {s} out of range"),
            FrameError::ReversedChain(c) => write!(f, "chain {c} reversed"),
            FrameError::ChainsCollide(a, b) => write!(f, "chains {a} and {b} collide"),
            FrameError::NotAPlate { chain, slot } => {
                write!(f, "chain {chain}: slot {slot} is not a plate")
            }
            FrameError::RegionTooSmall(h) => write!(f, "region height {h} < 10λ"),
            FrameError::PadTapNotEast(c) => write!(f, "chain {c}: PadEast only at right end"),
            FrameError::BadInverter { slot, reason } => {
                write!(f, "inverter at slot {slot}: {reason}")
            }
            FrameError::ChainHitsInverter { chain, slot } => {
                write!(f, "chain {chain} within 3λ of the inverter strip at slot {slot}")
            }
            FrameError::PadLaneDoesNotFit { lane } => {
                write!(f, "pad lane {lane} needs a {}λ region", 12 + 8 * lane)
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl BitCellSpec {
    /// A spec with sensible defaults and no devices.
    #[must_use]
    pub fn new(name: impl Into<String>) -> BitCellSpec {
        BitCellSpec {
            name: name.into(),
            slots: Vec::new(),
            chains: Vec::new(),
            region_heights: [12, 12, 12],
            pad_lane: 0,
            power_ua: 50,
            reprs: CellReprs::default(),
        }
    }

    /// Track offsets implied by the region heights: GND centered at
    /// 2λ, and each region between two track halves.
    #[must_use]
    pub fn tracks(&self) -> Tracks {
        let [r1, r2, r3] = self.region_heights.map(|r| r + TRACK_WIDTH);
        let gnd_y = HALF_TRACK;
        Tracks::from_ys([gnd_y, gnd_y + r1, gnd_y + r1 + r2, gnd_y + r1 + r2 + r3])
    }

    /// Cell width: the slot grid plus 8λ margins each side.
    #[must_use]
    pub fn width(&self) -> i64 {
        8 * self.slots.len() as i64 + 16
    }

    /// x-interval of slot `k`'s vertical structure.
    #[must_use]
    pub fn slot_x(k: usize) -> i64 {
        8 * k as i64 + 8
    }

    fn validate(&self) -> Result<(), FrameError> {
        for h in self.region_heights {
            if h < 10 {
                return Err(FrameError::RegionTooSmall(h));
            }
        }
        if self.pad_lane < 0 {
            return Err(FrameError::PadLaneDoesNotFit { lane: self.pad_lane });
        }
        let n = self.slots.len();
        // Inverter layout discipline: plates two slots away on opposite
        // sides, gaps adjacent (the gate and output branches cross them).
        for (k, slot) in self.slots.iter().enumerate() {
            let Slot::Inverter { input, output } = slot else {
                continue;
            };
            let bad = |reason: &'static str| FrameError::BadInverter { slot: k, reason };
            let (lo, hi) = (k.checked_sub(2), k + 2);
            let valid_pair = lo.is_some_and(|lo| {
                (*input == lo && *output == hi) || (*input == hi && *output == lo)
            });
            if !valid_pair {
                return Err(bad("input and output must sit 2 slots away on opposite sides"));
            }
            for s in [*input, *output] {
                if !matches!(self.slots.get(s), Some(Slot::Plate { .. })) {
                    return Err(bad("input/output slots must be plates"));
                }
            }
            for s in [k - 1, k + 1] {
                if !matches!(self.slots.get(s), Some(Slot::Gap)) {
                    return Err(bad("slots adjacent to an inverter must be gaps"));
                }
            }
        }
        for (ci, c) in self.chains.iter().enumerate() {
            if c.from_slot > c.to_slot {
                return Err(FrameError::ReversedChain(ci));
            }
            if c.to_slot >= n {
                return Err(FrameError::SlotOutOfRange(c.to_slot));
            }
            // Plate taps must have an adjacent plate slot.
            if c.left == Tap::Plate {
                let s = c.from_slot; // the first crossed slot is the plate
                if !matches!(self.slots.get(s), Some(Slot::Plate { .. })) {
                    return Err(FrameError::NotAPlate { chain: ci, slot: s });
                }
            }
            if c.right == Tap::Plate {
                let s = c.to_slot;
                if !matches!(self.slots.get(s), Some(Slot::Plate { .. })) {
                    return Err(FrameError::NotAPlate { chain: ci, slot: s });
                }
            }
            if matches!(c.left, Tap::PadEast(..)) {
                return Err(FrameError::PadTapNotEast(ci));
            }
        }
        // Collision: chains in the same region need ≥ 1 free slot between
        // their spans (the taps extend one slot outward).
        for i in 0..self.chains.len() {
            for j in i + 1..self.chains.len() {
                let (a, b) = (&self.chains[i], &self.chains[j]);
                if a.region == b.region
                    && a.from_slot <= b.to_slot + 1
                    && b.from_slot <= a.to_slot + 1
                {
                    return Err(FrameError::ChainsCollide(i, j));
                }
            }
        }
        // Long-tap collisions: a tap pad reaching a non-adjacent track is
        // a vertical diffusion run that must clear every other chain's
        // body and taps by the 3λ diffusion spacing (taps landing on the
        // same track merely join nets that the track already joins, so
        // only *other-chain body* proximity matters).
        let geoms: Vec<(usize, Vec<bristle_geom::Rect>)> = self
            .chains
            .iter()
            .enumerate()
            .map(|(ci, c)| (ci, self.chain_rects(c)))
            .collect();
        for (i, (ci, ra)) in geoms.iter().enumerate() {
            for (cj, rb) in geoms.iter().skip(i + 1).map(|(cj, rb)| (cj, rb)) {
                for a in ra {
                    for b in rb {
                        if a.overlaps(b) || a.spacing(b) < 3 {
                            return Err(FrameError::ChainsCollide(*ci, *cj));
                        }
                    }
                }
            }
        }
        // Inverter strips are diffusion too: every chain body and tap must
        // clear them by the same 3λ.
        for (k, slot) in self.slots.iter().enumerate() {
            if !matches!(slot, Slot::Inverter { .. }) {
                continue;
            }
            let strip = self.inverter_diff_rects(k);
            for (ci, rects) in &geoms {
                for a in rects {
                    for b in &strip {
                        if a.overlaps(b) || a.spacing(b) < 3 {
                            return Err(FrameError::ChainHitsInverter {
                                chain: *ci,
                                slot: k,
                            });
                        }
                    }
                }
            }
        }
        // PadEast lanes must fit under the next track.
        if self.pad_lane > 0 {
            for c in &self.chains {
                if matches!(c.right, Tap::PadEast(..))
                    && self.region_heights[c.region as usize] < 12 + 8 * self.pad_lane
                {
                    return Err(FrameError::PadLaneDoesNotFit {
                        lane: self.pad_lane,
                    });
                }
            }
        }
        Ok(())
    }

    /// Diffusion footprint of an inverter at slot `k`: the strip plus the
    /// widened rail contact pads (used by validation).
    fn inverter_diff_rects(&self, k: usize) -> Vec<bristle_geom::Rect> {
        use bristle_geom::Rect;
        let t = self.tracks();
        let x = BitCellSpec::slot_x(k);
        vec![
            Rect::new(x, t.gnd_y - 1, x + 2, t.vdd_y + 1),
            Rect::new(x - 1, t.gnd_y - 2, x + 3, t.gnd_y + 2),
            Rect::new(x - 1, t.vdd_y - 2, x + 3, t.vdd_y + 2),
        ]
    }

    /// Approximate diffusion footprint of a chain: body plus tap pads
    /// (used only for validation).
    fn chain_rects(&self, c: &Chain) -> Vec<bristle_geom::Rect> {
        use bristle_geom::Rect;
        let t = self.tracks();
        let (y0, y1) = self.chain_y(c.region);
        let x0 = BitCellSpec::slot_x(c.from_slot) - 4;
        let x1 = BitCellSpec::slot_x(c.to_slot) + 6;
        let mut rects = vec![Rect::new(x0, y0, x1, y1)];
        for (left_end, tap) in [(true, &c.left), (false, &c.right)] {
            let sx = if left_end { x0 } else { x1 - 2 };
            if matches!(tap, Tap::PadEast(..)) {
                // The raised-contact riser grows with the escape lane.
                rects.push(Rect::new(sx - 1, y1, sx + 3, y1 + 8 * self.pad_lane + 5));
                continue;
            }
            let Some(ty) = tap.track_y(&t) else {
                continue;
            };
            let pad = if ty < y0 {
                Rect::new(sx - 1, ty - 2, sx + 3, y0)
            } else {
                Rect::new(sx - 1, y1, sx + 3, ty + 2)
            };
            rects.push(pad);
        }
        rects
    }

    /// Chain y-interval (bottom, top) in its region.
    fn chain_y(&self, region: Region) -> (i64, i64) {
        // Chains sit 3λ above the track below them, clearing the 4λ-wide
        // tap pads that rise from lower regions to that track, and leave
        // the upper part of the region for the stretch line.
        let below = self.tracks().ys()[region as usize];
        (below + 5, below + 7)
    }

    /// Builds the cell.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn build(&self) -> Result<Cell, FrameError> {
        self.validate()?;
        let t = self.tracks();
        let w = self.width();
        let mut cell = Cell::new(&self.name);
        let top = t.vdd_y + HALF_TRACK;

        // Tracks.
        let flavors = [
            Flavor::Power(Rail::Gnd),
            Flavor::Bus { bus: 0 },
            Flavor::Bus { bus: 1 },
            Flavor::Power(Rail::Vdd),
        ];
        for ((name, y), flavor) in t.iter().zip(flavors) {
            let track = Rect::new(0, y - HALF_TRACK, w, y + HALF_TRACK);
            cell.push_shape(Shape::rect(Layer::Metal, track).with_label(name.to_uppercase()));
            let name_w = format!("{}_w", name.to_lowercase());
            let name_e = format!("{}_e", name.to_lowercase());
            cell.push_bristle(Bristle::new(
                name_w,
                Layer::Metal,
                Point::new(0, y),
                Side::West,
                flavor.clone(),
            ));
            cell.push_bristle(Bristle::new(
                name_e,
                Layer::Metal,
                Point::new(w, y),
                Side::East,
                flavor,
            ));
        }

        // Slots.
        for (k, slot) in self.slots.iter().enumerate() {
            let x = BitCellSpec::slot_x(k);
            match slot {
                Slot::Control { name, line } => {
                    cell.push_shape(
                        Shape::rect(Layer::Poly, Rect::new(x, 0, x + 2, top))
                            .with_label(name.clone()),
                    );
                    cell.push_bristle(Bristle::new(
                        name.clone(),
                        Layer::Poly,
                        Point::new(x + 1, 0),
                        Side::South,
                        Flavor::Control(line.clone()),
                    ));
                    // The column continues north for the slice above.
                    cell.push_bristle(Bristle::new(
                        format!("{name}_n"),
                        Layer::Poly,
                        Point::new(x + 1, top),
                        Side::North,
                        Flavor::Signal,
                    ));
                }
                Slot::Clock(phase) => {
                    // Unique name per slot: a cell may have several
                    // columns of the same phase.
                    let name = format!("{phase}_s{k}");
                    cell.push_shape(
                        Shape::rect(Layer::Poly, Rect::new(x, 0, x + 2, top))
                            .with_label(format!("{phase}")),
                    );
                    cell.push_bristle(Bristle::new(
                        name,
                        Layer::Poly,
                        Point::new(x + 1, 0),
                        Side::South,
                        Flavor::Clock(*phase),
                    ));
                }
                Slot::Plate { name } => {
                    // Internal plate spanning device regions 1 and 2 only
                    // (stopping short of bus B so region-3 chains are
                    // never crossed accidentally).
                    cell.push_shape(
                        Shape::rect(Layer::Poly, Rect::new(x, t.gnd_y + 1, x + 2, t.bus_b_y - 3))
                            .with_label(name.clone()),
                    );
                    // Probe bristle: gives the storage node a stable,
                    // instance-qualified terminal name in extracted
                    // netlists, which is what lets the differential
                    // testbench compare dynamic storage against the
                    // functional model. Placed below the first stretch
                    // line so alignment stretching never moves it off
                    // the plate.
                    cell.push_bristle(Bristle::new(
                        name.clone(),
                        Layer::Poly,
                        Point::new(x + 1, t.gnd_y + 2),
                        Side::North,
                        Flavor::Signal,
                    ));
                }
                Slot::Inverter { input, output } => {
                    // The verified nMOS inverter pattern from the control
                    // buffer / PLA drivers, rotated into the frame: a
                    // vertical diffusion strip from GND to VDD, the
                    // enhancement driver gated by the input plate low in
                    // region 1, the output node tapped by a buried
                    // contact, and the depletion pull-up (implant, gate
                    // tied to the output) tucked under the bus A track.
                    let out_x = BitCellSpec::slot_x(*output);
                    let in_x = BitCellSpec::slot_x(*input);
                    // Strip + widened rail contact pads — the same rects
                    // the chain-clearance validation models.
                    for r in self.inverter_diff_rects(k) {
                        cell.push_shape(Shape::rect(Layer::Diffusion, r));
                    }
                    for ty in [t.gnd_y, t.vdd_y] {
                        cell.push_shape(Shape::rect(
                            Layer::Contact,
                            Rect::new(x, ty - 1, x + 2, ty + 1),
                        ));
                    }
                    // Enhancement driver: poly branch from the input
                    // plate across the strip, low in region 1 (below the
                    // chain lane).
                    let ey = t.gnd_y + 3;
                    let enh = if in_x > x {
                        Rect::new(x - 2, ey, in_x + 2, ey + 2)
                    } else {
                        Rect::new(in_x, ey, x + 4, ey + 2)
                    };
                    cell.push_shape(Shape::rect(Layer::Poly, enh));
                    // Output takeoff: poly branch from the output plate
                    // across the strip, joined to the output node by a
                    // buried contact, continuing past the strip to the
                    // gate-tie column.
                    let oy = t.gnd_y + 9;
                    let (branch, tie, dep) = if out_x < x {
                        (
                            Rect::new(out_x, oy, x + 5, oy + 2),
                            Rect::new(x + 3, oy, x + 5, t.bus_a_y + 1),
                            Rect::new(x - 2, t.bus_a_y - 1, x + 5, t.bus_a_y + 1),
                        )
                    } else {
                        (
                            Rect::new(x - 3, oy, out_x + 2, oy + 2),
                            Rect::new(x - 3, oy, x - 1, t.bus_a_y + 1),
                            Rect::new(x - 3, t.bus_a_y - 1, x + 4, t.bus_a_y + 1),
                        )
                    };
                    cell.push_shape(Shape::rect(Layer::Poly, branch));
                    cell.push_shape(Shape::rect(
                        Layer::Buried,
                        Rect::new(x, oy, x + 2, oy + 2),
                    ));
                    // Depletion pull-up: gate tied to the output node via
                    // the tie column, implant surrounding the channel.
                    cell.push_shape(Shape::rect(Layer::Poly, tie));
                    cell.push_shape(Shape::rect(Layer::Poly, dep));
                    cell.push_shape(Shape::rect(
                        Layer::Implant,
                        Rect::new(x - 1, t.bus_a_y - 2, x + 3, t.bus_a_y + 2),
                    ));
                }
                Slot::Gap => {}
            }
        }

        // Chains.
        for c in &self.chains {
            let (y0, y1) = self.chain_y(c.region);
            let x0 = BitCellSpec::slot_x(c.from_slot) - 4;
            let x1 = BitCellSpec::slot_x(c.to_slot) + 6;
            cell.push_shape(Shape::rect(Layer::Diffusion, Rect::new(x0, y0, x1, y1)));
            let tap = |left_end: bool, tap: &Tap, cell: &mut Cell| {
                // Contact constructs sit 1λ inside the chain end, clear of
                // the neighboring columns by 1λ on both sides.
                let sx = if left_end { x0 } else { x1 - 2 };
                match tap {
                    Tap::Open => {}
                    Tap::Plate => {
                        // Buried contact where the chain meets the plate
                        // column at this end.
                        let slot = if left_end { c.from_slot } else { c.to_slot };
                        let px = BitCellSpec::slot_x(slot);
                        cell.push_shape(Shape::rect(
                            Layer::Buried,
                            Rect::new(px, y0, px + 2, y1),
                        ));
                    }
                    Tap::PadEast(kind, name) => {
                        // Raised contact above the chain (clearing the
                        // track below by 3λ), then a metal wire east to
                        // the cell edge. The escape lane index lifts the
                        // wire 8λ per lane so same-kind ports on one chip
                        // keep their wires ≥ 7λ apart.
                        let ly = y1 + 8 * self.pad_lane;
                        cell.push_shape(Shape::rect(
                            Layer::Diffusion,
                            Rect::new(sx - 1, y1, sx + 3, ly + 5),
                        ));
                        cell.push_shape(Shape::rect(
                            Layer::Contact,
                            Rect::new(sx, ly + 1, sx + 2, ly + 3),
                        ));
                        cell.push_shape(
                            Shape::rect(Layer::Metal, Rect::new(sx - 1, ly, w, ly + 4))
                                .with_label(name.clone()),
                        );
                        cell.push_bristle(Bristle::new(
                            name.clone(),
                            Layer::Metal,
                            Point::new(w, ly + 2),
                            Side::East,
                            Flavor::Pad(*kind),
                        ));
                    }
                    track => {
                        let ty = track.track_y(&t).expect("the other taps are track taps");
                        // A flush 4λ-wide diffusion pad running from the
                        // track (with 2λ cut coverage) to the chain edge,
                        // so no same-layer notch is created.
                        let pad = if ty < y0 {
                            Rect::new(sx - 1, ty - 2, sx + 3, y0)
                        } else {
                            Rect::new(sx - 1, y1, sx + 3, ty + 2)
                        };
                        cell.push_shape(Shape::rect(Layer::Diffusion, pad));
                        cell.push_shape(Shape::rect(
                            Layer::Contact,
                            Rect::new(sx, ty - 1, sx + 2, ty + 1),
                        ));
                    }
                }
            };
            tap(true, &c.left, &mut cell);
            tap(false, &c.right, &mut cell);
        }

        // Stretch lines: one per track gap, at the very top of each
        // region (1λ below the next track's bottom edge) where only
        // vertical geometry crosses — devices, contacts and tap pads all
        // sit lower. Plus the base line for the bottom segment.
        cell.add_stretch_y(0);
        for (below, r) in t.ys().into_iter().zip(self.region_heights) {
            cell.add_stretch_y(below + r + 1);
        }

        // Power: the declared dynamic estimate plus the DC draw of every
        // ratioed inverter (its depletion load conducts while the output
        // is low).
        let inverters = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Inverter { .. }))
            .count();
        cell.set_power(PowerInfo::with_inverters(self.power_ua, inverters));
        *cell.reprs_mut() = self.reprs.clone();
        Ok(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::ActiveWhen;
    use bristle_drc::{check_flat, RuleSet};
    use bristle_extract::extract;
    use bristle_cell::{InterfaceStd, Library, TrackSet};

    fn ctl(name: &str) -> Slot {
        Slot::Control {
            name: name.into(),
            line: ControlLine {
                field: "f".into(),
                active: ActiveWhen::Equals(1),
                phase: Phase::Phi1,
            },
        }
    }

    fn demo_spec() -> BitCellSpec {
        let mut s = BitCellSpec::new("demo_bit");
        s.slots = vec![
            ctl("ld"),
            Slot::Plate {
                name: "store".into(),
            },
            ctl("rd"),
            Slot::Gap,
        ];
        s.chains = vec![
            // Write path: bus A through ld gate onto the storage plate.
            Chain {
                region: Region::BusABusB,
                from_slot: 0,
                to_slot: 1,
                left: Tap::BusA,
                right: Tap::Plate,
            },
            // Read path: storage and rd in series pull bus A low… here
            // region 1 taps GND and bus A.
            Chain {
                region: Region::GndBusA,
                from_slot: 1,
                to_slot: 2,
                left: Tap::Gnd,
                right: Tap::BusA,
            },
        ];
        s
    }

    #[test]
    fn demo_cell_is_drc_clean() {
        let cell = demo_spec().build().unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn demo_cell_extracts_devices() {
        let cell = demo_spec().build().unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let n = extract(&lib, id);
        // Write chain crosses ld + plate(tied: no gate) = 1 gate;
        // read chain crosses plate + rd = 2 gates.
        assert_eq!(n.transistors.len(), 3, "{n}");
    }

    #[test]
    fn tracks_satisfy_interface() {
        let cell = demo_spec().build().unwrap();
        let ts = TrackSet::from_cell(&cell).unwrap();
        let std = InterfaceStd::from_tracks(&[ts]);
        let mut aligned = cell.clone();
        std.align(&mut aligned).unwrap();
        assert_eq!(aligned, cell, "a cell's own standard needs no stretch");
    }

    #[test]
    fn stretching_to_taller_pitch_stays_clean() {
        // The key Pass-1 operation: stretch the cell so its tracks match
        // a taller standard; DRC must still pass (stretch only grows).
        let mut cell = demo_spec().build().unwrap();
        let ts = TrackSet::from_cell(&cell).unwrap();
        let [gnd, a, b, vdd] = ts.tracks.ys();
        let taller = TrackSet {
            tracks: Tracks::from_ys([gnd, a + 6, b + 10, vdd + 14]),
            top: ts.top + 14,
        };
        let std = InterfaceStd::from_tracks(&[ts, taller]);
        std.align(&mut cell).unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{report}");
        // Devices survive: same transistor count after stretching.
        assert_eq!(extract(&lib, id).transistors.len(), 3);
    }

    #[test]
    fn validation_catches_errors() {
        let mut s = demo_spec();
        s.chains[0].from_slot = 9;
        s.chains[0].to_slot = 9;
        assert!(matches!(s.build(), Err(FrameError::SlotOutOfRange(9))));

        let mut s = demo_spec();
        s.chains[0].from_slot = 1;
        s.chains[0].to_slot = 0;
        assert!(matches!(s.build(), Err(FrameError::ReversedChain(0))));

        // Long taps are allowed, but only when they clear other chains:
        // a Vdd tap rising from region 1 straight through chain 0's
        // region-2 body collides.
        let mut s = demo_spec();
        s.chains[1].left = Tap::Vdd;
        assert!(matches!(s.build(), Err(FrameError::ChainsCollide(0, 1))));

        let mut s = demo_spec();
        // A second bus-A..bus-B chain adjacent to chain 0 (taps valid but
        // spans too close).
        s.chains[1] = Chain {
            region: Region::BusABusB,
            from_slot: 2,
            to_slot: 3,
            left: Tap::BusA,
            right: Tap::Open,
        };
        assert!(matches!(s.build(), Err(FrameError::ChainsCollide(0, 1))));

        let mut s = demo_spec();
        s.region_heights = [6, 12, 12];
        assert!(matches!(s.build(), Err(FrameError::RegionTooSmall(6))));
    }

    /// A restoring-read demo cell: storage plate feeds an in-frame
    /// inverter whose output gates the read chain, so a read *asserts*
    /// the stored value onto the precharged bus.
    fn restoring_spec() -> BitCellSpec {
        let mut s = BitCellSpec::new("restore_bit");
        s.slots = vec![
            ctl("rd"),
            Slot::Plate {
                name: "nstore".into(),
            },
            Slot::Gap,
            Slot::Inverter {
                input: 5,
                output: 1,
            },
            Slot::Gap,
            Slot::Plate {
                name: "store".into(),
            },
            ctl("ld"),
        ];
        s.chains = vec![
            // Read: rd & ~store discharge bus A — i.e. the bus shows
            // `store` after precharge.
            Chain {
                region: Region::GndBusA,
                from_slot: 0,
                to_slot: 1,
                left: Tap::BusA,
                right: Tap::Gnd,
            },
            // Write: bus A through ld onto the storage plate.
            Chain {
                region: Region::BusABusB,
                from_slot: 5,
                to_slot: 6,
                left: Tap::Plate,
                right: Tap::BusA,
            },
        ];
        s
    }

    #[test]
    fn restoring_cell_is_drc_clean() {
        let cell = restoring_spec().build().unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn restoring_cell_extracts_inverter() {
        use bristle_extract::TransistorKind;
        let cell = restoring_spec().build().unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let n = extract(&lib, id);
        // rd + nstore (read), ld (write), inverter driver + load.
        assert_eq!(n.transistors.len(), 5, "{n}");
        let dep = n
            .transistors
            .iter()
            .filter(|t| t.kind == TransistorKind::Depletion)
            .count();
        assert_eq!(dep, 1, "{n}");
    }

    #[test]
    fn restoring_read_asserts_stored_value() {
        use bristle_sim::{Level, SwitchSim};
        let cell = restoring_spec().build().unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let n = extract(&lib, id);
        let mut sim = SwitchSim::new(&n);
        sim.preset_all(Level::L0);
        sim.set_input("rd", Level::L0).unwrap();
        sim.set_input("ld", Level::L0).unwrap();
        sim.settle().unwrap();
        // Inverter restores the zeroed plate to a high output.
        assert_eq!(sim.level("nstore").unwrap(), Level::L1);
        for bit in [Level::L1, Level::L0] {
            // Write `bit`.
            sim.set_input("BUSA", bit).unwrap();
            sim.set_input("ld", Level::L1).unwrap();
            sim.settle().unwrap();
            sim.set_input("ld", Level::L0).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.level("store").unwrap(), bit);
            // Precharge the bus, release, then read: the bus must show
            // the stored value directly (non-inverting).
            sim.set_input("BUSA", Level::L1).unwrap();
            sim.settle().unwrap();
            sim.release_input("BUSA").unwrap();
            sim.set_input("rd", Level::L1).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.level("BUSA").unwrap(), bit, "restored read of {bit}");
            sim.set_input("rd", Level::L0).unwrap();
            sim.settle().unwrap();
        }
    }

    #[test]
    fn restoring_cell_stretches_clean() {
        let mut cell = restoring_spec().build().unwrap();
        let ts = TrackSet::from_cell(&cell).unwrap();
        let [gnd, a, b, vdd] = ts.tracks.ys();
        let taller = TrackSet {
            tracks: Tracks::from_ys([gnd, a + 6, b + 10, vdd + 14]),
            top: ts.top + 14,
        };
        let std = InterfaceStd::from_tracks(&[ts, taller]);
        std.align(&mut cell).unwrap();
        let mut lib = Library::new("t");
        let id = lib.add_cell(cell).unwrap();
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{report}");
        assert_eq!(extract(&lib, id).transistors.len(), 5);
    }

    #[test]
    fn inverter_validation() {
        // Input not a plate.
        let mut s = restoring_spec();
        s.slots[5] = Slot::Gap;
        assert!(matches!(s.build(), Err(FrameError::BadInverter { .. })));
        // Adjacent slot not a gap.
        let mut s = restoring_spec();
        s.slots[2] = ctl("x");
        assert!(matches!(s.build(), Err(FrameError::BadInverter { .. })));
        // Wrong distance.
        let mut s = restoring_spec();
        s.slots[3] = Slot::Inverter {
            input: 5,
            output: 0,
        };
        assert!(matches!(s.build(), Err(FrameError::BadInverter { .. })));
        // A chain reaching within 3λ of the strip.
        let mut s = restoring_spec();
        s.chains[0].to_slot = 2;
        assert!(matches!(
            s.build(),
            Err(FrameError::ChainHitsInverter { chain: 0, slot: 3 })
        ));
    }

    #[test]
    fn pad_lane_lifts_escape_wire() {
        use bristle_cell::PadKind;
        let mk = |lane: i64| {
            let mut s = BitCellSpec::new("port_bit");
            s.slots = vec![ctl("drv"), Slot::Gap];
            s.chains = vec![Chain {
                region: Region::BusABusB,
                from_slot: 0,
                to_slot: 0,
                left: Tap::BusA,
                right: Tap::PadEast(PadKind::Input, "pad_in".into()),
            }];
            s.pad_lane = lane;
            s.region_heights = [12, 12 + 8 * lane, 12];
            s
        };
        let b0 = mk(0).build().unwrap();
        let b1 = mk(1).build().unwrap();
        let pad_y = |c: &Cell| {
            c.bristles()
                .iter()
                .find(|b| matches!(b.flavor, Flavor::Pad(_)))
                .unwrap()
                .pos
                .y
        };
        assert_eq!(pad_y(&b1) - pad_y(&b0), 8, "lane 1 sits 8λ higher");
        // Both DRC-clean.
        for cell in [b0, b1] {
            let mut lib = Library::new("t");
            let id = lib.add_cell(cell).unwrap();
            let report = check_flat(&lib, id, &RuleSet::mead_conway());
            assert!(report.is_clean(), "{report}");
        }
        // A lane that does not fit its region is rejected.
        let mut s = mk(1);
        s.region_heights = [12, 12, 12];
        assert!(matches!(
            s.build(),
            Err(FrameError::PadLaneDoesNotFit { lane: 1 })
        ));
    }

    #[test]
    fn control_bristles_point_south() {
        let cell = demo_spec().build().unwrap();
        let ctl: Vec<&Bristle> = cell
            .bristles()
            .iter()
            .filter(|b| matches!(b.flavor, Flavor::Control(_)))
            .collect();
        assert_eq!(ctl.len(), 2);
        for b in ctl {
            assert_eq!(b.side, Side::South);
            assert_eq!(b.pos.y, 0);
        }
    }
}

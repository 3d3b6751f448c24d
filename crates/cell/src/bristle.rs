//! Bristles: the typed connection points that give the system its name.
//!
//! *"Connection points are like bristles along the edges of the cells, and
//! it is upon these bristles that the Bristle Block system builds most of
//! the computable structures. Connection points help keep local data local
//! and global data global, while delaying the binding of many design
//! constraints."* — Johannsen, DAC 1979.

use std::fmt;

use bristle_geom::{Layer, Orientation, Point, Transform};

/// Which cell edge a bristle exits through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// Top edge (+y).
    North,
    /// Right edge (+x).
    East,
    /// Bottom edge (−y).
    South,
    /// Left edge (−x).
    West,
}

impl Side {
    /// All four sides, clockwise from North.
    pub const ALL: [Side; 4] = [Side::North, Side::East, Side::South, Side::West];

    /// The side as seen through an instance orientation: where the
    /// side's outward normal points once `orient` is applied.
    pub(crate) fn oriented(self, orient: Orientation) -> Side {
        let normal = match self {
            Side::North => Point::new(0, 1),
            Side::East => Point::new(1, 0),
            Side::South => Point::new(0, -1),
            Side::West => Point::new(-1, 0),
        };
        let rotated = orient.apply(normal);
        match (rotated.x, rotated.y) {
            (0, 1) => Side::North,
            (1, 0) => Side::East,
            (0, -1) => Side::South,
            (-1, 0) => Side::West,
            _ => unreachable!("D4 keeps axis vectors on axes"),
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Side::North => "N",
            Side::East => "E",
            Side::South => "S",
            Side::West => "W",
        };
        f.write_str(s)
    }
}

/// The two phases of the non-overlapping clock.
///
/// φ1 transfers data between elements over the precharged buses; φ2 runs
/// the data-processing elements (and precharges the buses for the next
/// transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Bus-transfer phase.
    Phi1,
    /// Element-operation / bus-precharge phase.
    Phi2,
}

impl Phase {
    /// Both phases, φ1 first.
    pub const ALL: [Phase; 2] = [Phase::Phi1, Phase::Phi2];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Phi1 => f.write_str("phi1"),
            Phase::Phi2 => f.write_str("phi2"),
        }
    }
}

/// Power rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rail {
    /// Positive supply.
    Vdd,
    /// Ground.
    Gnd,
}

impl Rail {
    /// Both rails, VDD first.
    pub(crate) const ALL: [Rail; 2] = [Rail::Vdd, Rail::Gnd];
}

impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rail::Vdd => f.write_str("VDD"),
            Rail::Gnd => f.write_str("GND"),
        }
    }
}

/// The kind of pad a [`Flavor::Pad`] bristle requests.
///
/// The *cell* knows it needs "an input pad here"; *where* the pad lands on
/// the perimeter and how the wire is routed is decided globally by the pad
/// pass — the paper's canonical example of keeping local data local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PadKind {
    /// Signal input pad.
    Input,
    /// Signal output pad (with driver).
    Output,
    /// Positive supply pad.
    Vdd,
    /// Ground pad.
    Gnd,
    /// φ1 clock pad.
    Phi1,
    /// φ2 clock pad.
    Phi2,
}

impl PadKind {
    /// All pad kinds.
    pub const ALL: [PadKind; 6] = [
        PadKind::Input,
        PadKind::Output,
        PadKind::Vdd,
        PadKind::Gnd,
        PadKind::Phi1,
        PadKind::Phi2,
    ];
}

impl fmt::Display for PadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PadKind::Input => "input",
            PadKind::Output => "output",
            PadKind::Vdd => "vdd",
            PadKind::Gnd => "gnd",
            PadKind::Phi1 => "phi1",
            PadKind::Phi2 => "phi2",
        };
        f.write_str(s)
    }
}

/// When a control line is asserted, as a function of one microcode field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ActiveWhen {
    /// Asserted when the field equals this value.
    Equals(u64),
    /// Asserted when this bit (LSB = 0) of the field is set.
    Bit(u8),
}

impl ActiveWhen {
    /// Evaluates the decode condition against a field value.
    #[must_use]
    pub fn eval(&self, field_value: u64) -> bool {
        match self {
            ActiveWhen::Equals(v) => field_value == *v,
            ActiveWhen::Bit(b) => (field_value >> b) & 1 == 1,
        }
    }
}

impl fmt::Display for ActiveWhen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActiveWhen::Equals(v) => write!(f, "={v}"),
            ActiveWhen::Bit(b) => write!(f, "bit{b}"),
        }
    }
}

/// The decode function a control bristle asks of the instruction decoder:
/// *assert my line during `phase` whenever microcode field `field`
/// satisfies `active`*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ControlLine {
    /// Name of the microcode field (must match the chip spec).
    pub field: String,
    /// Decode condition on the field value.
    pub active: ActiveWhen,
    /// Clock phase during which the consumer samples the line.
    pub phase: Phase,
}

impl fmt::Display for ControlLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} @{}", self.field, self.active, self.phase)
    }
}

/// What a bristle is *for* — its "flavor" in the paper's vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Requests a perimeter pad of the given kind; the pad pass places the
    /// pad and routes the wire.
    Pad(PadKind),
    /// Requests a decoder-driven control line; the control pass inserts a
    /// buffer and programs the decoder PLA.
    Control(ControlLine),
    /// Taps data bus `bus` (0 = upper, 1 = lower).
    Bus {
        /// Bus index: 0 is the paper's upper bus, 1 the lower bus.
        bus: u8,
    },
    /// Power connection.
    Power(Rail),
    /// Clock connection.
    Clock(Phase),
    /// A plain inter-cell signal, matched by name during abutment.
    Signal,
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flavor::Pad(k) => write!(f, "pad:{k}"),
            Flavor::Control(c) => write!(f, "ctl:{c}"),
            // The `[0]` is the bit index the variant once carried (always
            // 0); it stays so the layout SVG's bristle titles are unchanged.
            Flavor::Bus { bus } => write!(f, "bus{bus}[0]"),
            Flavor::Power(r) => write!(f, "power:{r}"),
            Flavor::Clock(p) => write!(f, "clock:{p}"),
            Flavor::Signal => f.write_str("signal"),
        }
    }
}

/// A typed connection point on a cell edge.
///
/// # Examples
///
/// ```
/// use bristle_cell::{Bristle, Flavor, PadKind, Side};
/// use bristle_geom::{Layer, Point};
///
/// let b = Bristle::new("carry_in", Layer::Metal, Point::new(0, 12), Side::West,
///                      Flavor::Pad(PadKind::Input));
/// assert_eq!(b.name, "carry_in");
/// assert!(matches!(b.flavor, Flavor::Pad(PadKind::Input)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bristle {
    /// Signal name. Unique within a cell; the compiler namespaces it with
    /// the element path when cells are instantiated.
    pub name: String,
    /// Layer the connecting wire must use at this point.
    pub layer: Layer,
    /// Position in cell coordinates (on the cell boundary).
    pub pos: Point,
    /// Edge the bristle exits through.
    pub side: Side,
    /// What the bristle is for.
    pub flavor: Flavor,
}

impl Bristle {
    /// Creates a bristle.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        layer: Layer,
        pos: Point,
        side: Side,
        flavor: Flavor,
    ) -> Bristle {
        Bristle {
            name: name.into(),
            layer,
            pos,
            side,
            flavor,
        }
    }

    /// The bristle as seen through an instance transform: position moved,
    /// side re-oriented.
    #[must_use]
    pub fn transform(&self, t: &Transform) -> Bristle {
        Bristle {
            name: self.name.clone(),
            layer: self.layer,
            pos: t.apply(self.pos),
            side: self.side.oriented(t.orient),
            flavor: self.flavor.clone(),
        }
    }
}

impl fmt::Display for Bristle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}{} [{}] {}",
            self.name, self.pos, self.side, self.layer, self.flavor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_geom::Orientation;

    #[test]
    fn active_when_eval() {
        assert!(ActiveWhen::Equals(3).eval(3));
        assert!(!ActiveWhen::Equals(3).eval(4));
        assert!(ActiveWhen::Bit(2).eval(0b100));
        assert!(!ActiveWhen::Bit(2).eval(0b011));
    }

    #[test]
    fn bristle_transform_rotates_side() {
        let b = Bristle::new(
            "a",
            Layer::Metal,
            Point::new(5, 0),
            Side::South,
            Flavor::Signal,
        );
        let t = Transform::new(Orientation::R90, Point::new(0, 0));
        let r = b.transform(&t);
        // South normal (0,-1) rotates 90° CCW to (1,0) = East.
        assert_eq!(r.side, Side::East);
        assert_eq!(r.pos, Point::new(0, 5));
    }

    #[test]
    fn bristle_transform_mirror() {
        let b = Bristle::new(
            "a",
            Layer::Poly,
            Point::new(2, 3),
            Side::East,
            Flavor::Signal,
        );
        let t = Transform::new(Orientation::MR0, Point::new(0, 0));
        let r = b.transform(&t);
        assert_eq!(r.side, Side::West);
        assert_eq!(r.pos, Point::new(-2, 3));
    }

    #[test]
    fn display_forms() {
        let c = ControlLine {
            field: "alu_op".into(),
            active: ActiveWhen::Equals(2),
            phase: Phase::Phi2,
        };
        assert_eq!(c.to_string(), "alu_op=2 @phi2");
        assert_eq!(Flavor::Bus { bus: 1 }.to_string(), "bus1[0]");
        assert_eq!(Flavor::Power(Rail::Gnd).to_string(), "power:GND");
    }
}

//! The functional microcode-level chip simulator.
//!
//! *"The Simulation level can be used to logically simulate the chip, so
//! that software can be written for the chip to explore the feasibility
//! of the design."* — Johannsen, DAC 1979.
//!
//! The temporal model follows the paper exactly: a two-phase
//! non-overlapping clock where φ1 transfers data over the two precharged
//! buses (wired-AND: the bus starts at all-ones and drivers pull bits
//! low) and φ2 runs the data-processing elements while the buses
//! precharge for the next transfer.

use std::collections::HashMap;
use std::fmt;

use bristle_cell::{ControlLine, Phase};

use crate::microcode::{Microcode, MicrocodeError};

/// Per-element view of one clock phase.
pub struct ElementCtx<'a> {
    /// Data word width in bits.
    pub width: u32,
    /// `(1 << width) - 1`.
    pub mask: u64,
    phase: Phase,
    bindings: &'a Bindings,
    pads_in: &'a HashMap<String, u64>,
    pads_out: &'a mut HashMap<String, u64>,
}

impl ElementCtx<'_> {
    /// Is the named (element-local) control line asserted this phase?
    /// Unbound names read false.
    #[must_use]
    pub fn control(&self, name: &str) -> bool {
        let Bindings { lines, asserted } = self.bindings;
        lines
            .iter()
            .zip(asserted)
            .find(|((n, _), _)| n == name)
            .is_some_and(|((_, line), &on)| on && line.phase == self.phase)
    }

    /// Reads an input pad (0 if never set).
    #[must_use]
    pub fn pad_in(&self, pad: &str) -> u64 {
        self.pads_in.get(pad).copied().unwrap_or(0)
    }

    /// Drives an output pad.
    pub fn set_pad_out(&mut self, pad: &str, value: u64) {
        set_word(self.pads_out, pad, value & self.mask);
    }
}

impl fmt::Debug for ElementCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let asserted: Vec<&str> = self
            .bindings
            .lines
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| self.control(name))
            .collect();
        f.debug_struct("ElementCtx")
            .field("width", &self.width)
            .field("asserted", &asserted)
            .finish()
    }
}

/// A datapath element behavior: the SIMULATION representation of one
/// core element.
///
/// State is addressed by key (`r3`, `a`, `value`, `m0`, …): [`Behavior::peek`]
/// reads one word and [`Behavior::poke`] writes it, and both accept
/// exactly the same keys.
pub trait Behavior {
    /// Instance name (unique within the machine).
    fn name(&self) -> &str;

    /// φ1, drive step: values this element wants to put on
    /// `[bus A, bus B]`. `None` leaves the bus precharged. Buses combine
    /// drivers by wired-AND.
    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        let _ = ctx;
        [None, None]
    }

    /// φ1, sample step: observe the settled buses.
    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        let _ = (ctx, buses);
    }

    /// φ2: operate (compute, push/pop, write memory, transfer pads…).
    fn phi2(&mut self, ctx: &mut ElementCtx<'_>) {
        let _ = ctx;
    }

    /// Reads one word of state by key. Returns `None` if the key does
    /// not exist.
    fn peek(&self, key: &str) -> Option<u64> {
        let _ = key;
        None
    }

    /// Overwrites one word of state by key (test setup). Returns `false`
    /// if the key does not exist.
    fn poke(&mut self, key: &str, value: u64) -> bool {
        let _ = (key, value);
        false
    }
}

/// Errors from the functional simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No element with this name.
    UnknownElement(String),
    /// The element has no such state key.
    UnknownState {
        /// Element name.
        element: String,
        /// Requested key.
        key: String,
    },
    /// A control line references a microcode field that does not exist.
    UnknownControlField {
        /// Element name.
        element: String,
        /// Control line name.
        control: String,
        /// Missing field.
        field: String,
    },
    /// Duplicate element name.
    DuplicateElement(String),
    /// One element binds two control lines under the same local name.
    DuplicateControl {
        /// Element name.
        element: String,
        /// The repeated control name.
        control: String,
    },
    /// Microcode encode/extract failure.
    Microcode(MicrocodeError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownElement(n) => write!(f, "no element named `{n}`"),
            SimError::UnknownState { element, key } => {
                write!(f, "element `{element}` has no state `{key}`")
            }
            SimError::UnknownControlField {
                element,
                control,
                field,
            } => write!(
                f,
                "element `{element}` control `{control}` uses unknown microcode field `{field}`"
            ),
            SimError::DuplicateElement(n) => write!(f, "duplicate element name `{n}`"),
            SimError::DuplicateControl { element, control } => {
                write!(f, "element `{element}` binds control `{control}` twice")
            }
            SimError::Microcode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Microcode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MicrocodeError> for SimError {
    fn from(e: MicrocodeError) -> SimError {
        SimError::Microcode(e)
    }
}

/// One element's control bindings, `(local name, decode spec)` in the
/// order they were added, and per binding whether the current cycle's
/// word asserts it (in either phase).
struct Bindings {
    lines: Vec<(String, ControlLine)>,
    asserted: Vec<bool>,
}

impl Bindings {
    /// Decodes every binding from `word`, in place.
    fn decode(&mut self, microcode: &Microcode, word: u64) -> Result<(), MicrocodeError> {
        self.asserted.clear();
        for (_, line) in &self.lines {
            self.asserted.push(microcode.asserted(word, line)?);
        }
        Ok(())
    }
}

/// Stores `value` under `key`, allocating the key only on first use.
fn set_word(words: &mut HashMap<String, u64>, key: &str, value: u64) {
    match words.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            words.insert(key.to_owned(), value);
        }
    }
}

/// The functional chip simulator.
pub struct Machine {
    width: u32,
    mask: u64,
    microcode: Microcode,
    elements: Vec<(Box<dyn Behavior>, Bindings)>,
    pads_in: HashMap<String, u64>,
    pads_out: HashMap<String, u64>,
    cycle: u64,
}

impl Machine {
    /// Creates a machine with the given data width and microcode format.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    #[must_use]
    pub fn new(width: u32, microcode: Microcode) -> Machine {
        assert!((1..=64).contains(&width), "bad data width {width}");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Machine {
            width,
            mask,
            microcode,
            elements: Vec::new(),
            pads_in: HashMap::new(),
            pads_out: HashMap::new(),
            cycle: 0,
        }
    }

    /// The microcode format.
    #[must_use]
    pub fn microcode(&self) -> &Microcode {
        &self.microcode
    }

    /// Data width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Adds an element with its control bindings: `(local control name,
    /// decode spec)` pairs.
    ///
    /// # Errors
    ///
    /// Rejects duplicate element names, a control name bound twice
    /// ([`SimError::DuplicateControl`]) and control lines whose fields
    /// are not in the microcode format.
    pub fn add_element(
        &mut self,
        behavior: Box<dyn Behavior>,
        controls: &[(&str, ControlLine)],
    ) -> Result<(), SimError> {
        if self
            .elements
            .iter()
            .any(|(b, _)| b.name() == behavior.name())
        {
            return Err(SimError::DuplicateElement(behavior.name().to_owned()));
        }
        for (i, (name, line)) in controls.iter().enumerate() {
            if controls[..i].iter().any(|(n, _)| n == name) {
                return Err(SimError::DuplicateControl {
                    element: behavior.name().to_owned(),
                    control: (*name).to_owned(),
                });
            }
            if self.microcode.field(&line.field).is_none() {
                return Err(SimError::UnknownControlField {
                    element: behavior.name().to_owned(),
                    control: (*name).to_owned(),
                    field: line.field.clone(),
                });
            }
        }
        let lines = controls
            .iter()
            .map(|(n, l)| ((*n).to_owned(), l.clone()))
            .collect();
        let asserted = Vec::with_capacity(controls.len());
        self.elements.push((behavior, Bindings { lines, asserted }));
        Ok(())
    }

    /// Sets an input pad value.
    pub fn set_pad(&mut self, pad: impl AsRef<str>, value: u64) {
        set_word(&mut self.pads_in, pad.as_ref(), value & self.mask);
    }

    /// Reads an output pad, if any element has driven it.
    #[must_use]
    pub fn pad(&self, pad: &str) -> Option<u64> {
        self.pads_out.get(pad).copied()
    }

    /// Reads element state.
    ///
    /// # Errors
    ///
    /// Unknown element or key.
    pub fn peek(&self, element: &str, key: &str) -> Result<u64, SimError> {
        let (b, _) = self
            .elements
            .iter()
            .find(|(b, _)| b.name() == element)
            .ok_or_else(|| SimError::UnknownElement(element.to_owned()))?;
        b.peek(key).ok_or_else(|| SimError::UnknownState {
            element: element.to_owned(),
            key: key.to_owned(),
        })
    }

    /// Writes element state (test setup).
    ///
    /// # Errors
    ///
    /// Unknown element or key.
    pub fn poke(&mut self, element: &str, key: &str, value: u64) -> Result<(), SimError> {
        let (b, _) = self
            .elements
            .iter_mut()
            .find(|(b, _)| b.name() == element)
            .ok_or_else(|| SimError::UnknownElement(element.to_owned()))?;
        if b.poke(key, value) {
            Ok(())
        } else {
            Err(SimError::UnknownState {
                element: element.to_owned(),
                key: key.to_owned(),
            })
        }
    }

    /// Executes one full clock cycle with the given microcode word.
    /// Returns the settled `[bus A, bus B]` φ1 values.
    ///
    /// # Errors
    ///
    /// Propagates microcode decode failures.
    pub fn step_word(&mut self, word: u64) -> Result<[u64; 2], SimError> {
        // Decode every binding of every element before any behavior runs.
        for (_, bindings) in &mut self.elements {
            bindings.decode(&self.microcode, word)?;
        }
        let (width, mask) = (self.width, self.mask);
        // φ1: buses precharged high; element drives wired-AND in.
        let mut buses = [mask, mask];
        for (behavior, bindings) in &mut self.elements {
            let ctx = ElementCtx {
                width,
                mask,
                phase: Phase::Phi1,
                bindings,
                pads_in: &self.pads_in,
                pads_out: &mut self.pads_out,
            };
            let drives = behavior.phi1_drive(&ctx);
            for (bus, drive) in buses.iter_mut().zip(drives) {
                if let Some(v) = drive {
                    *bus &= v & mask;
                }
            }
        }
        for (behavior, bindings) in &mut self.elements {
            let mut ctx = ElementCtx {
                width,
                mask,
                phase: Phase::Phi1,
                bindings,
                pads_in: &self.pads_in,
                pads_out: &mut self.pads_out,
            };
            behavior.phi1_sample(&mut ctx, buses);
        }
        // φ2: elements operate; buses precharge (implicitly, next cycle).
        for (behavior, bindings) in &mut self.elements {
            let mut ctx = ElementCtx {
                width,
                mask,
                phase: Phase::Phi2,
                bindings,
                pads_in: &self.pads_in,
                pads_out: &mut self.pads_out,
            };
            behavior.phi2(&mut ctx);
        }
        self.cycle += 1;
        Ok(buses)
    }

    /// Runs a linear microcode program.
    ///
    /// # Errors
    ///
    /// Propagates the first step failure.
    pub fn run(&mut self, program: &[u64]) -> Result<(), SimError> {
        for &word in program {
            self.step_word(word)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("width", &self.width)
            .field("elements", &self.elements.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviors;
    use bristle_cell::ActiveWhen;

    fn ctl(field: &str, active: ActiveWhen, phase: Phase) -> ControlLine {
        ControlLine {
            field: field.to_owned(),
            active,
            phase,
        }
    }

    fn simple_machine() -> Machine {
        let mut mc = Microcode::new();
        mc.add_field("rd", 2).unwrap();
        mc.add_field("ld", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            behaviors::by_key("registers", "regs", 2).unwrap(),
            &[
                ("rda0", ctl("rd", ActiveWhen::Equals(1), Phase::Phi1)),
                ("rda1", ctl("rd", ActiveWhen::Equals(2), Phase::Phi1)),
                ("ld0", ctl("ld", ActiveWhen::Equals(1), Phase::Phi1)),
                ("ld1", ctl("ld", ActiveWhen::Equals(2), Phase::Phi1)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn register_to_register_transfer() {
        let mut m = simple_machine();
        m.poke("regs", "r0", 0x5A).unwrap();
        let word = m.microcode().encode(&[("rd", 1), ("ld", 2)]).unwrap();
        let buses = m.step_word(word).unwrap();
        assert_eq!(buses[0], 0x5A);
        assert_eq!(m.peek("regs", "r1").unwrap(), 0x5A);
        assert_eq!(m.cycle(), 1);
    }

    #[test]
    fn undriven_bus_reads_precharged_ones() {
        let mut m = simple_machine();
        let word = m.microcode().encode(&[("ld", 1)]).unwrap(); // nobody drives
        let buses = m.step_word(word).unwrap();
        assert_eq!(buses[0], 0xFF);
        assert_eq!(m.peek("regs", "r0").unwrap(), 0xFF);
    }

    #[test]
    fn wired_and_of_two_drivers() {
        // Both read lines decode one bit of `rd`, so rd=3 asserts both.
        let mut mc = Microcode::new();
        mc.add_field("rd", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            behaviors::by_key("registers", "regs", 2).unwrap(),
            &[
                ("rda0", ctl("rd", ActiveWhen::Bit(0), Phase::Phi1)),
                ("rda1", ctl("rd", ActiveWhen::Bit(1), Phase::Phi1)),
            ],
        )
        .unwrap();
        m.poke("regs", "r0", 0x0F).unwrap();
        m.poke("regs", "r1", 0x3C).unwrap();
        let word = m.microcode().encode(&[("rd", 3)]).unwrap();
        let buses = m.step_word(word).unwrap();
        assert_eq!(buses[0], 0x0F & 0x3C, "buses are wired-AND");
    }

    #[test]
    fn errors_reported() {
        let mut m = simple_machine();
        assert!(matches!(
            m.peek("ghost", "r0"),
            Err(SimError::UnknownElement(_))
        ));
        assert!(matches!(
            m.peek("regs", "r9"),
            Err(SimError::UnknownState { .. })
        ));
        assert!(matches!(
            m.add_element(behaviors::by_key("registers", "regs", 1).unwrap(), &[]),
            Err(SimError::DuplicateElement(_))
        ));
        assert!(matches!(
            m.add_element(
                behaviors::by_key("registers", "regs2", 1).unwrap(),
                &[("x", ctl("nofield", ActiveWhen::Equals(1), Phase::Phi1))]
            ),
            Err(SimError::UnknownControlField { .. })
        ));
    }

    /// Records what `control` reads in each step of the last cycle: bits
    /// 0/1 the φ1 and φ2 lines during `phi1_drive`, bits 2/3 during
    /// `phi1_sample`, bits 4/5 during `phi2`, bit 6 an unbound name.
    struct Probe {
        seen: u64,
    }

    impl Probe {
        fn record(&mut self, ctx: &ElementCtx<'_>, shift: u32) {
            for (i, name) in ["p1", "p2"].into_iter().enumerate() {
                self.seen |= u64::from(ctx.control(name)) << (shift + i as u32);
            }
            self.seen |= u64::from(ctx.control("unbound")) << 6;
        }
    }

    impl Behavior for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
            self.seen = 0;
            self.record(ctx, 0);
            [None, None]
        }

        fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, _buses: [u64; 2]) {
            self.record(ctx, 2);
        }

        fn phi2(&mut self, ctx: &mut ElementCtx<'_>) {
            self.record(ctx, 4);
        }

        fn peek(&self, key: &str) -> Option<u64> {
            (key == "seen").then_some(self.seen)
        }
    }

    #[test]
    fn controls_decode_per_phase() {
        let mut mc = Microcode::new();
        mc.add_field("f", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            Box::new(Probe { seen: 0 }),
            &[
                ("p1", ctl("f", ActiveWhen::Bit(0), Phase::Phi1)),
                ("p2", ctl("f", ActiveWhen::Bit(1), Phase::Phi2)),
            ],
        )
        .unwrap();
        // With both lines asserted by the word, each reads true only in
        // its own phase; every cycle decodes its own word.
        for (f, seen) in [(3, 0b10_0101), (0, 0), (2, 0b10_0000), (1, 0b00_0101)] {
            let word = m.microcode().encode(&[("f", f)]).unwrap();
            m.step_word(word).unwrap();
            assert_eq!(m.peek("probe", "seen").unwrap(), seen, "f={f}");
        }
    }

    /// A control name is bound at most once per element, so `control`
    /// never has to pick between two lines of one name.
    #[test]
    fn duplicate_control_name_is_rejected() {
        let mut mc = Microcode::new();
        mc.add_field("f", 2).unwrap();
        let mut m = Machine::new(8, mc);
        let err = m
            .add_element(
                Box::new(Probe { seen: 0 }),
                &[
                    ("p1", ctl("f", ActiveWhen::Bit(0), Phase::Phi1)),
                    ("p1", ctl("f", ActiveWhen::Bit(1), Phase::Phi2)),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::DuplicateControl {
                element: "probe".into(),
                control: "p1".into(),
            }
        );
        // Nothing was added: the element can still be bound correctly.
        m.add_element(
            Box::new(Probe { seen: 0 }),
            &[("p1", ctl("f", ActiveWhen::Bit(0), Phase::Phi1))],
        )
        .unwrap();
    }

    #[test]
    fn run_steps_every_word() {
        let mut m = simple_machine();
        m.poke("regs", "r0", 7).unwrap();
        let w = m.microcode().encode(&[("rd", 1)]).unwrap();
        m.run(&[w, w]).unwrap();
        assert_eq!(m.cycle(), 2);
        assert_eq!(m.step_word(w).unwrap()[0], 7);
    }

    #[test]
    fn pads_flow_through_ports() {
        let mut mc = Microcode::new();
        mc.add_field("io", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            behaviors::by_key("inport", "pin", 1).unwrap(),
            &[("drv", ctl("io", ActiveWhen::Equals(1), Phase::Phi1))],
        )
        .unwrap();
        m.add_element(
            behaviors::by_key("outport", "pout", 1).unwrap(),
            &[("ld", ctl("io", ActiveWhen::Equals(1), Phase::Phi1))],
        )
        .unwrap();
        m.set_pad("pin_pad", 0x42);
        let w = m.microcode().encode(&[("io", 1)]).unwrap();
        m.step_word(w).unwrap();
        assert_eq!(m.pad("pout_pad"), Some(0x42));
    }
}

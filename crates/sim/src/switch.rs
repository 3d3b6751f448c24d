//! Switch-level simulation of extracted nMOS netlists.
//!
//! The model follows the spirit of Bryant's MOSSIM (contemporary with
//! Bristle Blocks): ternary node levels, a three-tier strength lattice
//! (strong drive > weak/ratioed drive > stored charge), transistors as
//! bidirectional switches, depletion loads as always-on weak pull-ups,
//! and the nMOS threshold drop (a logic 1 degrades to weak through an
//! enhancement pass transistor — which is exactly why the paper's buses
//! are precharged on φ2 and only pulled low on φ1).

use std::fmt;

use bristle_extract::{NetId, Netlist, TransistorKind};

/// A ternary logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Logic low.
    L0,
    /// Logic high.
    L1,
    /// Unknown / conflict.
    X,
}

impl Level {
    /// Merges two contributions of equal strength.
    #[must_use]
    pub fn merge(self, other: Level) -> Level {
        if self == other {
            self
        } else {
            Level::X
        }
    }

    /// From a boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Level {
        if b {
            Level::L1
        } else {
            Level::L0
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::L0 => f.write_str("0"),
            Level::L1 => f.write_str("1"),
            Level::X => f.write_str("X"),
        }
    }
}

/// Drive strength, ordered: stored charge < weak (ratioed/degraded) <
/// strong (rail or input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strength {
    /// Dynamic charge retained on an undriven node.
    Charged,
    /// Ratioed pull-up or threshold-degraded drive.
    Weak,
    /// Rail or primary-input drive.
    Strong,
}

impl fmt::Display for Strength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strength::Charged => f.write_str("charged"),
            Strength::Weak => f.write_str("weak"),
            Strength::Strong => f.write_str("strong"),
        }
    }
}

/// Errors from switch-level simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// The netlist lacks a net with this name.
    UnknownNet(String),
    /// The relaxation did not settle (combinational loop fighting at
    /// equal strength).
    Unsettled {
        /// Iterations executed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::UnknownNet(n) => write!(f, "no net named `{n}`"),
            SwitchError::Unsettled { iterations } => {
                write!(f, "simulation did not settle after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// A switch-level simulator bound to an extracted netlist.
///
/// Every per-net quantity lives in a dense array indexed by [`NetId`]:
/// the primary-input drive (`None` when the net is not forced), the
/// charge memory and the resolved state. Driving a net is one store,
/// and a [`SwitchSim::settle`] reuses its relaxation buffers, so a
/// co-simulated cycle allocates nothing here.
pub struct SwitchSim<'a> {
    netlist: &'a Netlist,
    vdd: Vec<NetId>,
    gnd: Vec<NetId>,
    /// Primary-input drive per net; `None` leaves the net to the circuit.
    inputs: Vec<Option<Level>>,
    /// Retained level per net (charge memory between settles).
    memory: Vec<Level>,
    /// Resolved (strength, level) of the last settle.
    state: Vec<(Strength, Level)>,
    /// Relaxation buffers, kept between settles: the base drives and
    /// the two Jacobi iterates.
    base: Vec<(Strength, Level)>,
    scratch: [Vec<(Strength, Level)>; 2],
}

impl<'a> SwitchSim<'a> {
    /// Creates a simulator. Every net named `VDD` / `GND` becomes a
    /// permanent strong rail (large cells may have several physically
    /// separate rail regions that the chip assembly ties together).
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> SwitchSim<'a> {
        let n = netlist.net_count();
        let rails = |name: &str| -> Vec<NetId> {
            netlist
                .net_names
                .iter()
                .enumerate()
                .filter(|(_, nm)| nm.as_str() == name)
                .map(|(i, _)| NetId(i as u32))
                .collect()
        };
        SwitchSim {
            netlist,
            vdd: rails("VDD"),
            gnd: rails("GND"),
            inputs: vec![None; n],
            memory: vec![Level::X; n],
            state: vec![(Strength::Charged, Level::X); n],
            base: Vec::with_capacity(n),
            scratch: [Vec::with_capacity(n), Vec::with_capacity(n)],
        }
    }

    fn net(&self, name: &str) -> Result<NetId, SwitchError> {
        self.netlist
            .find_net(name)
            .ok_or_else(|| SwitchError::UnknownNet(name.to_owned()))
    }

    /// Forces a net to a level (a primary input).
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownNet`] if no net has this name.
    pub fn set_input(&mut self, name: &str, level: Level) -> Result<(), SwitchError> {
        let id = self.net(name)?;
        self.inputs[id.0 as usize] = Some(level);
        Ok(())
    }

    /// Stops forcing a net; it keeps its charge until redriven.
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownNet`] if no net has this name.
    pub fn release_input(&mut self, name: &str) -> Result<(), SwitchError> {
        let id = self.net(name)?;
        self.inputs[id.0 as usize] = None;
        Ok(())
    }

    /// Forces a net to a level by id. Net names in extracted netlists are
    /// not unique (many nets inherit the same shape label), so testbench
    /// harnesses that resolve nets through terminals drive them by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a net of the bound netlist.
    pub fn set_net(&mut self, id: NetId, level: Level) {
        self.inputs[id.0 as usize] = Some(level);
    }

    /// The level of a net (by id) after the last [`SwitchSim::settle`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a net of the bound netlist.
    #[must_use]
    pub fn net_level(&self, id: NetId) -> Level {
        self.state[id.0 as usize].1
    }

    /// Presets the charge memory of **every** net to `level` — the
    /// power-on assumption of a simulation run. Fresh simulators start
    /// all-X, which is the honest electrical answer but means any
    /// never-written storage node contaminates everything it touches;
    /// co-simulation harnesses preset all-low so the silicon starts in
    /// the same state as a freshly built functional [`crate::Machine`]
    /// (whose registers read 0). `Level::X` clears the charge memory back
    /// to that fresh all-X state.
    pub fn preset_all(&mut self, level: Level) {
        self.memory.fill(level);
        for s in &mut self.state {
            *s = (Strength::Charged, level);
        }
    }

    /// The level of a net after the last [`SwitchSim::settle`].
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownNet`] if no net has this name.
    pub fn level(&self, name: &str) -> Result<Level, SwitchError> {
        let id = self.net(name)?;
        Ok(self.state[id.0 as usize].1)
    }

    /// Relaxes the network to a fixpoint and stores charge memory.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsettled`] if the network oscillates.
    pub fn settle(&mut self) -> Result<(), SwitchError> {
        let n = self.netlist.net_count();
        // Base drives: charge memory, then the rails, then the inputs
        // (an input on a rail-named net overrides the rail).
        let base = &mut self.base;
        base.clear();
        base.extend(self.memory.iter().map(|&level| (Strength::Charged, level)));
        for vdd in &self.vdd {
            base[vdd.0 as usize] = (Strength::Strong, Level::L1);
        }
        for gnd in &self.gnd {
            base[gnd.0 as usize] = (Strength::Strong, Level::L0);
        }
        for (slot, input) in base.iter_mut().zip(&self.inputs) {
            if let Some(level) = *input {
                *slot = (Strength::Strong, level);
            }
        }
        let [mut state, mut next] = std::mem::take(&mut self.scratch);
        state.clone_from(base);
        next.resize(n, (Strength::Charged, Level::X));

        // Jacobi relaxation: each iteration recomputes every node from
        // its base drive plus the contributions implied by the *previous*
        // iteration's state. Recomputing from base (rather than
        // accumulating in place) lets early X guesses wash out once real
        // drives arrive.
        let max_iters = 4 * (n + self.netlist.transistors.len()) + 16;
        let mut iters = 0;
        loop {
            iters += 1;
            if iters > max_iters {
                self.scratch = [state, next];
                return Err(SwitchError::Unsettled {
                    iterations: max_iters,
                });
            }
            next.copy_from_slice(base);
            for t in &self.netlist.transistors {
                let gate_level = state[t.gate.0 as usize].1;
                let conducting = match (t.kind, gate_level) {
                    (TransistorKind::Depletion, _) => Some(false), // on; gate X is harmless
                    (TransistorKind::Enhancement, Level::L1) => Some(false),
                    (TransistorKind::Enhancement, Level::X) => Some(true), // maybe-on
                    (TransistorKind::Enhancement, Level::L0) => None,
                };
                let Some(x_contaminated) = conducting else {
                    continue;
                };
                for (from, to) in [(t.source, t.drain), (t.drain, t.source)] {
                    let (src_strength, src_level) = state[from.0 as usize];
                    // Stored charge never conducts: a merely-charged node
                    // keeps its level to itself and only driven values
                    // (rail, input, ratioed) pass through a switch. This
                    // keeps the relaxation monotone — without it, a stale
                    // charged level seen through a conducting device in an
                    // early iteration merges X against an equally-charged
                    // neighbor and the X sticks even after real drives
                    // arrive (classic charge-sharing pessimism).
                    //
                    // The symmetric hazard — a weak (ratioed) level seen
                    // through a switch chain overpowering a strong driver
                    // that arrives later in the same iteration — cannot
                    // occur: `next` is rebuilt from the base drives every
                    // iteration and contributions merge by strength order
                    // in `resolve`, so a transiently-winning weak level
                    // is displaced the moment the strong contribution
                    // lands, regardless of hop count or device order
                    // (pinned by `weak_inverter_output_cannot_overpower_
                    // strong_driver`).
                    if src_strength == Strength::Charged {
                        continue;
                    }
                    // Strength limit through the device.
                    let limit = match t.kind {
                        TransistorKind::Depletion => Strength::Weak,
                        TransistorKind::Enhancement => match src_level {
                            // nMOS threshold drop degrades a passed 1.
                            Level::L1 | Level::X => Strength::Weak,
                            Level::L0 => Strength::Strong,
                        },
                    };
                    let strength = src_strength.min(limit);
                    let level = if x_contaminated { Level::X } else { src_level };
                    let slot = &mut next[to.0 as usize];
                    *slot = resolve(*slot, (strength, level));
                }
            }
            if next == state {
                break;
            }
            std::mem::swap(&mut state, &mut next);
        }
        for (memory, &(_, level)) in self.memory.iter_mut().zip(&state) {
            *memory = level;
        }
        std::mem::swap(&mut self.state, &mut state);
        self.scratch = [state, next];
        Ok(())
    }
}

/// Resolves two (strength, level) contributions on one node.
fn resolve(a: (Strength, Level), b: (Strength, Level)) -> (Strength, Level) {
    match a.0.cmp(&b.0) {
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Equal => (a.0, a.1.merge(b.1)),
    }
}

impl fmt::Debug for SwitchSim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchSim")
            .field("nets", &self.netlist.net_count())
            .field("transistors", &self.netlist.transistors.len())
            .field("inputs", &self.inputs.iter().flatten().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_extract::Transistor;

    /// Hand-builds a netlist (no layout needed for simulator tests).
    fn netlist(names: &[&str], transistors: Vec<Transistor>) -> Netlist {
        Netlist {
            net_names: names.iter().map(|s| (*s).to_owned()).collect(),
            transistors,
            terminals: vec![],
        }
    }

    fn t(kind: TransistorKind, gate: u32, source: u32, drain: u32) -> Transistor {
        Transistor {
            kind,
            gate: NetId(gate),
            source: NetId(source),
            drain: NetId(drain),
            region: bristle_geom::Rect::new(0, 0, 2, 2),
            width: 2,
            length: 2,
        }
    }

    /// Inverter: VDD(0) -dep- out(2), out -enh(gate=in(3))- GND(1).
    fn inverter() -> Netlist {
        netlist(
            &["VDD", "GND", "out", "in"],
            vec![
                t(TransistorKind::Depletion, 2, 0, 2), // gate tied to out
                t(TransistorKind::Enhancement, 3, 2, 1),
            ],
        )
    }

    #[test]
    fn inverter_truth_table() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L1);
        sim.set_input("in", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L0);
    }

    #[test]
    fn x_input_gives_x_output() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::X).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::X);
    }

    /// Two-input NAND: pull-ups and a serial pull-down chain.
    #[test]
    fn nand_gate() {
        // Nets: VDD=0 GND=1 out=2 a=3 b=4 mid=5.
        let n = netlist(
            &["VDD", "GND", "out", "a", "b", "mid"],
            vec![
                t(TransistorKind::Depletion, 2, 0, 2),
                t(TransistorKind::Enhancement, 3, 2, 5),
                t(TransistorKind::Enhancement, 4, 5, 1),
            ],
        );
        let mut sim = SwitchSim::new(&n);
        for (a, b, want) in [
            (Level::L0, Level::L0, Level::L1),
            (Level::L0, Level::L1, Level::L1),
            (Level::L1, Level::L0, Level::L1),
            (Level::L1, Level::L1, Level::L0),
        ] {
            sim.set_input("a", a).unwrap();
            sim.set_input("b", b).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.level("out").unwrap(), want, "a={a} b={b}");
        }
    }

    #[test]
    fn pass_transistor_degrades_one() {
        // in(2) -enh(gate=en(3))- out(4); no load on out.
        let n = netlist(
            &["VDD", "GND", "in", "en", "out"],
            vec![t(TransistorKind::Enhancement, 3, 2, 4)],
        );
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::L1).unwrap();
        sim.set_input("en", Level::L1).unwrap();
        sim.settle().unwrap();
        // Value passes (weakly).
        assert_eq!(sim.level("out").unwrap(), Level::L1);
        // A strong 0 elsewhere would override a passed 1: the weak 1 must
        // not be strong.
        assert_eq!(sim.state[4].0, Strength::Weak);
        // Passing a 0 keeps full strength.
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.state[4], (Strength::Strong, Level::L0));
    }

    #[test]
    fn charge_storage_holds_after_release() {
        let n = netlist(
            &["VDD", "GND", "in", "en", "out"],
            vec![t(TransistorKind::Enhancement, 3, 2, 4)],
        );
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::L1).unwrap();
        sim.set_input("en", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L1);
        // Close the gate; the node keeps its charge.
        sim.set_input("en", Level::L0).unwrap();
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L1, "dynamic node lost charge");
    }

    #[test]
    fn precharged_bus_discipline() {
        // bus(2) precharged via enh from VDD gated by phi2(3); pulled low
        // via enh chain: data gate(4) in series with phi1-qualified
        // driver… simplified to one pull-down gated by drive(4).
        let n = netlist(
            &["VDD", "GND", "bus", "phi2", "drive"],
            vec![
                t(TransistorKind::Enhancement, 3, 0, 2),
                t(TransistorKind::Enhancement, 4, 2, 1),
            ],
        );
        let mut sim = SwitchSim::new(&n);
        // φ2: precharge (drive off).
        sim.set_input("phi2", Level::L1).unwrap();
        sim.set_input("drive", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L1);
        // φ1: precharge off; nobody drives: bus holds its charge.
        sim.set_input("phi2", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L1);
        // φ1 with a driver: bus pulled strongly low.
        sim.set_input("drive", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L0);
    }

    #[test]
    fn unknown_net_error() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        assert!(matches!(
            sim.set_input("nope", Level::L0),
            Err(SwitchError::UnknownNet(_))
        ));
        assert!(matches!(sim.level("nope"), Err(SwitchError::UnknownNet(_))));
    }

    #[test]
    fn net_id_apis_and_preset() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        // Preset puts every node at a known level (power-on assumption).
        sim.preset_all(Level::L0);
        assert_eq!(sim.net_level(NetId(2)), Level::L0);
        // Drive by id (net names in real extractions are ambiguous).
        sim.set_net(NetId(3), Level::L0); // in = 0
        sim.settle().unwrap();
        assert_eq!(sim.net_level(NetId(2)), Level::L1, "out");
    }

    /// The symmetric case of the charge rule, audited: a *weak*
    /// (ratioed) level seen through a switch chain must not overpower a
    /// strong driver that reaches the same node later in the same
    /// iteration. The relaxation is safe by construction — every
    /// iteration recomputes from the base drives and merges
    /// contributions by strength order (`resolve`), so a weak 1 that
    /// lands on a node first is displaced the moment the strong 0
    /// arrives, no matter how many switch hops the strong path takes or
    /// where the devices sit in the transistor list. This test pins the
    /// scenario: a depletion-load inverter output (weak 1) fighting,
    /// through a conducting pass transistor, a bus that is pulled
    /// strongly low via a two-switch chain.
    #[test]
    fn weak_inverter_output_cannot_overpower_strong_driver() {
        // Nets: 0 VDD, 1 GND, 2 inv, 3 store, 4 en, 5 bus, 6 drv, 7 mid.
        let n = netlist(
            &["VDD", "GND", "inv", "store", "en", "bus", "drv", "mid"],
            vec![
                t(TransistorKind::Depletion, 2, 0, 2), // pull-up tied to inv
                t(TransistorKind::Enhancement, 3, 2, 1), // driver gated by store
                t(TransistorKind::Enhancement, 4, 2, 5), // pass: inv <-> bus
                // The strong driver, two hops away so the weak level
                // reaches the bus strictly earlier in the relaxation.
                t(TransistorKind::Enhancement, 6, 1, 7),
                t(TransistorKind::Enhancement, 6, 7, 5),
            ],
        );
        let mut sim = SwitchSim::new(&n);
        sim.preset_all(Level::L1); // bus precharged high
        sim.set_input("store", Level::L0).unwrap(); // inv floats up: weak 1
        sim.set_input("en", Level::L1).unwrap(); // pass conducting
        sim.set_input("drv", Level::L1).unwrap(); // strong pull-down on
        sim.settle().unwrap();
        // The strong 0 wins on the bus AND drags the ratioed output low
        // through the pass transistor (a 0 passes at full strength).
        assert_eq!(sim.level("bus").unwrap(), Level::L0);
        assert_eq!(sim.state[5].0, Strength::Strong, "bus must stay strongly driven");
        assert_eq!(sim.level("inv").unwrap(), Level::L0);
        // Release the pull-down: the ratioed 1 may now restore the bus
        // (that is the whole point of a restoring read path).
        sim.set_input("drv", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L1);
        assert_eq!(sim.state[5].0, Strength::Weak, "restored level is ratioed");
        // And re-asserting the driver wins again: no stale weak memory.
        sim.set_input("drv", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L0);
    }

    #[test]
    fn charge_does_not_conduct_through_switches() {
        // a(2) -enh(gate=en(3))- b(4): both floating, preset to opposite
        // levels. Opening the switch must NOT merge them to X — stored
        // charge is observable only at its own node.
        let n = netlist(
            &["VDD", "GND", "a", "en", "b"],
            vec![t(TransistorKind::Enhancement, 3, 2, 4)],
        );
        let mut sim = SwitchSim::new(&n);
        sim.preset_all(Level::L0);
        sim.memory[2] = Level::L1; // a charged high, b charged low
        sim.set_input("en", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("a").unwrap(), Level::L1);
        assert_eq!(sim.level("b").unwrap(), Level::L0);
    }

    /// Inputs live in a dense per-net array: releasing one leaves the
    /// net's charge in place until something drives it again, the last
    /// drive of a net wins, and an input on a rail-named net overrides
    /// the rail for as long as it is set.
    #[test]
    fn dense_drives_release_override_and_rails() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        // A released input keeps its charge until it is driven again.
        sim.set_input("in", Level::L1).unwrap();
        sim.settle().unwrap();
        sim.release_input("in").unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("in").unwrap(), Level::L1, "lost charge");
        assert_eq!(sim.level("out").unwrap(), Level::L0);
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("in").unwrap(), Level::L0);
        assert_eq!(sim.level("out").unwrap(), Level::L1);
        // A later drive of the same net overrides an earlier one.
        sim.set_net(NetId(3), Level::L0);
        sim.set_net(NetId(3), Level::L1);
        sim.settle().unwrap();
        assert_eq!(sim.net_level(NetId(3)), Level::L1);
        assert_eq!(sim.level("out").unwrap(), Level::L0);
        // An input on the VDD-named net overrides the rail: the load now
        // pulls `out` low even with the pull-down off.
        sim.set_input("in", Level::L0).unwrap();
        sim.set_input("VDD", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.state[0], (Strength::Strong, Level::L0));
        assert_eq!(sim.level("out").unwrap(), Level::L0);
        // Released, the rail is a rail again.
        sim.release_input("VDD").unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.state[0], (Strength::Strong, Level::L1));
        assert_eq!(sim.level("out").unwrap(), Level::L1);
    }

    #[test]
    fn reset_clears_memory() {
        let n = inverter();
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        sim.preset_all(Level::X);
        assert_eq!(sim.level("out").unwrap(), Level::X);
    }
}

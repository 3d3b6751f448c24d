//! Switch-level simulation of extracted nMOS netlists.
//!
//! The model follows the spirit of Bryant's MOSSIM (contemporary with
//! Bristle Blocks): ternary node levels, a three-tier strength lattice
//! (strong drive > weak/ratioed drive > stored charge), transistors as
//! bidirectional switches, depletion loads as always-on weak pull-ups,
//! and the nMOS threshold drop (a logic 1 degrades to weak through an
//! enhancement pass transistor — which is exactly why the paper's buses
//! are precharged on φ2 and only pulled low on φ1).
//!
//! Each net's (strength, level) is one byte. Bits 0–1 hold the level
//! (0 = `01`, 1 = `10`, X = `11`) and bits 2–3 the strength (stored
//! charge 0, weak 4, strong 8); the byte 0 is "no contribution". Two
//! contributions of equal strength merge by OR (0 | 1 = X), and a
//! stronger one wins by plain `max`.

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

/// The level bits of a net byte.
const LEVEL: u8 = 0b11;
const L0: u8 = 0b01;
const L1: u8 = 0b10;
const X: u8 = 0b11;
/// The strength bits of a net byte; stored charge is 0.
const WEAK: u8 = 0b0100;
const STRONG: u8 = 0b1000;

/// A level as the level bits of a net byte.
fn encode(level: Level) -> u8 {
    match level {
        Level::L0 => L0,
        Level::L1 => L1,
        Level::X => X,
    }
}

/// The level of a net byte.
fn decode(byte: u8) -> Level {
    match byte & LEVEL {
        L0 => Level::L0,
        L1 => Level::L1,
        _ => Level::X,
    }
}

/// Resolves two contributions on one node: at equal strength the
/// levels merge, otherwise the stronger one wins.
fn resolve(a: u8, b: u8) -> u8 {
    if (a ^ b) & !LEVEL == 0 {
        a | b
    } else {
        a.max(b)
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
/// [`SwitchSim::new`] compiles the netlist once into two flat device
/// tables, and every per-net quantity is one byte in a dense array
/// indexed by [`NetId`]: the rail drive, the primary-input drive (0 when
/// the net is not forced) and the resolved state, whose level bits are
/// also the charge a net keeps between settles. Driving a net is one
/// store, and a [`SwitchSim::settle`] reuses its relaxation buffers, so
/// a co-simulated cycle allocates nothing here.
pub struct SwitchSim<'a> {
    netlist: &'a Netlist,
    /// Depletion loads as `[a, b]`: always on, whatever their gate.
    depletion: Vec<[u32; 2]>,
    /// Enhancement devices as `[gate, a, b]`.
    enhancement: Vec<[u32; 3]>,
    /// Strong 1 on each net named `VDD`, strong 0 on each `GND`, else 0.
    rails: Vec<u8>,
    /// Primary-input drive per net; 0 leaves the net to the circuit.
    inputs: Vec<u8>,
    /// Resolved net bytes of the last settle.
    state: Vec<u8>,
    /// Relaxation buffers, kept between settles: the base drives and
    /// the two Jacobi iterates.
    base: Vec<u8>,
    scratch: [Vec<u8>; 2],
}

impl<'a> SwitchSim<'a> {
    /// Creates a simulator. Every net named `VDD` / `GND` becomes a
    /// permanent strong rail (large cells may have several physically
    /// separate rail regions that the chip assembly ties together).
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> SwitchSim<'a> {
        let n = netlist.net_count();
        let rails = netlist
            .net_names
            .iter()
            .map(|name| match name.as_str() {
                "VDD" => STRONG | L1,
                "GND" => STRONG | L0,
                _ => 0,
            })
            .collect();
        let (mut depletion, mut enhancement) = (Vec::new(), Vec::new());
        for t in &netlist.transistors {
            match t.kind {
                TransistorKind::Depletion => depletion.push([t.source.0, t.drain.0]),
                TransistorKind::Enhancement => {
                    enhancement.push([t.gate.0, t.source.0, t.drain.0]);
                }
            }
        }
        SwitchSim {
            netlist,
            depletion,
            enhancement,
            rails,
            inputs: vec![0; n],
            state: vec![X; n],
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
        self.set_net(id, level);
        Ok(())
    }

    /// Stops forcing a net; it keeps its charge until redriven.
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownNet`] if no net has this name.
    pub fn release_input(&mut self, name: &str) -> Result<(), SwitchError> {
        let id = self.net(name)?;
        self.inputs[id.0 as usize] = 0;
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
        self.inputs[id.0 as usize] = STRONG | encode(level);
    }

    /// The level of a net (by id) after the last [`SwitchSim::settle`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a net of the bound netlist.
    #[must_use]
    pub fn net_level(&self, id: NetId) -> Level {
        decode(self.state[id.0 as usize])
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
        self.state.fill(encode(level));
    }

    /// The level of a net after the last [`SwitchSim::settle`].
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownNet`] if no net has this name.
    pub fn level(&self, name: &str) -> Result<Level, SwitchError> {
        let id = self.net(name)?;
        Ok(self.net_level(id))
    }

    /// Relaxes the network to a fixpoint and stores charge memory.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsettled`] if the network oscillates.
    pub fn settle(&mut self) -> Result<(), SwitchError> {
        // Base drives: an input, else a rail (an input on a rail-named
        // net overrides the rail), else the net's own charge.
        let base = &mut self.base;
        base.clear();
        base.extend(self.inputs.iter().zip(&self.rails).zip(&self.state).map(
            |((&input, &rail), &net)| match (input, rail) {
                (0, 0) => net & LEVEL,
                (0, rail) => rail,
                (input, _) => input,
            },
        ));
        let [mut state, mut next] = std::mem::take(&mut self.scratch);
        state.clone_from(base);
        next.resize(base.len(), 0);

        // Jacobi relaxation: each iteration recomputes every node from
        // its base drive plus the contributions implied by the *previous*
        // iteration's state. Recomputing from base (rather than
        // accumulating in place) lets early X guesses wash out once real
        // drives arrive. `resolve` is a join (commutative, associative,
        // idempotent, 0 its identity), so the order in which devices
        // contribute, and hence the split of the tables by kind, cannot
        // change an iterate.
        //
        // Stored charge never conducts: a merely-charged node keeps its
        // level to itself and only driven values (rail, input, ratioed)
        // pass through a switch. This keeps the relaxation monotone —
        // without it, a stale charged level seen through a conducting
        // device in an early iteration merges X against an
        // equally-charged neighbor and the X sticks even after real
        // drives arrive (classic charge-sharing pessimism).
        //
        // The symmetric hazard — a weak (ratioed) level seen through a
        // switch chain overpowering a strong driver that arrives later
        // in the same iteration — cannot occur: `next` is rebuilt from
        // the base drives every iteration and contributions merge by
        // strength order in `resolve`, so a transiently-winning weak
        // level is displaced the moment the strong contribution lands,
        // regardless of hop count or device order (pinned by
        // `weak_inverter_output_cannot_overpower_strong_driver`).
        let max_iters = 4 * (base.len() + self.netlist.transistors.len()) + 16;
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
            // A depletion load passes any driven level, at most weak.
            for &[a, b] in &self.depletion {
                let (a, b) = (a as usize, b as usize);
                for (from, to) in [(a, b), (b, a)] {
                    let src = state[from];
                    if src >= WEAK {
                        next[to] = resolve(next[to], WEAK | (src & LEVEL));
                    }
                }
            }
            // An enhancement device is off at gate 0 and maybe-on (its
            // passed level X) at gate X. It passes a 0 at full strength;
            // the nMOS threshold drop degrades a passed 1 or X to weak.
            for &[gate, a, b] in &self.enhancement {
                let gate = state[gate as usize] & LEVEL;
                if gate == L0 {
                    continue;
                }
                let x = if gate == X { X } else { 0 };
                let (a, b) = (a as usize, b as usize);
                for (from, to) in [(a, b), (b, a)] {
                    let src = state[from];
                    if src >= WEAK {
                        let passed = if src & LEVEL == L0 {
                            src
                        } else {
                            WEAK | (src & LEVEL)
                        };
                        next[to] = resolve(next[to], passed | x);
                    }
                }
            }
            if next == state {
                break;
            }
            std::mem::swap(&mut state, &mut next);
        }
        std::mem::swap(&mut self.state, &mut state);
        self.scratch = [state, next];
        Ok(())
    }
}

impl fmt::Debug for SwitchSim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchSim")
            .field("nets", &self.netlist.net_count())
            .field("transistors", &self.netlist.transistors.len())
            .field("inputs", &self.inputs.iter().filter(|&&i| i != 0).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_extract::Transistor;
    use bristle_verify::{Rng, SpecGen};

    /// Drive strength of the tuple kernel, ordered: stored charge < weak
    /// (ratioed/degraded) < strong (rail or input).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Strength {
        Charged,
        Weak,
        Strong,
    }

    /// A net byte as the tuple kernel's `(strength, level)`.
    fn unpack(byte: u8) -> (Strength, Level) {
        let strength = match byte & !LEVEL {
            0 => Strength::Charged,
            WEAK => Strength::Weak,
            _ => Strength::Strong,
        };
        (strength, decode(byte))
    }

    /// The net byte of a `(strength, level)`.
    fn pack((strength, level): (Strength, Level)) -> u8 {
        [0, WEAK, STRONG][strength as usize] | encode(level)
    }

    /// The `(strength, level)` of net `i` after the last settle.
    fn net(sim: &SwitchSim<'_>, i: usize) -> (Strength, Level) {
        unpack(sim.state[i])
    }

    /// Every byte a net or a contribution can hold: 0 and the nine
    /// (strength, level) pairs.
    fn all_bytes() -> Vec<u8> {
        let levels = [Level::L0, Level::L1, Level::X];
        let strengths = [Strength::Charged, Strength::Weak, Strength::Strong];
        let pairs = strengths
            .iter()
            .flat_map(|&s| levels.iter().map(move |&l| pack((s, l))));
        std::iter::once(0).chain(pairs).collect()
    }

    /// The tuple kernel the byte kernel replaced, kept as its oracle: a
    /// `(Strength, Level)` per net, charge memory beside the state, and
    /// the same Jacobi relaxation over the netlist's `Transistor`s in
    /// their order.
    struct Oracle<'a> {
        netlist: &'a Netlist,
        vdd: Vec<NetId>,
        gnd: Vec<NetId>,
        inputs: Vec<Option<Level>>,
        memory: Vec<Level>,
        state: Vec<(Strength, Level)>,
    }

    impl<'a> Oracle<'a> {
        fn new(netlist: &'a Netlist) -> Oracle<'a> {
            let n = netlist.net_count();
            let rails = |name: &str| -> Vec<NetId> {
                (0..n as u32)
                    .map(NetId)
                    .filter(|id| netlist.net_names[id.0 as usize] == name)
                    .collect()
            };
            Oracle {
                netlist,
                vdd: rails("VDD"),
                gnd: rails("GND"),
                inputs: vec![None; n],
                memory: vec![Level::X; n],
                state: vec![(Strength::Charged, Level::X); n],
            }
        }

        fn preset_all(&mut self, level: Level) {
            self.memory.fill(level);
            self.state.fill((Strength::Charged, level));
        }

        fn settle(&mut self) -> Result<(), SwitchError> {
            let n = self.netlist.net_count();
            let mut base: Vec<_> = self
                .memory
                .iter()
                .map(|&level| (Strength::Charged, level))
                .collect();
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
            let mut state = base.clone();
            let max_iters = 4 * (n + self.netlist.transistors.len()) + 16;
            let mut iters = 0;
            loop {
                iters += 1;
                if iters > max_iters {
                    return Err(SwitchError::Unsettled {
                        iterations: max_iters,
                    });
                }
                let mut next = base.clone();
                for t in &self.netlist.transistors {
                    let gate_level = state[t.gate.0 as usize].1;
                    let conducting = match (t.kind, gate_level) {
                        (TransistorKind::Depletion, _)
                        | (TransistorKind::Enhancement, Level::L1) => Some(false),
                        (TransistorKind::Enhancement, Level::X) => Some(true),
                        (TransistorKind::Enhancement, Level::L0) => None,
                    };
                    let Some(x_contaminated) = conducting else {
                        continue;
                    };
                    for (from, to) in [(t.source, t.drain), (t.drain, t.source)] {
                        let (src_strength, src_level) = state[from.0 as usize];
                        if src_strength == Strength::Charged {
                            continue;
                        }
                        let limit = match (t.kind, src_level) {
                            (TransistorKind::Enhancement, Level::L0) => Strength::Strong,
                            _ => Strength::Weak,
                        };
                        let level = if x_contaminated { Level::X } else { src_level };
                        let slot = &mut next[to.0 as usize];
                        *slot = tuple_resolve(*slot, (src_strength.min(limit), level));
                    }
                }
                if next == state {
                    break;
                }
                state = next;
            }
            for (memory, &(_, level)) in self.memory.iter_mut().zip(&state) {
                *memory = level;
            }
            self.state = state;
            Ok(())
        }
    }

    /// The tuple kernel's `resolve`.
    fn tuple_resolve(a: (Strength, Level), b: (Strength, Level)) -> (Strength, Level) {
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Less => b,
            std::cmp::Ordering::Equal if a.1 == b.1 => a,
            std::cmp::Ordering::Equal => (a.0, Level::X),
        }
    }

    /// The byte kernel and the tuple oracle over one netlist, driven
    /// alike and compared after every settle.
    struct Pair<'a> {
        sim: SwitchSim<'a>,
        oracle: Oracle<'a>,
    }

    impl<'a> Pair<'a> {
        fn new(netlist: &'a Netlist) -> Pair<'a> {
            Pair {
                sim: SwitchSim::new(netlist),
                oracle: Oracle::new(netlist),
            }
        }

        fn drive(&mut self, i: usize, level: Option<Level>) {
            drive(&mut self.sim, i, level);
            self.oracle.inputs[i] = level;
        }

        fn preset_all(&mut self, level: Level) {
            self.sim.preset_all(level);
            self.oracle.preset_all(level);
        }

        /// Settles both; the outcome, `Unsettled { iterations }` included,
        /// and every net's `(strength, level)` must agree, and the
        /// oracle's charge memory must be the level bits of the state.
        fn settle(&mut self, what: &str) -> Result<(), SwitchError> {
            let got = self.sim.settle();
            assert_eq!(got, self.oracle.settle(), "{what}: settle outcome");
            for (i, (&byte, &want)) in self.sim.state.iter().zip(&self.oracle.state).enumerate() {
                assert_eq!(unpack(byte), want, "{what}: net {i}");
                assert_eq!(
                    decode(byte),
                    self.oracle.memory[i],
                    "{what}: memory of net {i}"
                );
            }
            got
        }
    }

    /// Drives net `i` to `level`, or releases it on `None`.
    fn drive(sim: &mut SwitchSim<'_>, i: usize, level: Option<Level>) {
        match level {
            Some(level) => sim.set_net(NetId(i as u32), level),
            None => sim.inputs[i] = 0,
        }
    }

    /// A random level for a drive: X one time in five.
    fn random_level(rng: &mut Rng) -> Level {
        match rng.range(0, 5) {
            0 | 1 => Level::L0,
            2 | 3 => Level::L1,
            _ => Level::X,
        }
    }

    /// A random netlist of 3–32 nets, with VDD and GND (sometimes a
    /// second rail region) and 0–60 devices of both kinds, self-loops
    /// among them.
    fn random_netlist(rng: &mut Rng) -> Netlist {
        let nets = rng.range(3, 33);
        let mut names: Vec<String> = (0..nets).map(|i| format!("n{i}")).collect();
        names[0] = "VDD".to_owned();
        names[1] = "GND".to_owned();
        if nets > 4 && rng.chance(1, 4) {
            names[nets as usize - 1] = if rng.chance(1, 2) { "VDD" } else { "GND" }.to_owned();
        }
        let devices = (0..rng.range(0, 61))
            .map(|_| {
                let kind = if rng.chance(1, 4) {
                    TransistorKind::Depletion
                } else {
                    TransistorKind::Enhancement
                };
                let [gate, source, drain] = [(); 3].map(|()| rng.range(0, nets) as u32);
                let drain = if rng.chance(1, 8) { source } else { drain };
                t(kind, gate, source, drain)
            })
            .collect();
        netlist(
            &names.iter().map(String::as_str).collect::<Vec<_>>(),
            devices,
        )
    }

    /// 0–4 random drives or releases of any net, rails included, and
    /// now and then a `preset_all`.
    fn random_drives(
        rng: &mut Rng,
        nets: usize,
        mut drive: impl FnMut(usize, Option<Level>),
    ) -> Option<Level> {
        for _ in 0..rng.range(0, 5) {
            let i = rng.range(0, nets as i64) as usize;
            let level = (!rng.chance(1, 5)).then(|| random_level(rng));
            drive(i, level);
        }
        rng.chance(1, 10).then(|| random_level(rng))
    }

    #[test]
    fn byte_kernel_matches_tuple_oracle_on_random_netlists() {
        let mut rng = Rng::new(0x005E_771E);
        let [mut settled, mut unsettled] = [0, 0];
        for case in 0..500 {
            let n = random_netlist(&mut rng);
            let mut pair = Pair::new(&n);
            for step in 0..12 {
                let preset = random_drives(&mut rng, n.net_count(), |i, l| pair.drive(i, l));
                if let Some(level) = preset {
                    pair.preset_all(level);
                }
                match pair.settle(&format!("case {case} step {step}")) {
                    Ok(()) => settled += 1,
                    Err(_) => unsettled += 1,
                }
            }
        }
        // Both outcomes are exercised in earnest.
        assert!(
            settled > 2500 && unsettled > 2000,
            "{settled} settled, {unsettled} unsettled"
        );
    }

    /// The core and top netlists extracted from the first pinned
    /// co-simulation specs. The gate-only nets (decoder columns, clocks,
    /// pads) start low, and 1–3 of them change before each settle; now
    /// and then another net is forced against the circuit or released.
    #[test]
    fn byte_kernel_matches_tuple_oracle_on_extracted_chips() {
        let mut rng = Rng::new(0x00C0_5E77);
        let [mut settled, mut unsettled] = [0, 0];
        for k in 0..3 {
            let seed = 0xB215_713E + k;
            let spec = SpecGen::random_cosim_spec(&mut Rng::new(seed), &format!("dv{seed:x}"));
            let chip = bristle_core::Compiler::new().compile(&spec).unwrap();
            for (which, cell) in [("core", chip.core_cell), ("top", chip.top)] {
                let n = bristle_extract::extract(&chip.lib, cell);
                let mut channel = vec![false; n.net_count()];
                for t in &n.transistors {
                    channel[t.source.0 as usize] = true;
                    channel[t.drain.0 as usize] = true;
                }
                let inputs: Vec<usize> = n
                    .transistors
                    .iter()
                    .map(|t| t.gate.0 as usize)
                    .filter(|&g| !channel[g])
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let mut pair = Pair::new(&n);
                pair.preset_all(Level::L0);
                for &i in &inputs {
                    pair.drive(i, Some(Level::L0));
                }
                for step in 0..32 {
                    for _ in 0..rng.range(1, 4) {
                        let i = inputs[rng.range(0, inputs.len() as i64) as usize];
                        let level = if rng.chance(1, 12) {
                            Level::X
                        } else {
                            Level::from_bool(rng.chance(1, 2))
                        };
                        pair.drive(i, Some(level));
                    }
                    if rng.chance(1, 8) {
                        let i = rng.range(0, n.net_count() as i64) as usize;
                        let level = rng.chance(1, 2).then(|| random_level(&mut rng));
                        pair.drive(i, level);
                    }
                    if rng.chance(1, 16) {
                        pair.preset_all(random_level(&mut rng));
                    }
                    match pair.settle(&format!("{seed:#x} {which} step {step}")) {
                        Ok(()) => settled += 1,
                        Err(_) => unsettled += 1,
                    }
                }
            }
        }
        assert!(
            settled > 100 && unsettled > 40,
            "{settled} settled, {unsettled} unsettled"
        );
    }

    /// `resolve` on bytes is a join, with 0 its identity, and agrees with
    /// the tuple kernel's: the laws that let a sweep take its devices in
    /// any order and split by kind.
    #[test]
    fn byte_resolve_is_a_join_with_identity_zero() {
        let bytes = all_bytes();
        for &a in &bytes {
            assert_eq!(resolve(a, a), a, "idempotent at {a:#06b}");
            assert_eq!(resolve(a, 0), a, "identity at {a:#06b}");
            assert_eq!(resolve(0, a), a, "identity at {a:#06b}");
            for &b in &bytes {
                assert_eq!(
                    resolve(a, b),
                    resolve(b, a),
                    "commutative at {a:#06b} {b:#06b}"
                );
                if a != 0 && b != 0 {
                    assert_eq!(unpack(resolve(a, b)), tuple_resolve(unpack(a), unpack(b)));
                }
                for &c in &bytes {
                    assert_eq!(
                        resolve(resolve(a, b), c),
                        resolve(a, resolve(b, c)),
                        "associative at {a:#06b} {b:#06b} {c:#06b}"
                    );
                }
            }
        }
        for &a in &bytes[1..] {
            assert_eq!(pack(unpack(a)), a);
        }
    }

    /// The same devices in a shuffled order, each with its source and
    /// drain swapped at random, settle to the same bytes every time.
    #[test]
    fn shuffled_transistors_settle_identically() {
        let mut rng = Rng::new(0x0054_FF1E);
        for case in 0..200 {
            let n = random_netlist(&mut rng);
            let mut shuffled = n.clone();
            let ts = &mut shuffled.transistors;
            for i in (1..ts.len()).rev() {
                ts.swap(i, rng.range(0, i as i64 + 1) as usize);
            }
            for t in ts.iter_mut().filter(|_| rng.chance(1, 2)) {
                std::mem::swap(&mut t.source, &mut t.drain);
            }
            let mut sims = [SwitchSim::new(&n), SwitchSim::new(&shuffled)];
            for step in 0..12 {
                let preset = random_drives(&mut rng, n.net_count(), |i, level| {
                    for sim in &mut sims {
                        drive(sim, i, level);
                    }
                });
                let [a, b] = &mut sims;
                if let Some(level) = preset {
                    a.preset_all(level);
                    b.preset_all(level);
                }
                assert_eq!(a.settle(), b.settle(), "case {case} step {step}");
                assert_eq!(a.state, b.state, "case {case} step {step}");
            }
        }
    }

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
        assert_eq!(net(&sim, 4).0, Strength::Weak);
        // Passing a 0 keeps full strength.
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(net(&sim, 4), (Strength::Strong, Level::L0));
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
        assert_eq!(
            net(&sim, 5).0,
            Strength::Strong,
            "bus must stay strongly driven"
        );
        assert_eq!(sim.level("inv").unwrap(), Level::L0);
        // Release the pull-down: the ratioed 1 may now restore the bus
        // (that is the whole point of a restoring read path).
        sim.set_input("drv", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("bus").unwrap(), Level::L1);
        assert_eq!(net(&sim, 5).0, Strength::Weak, "restored level is ratioed");
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
        sim.state[2] = pack((Strength::Charged, Level::L1)); // a charged high, b charged low
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
        assert_eq!(net(&sim, 0), (Strength::Strong, Level::L0));
        assert_eq!(sim.level("out").unwrap(), Level::L0);
        // Released, the rail is a rail again.
        sim.release_input("VDD").unwrap();
        sim.settle().unwrap();
        assert_eq!(net(&sim, 0), (Strength::Strong, Level::L1));
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

//! The netlist↔machine adapter: maps extracted net names onto
//! machine-level signals so a [`SwitchSim`] over compiled silicon and a
//! functional [`crate::Machine`] are comparable at all.
//!
//! The compiler stacks every element column `data_width` slices high and
//! names each instance `{element}_c{column}_b{bit}`; extraction qualifies
//! every bristle terminal with that instance path. The bridge parses
//! those terminal names back into *signal groups*:
//!
//! * `busa_w`/`busa_e` (and `busb_*`) bristles resolve, per bit row, to
//!   the single net the abutting bus tracks form — the bridge verifies
//!   the rows really are single nets (a free bus-continuity check).
//! * control columns (`rda0`, `ld`, …) resolve to one net per column per
//!   bit; the bridge drives every net of a group together, which is
//!   exactly what the instruction decoder's poly columns do.
//! * clock columns (`phi1*`, `phi2*`) form the φ1/φ2 groups.
//! * storage-plate probes (`storeA`, `opa`, …) and pad wires (`pad_in`,
//!   `pad_out`) resolve per bit for word-level reads and drives.
//!
//! A harness resolves each signal it needs once, with
//! [`NetlistBridge::nets`], to a slice of `(bit, net)` pairs, and then
//! drives and reads through the two primitives [`NetlistBridge::drive`]
//! and [`NetlistBridge::read`]; nothing is looked up by name while the
//! circuit runs. The by-name methods (`drive_group`, `drive_word`,
//! `read_word`, `read_column_word`) are wrappers over the same three.
//!
//! Level↔word conversion is strict: a word read fails loudly on any `X`
//! bit, because the differential test suite treats `X` on an observed
//! signal as a divergence, never as "don't care".

use std::collections::BTreeMap;
use std::fmt;

use bristle_extract::{NetId, Netlist};

use crate::switch::{Level, SwitchError, SwitchSim};

/// Errors from bridge construction and word conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// A bus row maps to more than one net — the tracks do not abut.
    BusDiscontinuity {
        /// Bus group name (`busa` / `busb`).
        bus: String,
        /// Bit row with the discontinuity.
        bit: u32,
    },
    /// A bus bit row has no terminal at all.
    BusRowMissing {
        /// Bus group name.
        bus: String,
        /// Missing bit row.
        bit: u32,
    },
    /// No signal group with this element prefix + local name.
    UnknownSignal {
        /// Element prefix (e.g. `e1_registers`).
        prefix: String,
        /// Local signal name (e.g. `rda0`).
        local: String,
    },
    /// A word read found a non-binary level.
    XLevel {
        /// Which signal was being read.
        signal: String,
        /// Which bit was X.
        bit: u32,
    },
    /// Underlying switch-level failure.
    Switch(SwitchError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::BusDiscontinuity { bus, bit } => {
                write!(f, "bus `{bus}` bit {bit} spans multiple nets (tracks do not abut)")
            }
            BridgeError::BusRowMissing { bus, bit } => {
                write!(f, "bus `{bus}` has no terminal on bit row {bit}")
            }
            BridgeError::UnknownSignal { prefix, local } => {
                write!(f, "no signal group `{prefix}/{local}` in the netlist")
            }
            BridgeError::XLevel { signal, bit } => {
                write!(f, "signal `{signal}` bit {bit} reads X")
            }
            BridgeError::Switch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<SwitchError> for BridgeError {
    fn from(e: SwitchError) -> BridgeError {
        BridgeError::Switch(e)
    }
}

/// Splits a qualified terminal name `<elem>_c<col>_b<bit>/<local>` into
/// `(element prefix, column, bit, local)`. Returns `None` for terminals
/// that do not follow the compiler's core naming convention (e.g. the
/// decoder's, or hand-built cells').
#[must_use]
pub fn parse_terminal(name: &str) -> Option<(&str, u32, u32, &str)> {
    let (inst, local) = name.split_once('/')?;
    // Nested paths are not core columns.
    if local.contains('/') {
        return None;
    }
    let (rest, bit) = inst.rsplit_once("_b")?;
    let bit: u32 = bit.parse().ok()?;
    let (prefix, col) = rest.rsplit_once("_c")?;
    let col: u32 = col.parse().ok()?;
    Some((prefix, col, bit, local))
}

/// Signal groups, `prefix -> local -> (column, bit, net)`,
/// net-deduplicated, in terminal order.
type Groups = BTreeMap<String, BTreeMap<String, Vec<(u32, u32, NetId)>>>;

/// The adapter binding a switch-level simulator to machine-level signal
/// groups.
pub struct NetlistBridge<'a> {
    /// The underlying switch-level simulator (public: harnesses may poke
    /// nets directly for fault injection or extra observations).
    pub sim: SwitchSim<'a>,
    width: u32,
    groups: Groups,
    /// Per-bit bus nets, `(bit, net)`.
    bus_a: Vec<(u32, NetId)>,
    bus_b: Vec<(u32, NetId)>,
    /// Clock-column nets per phase prefix (`phi1` / `phi2`), collected
    /// once at construction — [`NetlistBridge::drive_clocks`] runs
    /// four times per co-simulated cycle.
    clocks: BTreeMap<&'static str, Vec<NetId>>,
}

impl<'a> NetlistBridge<'a> {
    /// Builds the bridge over an extracted netlist with the given data
    /// width, verifying bus continuity for both buses across all bit
    /// rows.
    ///
    /// # Errors
    ///
    /// [`BridgeError::BusDiscontinuity`] / [`BridgeError::BusRowMissing`]
    /// when the abutted bus tracks do not form one net per bit row.
    pub fn new(netlist: &'a Netlist, width: u32) -> Result<NetlistBridge<'a>, BridgeError> {
        let mut groups = Groups::new();
        let mut bus_rows: BTreeMap<(&str, u32), Vec<NetId>> = BTreeMap::new();
        for (name, net) in &netlist.terminals {
            let Some((prefix, column, bit, local)) = parse_terminal(name) else {
                continue;
            };
            match local {
                "busa_w" | "busa_e" | "busb_w" | "busb_e" => {
                    let bus = &local[..4];
                    let row = bus_rows.entry((bus, bit)).or_default();
                    if !row.contains(net) {
                        row.push(*net);
                    }
                }
                // Rails are handled by SwitchSim's VDD/GND name scan.
                "vdd_w" | "vdd_e" | "gnd_w" | "gnd_e" => {}
                _ => {
                    // A control column's north continuation (`<ctl>_n`)
                    // names the same net as its south bristle; fold it
                    // into the base group.
                    let local = local.strip_suffix("_n").unwrap_or(local);
                    let t = (column, bit, *net);
                    let g = groups
                        .entry(prefix.to_owned())
                        .or_default()
                        .entry(local.to_owned())
                        .or_default();
                    if !g.contains(&t) {
                        g.push(t);
                    }
                }
            }
        }
        let bus = |name: &str| -> Result<Vec<(u32, NetId)>, BridgeError> {
            let mut nets = Vec::with_capacity(width as usize);
            for bit in 0..width {
                match bus_rows.get(&(name, bit)).map(Vec::as_slice) {
                    Some([one]) => nets.push((bit, *one)),
                    Some(_) => {
                        return Err(BridgeError::BusDiscontinuity {
                            bus: name.to_owned(),
                            bit,
                        })
                    }
                    None => {
                        return Err(BridgeError::BusRowMissing {
                            bus: name.to_owned(),
                            bit,
                        })
                    }
                }
            }
            Ok(nets)
        };
        let bus_a = bus("busa")?;
        let bus_b = bus("busb")?;
        let mut clocks: BTreeMap<&'static str, Vec<NetId>> =
            [("phi1", Vec::new()), ("phi2", Vec::new())].into();
        for m in groups.values() {
            for (local, ts) in m {
                for (phase, nets) in &mut clocks {
                    if local.starts_with(phase) {
                        for &(_, _, net) in ts {
                            if !nets.contains(&net) {
                                nets.push(net);
                            }
                        }
                    }
                }
            }
        }
        Ok(NetlistBridge {
            sim: SwitchSim::new(netlist),
            width,
            groups,
            bus_a,
            bus_b,
            clocks,
        })
    }

    /// Resolves one signal group to its `(bit, net)` pairs, in terminal
    /// order: every column's, or only those of `column` (plate probes
    /// repeat per column; a register's plates live in column `r`). A
    /// column with no terminals resolves to no nets, which read as
    /// all-X.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn nets(
        &self,
        prefix: &str,
        local: &str,
        column: Option<u32>,
    ) -> Result<Vec<(u32, NetId)>, BridgeError> {
        let group = self.groups.get(prefix).and_then(|m| m.get(local));
        let group = group.ok_or_else(|| BridgeError::UnknownSignal {
            prefix: prefix.to_owned(),
            local: local.to_owned(),
        })?;
        Ok(group
            .iter()
            .filter(|&&(c, _, _)| column.is_none_or(|k| k == c))
            .map(|&(_, bit, net)| (bit, net))
            .collect())
    }

    /// Drives resolved nets with a word: each net takes its bit of
    /// `word` (LSB on bit row 0). A decoder column, whose every bit
    /// slice follows one line, is driven with `0` or `u64::MAX`.
    pub fn drive(&mut self, nets: &[(u32, NetId)], word: u64) {
        for &(bit, net) in nets {
            self.sim.set_net(net, Level::from_bool((word >> bit) & 1 == 1));
        }
    }

    /// Reads resolved nets as a word, LSB on bit row 0; bit rows at or
    /// above the data width are ignored, and where two nets share a row
    /// the later one wins. Fails with the first row that is `X` or has no
    /// net, so a successful read formats nothing; callers name the signal
    /// in the [`BridgeError::XLevel`] they build from that row.
    ///
    /// # Errors
    ///
    /// The first non-binary bit row.
    pub fn read(&self, nets: &[(u32, NetId)]) -> Result<u64, u32> {
        let (mut word, mut known) = (0u64, 0u64);
        for &(bit, net) in nets.iter().filter(|&&(bit, _)| bit < self.width) {
            let m = 1u64 << bit;
            let level = self.sim.net_level(net);
            word = if level == Level::L1 { word | m } else { word & !m };
            known = if level == Level::X { known & !m } else { known | m };
        }
        let all = u64::MAX.checked_shr(64 - self.width).unwrap_or(0);
        match !known & all {
            0 => Ok(word),
            missing => Err(missing.trailing_zeros()),
        }
    }

    /// Forces every net of a signal group to one level — how a decoder
    /// column or clock rail drives all bit slices at once.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn drive_group(&mut self, prefix: &str, local: &str, level: Level) -> Result<(), BridgeError> {
        for (_, net) in self.nets(prefix, local, None)? {
            self.sim.set_net(net, level);
        }
        Ok(())
    }

    /// Drives a per-bit signal group (a pad wire) with a word, LSB on bit
    /// row 0.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn drive_word(&mut self, prefix: &str, local: &str, word: u64) -> Result<(), BridgeError> {
        let nets = self.nets(prefix, local, None)?;
        self.drive(&nets, word);
        Ok(())
    }

    /// Drives every clock column of `phase_prefix` (`"phi1"` or
    /// `"phi2"`) across all elements. Unrecognized prefixes drive
    /// nothing.
    pub fn drive_clocks(&mut self, phase_prefix: &str, level: Level) {
        let Some(nets) = self.clocks.get(phase_prefix) else {
            return;
        };
        // The clock sets are fixed at construction; split borrows so the
        // simulator can be driven without cloning the net list.
        for &net in nets {
            self.sim.set_net(net, level);
        }
    }

    /// Reads a per-bit signal group as a word, restricted to terminals of
    /// one column.
    ///
    /// # Errors
    ///
    /// Unknown group, or [`BridgeError::XLevel`] on a non-binary bit.
    pub fn read_column_word(
        &self,
        prefix: &str,
        local: &str,
        column: u32,
    ) -> Result<u64, BridgeError> {
        self.read(&self.nets(prefix, local, Some(column))?)
            .map_err(|bit| x_level(format!("{prefix}/{local}[c{column}]"), bit))
    }

    /// Reads a per-bit signal group (pad wire) as a word.
    ///
    /// # Errors
    ///
    /// Unknown group, or [`BridgeError::XLevel`] on a non-binary bit.
    pub fn read_word(&self, prefix: &str, local: &str) -> Result<u64, BridgeError> {
        self.read(&self.nets(prefix, local, None)?)
            .map_err(|bit| x_level(format!("{prefix}/{local}"), bit))
    }

    /// Reads bus A (0) or bus B (1) as a word.
    ///
    /// # Errors
    ///
    /// [`BridgeError::XLevel`] on a non-binary bit.
    pub fn read_bus(&self, bus: usize) -> Result<u64, BridgeError> {
        let (nets, name) = if bus == 0 {
            (&self.bus_a, "busA")
        } else {
            (&self.bus_b, "busB")
        };
        self.read(nets).map_err(|bit| x_level(name.to_owned(), bit))
    }

    /// Relaxes the network.
    ///
    /// # Errors
    ///
    /// Propagates [`SwitchError::Unsettled`].
    pub fn settle(&mut self) -> Result<(), BridgeError> {
        self.sim.settle()?;
        Ok(())
    }
}

/// The error of a word read of `signal` whose bit row `bit` was not
/// binary.
fn x_level(signal: String, bit: u32) -> BridgeError {
    BridgeError::XLevel { signal, bit }
}

impl fmt::Debug for NetlistBridge<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetlistBridge")
            .field("width", &self.width)
            .field("elements", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_terminal_forms() {
        assert_eq!(
            parse_terminal("e1_registers_c0_b3/rda0"),
            Some(("e1_registers", 0, 3, "rda0"))
        );
        assert_eq!(
            parse_terminal("pc0_c0_b0/phi2_s0"),
            Some(("pc0", 0, 0, "phi2_s0"))
        );
        // Not core-column shaped.
        assert_eq!(parse_terminal("decoder/and3"), None);
        assert_eq!(parse_terminal("plain"), None);
        assert_eq!(parse_terminal("a_c1_bx/t"), None);
        assert_eq!(parse_terminal("top/e0_c0_b0/t"), None);
    }

    fn tiny_netlist() -> Netlist {
        // Two bit rows of a bus A track, a control column, a plate and a
        // pad wire: just enough structure to exercise grouping. Nets:
        // 0 busA.b0, 1 busA.b1, 2 busB.b0, 3 busB.b1, 4 ctl, 5 plate.b0,
        // 6 pad, 7 plate.b1.
        Netlist {
            net_names: (0..8).map(|i| format!("n{i}")).collect(),
            transistors: vec![],
            terminals: vec![
                ("e0_x_c0_b0/busa_w".into(), NetId(0)),
                ("e0_x_c0_b0/busa_e".into(), NetId(0)),
                ("e0_x_c0_b1/busa_w".into(), NetId(1)),
                ("e0_x_c0_b1/busa_e".into(), NetId(1)),
                ("e0_x_c0_b0/busb_w".into(), NetId(2)),
                ("e0_x_c0_b1/busb_w".into(), NetId(3)),
                ("e0_x_c0_b0/ld".into(), NetId(4)),
                ("e0_x_c0_b0/ld_n".into(), NetId(4)),
                ("e0_x_c0_b0/store".into(), NetId(5)),
                ("e0_x_c0_b1/store".into(), NetId(7)),
                ("e0_x_c0_b0/pad_in".into(), NetId(6)),
            ],
        }
    }

    #[test]
    fn word_level_round_trip() {
        let n = tiny_netlist();
        let mut bridge = NetlistBridge::new(&n, 2).unwrap();
        let store = bridge.nets("e0_x", "store", Some(0)).unwrap();
        assert_eq!(store, vec![(0, NetId(5)), (1, NetId(7))]);
        for word in 0..4 {
            bridge.drive(&store, word);
            bridge.settle().unwrap();
            assert_eq!(bridge.read(&store), Ok(word));
        }
        // Bits above the data width are neither driven into nor read
        // from a word; a row without a net reads as X.
        assert_eq!(bridge.read(&[(0, NetId(5)), (1, NetId(7)), (5, NetId(6))]), Ok(3));
        assert_eq!(bridge.read(&store[..1]), Err(1));
        bridge.sim.set_net(NetId(5), Level::X);
        bridge.settle().unwrap();
        assert_eq!(bridge.read(&store), Err(0));
    }

    #[test]
    fn groups_fold_north_continuations() {
        let n = tiny_netlist();
        let bridge = NetlistBridge::new(&n, 2).unwrap();
        // ld and ld_n share a net: one terminal survives.
        assert_eq!(bridge.nets("e0_x", "ld", None).unwrap(), vec![(0, NetId(4))]);
        assert!(bridge.nets("e0_x", "store", None).is_ok());
        // A column with no terminals resolves to nothing.
        assert_eq!(bridge.nets("e0_x", "store", Some(1)).unwrap(), vec![]);
        assert!(bridge.nets("e0_x", "busa_w", None).is_err());
        assert!(matches!(
            bridge.nets("e0_x", "nope", None),
            Err(BridgeError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn bus_discontinuity_detected() {
        let mut n = tiny_netlist();
        // Split bit row 0 of bus A into two nets.
        n.terminals[1].1 = NetId(3);
        assert!(matches!(
            NetlistBridge::new(&n, 2),
            Err(BridgeError::BusDiscontinuity { bit: 0, .. })
        ));
        // Missing row.
        let n = Netlist {
            net_names: vec!["a".into()],
            transistors: vec![],
            terminals: vec![("e0_x_c0_b0/busa_w".into(), NetId(0))],
        };
        assert!(matches!(
            NetlistBridge::new(&n, 2),
            Err(BridgeError::BusRowMissing { .. })
        ));
    }

    #[test]
    fn drive_and_read_words() {
        let n = tiny_netlist();
        let mut bridge = NetlistBridge::new(&n, 2).unwrap();
        bridge.drive_group("e0_x", "ld", Level::L1).unwrap();
        bridge.drive_word("e0_x", "store", 0b10).unwrap();
        bridge.settle().unwrap();
        assert_eq!(bridge.read_column_word("e0_x", "store", 0).unwrap(), 0b10);
        // Buses float X on an empty netlist: the strict conversion
        // reports which bit.
        assert!(matches!(
            bridge.read_bus(0),
            Err(BridgeError::XLevel { bit: 0, .. })
        ));
    }
}

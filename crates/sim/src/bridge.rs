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
//! Level↔word conversion is strict: a word read fails loudly on any `X`
//! bit, because the differential test suite treats `X` on an observed
//! signal as a divergence, never as "don't care".

use std::collections::BTreeMap;
use std::fmt;

use bristle_extract::{NetId, Netlist};

use crate::switch::{Level, SwitchError, SwitchSim};

/// One terminal mapped into a signal group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalNet {
    /// Element column index (the `c<k>` in the instance name).
    pub column: u32,
    /// Bit-slice index (the `b<k>` in the instance name).
    pub bit: u32,
    /// The extracted net.
    pub net: NetId,
}

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

/// Packs per-bit levels (LSB first) into a word.
///
/// # Errors
///
/// [`BridgeError::XLevel`] on the first non-binary bit; `signal` tags the
/// error for the caller's divergence report.
pub fn word_from_levels(levels: &[Level], signal: &str) -> Result<u64, BridgeError> {
    let mut word = 0u64;
    for (bit, &l) in levels.iter().enumerate() {
        match l {
            Level::L0 => {}
            Level::L1 => word |= 1 << bit,
            Level::X => {
                return Err(BridgeError::XLevel {
                    signal: signal.to_owned(),
                    bit: bit as u32,
                })
            }
        }
    }
    Ok(word)
}

/// Unpacks a word into `width` levels, LSB first.
#[must_use]
pub fn levels_from_word(word: u64, width: u32) -> Vec<Level> {
    (0..width)
        .map(|b| Level::from_bool((word >> b) & 1 == 1))
        .collect()
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

/// The adapter binding a switch-level simulator to machine-level signal
/// groups.
pub struct NetlistBridge<'a> {
    /// The underlying switch-level simulator (public: harnesses may poke
    /// nets directly for fault injection or extra observations).
    pub sim: SwitchSim<'a>,
    width: u32,
    /// `prefix -> local -> terminals` (net-deduplicated, sorted).
    groups: BTreeMap<String, BTreeMap<String, Vec<TerminalNet>>>,
    /// Per-bit bus nets.
    bus_a: Vec<NetId>,
    bus_b: Vec<NetId>,
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
        let mut groups: BTreeMap<String, BTreeMap<String, Vec<TerminalNet>>> = BTreeMap::new();
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
                    let t = TerminalNet {
                        column,
                        bit,
                        net: *net,
                    };
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
        let bus = |name: &str| -> Result<Vec<NetId>, BridgeError> {
            let mut nets = Vec::with_capacity(width as usize);
            for bit in 0..width {
                match bus_rows.get(&(name, bit)).map(Vec::as_slice) {
                    Some([one]) => nets.push(*one),
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
                        for t in ts {
                            if !nets.contains(&t.net) {
                                nets.push(t.net);
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

    /// Data width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The terminals of one signal group.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn group(&self, prefix: &str, local: &str) -> Result<&[TerminalNet], BridgeError> {
        self.groups
            .get(prefix)
            .and_then(|m| m.get(local))
            .map(Vec::as_slice)
            .ok_or_else(|| BridgeError::UnknownSignal {
                prefix: prefix.to_owned(),
                local: local.to_owned(),
            })
    }

    /// True if the group exists.
    #[must_use]
    pub fn has_group(&self, prefix: &str, local: &str) -> bool {
        self.groups.get(prefix).is_some_and(|m| m.contains_key(local))
    }

    /// Forces every net of a signal group to one level — how a decoder
    /// column or clock rail drives all bit slices at once.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn drive_group(&mut self, prefix: &str, local: &str, level: Level) -> Result<(), BridgeError> {
        let nets: Vec<NetId> = self.group(prefix, local)?.iter().map(|t| t.net).collect();
        for net in nets {
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
        let nets: Vec<(u32, NetId)> = self
            .group(prefix, local)?
            .iter()
            .map(|t| (t.bit, t.net))
            .collect();
        for (bit, net) in nets {
            self.sim
                .set_net(net, Level::from_bool((word >> bit) & 1 == 1));
        }
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
    /// one column (plate probes repeat per column; a register's plates
    /// live in column `r`).
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
        let mut levels = vec![Level::X; self.width as usize];
        for t in self.group(prefix, local)? {
            if t.column == column && (t.bit as usize) < levels.len() {
                levels[t.bit as usize] = self.sim.net_level(t.net);
            }
        }
        word_from_levels(&levels, &format!("{prefix}/{local}[c{column}]"))
    }

    /// Reads a per-bit signal group (pad wire) as a word.
    ///
    /// # Errors
    ///
    /// Unknown group, or [`BridgeError::XLevel`] on a non-binary bit.
    pub fn read_word(&self, prefix: &str, local: &str) -> Result<u64, BridgeError> {
        let mut levels = vec![Level::X; self.width as usize];
        for t in self.group(prefix, local)? {
            if (t.bit as usize) < levels.len() {
                levels[t.bit as usize] = self.sim.net_level(t.net);
            }
        }
        word_from_levels(&levels, &format!("{prefix}/{local}"))
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
        let levels: Vec<Level> = nets.iter().map(|&n| self.sim.net_level(n)).collect();
        word_from_levels(&levels, name)
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

    #[test]
    fn word_level_round_trip() {
        let levels = levels_from_word(0b1011, 6);
        assert_eq!(word_from_levels(&levels, "t").unwrap(), 0b1011);
        let mut bad = levels;
        bad[2] = Level::X;
        assert!(matches!(
            word_from_levels(&bad, "t"),
            Err(BridgeError::XLevel { bit: 2, .. })
        ));
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
    fn groups_fold_north_continuations() {
        let n = tiny_netlist();
        let bridge = NetlistBridge::new(&n, 2).unwrap();
        // ld and ld_n share a net: one terminal survives.
        assert_eq!(bridge.group("e0_x", "ld").unwrap().len(), 1);
        assert!(bridge.has_group("e0_x", "store"));
        assert!(!bridge.has_group("e0_x", "busa_w"));
        assert!(matches!(
            bridge.group("e0_x", "nope"),
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

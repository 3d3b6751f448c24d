//! Standard datapath element behaviors: the SIMULATION representations
//! of the `bristle-stdcells` generators.
//!
//! Each behavior follows the paper's conventions: operands move over the
//! two precharged buses during φ1, work happens during φ2, results are
//! driven back onto a bus during the *next* φ1.
//!
//! Control-line names are element-local; the compiler (or a test) binds
//! them to microcode decode specs via [`crate::Machine::add_element`].
//!
//! A cell names its model by the key in its `behavior` representation;
//! [`by_key`] is the one map from key to model, and [`storage_by_key`]
//! the one map from key to the plates a co-simulation checks against
//! the model's per-column words.
//!
//! | Key | φ1 controls | φ2 action | State |
//! |---|---|---|---|
//! | `registers` | `rda<i>`/`rdb<i>` drive bus A/B, `ld<i>` load from bus A | — | `r<i>` |
//! | `alu` | `lda`, `ldb` latch operands; `out` drives result on bus A | `op0..op2` select the operation ([`ALU_OPS`]) | `a`, `b`, `result`, `carry`, `zero` |
//! | `shifter` | `ld` from bus A; `out` drives bus B | `sl`/`sr` shift by one | `value` |
//! | `ram` | `rd` & `sel<i>` drive word i; `wr` & `selw<i>` latch bus A | write commits | `m<i>` |
//! | `stack` | the same, with `pop`/`push` for `rd`/`wr` | write commits | `s<i>` |
//! | `inport` | `drv` drives bus A from the pad | — | — |
//! | `outport` | `ld` latches bus A | value appears on the pad | `value` |

use crate::machine::{Behavior, ElementCtx};

/// ALU operation encoding on control bits `op2 op1 op0`.
///
/// | op | operation |
/// |---|---|
/// | 0 | pass A |
/// | 1 | A + B |
/// | 2 | A − B |
/// | 3 | A AND B |
/// | 4 | A OR B |
/// | 5 | A XOR B |
/// | 6 | A + 1 |
/// | 7 | NOT A |
pub const ALU_OPS: [&str; 8] = [
    "pass", "add", "sub", "and", "or", "xor", "inc", "not",
];

/// The index `i` of an indexed state key `<letter><i>`, if it names one
/// of `len` words.
fn word_index(key: &str, letter: char, len: usize) -> Option<usize> {
    let i = key.strip_prefix(letter)?.parse::<usize>().ok()?;
    (i < len).then_some(i)
}

/// A bank of registers with dual read ports (bus A via `rda<i>`, bus B
/// via `rdb<i>`) and a write port from bus A (`ld<i>`).
struct RegisterFile {
    name: String,
    regs: Vec<u64>,
}

impl Behavior for RegisterFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        let mut out = [None, None];
        for (i, &v) in self.regs.iter().enumerate() {
            if ctx.control(&format!("rda{i}")) {
                out[0] = Some(out[0].unwrap_or(ctx.mask) & v);
            }
            if ctx.control(&format!("rdb{i}")) {
                out[1] = Some(out[1].unwrap_or(ctx.mask) & v);
            }
        }
        out
    }

    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        for i in 0..self.regs.len() {
            if ctx.control(&format!("ld{i}")) {
                self.regs[i] = buses[0] & ctx.mask;
            }
        }
    }

    fn peek(&self, key: &str) -> Option<u64> {
        word_index(key, 'r', self.regs.len()).map(|i| self.regs[i])
    }

    fn poke(&mut self, key: &str, value: u64) -> bool {
        word_index(key, 'r', self.regs.len())
            .map(|i| self.regs[i] = value)
            .is_some()
    }
}

/// An arithmetic-logic unit with a precharged Manhattan carry chain.
/// Operands latch from buses A and B (`lda`, `ldb`); the φ2 operation is
/// selected by control bits `op0..op2` (see [`ALU_OPS`]); `out` drives
/// the result onto bus A.
#[derive(Default)]
struct Alu {
    name: String,
    a: u64,
    b: u64,
    result: u64,
    carry: u64,
    zero: u64,
}

impl Behavior for Alu {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        if ctx.control("out") {
            [Some(self.result), None]
        } else {
            [None, None]
        }
    }

    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        if ctx.control("lda") {
            self.a = buses[0] & ctx.mask;
        }
        if ctx.control("ldb") {
            self.b = buses[1] & ctx.mask;
        }
    }

    fn phi2(&mut self, ctx: &mut ElementCtx<'_>) {
        let op = u64::from(ctx.control("op0"))
            | u64::from(ctx.control("op1")) << 1
            | u64::from(ctx.control("op2")) << 2;
        let wide = match op {
            0 => u128::from(self.a),
            1 => u128::from(self.a) + u128::from(self.b),
            2 => u128::from(self.a)
                .wrapping_sub(u128::from(self.b))
                & (u128::from(ctx.mask) << 1 | 1),
            3 => u128::from(self.a & self.b),
            4 => u128::from(self.a | self.b),
            5 => u128::from(self.a ^ self.b),
            6 => u128::from(self.a) + 1,
            7 => u128::from(!self.a & ctx.mask),
            _ => unreachable!(),
        };
        self.result = (wide as u64) & ctx.mask;
        // The carry chain is the paper's example of a precharged φ2
        // structure; here it surfaces as the carry-out flag.
        self.carry = match op {
            1 | 6 => u64::from(wide > u128::from(ctx.mask)),
            2 => u64::from(self.a >= self.b), // borrow-free
            _ => self.carry,
        };
        self.zero = u64::from(self.result == 0);
    }

    fn peek(&self, key: &str) -> Option<u64> {
        match key {
            "a" => Some(self.a),
            "b" => Some(self.b),
            "result" => Some(self.result),
            "carry" => Some(self.carry),
            "zero" => Some(self.zero),
            _ => None,
        }
    }

    fn poke(&mut self, key: &str, value: u64) -> bool {
        match key {
            "a" => self.a = value,
            "b" => self.b = value,
            "result" => self.result = value,
            "carry" => self.carry = value,
            "zero" => self.zero = value,
            _ => return false,
        }
        true
    }
}

/// A shift register: loads from bus A (`ld`), shifts left/right one bit
/// per φ2 (`sl`, `sr`), drives bus B (`out`).
struct Shifter {
    name: String,
    value: u64,
}

impl Behavior for Shifter {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        if ctx.control("out") {
            [None, Some(self.value)]
        } else {
            [None, None]
        }
    }

    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        if ctx.control("ld") {
            self.value = buses[0] & ctx.mask;
        }
    }

    fn phi2(&mut self, ctx: &mut ElementCtx<'_>) {
        if ctx.control("sl") {
            self.value = (self.value << 1) & ctx.mask;
        }
        if ctx.control("sr") {
            self.value >>= 1;
        }
    }

    fn peek(&self, key: &str) -> Option<u64> {
        (key == "value").then_some(self.value)
    }

    fn poke(&mut self, key: &str, value: u64) -> bool {
        if key == "value" {
            self.value = value;
            true
        } else {
            false
        }
    }
}

/// Decoded word storage: the shared behavior of the `ram` (words) and
/// `stack` (levels) stdcells, which draw the same word cell. One read
/// select `sel<i>` and one write select `selw<i>` per word (the silicon
/// routes them as separate poly columns gating the read and write
/// chains), plus a shared read and write control. The stack's level is
/// the decoded `_sp` microcode field the program generator maintains, so
/// no stack pointer lives here.
struct DecodedWords {
    name: String,
    /// Control that drives the selected word onto bus A (`rd`/`pop`).
    read: &'static str,
    /// Control that writes bus A into the selected word (`wr`/`push`).
    write: &'static str,
    /// State-key letter: word `i` is `<key><i>`.
    key: char,
    words: Vec<u64>,
    pending_write: Option<(usize, u64)>,
}

impl Behavior for DecodedWords {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        if ctx.control(self.read) {
            for (i, &v) in self.words.iter().enumerate() {
                if ctx.control(&format!("sel{i}")) {
                    return [Some(v), None];
                }
            }
        }
        [None, None]
    }

    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        // The physical write chain crosses the write control AND the
        // word's write-select column (both decoded from the same
        // microcode fields), so the functional model gates on the same
        // pair — a write never disturbs unaddressed words.
        if ctx.control(self.write) {
            for i in 0..self.words.len() {
                if ctx.control(&format!("selw{i}")) {
                    self.pending_write = Some((i, buses[0] & ctx.mask));
                }
            }
        }
    }

    fn phi2(&mut self, _ctx: &mut ElementCtx<'_>) {
        if let Some((i, v)) = self.pending_write.take() {
            self.words[i] = v;
        }
    }

    fn peek(&self, key: &str) -> Option<u64> {
        word_index(key, self.key, self.words.len()).map(|i| self.words[i])
    }

    fn poke(&mut self, key: &str, value: u64) -> bool {
        word_index(key, self.key, self.words.len())
            .map(|i| self.words[i] = value)
            .is_some()
    }
}

/// An input port: `drv` drives bus A from its pad.
struct InputPort {
    name: String,
    pad: String,
}

impl Behavior for InputPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
        if ctx.control("drv") {
            [Some(ctx.pad_in(&self.pad)), None]
        } else {
            [None, None]
        }
    }
}

/// An output port: `ld` latches bus A; the value appears on its pad
/// every φ2.
struct OutputPort {
    name: String,
    pad: String,
    value: u64,
}

impl Behavior for OutputPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn phi1_sample(&mut self, ctx: &mut ElementCtx<'_>, buses: [u64; 2]) {
        if ctx.control("ld") {
            self.value = buses[0] & ctx.mask;
        }
    }

    fn phi2(&mut self, ctx: &mut ElementCtx<'_>) {
        ctx.set_pad_out(&self.pad, self.value);
    }

    fn peek(&self, key: &str) -> Option<u64> {
        (key == "value").then_some(self.value)
    }

    fn poke(&mut self, key: &str, value: u64) -> bool {
        if key == "value" {
            self.value = value;
            true
        } else {
            false
        }
    }
}

/// The model a cell's `behavior` key names, built for the element
/// `name` of `columns` columns (one per register, RAM word or stack
/// level); see the module table. A port reads or drives the machine pad
/// `<name>_pad`. Returns `None` for a key no model answers to.
#[must_use]
pub fn by_key(key: &str, name: &str, columns: usize) -> Option<Box<dyn Behavior>> {
    let name = name.to_owned();
    let words = |name, (read, write): (&'static str, &'static str), key| DecodedWords {
        name,
        read,
        write,
        key,
        words: vec![0; columns],
        pending_write: None,
    };
    let model: Box<dyn Behavior> = match key {
        "registers" => Box::new(RegisterFile { name, regs: vec![0; columns] }),
        "alu" => Box::new(Alu { name, ..Alu::default() }),
        "shifter" => Box::new(Shifter { name, value: 0 }),
        "ram" => Box::new(words(name, ("rd", "wr"), 'm')),
        "stack" => Box::new(words(name, ("pop", "push"), 's')),
        "inport" => Box::new(InputPort { pad: format!("{name}_pad"), name }),
        "outport" => Box::new(OutputPort { pad: format!("{name}_pad"), name, value: 0 }),
        _ => return None,
    };
    Some(model)
}

/// The words a key's model keeps one per column (a register, RAM word
/// or stack level), as the silicon holds them. A co-simulation checks
/// each column's plates against the machine's state key for that word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storage {
    /// The machine's state key for column `i` is `<letter><i>`.
    pub letter: char,
    /// Each plate of a column that holds the word, with the label its
    /// check reports: `(plate bristle, check label)`.
    pub plates: &'static [(&'static str, &'static str)],
}

/// The per-column storage of the model a `behavior` key names, beside
/// [`by_key`] so that one key picks both the model and what of the
/// silicon is checked against it. `None` for a key whose model keeps no
/// per-column words.
#[must_use]
pub fn storage_by_key(key: &str) -> Option<Storage> {
    let (letter, plates): (char, &'static [(&'static str, &'static str)]) = match key {
        // Both register plates are written from bus A.
        "registers" => ('r', &[("storeA", "storeA"), ("storeB", "storeB")]),
        "ram" => ('m', &[("cell", "ram-cell")]),
        "stack" => ('s', &[("level", "stack-level")]),
        _ => return None,
    };
    Some(Storage { letter, plates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, SimError};
    use crate::microcode::Microcode;
    use bristle_cell::{ActiveWhen, ControlLine, Phase};

    struct Literal {
        name: String,
    }

    impl Behavior for Literal {
        fn name(&self) -> &str {
            &self.name
        }

        fn phi1_drive(&mut self, ctx: &ElementCtx<'_>) -> [Option<u64>; 2] {
            if ctx.control("en") {
                let mut v = 0u64;
                for k in 0..ctx.width {
                    if ctx.control(&format!("b{k}")) {
                        v |= 1 << k;
                    }
                }
                [Some(v), None]
            } else {
                [None, None]
            }
        }
    }

    /// A literal source: when `en` is asserted, drives bus A with the
    /// constant whose bit `k` is control line `b<k>` — letting a microcode
    /// field supply immediates directly through the decoder.
    fn literal(name: impl Into<String>) -> Box<dyn Behavior> {
        Box::new(Literal { name: name.into() })
    }

    fn ctl(field: &str, active: ActiveWhen, phase: Phase) -> ControlLine {
        ControlLine {
            field: field.to_owned(),
            active,
            phase,
        }
    }

    /// Every state key of every behavior round-trips through `poke` and
    /// `peek`; unknown and out-of-range keys fail both with
    /// `UnknownState`.
    #[test]
    fn peek_and_poke_every_key() {
        let mut m = Machine::new(8, Microcode::new());
        for b in [
            by_key("registers", "regs", 3).unwrap(),
            by_key("alu", "alu", 1).unwrap(),
            by_key("shifter", "sh", 1).unwrap(),
            by_key("ram", "mem", 2).unwrap(),
            by_key("stack", "st", 2).unwrap(),
            by_key("inport", "pin", 1).unwrap(),
            by_key("outport", "pout", 1).unwrap(),
        ] {
            m.add_element(b, &[]).unwrap();
        }
        let keys: &[(&str, &[&str])] = &[
            ("regs", &["r0", "r1", "r2"]),
            ("alu", &["a", "b", "result", "carry", "zero"]),
            ("sh", &["value"]),
            ("mem", &["m0", "m1"]),
            ("st", &["s0", "s1"]),
            ("pin", &[]),
            ("pout", &["value"]),
        ];
        let mut value = 0x11;
        for &(element, keys) in keys {
            for key in keys {
                m.poke(element, key, value).unwrap();
                assert_eq!(m.peek(element, key), Ok(value), "{element}/{key}");
                value += 0x11;
            }
        }
        // Each key addresses its own word: nothing was overwritten.
        let mut value = 0x11;
        for &(element, keys) in keys {
            for key in keys {
                assert_eq!(m.peek(element, key), Ok(value), "{element}/{key}");
                value += 0x11;
            }
        }
        let unknown: &[(&str, &[&str])] = &[
            ("regs", &["r3", "r", "m0", "a", "value"]),
            ("alu", &["r0", "value", "result0", "A"]),
            ("sh", &["value0", "r0", "a"]),
            ("mem", &["m2", "m", "s0", "r0"]),
            ("st", &["s2", "s", "m0", "value"]),
            ("pin", &["value", "r0", ""]),
            ("pout", &["value1", "a", ""]),
        ];
        for &(element, keys) in unknown {
            for key in keys {
                let peeked = m.peek(element, key).map(drop);
                let poked = m.poke(element, key, 1);
                for r in [peeked, poked] {
                    assert!(
                        matches!(&r, Err(SimError::UnknownState { element: e, key: k })
                            if e == element && k == key),
                        "{element}/{key}: {r:?}"
                    );
                }
            }
        }
    }

    /// Every key in the table builds its model under the element's name;
    /// a key no model answers to is refused.
    #[test]
    fn by_key_builds_each_model() {
        for key in ["registers", "alu", "shifter", "ram", "stack", "inport", "outport"] {
            let b = by_key(key, "e0", 2).unwrap_or_else(|| panic!("`{key}` has no model"));
            assert_eq!(b.name(), "e0");
        }
        for key in ["precharge", "inv", "", "Registers", "register_file"] {
            assert!(by_key(key, "e0", 2).is_none(), "`{key}`");
        }
    }

    /// Every model with per-column words answers to the state keys its
    /// storage names, one per column, and no model without them does.
    #[test]
    fn storage_keys_name_each_models_words() {
        for key in ["registers", "alu", "shifter", "ram", "stack", "inport", "outport"] {
            let model = by_key(key, "e0", 3).unwrap();
            match storage_by_key(key) {
                Some(st) => {
                    assert!(!st.plates.is_empty(), "`{key}`");
                    for i in 0..3 {
                        assert_eq!(model.peek(&format!("{}{i}", st.letter)), Some(0), "`{key}` word {i}");
                    }
                    assert_eq!(model.peek(&format!("{}3", st.letter)), None, "`{key}`");
                }
                None => assert!(["r0", "m0", "s0"].iter().all(|k| model.peek(k).is_none()), "`{key}`"),
            }
        }
    }

    /// A full little datapath: 2 registers, ALU.
    fn datapath() -> Machine {
        let mut mc = Microcode::new();
        mc.add_field("rd", 2).unwrap(); // 1: r0->A, 2: r1->A; also rdb below
        mc.add_field("ld", 2).unwrap();
        mc.add_field("alu", 3).unwrap(); // op bits
        mc.add_field("aluc", 2).unwrap(); // 1: latch operands, 2: drive out
        let mut m = Machine::new(8, mc);
        m.add_element(
            by_key("registers", "regs", 2).unwrap(),
            &[
                ("rda0", ctl("rd", ActiveWhen::Equals(1), Phase::Phi1)),
                ("rda1", ctl("rd", ActiveWhen::Equals(2), Phase::Phi1)),
                ("rdb0", ctl("rd", ActiveWhen::Equals(3), Phase::Phi1)),
                ("rdb1", ctl("rd", ActiveWhen::Equals(1), Phase::Phi1)),
                ("ld0", ctl("ld", ActiveWhen::Equals(1), Phase::Phi1)),
                ("ld1", ctl("ld", ActiveWhen::Equals(2), Phase::Phi1)),
            ],
        )
        .unwrap();
        m.add_element(
            by_key("alu", "alu", 1).unwrap(),
            &[
                ("lda", ctl("aluc", ActiveWhen::Equals(1), Phase::Phi1)),
                ("ldb", ctl("aluc", ActiveWhen::Equals(1), Phase::Phi1)),
                ("out", ctl("aluc", ActiveWhen::Equals(2), Phase::Phi1)),
                ("op0", ctl("alu", ActiveWhen::Bit(0), Phase::Phi2)),
                ("op1", ctl("alu", ActiveWhen::Bit(1), Phase::Phi2)),
                ("op2", ctl("alu", ActiveWhen::Bit(2), Phase::Phi2)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn add_two_registers() {
        let mut m = datapath();
        m.poke("regs", "r0", 12).unwrap();
        m.poke("regs", "r1", 30).unwrap();
        // Cycle 1: r0 -> bus A, r1 -> bus B, ALU latches both, op=add.
        let w1 = m
            .microcode()
            .encode(&[("rd", 1), ("aluc", 1), ("alu", 1)])
            .unwrap();
        m.step_word(w1).unwrap();
        assert_eq!(m.peek("alu", "a").unwrap(), 12);
        assert_eq!(m.peek("alu", "b").unwrap(), 30);
        assert_eq!(m.peek("alu", "result").unwrap(), 42);
        // Cycle 2: result -> bus A -> r0.
        let w2 = m.microcode().encode(&[("aluc", 2), ("ld", 1)]).unwrap();
        m.step_word(w2).unwrap();
        assert_eq!(m.peek("regs", "r0").unwrap(), 42);
    }

    #[test]
    fn alu_ops_and_flags() {
        let mut m = datapath();
        let cases: &[(u64, u64, u64, u64)] = &[
            // (op, a, b, expected)
            (0, 0xAB, 0x01, 0xAB),
            (1, 200, 100, 44), // wraps at 8 bits, carry set
            (2, 5, 3, 2),
            (3, 0b1100, 0b1010, 0b1000),
            (4, 0b1100, 0b1010, 0b1110),
            (5, 0b1100, 0b1010, 0b0110),
            (6, 0xFF, 0, 0),
            (7, 0x0F, 0, 0xF0),
        ];
        for &(op, a, b, want) in cases {
            m.poke("alu", "a", a).unwrap();
            m.poke("alu", "b", b).unwrap();
            let w = m.microcode().encode(&[("alu", op)]).unwrap();
            m.step_word(w).unwrap();
            assert_eq!(m.peek("alu", "result").unwrap(), want, "op={op} a={a} b={b}");
        }
        // Carry from the wrap-around add.
        m.poke("alu", "a", 200).unwrap();
        m.poke("alu", "b", 100).unwrap();
        let w = m.microcode().encode(&[("alu", 1)]).unwrap();
        m.step_word(w).unwrap();
        assert_eq!(m.peek("alu", "carry").unwrap(), 1);
        assert_eq!(m.peek("alu", "zero").unwrap(), 0);
    }

    #[test]
    fn shifter_shifts() {
        let mut mc = Microcode::new();
        mc.add_field("s", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            by_key("shifter", "sh", 1).unwrap(),
            &[
                ("sl", ctl("s", ActiveWhen::Equals(1), Phase::Phi2)),
                ("sr", ctl("s", ActiveWhen::Equals(2), Phase::Phi2)),
            ],
        )
        .unwrap();
        m.poke("sh", "value", 0b0110).unwrap();
        let w = m.microcode().encode(&[("s", 1)]).unwrap();
        m.step_word(w).unwrap();
        assert_eq!(m.peek("sh", "value").unwrap(), 0b1100);
        let w = m.microcode().encode(&[("s", 2)]).unwrap();
        m.step_word(w).unwrap();
        assert_eq!(m.peek("sh", "value").unwrap(), 0b0110);
    }

    #[test]
    fn decoded_ram_write_needs_selw() {
        let mut mc = Microcode::new();
        mc.add_field("sel", 2).unwrap();
        mc.add_field("rw", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            by_key("ram", "mem", 2).unwrap(),
            &[
                ("sel0", ctl("sel", ActiveWhen::Equals(1), Phase::Phi1)),
                ("sel1", ctl("sel", ActiveWhen::Equals(2), Phase::Phi1)),
                ("selw0", ctl("sel", ActiveWhen::Equals(1), Phase::Phi1)),
                ("selw1", ctl("sel", ActiveWhen::Equals(2), Phase::Phi1)),
                ("wr", ctl("rw", ActiveWhen::Equals(1), Phase::Phi1)),
                ("rd", ctl("rw", ActiveWhen::Equals(2), Phase::Phi1)),
            ],
        )
        .unwrap();
        m.add_element(
            literal("lit"),
            &[
                ("en", ctl("rw", ActiveWhen::Equals(1), Phase::Phi1)),
                ("b0", ctl("rw", ActiveWhen::Equals(1), Phase::Phi1)),
                ("b2", ctl("rw", ActiveWhen::Equals(1), Phase::Phi1)),
            ],
        )
        .unwrap();
        // Write 0b101 to word 1: only m1 changes.
        let w = m.microcode().encode(&[("sel", 2), ("rw", 1)]).unwrap();
        m.step_word(w).unwrap();
        assert_eq!(m.peek("mem", "m0").unwrap(), 0);
        assert_eq!(m.peek("mem", "m1").unwrap(), 0b101);
        // Read it back.
        let r = m.microcode().encode(&[("sel", 2), ("rw", 2)]).unwrap();
        let buses = m.step_word(r).unwrap();
        assert_eq!(buses[0], 0b101);
    }

    #[test]
    fn decoded_stack_is_sp_faithful() {
        let mut mc = Microcode::new();
        mc.add_field("stk", 2).unwrap();
        mc.add_field("sp", 2).unwrap();
        let mut m = Machine::new(8, mc);
        m.add_element(
            by_key("stack", "st", 3).unwrap(),
            &[
                ("push", ctl("stk", ActiveWhen::Equals(1), Phase::Phi1)),
                ("pop", ctl("stk", ActiveWhen::Equals(2), Phase::Phi1)),
                ("sel0", ctl("sp", ActiveWhen::Equals(1), Phase::Phi1)),
                ("sel1", ctl("sp", ActiveWhen::Equals(2), Phase::Phi1)),
                ("sel2", ctl("sp", ActiveWhen::Equals(3), Phase::Phi1)),
                ("selw0", ctl("sp", ActiveWhen::Equals(1), Phase::Phi1)),
                ("selw1", ctl("sp", ActiveWhen::Equals(2), Phase::Phi1)),
                ("selw2", ctl("sp", ActiveWhen::Equals(3), Phase::Phi1)),
            ],
        )
        .unwrap();
        m.add_element(
            literal("lit"),
            &[
                ("en", ctl("stk", ActiveWhen::Equals(1), Phase::Phi1)),
                ("b1", ctl("stk", ActiveWhen::Equals(1), Phase::Phi1)),
                ("b0", ctl("sp", ActiveWhen::Equals(2), Phase::Phi1)),
            ],
        )
        .unwrap();
        let levels = |m: &Machine| -> Vec<u64> {
            (0..3)
                .map(|i| m.peek("st", &format!("s{i}")).unwrap())
                .collect()
        };
        // Push twice (levels 0 then 1, the generator encodes sp): each
        // push writes only its selected level.
        let p0 = m.microcode().encode(&[("stk", 1), ("sp", 1)]).unwrap();
        let p1 = m.microcode().encode(&[("stk", 1), ("sp", 2)]).unwrap();
        m.step_word(p0).unwrap();
        assert_eq!(levels(&m), [0b10, 0, 0]);
        m.step_word(p1).unwrap();
        assert_eq!(levels(&m), [0b10, 0b11, 0]);
        // Pop level 1, then level 0: each drives its word onto bus A and
        // leaves the storage as it was.
        for (sp, want) in [(2, 0b11), (1, 0b10)] {
            let pop = m.microcode().encode(&[("stk", 2), ("sp", sp)]).unwrap();
            let buses = m.step_word(pop).unwrap();
            assert_eq!(buses[0], want, "pop level {}", sp - 1);
            assert_eq!(levels(&m), [0b10, 0b11, 0]);
        }
        // Pop or push with no select (sp field 0) drives and writes
        // nothing.
        let idle_pop = m.microcode().encode(&[("stk", 2)]).unwrap();
        let buses = m.step_word(idle_pop).unwrap();
        assert_eq!(buses[0], 0xFF, "undriven bus stays precharged");
        let idle_push = m.microcode().encode(&[("stk", 1)]).unwrap();
        m.step_word(idle_push).unwrap();
        assert_eq!(levels(&m), [0b10, 0b11, 0]);
    }
}

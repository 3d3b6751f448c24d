//! Mask-analysis parity goldens: the top-cell netlist and the top-cell
//! DRC report of thirteen chips, pinned by hash so any change to what
//! `extract` or `check_flat` reports shows.
//!
//! The chips are the four reference chips, `sweep_spec(32, 8, 4)` and
//! the eight `random_spec` seeds whose top cell is DRC-dirty (two
//! `min-spacing(NM)` violations each), so violation text and order are
//! pinned as well as clean pair counts.
//!
//! The hash is FNV-1a-64, as in `tests/svg_golden.rs`. The netlist text
//! is its `Display` followed by one `name net` line per terminal; the
//! report text is its `Display` followed by its pair count.

use bristle_bench::{reference_specs, sweep_spec};
use bristle_blocks::core::{ChipSpec, Compiler};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;
use bristle_blocks::verify::{Rng, SpecGen};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offsets `k` of the DRC-dirty seeds `0xB215_713E + 5000 + k`.
const DIRTY: [u64; 8] = [72, 192, 364, 383, 527, 581, 598, 599];

/// (chip, top-cell netlist hash, top-cell DRC report hash, violations).
const GOLDEN: [(&str, u64, u64, usize); 13] = [
    ("counter4", 0x8f21_4b1b_3eb8_b421, 0x82e6_ed5c_42e6_8cd4, 0),
    ("alu8", 0xe43a_a116_8d21_9cf9, 0x7530_f4bb_aa7c_f62e, 0),
    ("datapath16", 0x1316_44f2_bdf4_6ab7, 0xe146_e6d5_24e9_eb8e, 0),
    ("cpu16", 0x774e_1f3f_1f58_777d, 0xec77_76d9_53bc_ce88, 0),
    ("sweep_w32_r8_x4", 0xf3a7_fefb_7ded_d81e, 0xfe9e_a40c_2c12_8168, 0),
    ("dirty72", 0x3ecf_2005_cc22_d8f1, 0x3207_27e5_5a72_80eb, 2),
    ("dirty192", 0x1046_b58f_b689_6877, 0xc0f1_151c_5151_adeb, 2),
    ("dirty364", 0xa182_01fa_ee1b_0310, 0xa58c_3c40_724e_acac, 2),
    ("dirty383", 0x1305_94f0_7fff_1ec2, 0x4f1d_0a41_5177_198e, 2),
    ("dirty527", 0xe7ca_5d68_f31d_5a02, 0x688d_7376_a383_7a9a, 2),
    ("dirty581", 0xfefa_8a3f_5df6_1cdb, 0x8529_b86d_f667_c775, 2),
    ("dirty598", 0x65f5_24bd_8799_f0e9, 0xa612_dddd_78d1_76aa, 2),
    ("dirty599", 0xcbfc_086d_eeef_eac8, 0xafe9_e111_d603_cae4, 2),
];

fn specs() -> Vec<ChipSpec> {
    let dirty = DIRTY.iter().map(|&k| {
        SpecGen::random_spec(&mut Rng::new(0xB215_713E + 5000 + k), &format!("dirty{k}"))
    });
    reference_specs()
        .into_iter()
        .chain([sweep_spec(32, 8, 4)])
        .chain(dirty)
        .collect()
}

#[test]
fn top_cell_netlists_and_drc_reports_match_goldens() {
    let rules = RuleSet::mead_conway();
    let specs = specs();
    assert_eq!(specs.len(), GOLDEN.len());
    let mut got = Vec::new();
    for (spec, &(name, _, _, _)) in specs.iter().zip(&GOLDEN) {
        assert_eq!(spec.name, name);
        let chip = Compiler::new().compile(spec).expect("golden chip compiles");
        let net = extract(&chip.lib, chip.top);
        let mut text = net.to_string();
        for (t, id) in &net.terminals {
            text.push_str(&format!("{t} {id}\n"));
        }
        let report = check_flat(&chip.lib, chip.top, &rules);
        let drc = format!("{report}pairs {}\n", report.checked_pairs);
        got.push((name, fnv1a64(&text), fnv1a64(&drc), report.violations.len()));
    }
    let want: Vec<_> = GOLDEN.to_vec();
    assert_eq!(got, want, "{got:#x?}");
}

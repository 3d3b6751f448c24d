//! Property tests for the instruction-decoder pipeline: the two-tape
//! Turing machine, whose scan-back term sharing is the decoder's one
//! optimization, never changes the decode function.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use std::collections::HashMap;

use bristle_blocks::pla::{compile_on_tape, Cube, DecodeSpec};

mod common;
use common::Rng;

fn arb_cube(rng: &mut Rng) -> Cube {
    // 10-bit space keeps exhaustive equivalence cheap.
    let care = rng.range_u64(0, 1024);
    let value = rng.range_u64(0, 1024) & care;
    Cube { care, value }
}

/// One cube per line, as every decode a control bristle asks for is;
/// about a third of the lines repeat an earlier line's cube, so the
/// machine's scan-back has terms to share.
fn arb_spec(rng: &mut Rng) -> DecodeSpec {
    let mut spec = DecodeSpec::new(10);
    for i in 0..rng.range(1, 10) {
        let n = spec.lines().len() as u64;
        let cube = if n > 0 && rng.chance(1, 3) {
            spec.lines()[rng.range_u64(0, n) as usize].cube
        } else {
            arb_cube(rng)
        };
        spec.add_line(format!("c{i}"), cube);
    }
    spec
}

#[test]
fn tape_machine_preserves_function() {
    let mut rng = Rng::new(0x91A0_0002);
    for case in 0..48 {
        let spec = arb_spec(&mut rng);
        let direct = spec.to_pla();
        let (compiled, steps) = compile_on_tape(&spec);
        assert!(steps > 0, "case {case}");
        assert!(compiled.equivalent(&direct, 12), "case {case}");
    }
}

#[test]
fn shared_terms_never_exceed_inputs() {
    let mut rng = Rng::new(0x91A0_0003);
    for case in 0..48 {
        let spec = arb_spec(&mut rng);
        let (pla, _) = compile_on_tape(&spec);
        assert!(pla.terms().len() <= spec.lines().len(), "case {case}");
    }
}

#[test]
fn eval_matches_cube_semantics() {
    let mut rng = Rng::new(0x91A0_0004);
    for case in 0..48 {
        let spec = arb_spec(&mut rng);
        let word = rng.range_u64(0, 1024);
        let pla = spec.to_pla();
        let outputs: HashMap<String, bool> = pla.eval(word).into_iter().collect();
        for line in spec.lines() {
            let want = line.cube.matches(word);
            assert_eq!(outputs.get(&line.name), Some(&want), "case {case} word {word}");
        }
    }
}

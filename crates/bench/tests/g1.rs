//! Experiment G1 (fault injection into leaf cells and glue), pinned:
//! DRC of the counter4 core catches 10 of the 12 leaf mutations and 5
//! of the 12 glue mutations. Each mutation is a copy of the library with
//! one cell replaced, so a change to how cells are edited or checked
//! shows up here as a changed count.

use std::process::Command;

#[test]
fn g1_counts_stay_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).arg("g1").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("leaf mutations caught by DRC : 10/12\n"), "{text}");
    assert!(text.contains("glue mutations caught by DRC : 5/12\n"), "{text}");
}

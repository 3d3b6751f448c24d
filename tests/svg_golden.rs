//! SVG parity goldens: the LAYOUT and STICKS renderings of five chips,
//! pinned by hash so any byte change to either renderer shows.
//!
//! The hash is FNV-1a-64, written out here because `DefaultHasher`'s
//! output may change between Rust releases. The sticks hash skips the
//! first line (the `<svg>` tag), so the pin covers the drawing itself.
//!
//! Structural invariants over generated specs check what the hashes
//! cannot: integer coordinates, a consistent `<svg>` frame, and one
//! element per shape, bristle and stick.

use bristle_bench::{reference_specs, sweep_spec};
use bristle_blocks::cell::ShapeGeom;
use bristle_blocks::core::{parse_page, ChipSpec, Compiler};
use bristle_blocks::verify::{Rng, SpecGen};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` after its first line.
fn body(text: &str) -> &str {
    text.split_once('\n').map_or("", |(_, rest)| rest)
}

/// (chip, layout hash, sticks-body hash), computed before the integer
/// renderer replaced the `f64` ones.
const GOLDEN: [(&str, u64, u64); 5] = [
    ("counter4", 0x16c9_7663_5b01_396f, 0x8de2_8b43_7b98_8006),
    ("alu8", 0xba49_443e_c847_afa9, 0x734f_0107_e94d_d079),
    ("datapath16", 0x79eb_3f9c_ad06_4d87, 0x4ee6_31b2_c429_434e),
    ("cpu16", 0xa1fe_6cfe_d67a_a347, 0x0bbc_b049_54c2_2d4b),
    ("sweep_w32_r8_x4", 0xf2e0_b9cc_4d74_b922, 0xab13_4bef_b8bd_9c59),
];

#[test]
fn layout_and_sticks_svg_match_goldens() {
    let specs: Vec<ChipSpec> = reference_specs()
        .into_iter()
        .chain([sweep_spec(32, 8, 4)])
        .collect();
    for (spec, &(name, layout, sticks)) in specs.iter().zip(&GOLDEN) {
        assert_eq!(spec.name, name);
        let chip = Compiler::new().compile(spec).expect("golden chip compiles");
        assert_eq!(fnv1a64(&chip.layout_svg()), layout, "{name} layout");
        assert_eq!(fnv1a64(body(&chip.sticks_svg())), sticks, "{name} sticks");
    }
}

/// Attributes holding a pixel coordinate or length; the polygon
/// `points` list is split into its numbers.
const COORDS: [&str; 12] = [
    "x", "y", "width", "height", "cx", "cy", "r", "x1", "y1", "x2", "y2", "points",
];

/// `(name, value)` of every `name="value"` attribute on `line`.
fn attrs(line: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(eq) = rest.find("=\"") {
        let name = rest[..eq].rsplit(' ').next().unwrap_or_default();
        let value = &rest[eq + 2..];
        let end = value.find('"').expect("attribute value is closed");
        out.push((name, &value[..end]));
        rest = &value[end + 1..];
    }
    out
}

/// Checks every coordinate is printed `N.0` and that the `<svg>` tag's
/// size equals its `viewBox` extent.
fn check_integral(svg: &str, what: &str) {
    let lines: Vec<&str> = svg.lines().collect();
    let head = attrs(lines[0]);
    let get = |k: &str| head.iter().find(|a| a.0 == k).map(|a| a.1);
    let (w, h) = (get("width").unwrap(), get("height").unwrap());
    assert!(
        w.parse::<u64>().is_ok() && h.parse::<u64>().is_ok(),
        "{what}: {}",
        lines[0]
    );
    assert_eq!(
        get("viewBox"),
        Some(format!("0 0 {w} {h}").as_str()),
        "{what}"
    );
    for line in &lines[1..] {
        for (name, value) in attrs(line) {
            if !COORDS.contains(&name) || value.ends_with('%') {
                continue;
            }
            for n in value.split([' ', ',']) {
                let int = n.strip_suffix(".0").and_then(|i| i.parse::<i64>().ok());
                assert!(int.is_some(), "{what}: `{name}={value}` in {line}");
            }
        }
    }
}

/// Number of elements with tag `tag` (one element per line).
fn count(svg: &str, tag: &str) -> usize {
    svg.lines().filter(|l| l.starts_with(tag)).count()
}

#[test]
fn generated_specs_render_integral_one_element_per_item() {
    for i in 0..100u64 {
        let seed = 0xB215_713E + 5000 + i;
        let spec = SpecGen::random_spec(&mut Rng::new(seed), &format!("sg{i}"));
        let chip = Compiler::new()
            .compile(&spec)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let what = format!("seed {seed:#x}");

        let layout = chip.layout_svg();
        check_integral(&layout, &what);
        let rects: usize = chip
            .lib
            .flatten_shared(chip.top)
            .iter()
            .filter(|s| !matches!(s.geom, ShapeGeom::Poly(_)))
            .map(|s| s.to_rects().len())
            .sum();
        assert_eq!(
            count(&layout, "<rect "),
            1 + rects,
            "{what}: background + shapes"
        );
        let bristles = chip.lib.flat_bristles_shared(chip.top).len();
        assert_eq!(count(&layout, "<circle "), bristles, "{what}: bristles");

        let sticks = chip.sticks_svg();
        check_integral(&sticks, &what);
        assert_eq!(
            count(&sticks, "<line "),
            chip.sticks().len(),
            "{what}: sticks"
        );
    }
}

/// XML 1.0 forbids `--` inside a comment; the layout's header comment
/// carries the top cell's name, which a page may spell with hyphens.
#[test]
fn layout_svg_comments_hold_no_double_hyphen() {
    for name in ["a--b", "a---b"] {
        let spec = parse_page(&format!("chip {name}\nelement alu\n")).unwrap();
        let svg = Compiler::new().compile(&spec).unwrap().layout_svg();
        let mut rest = svg.as_str();
        let mut comments = 0;
        while let Some(start) = rest.find("<!--") {
            let (text, tail) = rest[start + 4..]
                .split_once("-->")
                .unwrap_or_else(|| panic!("chip `{name}`: unclosed comment"));
            assert!(!text.contains("--"), "chip `{name}`: `--` in comment `{text}`");
            let restored = text.replace("- ", "-");
            assert!(restored.contains(&format!("`{name}_chip`")), "chip `{name}`: `{text}`");
            comments += 1;
            rest = tail;
        }
        assert_eq!(comments, 1, "chip `{name}`: the header comment");
    }
}

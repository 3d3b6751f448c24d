//! Property test: no page input panics. Random CIF and cell design
//! language pages, with coordinates near the origin, at and just inside
//! the geometry bound, just past it and far past it, either load into a
//! library every back-end pass can take, or are refused with a typed
//! error.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bristle_blocks::cell::{load_library, CdlError, CellError, Library};
use bristle_blocks::cif::{cif_to_library, parse_cif, render_svg, write_cif, ParseCifError};
use bristle_blocks::drc::{check_flat, RuleSet};
use bristle_blocks::extract::extract;
use bristle_blocks::geom::{Rect, MAX_COORD};

mod common;
use common::Rng;

/// One item of a symbol, in λ.
enum Item {
    Box(i64, i64, i64, i64),
    Wire(i64, Vec<(i64, i64)>),
    Poly(Vec<(i64, i64)>),
    /// Carried by the cell design language only.
    Bristle(i64, i64),
    /// A call of an earlier symbol: its index, an orientation index and
    /// the offset.
    Call(usize, usize, (i64, i64)),
}

/// Symbols in definition order; the last one is the top.
type Page = Vec<Vec<Item>>;

/// Draws λ coordinates. A tame page stays near the origin, at the bound
/// or half of it (nested calls sum those); a wild one also goes one or
/// two λ past the bound and near `i64`'s ends.
struct Coords<'a> {
    rng: &'a mut Rng,
    wild: bool,
}

impl Coords<'_> {
    fn coord(&mut self) -> i64 {
        let m = MAX_COORD;
        let sign = if self.rng.chance(1, 2) { 1 } else { -1 };
        let kinds = if self.wild { 6 } else { 4 };
        sign * match self.rng.range(0, kinds) {
            0 | 1 => self.rng.range(0, 40),
            2 => m - self.rng.range(0, 3),
            3 => m / 2 + self.rng.range(-2, 3),
            4 => m + self.rng.range(1, 3),
            _ => i64::MAX - self.rng.range(0, 3),
        }
    }

    fn point(&mut self) -> (i64, i64) {
        (self.coord(), self.coord())
    }

    /// `c` moved by a few λ, or a fresh coordinate.
    fn near(&mut self, c: i64) -> i64 {
        if self.rng.chance(3, 4) {
            let d = self.rng.range(1, 9) * if self.rng.chance(1, 2) { 1 } else { -1 };
            c.saturating_add(d)
        } else {
            self.coord()
        }
    }

    fn width(&mut self) -> i64 {
        match self.rng.range(0, 8) {
            0 => 2 * MAX_COORD,
            1 if self.wild => i64::MAX - 1,
            _ => 2 * self.rng.range(1, 3),
        }
    }

    /// A Manhattan center-line of two to five points.
    fn wire(&mut self) -> Vec<(i64, i64)> {
        let mut pts = vec![self.point()];
        for k in 0..self.rng.range(1, 5) {
            let (x, y) = *pts.last().unwrap();
            pts.push(if k % 2 == 0 { (self.near(x), y) } else { (x, self.near(y)) });
        }
        pts
    }

    /// A rectilinear polygon of up to 26 vertices: a histogram of
    /// columns over one base line, walked base first. One in ten is a
    /// triangle instead, one in ten a square wound five times and one in
    /// ten a figure-eight whose loop crosses itself; `add_cell` refuses
    /// all three.
    fn poly(&mut self) -> Vec<(i64, i64)> {
        let (x0, y0) = self.point();
        match self.rng.range(0, 10) {
            0 => vec![(x0, y0), (self.near(x0), y0), (x0, self.near(y0))],
            1 => {
                let s = self.coord().saturating_abs().max(1);
                [(s, s), (-s, s), (-s, -s), (s, -s)].repeat(5)
            }
            2 => {
                let s = self.rng.range(1, 9);
                let at = |i: i64, j: i64| (x0.saturating_add(i * s), y0.saturating_add(j * s));
                vec![at(0, 0), at(2, 0), at(2, 4), at(4, 4), at(4, 2), at(0, 2)]
            }
            _ => {
                let mut xs = vec![x0];
                for _ in 0..self.rng.range(1, 13) {
                    let step = if self.rng.chance(1, 8) { MAX_COORD / 4 } else { self.rng.range(1, 6) };
                    xs.push(xs.last().unwrap().saturating_add(step));
                }
                let mut pts = vec![(x0, y0), (*xs.last().unwrap(), y0)];
                for i in (0..xs.len() - 1).rev() {
                    // Neighbouring columns differ in parity, so in height.
                    let top = y0.saturating_add(1 + i as i64 % 2 + 2 * self.rng.range(0, 4));
                    pts.push((xs[i + 1], top));
                    pts.push((xs[i], top));
                }
                pts
            }
        }
    }
}

fn random_page(rng: &mut Rng) -> Page {
    let wild = rng.chance(1, 3);
    let symbols = rng.range(1, 5) as usize;
    let mut page: Page = Vec::new();
    for s in 0..symbols {
        let mut c = Coords { rng: &mut *rng, wild };
        let mut items = Vec::new();
        for _ in 0..c.rng.range(0, 4) {
            items.push(match c.rng.range(0, 4) {
                0 => {
                    let (x, y) = c.point();
                    let (x1, y1) = (c.near(x), c.near(y));
                    Item::Box(x, y, x1, y1)
                }
                1 => Item::Wire(c.width(), c.wire()),
                2 => Item::Poly(c.poly()),
                _ => {
                    let (x, y) = c.point();
                    Item::Bristle(x, y)
                }
            });
        }
        if s > 0 {
            for _ in 0..c.rng.range(1, 3) {
                let target = c.rng.range(0, s as i64) as usize;
                let orient = c.rng.range(0, 8) as usize;
                // Calls stay tame more often, so deep nests get built.
                let offset = if c.rng.chance(1, 2) { (c.near(0), c.near(0)) } else { c.point() };
                items.push(Item::Call(target, orient, offset));
            }
        }
        page.push(items);
    }
    page
}

/// The page as CIF in the writer's half-λ units, saturating where
/// doubling leaves `i64`. Half the calls carry a second translation,
/// which the parser composes.
fn to_cif(page: &Page, rng: &mut Rng) -> String {
    const OPS: [&str; 8] =
        ["", " R 0 1", " R -1 0", " R 0 -1", " MX", " MX R 0 1", " MX R -1 0", " MX R 0 -1"];
    let d = |v: i64| v.saturating_mul(2);
    let pts = |p: &[(i64, i64)]| p.iter().map(|&(x, y)| format!(" {} {}", d(x), d(y))).collect::<String>();
    let mut out = String::new();
    for (s, items) in page.iter().enumerate() {
        out += &format!("DS {} 125 1;\n9 s{s};\nL NM;\n", s + 1);
        for item in items {
            out += &match item {
                Item::Box(x0, y0, x1, y1) => {
                    let (w, h) = (d(x1.saturating_sub(*x0)), d(y1.saturating_sub(*y0)));
                    format!("B {w} {h} {} {};\n", x0.saturating_add(*x1), y0.saturating_add(*y1))
                }
                Item::Wire(w, p) => format!("W {}{};\n", d(*w), pts(p)),
                Item::Poly(p) => format!("P{};\n", pts(p)),
                Item::Bristle(..) => continue,
                Item::Call(t, o, (x, y)) => {
                    let extra = if rng.chance(1, 2) { " T 2 -2" } else { "" };
                    format!("C {}{} T {} {}{extra};\n", t + 1, OPS[*o], d(*x), d(*y))
                }
            };
        }
        out += "DF;\n";
    }
    out + &format!("C {} T 0 0;\nE\n", page.len())
}

/// The page in the cell design language.
fn to_cdl(page: &Page) -> String {
    const ORIENTS: [&str; 8] = ["R0", "R90", "R180", "R270", "MR0", "MR90", "MR180", "MR270"];
    let pts = |p: &[(i64, i64)]| p.iter().map(|&(x, y)| format!(" {x} {y}")).collect::<String>();
    let mut out = String::from("library page\n");
    for (s, items) in page.iter().enumerate() {
        out += &format!("cell s{s}\n");
        for (k, item) in items.iter().enumerate() {
            out += &match item {
                Item::Box(x0, y0, x1, y1) => format!("  box NM {x0} {y0} {x1} {y1}\n"),
                Item::Wire(w, p) => format!("  wire NM {w} {}{}\n", p.len(), pts(p)),
                Item::Poly(p) => format!("  poly NM {}{}\n", p.len(), pts(p)),
                Item::Bristle(x, y) => format!("  bristle b{k} NM {x} {y} N signal\n"),
                Item::Call(t, o, (x, y)) => format!("  inst s{t} u{k} {} {x} {y}\n", ORIENTS[*o]),
            };
        }
        out += "end\n";
    }
    out
}

/// Every back-end pass over every cell of an accepted library, none of
/// which may panic; the CIF it writes loads again.
fn exercise(lib: &Library) {
    let bound = Rect::new(-MAX_COORD, -MAX_COORD, MAX_COORD, MAX_COORD);
    for (id, cell) in lib.iter() {
        if let Some(bb) = lib.bbox(id) {
            assert!(bound.contains_rect(&bb), "`{}` box {bb}", cell.name());
        }
        let _ = lib.flatten_shared(id);
        let _ = lib.flat_bristles_shared(id);
        let _ = extract(lib, id);
        let _ = check_flat(lib, id, &RuleSet::mead_conway());
        let _ = render_svg(lib, id);
        if let Ok(text) = write_cif(lib, id) {
            let again = parse_cif(&text).and_then(|f| cif_to_library(&f));
            assert!(again.is_ok(), "`{}` reloads: {again:?}", cell.name());
        }
    }
}

/// Runs `check` on one page, naming the page if anything panics.
fn on_page<T>(what: &str, text: &str, check: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(v) => v,
        Err(panic) => {
            eprintln!("{what} panicked on this page:\n{text}");
            resume_unwind(panic)
        }
    }
}

fn bound_error(e: &CellError) -> bool {
    matches!(
        e,
        CellError::OutOfBounds(_) | CellError::NotRectilinear(_) | CellError::NotSimple(_)
    )
}

#[test]
fn pages_load_cleanly_or_get_a_typed_error() {
    let mut rng = Rng::new(0xB0_0D5);
    // [accepted, refused by the syntax, refused by `add_cell`] per format.
    let (mut cif, mut cdl) = ([0; 3], [0; 3]);
    for case in 0..1000 {
        let page = random_page(&mut rng);
        let text = to_cif(&page, &mut rng);
        let what = format!("case {case} CIF");
        on_page(&what, &text, || match parse_cif(&text).and_then(|f| cif_to_library(&f)) {
            Ok(lib) => {
                exercise(&lib);
                cif[0] += 1;
            }
            Err(ParseCifError::Syntax { .. }) => cif[1] += 1,
            Err(ParseCifError::Cell(e)) if bound_error(&e) => cif[2] += 1,
            Err(e) => panic!("{what}: unexpected error {e:?}\n{text}"),
        });
        let text = to_cdl(&page);
        let what = format!("case {case} CDL");
        on_page(&what, &text, || match load_library(&text) {
            Ok(lib) => {
                exercise(&lib);
                cdl[0] += 1;
            }
            Err(CdlError::Parse { .. }) => cdl[1] += 1,
            Err(CdlError::Cell(e)) if bound_error(&e) => cdl[2] += 1,
            Err(e) => panic!("{what}: unexpected error {e:?}\n{text}"),
        });
    }
    // Each outcome is common enough that the test exercises it.
    assert!(cif.iter().chain(&cdl).all(|&n| n >= 20), "CIF {cif:?}, CDL {cdl:?}");
}

#[test]
fn huge_box_refused_in_both_formats() {
    // 2^61 λ wide, which once overflowed `Rect::area` downstream.
    let big = 1i64 << 61;
    let cif = format!("DS 1 125 1; 9 big; L NM; B {} {} 0 0; DF; C 1; E", 2 * big, 2 * big);
    assert!(matches!(
        parse_cif(&cif).and_then(|f| cif_to_library(&f)),
        Err(ParseCifError::Syntax { .. })
    ));
    let cdl = format!("library l\ncell big\n  box NM {} {} {big} {big}\nend\n", -big, -big);
    assert_eq!(
        load_library(&cdl).unwrap_err(),
        CdlError::Cell(CellError::OutOfBounds("big".into()))
    );
}

#[test]
fn self_touching_polygons_refused_in_both_formats() {
    let wound = [(4, 4), (-4, 4), (-4, -4), (4, -4)].repeat(5);
    let eight = vec![(0, 0), (2, 0), (2, 4), (4, 4), (4, 2), (0, 2)];
    for (name, loop_) in [("wound", wound), ("eight", eight)] {
        let page: Page = vec![vec![Item::Poly(loop_)]];
        let cif = to_cif(&page, &mut Rng::new(1));
        assert!(
            matches!(
                parse_cif(&cif).and_then(|f| cif_to_library(&f)),
                Err(ParseCifError::Cell(CellError::NotSimple(_)))
            ),
            "{name} in CIF:\n{cif}"
        );
        assert_eq!(
            load_library(&to_cdl(&page)).unwrap_err(),
            CdlError::Cell(CellError::NotSimple("s0".into())),
            "{name} in CDL"
        );
    }
}

/// A comb of `teeth` fingers 1 λ wide and 1 λ apart on a 1 λ base, each
/// running the full height of the bound: 4 × `teeth` vertices. With
/// `touch`, the middle gap reaches down to the base's bottom edge, so
/// the loop touches itself there.
fn long_finger_comb(teeth: i64, touch: bool) -> Vec<(i64, i64)> {
    let (lo, hi) = (-MAX_COORD, MAX_COORD);
    let mut v = vec![(0, lo)];
    for k in 0..teeth {
        v.extend([(2 * k, hi), (2 * k + 1, hi)]);
        if k + 1 < teeth {
            let floor = if touch && k == teeth / 2 { lo } else { lo + 1 };
            v.extend([(2 * k + 1, floor), (2 * k + 2, floor)]);
        }
    }
    v.push((2 * teeth - 1, lo));
    v
}

#[test]
fn long_finger_combs_load_in_bounded_time() {
    // 20,000 vertices and 10,000 edges 2^30 λ long. The simplicity check
    // must not grow with edge length, nor with the square of the vertex
    // count: comparing all pairs of edges takes about 2·10^8 steps here.
    for touch in [false, true] {
        let text = to_cdl(&vec![vec![Item::Poly(long_finger_comb(5000, touch))]]);
        let start = Instant::now();
        let loaded = load_library(&text);
        let took = start.elapsed();
        if touch {
            assert_eq!(loaded.unwrap_err(), CdlError::Cell(CellError::NotSimple("s0".into())));
        } else {
            assert!(loaded.is_ok(), "{:?}", loaded.err());
        }
        assert!(took < Duration::from_secs(2), "touch={touch}: loading took {took:?}");
    }
}

#[test]
fn nested_instances_past_the_bound_refused_in_cdl() {
    // Four levels, each offset within the bound; the third carries the
    // box past it.
    let mut text = String::from("library l\ncell s1\n  box NM -1 -1 1 1\nend\n");
    for n in 2..=5 {
        text += &format!("cell s{n}\n  inst s{} u R0 {} 0\nend\n", n - 1, MAX_COORD / 2);
    }
    assert_eq!(
        load_library(&text).unwrap_err(),
        CdlError::Cell(CellError::OutOfBounds("s3".into()))
    );
}

#[test]
fn element_parameters_compile_or_get_a_typed_error() {
    use bristle_blocks::core::{parse_page, Compiler};
    let values = [0, 1, -1, 16, 17, 1 << 60, i64::MIN, i64::MAX];
    for g in bristle_blocks::stdcells::all_generators() {
        for param in ["count", "words", "depth", "lane"] {
            for v in values {
                let page = format!(
                    "chip t\nwidth 4\nelement registers\nelement {} {param}={v}\n",
                    g.name()
                );
                // Any outcome but a panic: a chip, or a typed error.
                on_page(&format!("{} {param}={v}", g.name()), &page, || {
                    let spec = parse_page(&page).expect("the page parses");
                    if let Ok(chip) = Compiler::new().compile(&spec) {
                        chip.simulation().expect("a compiled chip simulates");
                        assert!(bristle_bench::natural_core_area(&chip) <= chip.core_area());
                    }
                });
            }
        }
    }
}

#[test]
fn field_width_past_u32_refused() {
    use bristle_blocks::core::{parse_page, CompileError, Compiler};
    use bristle_blocks::sim::MicrocodeError;
    // 8 + 4294967295 bits overflows `u32`: a typed error, neither a
    // panic nor a chip with a wrapped word.
    let page = "chip t\nwidth 4\nfield a 8\nfield b 4294967295\nelement registers\n";
    let result = on_page("field b 4294967295", page, || {
        Compiler::new().compile(&parse_page(page).expect("the page parses"))
    });
    assert!(matches!(
        result,
        Err(CompileError::Microcode(MicrocodeError::TooWide {
            requested: u32::MAX
        }))
    ));
}

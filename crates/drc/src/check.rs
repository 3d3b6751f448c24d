//! The checker itself.

use std::fmt;

use bristle_cell::{CellId, FlatLayers, Library, Shape, ShapeGeom};
use bristle_geom::{covered_by, Layer, Rect};

use crate::rules::{RuleKind, RuleSet};

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: RuleKind,
    /// Where (bounding box of the offending geometry).
    pub at: Rect,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.rule, self.at, self.message)
    }
}

/// The outcome of a DRC run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of candidate shape pairs examined by the spacing rules (the
    /// check's cost metric; `perfbench` reports it as `drc.checked_pairs`).
    pub checked_pairs: u64,
}

impl Report {
    /// True when no rule was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} pairs examined)", self.checked_pairs)
        } else {
            writeln!(f, "{} violations:", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Fills `near` with the rects on `layer` that touch `window`: all that
/// an enclosure test of `window` (or of any window inside it) can depend
/// on.
fn near(view: &FlatLayers, layer: Layer, window: Rect, out: &mut Vec<Rect>) {
    out.clear();
    view.rect_index(layer).for_each_touching(window, |_, r| out.push(r));
}

fn check_shape_widths(shapes: &[Shape], rules: &RuleSet, out: &mut Report) {
    for s in shapes {
        let Some(min) = rules.min_width(s.layer) else {
            continue;
        };
        let too_thin = match &s.geom {
            ShapeGeom::Box(r) => r.width().min(r.height()) < min,
            ShapeGeom::Wire(p) => p.width() < min,
            // No generator draws polygons (they come only from CIF or
            // CDL input); approximate with the bbox.
            ShapeGeom::Poly(p) => {
                let b = p.bbox();
                b.width().min(b.height()) < min
            }
        };
        if too_thin {
            out.violations.push(Violation {
                rule: RuleKind::MinWidth(s.layer),
                at: s.bbox(),
                message: format!("{s} narrower than {min}λ"),
            });
        }
    }
}

/// The region between two disjoint rects: on each axis the gap between
/// them, or their overlap where they overlap on that axis. Where they
/// only meet at one coordinate (corner to corner), the 1λ band either
/// side of it, so that the region always has area.
fn between(a: Rect, b: Rect) -> Rect {
    let span = |lo: i64, hi: i64| if lo == hi { (lo - 1, hi + 1) } else { (lo, hi) };
    let (x0, x1) = span(a.x0.max(b.x0), a.x1.min(b.x1));
    let (y0, y1) = span(a.y0.max(b.y0), a.y1.min(b.y1));
    Rect::new(x0, y0, x1, y1)
}

fn check_spacing(view: &FlatLayers, rules: &RuleSet, out: &mut Report) {
    let mut fill = Vec::new();
    let mut found = Vec::new();
    // Layers come in sorted order, and each layer's violations in pair
    // order, so reports are deterministic.
    for layer in Layer::ALL {
        let Some(space) = rules.min_spacing(layer) else {
            continue;
        };
        let index = view.rect_index(layer);
        for (i, &r) in view.rects(layer).iter().enumerate() {
            index.for_each_touching(r.inflate(space), |j, other| {
                if j <= i {
                    return;
                }
                out.checked_pairs += 1;
                let gap = r.spacing(&other);
                if gap == 0 || gap >= space {
                    return;
                }
                // Where the layer fills the gap, the pair is one solid
                // shape drawn in pieces, not two shapes too close.
                let region = between(r, other);
                near(view, layer, region, &mut fill);
                if !covered_by(region, &fill) {
                    found.push(((i, j), Violation {
                        rule: RuleKind::MinSpacing(layer),
                        at: r.union(&other),
                        message: format!("gap {gap}λ < {space}λ"),
                    }));
                }
            });
        }
        push_in_pair_order(&mut found, out);
    }
}

/// Moves `found` into `out` sorted by the pair of rect positions that
/// produced each violation: probes report in no set order.
fn push_in_pair_order(found: &mut Vec<((usize, usize), Violation)>, out: &mut Report) {
    found.sort_unstable_by_key(|&(pair, _)| pair);
    out.violations.extend(found.drain(..).map(|(_, v)| v));
}

fn check_transistors(view: &FlatLayers, rules: &RuleSet, out: &mut Report) {
    let (mut poly, mut diff, mut implant) = (Vec::new(), Vec::new(), Vec::new());
    for &(g, _) in view.gates() {
        let oh = rules.gate_overhang;
        let ext = rules.sd_extension;
        near(view, Layer::Poly, g.inflate(oh), &mut poly);
        near(view, Layer::Diffusion, g.inflate(ext), &mut diff);
        // Configuration A: poly runs horizontally (overhangs left/right),
        // diffusion runs vertically (extends below/above).
        let poly_ok_a = covered_by(Rect::new(g.x0 - oh, g.y0, g.x0, g.y1), &poly)
            && covered_by(Rect::new(g.x1, g.y0, g.x1 + oh, g.y1), &poly);
        let a_ok = poly_ok_a
            && covered_by(Rect::new(g.x0, g.y0 - ext, g.x1, g.y0), &diff)
            && covered_by(Rect::new(g.x0, g.y1, g.x1, g.y1 + ext), &diff);
        // Configuration B: rotated 90°.
        let poly_ok_b = covered_by(Rect::new(g.x0, g.y0 - oh, g.x1, g.y0), &poly)
            && covered_by(Rect::new(g.x0, g.y1, g.x1, g.y1 + oh), &poly);
        let b_ok = poly_ok_b
            && covered_by(Rect::new(g.x0 - ext, g.y0, g.x0, g.y1), &diff)
            && covered_by(Rect::new(g.x1, g.y0, g.x1 + ext, g.y1), &diff);
        if !(a_ok || b_ok) {
            // Attribute the failure: overhang if neither poly side pair
            // works, else source/drain extension.
            let rule = if poly_ok_a || poly_ok_b {
                RuleKind::SourceDrainExtension
            } else {
                RuleKind::GateOverhang
            };
            out.violations.push(Violation {
                rule,
                at: g,
                message: "malformed transistor crossing".into(),
            });
        }
        // Implant: all-or-nothing with margin.
        let m = rules.implant_margin;
        near(view, Layer::Implant, g.inflate(m), &mut implant);
        if implant.iter().any(|i| i.overlaps(&g)) {
            if !covered_by(g.inflate(m), &implant) {
                out.violations.push(Violation {
                    rule: RuleKind::ImplantCoverage,
                    at: g,
                    message: format!("implant does not surround gate by {m}λ"),
                });
            }
        } else if implant.iter().any(|i| i.spacing(&g) < m) {
            out.violations.push(Violation {
                rule: RuleKind::ImplantCoverage,
                at: g,
                message: format!("implant within {m}λ of an enhancement gate"),
            });
        }
    }
}

fn check_poly_diff_spacing(view: &FlatLayers, rules: &RuleSet, out: &mut Report) {
    let s = rules.space_poly_diff;
    let mut buried = Vec::new();
    let mut found = Vec::new();
    let diff = view.rect_index(Layer::Diffusion);
    for (pi, &p) in view.rects(Layer::Poly).iter().enumerate() {
        diff.for_each_touching(p.inflate(s), |di, d| {
            out.checked_pairs += 1;
            if p.overlaps(&d) {
                return; // transistor or buried junction: handled elsewhere
            }
            let gap = p.spacing(&d);
            if gap < s {
                // A butting junction is fine when a buried contact spans it.
                let junction = p.union(&d);
                near(view, Layer::Buried, junction, &mut buried);
                if buried.iter().any(|b| b.overlaps(&junction)) {
                    return;
                }
                found.push(((pi, di), Violation {
                    rule: RuleKind::PolyDiffSpacing,
                    at: junction,
                    message: format!("poly–diffusion gap {gap}λ < {s}λ"),
                }));
            }
        });
    }
    push_in_pair_order(&mut found, out);
}

fn check_contacts(view: &FlatLayers, rules: &RuleSet, out: &mut Report) {
    let e = rules.contact_enclosure;
    let mut nearby = Vec::new();
    let mut covers = |layer: Layer, window: Rect| {
        near(view, layer, window, &mut nearby);
        covered_by(window, &nearby)
    };
    for &c in view.rects(Layer::Contact) {
        if c.width() != rules.contact_size || c.height() != rules.contact_size {
            out.violations.push(Violation {
                rule: RuleKind::ContactSize,
                at: c,
                message: format!(
                    "contact {}x{}λ, must be {s}x{s}λ",
                    c.width(),
                    c.height(),
                    s = rules.contact_size
                ),
            });
        }
        let w = c.inflate(e);
        if !covers(Layer::Metal, w) {
            out.violations.push(Violation {
                rule: RuleKind::ContactMetalEnclosure,
                at: c,
                message: format!("metal does not enclose contact by {e}λ"),
            });
        }
        if !covers(Layer::Poly, w) && !covers(Layer::Diffusion, w) {
            out.violations.push(Violation {
                rule: RuleKind::ContactLandingEnclosure,
                at: c,
                message: format!("neither poly nor diffusion encloses contact by {e}λ"),
            });
        }
    }
    for &b in view.rects(Layer::Buried) {
        if !covers(Layer::Poly, b) || !covers(Layer::Diffusion, b) {
            out.violations.push(Violation {
                rule: RuleKind::BuriedEnclosure,
                at: b,
                message: "buried contact not covered by both poly and diffusion".into(),
            });
        }
    }
}

/// Checks the flattened artwork of `top` against `rules`.
///
/// The width rules run on every flat shape; the spacing, transistor,
/// contact and implant rules on the cell's shared layer view,
/// `Library::flat_layers_shared(top)`, so a rule looks only at the
/// shapes near the window it tests. The view, its per-layer indexes and
/// its gate regions are built once per cell and shared with extraction:
/// checking a cell that was just extracted builds nothing more.
/// Violations come out in a fixed order: widths, spacing by layer and
/// then by pair, then the device rules.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn check_flat(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    let view = lib.flat_layers_shared(top);
    let mut out = Report::default();
    check_shape_widths(view.shapes(), rules, &mut out);
    check_spacing(&view, rules, &mut out);
    check_transistors(&view, rules, &mut out);
    check_poly_diff_spacing(&view, rules, &mut out);
    check_contacts(&view, rules, &mut out);
    out
}

/// [`check_flat`] under its retired name. Only `perfbench` still calls
/// it; it goes when the benchmark moves to `check_flat`.
#[doc(hidden)]
#[must_use]
pub fn check_hierarchical(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    check_flat(lib, top, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{Cell, Instance};
    use bristle_geom::{Path, Point, Transform};

    fn lib_with(name: &str, shapes: Vec<Shape>) -> (Library, CellId) {
        let mut lib = Library::new("t");
        let mut c = Cell::new(name);
        for s in shapes {
            c.push_shape(s);
        }
        let id = lib.add_cell(c).unwrap();
        (lib, id)
    }

    fn rules() -> RuleSet {
        RuleSet::mead_conway()
    }

    /// A well-formed enhancement transistor: vertical diffusion 2λ wide,
    /// horizontal poly 2λ tall crossing it with 2λ overhang.
    fn good_transistor() -> Vec<Shape> {
        vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
            Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)),
        ]
    }

    #[test]
    fn clean_transistor_passes() {
        let (lib, id) = lib_with("t1", good_transistor());
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn thin_metal_flagged() {
        let (lib, id) = lib_with(
            "m",
            vec![Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 10))],
        );
        let r = check_flat(&lib, id, &rules());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, RuleKind::MinWidth(Layer::Metal));
    }

    #[test]
    fn metal_spacing_flagged() {
        let (lib, id) = lib_with(
            "m",
            vec![
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
                Shape::rect(Layer::Metal, Rect::new(6, 0, 10, 4)), // 2λ gap < 3λ
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::MinSpacing(Layer::Metal)));
    }

    #[test]
    fn spacing_skips_only_filled_gaps() {
        let metal = |x0, y0, x1, y1| Shape::rect(Layer::Metal, Rect::new(x0, y0, x1, y1));
        // An L-stub leg and a via pad that together form one solid bar:
        // the 2λ between the leg's first segment and the pad is metal.
        let leg = Path::new(vec![Point::new(4, 0), Point::new(2, 0), Point::new(2, 6)], 4)
            .unwrap();
        let (lib, id) = lib_with("bar", vec![Shape::wire(Layer::Metal, leg), metal(0, 4, 4, 8)]);
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
        // A U-shaped 2λ slot is a real gap.
        let u = vec![metal(0, 0, 4, 10), metal(6, 0, 10, 10), metal(0, -4, 10, 0)];
        let (lib, id) = lib_with("u", u.clone());
        let r = check_flat(&lib, id, &rules());
        assert_eq!(r.violations.len(), 1, "{r}");
        assert_eq!(r.violations[0].rule, RuleKind::MinSpacing(Layer::Metal));
        // So is the rest of a gap that is only partly bridged.
        let mut bridged = u;
        bridged.push(metal(4, 0, 6, 5));
        let (lib, id) = lib_with("u", bridged);
        let r = check_flat(&lib, id, &rules());
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == RuleKind::MinSpacing(Layer::Metal)),
            "{r}"
        );
        // Two risers meeting corner to corner: a gap unless a pad spans
        // the corner.
        let poly = |x0, y0, x1, y1| Shape::rect(Layer::Poly, Rect::new(x0, y0, x1, y1));
        let risers = vec![poly(3, -8, 5, 0), poly(0, 0, 2, 8)];
        let (lib, id) = lib_with("jog", risers.clone());
        let r = check_flat(&lib, id, &rules());
        assert_eq!(r.violations.len(), 1, "{r}");
        assert_eq!(r.violations[0].rule, RuleKind::MinSpacing(Layer::Poly));
        let mut padded = risers;
        padded.push(poly(-1, -2, 6, 2));
        let (lib, id) = lib_with("jog", padded);
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn spacing_violations_come_in_pair_order() {
        // A column of pads 2λ apart, every other one drawn bottom-up and
        // the rest top-down: every adjacent pair is too close. A pad's
        // lower neighbour has the larger position but lies in a lower
        // bin, so the probe meets the pairs out of order.
        let mut shapes = Vec::new();
        let ys: Vec<i64> = (0..6).map(|k| 12 * k).chain((0..6).rev().map(|k| 12 * k + 6)).collect();
        for &y in &ys {
            shapes.push(Shape::rect(Layer::Metal, Rect::new(0, y, 4, y + 4)));
        }
        let (lib, id) = lib_with("rails", shapes);
        let r = check_flat(&lib, id, &rules());
        let mut want = Vec::new();
        for (i, &a) in ys.iter().enumerate() {
            for &b in &ys[i + 1..] {
                if (a - b).abs() == 6 {
                    want.push(Rect::new(0, a.min(b), 4, a.max(b) + 4));
                }
            }
        }
        let got: Vec<Rect> = r.violations.iter().map(|v| v.at).collect();
        assert_eq!(got, want, "{r}");
    }

    #[test]
    fn touching_rects_are_fine() {
        let (lib, id) = lib_with(
            "m",
            vec![
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
                Shape::rect(Layer::Metal, Rect::new(4, 0, 8, 4)),
            ],
        );
        assert!(check_flat(&lib, id, &rules()).is_clean());
    }

    #[test]
    fn short_gate_overhang_flagged() {
        let (lib, id) = lib_with(
            "t",
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
                Shape::rect(Layer::Poly, Rect::new(-1, 0, 3, 2)), // only 1λ overhang
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r.violations.iter().any(|v| v.rule == RuleKind::GateOverhang));
    }

    #[test]
    fn short_sd_extension_flagged() {
        let (lib, id) = lib_with(
            "t",
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -1, 2, 3)), // 1λ S/D
                Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)),
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::SourceDrainExtension));
    }

    #[test]
    fn depletion_needs_full_implant() {
        let mut shapes = good_transistor();
        // Implant overlapping only half the gate.
        shapes.push(Shape::rect(Layer::Implant, Rect::new(-1, -1, 1, 3)));
        let (lib, id) = lib_with("t", shapes);
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::ImplantCoverage));
        // Full surround is clean.
        let mut shapes = good_transistor();
        shapes.push(Shape::rect(Layer::Implant, Rect::new(-1, -1, 3, 3)));
        let (lib2, id2) = lib_with("t", shapes);
        assert!(check_flat(&lib2, id2, &rules()).is_clean());
    }

    #[test]
    fn contact_rules() {
        // Good: 2×2 contact, metal and diff enclose by 1λ.
        let good = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 3, 3)),
        ];
        let (lib, id) = lib_with("c", good);
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
        // Bad: metal too small.
        let bad = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Metal, Rect::new(1, 1, 4, 4)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 3, 3)),
        ];
        let (lib2, id2) = lib_with("c", bad);
        let r2 = check_flat(&lib2, id2, &rules());
        assert!(r2
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::ContactMetalEnclosure));
        // Bad: a 3×3 cut.
        let big = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 5, 5)),
            Shape::rect(Layer::Metal, Rect::new(0, 0, 5, 5)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 4, 4)),
        ];
        let (lib3, id3) = lib_with("c", big);
        let r3 = check_flat(&lib3, id3, &rules());
        assert_eq!(r3.violations.len(), 1, "{r3}");
        assert_eq!(r3.violations[0].rule, RuleKind::ContactSize);
        assert_eq!(r3.violations[0].message, "contact 3x3λ, must be 2x2λ");
    }

    #[test]
    fn buried_contact_allows_poly_diff_contact() {
        // Poly butting diffusion without buried: violation.
        let bad = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 2)),
            Shape::rect(Layer::Poly, Rect::new(4, 0, 8, 2)),
        ];
        let (lib, id) = lib_with("b", bad);
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::PolyDiffSpacing));
        // Overlapping with buried covering the overlap: clean.
        let good = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 5, 2)),
            Shape::rect(Layer::Poly, Rect::new(3, 0, 8, 2)),
            Shape::rect(Layer::Buried, Rect::new(3, 0, 5, 2)),
        ];
        let (lib2, id2) = lib_with("b", good);
        let r2 = check_flat(&lib2, id2, &rules());
        assert!(r2.is_clean(), "{r2}");
    }

    #[test]
    fn glue_spacing_between_instances_flagged() {
        // Two clean leaves placed too close: the fault is in the glue,
        // and only the assembled artwork shows it.
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)));
        let lid = lib.add_cell(leaf).unwrap();
        assert!(check_flat(&lib, lid, &rules()).is_clean());
        let mut top = Cell::new("top");
        top.push_instance(Instance::new(lid, "u0", Transform::IDENTITY));
        // 2λ gap < 3λ
        top.push_instance(Instance::new(lid, "u1", Transform::translate(Point::new(6, 0))));
        let tid = lib.add_cell(top).unwrap();
        let r = check_flat(&lib, tid, &rules());
        assert_eq!(r.violations.len(), 1, "{r}");
        assert_eq!(r.violations[0].rule, RuleKind::MinSpacing(Layer::Metal));
        assert_eq!(r.violations[0].at, Rect::new(0, 0, 10, 4));
    }

    #[test]
    fn report_display() {
        let (lib, id) = lib_with(
            "m",
            vec![Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 10))],
        );
        let r = check_flat(&lib, id, &rules());
        let text = r.to_string();
        assert!(text.contains("min-width(NM)"), "{text}");
    }
}

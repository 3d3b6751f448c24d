//! The checker itself.

use std::collections::HashMap;
use std::fmt;
use std::iter::repeat_n;

use bristle_cell::{CellId, Library, Shape, ShapeGeom};
use bristle_geom::{covered_by, gate_regions, par_map, Layer, QueryScratch, Rect, RectIndex};

use crate::rules::{RuleKind, RuleSet};

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: RuleKind,
    /// Where (bounding box of the offending geometry).
    pub at: Rect,
    /// Cell in which the violation was detected.
    pub cell: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {}: {}", self.cell, self.rule, self.at, self.message)
    }
}

/// The outcome of a DRC run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of candidate shape pairs examined (the hierarchical-vs-flat
    /// cost metric; `perfbench` reports it as `drc.checked_pairs`).
    pub checked_pairs: u64,
}

impl Report {
    /// True when no rule was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.checked_pairs += other.checked_pairs;
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

/// Tagged rectangle soup for one layer.
struct LayerSoup {
    rects: Vec<(Rect, u32)>,
    index: RectIndex,
}

struct Soup {
    layers: HashMap<Layer, LayerSoup>,
}

impl Soup {
    fn build<'a>(shapes: impl Iterator<Item = (&'a Shape, u32)>) -> Soup {
        let mut per_layer: HashMap<Layer, Vec<(Rect, u32)>> = HashMap::new();
        for (shape, group) in shapes {
            let entry = per_layer.entry(shape.layer).or_default();
            for r in shape.to_rects() {
                if !r.is_degenerate() {
                    entry.push((r, group));
                }
            }
        }
        let layers = per_layer
            .into_iter()
            .map(|(layer, rects)| {
                let index =
                    RectIndex::bulk_build(rects.iter().enumerate().map(|(i, &(r, _))| (i, r)));
                (layer, LayerSoup { rects, index })
            })
            .collect();
        Soup { layers }
    }

    fn layer(&self, layer: Layer) -> Option<&LayerSoup> {
        self.layers.get(&layer)
    }

    /// The rects on `layer` that touch `window`: all that an enclosure
    /// test of `window` (or of any window inside it) can depend on.
    fn near(&self, layer: Layer, window: Rect, scratch: &mut QueryScratch) -> Vec<Rect> {
        let mut near = Vec::new();
        if let Some(ls) = self.layer(layer) {
            ls.index.query_with(window, scratch, |_, r| near.push(r));
        }
        near
    }
}

/// Group id used for a cell's own (non-instanced) shapes.
const OWN_GROUP: u32 = u32::MAX;

fn check_shape_widths<'a>(
    cell: &str,
    shapes: impl Iterator<Item = &'a Shape>,
    rules: &RuleSet,
    out: &mut Report,
) {
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
                cell: cell.to_owned(),
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

fn check_spacing(cell: &str, soup: &Soup, rules: &RuleSet, out: &mut Report) {
    let mut scratch = QueryScratch::new();
    let mut fill_scratch = QueryScratch::new();
    // Iterate layers in a fixed order so reports are deterministic.
    let mut layers: Vec<(&Layer, &LayerSoup)> = soup.layers.iter().collect();
    layers.sort_by_key(|&(l, _)| *l);
    for (&layer, ls) in layers {
        let Some(space) = rules.min_spacing(layer) else {
            continue;
        };
        for (i, &(r, group)) in ls.rects.iter().enumerate() {
            ls.index.query_with(r.inflate(space), &mut scratch, |j, other| {
                // A pair inside one instance was checked in that
                // instance's own cell.
                if j <= i || (group == ls.rects[j].1 && group != OWN_GROUP) {
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
                if !covered_by(region, &soup.near(layer, region, &mut fill_scratch)) {
                    out.violations.push(Violation {
                        rule: RuleKind::MinSpacing(layer),
                        at: r.union(&other),
                        cell: cell.to_owned(),
                        message: format!("gap {gap}λ < {space}λ"),
                    });
                }
            });
        }
    }
}

fn check_transistors(cell: &str, soup: &Soup, rules: &RuleSet, out: &mut Report) {
    let (Some(poly_soup), Some(diff_soup)) =
        (soup.layer(Layer::Poly), soup.layer(Layer::Diffusion))
    else {
        return;
    };
    let no_buried = RectIndex::bulk_build([]);
    let buried = soup.layer(Layer::Buried).map_or(&no_buried, |b| &b.index);
    let gates = gate_regions(poly_soup.rects.iter().map(|&(r, _)| r), &diff_soup.index, buried);
    let mut scratch = QueryScratch::new();
    for (g, _) in gates {
        let oh = rules.gate_overhang;
        let ext = rules.sd_extension;
        let poly = soup.near(Layer::Poly, g.inflate(oh), &mut scratch);
        let diff = soup.near(Layer::Diffusion, g.inflate(ext), &mut scratch);
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
                cell: cell.to_owned(),
                message: "malformed transistor crossing".into(),
            });
        }
        // Implant: all-or-nothing with margin.
        let m = rules.implant_margin;
        let implant = soup.near(Layer::Implant, g.inflate(m), &mut scratch);
        if implant.iter().any(|i| i.overlaps(&g)) {
            if !covered_by(g.inflate(m), &implant) {
                out.violations.push(Violation {
                    rule: RuleKind::ImplantCoverage,
                    at: g,
                    cell: cell.to_owned(),
                    message: format!("implant does not surround gate by {m}λ"),
                });
            }
        } else if implant.iter().any(|i| i.spacing(&g) < m) {
            out.violations.push(Violation {
                rule: RuleKind::ImplantCoverage,
                at: g,
                cell: cell.to_owned(),
                message: format!("implant within {m}λ of an enhancement gate"),
            });
        }
    }
}

fn check_poly_diff_spacing(cell: &str, soup: &Soup, rules: &RuleSet, out: &mut Report) {
    let (Some(poly), Some(diff)) = (soup.layer(Layer::Poly), soup.layer(Layer::Diffusion))
    else {
        return;
    };
    let s = rules.space_poly_diff;
    let mut scratch = QueryScratch::new();
    let mut buried_scratch = QueryScratch::new();
    for &(p, _) in &poly.rects {
        diff.index.query_with(p.inflate(s), &mut scratch, |_, d| {
            out.checked_pairs += 1;
            if p.overlaps(&d) {
                return; // transistor or buried junction: handled elsewhere
            }
            let gap = p.spacing(&d);
            if gap < s {
                // A butting junction is fine when a buried contact spans it.
                let junction = p.union(&d);
                let buried = soup.near(Layer::Buried, junction, &mut buried_scratch);
                if buried.iter().any(|b| b.overlaps(&junction)) {
                    return;
                }
                out.violations.push(Violation {
                    rule: RuleKind::PolyDiffSpacing,
                    at: junction,
                    cell: cell.to_owned(),
                    message: format!("poly–diffusion gap {gap}λ < {s}λ"),
                });
            }
        });
    }
}

fn check_contacts(cell: &str, soup: &Soup, rules: &RuleSet, out: &mut Report) {
    let e = rules.contact_enclosure;
    let mut scratch = QueryScratch::new();
    let mut covers =
        |layer: Layer, window: Rect| covered_by(window, &soup.near(layer, window, &mut scratch));
    for &(c, _) in soup.layer(Layer::Contact).map_or(&[][..], |l| &l.rects) {
        if c.width() != rules.contact_size || c.height() != rules.contact_size {
            out.violations.push(Violation {
                rule: RuleKind::ContactSize,
                at: c,
                cell: cell.to_owned(),
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
                cell: cell.to_owned(),
                message: format!("metal does not enclose contact by {e}λ"),
            });
        }
        if !covers(Layer::Poly, w) && !covers(Layer::Diffusion, w) {
            out.violations.push(Violation {
                rule: RuleKind::ContactLandingEnclosure,
                at: c,
                cell: cell.to_owned(),
                message: format!("neither poly nor diffusion encloses contact by {e}λ"),
            });
        }
    }
    for &(b, _) in soup.layer(Layer::Buried).map_or(&[][..], |l| &l.rects) {
        if !covers(Layer::Poly, b) || !covers(Layer::Diffusion, b) {
            out.violations.push(Violation {
                rule: RuleKind::BuriedEnclosure,
                at: b,
                cell: cell.to_owned(),
                message: "buried contact not covered by both poly and diffusion".into(),
            });
        }
    }
}

/// The one check every cell gets (see [`check_hierarchical`]): `view`
/// tags each shape with its instance index, or [`OWN_GROUP`] when the
/// shape is the cell's own.
fn check_view(cell: &str, view: &[(&Shape, u32)], rules: &RuleSet) -> Report {
    let mut out = Report::default();
    let own = || {
        view.iter()
            .filter(|&&(_, g)| g == OWN_GROUP)
            .map(|&(s, _)| s)
    };
    check_shape_widths(cell, own(), rules, &mut out);
    let soup = Soup::build(view.iter().copied());
    check_spacing(cell, &soup, rules, &mut out);
    // A pure-assembly cell draws no devices of its own, and its
    // children's devices were checked in their own cells.
    let has_own_device_shapes = own().any(|s| {
        matches!(
            s.layer,
            Layer::Poly | Layer::Diffusion | Layer::Contact | Layer::Buried | Layer::Implant
        )
    });
    if has_own_device_shapes {
        check_transistors(cell, &soup, rules, &mut out);
        check_poly_diff_spacing(cell, &soup, rules, &mut out);
        check_contacts(cell, &soup, rules, &mut out);
    }
    out
}

/// Checks a fully flattened cell hierarchy against `rules`.
///
/// Every rule runs on the complete artwork — the brute-force mode the
/// paper contrasts with per-cell checking. The flattened view comes from
/// the library's memoized cache, so repeated checks re-use the geometry.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn check_flat(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    let flat = lib.flatten_shared(top);
    let view: Vec<(&Shape, u32)> = flat.iter().map(|s| (s, OWN_GROUP)).collect();
    check_view(lib.cell(top).name(), &view, rules)
}

/// Hierarchical DRC in the Bristle Blocks style.
///
/// Each distinct cell is checked **once**, on one view: its own shapes
/// plus each instance's flattened subtree, tagged with the instance.
/// Widths run on the cell's own shapes, spacing on every pair not inside
/// one instance (that instance's own cell checks it), and the transistor,
/// contact and implant rules on the whole view when the cell's own
/// shapes touch a device layer. [`check_flat`] is the same check with
/// every shape the top cell's own.
///
/// Each parent's view repeats the pairs between its children, so this
/// examines more pairs than [`check_flat`] ([`Report::checked_pairs`]);
/// a test pins both to the same (rule, at) set on the reference chips.
///
/// Limitations: devices must be contained within a single cell (the
/// generators in `bristle-stdcells` guarantee this); cross-cell
/// transistors would be missed. A gap in a cell that only a parent's
/// shapes fill is still reported in that cell.
///
/// The per-cell loop runs in parallel; the per-cell reports are merged
/// in dependency order, sorted and de-duplicated, so the violation list
/// is reproducible run to run.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn check_hierarchical(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    let mut order: Vec<CellId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    collect(lib, top, &mut seen, &mut order);

    // Warm the flatten cache bottom-up (order is post-order) so the
    // parallel workers below mostly read it.
    for &id in &order {
        let _ = lib.flatten_shared(id);
    }

    let per_cell = par_map(&order, |_, &id| check_cell(lib, id, rules));
    let mut report = Report::default();
    for r in per_cell {
        report.merge(r);
    }
    // De-duplicate: device rules re-detect the same gate in parents that
    // flatten children; a cell's violations may repeat across contexts.
    report.violations.sort_by(|a, b| {
        (a.rule, a.at, &a.cell).cmp(&(b.rule, b.at, &b.cell))
    });
    report
        .violations
        .dedup_by(|a, b| a.rule == b.rule && a.at == b.at && a.cell == b.cell);
    report
}

/// One cell's worth of hierarchical DRC. Its flattened subtree is the
/// cell's own shapes followed by each instance's, in instance order, so
/// tagging it needs only the subtree sizes.
fn check_cell(lib: &Library, id: CellId, rules: &RuleSet) -> Report {
    let cell = lib.cell(id);
    let flat = lib.flatten_shared(id);
    let groups = repeat_n(OWN_GROUP, cell.shapes().len()).chain(
        cell.instances()
            .iter()
            .enumerate()
            .flat_map(|(gi, inst)| repeat_n(gi as u32, lib.flatten_shared(inst.cell).len())),
    );
    let view: Vec<(&Shape, u32)> = flat.iter().zip(groups).collect();
    debug_assert_eq!(view.len(), flat.len());
    check_view(cell.name(), &view, rules)
}

fn collect(
    lib: &Library,
    id: CellId,
    seen: &mut std::collections::HashSet<CellId>,
    order: &mut Vec<CellId>,
) {
    if !seen.insert(id) {
        return;
    }
    for inst in lib.cell(id).instances() {
        collect(lib, inst.cell, seen, order);
    }
    order.push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::Cell;
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
    fn hierarchical_matches_flat_on_abutting_instances() {
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        for s in good_transistor() {
            leaf.push_shape(s);
        }
        // Metal strip as the abutment feature.
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(-2, -4, 4, -1)));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(-2, 10, 4, 13)));
        let tid = lib.add_cell(top).unwrap();
        // A row of instances with proper clearance. The hierarchical win
        // appears once the leaf is instanced repeatedly: its interior is
        // checked once instead of once per instance.
        for i in 0..12 {
            lib.add_instance(
                tid,
                lid,
                format!("u{i}"),
                Transform::translate(Point::new(12 * i, 0)),
            )
            .unwrap();
        }
        let flat = check_flat(&lib, tid, &rules());
        let hier = check_hierarchical(&lib, tid, &rules());
        assert!(flat.is_clean(), "{flat}");
        assert!(hier.is_clean(), "{hier}");
        // Hierarchical examines fewer pairs.
        assert!(
            hier.checked_pairs <= flat.checked_pairs,
            "hier {} vs flat {}",
            hier.checked_pairs,
            flat.checked_pairs
        );
    }

    #[test]
    fn hierarchical_catches_glue_errors() {
        // Two clean leaves placed too close: only the parent-level check
        // can see it.
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)));
        let lid = lib.add_cell(leaf).unwrap();
        let top = Cell::new("top");
        let tid = lib.add_cell(top).unwrap();
        lib.add_instance(tid, lid, "u0", Transform::IDENTITY).unwrap();
        lib.add_instance(tid, lid, "u1", Transform::translate(Point::new(6, 0)))
            .unwrap(); // 2λ gap < 3λ
        let hier = check_hierarchical(&lib, tid, &rules());
        assert!(hier
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::MinSpacing(Layer::Metal)));
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

//! The extractor and its output model.

use std::fmt;

use bristle_cell::{CellId, Library};
use bristle_geom::{covered_by, gate_regions, Layer, QueryScratch, Rect, RectIndex};

use crate::union_find::UnionFind;

/// Identifier of an electrical net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Enhancement (switching) or depletion (load) device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransistorKind {
    /// Enhancement-mode: off at Vgs = 0; the logic switch.
    Enhancement,
    /// Depletion-mode (implanted): on at Vgs = 0; the pull-up load.
    Depletion,
}

impl fmt::Display for TransistorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransistorKind::Enhancement => f.write_str("enh"),
            TransistorKind::Depletion => f.write_str("dep"),
        }
    }
}

/// One extracted transistor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transistor {
    /// Device kind.
    pub kind: TransistorKind,
    /// Gate net (poly).
    pub gate: NetId,
    /// One channel terminal (diffusion). nMOS devices are symmetric; the
    /// names are conventional.
    pub source: NetId,
    /// The other channel terminal.
    pub drain: NetId,
    /// The gate region in top-cell coordinates.
    pub region: Rect,
    /// Channel width in λ.
    pub width: i64,
    /// Channel length in λ.
    pub length: i64,
}

/// An extracted netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    /// Net names, indexed by [`NetId`]. Unnamed nets get `n<k>`.
    ///
    /// Names come from shape labels and are **not** unique — every bit
    /// slice of a bus labels its track `BUSA`. Code that needs a specific
    /// net must resolve it through [`Netlist::terminals`].
    pub net_names: Vec<String>,
    /// Extracted devices.
    pub transistors: Vec<Transistor>,
    /// Bristle terminals: `(qualified bristle name, net)`.
    ///
    /// **Stability guarantee:** a terminal's name is the bristle's name
    /// prefixed with its slash-separated instance path, exactly as
    /// `Library::flat_bristles_shared` reports it, in flatten (depth-first
    /// instance) order. For compiler-built cores that means every
    /// terminal reads `{element}_c{column}_b{bit}/{bristle}` and keeps
    /// its name across re-extractions and library clones — which is what
    /// lets the differential test bench address signals by name.
    /// Terminal *order* is deterministic for a given library.
    pub terminals: Vec<(String, NetId)>,
}

impl Netlist {
    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Finds a net by its name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist: {} nets, {} transistors",
            self.net_count(),
            self.transistors.len()
        )?;
        for t in &self.transistors {
            writeln!(
                f,
                "  {} g={} s={} d={} W/L={}/{} at {}",
                t.kind,
                self.net_names[t.gate.0 as usize],
                self.net_names[t.source.0 as usize],
                self.net_names[t.drain.0 as usize],
                t.width,
                t.length,
                t.region
            )?;
        }
        Ok(())
    }
}

/// The conductor layers, in piece order: poly, then diffusion, then metal.
const CONDUCTORS: [Layer; 3] = [Layer::Poly, Layer::Diffusion, Layer::Metal];

/// The position of `layer` in [`CONDUCTORS`], if it is a conductor.
fn conductor(layer: Layer) -> Option<usize> {
    CONDUCTORS.iter().position(|&l| l == layer)
}

/// A conductor rectangle with provenance (the reference extractor's form).
#[derive(Debug, Clone)]
struct Piece {
    layer: Layer,
    rect: Rect,
    label: Option<String>,
}

/// Extracts the transistor netlist of a flattened cell hierarchy.
///
/// Net names come from shape labels (`Shape::with_label`) and from
/// bristles; unlabeled nets are named `n<k>`.
///
/// Flatten-once pipeline: the hierarchy is flattened in one walk
/// (`Library::flatten_shared`, memoized for `top`, so a DRC or SVG of
/// the same cell reuses it). Conductor pieces are one rect list per
/// layer with a parallel list of labels borrowed from the flat shapes;
/// a net's name is allocated once, when the netlist is built. Gate
/// regions come from [`bristle_geom::gate_regions`], the routine DRC
/// checks gates with, and diffusion is split at its nearby gates in
/// reused buffers. Every conductor layer is indexed once with
/// [`RectIndex::bulk_build`]: same-layer touching is one
/// [`RectIndex::for_each_touching_pair`] join per layer, and contact
/// and buried joins, terminal hits and each gate's source, drain and
/// channel direction are index queries. The resulting netlist is
/// byte-identical to the naive reference ([`extract_reference`]).
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn extract(lib: &Library, top: CellId) -> Netlist {
    let flat = lib.flatten_shared(top);
    let bristles = lib.flat_bristles_shared(top);

    // Gather conductor rects per layer, each with its shape's label;
    // cuts and implants are kept whole.
    let mut rects: [Vec<Rect>; 3] = Default::default();
    let mut labels: [Vec<Option<&str>>; 3] = Default::default();
    let mut contacts: Vec<Rect> = Vec::new();
    let mut buried: Vec<Rect> = Vec::new();
    let mut implants: Vec<Rect> = Vec::new();
    for shape in flat.iter() {
        let (label, l) = (shape.label(), conductor(shape.layer));
        shape.for_each_rect(|r| {
            if r.is_degenerate() {
                return;
            }
            match (l, shape.layer) {
                (Some(l), _) => {
                    rects[l].push(r);
                    labels[l].push(label);
                }
                (None, Layer::Contact) => contacts.push(r),
                (None, Layer::Buried) => buried.push(r),
                (None, Layer::Implant) => implants.push(r),
                (None, _) => {}
            }
        });
    }

    // Gate regions: poly ∩ diffusion, minus buried-contact cover.
    let [poly, diff, _] = &rects;
    let gates = gate_regions(
        poly.iter().copied(),
        &RectIndex::bulk_build(diff.iter().copied().enumerate()),
        &RectIndex::bulk_build(buried.iter().copied().enumerate()),
    );

    // Split diffusion at the gates. Only cuts near a diffusion rect can
    // split it, so query the gate index instead of scanning every gate;
    // the candidate list keeps the global gate order, which the split
    // depends on for its fragment geometry.
    let gate_index =
        RectIndex::bulk_build(gates.iter().enumerate().map(|(i, &(g, _))| (i, g)));
    let mut scratch = QueryScratch::new();
    let (mut channels, mut channel_labels) = (Vec::new(), Vec::new());
    let (mut near_gates, mut split, mut spare) = (Vec::new(), Vec::new(), Vec::new());
    for (&d, &label) in diff.iter().zip(&labels[1]) {
        near_gates.clear();
        gate_index.query_with(d, &mut scratch, |_, g| near_gates.push(g));
        d.subtract_into(&near_gates, &mut split, &mut spare);
        for &r in split.iter().filter(|r| !r.is_degenerate()) {
            channels.push(r);
            channel_labels.push(label);
        }
    }
    rects[1] = channels;
    labels[1] = channel_labels;

    // Piece `base[l] + k` is rect `k` of conductor `l`: poly, then
    // diffusion, then metal. Index every conductor layer once under
    // those ids; the indexes back all remaining connectivity questions.
    let base = [0, rects[0].len(), rects[0].len() + rects[1].len()];
    let piece_count = base[2] + rects[2].len();
    let by_layer: [RectIndex; 3] = std::array::from_fn(|l| {
        RectIndex::bulk_build(rects[l].iter().enumerate().map(|(k, &r)| (base[l] + k, r)))
    });
    let [poly_index, diff_index, _] = &by_layer;

    let mut uf = UnionFind::new(piece_count);

    // Same-layer touching rects connect: one pair join per layer.
    for index in &by_layer {
        index.for_each_touching_pair(|i, j| uf.union(i, j));
    }

    // Contacts join everything they overlap (metal↔poly/diff; a butting
    // contact may join all three). Each cut queries the layer indexes
    // instead of scanning every piece.
    let mut joined: Vec<usize> = Vec::new();
    for c in &contacts {
        joined.clear();
        for idx in &by_layer {
            idx.query_with(*c, &mut scratch, |i, r| {
                if r.overlaps(c) {
                    joined.push(i);
                }
            });
        }
        for w in joined.windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Buried contacts join poly and diffusion.
    for b in &buried {
        joined.clear();
        for idx in [poly_index, diff_index] {
            idx.query_with(*b, &mut scratch, |i, r| {
                if r.overlaps(b) {
                    joined.push(i);
                }
            });
        }
        for w in joined.windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Number the union-find roots in piece order: `net[i]` is piece
    // `i`'s net, and `root_to_net[root]` is `u32::MAX` until the root's
    // first piece is reached. A net is named by its first labeled piece.
    let mut root_to_net: Vec<u32> = vec![u32::MAX; piece_count];
    let mut net: Vec<NetId> = Vec::with_capacity(piece_count);
    let mut names: Vec<Option<&str>> = Vec::new();
    for (i, &label) in labels.iter().flatten().enumerate() {
        let id = &mut root_to_net[uf.find(i)];
        if *id == u32::MAX {
            *id = names.len() as u32;
            names.push(None);
        }
        let name = &mut names[*id as usize];
        if name.is_none() {
            *name = label;
        }
        net.push(NetId(*id));
    }

    // Bristle terminals: name the net under each bristle position. The
    // layer index yields candidates in piece order, so the first hit is
    // the earliest piece containing the bristle, as in the reference.
    let mut terminals: Vec<(String, NetId)> = Vec::new();
    for b in bristles.iter() {
        let probe = Rect::new(b.pos.x, b.pos.y, b.pos.x, b.pos.y);
        let hit = conductor(b.layer).and_then(|l| {
            by_layer[l].first_match(probe, &mut scratch, |_, r| r.contains(b.pos))
        });
        if let Some((i, _)) = hit {
            names[net[i].0 as usize].get_or_insert(b.name.as_str());
            terminals.push((b.name.clone(), net[i]));
        }
    }

    // Transistors: for each gate, the gate net is its poly piece's net;
    // source/drain are diffusion pieces touching the gate region, found
    // with the channel direction in one query.
    let implant_index = RectIndex::bulk_build(implants.iter().copied().enumerate());
    let mut transistors = Vec::new();
    let mut sd: Vec<NetId> = Vec::new();
    for &(g, poly_piece) in &gates {
        sd.clear();
        // Channel direction: diffusion continues past the gate on two
        // opposite sides; current flows that way. If diffusion extends
        // vertically, L = gate height and W = gate width.
        let mut vertical = false;
        diff_index.query_with(g.inflate(1), &mut scratch, |j, r| {
            if r.touches(&g) {
                if !sd.contains(&net[j]) {
                    sd.push(net[j]);
                }
                vertical |= r.x0 < g.x1 && g.x0 < r.x1 && (r.y1 == g.y0 || r.y0 == g.y1);
            }
        });
        sd.sort_unstable();
        let (source, drain) = match sd.as_slice() {
            [] => continue, // floating gate region: no usable device
            [only] => (*only, *only),
            [a, b, ..] => (*a, *b),
        };
        let mut depletion = false;
        implant_index.query_with(g, &mut scratch, |_, imp| {
            depletion |= imp.overlaps(&g);
        });
        let kind = if depletion {
            TransistorKind::Depletion
        } else {
            TransistorKind::Enhancement
        };
        let (width, length) = if vertical {
            (g.width(), g.height())
        } else {
            (g.height(), g.width())
        };
        transistors.push(Transistor {
            kind,
            gate: net[poly_piece],
            source,
            drain,
            region: g,
            width,
            length,
        });
    }
    transistors.sort_by_key(|t| t.region);

    let net_names = names
        .into_iter()
        .enumerate()
        .map(|(i, n)| n.map_or_else(|| format!("n{i}"), str::to_owned))
        .collect();

    Netlist {
        net_names,
        transistors,
        terminals,
    }
}

/// The pre-index reference extractor: linear scans everywhere.
///
/// Kept as the oracle for the regression tests that pin the indexed
/// [`extract`] to byte-identical output; even nets are numbered by a
/// linear scan of the roots seen so far. Quadratic in the piece count —
/// never use it outside tests and the benchmark.
#[doc(hidden)]
#[must_use]
pub fn extract_reference(lib: &Library, top: CellId) -> Netlist {
    let flat = lib.flatten_shared(top);

    let mut poly: Vec<Piece> = Vec::new();
    let mut diff: Vec<Piece> = Vec::new();
    let mut metal: Vec<Piece> = Vec::new();
    let mut contacts: Vec<Rect> = Vec::new();
    let mut buried: Vec<Rect> = Vec::new();
    let mut implants: Vec<Rect> = Vec::new();
    for shape in flat.iter() {
        let label = shape.label().map(str::to_owned);
        for r in shape.to_rects() {
            if r.is_degenerate() {
                continue;
            }
            let piece = Piece {
                layer: shape.layer,
                rect: r,
                label: label.clone(),
            };
            match shape.layer {
                Layer::Poly => poly.push(piece),
                Layer::Diffusion => diff.push(piece),
                Layer::Metal => metal.push(piece),
                Layer::Contact => contacts.push(r),
                Layer::Buried => buried.push(r),
                Layer::Implant => implants.push(r),
                Layer::Overglass => {}
            }
        }
    }

    // Gate regions by brute-force poly×diffusion intersection.
    let mut gates: Vec<(Rect, usize)> = Vec::new();
    for d in &diff {
        for (pi, p) in poly.iter().enumerate() {
            if !p.rect.touches(&d.rect) {
                continue;
            }
            if let Some(g) = p.rect.intersection(&d.rect) {
                if !covered_by(g, &buried) {
                    gates.push((g, pi));
                }
            }
        }
    }
    gates.sort_by_key(|&(g, _)| g);
    gates.dedup_by_key(|&mut (g, _)| g);

    let gate_rects: Vec<Rect> = gates.iter().map(|&(g, _)| g).collect();
    let mut channel_pieces: Vec<Piece> = Vec::new();
    for d in diff {
        for r in d.rect.subtract(&gate_rects) {
            if !r.is_degenerate() {
                channel_pieces.push(Piece {
                    layer: Layer::Diffusion,
                    rect: r,
                    label: d.label.clone(),
                });
            }
        }
    }
    let diff = channel_pieces;

    let mut pieces: Vec<Piece> = Vec::new();
    pieces.extend(poly);
    let poly_range = 0..pieces.len();
    pieces.extend(diff);
    let diff_range = poly_range.end..pieces.len();
    pieces.extend(metal);
    let metal_range = diff_range.end..pieces.len();

    let mut uf = UnionFind::new(pieces.len());

    // Same-layer touching rects connect (full pairwise scan).
    for i in 0..pieces.len() {
        for j in i + 1..pieces.len() {
            if pieces[i].layer == pieces[j].layer && pieces[i].rect.touches(&pieces[j].rect) {
                uf.union(i, j);
            }
        }
    }

    for c in &contacts {
        let mut first: Option<usize> = None;
        for range in [poly_range.clone(), diff_range.clone(), metal_range.clone()] {
            for i in range {
                if pieces[i].rect.overlaps(c) {
                    match first {
                        None => first = Some(i),
                        Some(f) => uf.union(f, i),
                    }
                }
            }
        }
    }

    for b in &buried {
        let mut first: Option<usize> = None;
        for range in [poly_range.clone(), diff_range.clone()] {
            for i in range {
                if pieces[i].rect.overlaps(b) {
                    match first {
                        None => first = Some(i),
                        Some(f) => uf.union(f, i),
                    }
                }
            }
        }
    }

    // Net `k` is the `k`-th distinct root in piece order, looked up by a
    // linear scan of the roots seen so far.
    let mut roots: Vec<usize> = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for (i, piece) in pieces.iter().enumerate() {
        let root = uf.find(i);
        let id = roots.iter().position(|&r| r == root).unwrap_or_else(|| {
            roots.push(root);
            names.push(None);
            roots.len() - 1
        });
        if names[id].is_none() {
            names[id] = piece.label.clone();
        }
    }

    let net_of = |uf: &mut UnionFind, i: usize| -> NetId {
        let root = uf.find(i);
        NetId(roots.iter().position(|&r| r == root).unwrap() as u32)
    };

    let mut terminals: Vec<(String, NetId)> = Vec::new();
    for b in lib.flat_bristles_shared(top).iter() {
        let hit = pieces
            .iter()
            .enumerate()
            .find(|(_, p)| p.layer == b.layer && p.rect.contains(b.pos));
        if let Some((i, _)) = hit {
            let id = net_of(&mut uf, i);
            if names[id.0 as usize].is_none() {
                names[id.0 as usize] = Some(b.name.clone());
            }
            terminals.push((b.name.clone(), id));
        }
    }

    let mut transistors = Vec::new();
    for &(g, poly_piece) in &gates {
        let gate_net = net_of(&mut uf, poly_piece);
        let mut sd: Vec<NetId> = Vec::new();
        for (j, p) in pieces.iter().enumerate() {
            if p.layer == Layer::Diffusion && p.rect.touches(&g) {
                let id = net_of(&mut uf, j);
                if !sd.contains(&id) {
                    sd.push(id);
                }
            }
        }
        sd.sort_unstable();
        let (source, drain) = match sd.as_slice() {
            [] => continue,
            [only] => (*only, *only),
            [a, b, ..] => (*a, *b),
        };
        let kind = if implants.iter().any(|imp| imp.overlaps(&g)) {
            TransistorKind::Depletion
        } else {
            TransistorKind::Enhancement
        };
        let vertical = pieces
            .iter()
            .any(|p| p.layer == Layer::Diffusion && p.rect.touches(&g) && {
                let r = p.rect;
                r.x0 < g.x1 && g.x0 < r.x1 && (r.y1 == g.y0 || r.y0 == g.y1)
            });
        let (width, length) = if vertical {
            (g.width(), g.height())
        } else {
            (g.height(), g.width())
        };
        transistors.push(Transistor {
            kind,
            gate: gate_net,
            source,
            drain,
            region: g,
            width,
            length,
        });
    }
    transistors.sort_by_key(|t| t.region);

    let net_names = names
        .into_iter()
        .enumerate()
        .map(|(i, n)| n.unwrap_or_else(|| format!("n{i}")))
        .collect();

    Netlist {
        net_names,
        transistors,
        terminals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{Bristle, Cell, Flavor, Library, Shape, Side};
    use bristle_geom::Point;

    fn build(shapes: Vec<Shape>, bristles: Vec<Bristle>) -> Netlist {
        let mut lib = Library::new("t");
        let mut c = Cell::new("dut");
        for s in shapes {
            c.push_shape(s);
        }
        for b in bristles {
            c.push_bristle(b);
        }
        let id = lib.add_cell(c).unwrap();
        extract(&lib, id)
    }

    #[test]
    fn single_enhancement_transistor() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)).with_label("chan"),
                Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)).with_label("gate"),
            ],
            vec![],
        );
        assert_eq!(n.transistors.len(), 1);
        let t = &n.transistors[0];
        assert_eq!(t.kind, TransistorKind::Enhancement);
        assert_eq!(n.net_names[t.gate.0 as usize], "gate");
        // Source and drain are distinct nets (diffusion split by gate).
        assert_ne!(t.source, t.drain);
        // Vertical diffusion: W = 2 (x), L = 2 (y).
        assert_eq!((t.width, t.length), (2, 2));
    }

    #[test]
    fn depletion_recognized_by_implant() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
                Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)),
                Shape::rect(Layer::Implant, Rect::new(-1, -1, 3, 3)),
            ],
            vec![],
        );
        assert_eq!(n.transistors[0].kind, TransistorKind::Depletion);
    }

    #[test]
    fn contact_joins_metal_and_diff() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)).with_label("d"),
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)).with_label("m"),
                Shape::rect(Layer::Contact, Rect::new(1, 1, 3, 3)),
            ],
            vec![],
        );
        // One net: metal and diffusion united through the cut.
        assert_eq!(n.net_count(), 1);
        assert_eq!(n.transistors.len(), 0);
    }

    #[test]
    fn no_contact_means_separate_nets() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)),
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
            ],
            vec![],
        );
        assert_eq!(n.net_count(), 2);
    }

    #[test]
    fn buried_joins_poly_and_diff() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, 0, 5, 2)),
                Shape::rect(Layer::Poly, Rect::new(3, 0, 8, 2)),
                Shape::rect(Layer::Buried, Rect::new(3, 0, 5, 2)),
            ],
            vec![],
        );
        assert_eq!(n.net_count(), 1);
        assert_eq!(n.transistors.len(), 0); // covered overlap is no gate
    }

    #[test]
    fn inverter_netlist() {
        // Depletion pull-up from VDD to OUT (gate tied to OUT via buried),
        // enhancement pull-down from OUT to GND driven by IN.
        let shapes = vec![
            // Vertical diffusion column: VDD at top, GND at bottom.
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 20)),
            // Depletion gate at y 12..14.
            Shape::rect(Layer::Poly, Rect::new(-2, 12, 4, 14)).with_label("pup_gate"),
            Shape::rect(Layer::Implant, Rect::new(-3, 11, 5, 15)),
            // Enhancement gate at y 6..8.
            Shape::rect(Layer::Poly, Rect::new(-2, 6, 4, 8)).with_label("in"),
            // Output metal strap contacted to the middle diffusion.
            Shape::rect(Layer::Metal, Rect::new(-1, 8, 3, 12)).with_label("out"),
            Shape::rect(Layer::Contact, Rect::new(0, 9, 2, 11)),
            // Rails.
            Shape::rect(Layer::Metal, Rect::new(-4, 18, 6, 22)).with_label("VDD"),
            Shape::rect(Layer::Contact, Rect::new(0, 18, 2, 20)),
            Shape::rect(Layer::Metal, Rect::new(-4, -2, 6, 2)).with_label("GND"),
            Shape::rect(Layer::Contact, Rect::new(0, 0, 2, 2)),
        ];
        let n = build(shapes, vec![]);
        assert_eq!(n.transistors.len(), 2, "{n}");
        let dep = n
            .transistors
            .iter()
            .find(|t| t.kind == TransistorKind::Depletion)
            .unwrap();
        let enh = n
            .transistors
            .iter()
            .find(|t| t.kind == TransistorKind::Enhancement)
            .unwrap();
        let name = |id: NetId| n.net_names[id.0 as usize].as_str();
        // Depletion channel runs VDD..out; enhancement runs out..GND.
        let dep_nets = [name(dep.source), name(dep.drain)];
        assert!(dep_nets.contains(&"VDD") && dep_nets.contains(&"out"), "{n}");
        let enh_nets = [name(enh.source), name(enh.drain)];
        assert!(enh_nets.contains(&"GND") && enh_nets.contains(&"out"), "{n}");
        assert_eq!(name(enh.gate), "in");
    }

    #[test]
    fn bristle_names_nets() {
        let n = build(
            vec![Shape::rect(Layer::Metal, Rect::new(0, 0, 10, 4))],
            vec![Bristle::new(
                "bus_tap",
                Layer::Metal,
                Point::new(0, 2),
                Side::West,
                Flavor::Signal,
            )],
        );
        assert_eq!(n.net_count(), 1);
        assert_eq!(n.net_names[0], "bus_tap");
        assert_eq!(n.terminals, vec![("bus_tap".to_owned(), NetId(0))]);
    }

    #[test]
    fn indexed_extract_matches_reference_on_hierarchy() {
        use bristle_geom::{Orientation, Transform};
        // A leaf with a transistor, labels and a bristle, instanced with
        // rotations and overlapping metal straps — the indexed pipeline
        // must reproduce the naive reference netlist exactly.
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)));
        leaf.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)).with_label("g"));
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(0, -8, 2, -4)).with_label("m"));
        leaf.push_shape(Shape::rect(Layer::Contact, Rect::new(0, -6, 2, -5)));
        leaf.push_bristle(Bristle::new(
            "tap",
            Layer::Metal,
            Point::new(1, -6),
            Side::South,
            Flavor::Signal,
        ));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(-20, -8, 40, -4)).with_label("bus"));
        let tid = lib.add_cell(top).unwrap();
        for i in 0..4i64 {
            lib.add_instance(
                tid,
                lid,
                format!("u{i}"),
                Transform::new(
                    Orientation::ALL[(i as usize) % 4],
                    Point::new(12 * i, 0),
                ),
            )
            .unwrap();
        }
        let fast = extract(&lib, tid);
        let slow = extract_reference(&lib, tid);
        assert_eq!(fast, slow);
    }

    #[test]
    fn find_net_and_driven_by() {
        let n = build(
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
                Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)).with_label("g"),
            ],
            vec![],
        );
        let g = n.find_net("g").unwrap();
        assert_eq!(n.transistors.iter().filter(|t| t.gate == g).count(), 1);
    }
}

//! CIF 2.0 emission, through the crate's one text sink: each command
//! is string literals and half-λ integers appended to one `String`,
//! reserved once from the reachable cells' shape and instance counts.

use bristle_cell::{CellId, Library, ShapeGeom};
use bristle_geom::{Orientation, Point};

use crate::text::Text;
use crate::CIF_SCALE_NUM;

/// Errors from CIF emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteCifError {
    /// A cell in the hierarchy is completely empty (CIF symbols must have
    /// content).
    EmptyCell(String),
    /// The library or a cell in the hierarchy has a name containing `(`,
    /// `)` or `;`, which CIF reads as comment and command delimiters.
    UnwritableName(String),
}

impl std::fmt::Display for WriteCifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteCifError::EmptyCell(n) => write!(f, "cell `{n}` is empty; CIF needs geometry"),
            WriteCifError::UnwritableName(n) => {
                write!(
                    f,
                    "name `{n}` contains `(`, `)` or `;`, which CIF cannot carry"
                )
            }
        }
    }
}

impl std::error::Error for WriteCifError {}

/// `name`, if CIF can carry it: a comment or a `9` name extension that
/// held `(`, `)` or `;` would end early and corrupt the rest of the file.
fn writable(name: &str) -> Result<&str, WriteCifError> {
    if name.contains(['(', ')', ';']) {
        return Err(WriteCifError::UnwritableName(name.to_owned()));
    }
    Ok(name)
}

/// Orientation as a CIF transformation-op sequence (applied left to
/// right, before the final `T` translate).
fn orient_ops(o: Orientation) -> &'static str {
    match o {
        Orientation::R0 => "",
        Orientation::R90 => " R 0 1",
        Orientation::R180 => " R -1 0",
        Orientation::R270 => " R 0 -1",
        Orientation::MR0 => " MX",
        Orientation::MR90 => " MX R 0 1",
        Orientation::MR180 => " MX R -1 0",
        Orientation::MR270 => " MX R 0 -1",
    }
}

/// Room reserved per line, in bytes: a `B` or `C` line of six-digit
/// numbers plus an `L` line before it. A `W` or `P` line adds
/// [`PAIR_BYTES`] per coordinate pair.
const LINE_BYTES: usize = 32;
const PAIR_BYTES: usize = 16;

/// Writes a cell hierarchy as a CIF 2.0 file. All cells reachable from
/// `top` become symbol definitions; the file ends with a call to the top
/// symbol and `E`.
///
/// Coordinates are emitted in half-λ (see crate docs).
///
/// # Errors
///
/// Returns [`WriteCifError::EmptyCell`] if any reachable cell has neither
/// shapes nor instances, and [`WriteCifError::UnwritableName`] if the
/// library's name or any reachable cell's name contains `(`, `)` or `;`.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
pub fn write_cif(lib: &Library, top: CellId) -> Result<String, WriteCifError> {
    // Collect reachable cells in dependency (children-first) order.
    let mut order: Vec<CellId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    collect(lib, top, &mut seen, &mut order);

    let bytes: usize = order
        .iter()
        .map(|&id| {
            let cell = lib.cell(id);
            let pairs: usize = cell
                .shapes()
                .iter()
                .map(|s| match &s.geom {
                    ShapeGeom::Box(_) => 0,
                    ShapeGeom::Wire(p) => p.points().len(),
                    ShapeGeom::Poly(p) => p.vertices().len(),
                })
                .sum();
            let lines = 3 + cell.shapes().len() + cell.instances().len();
            cell.name().len() + LINE_BYTES * lines + PAIR_BYTES * pairs
        })
        .sum();
    let mut out = Text::with_capacity(bytes + LINE_BYTES + lib.name().len());
    out.str("(CIF written by bristle-blocks for `")
        .str(writable(lib.name())?)
        .str("`);\n");
    // Stable symbol numbering: position in the reachable order, 1-based.
    let number: std::collections::HashMap<CellId, i64> = order.iter().copied().zip(1..).collect();

    for &id in &order {
        let cell = lib.cell(id);
        if cell.shapes().is_empty() && cell.instances().is_empty() {
            return Err(WriteCifError::EmptyCell(cell.name().to_owned()));
        }
        out.str("DS ")
            .int(number[&id])
            .str(" ")
            .int(CIF_SCALE_NUM)
            .str(" 1;\n9 ")
            .str(writable(cell.name())?)
            .str(";\n");
        // Group shapes by layer to minimize L commands.
        let mut last_layer = None;
        for s in cell.shapes() {
            if last_layer != Some(s.layer) {
                out.str("L ").str(s.layer.cif_name()).str(";\n");
                last_layer = Some(s.layer);
            }
            match &s.geom {
                ShapeGeom::Box(r) => {
                    // B length width centerx centery — in half-λ all integral.
                    out.str("B ")
                        .int(r.width() * 2)
                        .str(" ")
                        .int(r.height() * 2)
                        .str(" ")
                        .int(r.x0 + r.x1)
                        .str(" ")
                        .int(r.y0 + r.y1);
                }
                ShapeGeom::Wire(p) => {
                    out.str("W ").int(p.width() * 2);
                    points(&mut out, p.points());
                }
                ShapeGeom::Poly(p) => {
                    out.str("P");
                    points(&mut out, p.vertices());
                }
            }
            out.str(";\n");
        }
        for inst in cell.instances() {
            let t = &inst.transform;
            out.str("C ")
                .int(number[&inst.cell])
                .str(orient_ops(t.orient))
                .str(" T ")
                .int(t.offset.x * 2)
                .str(" ")
                .int(t.offset.y * 2)
                .str(";\n");
        }
        out.str("DF;\n");
    }
    out.str("C ").int(number[&top]).str(" T 0 0;\nE\n");
    Ok(out.into_string())
}

/// Writes ` x y` in half-λ for each of `pts`.
fn points(out: &mut Text, pts: &[Point]) {
    for q in pts {
        out.str(" ").int(q.x * 2).str(" ").int(q.y * 2);
    }
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
    use bristle_cell::{Cell, Instance, Shape};
    use bristle_geom::{Layer, Point, Rect, Transform};

    #[test]
    fn boxes_emit_centers() {
        let mut lib = Library::new("t");
        let mut c = Cell::new("unit");
        c.push_shape(Shape::rect(Layer::Metal, Rect::new(1, 0, 4, 2)));
        let id = lib.add_cell(c).unwrap();
        let text = write_cif(&lib, id).unwrap();
        // width 3λ -> 6, height 2λ -> 4, center (2.5, 1) -> (5, 2).
        assert!(text.contains("B 6 4 5 2;"), "{text}");
        assert!(text.contains("L NM;"));
        assert!(text.contains("9 unit;"));
        assert!(text.trim_end().ends_with('E'));
    }

    #[test]
    fn children_defined_before_parents() {
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Poly, Rect::new(0, 0, 2, 2)));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
        top.push_instance(Instance::new(lid, "u", Transform::translate(Point::new(4, 0))));
        let tid = lib.add_cell(top).unwrap();
        let text = write_cif(&lib, tid).unwrap();
        let leaf_pos = text.find("9 leaf;").unwrap();
        let top_pos = text.find("9 top;").unwrap();
        assert!(leaf_pos < top_pos);
        // Translation in half-λ.
        assert!(text.contains("C 1 T 8 0;"), "{text}");
    }

    #[test]
    fn orientations_emit_ops() {
        assert_eq!(orient_ops(Orientation::R0), "");
        assert_eq!(orient_ops(Orientation::MR90), " MX R 0 1");
    }

    #[test]
    fn empty_cell_rejected() {
        let mut lib = Library::new("t");
        let id = lib.add_cell(Cell::new("void")).unwrap();
        assert!(matches!(
            write_cif(&lib, id),
            Err(WriteCifError::EmptyCell(_))
        ));
    }

    #[test]
    fn delimiters_in_cell_names_rejected() {
        for bad in ["a(b", "a)b", "a;b"] {
            let mut lib = Library::new("t");
            let mut c = Cell::new(bad);
            c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
            let id = lib.add_cell(c).unwrap();
            let want = Err(WriteCifError::UnwritableName(bad.to_owned()));
            assert_eq!(write_cif(&lib, id), want);
        }
    }

    #[test]
    fn shared_subcell_emitted_once() {
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Poly, Rect::new(0, 0, 2, 2)));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
        for i in 0..3 {
            let t = Transform::translate(Point::new(4 * i, 0));
            top.push_instance(Instance::new(lid, format!("u{i}"), t));
        }
        let tid = lib.add_cell(top).unwrap();
        let text = write_cif(&lib, tid).unwrap();
        assert_eq!(text.matches("9 leaf;").count(), 1);
        assert_eq!(text.matches("C 1").count(), 3);
    }
}

//! SVG renderings of cell layouts, in the spirit of the Mead–Conway color
//! plates, and of stick diagrams. Useful for eyeballing compiled chips
//! without mask tooling.
//!
//! Both renderers write through the crate's one text sink: each element
//! is string literals and integer pixels appended to one `String`,
//! reserved once from the shape, bristle or stick count. A bristle's
//! title is its `Display` text, XML-escaped.

use bristle_cell::{CellId, Library, ShapeGeom, Stick};
use bristle_geom::{Layer, Rect};

use crate::text::Text;

/// Pixels per λ in a layout rendering.
const LAYOUT_SCALE: i64 = 4;
/// Pixels per λ in a sticks rendering.
const STICKS_SCALE: i64 = 2;
/// Blank border around the drawing, in λ.
const MARGIN: i64 = 4;
/// Fill opacity of layout shapes: layers overlap, so it stays below 1.
const OPACITY: &str = "0.55";
/// Room reserved per element, in bytes: a little over the longest
/// `<rect>`, `<circle>` (title included) and `<line>` the reference
/// chips draw, so the document is not regrown.
const RECT_BYTES: usize = 100;
const CIRCLE_BYTES: usize = 200;
const LINE_BYTES: usize = 100;
/// Room for a polygon's `points` pair and for the opening tag, the
/// background and the header comment.
const POINT_BYTES: usize = 16;
const HEAD_BYTES: usize = 256;

/// The SVG window both renderers draw in: integer-λ layout (+y up)
/// drawn at integer pixels per λ (+y down), so every coordinate is an
/// integer, printed `N.0`.
#[derive(Clone, Copy)]
struct Frame {
    window: Rect,
    scale: i64,
}

impl Frame {
    /// Writes the `<svg>` tag for `bbox` plus a [`MARGIN`] border to `out`.
    fn open(out: &mut Text, bbox: Rect, scale: i64) -> Frame {
        let window = bbox.inflate(MARGIN);
        let (w, h) = (window.width() * scale, window.height() * scale);
        out.str(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#)
            .int(w)
            .str(r#"" height=""#)
            .int(h)
            .str(r#"" viewBox="0 0 "#)
            .int(w)
            .str(" ")
            .int(h)
            .str("\">\n");
        Frame { window, scale }
    }

    fn x(self, x: i64) -> i64 {
        (x - self.window.x0) * self.scale
    }

    fn y(self, y: i64) -> i64 {
        (self.window.y1 - y) * self.scale
    }
}

/// Closes the `<svg>` tag and returns the document.
fn close(mut out: Text) -> String {
    out.str("</svg>\n");
    out.into_string()
}

/// Renders a cell hierarchy to an SVG string. The y axis is flipped so
/// +y points up, matching layout coordinates. Bristles are drawn as
/// circles titled with their description.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`. Geometry cannot make it
/// panic: [`Library::add_cell`] keeps every coordinate within
/// ±[`MAX_COORD`](bristle_geom::MAX_COORD) λ, so every pixel fits `i64`.
#[must_use]
pub fn render_svg(lib: &Library, top: CellId) -> String {
    fn rect(out: &mut Text, f: Frame, r: Rect, color: &str) {
        out.str(r#"<rect x=""#)
            .int(f.x(r.x0))
            .str(r#".0" y=""#)
            .int(f.y(r.y1))
            .str(r#".0" width=""#)
            .int(r.width() * f.scale)
            .str(r#".0" height=""#)
            .int(r.height() * f.scale)
            .str(r#".0" fill=""#)
            .str(color)
            .str(r#"" fill-opacity=""#)
            .str(OPACITY)
            .str("\"/>\n");
    }

    // The library memoizes the top cell's flat view, so rendering after
    // DRC or extraction (or rendering twice) reuses the shapes they
    // flattened.
    let flat = lib.flatten_shared(top);
    let bristles = lib.flat_bristles_shared(top);
    let bytes = flat.iter().fold(HEAD_BYTES, |n, s| {
        n + match &s.geom {
            ShapeGeom::Box(_) => RECT_BYTES,
            ShapeGeom::Wire(p) => RECT_BYTES * p.points().len(),
            ShapeGeom::Poly(p) => RECT_BYTES + POINT_BYTES * p.vertices().len(),
        }
    }) + CIRCLE_BYTES * bristles.len();
    let mut out = Text::with_capacity(bytes);

    let bbox = lib.bbox(top).unwrap_or(Rect::new(0, 0, 1, 1));
    let f = Frame::open(&mut out, bbox, LAYOUT_SCALE);
    let note = format!("cell `{}` bbox {}", lib.cell(top).name(), f.window);
    out.str("<rect width=\"100%\" height=\"100%\" fill=\"#f8f5ee\"/>\n<!-- ")
        .str(&comment_text(&note))
        .str(" -->\n");
    // Draw in layer order so metal sits on top of poly on top of
    // diffusion.
    for layer in Layer::ALL {
        let color = layer.color();
        for shape in flat.iter().filter(|s| s.layer == layer) {
            match &shape.geom {
                ShapeGeom::Box(r) => rect(&mut out, f, *r, color),
                ShapeGeom::Wire(p) => {
                    for r in p.to_rects() {
                        rect(&mut out, f, r, color);
                    }
                }
                ShapeGeom::Poly(p) => {
                    out.str(r#"<polygon points=""#);
                    for (i, v) in p.vertices().iter().enumerate() {
                        let sep = if i == 0 { "" } else { " " };
                        out.str(sep)
                            .int(f.x(v.x))
                            .str(".0,")
                            .int(f.y(v.y))
                            .str(".0");
                    }
                    out.str(r#"" fill=""#)
                        .str(color)
                        .str(r#"" fill-opacity=""#)
                        .str(OPACITY)
                        .str("\"/>\n");
                }
            }
        }
    }
    for b in bristles.iter() {
        out.str(r#"<circle cx=""#)
            .int(f.x(b.pos.x))
            .str(r#".0" cy=""#)
            .int(f.y(b.pos.y))
            .str(r#".0" r=""#)
            .int(LAYOUT_SCALE)
            .str(r##".0" fill="none" stroke="#333" stroke-width="1"><title>"##)
            .escaped(b)
            .str("</title></circle>\n");
    }
    close(out)
}

/// `text` with a space between any two adjacent hyphens: XML 1.0
/// forbids `--` inside a comment, and cell names may hold it.
fn comment_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut prev = None;
    for c in text.chars() {
        if c == '-' && prev == Some('-') {
            out.push(' ');
        }
        out.push(c);
        prev = Some(c);
    }
    out
}

/// Renders stick diagrams as SVG line work over the die `die`, with the
/// same y flip as [`render_svg`].
#[must_use]
pub fn render_sticks_svg(die: Rect, sticks: &[Stick]) -> String {
    let mut out = Text::with_capacity(HEAD_BYTES + LINE_BYTES * sticks.len());
    let f = Frame::open(&mut out, die, STICKS_SCALE);
    for st in sticks {
        out.str(r#"<line x1=""#)
            .int(f.x(st.from.x))
            .str(r#".0" y1=""#)
            .int(f.y(st.from.y))
            .str(r#".0" x2=""#)
            .int(f.x(st.to.x))
            .str(r#".0" y2=""#)
            .int(f.y(st.to.y))
            .str(r#".0" stroke=""#)
            .str(st.layer.color())
            .str("\" stroke-width=\"1\"/>\n");
    }
    close(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{load_library, Bristle, Cell, Flavor, Shape, Side};
    use bristle_geom::{Layer, Point, Polygon};

    fn demo_lib() -> (Library, CellId) {
        let mut lib = Library::new("t");
        let mut c = Cell::new("demo");
        c.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 10)));
        c.push_shape(Shape::rect(Layer::Poly, Rect::new(-2, 4, 4, 6)));
        c.push_bristle(Bristle::new(
            "in",
            Layer::Poly,
            Point::new(-2, 5),
            Side::West,
            Flavor::Signal,
        ));
        let id = lib.add_cell(c).unwrap();
        (lib, id)
    }

    #[test]
    fn renders_valid_svg_skeleton() {
        let (lib, id) = demo_lib();
        let svg = render_svg(&lib, id);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Two shapes, two rects + background.
        assert_eq!(svg.matches("<rect").count(), 3);
        assert_eq!(svg.matches("<circle").count(), 1);
    }

    #[test]
    fn polygon_points_are_flipped_integers() {
        let mut lib = Library::new("t");
        let mut c = Cell::new("ell");
        let ell = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)];
        let poly = Polygon::new(ell.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap();
        c.push_shape(Shape::polygon(Layer::Metal, poly));
        let id = lib.add_cell(c).unwrap();
        // Window -4..8 on both axes at 4 px/λ: x' = (x + 4)·4, y' = (8 − y)·4.
        let want = format!(
            r#"<polygon points="16.0,32.0 32.0,32.0 32.0,24.0 24.0,24.0 24.0,16.0 16.0,16.0" fill="{}" fill-opacity="0.55"/>"#,
            Layer::Metal.color()
        );
        assert!(render_svg(&lib, id).lines().any(|l| l == want));
    }

    /// A bristle name may hold XML markup; its title must still parse.
    #[test]
    fn titles_are_xml_escaped() {
        let page = "library l\ncell c\n  box NM 0 0 4 4\n  bristle a<b&c NM 0 2 W signal\nend\n";
        let lib = load_library(page).unwrap();
        let svg = render_svg(&lib, lib.find("c").unwrap());
        assert!(
            svg.contains("<title>a&lt;b&amp;c@(0, 2)W [NM] signal</title>"),
            "{svg}"
        );
    }

    #[test]
    fn layer_colors_used() {
        let (lib, id) = demo_lib();
        let svg = render_svg(&lib, id);
        assert!(svg.contains(Layer::Diffusion.color()));
        assert!(svg.contains(Layer::Poly.color()));
    }
}

//! SVG renderings of cell layouts, in the spirit of the Mead–Conway color
//! plates, and of stick diagrams. Useful for eyeballing compiled chips
//! without mask tooling.

use std::fmt::Write as _;

use bristle_cell::{CellId, Library, ShapeGeom, Stick};
use bristle_geom::{Layer, Rect};

/// Pixels per λ in a layout rendering.
const LAYOUT_SCALE: i64 = 4;
/// Pixels per λ in a sticks rendering.
const STICKS_SCALE: i64 = 2;
/// Blank border around the drawing, in λ.
const MARGIN: i64 = 4;
/// Fill opacity of layout shapes: layers overlap, so it stays below 1.
const OPACITY: &str = "0.55";

/// The SVG document both renderers write: a window of integer-λ layout
/// (+y up) drawn at integer pixels per λ (+y down), so every coordinate
/// is an integer, printed `N.0`.
struct Frame {
    out: String,
    window: Rect,
    scale: i64,
}

impl Frame {
    /// Writes the `<svg>` tag for `bbox` plus a [`MARGIN`] border.
    fn open(bbox: Rect, scale: i64) -> Frame {
        let window = bbox.inflate(MARGIN);
        let (w, h) = (window.width() * scale, window.height() * scale);
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
        );
        Frame { out, window, scale }
    }

    fn x(&self, x: i64) -> i64 {
        (x - self.window.x0) * self.scale
    }

    fn y(&self, y: i64) -> i64 {
        (self.window.y1 - y) * self.scale
    }

    /// Closes the `<svg>` tag and returns the document.
    fn close(mut self) -> String {
        self.out.push_str("</svg>\n");
        self.out
    }
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
    fn rect(f: &mut Frame, r: Rect, color: &str) {
        let _ = writeln!(
            f.out,
            r#"<rect x="{}.0" y="{}.0" width="{}.0" height="{}.0" fill="{color}" fill-opacity="{OPACITY}"/>"#,
            f.x(r.x0),
            f.y(r.y1),
            r.width() * f.scale,
            r.height() * f.scale,
        );
    }

    let bbox = lib.bbox(top).unwrap_or(Rect::new(0, 0, 1, 1));
    let mut f = Frame::open(bbox, LAYOUT_SCALE);
    let note = format!("cell `{}` bbox {}", lib.cell(top).name(), f.window);
    let _ = writeln!(
        f.out,
        "<rect width=\"100%\" height=\"100%\" fill=\"#f8f5ee\"/>\n<!-- {} -->",
        comment_text(&note)
    );
    // Draw in layer order so metal sits on top of poly on top of
    // diffusion. The library memoizes the top cell's flat view, so
    // rendering after DRC or extraction (or rendering twice) reuses the
    // shapes they flattened.
    let flat = lib.flatten_shared(top);
    for layer in Layer::ALL {
        let color = layer.color();
        for shape in flat.iter().filter(|s| s.layer == layer) {
            match &shape.geom {
                ShapeGeom::Box(r) => rect(&mut f, *r, color),
                ShapeGeom::Wire(p) => {
                    for r in p.to_rects() {
                        rect(&mut f, r, color);
                    }
                }
                ShapeGeom::Poly(p) => {
                    f.out.push_str(r#"<polygon points=""#);
                    for (i, v) in p.vertices().iter().enumerate() {
                        let sep = if i == 0 { "" } else { " " };
                        let _ = write!(f.out, "{sep}{}.0,{}.0", f.x(v.x), f.y(v.y));
                    }
                    let _ = writeln!(f.out, r#"" fill="{color}" fill-opacity="{OPACITY}"/>"#);
                }
            }
        }
    }
    for b in lib.flat_bristles_shared(top).iter() {
        let _ = writeln!(
            f.out,
            r##"<circle cx="{}.0" cy="{}.0" r="{LAYOUT_SCALE}.0" fill="none" stroke="#333" stroke-width="1"><title>{b}</title></circle>"##,
            f.x(b.pos.x),
            f.y(b.pos.y),
        );
    }
    f.close()
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
    let mut f = Frame::open(die, STICKS_SCALE);
    for st in sticks {
        let _ = writeln!(
            f.out,
            r#"<line x1="{}.0" y1="{}.0" x2="{}.0" y2="{}.0" stroke="{}" stroke-width="1"/>"#,
            f.x(st.from.x),
            f.y(st.from.y),
            f.x(st.to.x),
            f.y(st.to.y),
            st.layer.color()
        );
    }
    f.close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{Bristle, Cell, Flavor, Shape, Side};
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

    #[test]
    fn layer_colors_used() {
        let (lib, id) = demo_lib();
        let svg = render_svg(&lib, id);
        assert!(svg.contains(Layer::Diffusion.color()));
        assert!(svg.contains(Layer::Poly.color()));
    }
}

//! SVG rendering of cell layouts, in the spirit of the Mead–Conway color
//! plates. Useful for eyeballing compiled chips without mask tooling.

use std::fmt::Write as _;

use bristle_cell::{CellId, Library, ShapeGeom};
use bristle_geom::{Layer, Rect};

/// Rendering options.
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Pixels per λ.
    pub scale: f64,
    /// Fill opacity (layers overlap; keep below 1).
    pub opacity: f64,
    /// Draw bristle markers.
    pub show_bristles: bool,
    /// Margin around the bounding box, in λ.
    pub margin: i64,
}

impl Default for SvgOptions {
    fn default() -> SvgOptions {
        SvgOptions {
            scale: 4.0,
            opacity: 0.55,
            show_bristles: true,
            margin: 4,
        }
    }
}

/// Renders a cell hierarchy to an SVG string. The y axis is flipped so
/// +y points up, matching layout coordinates.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn render_svg(lib: &Library, top: CellId, opts: &SvgOptions) -> String {
    let bbox = lib
        .bbox(top)
        .unwrap_or(Rect::new(0, 0, 1, 1))
        .inflate(opts.margin);
    let s = opts.scale;
    let w = bbox.width() as f64 * s;
    let h = bbox.height() as f64 * s;
    // Map layout (x, y) to SVG: x' = (x - x0)·s, y' = (y1 - y)·s.
    let mx = |x: i64| (x - bbox.x0) as f64 * s;
    let my = |y: i64| (bbox.y1 - y) as f64 * s;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.0} {h:.0}">"#
    );
    let _ = writeln!(
        out,
        r##"<rect width="100%" height="100%" fill="#f8f5ee"/>"##
    );
    let _ = writeln!(
        out,
        "<!-- cell `{}` bbox {} -->",
        lib.cell(top).name(),
        bbox
    );
    // Draw in layer order so metal sits on top of poly on top of
    // diffusion. Flattening goes through the library's memoized cache,
    // so rendering after DRC/extraction (or rendering twice) reuses the
    // already-flattened geometry instead of re-walking the hierarchy.
    let flat = lib.flatten_shared(top);
    for layer in Layer::ALL {
        for shape in flat.iter().filter(|s| s.layer == layer) {
            let color = layer.color();
            match &shape.geom {
                ShapeGeom::Box(_) | ShapeGeom::Wire(_) => {
                    for r in shape.to_rects() {
                        let _ = writeln!(
                            out,
                            r#"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{color}" fill-opacity="{}"/>"#,
                            mx(r.x0),
                            my(r.y1),
                            r.width() as f64 * s,
                            r.height() as f64 * s,
                            opts.opacity
                        );
                    }
                }
                ShapeGeom::Poly(p) => {
                    let pts: Vec<String> = p
                        .vertices()
                        .iter()
                        .map(|v| format!("{:.1},{:.1}", mx(v.x), my(v.y)))
                        .collect();
                    let _ = writeln!(
                        out,
                        r#"<polygon points="{}" fill="{color}" fill-opacity="{}"/>"#,
                        pts.join(" "),
                        opts.opacity
                    );
                }
            }
        }
    }
    if opts.show_bristles {
        for b in lib.flat_bristles_shared(top).iter() {
            let _ = writeln!(
                out,
                r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="none" stroke="#333" stroke-width="1"><title>{}</title></circle>"##,
                mx(b.pos.x),
                my(b.pos.y),
                s.max(2.0),
                b
            );
        }
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::{Bristle, Cell, Flavor, Shape, Side};
    use bristle_geom::{Layer, Point};

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
        let svg = render_svg(&lib, id, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Two shapes, two rects + background.
        assert_eq!(svg.matches("<rect").count(), 3);
        assert_eq!(svg.matches("<circle").count(), 1);
    }

    #[test]
    fn bristles_optional() {
        let (lib, id) = demo_lib();
        let opts = SvgOptions {
            show_bristles: false,
            ..SvgOptions::default()
        };
        let svg = render_svg(&lib, id, &opts);
        assert_eq!(svg.matches("<circle").count(), 0);
    }

    #[test]
    fn layer_colors_used() {
        let (lib, id) = demo_lib();
        let svg = render_svg(&lib, id, &SvgOptions::default());
        assert!(svg.contains(Layer::Diffusion.color()));
        assert!(svg.contains(Layer::Poly.color()));
    }
}

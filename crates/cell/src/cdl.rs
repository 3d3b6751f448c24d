//! The cell design language: a line-oriented text format for cell
//! libraries.
//!
//! *"The data necessary to specify the various representations for the
//! cells and connection points may be stored in disk files and read in as
//! needed, to allow for the use of common cell libraries and sharing of
//! data. … The low level cells in a library are defined by entering the
//! actual layout of each cell representation in a standard cell design
//! language."* — Johannsen, DAC 1979.
//!
//! The format is deliberately simple and diff-friendly: one statement per
//! line, whitespace-separated tokens, `#` comments. [`save_library`] and
//! [`load_library`] round-trip exactly (verified by property tests).
//!
//! A `library <name>` line comes first. Each `cell <name>` … `end` block
//! holds `power`, `doc`, `behavior`, `blocklabel`, `stretchy`, `box`,
//! `wire`, `poly`, `bristle`, `gate` and `inst` statements; any other
//! keyword is a parse error. A bristle's flavor token is `pad:<kind>`
//! (`input`, `output`, `vdd`, `gnd`, `phi1`, `phi2`),
//! `ctl:<field>:eq:<value>:<phase>`, `ctl:<field>:bit:<bit>:<phase>`,
//! `bus:<n>`, `power:vdd`, `power:gnd`, `clock:<phase>` or `signal`; a
//! gate kind is `and`, `xor`, `pass` or `latch`. There is no `stick`
//! statement: a chip's STICKS are derived from its layout. Stretch
//! lines are horizontal only: cells stretch along y, to the slice pitch.

use std::fmt::Write as _;

use bristle_geom::{Layer, Orientation, Path, Point, Polygon, Rect, Transform};

use crate::bristle::{ActiveWhen, Bristle, ControlLine, Flavor, PadKind, Phase, Rail, Side};
use crate::cell::{Cell, CellError, Library};
use crate::power::PowerInfo;
use crate::reprs::{LogicGate, LogicKind};
use crate::shape::{Shape, ShapeGeom};

/// Errors from reading or writing the cell design language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdlError {
    /// A name contains whitespace and cannot be serialized.
    UnserializableName(String),
    /// Parse failure with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structural error while rebuilding the library.
    Cell(CellError),
}

impl std::fmt::Display for CdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdlError::UnserializableName(n) => {
                write!(f, "name `{n}` contains whitespace; cannot serialize")
            }
            CdlError::Parse { line, message } => write!(f, "line {line}: {message}"),
            CdlError::Cell(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CdlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdlError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CellError> for CdlError {
    fn from(e: CellError) -> CdlError {
        CdlError::Cell(e)
    }
}

fn check_name(n: &str) -> Result<(), CdlError> {
    if n.is_empty() || n.chars().any(char::is_whitespace) {
        Err(CdlError::UnserializableName(n.to_owned()))
    } else {
        Ok(())
    }
}

fn escape_text(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn flavor_to_token(flavor: &Flavor) -> String {
    match flavor {
        Flavor::Pad(k) => format!("pad:{k}"),
        Flavor::Control(c) => {
            let cond = match &c.active {
                ActiveWhen::Equals(v) => format!("eq:{v}"),
                ActiveWhen::Bit(b) => format!("bit:{b}"),
            };
            format!("ctl:{}:{}:{}", c.field, cond, c.phase)
        }
        Flavor::Bus { bus } => format!("bus:{bus}"),
        Flavor::Power(rail) => format!("power:{}", lower_token(rail)),
        Flavor::Clock(phase) => format!("clock:{phase}"),
        Flavor::Signal => "signal".to_owned(),
    }
}

/// The value among `all` whose `Display` reads `s`: each token is
/// spelled once, by its type's `Display`, for writing and parsing alike.
fn parse_token<T: Copy + std::fmt::Display>(all: &[T], s: &str) -> Option<T> {
    all.iter().copied().find(|v| v.to_string() == s)
}

/// CDL's token for a gate kind or a rail: its `Display`, which the other
/// representations print upper case (`AND`, `VDD`), in lower case.
fn lower_token(v: impl std::fmt::Display) -> String {
    v.to_string().to_ascii_lowercase()
}

/// The value among `all` whose [`lower_token`] reads `s`.
fn parse_lower_token<T: Copy + std::fmt::Display>(all: &[T], s: &str) -> Option<T> {
    all.iter().copied().find(|&v| lower_token(v) == s)
}

fn parse_flavor(tok: &str) -> Option<Flavor> {
    let mut parts = tok.split(':');
    let flavor = match parts.next()? {
        "pad" => Flavor::Pad(parse_token(&PadKind::ALL, parts.next()?)?),
        "ctl" => {
            let field = parts.next()?.to_owned();
            let cond_kind = parts.next()?;
            let active = match cond_kind {
                "eq" => ActiveWhen::Equals(parts.next()?.parse().ok()?),
                "bit" => ActiveWhen::Bit(parts.next()?.parse().ok()?),
                _ => return None,
            };
            let phase = parse_token(&Phase::ALL, parts.next()?)?;
            Flavor::Control(ControlLine {
                field,
                active,
                phase,
            })
        }
        "bus" => Flavor::Bus {
            bus: parts.next()?.parse().ok()?,
        },
        "power" => Flavor::Power(parse_lower_token(&Rail::ALL, parts.next()?)?),
        "clock" => Flavor::Clock(parse_token(&Phase::ALL, parts.next()?)?),
        "signal" => Flavor::Signal,
        _ => return None,
    };
    // A token is exactly what `flavor_to_token` writes: nothing trails it
    // (the former `bus:<n>:<bit>` form among them).
    parts.next().is_none().then_some(flavor)
}

/// Serializes a library to the cell design language.
///
/// # Errors
///
/// Returns [`CdlError::UnserializableName`] if any cell, instance or
/// bristle name contains whitespace.
pub fn save_library(lib: &Library) -> Result<String, CdlError> {
    let mut out = String::new();
    let _ = writeln!(out, "# bristle-blocks cell library");
    check_name(lib.name())?;
    let _ = writeln!(out, "library {}", lib.name());
    for (_, cell) in lib.iter() {
        check_name(cell.name())?;
        let _ = writeln!(out, "cell {}", cell.name());
        if cell.power().current_ua() > 0 {
            let _ = writeln!(out, "  power {}", cell.power().current_ua());
        }
        if !cell.reprs().doc.is_empty() {
            let _ = writeln!(out, "  doc {}", escape_text(&cell.reprs().doc));
        }
        if let Some(b) = &cell.reprs().behavior {
            check_name(b)?;
            let _ = writeln!(out, "  behavior {b}");
        }
        if let Some(l) = &cell.reprs().block_label {
            let _ = writeln!(out, "  blocklabel {}", escape_text(l));
        }
        if !cell.stretch_y().is_empty() {
            let ys: Vec<String> = cell.stretch_y().iter().map(i64::to_string).collect();
            let _ = writeln!(out, "  stretchy {}", ys.join(" "));
        }
        for s in cell.shapes() {
            let label_suffix = s
                .label()
                .map(|l| format!(" net={l}"))
                .unwrap_or_default();
            match &s.geom {
                ShapeGeom::Box(r) => {
                    let _ = writeln!(
                        out,
                        "  box {} {} {} {} {}{label_suffix}",
                        s.layer, r.x0, r.y0, r.x1, r.y1
                    );
                }
                ShapeGeom::Wire(p) => {
                    let pts: Vec<String> = p
                        .points()
                        .iter()
                        .map(|q| format!("{} {}", q.x, q.y))
                        .collect();
                    let _ = writeln!(
                        out,
                        "  wire {} {} {} {}{label_suffix}",
                        s.layer,
                        p.width(),
                        p.points().len(),
                        pts.join(" ")
                    );
                }
                ShapeGeom::Poly(p) => {
                    let pts: Vec<String> = p
                        .vertices()
                        .iter()
                        .map(|q| format!("{} {}", q.x, q.y))
                        .collect();
                    let _ = writeln!(
                        out,
                        "  poly {} {} {}{label_suffix}",
                        s.layer,
                        p.vertices().len(),
                        pts.join(" ")
                    );
                }
            }
        }
        for b in cell.bristles() {
            check_name(&b.name)?;
            let _ = writeln!(
                out,
                "  bristle {} {} {} {} {} {}",
                b.name,
                b.layer,
                b.pos.x,
                b.pos.y,
                b.side,
                flavor_to_token(&b.flavor)
            );
        }
        for g in &cell.reprs().logic {
            check_name(&g.output)?;
            for i in &g.inputs {
                check_name(i)?;
            }
            let kind = lower_token(g.kind);
            let _ = writeln!(out, "  gate {kind} {} {}", g.output, g.inputs.join(" "));
        }
        for inst in cell.instances() {
            check_name(&inst.name)?;
            let _ = writeln!(
                out,
                "  inst {} {} {} {} {}",
                lib.cell(inst.cell).name(),
                inst.name,
                inst.transform.orient,
                inst.transform.offset.x,
                inst.transform.offset.y
            );
        }
        let _ = writeln!(out, "end");
    }
    Ok(out)
}

struct LineParser<'a> {
    line_no: usize,
    tokens: Vec<&'a str>,
    cursor: usize,
}

impl<'a> LineParser<'a> {
    fn err(&self, message: impl Into<String>) -> CdlError {
        CdlError::Parse {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, CdlError> {
        let t = self
            .tokens
            .get(self.cursor)
            .copied()
            .ok_or_else(|| self.err(format!("expected {what}")))?;
        self.cursor += 1;
        Ok(t)
    }

    fn next_i64(&mut self, what: &str) -> Result<i64, CdlError> {
        let t = self.next(what)?;
        t.parse()
            .map_err(|_| self.err(format!("bad integer `{t}` for {what}")))
    }

    /// Reads a point count, at least `min` and no more than the points
    /// left on the line, then that many `x y` points.
    fn next_points(&mut self, what: &str, min: usize) -> Result<Vec<Point>, CdlError> {
        let n = self.next_i64(what)?;
        let left = self.rest().len() / 2;
        let n = usize::try_from(n)
            .ok()
            .filter(|n| (min..=left).contains(n))
            .ok_or_else(|| self.err(format!("{what} {n} outside {min}..={left}")))?;
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let x = self.next_i64("x")?;
            let y = self.next_i64("y")?;
            pts.push(Point::new(x, y));
        }
        Ok(pts)
    }

    fn next_layer(&mut self) -> Result<Layer, CdlError> {
        let t = self.next("layer")?;
        t.parse().map_err(|_| self.err(format!("unknown layer `{t}`")))
    }

    fn rest(&self) -> &[&'a str] {
        &self.tokens[self.cursor..]
    }

    fn take_label(&mut self) -> Option<String> {
        if let Some(last) = self.rest().last() {
            if let Some(net) = last.strip_prefix("net=") {
                let label = net.to_owned();
                self.tokens.pop();
                return Some(label);
            }
        }
        None
    }
}

/// Parses a library from the cell design language.
///
/// # Errors
///
/// Returns [`CdlError::Parse`] with a line number on malformed input and
/// [`CdlError::Cell`] when [`Library::add_cell`] rejects a cell: a
/// duplicate name, a non-rectilinear or self-touching polygon, or
/// geometry beyond ±[`bristle_geom::MAX_COORD`] λ.
pub fn load_library(text: &str) -> Result<Library, CdlError> {
    let mut lib: Option<Library> = None;
    let mut current: Option<Cell> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut p = LineParser {
            line_no: idx + 1,
            tokens: line.split_whitespace().collect(),
            cursor: 0,
        };
        let keyword = p.next("keyword")?;
        match keyword {
            "library" => {
                let name = p.next("library name")?;
                if lib.is_some() {
                    return Err(p.err("duplicate `library` line"));
                }
                lib = Some(Library::new(name));
            }
            "cell" => {
                if current.is_some() {
                    return Err(p.err("nested `cell` (missing `end`?)"));
                }
                let name = p.next("cell name")?;
                current = Some(Cell::new(name));
            }
            "end" => {
                let cell = current
                    .take()
                    .ok_or_else(|| p.err("`end` outside of a cell"))?;
                lib.as_mut()
                    .ok_or_else(|| p.err("`end` before `library`"))?
                    .add_cell(cell)?;
            }
            _ => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| p.err(format!("`{keyword}` outside of a cell")))?;
                match keyword {
                    "power" => {
                        let ua = p.next_i64("microamps")?;
                        if ua < 0 {
                            return Err(p.err("negative power"));
                        }
                        cell.set_power(PowerInfo::new(ua as u64));
                    }
                    "doc" => {
                        let text = p.rest().join(" ");
                        cell.reprs_mut().doc = unescape_text(&text);
                    }
                    "behavior" => {
                        cell.reprs_mut().behavior = Some(p.next("behavior key")?.to_owned());
                    }
                    "blocklabel" => {
                        let text = p.rest().join(" ");
                        cell.reprs_mut().block_label = Some(unescape_text(&text));
                    }
                    "stretchy" => {
                        while !p.rest().is_empty() {
                            let y = p.next_i64("stretch y")?;
                            cell.add_stretch_y(y);
                        }
                    }
                    "box" => {
                        let label = p.take_label();
                        let layer = p.next_layer()?;
                        let (x0, y0) = (p.next_i64("x0")?, p.next_i64("y0")?);
                        let (x1, y1) = (p.next_i64("x1")?, p.next_i64("y1")?);
                        let mut s = Shape::rect(layer, Rect::new(x0, y0, x1, y1));
                        if let Some(l) = label {
                            s = s.with_label(l);
                        }
                        cell.push_shape(s);
                    }
                    "wire" => {
                        let label = p.take_label();
                        let layer = p.next_layer()?;
                        let width = p.next_i64("width")?;
                        let pts = p.next_points("point count", 2)?;
                        let path = Path::new(pts, width)
                            .map_err(|e| p.err(format!("bad wire: {e}")))?;
                        let mut s = Shape::wire(layer, path);
                        if let Some(l) = label {
                            s = s.with_label(l);
                        }
                        cell.push_shape(s);
                    }
                    "poly" => {
                        let label = p.take_label();
                        let layer = p.next_layer()?;
                        let pts = p.next_points("vertex count", 3)?;
                        let poly = Polygon::new(pts)
                            .map_err(|e| p.err(format!("bad polygon: {e}")))?;
                        let mut s = Shape::polygon(layer, poly);
                        if let Some(l) = label {
                            s = s.with_label(l);
                        }
                        cell.push_shape(s);
                    }
                    "bristle" => {
                        let name = p.next("bristle name")?.to_owned();
                        let layer = p.next_layer()?;
                        let (x, y) = (p.next_i64("x")?, p.next_i64("y")?);
                        let side_tok = p.next("side")?;
                        let side = parse_token(&Side::ALL, side_tok)
                            .ok_or_else(|| p.err(format!("bad side `{side_tok}`")))?;
                        let flavor_tok = p.next("flavor")?;
                        let flavor = parse_flavor(flavor_tok)
                            .ok_or_else(|| p.err(format!("bad flavor `{flavor_tok}`")))?;
                        cell.push_bristle(Bristle::new(
                            name,
                            layer,
                            Point::new(x, y),
                            side,
                            flavor,
                        ));
                    }
                    "gate" => {
                        let kind_tok = p.next("gate kind")?;
                        let kind = parse_lower_token(&LogicKind::ALL, kind_tok)
                            .ok_or_else(|| p.err(format!("unknown gate kind `{kind_tok}`")))?;
                        let output = p.next("output net")?.to_owned();
                        let inputs: Vec<String> =
                            p.rest().iter().map(|s| (*s).to_owned()).collect();
                        cell.reprs_mut().logic.push(LogicGate {
                            kind,
                            inputs,
                            output,
                        });
                    }
                    "inst" => {
                        let target = p.next("target cell name")?.to_owned();
                        let name = p.next("instance name")?.to_owned();
                        let orient_tok = p.next("orientation")?;
                        let orient = parse_token(&Orientation::ALL, orient_tok)
                            .ok_or_else(|| p.err(format!("bad orientation `{orient_tok}`")))?;
                        let (dx, dy) = (p.next_i64("dx")?, p.next_i64("dy")?);
                        let target_id = lib
                            .as_ref()
                            .ok_or_else(|| p.err("`inst` before `library`"))?
                            .find(&target)
                            .ok_or_else(|| p.err(format!("unknown cell `{target}`")))?;
                        // The target already exists, so the hierarchy stays
                        // acyclic; `add_cell` at `end` checks the bound.
                        cell.instances_mut().push(crate::cell::Instance::new(
                            target_id,
                            name,
                            Transform::new(orient, Point::new(dx, dy)),
                        ));
                    }
                    other => return Err(p.err(format!("unknown keyword `{other}`"))),
                }
            }
        }
    }
    if current.is_some() {
        return Err(CdlError::Parse {
            line: text.lines().count(),
            message: "unterminated cell (missing `end`)".into(),
        });
    }
    lib.ok_or(CdlError::Parse {
        line: 0,
        message: "no `library` line".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_library() -> Library {
        let mut lib = Library::new("samples");
        let mut inv = Cell::new("inv");
        inv.set_power(PowerInfo::new(120));
        inv.reprs_mut().doc = "an inverter\nwith two lines".into();
        inv.reprs_mut().behavior = Some("inv".into());
        inv.reprs_mut().block_label = Some("INV".into());
        inv.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 10)).with_label("out"));
        inv.push_shape(Shape::wire(
            Layer::Poly,
            Path::new(vec![Point::new(-2, 4), Point::new(4, 4)], 2).unwrap(),
        ));
        let corners = [(0, 10), (4, 10), (4, 14), (0, 14)].map(|(x, y)| Point::new(x, y));
        inv.push_shape(Shape::polygon(Layer::Metal, Polygon::new(corners.to_vec()).unwrap()));
        inv.push_bristle(Bristle::new(
            "in",
            Layer::Poly,
            Point::new(-2, 4),
            Side::West,
            Flavor::Signal,
        ));
        inv.push_bristle(Bristle::new(
            "ctl",
            Layer::Poly,
            Point::new(1, 0),
            Side::South,
            Flavor::Control(ControlLine {
                field: "op".into(),
                active: ActiveWhen::Bit(1),
                phase: Phase::Phi2,
            }),
        ));
        inv.add_stretch_y(2);
        inv.reprs_mut()
            .logic
            .push(LogicGate::new(LogicKind::Pass, ["ctl", "in"], "out"));
        let inv_id = lib.add_cell(inv).unwrap();
        let mut pair = Cell::new("pair");
        pair.instances_mut().push(crate::cell::Instance::new(
            inv_id,
            "u0",
            Transform::IDENTITY,
        ));
        pair.instances_mut().push(crate::cell::Instance::new(
            inv_id,
            "u1",
            Transform::new(Orientation::MR0, Point::new(12, 0)),
        ));
        lib.add_cell(pair).unwrap();
        lib
    }

    #[test]
    fn round_trip() {
        let lib = sample_library();
        let text = save_library(&lib).unwrap();
        let back = load_library(&text).unwrap();
        assert_eq!(back.name(), lib.name());
        assert_eq!(back.len(), lib.len());
        for (id, cell) in lib.iter() {
            let rid = back.find(cell.name()).unwrap();
            let rcell = back.cell(rid);
            assert_eq!(rcell.shapes(), cell.shapes(), "shapes of {}", cell.name());
            assert_eq!(rcell.bristles(), cell.bristles());
            assert_eq!(rcell.stretch_y(), cell.stretch_y());
            assert_eq!(rcell.power(), cell.power());
            assert_eq!(rcell.reprs(), cell.reprs());
            assert_eq!(rcell.instances().len(), cell.instances().len());
            let _ = id;
        }
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        let bad = "library l\ncell c\n  box NOPE 0 0 1 1\nend\n";
        match load_library(bad) {
            Err(CdlError::Parse { line: 3, .. }) => {}
            other => panic!("expected parse error on line 3, got {other:?}"),
        }
    }

    /// Cells carry no sticks: the former `stick` statement is an unknown
    /// keyword.
    #[test]
    fn stick_statement_refused() {
        let bad = "library l\ncell c\n  stick NP -2 4 4 4\nend\n";
        match load_library(bad) {
            Err(CdlError::Parse { line: 3, message }) => assert!(message.contains("stick")),
            other => panic!("expected a parse error on line 3, got {other:?}"),
        }
    }

    /// Cells stretch along y only: the former `stretchx` statement is an
    /// unknown keyword.
    #[test]
    fn stretchx_statement_refused() {
        let bad = "library l\ncell c\n  stretchy 2\n  stretchx 3\nend\n";
        match load_library(bad) {
            Err(CdlError::Parse { line: 4, message }) => assert!(message.contains("stretchx")),
            other => panic!("expected a parse error on line 4, got {other:?}"),
        }
    }

    /// The decode conditions, pad kind and gate kinds no compiled chip
    /// used are unknown tokens.
    #[test]
    fn retired_tokens_refused() {
        let flavors = ["ctl:f:any:1,3:phi1", "ctl:f:always:phi1", "pad:tristate"];
        let gates = ["nand", "nor", "or", "buf", "not"];
        let statements = flavors
            .map(|t| (format!("bristle a NM 0 0 W {t}"), t))
            .into_iter()
            .chain(gates.map(|t| (format!("gate {t} y a"), t)));
        for (statement, token) in statements {
            let bad = format!("library l\ncell c\n  {statement}\nend\n");
            match load_library(&bad) {
                Err(CdlError::Parse { line: 3, message }) => {
                    assert!(message.contains(token), "{statement}: {message}");
                }
                other => panic!("{statement}: expected a parse error on line 3, got {other:?}"),
            }
        }
    }

    /// A bus bristle names its bus only; the former trailing bit index is
    /// refused.
    #[test]
    fn bus_bit_refused() {
        let page =
            |flavor: &str| format!("library l\ncell c\n  bristle a NM 0 0 W {flavor}\nend\n");
        let lib = load_library(&page("bus:1")).unwrap();
        let c = lib.cell(lib.find("c").unwrap());
        assert_eq!(c.bristles()[0].flavor, Flavor::Bus { bus: 1 });
        match load_library(&page("bus:1:0")) {
            Err(CdlError::Parse { line: 3, message }) => assert!(message.contains("bus:1:0")),
            other => panic!("expected a parse error on line 3, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_cell_detected() {
        let bad = "library l\ncell c\n  power 5\n";
        assert!(matches!(load_library(bad), Err(CdlError::Parse { .. })));
    }

    #[test]
    fn unknown_instance_target() {
        let bad = "library l\ncell c\n  inst ghost u0 R0 0 0\nend\n";
        match load_library(bad) {
            Err(CdlError::Parse { line: 3, message }) => {
                assert!(message.contains("ghost"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn point_counts_are_bounded_by_the_line() {
        for (shape, count) in [
            ("wire NM 2 -1", "-1"),
            ("wire NM 2 1 0 0", "1"),
            ("wire NM 2 3 0 0 2 0", "3"),
            ("wire NM 2 9223372036854775807 0 0 2 0", "9223372036854775807"),
            ("poly NM 2 0 0 2 0", "2"),
            ("poly NM 4 0 0 2 0 2 2 net=a", "4"),
        ] {
            let text = format!("library l\ncell a\n  {shape}\nend\n");
            match load_library(&text) {
                Err(CdlError::Parse { line: 3, message }) => {
                    assert!(message.contains(count), "{shape}: {message}");
                }
                other => panic!("{shape}: expected a parse error, got {other:?}"),
            }
        }
        // Counts at their minimum parse: the triangle reaches `add_cell`,
        // which refuses it, and the two-point wire loads.
        let ok = "library l\ncell a\n  wire NM 2 2 0 0 2 0\n  poly NM 3 0 0 2 0 2 2\nend\n";
        match load_library(ok) {
            Err(CdlError::Cell(CellError::NotRectilinear(name))) => assert_eq!(name, "a"),
            other => panic!("expected the triangle to parse and be refused, got {other:?}"),
        }
        let ok = "library l\ncell a\n  wire NM 2 2 0 0 2 0 net=w\nend\n";
        assert!(load_library(ok).is_ok());
    }

    #[test]
    fn whitespace_names_rejected_on_save() {
        let mut lib = Library::new("ok");
        lib.add_cell(Cell::new("has space")).unwrap();
        assert!(matches!(
            save_library(&lib),
            Err(CdlError::UnserializableName(_))
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\nlibrary l\n\ncell c  # trailing\n  power 5\nend\n";
        let lib = load_library(text).unwrap();
        assert_eq!(lib.cell(lib.find("c").unwrap()).power().current_ua(), 5);
    }

    #[test]
    fn doc_escapes_round_trip() {
        assert_eq!(unescape_text(&escape_text("a\nb\\c")), "a\nb\\c");
    }
}

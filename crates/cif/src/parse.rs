//! CIF 2.0 parsing, sufficient for everything the writer emits plus the
//! common hand-written subset (comments, blank commands, `DS`/`DF`,
//! `9`, `L`, `B`, `W`, `P`, `C` with `T`/`MX`/`MY`/`R` ops, `E`).

use std::collections::HashMap;
use std::fmt;

use bristle_cell::{Cell, CellError, Library, Shape};
use bristle_geom::{Layer, Orientation, Path, Point, Polygon, Rect, Transform};

/// One geometric or call command inside a symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CifCommand {
    /// `L`: select a layer for subsequent geometry.
    Layer(Layer),
    /// `B length width cx cy` (in CIF units of the enclosing symbol).
    BoxCmd {
        /// x extent.
        length: i64,
        /// y extent.
        width: i64,
        /// Center x (doubled-coordinate convention of the writer).
        cx: i64,
        /// Center y.
        cy: i64,
    },
    /// `W width x1 y1 …`.
    Wire {
        /// Wire width.
        width: i64,
        /// Center-line points.
        points: Vec<Point>,
    },
    /// `P x1 y1 …`.
    Poly {
        /// Vertex loop.
        points: Vec<Point>,
    },
    /// `C symbol …ops`.
    Call {
        /// Callee symbol number.
        symbol: i64,
        /// Accumulated transform of the op list.
        transform: Transform,
    },
}

/// A `DS … DF` symbol definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CifSymbol {
    /// Symbol number.
    pub number: i64,
    /// Scale numerator/denominator from the `DS` line.
    pub scale: (i64, i64),
    /// Name from a `9 name;` extension, if present.
    pub name: Option<String>,
    /// Commands in definition order.
    pub commands: Vec<CifCommand>,
}

/// A parsed CIF file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CifFile {
    /// Symbol definitions in file order.
    pub symbols: Vec<CifSymbol>,
    /// Top-level calls (outside any `DS`).
    pub top_calls: Vec<CifCommand>,
}

/// Errors from CIF parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseCifError {
    /// Malformed command with byte offset and message.
    Syntax {
        /// Index of the command within the file (0-based).
        command_index: usize,
        /// Description.
        message: String,
    },
    /// The file lacks the final `E` command.
    MissingEnd,
    /// A call references an undefined symbol number.
    UnknownSymbol(i64),
    /// Converting to a [`Library`] failed structurally.
    Cell(CellError),
}

impl fmt::Display for ParseCifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCifError::Syntax {
                command_index,
                message,
            } => write!(f, "command {command_index}: {message}"),
            ParseCifError::MissingEnd => f.write_str("missing `E` end command"),
            ParseCifError::UnknownSymbol(n) => write!(f, "call to undefined symbol {n}"),
            ParseCifError::Cell(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseCifError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseCifError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CellError> for ParseCifError {
    fn from(e: CellError) -> ParseCifError {
        ParseCifError::Cell(e)
    }
}

/// Strips parenthesized comments (CIF comments may not nest in 2.0; we
/// tolerate nesting) and splits the text into `;`-terminated commands.
fn commands_of(text: &str) -> Vec<String> {
    let mut depth = 0usize;
    let mut clean = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if depth == 0 => clean.push(c),
            _ => {}
        }
    }
    clean
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

fn ints(s: &str) -> Result<Vec<i64>, String> {
    s.split_whitespace()
        .map(|t| t.parse::<i64>().map_err(|_| format!("bad integer `{t}`")))
        .collect()
}

fn parse_call(body: &str, index: usize) -> Result<CifCommand, ParseCifError> {
    let syntax = |message: String| ParseCifError::Syntax {
        command_index: index,
        message,
    };
    let mut toks = body.split_whitespace();
    let symbol: i64 = toks
        .next()
        .ok_or_else(|| syntax("call without symbol number".into()))?
        .parse()
        .map_err(|_| syntax("bad symbol number".into()))?;
    let mut t = Transform::IDENTITY;
    while let Some(op) = toks.next() {
        let step = match op {
            "T" => {
                let x: i64 = toks
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| syntax("T needs x y".into()))?;
                let y: i64 = toks
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| syntax("T needs x y".into()))?;
                Transform::translate(Point::new(x, y))
            }
            "MX" => Transform::new(Orientation::MR0, Point::ORIGIN),
            "MY" => Transform::new(Orientation::MR180, Point::ORIGIN),
            "R" => {
                let a: i64 = toks
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| syntax("R needs a b".into()))?;
                let b: i64 = toks
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| syntax("R needs a b".into()))?;
                let orient = match (a.signum(), b.signum()) {
                    (1, 0) => Orientation::R0,
                    (0, 1) => Orientation::R90,
                    (-1, 0) => Orientation::R180,
                    (0, -1) => Orientation::R270,
                    _ => {
                        return Err(syntax(format!(
                            "unsupported non-axis rotation R {a} {b}"
                        )))
                    }
                };
                Transform::new(orient, Point::ORIGIN)
            }
            other => return Err(syntax(format!("unknown call op `{other}`"))),
        };
        // Ops apply left to right: each subsequent op wraps the current.
        t = step.after(&t);
    }
    Ok(CifCommand::Call {
        symbol,
        transform: t,
    })
}

/// Parses CIF text into a [`CifFile`].
///
/// # Errors
///
/// Reports syntax errors with command indices, a missing `E`, and calls
/// to undefined symbols.
pub fn parse_cif(text: &str) -> Result<CifFile, ParseCifError> {
    let cmds = commands_of(text);
    let mut file = CifFile::default();
    let mut current: Option<CifSymbol> = None;
    let mut saw_end = false;
    for (index, cmd) in cmds.iter().enumerate() {
        let syntax = |message: String| ParseCifError::Syntax {
            command_index: index,
            message,
        };
        if saw_end {
            return Err(syntax("content after `E`".into()));
        }
        let (head, body) = cmd.split_at(
            cmd.find(|c: char| c.is_whitespace())
                .unwrap_or(cmd.len()),
        );
        let body = body.trim();
        match head {
            "DS" => {
                if current.is_some() {
                    return Err(syntax("nested DS".into()));
                }
                let v = ints(body).map_err(syntax)?;
                let (number, a, b) = match v.as_slice() {
                    [n] => (*n, 1, 1),
                    [n, a] => (*n, *a, 1),
                    [n, a, b] => (*n, *a, *b),
                    _ => return Err(syntax("DS needs 1-3 integers".into())),
                };
                current = Some(CifSymbol {
                    number,
                    scale: (a, b),
                    name: None,
                    commands: Vec::new(),
                });
            }
            "DF" => {
                let sym = current
                    .take()
                    .ok_or_else(|| syntax("DF without DS".into()))?;
                file.symbols.push(sym);
            }
            "9" => {
                if let Some(sym) = current.as_mut() {
                    sym.name = Some(body.to_owned());
                }
                // A 9-line outside DS names the chip; ignored.
            }
            "E" => {
                if current.is_some() {
                    return Err(syntax("E inside DS".into()));
                }
                saw_end = true;
            }
            "L" => {
                let layer: Layer = body
                    .parse()
                    .map_err(|_| syntax(format!("unknown layer `{body}`")))?;
                let sym = current
                    .as_mut()
                    .ok_or_else(|| syntax("L outside DS".into()))?;
                sym.commands.push(CifCommand::Layer(layer));
            }
            "B" => {
                let v = ints(body).map_err(syntax)?;
                let [length, width, cx, cy] = v.as_slice() else {
                    return Err(syntax("B needs 4 integers".into()));
                };
                let sym = current
                    .as_mut()
                    .ok_or_else(|| syntax("B outside DS".into()))?;
                sym.commands.push(CifCommand::BoxCmd {
                    length: *length,
                    width: *width,
                    cx: *cx,
                    cy: *cy,
                });
            }
            "W" => {
                let v = ints(body).map_err(syntax)?;
                if v.len() < 5 || v.len() % 2 == 0 {
                    return Err(syntax("W needs width + ≥2 points".into()));
                }
                let width = v[0];
                let points = v[1..]
                    .chunks(2)
                    .map(|c| Point::new(c[0], c[1]))
                    .collect();
                let sym = current
                    .as_mut()
                    .ok_or_else(|| syntax("W outside DS".into()))?;
                sym.commands.push(CifCommand::Wire { width, points });
            }
            "P" => {
                let v = ints(body).map_err(syntax)?;
                if v.len() < 6 || v.len() % 2 == 1 {
                    return Err(syntax("P needs ≥3 points".into()));
                }
                let points = v.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
                let sym = current
                    .as_mut()
                    .ok_or_else(|| syntax("P outside DS".into()))?;
                sym.commands.push(CifCommand::Poly { points });
            }
            "C" => {
                let call = parse_call(body, index)?;
                match current.as_mut() {
                    Some(sym) => sym.commands.push(call),
                    None => file.top_calls.push(call),
                }
            }
            other => return Err(syntax(format!("unknown command `{other}`"))),
        }
    }
    if !saw_end {
        return Err(ParseCifError::MissingEnd);
    }
    // Validate calls.
    let defined: std::collections::HashSet<i64> =
        file.symbols.iter().map(|s| s.number).collect();
    let all_calls = file
        .symbols
        .iter()
        .flat_map(|s| s.commands.iter())
        .chain(file.top_calls.iter());
    for c in all_calls {
        if let CifCommand::Call { symbol, .. } = c {
            if !defined.contains(symbol) {
                return Err(ParseCifError::UnknownSymbol(*symbol));
            }
        }
    }
    Ok(file)
}

/// Rebuilds a [`Library`] from a parsed CIF file (coordinates halved
/// back from the writer's half-λ convention).
///
/// # Errors
///
/// Fails on geometry that does not survive the half-λ conversion (odd
/// CIF coordinates) or on structural library errors.
pub fn cif_to_library(file: &CifFile) -> Result<Library, ParseCifError> {
    let mut lib = Library::new("from-cif");
    let mut ids: HashMap<i64, bristle_cell::CellId> = HashMap::new();
    for (si, sym) in file.symbols.iter().enumerate() {
        let err = |message: String| ParseCifError::Syntax {
            command_index: si,
            message,
        };
        let half = |v: i64| -> Result<i64, ParseCifError> {
            if v % 2 != 0 {
                Err(err(format!("odd half-λ coordinate {v}")))
            } else {
                Ok(v / 2)
            }
        };
        let name = sym
            .name
            .clone()
            .unwrap_or_else(|| format!("sym{}", sym.number));
        let mut cell = Cell::new(name);
        let mut layer = Layer::Metal;
        let mut inst_counter = 0usize;
        for cmd in &sym.commands {
            match cmd {
                CifCommand::Layer(l) => layer = *l,
                CifCommand::BoxCmd {
                    length,
                    width,
                    cx,
                    cy,
                } => {
                    let (l, w) = (half(*length)?, half(*width)?);
                    // Both edges in CIF units, which a hostile centre can
                    // push past the i64 range.
                    let edges = |c: i64, d: i64| {
                        c.checked_sub(d)
                            .zip(c.checked_add(d))
                            .ok_or_else(|| err(format!("box edge out of range at centre {c}")))
                    };
                    let ((x0, x1), (y0, y1)) = (edges(*cx, l)?, edges(*cy, w)?);
                    let (x0, y0) = (half(x0)?, half(y0)?);
                    let (x1, y1) = (half(x1)?, half(y1)?);
                    cell.push_shape(Shape::rect(layer, Rect::new(x0, y0, x1, y1)));
                }
                CifCommand::Wire { width, points } => {
                    let w = half(*width)?;
                    let pts = points
                        .iter()
                        .map(|p| Ok(Point::new(half(p.x)?, half(p.y)?)))
                        .collect::<Result<Vec<_>, ParseCifError>>()?;
                    let path =
                        Path::new(pts, w).map_err(|e| err(format!("bad wire: {e}")))?;
                    cell.push_shape(Shape::wire(layer, path));
                }
                CifCommand::Poly { points } => {
                    let pts = points
                        .iter()
                        .map(|p| Ok(Point::new(half(p.x)?, half(p.y)?)))
                        .collect::<Result<Vec<_>, ParseCifError>>()?;
                    let poly =
                        Polygon::new(pts).map_err(|e| err(format!("bad polygon: {e}")))?;
                    cell.push_shape(Shape::polygon(layer, poly));
                }
                CifCommand::Call { symbol, transform } => {
                    let child = *ids
                        .get(symbol)
                        .ok_or(ParseCifError::UnknownSymbol(*symbol))?;
                    let t = Transform::new(
                        transform.orient,
                        Point::new(half(transform.offset.x)?, half(transform.offset.y)?),
                    );
                    inst_counter += 1;
                    cell.push_instance(bristle_cell::Instance::new(
                        child,
                        format!("c{inst_counter}"),
                        t,
                    ));
                }
            }
        }
        let id = lib.add_cell(cell)?;
        ids.insert(sym.number, id);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_cif;

    #[test]
    fn round_trip_geometry() {
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, 0, 2, 8)));
        leaf.push_shape(Shape::wire(
            Layer::Poly,
            Path::new(vec![Point::new(-2, 4), Point::new(6, 4)], 2).unwrap(),
        ));
        leaf.push_shape(Shape::polygon(
            Layer::Metal,
            Polygon::from_rect(Rect::new(0, 10, 4, 12)),
        ));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 2)));
        let tid = lib.add_cell(top).unwrap();
        lib.add_instance(
            tid,
            lid,
            "u",
            Transform::new(Orientation::MR90, Point::new(10, -4)),
        )
        .unwrap();

        let text = write_cif(&lib, tid).unwrap();
        let file = parse_cif(&text).unwrap();
        let back = cif_to_library(&file).unwrap();

        let blid = back.find("leaf").unwrap();
        assert_eq!(back.cell(blid).shapes().len(), 3);
        let btid = back.find("top").unwrap();
        let inst = &back.cell(btid).instances()[0];
        assert_eq!(inst.transform.orient, Orientation::MR90);
        assert_eq!(inst.transform.offset, Point::new(10, -4));
        // Geometry identical after round trip.
        assert_eq!(back.cell(blid).shapes()[0], lib.cell(lid).shapes()[0]);
        // Flattened bboxes agree.
        assert_eq!(back.bbox(btid), lib.bbox(tid));
    }

    #[test]
    fn comments_are_stripped()  {
        let text = "(a comment); DS 1 125 1; 9 c; L NM; B 4 4 2 2; DF; C 1 T 0 0; E";
        let file = parse_cif(text).unwrap();
        assert_eq!(file.symbols.len(), 1);
        assert_eq!(file.symbols[0].name.as_deref(), Some("c"));
    }

    #[test]
    fn missing_end_detected() {
        assert_eq!(
            parse_cif("DS 1; DF;"),
            Err(ParseCifError::MissingEnd)
        );
    }

    #[test]
    fn unknown_symbol_detected() {
        let text = "DS 1 125 1; 9 c; C 7 T 0 0; DF; E";
        assert_eq!(parse_cif(text), Err(ParseCifError::UnknownSymbol(7)));
    }

    #[test]
    fn call_transform_order_matches_writer() {
        // MX then R 0 1 then T: the writer's MR90 encoding.
        let cmd = parse_call("1 MX R 0 1 T 4 6", 0).unwrap();
        match cmd {
            CifCommand::Call { transform, .. } => {
                assert_eq!(transform.orient, Orientation::MR90);
                assert_eq!(transform.offset, Point::new(4, 6));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_rotation_rejected() {
        let text = "DS 1; C 1 R 1 1; DF; E";
        assert!(matches!(
            parse_cif(text),
            Err(ParseCifError::Syntax { .. })
        ));
    }
}

//! nMOS PLA artwork generation.
//!
//! The floorplan follows the classic Mead–Conway NOR–NOR structure:
//!
//! ```text
//!            GND rail (AND)            outputs (active-low, to north)
//!            ┌───────────────┐           │ │ │
//!   VDD ──►  │   AND plane   │ boundary ┌┴─┴─┴┐
//!   rail     │ terms: metal→ │ contacts │ OR  │ ◄── GND rail (east)
//!   (pull-   │ inputs: poly↑ │ metal→   │plane│
//!    ups)    │ gnd: diff ↑   │ poly     │     │
//!            └───────────────┘          └─────┘
//!              │││ input drivers (true/complement inverters)
//!              ││└ microcode inputs (from south pads)
//!            VDD + GND driver rails, OR output pull-ups
//! ```
//!
//! * AND plane: input phases are vertical poly columns (a true and a
//!   complement column per used microcode bit), product terms are
//!   horizontal metal rows, ground returns are vertical diffusion
//!   columns. A programmed site is a horizontal diffusion finger from
//!   the ground column across the input poly (the transistor) to a
//!   contact pad under the term row.
//! * Term pull-ups: depletion transistors against the west VDD rail,
//!   gates tied to their terms through buried contacts.
//! * OR plane: terms continue as horizontal poly rows (metal→poly
//!   boundary contacts); outputs are vertical metal columns pulled up by
//!   south-side depletion loads and pulled down by programmed vertical
//!   diffusion fingers. Outputs are **active low** (a NOR plane); the
//!   control buffers of Pass 2 restore polarity.
//! * Input drivers: each microcode input runs straight down to a south
//!   bristle; an inverter (depletion load + enhancement pull-down)
//!   generates the complement column.
//!
//! The geometry is design-rule clean under `bristle-drc` and extracts to
//! a netlist whose switch-level behaviour matches [`Pla::eval`] — both
//! verified in this crate's tests.

use std::fmt;

use bristle_cell::{Bristle, Cell, CellError, CellId, Flavor, Library, PowerInfo, Rail, Shape, Side};
use bristle_geom::{Layer, Point, Rect};

use crate::pla::Pla;

/// Errors from PLA layout generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaLayoutError {
    /// The PLA has no terms or no outputs; there is nothing to draw.
    Empty,
    /// The library rejected the generated cell (duplicate name).
    Cell(CellError),
}

impl fmt::Display for PlaLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaLayoutError::Empty => f.write_str("PLA has no terms or outputs"),
            PlaLayoutError::Cell(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlaLayoutError {}

impl From<CellError> for PlaLayoutError {
    fn from(e: CellError) -> PlaLayoutError {
        PlaLayoutError::Cell(e)
    }
}

/// AND-plane column pitch (one input phase column). Two such columns —
/// true and complement — serve each used microcode bit, so tile math
/// below uses `2 * COL_W = 36`.
#[allow(dead_code)]
const COL_W: i64 = 18;
/// Term row pitch.
const ROW_H: i64 = 16;
/// OR-plane output column pitch.
const OR_COL_W: i64 = 12;

/// Generates the PLA layout cell and adds it to `lib` as `name`.
///
/// Input bristles (`mc<bit>`, poly, south edge) correspond to the PLA's
/// **used** input bits; output bristles carry the output names verbatim
/// (metal, north edge) and are **active low**. `VDD` and `GND` power
/// bristles expose the rails.
///
/// # Errors
///
/// [`PlaLayoutError::Empty`] for degenerate PLAs,
/// [`PlaLayoutError::Cell`] if `name` already exists in `lib`.
pub fn layout_pla(pla: &Pla, lib: &mut Library, name: &str) -> Result<CellId, PlaLayoutError> {
    let used_bits = pla.used_input_bits();
    let n_in = used_bits.len() as i64;
    let n_terms = pla.terms().len() as i64;
    let n_out = pla.outputs().len() as i64;
    if n_terms == 0 || n_out == 0 || n_in == 0 {
        return Err(PlaLayoutError::Empty);
    }

    let w_and = 36 * n_in; // two 18λ columns per used input
    let or_x0 = w_and + 6; // after the boundary contact strip
    let h_grid = ROW_H * n_terms;
    let east = or_x0 + OR_COL_W * n_out + 4; // east GND rail x anchor

    let mut cell = Cell::new(name);
    let m = |r: Rect| Shape::rect(Layer::Metal, r);
    let p = |r: Rect| Shape::rect(Layer::Poly, r);
    let d = |r: Rect| Shape::rect(Layer::Diffusion, r);
    let ct = |r: Rect| Shape::rect(Layer::Contact, r);
    let bu = |r: Rect| Shape::rect(Layer::Buried, r);
    let im = |r: Rect| Shape::rect(Layer::Implant, r);

    // ---- Global rails -------------------------------------------------
    // West VDD rail (vertical) + south VDD rail (horizontal), joined.
    cell.push_shape(m(Rect::new(-15, -24, -11, h_grid + 6)).with_label("VDD"));
    cell.push_shape(m(Rect::new(-15, -24, east - 6, -20)).with_label("VDD"));
    // South driver GND rail, extended east to the east GND rail.
    cell.push_shape(m(Rect::new(-8, -44, east + 2, -40)).with_label("GND"));
    // East GND rail (vertical).
    cell.push_shape(m(Rect::new(east - 2, -44, east + 2, h_grid + 2)).with_label("GND"));
    // North GND rail over the AND plane (ties the ground columns).
    cell.push_shape(m(Rect::new(-8, h_grid + 2, w_and, h_grid + 6)).with_label("GND"));

    // ---- AND plane columns --------------------------------------------
    for (j, &bit) in used_bits.iter().enumerate() {
        let j = j as i64;
        let base_t = 36 * j; // true column tile
        let base_c = 36 * j + 18; // complement column tile
        for (cbase, lbl) in [(base_t, format!("mc{bit}")), (base_c, format!("mc{bit}_n"))] {
            // Ground diffusion column, extended to the north rail pad.
            cell.push_shape(
                d(Rect::new(cbase, 0, cbase + 2, h_grid + 6)).with_label("GND"),
            );
            cell.push_shape(d(Rect::new(cbase - 1, h_grid + 2, cbase + 3, h_grid + 6)));
            cell.push_shape(ct(Rect::new(cbase, h_grid + 3, cbase + 2, h_grid + 5)));
            // Input phase poly column through the grid.
            let col_x = cbase + 6;
            let y0 = if cbase == base_t { -46 } else { -8 };
            cell.push_shape(p(Rect::new(col_x, y0, col_x + 2, h_grid)).with_label(lbl));
        }

        // Input driver: true column runs to the south edge; an inverter
        // drives the complement column. Geometry anchored at B = tile of
        // the complement column.
        let b = base_c;
        // Inverter diffusion strip with VDD (top) and GND (bottom) pads.
        cell.push_shape(d(Rect::new(b + 10, -40, b + 12, -20)));
        cell.push_shape(d(Rect::new(b + 9, -24, b + 13, -20)));
        cell.push_shape(ct(Rect::new(b + 10, -23, b + 12, -21)));
        cell.push_shape(d(Rect::new(b + 9, -44, b + 13, -40)));
        cell.push_shape(ct(Rect::new(b + 10, -43, b + 12, -41)));
        // Enhancement pull-down: gate branch from the true column.
        cell.push_shape(p(Rect::new(b - 10, -38, b + 14, -36)).with_label(format!("mc{bit}")));
        // Depletion pull-up; its gate ties to the output node below it
        // through a buried-contact arm that *touches* (never overlaps)
        // the gate poly, so the only poly∩diff region is the gate itself.
        cell.push_shape(p(Rect::new(b + 8, -28, b + 14, -26)));
        cell.push_shape(p(Rect::new(b + 10, -33, b + 12, -28)));
        cell.push_shape(bu(Rect::new(b + 10, -33, b + 12, -28)));
        cell.push_shape(im(Rect::new(b + 9, -29, b + 13, -25)));
        // Complement takeoff: poly from the output node to the
        // complement column, with a jog onto the column x position.
        cell.push_shape(p(Rect::new(b + 6, -33, b + 12, -31)).with_label(format!("mc{bit}_n")));
        cell.push_shape(p(Rect::new(b + 4, -33, b + 6, -8)));
        cell.push_shape(p(Rect::new(b + 4, -10, b + 8, -8)));

        // Input bristle at the south end of the true column.
        cell.push_bristle(Bristle::new(
            format!("mc{bit}"),
            Layer::Poly,
            Point::new(base_t + 7, -46),
            Side::South,
            Flavor::Signal,
        ));
    }

    // ---- Term rows ------------------------------------------------------
    for (t, term) in pla.terms().iter().enumerate() {
        let y = ROW_H * t as i64; // row base
        // Term metal row across the AND plane to the boundary contact.
        cell.push_shape(
            m(Rect::new(-7, y + 6, w_and + 5, y + 10)).with_label(format!("term{t}")),
        );
        // West pull-up: VDD contact, depletion gate tied via buried
        // contact, term contact.
        cell.push_shape(d(Rect::new(-14, y + 7, -3, y + 9)));
        cell.push_shape(d(Rect::new(-15, y + 6, -11, y + 10)));
        cell.push_shape(ct(Rect::new(-14, y + 7, -12, y + 9)));
        cell.push_shape(p(Rect::new(-10, y + 5, -8, y + 11)));
        cell.push_shape(p(Rect::new(-8, y + 7, -6, y + 9)));
        cell.push_shape(bu(Rect::new(-8, y + 7, -6, y + 9)));
        cell.push_shape(im(Rect::new(-11, y + 6, -7, y + 10)));
        cell.push_shape(d(Rect::new(-7, y + 6, -3, y + 10)));
        cell.push_shape(ct(Rect::new(-6, y + 7, -4, y + 9)));
        // Boundary contact: term metal → OR-plane poly row.
        cell.push_shape(p(Rect::new(w_and + 1, y + 6, w_and + 5, y + 10)));
        cell.push_shape(ct(Rect::new(w_and + 2, y + 7, w_and + 4, y + 9)));
        // Term poly row across the OR plane.
        cell.push_shape(p(Rect::new(w_and + 5, y + 6, east - 3, y + 8)));

        // AND-plane programming: cube bit b = 1 taps the complement
        // column (complement low ⇒ bit high passes); bit = 0 taps true.
        for (j, &bit) in used_bits.iter().enumerate() {
            if term.care >> bit & 1 == 0 {
                continue;
            }
            let wants_one = term.value >> bit & 1 == 1;
            let tile = 36 * j as i64 + if wants_one { 18 } else { 0 };
            // Diffusion finger from the ground column across the poly
            // column to the term contact pad.
            cell.push_shape(d(Rect::new(tile + 2, y + 7, tile + 10, y + 9)));
            cell.push_shape(d(Rect::new(tile + 10, y + 6, tile + 14, y + 10)));
            cell.push_shape(ct(Rect::new(tile + 11, y + 7, tile + 13, y + 9)));
        }
    }

    // ---- OR plane -------------------------------------------------------
    // Ground diffusion rows with east-rail contacts.
    for t in 0..n_terms {
        let y = ROW_H * t;
        cell.push_shape(d(Rect::new(or_x0, y, east, y + 2)).with_label("GND"));
        cell.push_shape(d(Rect::new(east - 2, y - 1, east + 2, y + 3)));
        cell.push_shape(ct(Rect::new(east - 1, y, east + 1, y + 2)));
    }
    for (o, (out_name, term_ids)) in pla.outputs().iter().enumerate() {
        let ox = or_x0 + OR_COL_W * o as i64;
        // Output metal column from the south pull-up to the north exit.
        cell.push_shape(
            m(Rect::new(ox + 2, -11, ox + 6, h_grid + 8)).with_label(out_name.clone()),
        );
        // South depletion pull-up; the gate-tie arm touches the gate poly
        // (see the driver inverter above for the idiom).
        cell.push_shape(d(Rect::new(ox + 3, -21, ox + 5, -7)));
        cell.push_shape(d(Rect::new(ox + 2, -24, ox + 6, -20)));
        cell.push_shape(ct(Rect::new(ox + 3, -23, ox + 5, -21)));
        cell.push_shape(p(Rect::new(ox + 1, -16, ox + 7, -14)));
        cell.push_shape(p(Rect::new(ox + 3, -14, ox + 5, -9)));
        cell.push_shape(bu(Rect::new(ox + 3, -14, ox + 5, -9)));
        cell.push_shape(im(Rect::new(ox + 2, -17, ox + 6, -13)));
        cell.push_shape(d(Rect::new(ox + 2, -11, ox + 6, -7)));
        cell.push_shape(ct(Rect::new(ox + 3, -10, ox + 5, -8)));
        // Programming: vertical diffusion finger across the term poly.
        for &t in term_ids {
            let y = ROW_H * t as i64;
            cell.push_shape(d(Rect::new(ox + 8, y, ox + 10, y + 11)));
            cell.push_shape(d(Rect::new(ox + 7, y + 9, ox + 11, y + 13)));
            cell.push_shape(ct(Rect::new(ox + 8, y + 10, ox + 10, y + 12)));
            cell.push_shape(m(Rect::new(ox + 2, y + 9, ox + 11, y + 13)));
        }
        // Output bristle (active low) at the north edge.
        cell.push_bristle(Bristle::new(
            out_name.clone(),
            Layer::Metal,
            Point::new(ox + 4, h_grid + 8),
            Side::North,
            Flavor::Signal,
        ));
    }

    // ---- Power bristles -------------------------------------------------
    cell.push_bristle(Bristle::new(
        "VDD",
        Layer::Metal,
        Point::new(-13, h_grid + 6),
        Side::North,
        Flavor::Power(Rail::Vdd),
    ));
    cell.push_bristle(Bristle::new(
        "GND",
        Layer::Metal,
        Point::new(-8, h_grid + 4),
        Side::West,
        Flavor::Power(Rail::Gnd),
    ));
    cell.push_bristle(Bristle::new(
        "GND_E",
        Layer::Metal,
        Point::new(east + 1, h_grid + 2),
        Side::North,
        Flavor::Power(Rail::Gnd),
    ));

    // Power estimate: each pull-up draws roughly 100 µA when its line is
    // low; count pull-ups.
    let pullups = (n_terms + n_out) as u64;
    cell.set_power(PowerInfo::new(100 * pullups));
    cell.reprs_mut().doc = format!(
        "Instruction decoder PLA: {} used inputs, {} product terms, {} outputs \
         (active low). NOR-NOR nMOS structure per Mead & Conway.",
        n_in, n_terms, n_out
    );
    cell.reprs_mut().block_label = Some("DECODER".into());

    Ok(lib.add_cell(cell)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Cube, DecodeSpec};
    use bristle_drc::{check_flat, RuleSet};
    use bristle_extract::extract;
    use bristle_sim::{Level, SwitchSim};

    /// x = (b1 b0 == 01), y = (b1 b0 == 10) OR (b2 == 1): a two-term OR
    /// column, which no decode line asks for but the OR plane supports.
    fn small_pla() -> Pla {
        let terms = vec![
            Cube { care: 0b011, value: 0b001 },
            Cube { care: 0b011, value: 0b010 },
            Cube { care: 0b100, value: 0b100 },
        ];
        Pla::from_parts(3, terms, vec![("x".into(), vec![0]), ("y".into(), vec![1, 2])])
    }

    #[test]
    fn layout_is_drc_clean() {
        let pla = small_pla();
        let mut lib = Library::new("t");
        let id = layout_pla(&pla, &mut lib, "dec").unwrap();
        let report = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn layout_extracts_expected_devices() {
        let pla = small_pla();
        let mut lib = Library::new("t");
        let id = layout_pla(&pla, &mut lib, "dec").unwrap();
        let netlist = extract(&lib, id);
        let stats = pla.stats();
        // Depletion devices: term pull-ups + output pull-ups + one per
        // input driver.
        let dep = netlist
            .transistors
            .iter()
            .filter(|t| t.kind == bristle_extract::TransistorKind::Depletion)
            .count();
        assert_eq!(dep, stats.terms + stats.outputs + stats.used_inputs as usize);
        // Enhancement devices: AND sites + OR sites + one per driver.
        let enh = netlist
            .transistors
            .iter()
            .filter(|t| t.kind == bristle_extract::TransistorKind::Enhancement)
            .count();
        assert_eq!(
            enh,
            stats.and_sites + stats.or_sites + stats.used_inputs as usize
        );
    }

    #[test]
    fn silicon_matches_logic() {
        // The acid test: lay the PLA out, extract it, switch-simulate the
        // artwork, and compare with the symbolic evaluation for every
        // input word. Outputs are active low.
        let pla = small_pla();
        let mut lib = Library::new("t");
        let id = layout_pla(&pla, &mut lib, "dec").unwrap();
        let netlist = extract(&lib, id);
        let mut sim = SwitchSim::new(&netlist);
        for word in 0u64..8 {
            for bit in 0..3u32 {
                sim.set_input(
                    &format!("mc{bit}"),
                    Level::from_bool(word >> bit & 1 == 1),
                )
                .unwrap();
            }
            sim.settle().unwrap();
            for (name, want) in pla.eval(word) {
                let got = sim.level(&name).unwrap();
                // Active low: silicon level is the complement.
                let expect = Level::from_bool(!want);
                assert_eq!(got, expect, "word={word:03b} output={name}");
            }
        }
    }

    #[test]
    fn empty_pla_rejected() {
        let spec = DecodeSpec::new(4);
        let pla = spec.to_pla();
        let mut lib = Library::new("t");
        assert_eq!(
            layout_pla(&pla, &mut lib, "dec").unwrap_err(),
            PlaLayoutError::Empty
        );
    }

    #[test]
    fn bristles_present() {
        let pla = small_pla();
        let mut lib = Library::new("t");
        let id = layout_pla(&pla, &mut lib, "dec").unwrap();
        let cell = lib.cell(id);
        let names: Vec<&str> = cell.bristles().iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"mc0"));
        assert!(names.contains(&"mc2"));
        assert!(names.contains(&"x"));
        assert!(names.contains(&"y"));
        assert!(names.contains(&"VDD"));
        assert!(names.contains(&"GND"));
        // Outputs exit north.
        let x = cell.bristles().iter().find(|b| b.name == "x").unwrap();
        assert_eq!(x.side, Side::North);
    }
}

//! Perimeter pads and control buffers: the chip-frame cells Pass 2 and
//! Pass 3 instantiate automatically.

use bristle_cell::{Bristle, Cell, CellReprs, Flavor, PadKind, PowerInfo, Rail, Shape, Side};
use bristle_geom::{Layer, Point, Rect};

/// Bonding pad edge length in λ.
pub const PAD_SIZE: i64 = 40;

/// Builds a bonding pad cell of the given kind.
///
/// The pad is a `PAD_SIZE`² metal square with an overglass opening and a
/// `Signal` bristle centered on the **south** edge (the chip-assembly
/// side); Pass 3 rotates instances so the bristle faces the core.
///
/// # Examples
///
/// ```
/// use bristle_stdcells::{pad_cell, PAD_SIZE};
/// use bristle_cell::PadKind;
///
/// let pad = pad_cell(PadKind::Input, "pad_input");
/// assert_eq!(pad.name(), "pad_input");
/// assert_eq!(pad.local_bbox().unwrap().width(), PAD_SIZE);
/// ```
#[must_use]
pub fn pad_cell(kind: PadKind, name: &str) -> Cell {
    let mut cell = Cell::new(name);
    cell.push_shape(
        Shape::rect(Layer::Metal, Rect::new(0, 0, PAD_SIZE, PAD_SIZE))
            .with_label(format!("pad_{kind}")),
    );
    cell.push_shape(Shape::rect(
        Layer::Overglass,
        Rect::new(8, 8, PAD_SIZE - 8, PAD_SIZE - 8),
    ));
    let flavor = match kind {
        PadKind::Vdd => Flavor::Power(Rail::Vdd),
        PadKind::Gnd => Flavor::Power(Rail::Gnd),
        _ => Flavor::Signal,
    };
    cell.push_bristle(Bristle::new(
        "pin",
        Layer::Metal,
        Point::new(PAD_SIZE / 2, 0),
        Side::South,
        flavor,
    ));
    cell.set_power(PowerInfo::new(match kind {
        PadKind::Output => 800,
        _ => 0,
    }));
    *cell.reprs_mut() = CellReprs {
        doc: format!("{kind} bonding pad ({PAD_SIZE}λ square, overglass opening)."),
        block_label: Some(format!("PAD:{kind}")),
        ..CellReprs::default()
    };
    cell
}

/// Builds a control buffer: the cell Pass 2 places between a decoder
/// output and a core control line.
///
/// *"control buffers to drive the control lines are inserted along the
/// edge of the core. The timing is also added to the control signals by
/// the buffers."* The decoder's PLA outputs are active low; this buffer
/// is one nMOS inverter (depletion load, enhancement driver), restoring
/// polarity and providing drive. Input enters on poly from the south,
/// output leaves on poly to the north; VDD/GND rails run horizontally
/// for abutment into a buffer row.
#[must_use]
pub fn control_buffer(name: &str) -> Cell {
    let mut cell = Cell::new(name);
    let w = 24;
    let top = 44;
    // Rails.
    cell.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, w, 4)).with_label("GND"));
    cell.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 36, w, 40)).with_label("VDD"));
    // Inverter strip (the verified pattern from the PLA input drivers):
    // GND pad at the bottom, VDD strap at the top, enhancement gate from
    // the input, depletion pull-up tied to the output node.
    cell.push_shape(Shape::rect(Layer::Diffusion, Rect::new(10, 2, 12, 30)));
    cell.push_shape(Shape::rect(Layer::Diffusion, Rect::new(9, 0, 13, 4)));
    cell.push_shape(Shape::rect(Layer::Contact, Rect::new(10, 1, 12, 3)));
    cell.push_shape(Shape::rect(Layer::Diffusion, Rect::new(9, 26, 13, 30)));
    cell.push_shape(Shape::rect(Layer::Contact, Rect::new(10, 27, 12, 29)));
    cell.push_shape(Shape::rect(Layer::Metal, Rect::new(9, 26, 13, 40)));
    // Input: poly from the south edge, branch crossing the strip.
    cell.push_shape(
        Shape::rect(Layer::Poly, Rect::new(2, 0, 4, 10)).with_label("in"),
    );
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(2, 8, 16, 10)));
    // Depletion pull-up at y 18..20, gate tied to the node below it.
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(8, 18, 16, 20)));
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(10, 13, 12, 18)));
    cell.push_shape(Shape::rect(Layer::Buried, Rect::new(10, 13, 12, 18)));
    cell.push_shape(Shape::rect(Layer::Implant, Rect::new(9, 17, 13, 21)));
    // Output takeoff: poly from the node, jog west, column to the north.
    cell.push_shape(
        Shape::rect(Layer::Poly, Rect::new(4, 13, 12, 15)).with_label("out"),
    );
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(4, 13, 6, 33)));
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(4, 31, 20, 33)));
    cell.push_shape(Shape::rect(Layer::Poly, Rect::new(18, 31, 20, top)));
    // Bristles.
    cell.push_bristle(Bristle::new(
        "in",
        Layer::Poly,
        Point::new(3, 0),
        Side::South,
        Flavor::Signal,
    ));
    cell.push_bristle(Bristle::new(
        "out",
        Layer::Poly,
        Point::new(19, top),
        Side::North,
        Flavor::Signal,
    ));
    cell.push_bristle(Bristle::new(
        "gnd_w",
        Layer::Metal,
        Point::new(0, 2),
        Side::West,
        Flavor::Power(Rail::Gnd),
    ));
    cell.push_bristle(Bristle::new(
        "vdd_w",
        Layer::Metal,
        Point::new(0, 38),
        Side::West,
        Flavor::Power(Rail::Vdd),
    ));
    cell.set_power(PowerInfo::new(150));
    *cell.reprs_mut() = CellReprs {
        doc: "Control buffer: inverts the decoder's active-low output and drives the core \
              control line."
            .into(),
        block_label: Some("BUF".into()),
        ..CellReprs::default()
    };
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::Library;
    use bristle_drc::{check_flat, RuleSet};
    use bristle_extract::{extract, TransistorKind};
    use bristle_sim::{Level, SwitchSim};

    #[test]
    fn pad_cells_are_drc_clean() {
        for kind in PadKind::ALL {
            let mut lib = Library::new("t");
            let id = lib.add_cell(pad_cell(kind, &format!("pad_{kind}"))).unwrap();
            let r = check_flat(&lib, id, &RuleSet::mead_conway());
            assert!(r.is_clean(), "{kind}: {r}");
        }
    }

    #[test]
    fn buffer_is_drc_clean() {
        let mut lib = Library::new("t");
        let id = lib.add_cell(control_buffer("buf")).unwrap();
        let r = check_flat(&lib, id, &RuleSet::mead_conway());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn buffer_extracts_an_inverter() {
        let mut lib = Library::new("t");
        let id = lib.add_cell(control_buffer("buf")).unwrap();
        let n = extract(&lib, id);
        let dep = n
            .transistors
            .iter()
            .filter(|t| t.kind == TransistorKind::Depletion)
            .count();
        let enh = n
            .transistors
            .iter()
            .filter(|t| t.kind == TransistorKind::Enhancement)
            .count();
        assert_eq!((dep, enh), (1, 1), "{n}");
    }

    #[test]
    fn buffer_inverts_on_silicon() {
        let mut lib = Library::new("t");
        let id = lib.add_cell(control_buffer("buf")).unwrap();
        let n = extract(&lib, id);
        let mut sim = SwitchSim::new(&n);
        sim.set_input("in", Level::L0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L1);
        sim.set_input("in", Level::L1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.level("out").unwrap(), Level::L0);
    }

    #[test]
    fn pad_bristle_flavors() {
        let p = pad_cell(PadKind::Vdd, "pv");
        assert!(matches!(
            p.bristles()[0].flavor,
            Flavor::Power(Rail::Vdd)
        ));
        let p = pad_cell(PadKind::Input, "pi");
        assert!(matches!(p.bristles()[0].flavor, Flavor::Signal));
    }
}

//! The seven representations.
//!
//! *"The representations span the entire range from the physical to the
//! conceptual aspects of the chip."*

use std::fmt::Write as _;

use bristle_cell::{LogicGate, ShapeGeom, Stick};
use bristle_cif::{render_svg, write_cif, SvgOptions, WriteCifError};
use bristle_extract::{extract, Netlist};
use bristle_geom::Point;

use crate::compile::CompiledChip;

impl CompiledChip {
    /// LAYOUT: the full mask set as CIF 2.0.
    ///
    /// # Errors
    ///
    /// Propagates CIF emission failures.
    pub fn layout_cif(&self) -> Result<String, WriteCifError> {
        write_cif(&self.lib, self.top)
    }

    /// LAYOUT: an SVG rendering for inspection.
    #[must_use]
    pub fn layout_svg(&self) -> String {
        render_svg(&self.lib, self.top, &SvgOptions::default())
    }

    /// STICKS: every long conductor as a single-width center-line,
    /// preserving the layout topology.
    #[must_use]
    pub fn sticks(&self) -> Vec<Stick> {
        let mut sticks = Vec::new();
        for shape in self.lib.flatten_shared(self.top).iter() {
            if !shape.layer.is_conductor() {
                continue;
            }
            match &shape.geom {
                ShapeGeom::Box(r) => {
                    // Long thin boxes become sticks along their long axis.
                    if r.width() >= 3 * r.height() {
                        let y = (r.y0 + r.y1) / 2;
                        sticks.push(Stick::new(
                            shape.layer,
                            Point::new(r.x0, y),
                            Point::new(r.x1, y),
                        ));
                    } else if r.height() >= 3 * r.width() {
                        let x = (r.x0 + r.x1) / 2;
                        sticks.push(Stick::new(
                            shape.layer,
                            Point::new(x, r.y0),
                            Point::new(x, r.y1),
                        ));
                    }
                }
                ShapeGeom::Wire(p) => {
                    for seg in p.points().windows(2) {
                        sticks.push(Stick::new(shape.layer, seg[0], seg[1]));
                    }
                }
                ShapeGeom::Poly(_) => {}
            }
        }
        sticks
    }

    /// STICKS rendered as SVG line work.
    #[must_use]
    pub fn sticks_svg(&self) -> String {
        let sticks = self.sticks();
        let bb = self.die_bbox.inflate(4);
        let s = 2.0;
        let mx = |x: i64| (x - bb.x0) as f64 * s;
        let my = |y: i64| (bb.y1 - y) as f64 * s;
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}">"#,
            bb.width() as f64 * s,
            bb.height() as f64 * s
        );
        for st in &sticks {
            let _ = writeln!(
                out,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{}" stroke-width="1"/>"#,
                mx(st.from.x),
                my(st.from.y),
                mx(st.to.x),
                my(st.to.y),
                st.layer.color()
            );
        }
        let _ = writeln!(out, "</svg>");
        out
    }

    /// TRANSISTORS: the extracted netlist of the whole chip.
    #[must_use]
    pub fn transistors(&self) -> Netlist {
        extract(&self.lib, self.top)
    }

    /// LOGIC: the TTL-style gate list, gathered from every cell with
    /// instance-qualified net names.
    #[must_use]
    pub fn logic(&self) -> Vec<LogicGate> {
        let mut gates = Vec::new();
        for e in &self.elements {
            for &col in &e.columns {
                let cell = self.lib.cell(col);
                for g in &cell.reprs().logic {
                    let mut qualified = g.clone();
                    qualified.output = format!("{}.{}", e.prefix, g.output);
                    qualified.inputs = g
                        .inputs
                        .iter()
                        .map(|i| format!("{}.{i}", e.prefix))
                        .collect();
                    gates.push(qualified);
                }
            }
        }
        gates
    }

    /// TEXT: the hierarchical "user's manual for the completed chip".
    #[must_use]
    pub fn text_manual(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "================================================");
        let _ = writeln!(out, " CHIP `{}` — user's manual", self.spec.name);
        let _ = writeln!(out, "================================================");
        let _ = writeln!(out);
        let _ = writeln!(out, "Data width : {} bits", self.spec.data_width);
        let _ = writeln!(out, "Buses      : {}", self.spec.buses.join(", "));
        let _ = writeln!(out, "Slice pitch: {}λ", self.pitch);
        let _ = writeln!(out, "Core       : {}", self.core_bbox);
        let _ = writeln!(out, "Die        : {}", self.die_bbox);
        let _ = writeln!(out, "Pads       : {}", self.pad_count);
        let _ = writeln!(out);
        let _ = writeln!(out, "MICROCODE WORD ({} bits)", self.microcode.word_width());
        for f in self.microcode.fields() {
            let _ = writeln!(
                out,
                "  [{:>2}:{:>2}] {}",
                f.offset + f.width - 1,
                f.offset,
                f.name
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "CORE ELEMENTS (west to east)");
        for e in &self.elements {
            let title = if e.index == usize::MAX {
                format!("{} (inserted by the compiler)", e.kind)
            } else {
                e.kind.clone()
            };
            let _ = writeln!(
                out,
                "  {:<24} x∈[{},{}) columns={}",
                title,
                e.x_span.0,
                e.x_span.1,
                e.columns.len()
            );
            if let Some(&col) = e.columns.first() {
                let doc = &self.lib.cell(col).reprs().doc;
                if !doc.is_empty() {
                    let _ = writeln!(out, "      {doc}");
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "CONTROL LINES ({} total)", self.controls.len());
        for (name, line) in &self.controls {
            let _ = writeln!(out, "  {name:<28} <= {line}");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "DECODER: {} (two-tape machine ran {} steps)",
            self.pla.stats(),
            self.tape_steps
        );
        out
    }

    /// BLOCK, physical mode: the paper's Figure 1 (pads around a core
    /// and decoder).
    #[must_use]
    pub fn block_physical(&self) -> String {
        let mut out = String::new();
        let inner = 44usize;
        let pad_row = "  ".to_owned() + &"[PAD] ".repeat(inner / 7);
        let _ = writeln!(out, "{pad_row}");
        let _ = writeln!(out, "  +{}+", "-".repeat(inner));
        // Core row with element labels.
        let mut labels: Vec<String> = Vec::new();
        for e in &self.elements {
            if let Some(&col) = e.columns.first() {
                if let Some(l) = &self.lib.cell(col).reprs().block_label {
                    labels.push(format!("{l}"));
                }
            }
        }
        let core_line = labels.join("|");
        let _ = writeln!(out, "P |{:^inner$}| P", "", inner = inner);
        let _ = writeln!(out, "A |{core_line:^inner$}| A");
        let _ = writeln!(out, "D |{:^inner$}| D", "(core elements)", inner = inner);
        let _ = writeln!(out, "S |{:-^inner$}| S", "", inner = inner);
        let _ = writeln!(out, "  |{:^inner$}|", "DECODER", inner = inner);
        let _ = writeln!(out, "  +{}+", "-".repeat(inner));
        let _ = writeln!(out, "{pad_row}");
        let _ = writeln!(out, "        microcode inputs (south pads)");
        out
    }

    /// BLOCK, logical mode: the paper's Figure 2 (two buses through the
    /// elements, control signals rising from the decoder).
    #[must_use]
    pub fn block_logical(&self) -> String {
        let mut out = String::new();
        let labels: Vec<String> = self
            .elements
            .iter()
            .filter(|e| e.index != usize::MAX)
            .map(|e| {
                e.columns
                    .first()
                    .and_then(|&c| self.lib.cell(c).reprs().block_label.clone())
                    .unwrap_or_else(|| e.kind.clone())
            })
            .collect();
        let boxes: Vec<String> = labels.iter().map(|l| format!("[{l:^7}]")).collect();
        let row = boxes.join("──");
        let width = row.chars().count();
        let _ = writeln!(out, "Upper Bus ══{}══", "═".repeat(width));
        let _ = writeln!(out, "            {row}");
        let _ = writeln!(out, "Lower Bus ══{}══", "═".repeat(width));
        let arrows = (0..labels.len())
            .map(|_| format!("{:^9}", "↑ ↑ ↑"))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "            {arrows}   control signals");
        let _ = writeln!(
            out,
            "            [{:^width$}]",
            "INSTRUCTION DECODER",
            width = width.saturating_sub(2)
        );
        let _ = writeln!(
            out,
            "            {:^width$}",
            "↑↑↑ microcode ↑↑↑",
            width = width
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{ChipSpec, Compiler};

    fn chip() -> crate::CompiledChip {
        let spec = ChipSpec::builder("rt")
            .data_width(4)
            .element("registers", &[("count", 2)])
            .element("alu", &[])
            .build()
            .unwrap();
        Compiler::new().compile(&spec).unwrap()
    }

    #[test]
    fn all_seven_representations_emit() {
        let c = chip();
        assert!(c.layout_cif().unwrap().contains("DS"));
        assert!(c.layout_svg().starts_with("<svg"));
        assert!(!c.sticks().is_empty());
        assert!(c.sticks_svg().contains("<line"));
        let n = c.transistors();
        assert!(n.transistors.len() > 10);
        assert!(!c.logic().is_empty());
        let manual = c.text_manual();
        assert!(manual.contains("MICROCODE WORD"));
        assert!(manual.contains("CONTROL LINES"));
        assert!(c.simulation().is_ok());
        assert!(c.block_physical().contains("DECODER"));
        assert!(c.block_logical().contains("Upper Bus"));

        // SIMULATION covers every element kind the cell library can draw:
        // each kind compiles alone, and its machine steps through every
        // value of every microcode field.
        for g in bristle_stdcells::all_generators() {
            let kind = g.name();
            if kind == "precharge" {
                continue; // inserted by the compiler, never named
            }
            let spec = ChipSpec::builder(kind)
                .data_width(4)
                .element(kind, &[])
                .build()
                .unwrap();
            let c = Compiler::new().compile(&spec).unwrap();
            let mut m = c
                .simulation()
                .unwrap_or_else(|e| panic!("`{kind}` has no behavior: {e}"));
            for f in c.microcode.fields() {
                for v in 0..1u64 << f.width {
                    let word = c.microcode.encode(&[(f.name.as_str(), v)]).unwrap();
                    m.step_word(word).unwrap();
                }
            }
            assert!(m.cycle() > 0, "`{kind}` has no microcode fields");
        }
    }

    #[test]
    fn logic_gates_are_qualified() {
        let c = chip();
        let gates = c.logic();
        assert!(gates.iter().any(|g| g.output.starts_with("e0_registers.")));
    }
}

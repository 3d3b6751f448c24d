//! Rule definitions.

use std::fmt;

use bristle_geom::Layer;

/// The category of a design-rule violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleKind {
    /// A drawn shape is narrower than its layer's minimum width.
    MinWidth(Layer),
    /// Two shapes on one layer are closer than the layer's minimum
    /// spacing (but not touching).
    MinSpacing(Layer),
    /// Unrelated poly and diffusion closer than the poly–diffusion
    /// separation.
    PolyDiffSpacing,
    /// Poly does not overhang a transistor gate far enough.
    GateOverhang,
    /// Diffusion does not extend far enough past a gate (source/drain).
    SourceDrainExtension,
    /// A contact cut has the wrong size.
    ContactSize,
    /// A contact cut is not sufficiently enclosed by metal.
    ContactMetalEnclosure,
    /// A contact cut is not sufficiently enclosed by poly or diffusion.
    ContactLandingEnclosure,
    /// Implant partially overlaps a gate, or surrounds it too tightly,
    /// or comes too close to an enhancement gate.
    ImplantCoverage,
    /// A buried contact is not sufficiently enclosed by both poly and
    /// diffusion.
    BuriedEnclosure,
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleKind::MinWidth(l) => write!(f, "min-width({l})"),
            RuleKind::MinSpacing(l) => write!(f, "min-spacing({l})"),
            RuleKind::PolyDiffSpacing => f.write_str("poly-diff-spacing"),
            RuleKind::GateOverhang => f.write_str("gate-overhang"),
            RuleKind::SourceDrainExtension => f.write_str("source-drain-extension"),
            RuleKind::ContactSize => f.write_str("contact-size"),
            RuleKind::ContactMetalEnclosure => f.write_str("contact-metal-enclosure"),
            RuleKind::ContactLandingEnclosure => f.write_str("contact-landing-enclosure"),
            RuleKind::ImplantCoverage => f.write_str("implant-coverage"),
            RuleKind::BuriedEnclosure => f.write_str("buried-enclosure"),
        }
    }
}

/// A λ rule set: the workspace's one table of λ rules.
/// [`RuleSet::mead_conway`] gives the 1978 values used by Bristle Blocks
/// and is the only rule set any caller builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    /// Minimum drawn width per conductor layer (λ).
    pub min_width_diff: i64,
    /// Minimum poly width.
    pub min_width_poly: i64,
    /// Minimum metal width.
    pub min_width_metal: i64,
    /// Diffusion–diffusion spacing.
    pub space_diff: i64,
    /// Poly–poly spacing.
    pub space_poly: i64,
    /// Metal–metal spacing.
    pub space_metal: i64,
    /// Poly–diffusion separation when not forming a transistor.
    pub space_poly_diff: i64,
    /// Poly overhang past the gate.
    pub gate_overhang: i64,
    /// Diffusion source/drain extension past the gate.
    pub sd_extension: i64,
    /// Contact cut edge length (cuts are square).
    pub contact_size: i64,
    /// Enclosure of contacts by metal and by the landing layer.
    pub contact_enclosure: i64,
    /// Implant surround of depletion gates / clearance to others.
    pub implant_margin: i64,
}

impl RuleSet {
    /// The Mead–Conway 1978 nMOS rules, on the integer λ grid.
    #[must_use]
    pub fn mead_conway() -> RuleSet {
        RuleSet {
            min_width_diff: 2,
            min_width_poly: 2,
            min_width_metal: 3,
            space_diff: 3,
            space_poly: 2,
            space_metal: 3,
            space_poly_diff: 1,
            gate_overhang: 2,
            sd_extension: 2,
            contact_size: 2,
            contact_enclosure: 1,
            implant_margin: 1,
        }
    }

    /// Minimum width of a conductor layer under these rules.
    #[must_use]
    pub fn min_width(&self, layer: Layer) -> Option<i64> {
        match layer {
            Layer::Diffusion => Some(self.min_width_diff),
            Layer::Poly => Some(self.min_width_poly),
            Layer::Metal => Some(self.min_width_metal),
            _ => None,
        }
    }

    /// Same-layer spacing of a conductor layer under these rules.
    #[must_use]
    pub fn min_spacing(&self, layer: Layer) -> Option<i64> {
        match layer {
            Layer::Diffusion => Some(self.space_diff),
            Layer::Poly => Some(self.space_poly),
            Layer::Metal => Some(self.space_metal),
            _ => None,
        }
    }
}

impl Default for RuleSet {
    fn default() -> RuleSet {
        RuleSet::mead_conway()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mead_conway_values() {
        let r = RuleSet::mead_conway();
        assert_eq!(r.min_width(Layer::Metal), Some(3));
        assert_eq!(r.min_width(Layer::Poly), Some(2));
        assert_eq!(r.min_width(Layer::Contact), None);
        assert_eq!(r.min_spacing(Layer::Diffusion), Some(3));
        assert_eq!(r.min_spacing(Layer::Poly), Some(2));
        assert_eq!(RuleSet::default(), r);
    }

    #[test]
    fn rule_kind_display() {
        assert_eq!(RuleKind::MinWidth(Layer::Metal).to_string(), "min-width(NM)");
        assert_eq!(RuleKind::GateOverhang.to_string(), "gate-overhang");
    }
}

//! The Mead–Conway nMOS mask layer set.

use std::fmt;
use std::str::FromStr;

/// An nMOS mask layer, following Mead & Conway (1978) and the CIF 2.0
/// layer names used at Caltech when Bristle Blocks was written.
///
/// | Layer | CIF | Purpose |
/// |---|---|---|
/// | `Diffusion` | `ND` | n⁺ diffusion: transistor channels, local wiring |
/// | `Implant` | `NI` | depletion implant: marks depletion-mode pull-ups |
/// | `Poly` | `NP` | polysilicon: gates and mid-range wiring |
/// | `Contact` | `NC` | contact cuts joining metal to poly or diffusion |
/// | `Buried` | `NB` | buried contacts joining poly directly to diffusion |
/// | `Metal` | `NM` | metal: buses, power rails, long-range wiring |
/// | `Overglass` | `NG` | passivation openings over bonding pads |
///
/// # Examples
///
/// ```
/// use bristle_geom::Layer;
///
/// assert_eq!(Layer::Poly.cif_name(), "NP");
/// assert_eq!("NM".parse::<Layer>().unwrap(), Layer::Metal);
/// assert!(Layer::Metal.is_conductor());
/// assert!(!Layer::Implant.is_conductor());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// n⁺ diffusion (`ND`).
    Diffusion,
    /// Depletion-mode implant (`NI`).
    Implant,
    /// Polysilicon (`NP`).
    Poly,
    /// Contact cut (`NC`).
    Contact,
    /// Buried contact (`NB`).
    Buried,
    /// Metal (`NM`).
    Metal,
    /// Overglass / passivation opening (`NG`).
    Overglass,
}

impl Layer {
    /// All layers in mask order (bottom of the wafer up).
    pub const ALL: [Layer; 7] = [
        Layer::Diffusion,
        Layer::Implant,
        Layer::Poly,
        Layer::Contact,
        Layer::Buried,
        Layer::Metal,
        Layer::Overglass,
    ];

    /// The CIF 2.0 layer name.
    #[must_use]
    pub fn cif_name(self) -> &'static str {
        match self {
            Layer::Diffusion => "ND",
            Layer::Implant => "NI",
            Layer::Poly => "NP",
            Layer::Contact => "NC",
            Layer::Buried => "NB",
            Layer::Metal => "NM",
            Layer::Overglass => "NG",
        }
    }

    /// True for layers that carry signals (participate in connectivity
    /// extraction): diffusion, poly and metal.
    #[must_use]
    pub fn is_conductor(self) -> bool {
        matches!(self, Layer::Diffusion | Layer::Poly | Layer::Metal)
    }

    /// Fill color used by the SVG layout renderer, mirroring the familiar
    /// Mead–Conway color plates (green diffusion, red poly, blue metal,
    /// yellow implant, black contacts).
    #[must_use]
    pub fn color(self) -> &'static str {
        match self {
            Layer::Diffusion => "#2e8b57",
            Layer::Implant => "#e6c700",
            Layer::Poly => "#d0342c",
            Layer::Contact => "#111111",
            Layer::Buried => "#8b5a2b",
            Layer::Metal => "#3b6fd4",
            Layer::Overglass => "#9a9a9a",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cif_name())
    }
}

/// Error returned when parsing an unknown CIF layer name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayerError {
    name: String,
}

impl fmt::Display for ParseLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown CIF layer name `{}`", self.name)
    }
}

impl std::error::Error for ParseLayerError {}

impl FromStr for Layer {
    type Err = ParseLayerError;

    fn from_str(s: &str) -> Result<Layer, ParseLayerError> {
        Layer::ALL
            .iter()
            .copied()
            .find(|l| l.cif_name() == s)
            .ok_or_else(|| ParseLayerError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cif_names_round_trip() {
        for layer in Layer::ALL {
            assert_eq!(layer.cif_name().parse::<Layer>().unwrap(), layer);
        }
    }

    #[test]
    fn unknown_name_errors() {
        let err = "XX".parse::<Layer>().unwrap_err();
        assert_eq!(err.to_string(), "unknown CIF layer name `XX`");
    }

    #[test]
    fn conductors() {
        let conductors: Vec<_> = Layer::ALL.iter().filter(|l| l.is_conductor()).collect();
        assert_eq!(
            conductors,
            [&Layer::Diffusion, &Layer::Poly, &Layer::Metal]
        );
    }

    #[test]
    fn display_is_cif() {
        assert_eq!(Layer::Buried.to_string(), "NB");
    }
}

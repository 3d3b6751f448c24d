//! Cell power accounting.
//!
//! Procedural cells "compute their power requirements". The compiler does
//! not yet size rails by current: every track is drawn at
//! [`crate::TRACK_WIDTH`], and [`PowerInfo::rail_width_lambda`] is the
//! electromigration rule a current-sized rail would follow.

use std::fmt;

/// Power requirements of one cell (its own devices, excluding sub-cells;
/// [`crate::Library::total_power_ua`] accumulates hierarchies).
///
/// # Examples
///
/// ```
/// use bristle_cell::PowerInfo;
///
/// let p = PowerInfo::new(350);
/// assert_eq!(p.current_ua(), 350);
/// // 350 µA fits in the minimum metal rail (3λ, rounded up to even).
/// assert_eq!(p.rail_width_lambda(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PowerInfo {
    current_ua: u64,
}

/// Electromigration-style current limit used for rail sizing, in µA per λ
/// of metal rail width. The 1979-era rule of thumb was ≈1 mA per µm of
/// metal; with λ = 2.5 µm that is 2.5 mA/λ — we size conservatively at
/// 400 µA/λ so rail growth is visible on small demo chips.
pub const UA_PER_LAMBDA: u64 = 400;

/// Minimum metal rail width in λ (the Mead–Conway metal minimum).
pub const MIN_RAIL_WIDTH: i64 = 3;

/// Static supply current of one ratioed (depletion-load) inverter, in µA.
/// A depletion pull-up conducts whenever its output is low, so every
/// restoring stage adds a DC term on top of a cell's dynamic estimate;
/// frame builders multiply this by their inverter count.
pub const INVERTER_STATIC_UA: u64 = 70;

impl PowerInfo {
    /// Creates power info for a cell drawing `current_ua` microamps.
    #[must_use]
    pub fn new(current_ua: u64) -> PowerInfo {
        PowerInfo { current_ua }
    }

    /// Power info for a cell with `base_ua` of dynamic demand plus
    /// `inverters` ratioed loads drawing [`INVERTER_STATIC_UA`] each.
    #[must_use]
    pub fn with_inverters(base_ua: u64, inverters: usize) -> PowerInfo {
        PowerInfo::new(base_ua + INVERTER_STATIC_UA * inverters as u64)
    }

    /// Supply current demand in µA.
    #[must_use]
    pub fn current_ua(&self) -> u64 {
        self.current_ua
    }

    /// The metal rail width (λ) needed to carry this cell's current:
    /// `ceil(current / UA_PER_LAMBDA)`, clamped to the metal minimum
    /// width, and rounded up to even so rail center-lines stay on the
    /// λ lattice.
    #[must_use]
    pub fn rail_width_lambda(&self) -> i64 {
        let w = self.current_ua.div_ceil(UA_PER_LAMBDA) as i64;
        let w = w.max(MIN_RAIL_WIDTH);
        // Power rails are drawn as wires, whose widths must be even.
        if w % 2 == 1 {
            w + 1
        } else {
            w
        }
    }
}

impl fmt::Display for PowerInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µA", self.current_ua)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_width_minimum() {
        assert_eq!(PowerInfo::new(0).rail_width_lambda(), 4); // 3 rounded to even
        assert_eq!(PowerInfo::new(100).rail_width_lambda(), 4);
    }

    #[test]
    fn rail_width_scales_with_current() {
        assert_eq!(PowerInfo::new(1600).rail_width_lambda(), 4);
        assert_eq!(PowerInfo::new(2000).rail_width_lambda(), 6); // ceil(5) -> 6 even
        assert_eq!(PowerInfo::new(4000).rail_width_lambda(), 10);
    }
}

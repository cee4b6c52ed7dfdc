//! PVT operating conditions.

use std::fmt;

use crate::corner::ProcessCorner;

/// Nominal supply voltage, volts.
pub const NOMINAL_VDD: f64 = 1.1;

/// One (corner, supply, temperature) operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvtCondition {
    /// Global process corner.
    pub corner: ProcessCorner,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Junction temperature in degrees Celsius.
    pub temp_c: f64,
}

impl PvtCondition {
    /// Creates a condition.
    pub const fn new(corner: ProcessCorner, vdd: f64, temp_c: f64) -> Self {
        PvtCondition {
            corner,
            vdd,
            temp_c,
        }
    }

    /// The nominal condition: typical corner, 1.1 V, 25 °C.
    pub fn nominal() -> Self {
        PvtCondition::new(ProcessCorner::Typical, NOMINAL_VDD, 25.0)
    }
}

impl Default for PvtCondition {
    fn default() -> Self {
        Self::nominal()
    }
}

impl fmt::Display for PvtCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {:.1}V, {:.0}°C", self.corner, self.vdd, self.temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_table_notation() {
        let p = PvtCondition::new(ProcessCorner::FastNSlowP, 1.0, 125.0);
        assert_eq!(p.to_string(), "fs, 1.0V, 125°C");
        let q = PvtCondition::new(ProcessCorner::SlowNFastP, 1.2, -30.0);
        assert_eq!(q.to_string(), "sf, 1.2V, -30°C");
    }

    #[test]
    fn nominal_condition() {
        let n = PvtCondition::nominal();
        assert_eq!(n.vdd, 1.1);
        assert_eq!(n.temp_c, 25.0);
        assert_eq!(n.corner, ProcessCorner::Typical);
        assert_eq!(PvtCondition::default(), n);
    }
}

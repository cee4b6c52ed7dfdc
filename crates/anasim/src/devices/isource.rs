//! Ideal current source.

use crate::devices::{Device, ElementKind};
use crate::mna::StampContext;
use crate::netlist::{NodeId, SourceId};

/// An ideal current source driving its programmed current from `from`
/// through itself into `to`. Used by the SRAM crate to model the
/// core-cell array leakage load hanging off the regulator output.
#[derive(Debug)]
pub struct CurrentSource {
    from: NodeId,
    to: NodeId,
    source: SourceId,
}

impl CurrentSource {
    /// Creates the source; `source` indexes the netlist source table.
    pub fn new(from: NodeId, to: NodeId, source: SourceId) -> Self {
        CurrentSource { from, to, source }
    }
}

impl Device for CurrentSource {
    fn nodes(&self) -> Vec<NodeId> {
        vec![self.from, self.to]
    }

    fn kind(&self) -> ElementKind {
        ElementKind::CurrentSource {
            from: self.from,
            to: self.to,
            source: self.source,
        }
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = ctx.source_value(self.source);
        ctx.stamp_current(self.from, self.to, i);
    }
}

#[cfg(test)]
mod tests {
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    #[test]
    fn drives_current_through_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        // 1 mA pulled from ground into node a, through 1 kΩ to ground.
        nl.isource("I", Netlist::GND, a, 1.0e-3);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn direction_convention() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        // Current extracted from node a: voltage goes negative.
        nl.isource("I", a, Netlist::GND, 1.0e-3);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(a) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn source_table_update() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let i = nl.isource("I", Netlist::GND, a, 1.0e-3);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        nl.set_source(i, 2.0e-3);
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(a) - 2.0).abs() < 1e-9);
    }
}

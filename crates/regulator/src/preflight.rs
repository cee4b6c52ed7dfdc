//! Regulator-family electrical rules (`ERC100`–`ERC102`) and the
//! pre-flight gate campaign executors call before spending Newton
//! iterations on a grid point.
//!
//! The generic `erc` rules know nothing about this circuit; the rules
//! here encode what a *regulator* netlist must look like: all 32
//! defect sites of [`crate::defect`] present as series resistors,
//! every site electrically reachable, and each site's topology
//! consistent with the category the paper assigns it (a site whose
//! open would sever only a gate line cannot cause anything worse than
//! a transient; a site whose open severs a conduction path cannot be
//! negligible).

use erc::{
    check_model_with, default_rules, ground_reachable, CircuitModel, Diagnostic, EdgeStrength,
    ElementClass, Report, Rule, Severity,
};

use crate::defect::{Defect, DefectCategory};
use crate::topology::RegulatorCircuit;

/// ERC100: every defect site Df1–Df32 must exist as a resistor.
pub struct DefectSitePresent;

impl Rule for DefectSitePresent {
    fn code(&self) -> &'static str {
        "ERC100"
    }
    fn name(&self) -> &'static str {
        "defect-site-present"
    }
    fn summary(&self) -> &'static str {
        "all 32 regulator defect sites (Df1..Df32) exist as series resistors"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for defect in Defect::all() {
            let name = format!("Df{}", defect.number());
            match model.element(&name) {
                None => report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!("defect site `{name}` is missing from the netlist"),
                    nodes: vec![],
                    devices: vec![name],
                    hint: Some(
                        "characterization sweeps address sites by parameter handle; a \
                         missing site silently mis-targets the sweep"
                            .into(),
                    ),
                }),
                Some(e) if e.class != ElementClass::Resistor => report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!(
                        "defect site `{name}` is a {}, not a resistor",
                        e.class.label()
                    ),
                    nodes: vec![],
                    devices: vec![name],
                    hint: Some("resistive-open injection requires a resistor".into()),
                }),
                Some(_) => {}
            }
        }
    }
}

/// ERC101: both terminals of every defect site must reach ground.
pub struct DefectSiteReachable;

impl Rule for DefectSiteReachable {
    fn code(&self) -> &'static str {
        "ERC101"
    }
    fn name(&self) -> &'static str {
        "defect-site-reachable"
    }
    fn summary(&self) -> &'static str {
        "every defect site's terminals have a DC path to ground"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let reach = ground_reachable(model, EdgeStrength::Weak, None);
        for defect in Defect::all() {
            let name = format!("Df{}", defect.number());
            let Some(e) = model.element(&name) else {
                continue; // ERC100 owns the missing-site case
            };
            let islanded: Vec<String> = e
                .nodes
                .iter()
                .copied()
                .filter(|&t| t < model.num_nodes() && !reach[t])
                .map(|t| model.node_name(t))
                .collect();
            if !islanded.is_empty() {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!(
                        "defect site `{name}` is electrically unreachable (terminal(s) {})",
                        islanded.join(", ")
                    ),
                    nodes: islanded,
                    devices: vec![name],
                    hint: Some(
                        "a sweep of an unreachable site measures nothing; reconnect \
                         the surrounding branch"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// ERC102: each site's *topology* must be consistent with its expected
/// category. Opening the site completely (removing its resistor) and
/// recomputing connectivity yields the cut — the nodes that lose their
/// ground path:
///
/// * empty cut → a parallel path exists (MOSFET channel, divider
///   chain); the DC consequence is quantitative, so the rule makes no
///   claim;
/// * cut contains conduction terminals → the open severs real current
///   flow, so the expected category must not be
///   [`DefectCategory::Negligible`];
/// * cut touches only gates and capacitors → the open can only float a
///   gate line, so the expected category must be `Negligible` — unless
///   the site is one of the paper's transient mechanisms (Df8/Df11),
///   whose danger is dynamic, not DC.
pub struct DefectCategoryConsistent;

impl Rule for DefectCategoryConsistent {
    fn code(&self) -> &'static str {
        "ERC102"
    }
    fn name(&self) -> &'static str {
        "defect-category-consistent"
    }
    fn summary(&self) -> &'static str {
        "defect-site cut-set topology agrees with its expected category"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let reach_with = ground_reachable(model, EdgeStrength::Weak, None);
        for defect in Defect::all() {
            let name = format!("Df{}", defect.number());
            if model.element(&name).is_none() {
                continue; // ERC100 owns it
            }
            let reach_without = ground_reachable(model, EdgeStrength::Weak, Some(&name));
            let cut: Vec<usize> = (1..model.num_nodes())
                .filter(|&i| reach_with[i] && !reach_without[i])
                .collect();
            if cut.is_empty() {
                continue;
            }
            let conductive = cut.iter().any(|&node| {
                model.elements.iter().any(|e| {
                    e.name != name
                        && e.class != ElementClass::Capacitor
                        && e.current_terminals().contains(&node)
                })
            });
            let expected = defect.expected_category();
            let inconsistent = if conductive {
                expected == DefectCategory::Negligible
            } else {
                expected != DefectCategory::Negligible && !defect.is_transient_mechanism()
            };
            if inconsistent {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Warning,
                    message: format!(
                        "defect site `{name}`: opening it cuts off {} node(s) ({}), which \
                         contradicts its expected category `{expected}`",
                        cut.len(),
                        if conductive {
                            "carrying DC current"
                        } else {
                            "gate/capacitor only"
                        },
                    ),
                    nodes: cut.iter().map(|&i| model.node_name(i)).collect(),
                    devices: vec![name],
                    hint: Some(
                        "either the netlist mis-wires the site or the expected-category \
                         table is stale"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// The regulator-family rules alone.
pub fn domain_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DefectSitePresent),
        Box::new(DefectSiteReachable),
        Box::new(DefectCategoryConsistent),
    ]
}

/// The full rule set a regulator netlist is held to: every generic
/// `ERC0xx` rule plus the `ERC1xx` family rules.
pub fn regulator_rules() -> Vec<Box<dyn Rule>> {
    let mut rules = default_rules();
    rules.extend(domain_rules());
    rules
}

impl RegulatorCircuit {
    /// Runs the full regulator rule set over the current netlist
    /// (generic `ERC0xx` plus domain `ERC1xx`) and returns the report.
    pub fn erc_report(&self) -> Report {
        let model = CircuitModel::from_netlist(self.netlist());
        check_model_with(&model, &regulator_rules())
    }

    /// Pre-flight gate: checks the netlist and rejects on any
    /// error-severity finding, before any Newton iteration is spent.
    /// Returns the total diagnostic count (warnings and infos
    /// included) when the netlist is admissible.
    ///
    /// Records `erc.preflight.checked`, `erc.preflight.rejected`, and
    /// `erc.diagnostics` observability counters, so run manifests show
    /// how many points the gate examined and turned away.
    ///
    /// # Errors
    ///
    /// [`anasim::Error::PreflightRejected`] carrying the first
    /// error-severity diagnostic's code and message.
    pub fn preflight(&self) -> Result<usize, anasim::Error> {
        let report = self.erc_report();
        obs::counter_add("erc.preflight.checked", 1);
        obs::counter_add("erc.diagnostics", report.len() as u64);
        match report.reject_on_error() {
            Ok(()) => Ok(report.len()),
            Err(e) => {
                obs::counter_add("erc.preflight.rejected", 1);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FeedMode, RegulatorDesign, VrefTap, NO_DEFECT_OHMS};
    use erc::Element;
    use process::PvtCondition;

    fn healthy(feed: FeedMode, tap: VrefTap) -> RegulatorCircuit {
        RegulatorCircuit::new(
            &RegulatorDesign::lp40nm(),
            PvtCondition::nominal(),
            tap,
            feed,
        )
        .expect("healthy build succeeds")
    }

    #[test]
    fn healthy_netlists_pass_every_rule_at_every_tap_and_feed() {
        for tap in VrefTap::ALL {
            for feed in [
                FeedMode::Static,
                FeedMode::BiasActivation,
                FeedMode::VrefActivation,
            ] {
                let c = healthy(feed, tap);
                let report = c.erc_report();
                assert!(
                    report.is_empty(),
                    "{tap} / {feed:?}:\n{}",
                    report.render_text()
                );
                assert!(c.preflight().is_ok());
            }
        }
    }

    #[test]
    fn every_defect_site_passes_at_sweep_resistances() {
        // The whole Table II sweep range must clear pre-flight: a site
        // is a resistor at every resistance, never a disconnect.
        let mut c = healthy(FeedMode::Static, VrefTap::V74);
        for defect in Defect::all() {
            for ohms in [NO_DEFECT_OHMS, 1.0e5, 500.0e6] {
                c.inject(defect, ohms);
                let report = c.erc_report();
                assert!(
                    report.is_empty(),
                    "Df{} at {ohms} Ω:\n{}",
                    defect.number(),
                    report.render_text()
                );
            }
            c.clear_defects();
        }
    }

    #[test]
    fn orphan_node_rejects_with_named_diagnostic() {
        let mut c = healthy(FeedMode::Static, VrefTap::V74);
        c.add_orphan_node("severed_net");
        let report = c.erc_report();
        assert!(report.has_errors());
        let e = c.preflight().expect_err("orphan must reject");
        match &e {
            anasim::Error::PreflightRejected { code, what } => {
                assert_eq!(code, "ERC001");
                assert!(what.contains("severed_net"), "{what}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(!e.is_retryable(), "no rescue ladder can reconnect a node");
        assert!(e.is_recordable(), "but executors keep going");
    }

    #[test]
    fn erc100_fires_when_a_site_is_missing() {
        let c = healthy(FeedMode::Static, VrefTap::V74);
        let mut model = CircuitModel::from_netlist(c.netlist());
        model.elements.retain(|e| e.name != "Df5");
        let report = check_model_with(&model, &domain_rules());
        assert_eq!(report.codes(), vec!["ERC100"]);
        assert!(report.render_text().contains("Df5"));
    }

    #[test]
    fn erc101_fires_when_a_site_is_islanded() {
        let c = healthy(FeedMode::Static, VrefTap::V74);
        let mut model = CircuitModel::from_netlist(c.netlist());
        // Rewire Df8 entirely onto a node pair nothing else touches —
        // one terminal alone would stay reachable through Df8 itself.
        let island = model.nodes.len();
        model.nodes.push("island".into());
        model.nodes.push("island2".into());
        let df8 = model
            .elements
            .iter_mut()
            .find(|e| e.name == "Df8")
            .expect("Df8 exists");
        df8.nodes = vec![island, island + 1];
        let report = check_model_with(&model, &domain_rules());
        assert!(report.codes().contains(&"ERC101"), "{:?}", report.codes());
        assert!(report.render_text().contains("island"));
    }

    #[test]
    fn erc102_fires_on_conductive_cut_behind_negligible_site() {
        // Synthetic: Df18 (expected Negligible) wired so its open cuts
        // off a current-carrying branch.
        let model = CircuitModel {
            nodes: vec!["0".into(), "a".into(), "b".into(), "c".into()],
            elements: vec![
                Element {
                    name: "V".into(),
                    class: ElementClass::VoltageSource,
                    nodes: vec![1, 0],
                    value: Some(1.0),
                    bad_ref: None,
                },
                Element {
                    name: "Df18".into(),
                    class: ElementClass::Resistor,
                    nodes: vec![1, 2],
                    value: Some(NO_DEFECT_OHMS),
                    bad_ref: None,
                },
                Element {
                    name: "Rload".into(),
                    class: ElementClass::Resistor,
                    nodes: vec![2, 3],
                    value: Some(1.0e3),
                    bad_ref: None,
                },
            ],
        };
        let report = check_model_with(&model, &[Box::new(DefectCategoryConsistent)]);
        assert_eq!(report.codes(), vec!["ERC102"]);
        let d = &report.diagnostics()[0];
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("Df18"), "{}", d.message);
        assert!(d.message.contains("carrying DC current"), "{}", d.message);
    }

    #[test]
    fn erc102_fires_on_gate_only_cut_behind_retention_site() {
        // Synthetic: Df16 (expected RetentionFault, not a transient
        // mechanism) wired like a pure gate feed.
        let model = CircuitModel {
            nodes: vec!["0".into(), "a".into(), "g".into()],
            elements: vec![
                Element {
                    name: "V".into(),
                    class: ElementClass::VoltageSource,
                    nodes: vec![1, 0],
                    value: Some(1.0),
                    bad_ref: None,
                },
                Element {
                    name: "Df16".into(),
                    class: ElementClass::Resistor,
                    nodes: vec![1, 2],
                    value: Some(NO_DEFECT_OHMS),
                    bad_ref: None,
                },
                Element {
                    name: "M".into(),
                    class: ElementClass::Mosfet,
                    nodes: vec![1, 2, 0],
                    value: None,
                    bad_ref: None,
                },
            ],
        };
        let report = check_model_with(&model, &[Box::new(DefectCategoryConsistent)]);
        assert_eq!(report.codes(), vec!["ERC102"]);
        assert!(report.render_text().contains("gate/capacitor only"));
    }

    #[test]
    fn rule_catalogue_extends_cleanly() {
        let rules = regulator_rules();
        assert_eq!(rules.len(), 14, "11 generic + 3 domain");
        let codes: Vec<&str> = rules.iter().map(|r| r.code()).collect();
        assert!(codes.contains(&"ERC001"));
        assert!(codes.contains(&"ERC012"));
        assert!(codes.contains(&"ERC100"));
        assert!(codes.contains(&"ERC102"));
    }
}

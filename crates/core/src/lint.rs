//! Lint driver: static ERC over the suite's canonical netlists.
//!
//! The `lint` CLI subcommand and the CI `erc` job both call
//! [`lint_all`], which builds every netlist family the experiment
//! campaigns solve — the regulator at each tap × feed mode, the
//! retention cell for the symmetric baseline and each Table I case
//! study, and the quick `array` map's retention array, clean and with
//! its three bridges — and runs the full rule set over each. A healthy
//! tree lints clean; any finding here would silently cost campaign grid
//! points later.

use obs::Json;
use process::PvtCondition;
use regulator::{FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap};
use sram::cell::build_retention_netlist;
use sram::{ArraySpec, CellInstance};

use crate::case_study::CaseStudy;
use crate::experiments::array::{ArrayRetentionOptions, ArrayScenario};

/// One linted netlist: its display name and the rule findings.
#[derive(Debug)]
pub struct LintTarget {
    /// What was checked, e.g. `regulator tap=0.74*VDD feed=Static`.
    pub name: String,
    /// The ERC findings for this netlist.
    pub report: erc::Report,
}

/// The full lint sweep.
#[derive(Debug)]
pub struct LintRun {
    /// Every checked netlist, in a stable order.
    pub targets: Vec<LintTarget>,
}

impl LintRun {
    /// Total findings across all targets.
    pub fn total_findings(&self) -> usize {
        self.targets.iter().map(|t| t.report.len()).sum()
    }

    /// Whether any target has an error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.targets.iter().any(|t| t.report.has_errors())
    }

    /// Whether any target has a warning-severity finding.
    pub fn has_warnings(&self) -> bool {
        self.targets.iter().any(|t| t.report.has_warnings())
    }

    /// Process exit code under the lint contract: 0 clean, 1 errors,
    /// 2 warnings with `deny_warnings` set.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if self.has_errors() {
            1
        } else if deny_warnings && self.has_warnings() {
            2
        } else {
            0
        }
    }

    /// Renders every target as text, clean targets one-lined.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.targets {
            if t.report.is_empty() {
                out.push_str(&format!("{}: clean\n", t.name));
            } else {
                out.push_str(&format!("{}:\n{}\n", t.name, t.report.render_text()));
            }
        }
        out.push_str(&format!(
            "{} netlist(s) checked, {} finding(s)\n",
            self.targets.len(),
            self.total_findings()
        ));
        out
    }

    /// The run as a JSON document: `{"targets": [{"name", "report"}],
    /// "checked": N, "findings": N}`, each report `{"errors", "warnings",
    /// "infos", "diagnostics": [...]}`.
    pub fn to_json(&self) -> Json {
        let count = |n: usize| Json::Num(n as f64);
        let targets = self.targets.iter().map(|t| {
            Json::obj([
                ("name".to_string(), Json::Str(t.name.clone())),
                ("report".to_string(), report_json(&t.report)),
            ])
        });
        Json::obj([
            ("targets".to_string(), Json::Arr(targets.collect())),
            ("checked".to_string(), count(self.targets.len())),
            ("findings".to_string(), count(self.total_findings())),
        ])
    }
}

/// One report as JSON: its severity counts and every diagnostic, whose
/// `hint` key is present only when the rule offers one.
fn report_json(report: &erc::Report) -> Json {
    let count = |severity| Json::Num(report.count(severity) as f64);
    let names = |names: &[String]| Json::Arr(names.iter().cloned().map(Json::Str).collect());
    let diagnostics = report.diagnostics().iter().map(|d| {
        let mut pairs = vec![
            ("code".to_string(), Json::Str(d.code.to_string())),
            ("severity".to_string(), Json::Str(d.severity.to_string())),
            ("message".to_string(), Json::Str(d.message.clone())),
            ("nodes".to_string(), names(&d.nodes)),
            ("devices".to_string(), names(&d.devices)),
        ];
        if let Some(hint) = &d.hint {
            pairs.push(("hint".to_string(), Json::Str(hint.clone())));
        }
        Json::Obj(pairs)
    });
    Json::obj([
        ("errors".to_string(), count(erc::Severity::Error)),
        ("warnings".to_string(), count(erc::Severity::Warning)),
        ("infos".to_string(), count(erc::Severity::Info)),
        ("diagnostics".to_string(), Json::Arr(diagnostics.collect())),
    ])
}

/// Lints every canonical netlist of the suite at the given condition.
///
/// # Errors
///
/// Propagates netlist *construction* failures only — rule findings are
/// data, not errors.
pub fn lint_all(pvt: PvtCondition) -> Result<LintRun, anasim::Error> {
    let design = RegulatorDesign::lp40nm();
    let mut targets = Vec::new();
    for tap in VrefTap::ALL {
        for feed in [
            FeedMode::Static,
            FeedMode::BiasActivation,
            FeedMode::VrefActivation,
        ] {
            let circuit = RegulatorCircuit::new(&design, pvt, tap, feed)?;
            targets.push(LintTarget {
                name: format!("regulator tap={tap} feed={feed:?}"),
                report: circuit.erc_report(),
            });
        }
    }
    let symmetric = CellInstance::symmetric(pvt);
    let (nl, _) = build_retention_netlist(&symmetric, pvt.vdd)?;
    targets.push(LintTarget {
        name: "sram cell symmetric".into(),
        report: erc::check_netlist(&nl),
    });
    for cs in CaseStudy::ones() {
        let inst = CellInstance::with_pattern(cs.pattern(), pvt);
        let (nl, _) = build_retention_netlist(&inst, pvt.vdd)?;
        targets.push(LintTarget {
            name: format!("sram cell CS{}-1", cs.number),
            report: erc::check_netlist(&nl),
        });
    }
    let quick = ArrayRetentionOptions::quick();
    for scenario in [ArrayScenario::clean(), ArrayScenario::bridges(3)] {
        let mut spec = ArraySpec::retention(quick.rows, quick.cols, pvt.vdd, symmetric);
        spec.active = scenario.active;
        let built = spec.build()?;
        targets.push(LintTarget {
            name: format!("sram array {}x{} {}", quick.rows, quick.cols, scenario.name),
            report: erc::check_netlist(&built.netlist),
        });
    }
    Ok(LintRun { targets })
}

/// The rule catalogue the lint sweep applies: every generic rule plus
/// the regulator-family rules, as `(code, name, summary)` rows.
pub fn rule_catalogue() -> Vec<(&'static str, &'static str, &'static str)> {
    regulator::regulator_rules()
        .iter()
        .map(|r| (r.code(), r.name(), r.summary()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_netlists_lint_clean() {
        let run = lint_all(PvtCondition::nominal()).expect("netlists build");
        assert_eq!(
            run.targets.len(),
            20,
            "12 regulator + 6 cell + 2 array targets"
        );
        for t in &run.targets {
            assert!(
                t.report.is_empty(),
                "{} has findings:\n{}",
                t.name,
                t.report.render_text()
            );
        }
        assert_eq!(run.exit_code(true), 0);
        assert!(run.render_text().contains("20 netlist(s) checked"));
    }

    #[test]
    fn catalogue_lists_both_rule_families() {
        let rules = rule_catalogue();
        assert_eq!(rules.len(), 14, "11 generic + 3 regulator rules");
        let codes: Vec<&str> = rules.iter().map(|(c, _, _)| *c).collect();
        for code in ["ERC001", "ERC008", "ERC011", "ERC012", "ERC100", "ERC102"] {
            assert!(codes.contains(&code), "missing {code}");
        }
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        let mut run = lint_all(PvtCondition::nominal()).expect("netlists build");
        assert_eq!(run.exit_code(false), 0);
        // Degrade one target with a warning, then an error.
        run.targets[0].report.push(erc::Diagnostic {
            code: "ERC009",
            severity: erc::Severity::Warning,
            message: "synthetic".into(),
            nodes: vec![],
            devices: vec![],
            hint: None,
        });
        assert_eq!(run.exit_code(false), 0);
        assert_eq!(run.exit_code(true), 2);
        run.targets[0].report.push(erc::Diagnostic {
            code: "ERC001",
            severity: erc::Severity::Error,
            message: "synthetic".into(),
            nodes: vec![],
            devices: vec![],
            hint: None,
        });
        assert_eq!(run.exit_code(false), 1);
        let json = run.to_json();
        assert_eq!(json.get("checked").and_then(Json::as_u64), Some(20));
        assert_eq!(json.get("findings").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn json_escapes_text_and_omits_a_missing_hint() {
        let mut report = erc::Report::new();
        report.push(erc::Diagnostic {
            code: "ERC001",
            severity: erc::Severity::Error,
            message: "quote \" and backslash \\".into(),
            nodes: vec![],
            devices: vec![],
            hint: None,
        });
        let run = LintRun {
            targets: vec![LintTarget {
                name: "t".into(),
                report,
            }],
        };
        let json = run.to_json().to_compact();
        assert!(json.starts_with("{\"targets\":[{\"name\":\"t\",\"report\":{\"errors\":1,"));
        assert!(
            json.contains(r#""message":"quote \" and backslash \\""#),
            "{json}"
        );
        assert!(json.ends_with("],\"checked\":1,\"findings\":1}"), "{json}");
        assert!(!json.contains("\"hint\""), "{json}");
        assert_eq!(obs::json::parse(&json).as_ref(), Ok(&run.to_json()));
    }
}

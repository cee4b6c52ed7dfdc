//! Structured diagnostics: what a rule found, where, and how bad.

use std::fmt;

/// How serious a finding is.
///
/// Ordered so that `max` picks the worse of two: `Info < Warning <
/// Error`. Only [`Severity::Error`] findings reject a netlist in
/// pre-flight; warnings and infos are advisory (the lint CLI can
/// escalate warnings with `--deny-warnings`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but harmless; never affects exit codes.
    Info,
    /// Suspicious topology that still solves; fails `--deny-warnings`.
    Warning,
    /// The netlist cannot be solved (or the result would be
    /// meaningless); rejected by pre-flight.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding from one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `ERC001`. Codes never change meaning
    /// between releases so they can be grepped, suppressed, and
    /// asserted on in tests.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// One-line human-readable description of the specific finding.
    pub message: String,
    /// Names of the nodes involved (possibly empty).
    pub nodes: Vec<String>,
    /// Names of the devices involved (possibly empty).
    pub devices: Vec<String>,
    /// Suggested fix, when the rule can offer one.
    pub hint: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// The findings of one full check pass over one netlist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// All findings, in rule order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Total number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when nothing at all was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// `true` when at least one warning-or-worse finding exists.
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warning)
    }

    /// The first error-severity finding, if any — what a pre-flight
    /// rejection is built from.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Converts the report into a pre-flight verdict: `Err` carrying
    /// [`anasim::Error::PreflightRejected`] built from the first
    /// error-severity finding, `Ok(())` when only warnings/infos (or
    /// nothing) were found.
    pub fn reject_on_error(&self) -> Result<(), anasim::Error> {
        match self.first_error() {
            Some(d) => Err(anasim::Error::PreflightRejected {
                code: d.code.to_string(),
                what: d.message.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Renders the findings as human-readable text, one block per
    /// finding plus a summary line. Clean reports render a single
    /// `clean` line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
            if !d.nodes.is_empty() {
                out.push_str(&format!("  nodes: {}\n", d.nodes.join(", ")));
            }
            if !d.devices.is_empty() {
                out.push_str(&format!("  devices: {}\n", d.devices.join(", ")));
            }
            if let Some(hint) = &d.hint {
                out.push_str(&format!("  hint: {hint}\n"));
            }
        }
        if self.is_empty() {
            out.push_str("clean: no findings\n");
        } else {
            out.push_str(&format!(
                "{} error(s), {} warning(s), {} info(s)\n",
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Info),
            ));
        }
        out
    }

    /// Distinct rule codes present in the report, in first-seen order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &'static str, severity: Severity) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: format!("test finding {code}"),
            nodes: vec!["a".into()],
            devices: vec!["R1".into()],
            hint: Some("do the thing".into()),
        }
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn counts_and_predicates() {
        let mut r = Report::new();
        assert!(r.is_empty());
        assert!(!r.has_errors());
        r.push(finding("ERC001", Severity::Error));
        r.push(finding("ERC004", Severity::Warning));
        r.push(finding("ERC011", Severity::Info));
        assert_eq!(r.len(), 3);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_errors());
        assert!(r.has_warnings());
        assert_eq!(r.first_error().map(|d| d.code), Some("ERC001"));
        assert_eq!(r.codes(), vec!["ERC001", "ERC004", "ERC011"]);
    }

    #[test]
    fn reject_on_error_builds_preflight_error() {
        let mut r = Report::new();
        r.push(finding("ERC004", Severity::Warning));
        assert!(r.reject_on_error().is_ok(), "warnings never reject");
        r.push(finding("ERC001", Severity::Error));
        let e = r.reject_on_error().expect_err("error findings reject");
        match e {
            anasim::Error::PreflightRejected { code, what } => {
                assert_eq!(code, "ERC001");
                assert!(what.contains("ERC001"));
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }

    #[test]
    fn text_rendering_shows_all_parts() {
        let mut r = Report::new();
        r.push(finding("ERC001", Severity::Error));
        let text = r.render_text();
        assert!(text.contains("error[ERC001]"), "{text}");
        assert!(text.contains("nodes: a"), "{text}");
        assert!(text.contains("devices: R1"), "{text}");
        assert!(text.contains("hint: do the thing"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
        assert!(Report::new().render_text().contains("clean"));
    }
}

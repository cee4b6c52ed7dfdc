//! Verdicts, claims and the claims matrix.
//!
//! Shaped after `erc::Diagnostic`: every verdict carries a stable
//! machine-readable code plus enough structure to either *replay* the
//! detection (the witness chain) or *replay* the escape (a concrete
//! counterexample `march::coverage` grades to a real miss).

use std::fmt;
use std::fmt::Write as _;

use march::background::DataBackground;
use march::coverage;
use march::test::MarchTest;
use obs::Json;

use crate::class::{FaultClass, Instance};
use crate::machine::Witness;

/// A concrete escape configuration the simulation engine can replay:
/// grading `fault` on a `words`×`bits` memory under every listed
/// background must miss it.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Memory words.
    pub words: usize,
    /// Bits per word.
    pub bits: usize,
    /// The escaping fault.
    pub fault: march::fault::Fault,
    /// The backgrounds the escape survives.
    pub backgrounds: Vec<DataBackground>,
}

impl Counterexample {
    /// Replays the counterexample through `march::coverage`; returns
    /// whether the simulation detects the fault (a *true* escape
    /// replays to `false`).
    pub fn replay_detects(&self, test: &MarchTest) -> bool {
        let report = coverage::grade_with_backgrounds(
            test,
            self.words,
            self.bits,
            std::slice::from_ref(&self.fault),
            &self.backgrounds,
        );
        report.detected == 1
    }
}

/// The prover's answer for one (test, fault class) pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Proven detected for every placement: the witness names the
    /// failing (element, op) read and `chain` the activation events
    /// leading up to it.
    Detected {
        /// The failing read.
        witness: Witness,
        /// Fault-activation events leading to the witness.
        chain: Vec<String>,
        /// Whether the outcome is independent of the cells' initial
        /// values (power-up state).
        state_independent: bool,
    },
    /// Proven escaped: the counterexample replays to a real miss in
    /// the simulator.
    Escaped {
        /// A minimal concrete escape configuration.
        counterexample: Counterexample,
        /// Whether the outcome is independent of the cells' initial
        /// values.
        state_independent: bool,
    },
    /// The abstraction could not decide; `reason` names the blind
    /// spot.
    Unknown {
        /// The named blind spot.
        reason: String,
    },
}

impl Verdict {
    /// Stable lowercase code: `detected` / `escaped` / `unknown`.
    pub fn code(&self) -> &'static str {
        match self {
            Verdict::Detected { .. } => "detected",
            Verdict::Escaped { .. } => "escaped",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// Whether this is Proven-Detected.
    pub fn is_detected(&self) -> bool {
        matches!(self, Verdict::Detected { .. })
    }

    /// Whether this is Proven-Escaped.
    pub fn is_escaped(&self) -> bool {
        matches!(self, Verdict::Escaped { .. })
    }

    /// Whether the verdict holds independent of initial cell values.
    pub fn state_independent(&self) -> Option<bool> {
        match self {
            Verdict::Detected {
                state_independent, ..
            }
            | Verdict::Escaped {
                state_independent, ..
            } => Some(*state_independent),
            Verdict::Unknown { .. } => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Verdict::Detected {
                witness,
                chain,
                state_independent,
            } => Json::obj([
                ("verdict".to_string(), Json::Str("detected".to_string())),
                (
                    "state_independent".to_string(),
                    Json::Bool(*state_independent),
                ),
                (
                    "witness".to_string(),
                    Json::obj([
                        ("element".to_string(), Json::Num(witness.element as f64)),
                        ("op".to_string(), Json::Num(witness.op_index as f64)),
                        ("operation".to_string(), Json::Str(witness.op.to_string())),
                        ("cell".to_string(), Json::Str(witness.cell.to_string())),
                        (
                            "expected".to_string(),
                            Json::Num(f64::from(u8::from(witness.expected))),
                        ),
                        (
                            "observed".to_string(),
                            Json::Num(f64::from(u8::from(witness.observed))),
                        ),
                    ]),
                ),
                (
                    "chain".to_string(),
                    Json::Arr(chain.iter().map(|e| Json::Str(e.clone())).collect()),
                ),
            ]),
            Verdict::Escaped {
                counterexample,
                state_independent,
            } => Json::obj([
                ("verdict".to_string(), Json::Str("escaped".to_string())),
                (
                    "state_independent".to_string(),
                    Json::Bool(*state_independent),
                ),
                (
                    "counterexample".to_string(),
                    Json::obj([
                        ("words".to_string(), Json::Num(counterexample.words as f64)),
                        ("bits".to_string(), Json::Num(counterexample.bits as f64)),
                        (
                            "fault".to_string(),
                            Json::Str(counterexample.fault.to_string()),
                        ),
                        (
                            "backgrounds".to_string(),
                            Json::Arr(
                                counterexample
                                    .backgrounds
                                    .iter()
                                    .map(|b| Json::Str(b.to_string()))
                                    .collect(),
                            ),
                        ),
                    ]),
                ),
            ]),
            Verdict::Unknown { reason } => Json::obj([
                ("verdict".to_string(), Json::Str("unknown".to_string())),
                ("reason".to_string(), Json::Str(reason.clone())),
            ]),
        }
    }

    fn summary_text(&self) -> String {
        match self {
            Verdict::Detected {
                witness,
                state_independent,
                ..
            } => format!(
                "detected (element {} op {} {}{})",
                witness.element,
                witness.op_index,
                witness.op,
                if *state_independent {
                    ""
                } else {
                    ", state-dependent"
                },
            ),
            Verdict::Escaped {
                counterexample,
                state_independent,
            } => format!(
                "escaped  ({} on {}x{}{})",
                counterexample.fault,
                counterexample.words,
                counterexample.bits,
                if *state_independent {
                    ""
                } else {
                    ", state-dependent"
                },
            ),
            Verdict::Unknown { reason } => format!("unknown  ({reason})"),
        }
    }
}

/// The never-false-fail proof for one test on a clean memory.
#[derive(Debug, Clone, PartialEq)]
pub enum CleanVerdict {
    /// Proven to pass on a fault-free memory from any initial state.
    ProvenClean,
    /// The test would fail a good device (a broken test).
    FalseFail {
        /// The spuriously failing read.
        witness: Witness,
    },
    /// The abstraction could not decide.
    Unknown {
        /// The named blind spot.
        reason: String,
    },
}

impl CleanVerdict {
    /// Stable machine-readable code for this verdict.
    pub fn code(&self) -> &'static str {
        match self {
            CleanVerdict::ProvenClean => "proven-clean",
            CleanVerdict::FalseFail { .. } => "false-fail",
            CleanVerdict::Unknown { .. } => "unknown",
        }
    }
}

/// One test's header row in the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSummary {
    /// Test name.
    pub name: String,
    /// Rendered notation (`Display` without the name prefix).
    pub notation: String,
    /// `(a, b)` of the `aN + b` length formula.
    pub formula: (usize, usize),
    /// The clean-memory proof.
    pub clean: CleanVerdict,
}

/// One (test, fault class) claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The test name.
    pub test: String,
    /// The fault class.
    pub class: FaultClass,
    /// The class's canonical concrete representative.
    pub instance: Instance,
    /// Verdict under the solid background (the engine's default
    /// grading and the march-notation semantics).
    pub solid: Verdict,
    /// For intra-word classes: verdict under the full standard
    /// background family (`DataBackground::ALL`), quantified over all
    /// bit placements and address parities of the class.
    pub family: Option<Verdict>,
}

/// Verdict counters over an entire matrix (solid + family verdicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictCounts {
    /// Proven-Detected verdicts.
    pub detected: usize,
    /// Proven-Escaped verdicts.
    pub escaped: usize,
    /// Unknown verdicts.
    pub unknown: usize,
}

/// The full claims matrix for a test library.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimsMatrix {
    /// DS dwell used to instantiate the library.
    pub dwell: f64,
    /// Per-test summaries (incl. the clean proofs).
    pub tests: Vec<TestSummary>,
    /// All (test, class) claims, tests outer, classes inner, in
    /// `FaultClass::all_standard` order.
    pub claims: Vec<Claim>,
}

impl ClaimsMatrix {
    /// Counts verdicts across solid and family analyses.
    pub fn counts(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        let mut tally = |v: &Verdict| match v {
            Verdict::Detected { .. } => c.detected += 1,
            Verdict::Escaped { .. } => c.escaped += 1,
            Verdict::Unknown { .. } => c.unknown += 1,
        };
        for claim in &self.claims {
            tally(&claim.solid);
            if let Some(family) = &claim.family {
                tally(family);
            }
        }
        c
    }

    /// Looks up the claim for (test name, class code).
    pub fn claim(&self, test: &str, code: &str) -> Option<&Claim> {
        self.claims
            .iter()
            .find(|c| c.test == test && c.class.code() == code)
    }

    /// The test summary by name.
    pub fn test(&self, name: &str) -> Option<&TestSummary> {
        self.tests.iter().find(|t| t.name == name)
    }

    /// The matrix as JSON (stable field order, diffable).
    pub fn to_json(&self) -> Json {
        let counts = self.counts();
        Json::obj([
            (
                "version".to_string(),
                Json::Str("lp-sram-suite/claims-matrix/v1".to_string()),
            ),
            ("dwell_s".to_string(), Json::Num(self.dwell)),
            (
                "tests".to_string(),
                Json::Arr(
                    self.tests
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("name".to_string(), Json::Str(t.name.clone())),
                                ("notation".to_string(), Json::Str(t.notation.clone())),
                                (
                                    "length".to_string(),
                                    Json::Str(format!("{}N+{}", t.formula.0, t.formula.1)),
                                ),
                                ("clean".to_string(), Json::Str(t.clean.code().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "claims".to_string(),
                Json::Arr(
                    self.claims
                        .iter()
                        .map(|c| {
                            let mut pairs = vec![
                                ("test".to_string(), Json::Str(c.test.clone())),
                                ("class".to_string(), Json::Str(c.class.code())),
                                ("describes".to_string(), Json::Str(c.class.describe())),
                                (
                                    "primitive".to_string(),
                                    Json::Str(c.class.primitive().to_string()),
                                ),
                                ("fault".to_string(), Json::Str(c.instance.fault.to_string())),
                                (
                                    "geometry".to_string(),
                                    Json::obj([
                                        ("words".to_string(), Json::Num(c.instance.words as f64)),
                                        ("bits".to_string(), Json::Num(c.instance.bits as f64)),
                                    ]),
                                ),
                                ("solid".to_string(), c.solid.to_json()),
                            ];
                            if let Some(family) = &c.family {
                                pairs.push(("family".to_string(), family.to_json()));
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
            (
                "summary".to_string(),
                Json::obj([
                    ("claims".to_string(), Json::Num(self.claims.len() as f64)),
                    ("detected".to_string(), Json::Num(counts.detected as f64)),
                    ("escaped".to_string(), Json::Num(counts.escaped as f64)),
                    ("unknown".to_string(), Json::Num(counts.unknown as f64)),
                ]),
            ),
        ])
    }

    /// Human-readable rendering, one line per claim.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let counts = self.counts();
        let _ = writeln!(
            out,
            "march coverage claims matrix (dwell {:.1e} s)",
            self.dwell
        );
        for t in &self.tests {
            let _ = writeln!(
                out,
                "\n{} = {}   [{}N+{}]   clean: {}",
                t.name,
                t.notation,
                t.formula.0,
                t.formula.1,
                t.clean.code()
            );
            for c in self.claims.iter().filter(|c| c.test == t.name) {
                let _ = writeln!(
                    out,
                    "  {:<18} {:<12} solid: {}",
                    c.class.code(),
                    c.class.primitive(),
                    c.solid.summary_text()
                );
                if let Some(family) = &c.family {
                    let _ = writeln!(
                        out,
                        "  {:<18} {:<12} family: {}",
                        "",
                        "",
                        family.summary_text()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "\n{} claims ({} verdicts): {} detected, {} escaped, {} unknown",
            self.claims.len(),
            counts.detected + counts.escaped + counts.unknown,
            counts.detected,
            counts.escaped,
            counts.unknown
        );
        out
    }
}

impl fmt::Display for ClaimsMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

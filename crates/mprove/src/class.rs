//! Position-symbolic fault classes.
//!
//! A [`FaultClass`] is a family of concrete [`march::fault::Fault`]
//! instances closed under everything the prover treats symbolically:
//! the victim's address and bit, the aggressor's relative position
//! (below / above / same word), and — for intra-word pairs — whether
//! the bit pair is separable by the standard data backgrounds. One
//! verdict per class covers every instance in the family; the
//! exhaustive differential harness (`crate::differential`) checks that
//! generalization against the simulation engine instance by instance.

use std::fmt;

use march::fault::{CellRef, Fault, FaultKind, FaultPrimitive};

/// Relative position of the aggressor (or alias target) with respect
/// to the victim in logical address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pos {
    /// Aggressor at a lower address than the victim.
    Below,
    /// Aggressor at a higher address than the victim.
    Above,
    /// Aggressor and victim are bits of the same word.
    Intra,
}

/// Separability of an intra-word bit pair under the standard
/// backgrounds (`DataBackground::ALL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sep {
    /// Some standard background puts opposite data on the two bits.
    Separable,
    /// Every standard background writes both bits the same value
    /// (bit indices congruent modulo 4).
    NonSeparable,
}

/// Whether two bit positions of one word are separable: some standard
/// background (solid / checkerboard / row stripes / pair stripes) puts
/// opposite data on them. Bits are non-separable iff they agree modulo
/// 4 — checkerboard distinguishes bit parity, pair stripes distinguish
/// pair parity, and nothing in the standard family distinguishes more.
pub fn separable(i: usize, j: usize) -> bool {
    (i % 2 != j % 2) || ((i / 2) % 2 != (j / 2) % 2)
}

/// A symbolic fault class: one verdict per (test, class) covers every
/// concrete placement of the class's faults.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Stuck-at fault.
    StuckAt {
        /// The stuck value.
        value: bool,
    },
    /// Transition fault (`rising` = the 0→1 write fails).
    Transition {
        /// Which transition fails.
        rising: bool,
    },
    /// Deep-sleep retention loss (DRF_DS).
    Retention {
        /// The value lost during deep-sleep.
        weak: bool,
    },
    /// First write after wake-up lost.
    WakeUpWrite,
    /// Address-decoder aliasing; `target_below` fixes the side of the
    /// physically accessed word.
    AddressAlias {
        /// Whether the aliased-to word sits below the victim address.
        target_below: bool,
    },
    /// Inversion coupling (CFin).
    CouplingInversion {
        /// Aggressor position.
        pos: Pos,
    },
    /// Idempotent coupling (CFid). `sep` is `Some` exactly when
    /// `pos == Pos::Intra`.
    CouplingIdempotent {
        /// Aggressor position.
        pos: Pos,
        /// Intra-word separability (`None` for inter-word pairs).
        sep: Option<Sep>,
        /// Whether the trigger is the rising aggressor write.
        rising: bool,
        /// The value forced onto the victim.
        forces: bool,
    },
    /// State coupling (CFst). `sep` is `Some` exactly when
    /// `pos == Pos::Intra`.
    CouplingState {
        /// Aggressor position.
        pos: Pos,
        /// Intra-word separability (`None` for inter-word pairs).
        sep: Option<Sep>,
        /// The aggressor state that activates the fault.
        when: bool,
        /// The value forced onto the victim while active.
        forces: bool,
    },
}

/// A concrete, minimal representative of a class: geometry plus one
/// placed fault, directly replayable through `march::coverage`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Memory words.
    pub words: usize,
    /// Bits per word.
    pub bits: usize,
    /// The placed fault.
    pub fault: Fault,
}

fn bit01(b: bool) -> u8 {
    u8::from(b)
}

impl FaultClass {
    /// Every standard class, in the fixed order the claims matrix uses.
    pub fn all_standard() -> Vec<FaultClass> {
        let mut out = Vec::new();
        for value in [false, true] {
            out.push(FaultClass::StuckAt { value });
        }
        for rising in [true, false] {
            out.push(FaultClass::Transition { rising });
        }
        for weak in [false, true] {
            out.push(FaultClass::Retention { weak });
        }
        out.push(FaultClass::WakeUpWrite);
        for target_below in [true, false] {
            out.push(FaultClass::AddressAlias { target_below });
        }
        for pos in [Pos::Below, Pos::Above, Pos::Intra] {
            out.push(FaultClass::CouplingInversion { pos });
        }
        for (pos, sep) in Self::pair_shapes() {
            for rising in [true, false] {
                for forces in [false, true] {
                    out.push(FaultClass::CouplingIdempotent {
                        pos,
                        sep,
                        rising,
                        forces,
                    });
                }
            }
        }
        for (pos, sep) in Self::pair_shapes() {
            for when in [false, true] {
                for forces in [false, true] {
                    out.push(FaultClass::CouplingState {
                        pos,
                        sep,
                        when,
                        forces,
                    });
                }
            }
        }
        out
    }

    fn pair_shapes() -> [(Pos, Option<Sep>); 4] {
        [
            (Pos::Below, None),
            (Pos::Above, None),
            (Pos::Intra, Some(Sep::Separable)),
            (Pos::Intra, Some(Sep::NonSeparable)),
        ]
    }

    /// The stable code identifying the class in text and JSON output.
    pub fn code(&self) -> String {
        fn pos_tag(pos: Pos, sep: Option<Sep>) -> String {
            match (pos, sep) {
                (Pos::Below, _) => "LO".to_string(),
                (Pos::Above, _) => "HI".to_string(),
                (Pos::Intra, None) => "IW".to_string(),
                (Pos::Intra, Some(Sep::Separable)) => "IW_SEP".to_string(),
                (Pos::Intra, Some(Sep::NonSeparable)) => "IW_NSEP".to_string(),
            }
        }
        match self {
            FaultClass::StuckAt { value } => format!("SAF{}", bit01(*value)),
            FaultClass::Transition { rising } => {
                format!("TF_{}", if *rising { "R" } else { "F" })
            }
            FaultClass::Retention { weak } => format!("DRF{}", bit01(*weak)),
            FaultClass::WakeUpWrite => "WUF".to_string(),
            FaultClass::AddressAlias { target_below } => {
                format!("AF_{}", if *target_below { "LO" } else { "HI" })
            }
            FaultClass::CouplingInversion { pos } => {
                format!("CFIN_{}", pos_tag(*pos, None))
            }
            FaultClass::CouplingIdempotent {
                pos,
                sep,
                rising,
                forces,
            } => format!(
                "CFID_{}_{}{}",
                pos_tag(*pos, *sep),
                if *rising { "R" } else { "F" },
                bit01(*forces)
            ),
            FaultClass::CouplingState {
                pos,
                sep,
                when,
                forces,
            } => format!(
                "CFST_{}_S{}F{}",
                pos_tag(*pos, *sep),
                bit01(*when),
                bit01(*forces)
            ),
        }
    }

    /// Human-readable description of the family.
    pub fn describe(&self) -> String {
        fn pos_text(pos: Pos, sep: Option<Sep>) -> &'static str {
            match (pos, sep) {
                (Pos::Below, _) => "aggressor below victim",
                (Pos::Above, _) => "aggressor above victim",
                (Pos::Intra, None) => "intra-word pair",
                (Pos::Intra, Some(Sep::Separable)) => "separable intra-word pair",
                (Pos::Intra, Some(Sep::NonSeparable)) => "non-separable intra-word pair",
            }
        }
        match self {
            FaultClass::StuckAt { value } => format!("stuck-at-{}", bit01(*value)),
            FaultClass::Transition { rising } => format!(
                "transition fault, {} write fails",
                if *rising { "0→1" } else { "1→0" }
            ),
            FaultClass::Retention { weak } => {
                format!("deep-sleep retention loss of a stored {}", bit01(*weak))
            }
            FaultClass::WakeUpWrite => "first write after wake-up lost".to_string(),
            FaultClass::AddressAlias { target_below } => format!(
                "address decoder aliases the word to a {} address",
                if *target_below { "lower" } else { "higher" }
            ),
            FaultClass::CouplingInversion { pos } => {
                format!("inversion coupling, {}", pos_text(*pos, None))
            }
            FaultClass::CouplingIdempotent {
                pos,
                sep,
                rising,
                forces,
            } => format!(
                "idempotent coupling, {}, {} aggressor write forces {}",
                pos_text(*pos, *sep),
                if *rising { "0→1" } else { "1→0" },
                bit01(*forces)
            ),
            FaultClass::CouplingState {
                pos,
                sep,
                when,
                forces,
            } => format!(
                "state coupling, {}, aggressor={} forces {}",
                pos_text(*pos, *sep),
                bit01(*when),
                bit01(*forces)
            ),
        }
    }

    /// Whether the class is an intra-word pair (background-family
    /// analysis applies).
    pub fn is_intra(&self) -> bool {
        matches!(
            self,
            FaultClass::CouplingInversion { pos: Pos::Intra }
                | FaultClass::CouplingIdempotent {
                    pos: Pos::Intra,
                    ..
                }
                | FaultClass::CouplingState {
                    pos: Pos::Intra,
                    ..
                }
        )
    }

    /// The intra-word separability constraint, if any.
    pub fn sep(&self) -> Option<Sep> {
        match self {
            FaultClass::CouplingIdempotent { sep, .. } | FaultClass::CouplingState { sep, .. } => {
                *sep
            }
            _ => None,
        }
    }

    /// The minimal concrete representative the matrix reports and the
    /// differential harness replays.
    pub fn canonical_instance(&self) -> Instance {
        let cell = |addr: usize, bit: usize| CellRef { addr, bit };
        let inter = |below: bool| {
            if below {
                (cell(0, 0), cell(1, 0)) // (aggressor, victim)
            } else {
                (cell(1, 0), cell(0, 0))
            }
        };
        let intra = |sep: Sep| match sep {
            Sep::Separable => (cell(0, 0), cell(0, 1), 2),
            Sep::NonSeparable => (cell(0, 0), cell(0, 4), 8),
        };
        match self {
            FaultClass::StuckAt { value } => Instance {
                words: 1,
                bits: 1,
                fault: Fault::stuck_at(cell(0, 0), *value),
            },
            FaultClass::Transition { rising } => Instance {
                words: 1,
                bits: 1,
                fault: Fault::transition(cell(0, 0), *rising),
            },
            FaultClass::Retention { weak } => Instance {
                words: 1,
                bits: 1,
                fault: Fault::retention_loss(cell(0, 0), *weak),
            },
            FaultClass::WakeUpWrite => Instance {
                words: 1,
                bits: 1,
                fault: Fault::wake_up_write(cell(0, 0)),
            },
            FaultClass::AddressAlias { target_below } => Instance {
                words: 2,
                bits: 1,
                fault: if *target_below {
                    Fault::address_alias(1, 0)
                } else {
                    Fault::address_alias(0, 1)
                },
            },
            FaultClass::CouplingInversion { pos } => match pos {
                Pos::Intra => {
                    let (a, v, bits) = intra(Sep::Separable);
                    Instance {
                        words: 1,
                        bits,
                        fault: Fault::coupling_inversion(a, v),
                    }
                }
                _ => {
                    let (a, v) = inter(*pos == Pos::Below);
                    Instance {
                        words: 2,
                        bits: 1,
                        fault: Fault::coupling_inversion(a, v),
                    }
                }
            },
            FaultClass::CouplingIdempotent {
                pos,
                sep,
                rising,
                forces,
            } => match sep {
                Some(s) => {
                    let (a, v, bits) = intra(*s);
                    Instance {
                        words: 1,
                        bits,
                        fault: Fault::coupling_idempotent(a, v, *rising, *forces),
                    }
                }
                None => {
                    let (a, v) = inter(*pos == Pos::Below);
                    Instance {
                        words: 2,
                        bits: 1,
                        fault: Fault::coupling_idempotent(a, v, *rising, *forces),
                    }
                }
            },
            FaultClass::CouplingState {
                pos,
                sep,
                when,
                forces,
            } => match sep {
                Some(s) => {
                    let (a, v, bits) = intra(*s);
                    Instance {
                        words: 1,
                        bits,
                        fault: Fault::coupling_state(a, v, *when, *forces),
                    }
                }
                None => {
                    let (a, v) = inter(*pos == Pos::Below);
                    Instance {
                        words: 2,
                        bits: 1,
                        fault: Fault::coupling_state(a, v, *when, *forces),
                    }
                }
            },
        }
    }

    /// The ⟨S/F/R⟩ primitive of the class (taken from the canonical
    /// instance; position does not change the primitive).
    pub fn primitive(&self) -> FaultPrimitive {
        self.canonical_instance().fault.kind.primitive()
    }

    /// Maps a concrete fault back to its class. `None` for degenerate
    /// instances outside the standard families (aggressor == victim,
    /// identity alias).
    pub fn classify(fault: &Fault) -> Option<FaultClass> {
        fn pos_of(a: CellRef, v: CellRef) -> Option<Pos> {
            if a.addr == v.addr {
                if a.bit == v.bit {
                    None
                } else {
                    Some(Pos::Intra)
                }
            } else if a.addr < v.addr {
                Some(Pos::Below)
            } else {
                Some(Pos::Above)
            }
        }
        fn sep_of(pos: Pos, a: CellRef, v: CellRef) -> Option<Sep> {
            match pos {
                Pos::Intra => Some(if separable(a.bit, v.bit) {
                    Sep::Separable
                } else {
                    Sep::NonSeparable
                }),
                _ => None,
            }
        }
        let v = fault.victim;
        Some(match &fault.kind {
            FaultKind::StuckAt(value) => FaultClass::StuckAt { value: *value },
            FaultKind::TransitionFault { rising } => FaultClass::Transition { rising: *rising },
            FaultKind::RetentionLoss { weak } => FaultClass::Retention { weak: *weak },
            FaultKind::WakeUpWriteFault => FaultClass::WakeUpWrite,
            FaultKind::AddressAlias { aliases_to } => {
                if *aliases_to == v.addr {
                    return None;
                }
                FaultClass::AddressAlias {
                    target_below: *aliases_to < v.addr,
                }
            }
            FaultKind::CouplingInversion { aggressor } => FaultClass::CouplingInversion {
                pos: pos_of(*aggressor, v)?,
            },
            FaultKind::CouplingIdempotent {
                aggressor,
                rising,
                forces,
            } => {
                let pos = pos_of(*aggressor, v)?;
                FaultClass::CouplingIdempotent {
                    pos,
                    sep: sep_of(pos, *aggressor, v),
                    rising: *rising,
                    forces: *forces,
                }
            }
            FaultKind::CouplingState {
                aggressor,
                when,
                forces,
            } => {
                let pos = pos_of(*aggressor, v)?;
                FaultClass::CouplingState {
                    pos,
                    sep: sep_of(pos, *aggressor, v),
                    when: *when,
                    forces: *forces,
                }
            }
        })
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_four_standard_classes_with_unique_codes() {
        let all = FaultClass::all_standard();
        assert_eq!(all.len(), 44);
        let mut codes: Vec<String> = all.iter().map(|c| c.code()).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 44, "codes must be unique");
    }

    #[test]
    fn canonical_instances_classify_back() {
        for class in FaultClass::all_standard() {
            let inst = class.canonical_instance();
            assert!(
                inst.fault.victim.addr < inst.words && inst.fault.victim.bit < inst.bits,
                "{}: victim out of geometry",
                class.code()
            );
            if let Some(a) = inst.fault.kind.aggressor() {
                assert!(a.addr < inst.words && a.bit < inst.bits);
            }
            assert_eq!(
                FaultClass::classify(&inst.fault).as_ref(),
                Some(&class),
                "{} canonical instance must classify to itself",
                class.code()
            );
        }
    }

    #[test]
    fn separability_matches_mod4() {
        assert!(separable(0, 1));
        assert!(separable(0, 2));
        assert!(separable(0, 3));
        assert!(!separable(0, 4));
        assert!(!separable(1, 5));
        assert!(!separable(3, 7));
        assert!(separable(2, 5));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(FaultClass::StuckAt { value: false }.code(), "SAF0");
        assert_eq!(FaultClass::Transition { rising: true }.code(), "TF_R");
        assert_eq!(FaultClass::Retention { weak: true }.code(), "DRF1");
        assert_eq!(
            FaultClass::AddressAlias { target_below: true }.code(),
            "AF_LO"
        );
        assert_eq!(
            FaultClass::CouplingIdempotent {
                pos: Pos::Intra,
                sep: Some(Sep::NonSeparable),
                rising: true,
                forces: false,
            }
            .code(),
            "CFID_IW_NSEP_R0"
        );
        assert_eq!(
            FaultClass::CouplingState {
                pos: Pos::Below,
                sep: None,
                when: true,
                forces: false,
            }
            .code(),
            "CFST_LO_S1F0"
        );
    }
}

//! The memory interface the March engine drives, plus a behavioural
//! reference implementation with fault injection.

use crate::fault::{CellRef, Fault, FaultKind};

/// A word-oriented memory with power modes, as seen by the test
/// engine. Implementations are behavioural: operations always complete
/// (defective behaviour shows up in the *data*, as on a real tester).
pub trait TestTarget {
    /// Number of addressable words.
    fn word_count(&self) -> usize;

    /// Word width in bits (≤ 64).
    fn word_bits(&self) -> usize;

    /// Writes a word.
    fn write(&mut self, addr: usize, value: u64);

    /// Reads a word.
    fn read(&mut self, addr: usize) -> u64;

    /// Switches from active to deep-sleep and dwells `dwell` seconds.
    fn deep_sleep(&mut self, dwell: f64);

    /// Returns from deep-sleep to active mode.
    fn wake_up(&mut self);

    /// The solid all-ones background for this word width.
    fn ones(&self) -> u64 {
        if self.word_bits() == 64 {
            u64::MAX
        } else {
            (1u64 << self.word_bits()) - 1
        }
    }
}

/// A plain behavioural memory with injectable classic and retention
/// faults — the reference [`TestTarget`] used for fault-coverage
/// studies and engine self-tests.
#[derive(Debug, Clone)]
pub struct SimpleMemory {
    words: usize,
    word_bits: usize,
    data: Vec<u64>,
    faults: Vec<Fault>,
    /// Victims of wake-up write faults whose lost write is still
    /// pending (armed at `wake_up`, consumed by the first write).
    wakeup_armed: Vec<CellRef>,
}

impl SimpleMemory {
    /// Creates a zero-initialised memory.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is 0 or exceeds 64, or `words` is 0.
    pub fn new(words: usize, word_bits: usize) -> Self {
        assert!(words > 0, "memory needs at least one word");
        assert!(
            (1..=64).contains(&word_bits),
            "word width must be 1..=64 bits"
        );
        SimpleMemory {
            words,
            word_bits,
            data: vec![0; words],
            faults: Vec::new(),
            wakeup_armed: Vec::new(),
        }
    }

    /// Injects a fault.
    ///
    /// # Panics
    ///
    /// Panics if the fault references cells or words outside the
    /// memory.
    pub fn inject(&mut self, fault: Fault) {
        let check = |c: &CellRef| {
            assert!(c.addr < self.words, "fault address out of range");
            assert!(c.bit < self.word_bits, "fault bit out of range");
        };
        check(&fault.victim);
        if let Some(aggr) = fault.kind.aggressor() {
            check(&aggr);
        }
        if let FaultKind::AddressAlias { aliases_to } = fault.kind {
            assert!(aliases_to < self.words, "fault address out of range");
        }
        self.faults.push(fault);
    }

    /// Returns the memory to its power-on state — every word zero, no
    /// fault injected, no wake-up latch armed — keeping its buffers, so
    /// one memory can grade a whole fault list without reallocating.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.faults.clear();
        self.wakeup_armed.clear();
    }

    /// The injected faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Resolves decoder aliasing: the physical address actually
    /// accessed when the tester addresses `addr`.
    fn decode(&self, addr: usize) -> usize {
        for f in &self.faults {
            if let FaultKind::AddressAlias { aliases_to } = f.kind {
                if f.victim.addr == addr {
                    return aliases_to;
                }
            }
        }
        addr
    }
}

fn bit(data: &[u64], c: CellRef) -> bool {
    (data[c.addr] >> c.bit) & 1 == 1
}

fn set_bit(data: &mut [u64], c: CellRef, v: bool) {
    if v {
        data[c.addr] |= 1 << c.bit;
    } else {
        data[c.addr] &= !(1 << c.bit);
    }
}

impl TestTarget for SimpleMemory {
    fn word_count(&self) -> usize {
        self.words
    }

    fn word_bits(&self) -> usize {
        self.word_bits
    }

    fn write(&mut self, addr: usize, value: u64) {
        assert!(addr < self.words, "address out of range");
        let addr = self.decode(addr);
        let new = value & self.ones();
        let SimpleMemory {
            data,
            faults,
            wakeup_armed,
            ..
        } = self;
        let old = data[addr];
        data[addr] = new;

        // Coupling faults fire on aggressor transitions caused by this
        // write; effects land on the victim (possibly in another word)
        // *after* the write of the aggressor word, in injection order.
        for f in faults.iter() {
            let Some(aggr) = f.kind.aggressor().filter(|a| a.addr == addr) else {
                continue;
            };
            let was = (old >> aggr.bit) & 1 == 1;
            let now = (new >> aggr.bit) & 1 == 1;
            if was == now {
                continue;
            }
            match f.kind {
                FaultKind::CouplingInversion { .. } => {
                    let v = bit(data, f.victim);
                    set_bit(data, f.victim, !v);
                }
                FaultKind::CouplingIdempotent { rising, forces, .. } => {
                    if now == rising {
                        set_bit(data, f.victim, forces);
                    }
                }
                // CFst is level- not edge-triggered; handled after the
                // write below.
                FaultKind::CouplingState { .. } => {}
                _ => unreachable!("only coupling faults have aggressors"),
            }
        }

        // Per-victim write semantics in this word.
        for f in faults.iter() {
            if f.victim.addr != addr {
                continue;
            }
            match f.kind {
                FaultKind::StuckAt(v) => set_bit(data, f.victim, v),
                FaultKind::TransitionFault { rising } => {
                    let was = (old >> f.victim.bit) & 1 == 1;
                    let want = (new >> f.victim.bit) & 1 == 1;
                    if was != want && want == rising {
                        // The failing transition does not happen.
                        set_bit(data, f.victim, was);
                    }
                }
                _ => {}
            }
        }
        // Pending wake-up faults: the first write after WUP is lost.
        if let Some(pos) = wakeup_armed.iter().position(|c| c.addr == addr) {
            let victim = wakeup_armed.remove(pos);
            let was = (old >> victim.bit) & 1 == 1;
            set_bit(data, victim, was);
        }
        // State coupling: enforce every CFst whose aggressor currently
        // holds its activating state (on any write — the model of a
        // continuous disturbance).
        for f in faults.iter() {
            if let FaultKind::CouplingState {
                aggressor,
                when,
                forces,
            } = f.kind
            {
                if bit(data, aggressor) == when {
                    set_bit(data, f.victim, forces);
                }
            }
        }
    }

    fn read(&mut self, addr: usize) -> u64 {
        assert!(addr < self.words, "address out of range");
        let addr = self.decode(addr);
        let mut word = self.data[addr];
        for f in &self.faults {
            if f.victim.addr == addr {
                if let FaultKind::StuckAt(v) = f.kind {
                    if v {
                        word |= 1 << f.victim.bit;
                    } else {
                        word &= !(1 << f.victim.bit);
                    }
                }
            }
        }
        word
    }

    fn deep_sleep(&mut self, _dwell: f64) {
        for f in &self.faults {
            if let FaultKind::RetentionLoss { weak } = f.kind {
                if bit(&self.data, f.victim) == weak {
                    set_bit(&mut self.data, f.victim, !weak);
                }
            }
        }
    }

    fn wake_up(&mut self) {
        self.wakeup_armed.clear();
        self.wakeup_armed.extend(
            self.faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::WakeUpWriteFault))
                .map(|f| f.victim),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_memory_reads_writes() {
        let mut m = SimpleMemory::new(8, 8);
        m.write(3, 0xA5);
        assert_eq!(m.read(3), 0xA5);
        assert_eq!(m.read(0), 0);
        assert_eq!(m.ones(), 0xFF);
    }

    #[test]
    fn stuck_at_dominates() {
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::stuck_at(CellRef { addr: 1, bit: 3 }, false));
        m.write(1, 0xFF);
        assert_eq!(m.read(1), 0xFF & !(1 << 3));
        m.inject(Fault::stuck_at(CellRef { addr: 2, bit: 0 }, true));
        m.write(2, 0x00);
        assert_eq!(m.read(2), 0x01);
    }

    #[test]
    fn transition_fault_blocks_one_direction() {
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::transition(CellRef { addr: 0, bit: 0 }, true)); // can't rise
        m.write(0, 0x00);
        m.write(0, 0x01);
        assert_eq!(m.read(0) & 1, 0, "rising transition must fail");
        // Falling works: force the bit high via a fresh memory state.
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::transition(CellRef { addr: 0, bit: 0 }, false)); // can't fall
        m.write(0, 0x01);
        m.write(0, 0x00);
        assert_eq!(m.read(0) & 1, 1, "falling transition must fail");
    }

    #[test]
    fn coupling_inversion_flips_victim() {
        let mut m = SimpleMemory::new(4, 8);
        let aggr = CellRef { addr: 0, bit: 0 };
        let vict = CellRef { addr: 1, bit: 5 };
        m.inject(Fault::coupling_inversion(aggr, vict));
        m.write(1, 0x00);
        m.write(0, 0x01); // aggressor rises -> victim inverts
        assert_eq!(m.read(1), 1 << 5);
        m.write(0, 0x00); // falls -> inverts again
        assert_eq!(m.read(1), 0);
    }

    #[test]
    fn coupling_idempotent_forces_value() {
        let mut m = SimpleMemory::new(4, 8);
        let aggr = CellRef { addr: 0, bit: 0 };
        let vict = CellRef { addr: 2, bit: 1 };
        m.inject(Fault::coupling_idempotent(aggr, vict, true, false));
        m.write(2, 0xFF);
        m.write(0, 0x01); // rising aggressor forces victim to 0
        assert_eq!(m.read(2), 0xFF & !(1 << 1));
        // Falling edge does nothing.
        m.write(2, 0xFF);
        m.write(0, 0x00);
        assert_eq!(m.read(2), 0xFF);
    }

    #[test]
    fn retention_loss_fires_only_in_deep_sleep() {
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::retention_loss(CellRef { addr: 3, bit: 7 }, true));
        m.write(3, 0xFF);
        assert_eq!(m.read(3), 0xFF);
        m.deep_sleep(1e-3);
        m.wake_up();
        assert_eq!(m.read(3), 0x7F, "stored '1' lost in DS");
        // Holding '0' is safe.
        m.write(3, 0x00);
        m.deep_sleep(1e-3);
        assert_eq!(m.read(3), 0x00);
    }

    #[test]
    fn address_alias_redirects_accesses() {
        let mut m = SimpleMemory::new(8, 8);
        m.inject(Fault::address_alias(3, 5));
        m.write(3, 0xAA); // actually lands at 5
        assert_eq!(m.read(5), 0xAA);
        assert_eq!(m.read(3), 0xAA, "reads of 3 see word 5");
        m.write(5, 0x11);
        assert_eq!(m.read(3), 0x11);
    }

    #[test]
    fn wake_up_write_fault_loses_first_write_only() {
        let mut m = SimpleMemory::new(8, 8);
        m.inject(Fault::wake_up_write(CellRef { addr: 2, bit: 4 }));
        // Before any wake-up, writes work.
        m.write(2, 0xFF);
        assert_eq!(m.read(2), 0xFF);
        m.deep_sleep(1e-3);
        m.wake_up();
        // First write after WUP: bit 4 keeps its old value.
        m.write(2, 0x00);
        assert_eq!(m.read(2), 1 << 4, "first post-WUP write lost");
        // Second write works normally.
        m.write(2, 0x00);
        assert_eq!(m.read(2), 0x00);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_bounds_checked() {
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::stuck_at(CellRef { addr: 4, bit: 0 }, true));
    }

    #[test]
    #[should_panic(expected = "fault address out of range")]
    fn alias_target_bounds_checked() {
        let mut m = SimpleMemory::new(8, 8);
        m.inject(Fault::address_alias(3, 99));
    }

    #[test]
    fn couplings_on_one_aggressor_apply_in_injection_order() {
        // One rising aggressor write fires both faults on the same
        // victim: CFid↑ forcing 1 then CFin ends at 0, the reverse
        // order at 1.
        let aggr = CellRef { addr: 0, bit: 0 };
        let vict = CellRef { addr: 1, bit: 2 };
        let cfid = Fault::coupling_idempotent(aggr, vict, true, true);
        let cfin = Fault::coupling_inversion(aggr, vict);
        for (faults, victim_after) in [([cfid.clone(), cfin.clone()], 0), ([cfin, cfid], 1)] {
            let mut m = SimpleMemory::new(4, 8);
            for f in faults {
                m.inject(f);
            }
            m.write(1, 0x00);
            m.write(0, 0x01);
            assert_eq!(m.read(1), victim_after << 2);
        }
    }

    #[test]
    fn reset_restores_the_power_on_state() {
        let mut m = SimpleMemory::new(4, 8);
        m.inject(Fault::wake_up_write(CellRef { addr: 1, bit: 0 }));
        m.inject(Fault::stuck_at(CellRef { addr: 2, bit: 3 }, true));
        m.write(0, 0xFF);
        m.deep_sleep(1e-3);
        m.wake_up(); // arms the latch on word 1
        m.reset();
        assert!(m.faults().is_empty());
        for addr in 0..4 {
            assert_eq!(m.read(addr), 0, "word {addr} after reset");
        }
        // The latch is disarmed: with the fault back in but no wake-up
        // since the reset, the first write lands.
        m.inject(Fault::wake_up_write(CellRef { addr: 1, bit: 0 }));
        m.write(1, 0x01);
        assert_eq!(m.read(1), 0x01);
    }

    #[test]
    #[should_panic(expected = "word width")]
    fn word_width_validated() {
        let _ = SimpleMemory::new(4, 65);
    }
}

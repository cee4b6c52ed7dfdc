//! Primitive March operations and address orders.

use std::fmt;

/// A single read or write operation applied at one address.
///
/// March notation works on a solid data background: `w0`/`w1` write the
/// all-zeros/all-ones pattern into the word, `r0`/`r1` read and compare
/// against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Write the all-zeros background (`w0`).
    W0,
    /// Write the all-ones background (`w1`).
    W1,
    /// Read, expecting the all-zeros background (`r0`).
    R0,
    /// Read, expecting the all-ones background (`r1`).
    R1,
}

impl Op {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, Op::R0 | Op::R1)
    }

    /// The background value the operation writes or expects: `false`
    /// for the all-zeros pattern, `true` for all-ones.
    pub fn background(self) -> bool {
        matches!(self, Op::W1 | Op::R1)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::W0 => "w0",
            Op::W1 => "w1",
            Op::R0 => "r0",
            Op::R1 => "r1",
        };
        f.write_str(s)
    }
}

/// Address traversal order of a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressOrder {
    /// Ascending (`⇑`).
    Up,
    /// Descending (`⇓`).
    Down,
    /// Irrelevant (`⇕`); executed ascending.
    Any,
}

impl AddressOrder {
    /// The addresses of a memory with `words` words, in this order.
    pub fn addresses(self, words: usize) -> impl Iterator<Item = usize> {
        let down = self == AddressOrder::Down;
        (0..words).map(move |i| if down { words - 1 - i } else { i })
    }
}

impl fmt::Display for AddressOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressOrder::Up => "⇑",
            AddressOrder::Down => "⇓",
            AddressOrder::Any => "⇕",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_properties() {
        assert!(Op::R0.is_read());
        assert!(Op::R1.is_read());
        assert!(!Op::W0.is_read());
        assert!(Op::W1.background());
        assert!(!Op::R0.background());
        assert_eq!(Op::W1.to_string(), "w1");
        assert_eq!(Op::R0.to_string(), "r0");
    }

    #[test]
    fn address_orders() {
        let up: Vec<usize> = AddressOrder::Up.addresses(4).collect();
        assert_eq!(up, vec![0, 1, 2, 3]);
        let down: Vec<usize> = AddressOrder::Down.addresses(4).collect();
        assert_eq!(down, vec![3, 2, 1, 0]);
        let any: Vec<usize> = AddressOrder::Any.addresses(3).collect();
        assert_eq!(any, vec![0, 1, 2]);
    }

    #[test]
    fn display_arrows() {
        assert_eq!(AddressOrder::Up.to_string(), "⇑");
        assert_eq!(AddressOrder::Down.to_string(), "⇓");
        assert_eq!(AddressOrder::Any.to_string(), "⇕");
    }
}

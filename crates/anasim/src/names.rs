//! Interned name tables for netlist nodes and devices.
//!
//! A full-array netlist names half a million nodes and one and a half
//! million devices. Storing each name as its own heap `String` — twice,
//! once in the owner and once as a hash-map key — costs millions of
//! allocations to build and as many frees to drop. A [`NameTable`]
//! instead packs every name of one namespace into a single byte arena
//! with `u32` end offsets, and indexes it with an FNV-1a open-addressing
//! table whose slots cache each name's hash, so growing the index never
//! re-reads name bytes. Adding a name allocates nothing beyond the
//! amortized growth of those three buffers.

/// FNV-1a offset basis (shared with the structural fingerprints).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Slot id marking a free index slot.
const FREE: u32 = u32::MAX;
/// Index size of the first insertion (a power of two).
const MIN_SLOTS: usize = 16;

/// FNV-1a over the name bytes, folded to 32 bits so the high half of
/// the product (where FNV mixes best) reaches the probe position.
fn name_hash(name: &str) -> u32 {
    let h = name.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    });
    (h ^ (h >> 32)) as u32
}

/// One index slot: a name's cached hash and its dense id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const EMPTY: Slot = Slot { hash: 0, id: FREE };

/// Names of one namespace, densely numbered from 0 in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    /// Every name's bytes, back to back.
    arena: String,
    /// End offset of each name in `arena`; name `i` spans
    /// `ends[i - 1]..ends[i]` (from 0 for the first).
    ends: Vec<u32>,
    /// Linear-probing index, a power of two in size and at most half
    /// full; empty until the first insertion.
    slots: Vec<Slot>,
}

impl NameTable {
    /// An empty table with room for `names` names: its index is sized
    /// so that holding them keeps it at most half full, and so never
    /// grows on the way.
    pub(crate) fn with_capacity(names: usize) -> Self {
        let slots = if names == 0 {
            0
        } else {
            (2 * names).next_power_of_two().max(MIN_SLOTS)
        };
        NameTable {
            arena: String::new(),
            ends: Vec::with_capacity(names),
            slots: vec![EMPTY; slots],
        }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The name with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn get(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// Iterates over every name in id order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|id| self.get(id))
    }

    /// The id of `name`, if present.
    pub(crate) fn find(&self, name: &str) -> Option<usize> {
        self.probe(name, name_hash(name)).ok()
    }

    /// Adds `name` and returns its new id, or `Err` with the id it
    /// already has.
    ///
    /// # Panics
    ///
    /// Panics if the namespace outgrows `u32` ids or arena offsets.
    pub(crate) fn insert(&mut self, name: &str) -> Result<usize, usize> {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = name_hash(name);
        let pos = match self.probe(name, hash) {
            Ok(existing) => return Err(existing),
            Err(free) => free,
        };
        let id = self.len();
        self.arena.push_str(name);
        let end = u32::try_from(self.arena.len()).expect("name arena exceeds 4 GiB");
        let id32 = u32::try_from(id)
            .ok()
            .filter(|&i| i != FREE)
            .expect("more than u32::MAX - 1 names");
        self.ends.push(end);
        self.slots[pos] = Slot { hash, id: id32 };
        Ok(id)
    }

    /// Linear probe for `name`: `Ok(id)` when present, otherwise
    /// `Err(slot)` with the free slot it would occupy.
    fn probe(&self, name: &str, hash: u32) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot.id == FREE {
                return Err(pos);
            }
            if slot.hash == hash && self.get(slot.id as usize) == name {
                return Ok(slot.id as usize);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the index, re-placing every entry by its cached hash.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_SLOTS);
        let mask = size - 1;
        let mut slots = vec![EMPTY; size];
        for slot in self.slots.iter().filter(|s| s.id != FREE) {
            let mut pos = slot.hash as usize & mask;
            while slots[pos].id != FREE {
                pos = (pos + 1) & mask;
            }
            slots[pos] = *slot;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_and_get_round_trip() {
        let mut t = NameTable::default();
        assert_eq!(t.find("a"), None);
        assert_eq!(t.insert("a"), Ok(0));
        assert_eq!(t.insert("bb"), Ok(1));
        assert_eq!(t.insert(""), Ok(2));
        assert_eq!(t.insert("a"), Err(0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1), "bb");
        assert_eq!(t.get(2), "");
        assert_eq!(t.find(""), Some(2));
        assert_eq!(t.iter().collect::<Vec<_>>(), ["a", "bb", ""]);
    }

    #[test]
    fn presized_index_never_grows() {
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        let mut t = NameTable::with_capacity(names.len());
        let size = t.slots.len();
        assert_eq!(size, 2048);
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.insert(n), Ok(i));
        }
        assert_eq!(t.slots.len(), size, "the index grew");
        assert_eq!(t.find("n999"), Some(999));
        assert!(NameTable::with_capacity(0).slots.is_empty());
    }

    #[test]
    fn half_full_index_resolves_every_name() {
        // Fill the smallest index to its load limit: every name still
        // resolves to its own id, and an absent one probes to a free slot.
        let mut t = NameTable::default();
        let names: Vec<String> = (0..8).map(|i| format!("n{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.insert(n), Ok(i));
        }
        assert_eq!(t.slots.len(), MIN_SLOTS);
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.find(n), Some(i));
        }
        assert_eq!(t.find("n8"), None);
    }
}

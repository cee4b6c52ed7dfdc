//! Name stores for netlist nodes and devices.
//!
//! A full-array netlist names half a million nodes and one and a half
//! million devices. Storing each name as its own heap `String` costs
//! millions of allocations to build and as many frees to drop. A
//! [`Labels`] store instead packs every name of one namespace into a
//! single byte arena with `u32` end offsets, so adding a name allocates
//! nothing beyond the amortized growth of those two buffers. Device
//! names are such labels and nothing more: no lookup by device name is
//! on a hot path, so they carry no index, and a reused name is ERC012's
//! to report. Node names are looked up on every connection a builder
//! makes, so a [`NameTable`] adds an FNV-1a open-addressing index whose
//! slots cache each name's hash, and growing the index never re-reads
//! name bytes.

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

/// Names of one namespace, densely numbered from 0 in insertion order,
/// without an index: a name may repeat.
#[derive(Debug, Clone, Default)]
pub(crate) struct Labels {
    /// Every name's bytes, back to back.
    arena: String,
    /// End offset of each name in `arena`; name `i` spans
    /// `ends[i - 1]..ends[i]` (from 0 for the first).
    ends: Vec<u32>,
}

impl Labels {
    /// An empty store with room for `names` end offsets.
    pub(crate) fn with_capacity(names: usize) -> Self {
        Labels {
            arena: String::new(),
            ends: Vec::with_capacity(names),
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

    /// Appends `name`, which may repeat an earlier one, and returns its
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows `u32` offsets.
    pub(crate) fn push(&mut self, name: &str) -> usize {
        let id = self.len();
        self.arena.push_str(name);
        let end = u32::try_from(self.arena.len()).expect("name arena exceeds 4 GiB");
        self.ends.push(end);
        id
    }
}

/// [`Labels`] with unique names and an index to find them by name.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    labels: Labels,
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
            labels: Labels::with_capacity(names),
            slots: vec![EMPTY; slots],
        }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// The name with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn get(&self, id: usize) -> &str {
        self.labels.get(id)
    }

    /// Iterates over every name in id order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.labels.iter()
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
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&i| i != FREE)
            .expect("more than u32::MAX - 1 names");
        self.slots[pos] = Slot { hash, id };
        Ok(self.labels.push(name))
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

    #[test]
    fn labels_keep_repeated_names_apart() {
        let mut l = Labels::with_capacity(2);
        assert_eq!(l.push("R1"), 0);
        assert_eq!(l.push(""), 1);
        assert_eq!(l.push("R1"), 2);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(0), "R1");
        assert_eq!(l.get(2), "R1");
        assert_eq!(l.iter().collect::<Vec<_>>(), ["R1", "", "R1"]);
    }
}

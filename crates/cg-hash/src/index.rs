//! [`StrIndex`]: an open-addressing index over a string table that its
//! owner keeps elsewhere.
//!
//! The crawl store's encoder and decoder and the instrumentation
//! recorder each number a visit's distinct strings in first-use order.
//! The strings live in the owner's own table (a byte buffer, a slice of
//! the payload, a `Vec<String>`); the index holds only `u32` slots and
//! asks the owner for an entry's bytes when a probe needs them, so an
//! entry is stored once and a lookup allocates nothing.

use crate::fnv1a32w;

/// Entry index + 1 per slot (0 = empty), over a power-of-two slot count
/// at least twice the entry count; linear probing from the string's
/// FNV-1a/64w hash.
#[derive(Debug, Clone, Default)]
pub struct StrIndex {
    slots: Vec<u32>,
}

/// The empty slot a failed [`StrIndex::find`] ended on: where the
/// string it looked for goes if the caller adds it.
#[derive(Debug)]
pub struct Vacant(usize);

impl StrIndex {
    /// The slot count an index of `entries` strings is built with.
    pub fn slot_count(entries: usize) -> usize {
        (entries * 2).next_power_of_two().max(16)
    }

    /// An index sized for `entries` strings, so that many inserts never
    /// grow it.
    pub fn with_capacity(entries: usize) -> StrIndex {
        StrIndex {
            slots: vec![0; StrIndex::slot_count(entries)],
        }
    }

    /// Forgets every entry, keeping the slots' allocation.
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Looks `s` up among the `len` entries numbered `0..len`, whose
    /// bytes `entry` returns: `Ok` with its number, or `Err` with the
    /// slot for [`StrIndex::insert`]. Grows (rehashing through `entry`)
    /// first when one more entry would not fit.
    pub fn find<'t>(
        &mut self,
        s: &[u8],
        len: usize,
        entry: impl Fn(u32) -> &'t [u8],
    ) -> Result<u32, Vacant> {
        if self.slots.len() < StrIndex::slot_count(len + 1) {
            self.slots = vec![0; StrIndex::slot_count(len + 1) * 2];
            for index in 0..len as u32 {
                if let Err(Vacant(at)) = self.probe(hash(entry(index)), |_| false) {
                    self.slots[at] = index + 1;
                }
            }
        }
        self.probe(hash(s), |i| entry(i) == s)
    }

    /// Looks `s` up among the entries whose bytes `entry` returns,
    /// without ever growing: the probe-only form of [`StrIndex::find`]
    /// for owners that only read.
    pub fn get<'t>(&self, s: &[u8], entry: impl Fn(u32) -> &'t [u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash(s), |i| entry(i) == s).ok()
    }

    /// Records entry `index` in the slot a failed [`StrIndex::find`]
    /// returned. No entry may be added between the two calls.
    pub fn insert(&mut self, at: Vacant, index: u32) {
        self.slots[at.0] = index + 1;
    }

    fn probe(&self, hash: usize, is: impl Fn(u32) -> bool) -> Result<u32, Vacant> {
        let mask = self.slots.len() - 1;
        let mut at = hash & mask;
        loop {
            match self.slots[at] {
                0 => return Err(Vacant(at)),
                slot if is(slot - 1) => return Ok(slot - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }
}

fn hash(s: &[u8]) -> usize {
    fnv1a32w(0, s) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `s` into `table` through `index`.
    fn intern(index: &mut StrIndex, table: &mut Vec<String>, s: &str) -> u32 {
        let found = index.find(s.as_bytes(), table.len(), |i| table[i as usize].as_bytes());
        match found {
            Ok(i) => i,
            Err(at) => {
                table.push(s.to_string());
                let i = table.len() as u32 - 1;
                index.insert(at, i);
                i
            }
        }
    }

    #[test]
    fn numbers_strings_in_first_use_order_across_growth() {
        let mut index = StrIndex::default();
        let mut table = Vec::new();
        for round in 0..2 {
            for n in 0..100u32 {
                assert_eq!(
                    intern(&mut index, &mut table, &format!("s{n}")),
                    n,
                    "{round}"
                );
            }
        }
        assert_eq!(table.len(), 100);
        let entry = |i: u32| table[i as usize].as_bytes();
        assert_eq!(index.get(b"s42", entry), Some(42));
        assert_eq!(index.get(b"s100", entry), None);
        assert_eq!(StrIndex::default().get(b"s1", entry), None);
        assert_eq!(intern(&mut index, &mut table, ""), 100);
        index.clear();
        table.clear();
        assert_eq!(intern(&mut index, &mut table, "s7"), 0);
    }

    #[test]
    fn a_presized_index_does_not_grow() {
        let mut index = StrIndex::with_capacity(40);
        let slots = index.slots.len();
        let mut table = Vec::new();
        for n in 0..40 {
            intern(&mut index, &mut table, &n.to_string());
        }
        assert_eq!(index.slots.len(), slots);
    }
}

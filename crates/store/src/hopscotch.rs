//! FaRM's Hopscotch hash table (paper §2.2.2, §4.1.4).
//!
//! FaRM stores objects in a Hopscotch table so a remote key lookup is a
//! single one-sided RDMA READ of the key's **neighborhood**: the `H`
//! consecutive slots starting at the home slot (FaRM publishes `H = 8`).
//! Insertion keeps every key within its neighborhood by *hopping* earlier
//! elements forward; when no hop sequence exists, the key goes to an
//! overflow bucket, and remote lookups that miss the neighborhood pay a
//! second read (the paper reports ~4% of keys at 90% occupancy).
//!
//! The cost structure Table 2 measures: **every** lookup reads `H` objects
//! (the read size is fixed before the read), so mean objects read is
//! `> H`, versus Xenic's hint-bounded reads.

use crate::hash::slot_for;
use crate::types::{Key, Value, Version};
use xenic_sim::FastMap;

/// Per-slot metadata bytes (key + version + length), matching the
/// Robinhood accounting so Table 2 compares object counts fairly.
const SLOT_HEADER_BYTES: u32 = 24;

/// One occupied slot.
#[derive(Clone, Debug)]
struct Slot {
    key: Key,
    home: usize,
    version: Version,
    value: Value,
}

/// The cost of one simulated remote lookup.
#[derive(Clone, Debug)]
pub struct HopscotchTrace {
    /// Value and version if found.
    pub found: Option<(Value, Version)>,
    /// Objects (slots + overflow entries) read.
    pub objects_read: usize,
    /// One-sided READ roundtrips.
    pub roundtrips: usize,
    /// Bytes transferred.
    pub bytes_read: u64,
}

/// A Hopscotch hash table with neighborhood `H` and per-home overflow.
pub struct HopscotchTable {
    slots: Vec<Option<Slot>>,
    overflow: FastMap<usize, Vec<Slot>>,
    capacity: usize,
    h: usize,
    slot_value_bytes: u32,
    len: usize,
    overflow_len: usize,
}

impl HopscotchTable {
    /// Creates a table with `capacity` slots and neighborhood size `h`.
    pub fn new(capacity: usize, h: usize, slot_value_bytes: u32) -> Self {
        assert!(capacity >= h && h > 0);
        HopscotchTable {
            slots: vec![None; capacity],
            overflow: FastMap::default(),
            capacity,
            h,
            slot_value_bytes,
            len: 0,
            overflow_len: 0,
        }
    }

    /// Neighborhood size.
    pub fn neighborhood(&self) -> usize {
        self.h
    }

    /// In-table keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.overflow_len == 0
    }

    /// Overflow-resident keys.
    pub fn overflow_len(&self) -> usize {
        self.overflow_len
    }

    /// Fraction of slots occupied.
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.capacity as f64
    }

    /// Bytes per slot for transfer accounting.
    pub fn slot_bytes(&self) -> u32 {
        SLOT_HEADER_BYTES + self.slot_value_bytes
    }

    fn home_of(&self, key: Key) -> usize {
        slot_for(key, self.capacity)
    }

    fn dist(&self, home: usize, pos: usize) -> usize {
        (pos + self.capacity - home) % self.capacity
    }

    /// Inserts a key; returns false only if the table is completely full.
    /// Existing keys are updated in place.
    pub fn insert(&mut self, key: Key, value: Value) -> bool {
        if self.update(key, value.clone(), 1) {
            return true;
        }
        let home = self.home_of(key);
        // Find the first empty slot by linear probing.
        let mut empty = None;
        for i in 0..self.capacity {
            let pos = (home + i) % self.capacity;
            if self.slots[pos].is_none() {
                empty = Some(pos);
                break;
            }
        }
        let Some(mut empty) = empty else {
            // Table slots are full; overflow still accepts the key.
            self.push_overflow(key, home, value);
            return true;
        };
        // Hop the empty slot backward until it is within the neighborhood.
        while self.dist(home, empty) >= self.h {
            // Look for a candidate in the (h-1) slots before `empty` whose
            // own home allows it to move into `empty`.
            let mut moved = false;
            for back in (1..self.h).rev() {
                let cand = (empty + self.capacity - back) % self.capacity;
                if let Some(s) = &self.slots[cand] {
                    if self.dist(s.home, empty) < self.h {
                        self.slots[empty] = self.slots[cand].take();
                        empty = cand;
                        moved = true;
                        break;
                    }
                }
            }
            if !moved {
                // No hop sequence: overflow (FaRM's overflow bucket).
                self.push_overflow(key, home, value);
                return true;
            }
        }
        self.slots[empty] = Some(Slot {
            key,
            home,
            version: 1,
            value,
        });
        self.len += 1;
        true
    }

    fn push_overflow(&mut self, key: Key, home: usize, value: Value) {
        self.overflow.entry(home).or_default().push(Slot {
            key,
            home,
            version: 1,
            value,
        });
        self.overflow_len += 1;
    }

    /// Local lookup.
    pub fn get(&self, key: Key) -> Option<(&Value, Version)> {
        let home = self.home_of(key);
        for i in 0..self.h {
            let pos = (home + i) % self.capacity;
            if let Some(s) = &self.slots[pos] {
                if s.key == key {
                    return Some((&s.value, s.version));
                }
            }
        }
        self.overflow
            .get(&home)?
            .iter()
            .find(|s| s.key == key)
            .map(|s| (&s.value, s.version))
    }

    /// Updates an existing key in place; returns false if absent.
    pub fn update(&mut self, key: Key, value: Value, version: Version) -> bool {
        let home = self.home_of(key);
        for i in 0..self.h {
            let pos = (home + i) % self.capacity;
            if let Some(s) = &mut self.slots[pos] {
                if s.key == key {
                    s.value = value;
                    s.version = version;
                    return true;
                }
            }
        }
        if let Some(bucket) = self.overflow.get_mut(&home) {
            if let Some(s) = bucket.iter_mut().find(|s| s.key == key) {
                s.value = value;
                s.version = version;
                return true;
            }
        }
        false
    }

    /// Simulates FaRM's remote lookup: one READ of the `H`-slot
    /// neighborhood, plus a second READ of the overflow bucket on a miss.
    pub fn remote_lookup(&self, key: Key) -> HopscotchTrace {
        let home = self.home_of(key);
        let slot_bytes = u64::from(self.slot_bytes());
        let mut trace = HopscotchTrace {
            found: None,
            objects_read: self.h,
            roundtrips: 1,
            bytes_read: self.h as u64 * slot_bytes,
        };
        for i in 0..self.h {
            let pos = (home + i) % self.capacity;
            if let Some(s) = &self.slots[pos] {
                if s.key == key {
                    trace.found = Some((s.value.clone(), s.version));
                    return trace;
                }
            }
        }
        if let Some(bucket) = self.overflow.get(&home) {
            if !bucket.is_empty() {
                trace.roundtrips += 1;
                trace.objects_read += bucket.len();
                trace.bytes_read += bucket.len() as u64 * slot_bytes;
                if let Some(s) = bucket.iter().find(|s| s.key == key) {
                    trace.found = Some((s.value.clone(), s.version));
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: u8) -> Value {
        Value::filled(8, n)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = HopscotchTable::new(64, 8, 64);
        assert!(t.insert(1, val(1)));
        assert!(t.insert(2, val(2)));
        assert_eq!(t.get(1).unwrap().0.bytes()[0], 1);
        assert!(t.get(3).is_none());
    }

    #[test]
    fn all_in_table_keys_within_neighborhood() {
        let mut t = HopscotchTable::new(1024, 8, 64);
        for k in 0..920 {
            assert!(t.insert(k, val(0)));
        }
        for (pos, s) in t.slots.iter().enumerate() {
            if let Some(s) = s {
                assert!(t.dist(s.home, pos) < 8, "key {} outside neighborhood", s.key);
            }
        }
        for k in 0..920 {
            assert!(t.get(k).is_some(), "key {k} lost");
        }
    }

    #[test]
    fn overflow_rate_small_at_90pct() {
        let mut t = HopscotchTable::new(65536, 8, 64);
        let n = 59_000; // ~90%
        for k in 0..n {
            t.insert(k, val(0));
        }
        let rate = t.overflow_len() as f64 / n as f64;
        // FaRM reports ~4% at 90% occupancy; accept a generous band.
        assert!(rate < 0.12, "overflow rate {rate}");
    }

    #[test]
    fn remote_lookup_reads_fixed_neighborhood() {
        let mut t = HopscotchTable::new(1024, 8, 64);
        for k in 0..700 {
            t.insert(k, val(0));
        }
        let tr = t.remote_lookup(100);
        assert!(tr.found.is_some());
        assert_eq!(tr.objects_read, 8);
        assert_eq!(tr.roundtrips, 1);
        assert_eq!(tr.bytes_read, 8 * 88);
    }

    #[test]
    fn remote_lookup_overflow_pays_second_roundtrip() {
        let mut t = HopscotchTable::new(256, 4, 64);
        for k in 0..250 {
            t.insert(k, val(0));
        }
        assert!(t.overflow_len() > 0, "dense small table must overflow");
        let (home, key) = t
            .overflow
            .iter()
            .map(|(h, b)| (*h, b[0].key))
            .next()
            .unwrap();
        let _ = home;
        let tr = t.remote_lookup(key);
        assert!(tr.found.is_some());
        assert_eq!(tr.roundtrips, 2);
        assert!(tr.objects_read > 4);
    }

    #[test]
    fn update_in_place() {
        let mut t = HopscotchTable::new(64, 8, 64);
        t.insert(1, val(1));
        assert!(t.update(1, val(9), 5));
        let (v, ver) = t.get(1).unwrap();
        assert_eq!(v.bytes()[0], 9);
        assert_eq!(ver, 5);
        assert!(!t.update(99, val(0), 1));
        // Re-insert of existing key also updates.
        assert!(t.insert(1, val(3)));
        assert_eq!(t.get(1).unwrap().0.bytes()[0], 3);
    }

    #[test]
    fn occupancy_reports() {
        let mut t = HopscotchTable::new(100, 8, 64);
        for k in 0..50 {
            t.insert(k, val(0));
        }
        assert!((t.occupancy() - 0.5).abs() < 0.05);
        assert!(!t.is_empty());
    }
}

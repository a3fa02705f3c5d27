//! Differential test: [`xenic_store::NicIndex`] (inline records, packed
//! record metadata, leaf-batched range walks) must behave exactly like
//! the straightforward `Vec`-per-segment index it replaced, kept below as
//! the reference model. Random schedules of installs, lookups, locks,
//! commits, unpins, lock wipes and range walks run against both under
//! constant eviction pressure; every result, the statistics, the clock
//! eviction victims and the order of `held_locks()` must agree.

use xenic_sim::DetRng;
use xenic_store::nic_index::{NicIndexConfig, RangeWalk};
use xenic_store::{BTree, Key, LockState, NicIndex, NicLookup, TxnId, Value, Version};

/// The reference model: one heap `Vec` of plain records per segment,
/// per-row probes, and a row-at-a-time ordered-index walk.
mod reference {
    use std::collections::HashMap;
    use xenic_store::nic_index::{IndexStats, NicIndexConfig};
    use xenic_store::{BTree, Key, LockState, NicLookup, TxnId, Value, Version};

    #[derive(Clone)]
    struct ObjRecord {
        key: Key,
        value: Option<Value>,
        version: Version,
        lock: LockState,
        has_version: bool,
        pins: u32,
        referenced: bool,
    }

    impl ObjRecord {
        fn evictable(&self) -> bool {
            self.pins == 0 && !self.lock.is_held()
        }
    }

    #[derive(Clone, Default)]
    struct IndexEntry {
        d_i: u32,
        has_overflow: bool,
        records: Vec<ObjRecord>,
    }

    pub struct RefIndex {
        cfg: NicIndexConfig,
        entries: Vec<IndexEntry>,
        cached_values: usize,
        clock_hand: usize,
        pub stats: IndexStats,
        pub ordered: BTree<Version>,
        pending_inserts: HashMap<Key, TxnId>,
    }

    impl RefIndex {
        pub fn new(cfg: NicIndexConfig) -> Self {
            RefIndex {
                entries: vec![IndexEntry::default(); cfg.segments],
                cached_values: 0,
                clock_hand: 0,
                stats: IndexStats::default(),
                ordered: BTree::new(),
                pending_inserts: HashMap::new(),
                cfg,
            }
        }

        pub fn cached_values(&self) -> usize {
            self.cached_values
        }

        fn record(&self, segment: usize, key: Key) -> Option<&ObjRecord> {
            self.entries[segment].records.iter().find(|r| r.key == key)
        }

        fn record_mut(&mut self, segment: usize, key: Key) -> Option<&mut ObjRecord> {
            self.entries[segment]
                .records
                .iter_mut()
                .find(|r| r.key == key)
        }

        fn ensure_record(&mut self, segment: usize, key: Key) -> &mut ObjRecord {
            let records = &mut self.entries[segment].records;
            let idx = match records.iter().position(|r| r.key == key) {
                Some(i) => i,
                None => {
                    records.push(ObjRecord {
                        key,
                        value: None,
                        version: 0,
                        lock: LockState::Free,
                        has_version: false,
                        pins: 0,
                        referenced: true,
                    });
                    records.len() - 1
                }
            };
            &mut records[idx]
        }

        pub fn peek_cached(&self, segment: usize, key: Key) -> bool {
            self.record(segment, key).is_some_and(|r| r.value.is_some())
        }

        pub fn lookup(&mut self, segment: usize, key: Key) -> NicLookup {
            if let Some(r) = self.record_mut(segment, key) {
                if let Some(v) = &r.value {
                    r.referenced = true;
                    let out = NicLookup::Hit {
                        value: v.clone(),
                        version: r.version,
                        lock: r.lock,
                    };
                    self.stats.hits += 1;
                    return out;
                }
            }
            self.stats.misses += 1;
            let e = &self.entries[segment];
            NicLookup::Miss {
                d_hint: e.d_i,
                slack: self.cfg.slack_k,
                has_overflow: e.has_overflow,
            }
        }

        fn cache(&mut self, segment: usize, key: Key, value: Value, version: Version, pin: bool) {
            if !self.peek_cached(segment, key) && self.cached_values >= self.cfg.max_cached_values {
                self.evict_one();
            }
            let r = self.ensure_record(segment, key);
            let newly = r.value.is_none();
            r.value = Some(value);
            r.version = version;
            r.has_version = true;
            r.referenced = true;
            if pin {
                r.pins += 1;
            }
            if newly {
                self.cached_values += 1;
            }
        }

        pub fn install(&mut self, segment: usize, key: Key, value: Value, version: Version) {
            self.cache(segment, key, value, version, false);
        }

        pub fn note_version(&mut self, segment: usize, key: Key, version: Version) {
            let r = self.ensure_record(segment, key);
            r.version = version;
            r.has_version = true;
        }

        fn evict_one(&mut self) {
            let segments = self.entries.len();
            for _ in 0..(2 * segments) {
                let seg = self.clock_hand % segments;
                self.clock_hand = (self.clock_hand + 1) % segments;
                let entry = &mut self.entries[seg];
                let mut victim = None;
                for (i, r) in entry.records.iter_mut().enumerate() {
                    if r.value.is_some() && r.evictable() {
                        if r.referenced {
                            r.referenced = false;
                        } else {
                            victim = Some(i);
                            break;
                        }
                    }
                }
                if let Some(i) = victim {
                    let r = &mut entry.records[i];
                    r.value = None;
                    self.cached_values -= 1;
                    self.stats.evictions += 1;
                    if !r.lock.is_held() && r.pins == 0 {
                        entry.records.swap_remove(i);
                    }
                    return;
                }
            }
        }

        pub fn try_lock(&mut self, segment: usize, key: Key, txn: TxnId) -> bool {
            let r = self.ensure_record(segment, key);
            let ok = match r.lock {
                LockState::Free => {
                    r.lock = LockState::Held(txn);
                    true
                }
                LockState::Held(t) => t == txn,
            };
            if ok && self.ordered.get(key).is_none() {
                self.ordered.insert(key, 0);
                self.pending_inserts.insert(key, txn);
            }
            ok
        }

        pub fn unlock(&mut self, segment: usize, key: Key, txn: TxnId) {
            if self.pending_inserts.get(&key) == Some(&txn) {
                self.pending_inserts.remove(&key);
                self.ordered.remove(key);
            }
            let entry = &mut self.entries[segment];
            if let Some(i) = entry.records.iter().position(|r| r.key == key) {
                if entry.records[i].lock.held_by(txn) {
                    entry.records[i].lock = LockState::Free;
                }
                let r = &entry.records[i];
                if r.value.is_none() && r.pins == 0 && !r.lock.is_held() && !r.has_version {
                    entry.records.swap_remove(i);
                }
            }
        }

        pub fn lock_state(&self, segment: usize, key: Key) -> LockState {
            self.record(segment, key)
                .map(|r| r.lock)
                .unwrap_or_default()
        }

        pub fn version_of(&self, segment: usize, key: Key) -> Option<Version> {
            self.record(segment, key)
                .filter(|r| r.has_version || r.value.is_some() || r.pins > 0)
                .map(|r| r.version)
        }

        pub fn commit_write(&mut self, segment: usize, key: Key, value: Value, version: Version) {
            self.cache(segment, key, value, version, true);
            self.pending_inserts.remove(&key);
            self.ordered.insert(key, version);
        }

        pub fn commit_write_meta(&mut self, segment: usize, key: Key, version: Version) {
            let r = self.ensure_record(segment, key);
            r.version = version;
            r.has_version = true;
            r.pins += 1;
            r.referenced = true;
            self.pending_inserts.remove(&key);
            self.ordered.insert(key, version);
        }

        pub fn unpin(&mut self, segment: usize, key: Key) {
            if let Some(r) = self.record_mut(segment, key) {
                if r.pins > 0 {
                    r.pins -= 1;
                }
            }
        }

        pub fn set_hint(&mut self, segment: usize, d_i: u32, has_overflow: bool) {
            let e = &mut self.entries[segment];
            e.d_i = e.d_i.max(d_i);
            e.has_overflow |= has_overflow;
        }

        pub fn clear_locks(&mut self) {
            for e in &mut self.entries {
                for r in &mut e.records {
                    r.lock = LockState::Free;
                }
                e.records
                    .retain(|r| r.value.is_some() || r.pins > 0 || r.lock.is_held());
            }
            let mut aborted: Vec<Key> = self.pending_inserts.drain().map(|(k, _)| k).collect();
            aborted.sort_unstable();
            for key in aborted {
                self.ordered.remove(key);
            }
        }

        /// The two per-row probes (`lock_state`, then the cached value)
        /// the engine's walk closures made before the leaf-batched walk.
        pub fn walk<F>(
            &self,
            lo: Key,
            hi: Key,
            txn: TxnId,
            seg: impl Fn(Key) -> usize,
            f: &mut F,
        ) -> (usize, bool)
        where
            F: FnMut(Key, Version, Option<&Value>) -> bool,
        {
            let mut conflict = false;
            let visits = self.ordered.range_visit(lo, hi, &mut |k, v| {
                match self.pending_inserts.get(&k) {
                    Some(owner) if *owner == txn => return true,
                    Some(_) => {
                        conflict = true;
                        return false;
                    }
                    None => {}
                }
                let lock = self.lock_state(seg(k), k);
                if lock.is_held() && !lock.held_by(txn) {
                    conflict = true;
                    return false;
                }
                let cached = self.record(seg(k), k).and_then(|r| r.value.as_ref());
                f(k, *v, cached)
            });
            (visits, conflict)
        }

        pub fn held_locks(&self) -> Vec<(Key, TxnId)> {
            let mut out = Vec::new();
            for e in &self.entries {
                for r in &e.records {
                    if let LockState::Held(t) = r.lock {
                        out.push((r.key, t));
                    }
                }
            }
            out
        }
    }
}

/// Maps keys onto `segments` segments, unevenly, so some entries hold
/// one or two records and others spill past the inline capacity.
fn segment_map(segments: usize) -> impl Fn(Key) -> usize + Copy {
    move |k| ((k * 7 + k / 5) % segments as u64) as usize
}

/// A hit's (bytes, version, lock).
type Hit = (Vec<u8>, Version, LockState);

fn lookup_repr(l: NicLookup) -> (bool, u32, Option<Hit>) {
    match l {
        NicLookup::Hit {
            value,
            version,
            lock,
        } => (true, 0, Some((value.bytes().to_vec(), version, lock))),
        NicLookup::Miss {
            d_hint,
            slack,
            has_overflow,
        } => (has_overflow, d_hint + 1000 * slack, None),
    }
}

type Row = (Key, Version, Option<Vec<u8>>);

fn run(seed: u64, steps: usize, universe: u64, max_cached: usize, segments: usize) {
    let seg = segment_map(segments);
    let cfg = NicIndexConfig {
        segments,
        max_cached_values: max_cached,
        slack_k: 1,
    };
    let mut rng = DetRng::new(seed);
    let mut new = NicIndex::new(cfg.clone());
    let mut old = reference::RefIndex::new(cfg);
    // Half the universe starts committed in the ordered index; the rest
    // are inserts waiting to happen.
    for k in (0..universe).step_by(2) {
        new.preload_ordered(k, 1);
        old.ordered.insert(k, 1);
    }
    let txns: Vec<TxnId> = (0..4)
        .map(|i| TxnId::new(i % 2, 1 + u64::from(i)))
        .collect();
    let mut next_version: Version = 2;
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        let k = rng.below(universe);
        let s = seg(k);
        let txn = txns[rng.below(txns.len() as u64) as usize];
        match rng.below(100) {
            0..=19 => {
                let v = Value::filled(8, rng.below(256) as u8);
                new.install(s, k, v.clone(), next_version);
                old.install(s, k, v, next_version);
            }
            20..=34 => {
                assert_eq!(
                    lookup_repr(new.lookup(s, k)),
                    lookup_repr(old.lookup(s, k)),
                    "lookup {k} @ {at}"
                );
            }
            35..=41 => {
                new.note_version(s, k, next_version);
                old.note_version(s, k, next_version);
            }
            42..=54 => {
                assert_eq!(
                    new.try_lock(s, k, txn),
                    old.try_lock(s, k, txn),
                    "lock {k} @ {at}"
                );
            }
            55..=64 => {
                new.unlock(s, k, txn);
                old.unlock(s, k, txn);
            }
            65..=72 => {
                next_version += 1;
                let v = Value::filled(8, rng.below(256) as u8);
                new.commit_write(s, k, v.clone(), next_version);
                old.commit_write(s, k, v, next_version);
            }
            73..=75 => {
                next_version += 1;
                new.commit_write_meta(s, k, next_version);
                old.commit_write_meta(s, k, next_version);
            }
            76..=83 => {
                new.unpin(s, k);
                old.unpin(s, k);
            }
            84 => {
                let d = rng.below(8) as u32;
                let of = rng.chance(0.2);
                new.set_hint(s, d, of);
                old.set_hint(s, d, of);
            }
            85 => {
                if rng.below(8) == 0 {
                    new.clear_locks();
                    old.clear_locks();
                }
            }
            _ => {
                let a = rng.below(universe + 2);
                let b = rng.below(universe + 2);
                let (lo, hi) = (a.min(b), a.max(b));
                let limit = 1 + rng.below(universe) as usize;
                let mut got: Vec<Row> = Vec::new();
                let walk: RangeWalk = new.walk_range(lo, hi, txn, seg, &mut |k, v, c| {
                    got.push((k, v, c.map(|c| c.bytes().to_vec())));
                    got.len() < limit
                });
                let mut want: Vec<Row> = Vec::new();
                let (visits, conflict) = old.walk(lo, hi, txn, seg, &mut |k, v, c| {
                    want.push((k, v, c.map(|c| c.bytes().to_vec())));
                    want.len() < limit
                });
                assert_eq!(got, want, "walk rows [{lo},{hi}] @ {at}");
                assert_eq!(walk.conflict, conflict, "walk conflict @ {at}");
                assert_eq!(walk.visits, visits, "walk visits @ {at}");
            }
        }
        assert_eq!(new.stats(), old.stats, "stats @ {at}");
        assert_eq!(new.cached_values(), old.cached_values(), "cached @ {at}");
        assert_eq!(
            new.held_locks(),
            old.held_locks(),
            "held_locks order @ {at}"
        );
        assert_eq!(new.ordered_len(), old.ordered.len(), "ordered len @ {at}");
        if step % 16 == 0 {
            // Eviction victims and metadata: every key's observable state.
            for k in 0..universe {
                let s = seg(k);
                assert_eq!(
                    new.peek_cached(s, k),
                    old.peek_cached(s, k),
                    "cached {k} @ {at}"
                );
                assert_eq!(
                    new.version_of(s, k),
                    old.version_of(s, k),
                    "version {k} @ {at}"
                );
                assert_eq!(
                    new.lock_state(s, k),
                    old.lock_state(s, k),
                    "lock {k} @ {at}"
                );
            }
        }
    }
}

#[test]
fn matches_vec_per_segment_reference_under_eviction_pressure() {
    // 96 keys over 8 segments (12 per segment, four times the inline
    // capacity) against a 24-value budget: every install past warm-up
    // evicts, and entries spill to the heap and shrink back constantly.
    for seed in 0..4 {
        run(seed, 50_000, 96, 24, 8);
    }
}

#[test]
fn matches_reference_with_sparse_segments() {
    // 20 keys over 200 segments: entries are allocated 64 segments at a
    // time, so the last chunk is never allocated and the clock sweep
    // must pass over it exactly as over empty entries, under a 6-value
    // budget that keeps evicting.
    for seed in 10..12 {
        run(seed, 50_000, 20, 6, 200);
    }
}

#[test]
fn matches_reference_in_the_production_shape() {
    // About two records per segment, mostly inline, and a budget that
    // rarely binds.
    for seed in 20..22 {
        run(seed, 50_000, 300, 256, 128);
    }
}

#[test]
fn walk_over_deep_tree_matches_reference() {
    let seg = segment_map(8);
    // Enough committed keys for a multi-level ordered index, so walks
    // cross leaves and internal nodes and the leaf batches span several
    // prefetch chunks.
    let cfg = NicIndexConfig {
        segments: 8,
        max_cached_values: 4096,
        slack_k: 1,
    };
    let mut new = NicIndex::new(cfg.clone());
    let mut old = reference::RefIndex::new(cfg);
    let mut ordered: BTree<Version> = BTree::new();
    for k in 0..5_000u64 {
        new.preload_ordered(k, 1);
        old.ordered.insert(k, 1);
        ordered.insert(k, 1);
        if k % 3 == 0 {
            new.install(seg(k), k, Value::filled(4, k as u8), 1);
            old.install(seg(k), k, Value::filled(4, k as u8), 1);
        }
    }
    assert!(ordered.height() >= 3);
    let owner = TxnId::new(1, 1);
    let other = TxnId::new(2, 2);
    assert!(new.try_lock(seg(4_321), 4_321, owner));
    assert!(old.try_lock(seg(4_321), 4_321, owner));
    let mut rng = DetRng::new(5);
    for _ in 0..2_000 {
        let lo = rng.below(5_000);
        let hi = lo + rng.below(400);
        let limit = 1 + rng.below(300) as usize;
        for txn in [owner, other] {
            let mut got = Vec::new();
            let walk = new.walk_range(lo, hi, txn, seg, &mut |k, v, c| {
                got.push((k, v, c.is_some()));
                got.len() < limit
            });
            let mut want = Vec::new();
            let (visits, conflict) = old.walk(lo, hi, txn, seg, &mut |k, v, c| {
                want.push((k, v, c.is_some()));
                want.len() < limit
            });
            assert_eq!(got, want, "[{lo},{hi}] limit {limit}");
            assert_eq!((walk.visits, walk.conflict), (visits, conflict));
        }
    }
}

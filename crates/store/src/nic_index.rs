//! The SmartNIC caching index (paper §4.1.3).
//!
//! NIC DRAM holds, per host-table segment, an *index entry* with:
//!
//! * a cache of hot objects homed in that segment (value + version),
//! * transaction metadata — the **lock** and cached **version** — for
//!   objects touched by ongoing transactions (locks live *only* here;
//!   §4.2.1: "lock state is maintained in only one location (SmartNIC
//!   memory) and rebuilt upon recovery"),
//! * the highest known displacement `d_i` of objects homed in the
//!   segment, plus an overflow-page flag — the hints that let a cache
//!   miss be served with a single bounded DMA read, and
//! * a pin count per object: write-set objects stay pinned from Commit
//!   until the host applies the log, so NIC lookups never return a stale
//!   object (§4.2 step 6).
//!
//! Each entry has a fixed number of cache positions with chained overflow
//! pages as needed; a global NIC-memory budget drives clock eviction of
//! unpinned, unlocked, value-holding records.
//!
//! Layout (DESIGN.md §14): an entry keeps its first
//! [`INLINE_RECORDS`] records inline, so probing the common segment
//! touches the entry's own cache lines and nothing else; only a crowded
//! segment spills its records to the heap. Entries are allocated a chunk
//! of segments at a time on first write, and the miss-path hints live in
//! their own small array. Record order inside an entry is exactly a
//! `Vec`'s (push, `swap_remove`, order-preserving `retain`), which is
//! what the clock sweep and [`NicIndex::held_locks`] depend on.

use xenic_sim::{FastMap, SmallVec};

use crate::btree::BTree;
use crate::types::{Key, LockState, TxnId, Value, Version};

/// Records an index entry holds inline before spilling to the heap.
/// Host segments hold 4 slots at ~65% occupancy, so three covers most
/// segments while keeping an entry at 160 bytes.
pub const INLINE_RECORDS: usize = 3;

/// Configuration for a [`NicIndex`].
#[derive(Clone, Debug)]
pub struct NicIndexConfig {
    /// Number of host-table segments (one index entry each).
    pub segments: usize,
    /// Global budget of cached *values* (NIC DRAM is small; §4.3.3).
    pub max_cached_values: usize,
    /// The paper's `k`: extra slots read beyond `d_i` to tolerate hint
    /// staleness (set to 1 from experimentation, §4.1.3).
    pub slack_k: u32,
}

impl Default for NicIndexConfig {
    fn default() -> Self {
        NicIndexConfig {
            segments: 128,
            max_cached_values: 1 << 16,
            slack_k: 1,
        }
    }
}

/// `ObjRecord::meta` layout: the commit pin count in the low bits, three
/// flags above it. The commit log's capacity bounds outstanding pins far
/// below `PINS`.
const PINS: u32 = (1 << 29) - 1;
/// The lock is held by `(lock_node, lock_seq)`.
const HELD: u32 = 1 << 29;
/// A version has been learned for this object (execute-phase reads note
/// versions so Validate is NIC-local).
const HAS_VERSION: u32 = 1 << 30;
/// Clock-eviction reference bit.
const REFERENCED: u32 = 1 << 31;

/// One object's record inside an index entry. The lock owner and flags
/// are packed so a record is 48 bytes rather than 64: three fit in a
/// 160-byte entry.
#[derive(Clone, Debug)]
struct ObjRecord {
    key: Key,
    /// Cached value, if NIC memory holds one.
    value: Option<Value>,
    /// Cached version (meaningful when `value.is_some()` or the object is
    /// mid-transaction).
    version: Version,
    /// Lock owner, meaningful only under `HELD`.
    lock_seq: u64,
    lock_node: u32,
    /// Pins (> 0 means the host has not yet applied this object's latest
    /// committed write, so the record must not be evicted) and flags.
    meta: u32,
}

impl ObjRecord {
    fn new(key: Key) -> Self {
        ObjRecord {
            key,
            value: None,
            version: 0,
            lock_seq: 0,
            lock_node: 0,
            meta: REFERENCED,
        }
    }

    fn lock(&self) -> LockState {
        if self.meta & HELD != 0 {
            LockState::Held(TxnId::new(self.lock_node, self.lock_seq))
        } else {
            LockState::Free
        }
    }

    fn is_locked(&self) -> bool {
        self.meta & HELD != 0
    }

    fn set_lock(&mut self, txn: TxnId) {
        self.lock_node = txn.node;
        self.lock_seq = txn.seq;
        self.meta |= HELD;
    }

    fn free_lock(&mut self) {
        self.meta &= !HELD;
    }

    fn pins(&self) -> u32 {
        self.meta & PINS
    }

    fn pin(&mut self) {
        // An overflow would carry into the flags (the lock bit first).
        assert!(self.pins() < PINS, "pin count overflow");
        self.meta += 1;
    }

    fn has_version(&self) -> bool {
        self.meta & HAS_VERSION != 0
    }

    fn evictable(&self) -> bool {
        self.pins() == 0 && !self.is_locked()
    }

    /// True once the record carries nothing worth keeping.
    fn is_garbage(&self) -> bool {
        self.value.is_none() && self.pins() == 0 && !self.is_locked() && !self.has_version()
    }
}

/// One per host-table segment: the records of its cached or
/// mid-transaction objects.
#[derive(Clone, Debug, Default)]
struct IndexEntry {
    records: SmallVec<ObjRecord, INLINE_RECORDS>,
}

impl IndexEntry {
    fn position(&self, key: Key) -> Option<usize> {
        self.records.iter().position(|r| r.key == key)
    }
}

// Size guards: the record packing is what lets three records sit inline
// in a 160-byte entry; a field added to either must be paid for here.
const _: () = assert!(std::mem::size_of::<ObjRecord>() <= 48);
const _: () = assert!(std::mem::size_of::<IndexEntry>() <= 160);

/// A segment's miss-path hints.
#[derive(Clone, Copy, Debug, Default)]
struct SegmentHint {
    /// Known displacement hint for the segment.
    d_i: u32,
    /// Whether the segment has an overflow page on the host.
    has_overflow: bool,
}

/// Index entries are allocated this many segments at a time, on the
/// first write to any of them: bringing a node up touches only the
/// 8-byte hints, and a segment range nothing is ever cached in costs no
/// memory.
const ENTRY_CHUNK: usize = 64;

/// Asks the CPU to start loading the cache lines `data` spans. A hint
/// only: it changes no state and no result, just when the memory arrives.
#[inline(always)]
fn prefetch<T: ?Sized>(data: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (data as *const T).cast::<i8>();
        let mut off = 0;
        while off < std::mem::size_of_val(data) {
            // SAFETY: `_mm_prefetch` never faults, whatever the address,
            // and every address here lies inside the live `data`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.add(off)) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// Rows whose index entries a range walk prefetches before probing them.
const PREFETCH_BATCH: usize = 16;

/// Result of a NIC-side lookup.
#[derive(Clone, Debug)]
pub enum NicLookup {
    /// Served from NIC memory — no PCIe access (the "hot object" path).
    Hit {
        /// The cached value.
        value: Value,
        /// Its cached version.
        version: Version,
        /// Current lock state.
        lock: LockState,
    },
    /// Not cached: the caller must issue a DMA read planned with these
    /// hints (see [`crate::robinhood::RobinhoodTable::dma_lookup`]).
    Miss {
        /// The segment's displacement hint `d_i`.
        d_hint: u32,
        /// The configured slack `k`.
        slack: u32,
        /// Whether the segment has a host-side overflow page.
        has_overflow: bool,
    },
}

/// Cache/index statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Lookups served from NIC memory.
    pub hits: u64,
    /// Lookups requiring a DMA read.
    pub misses: u64,
    /// Values evicted under memory pressure.
    pub evictions: u64,
}

/// How a [`NicIndex::walk_range`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeWalk {
    /// Ordered-index nodes visited: the walk's metered cost.
    pub visits: usize,
    /// The walk stopped at another transaction's pending insert or
    /// write lock.
    pub conflict: bool,
}

/// The SmartNIC caching index.
pub struct NicIndex {
    cfg: NicIndexConfig,
    /// Entries of segments `ENTRY_CHUNK * i ..`, or an empty slice while
    /// none of them has been written.
    chunks: Vec<Box<[IndexEntry]>>,
    hints: Vec<SegmentHint>,
    cached_values: usize,
    clock_hand: usize,
    stats: IndexStats,
    /// NIC-resident ordered index: every committed key homed at this
    /// node, in key order, mapped to its last committed version. Range
    /// scans walk this tree (metered per node visit, like
    /// `RobinhoodTable::get_traced` meters point reads) instead of the
    /// unordered host table. In-flight inserts appear as sentinels so a
    /// concurrent scan detects the phantom before it commits.
    ordered: BTree<Version>,
    /// Owners of in-flight inserts: keys locked by a transaction that
    /// did not exist before it — present in `ordered` as sentinels,
    /// retracted on abort, promoted to committed on commit.
    pending_inserts: FastMap<Key, TxnId>,
}

impl NicIndex {
    /// Creates an index with one (empty) entry per segment.
    pub fn new(cfg: NicIndexConfig) -> Self {
        assert!(cfg.segments > 0);
        NicIndex {
            chunks: vec![Box::default(); cfg.segments.div_ceil(ENTRY_CHUNK)],
            hints: vec![SegmentHint::default(); cfg.segments],
            cached_values: 0,
            clock_hand: 0,
            stats: IndexStats::default(),
            ordered: BTree::new(),
            pending_inserts: FastMap::default(),
            cfg,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Currently cached values.
    pub fn cached_values(&self) -> usize {
        self.cached_values
    }

    /// Configured slack `k`.
    pub fn slack(&self) -> u32 {
        self.cfg.slack_k
    }

    /// `segment`'s entry, if its chunk has been allocated.
    fn entry(&self, segment: usize) -> Option<&IndexEntry> {
        self.chunks[segment / ENTRY_CHUNK].get(segment % ENTRY_CHUNK)
    }

    fn entry_mut(&mut self, segment: usize) -> Option<&mut IndexEntry> {
        self.chunks[segment / ENTRY_CHUNK].get_mut(segment % ENTRY_CHUNK)
    }

    fn record(&self, segment: usize, key: Key) -> Option<&ObjRecord> {
        self.entry(segment)?.records.iter().find(|r| r.key == key)
    }

    fn record_mut(&mut self, segment: usize, key: Key) -> Option<&mut ObjRecord> {
        self.entry_mut(segment)?
            .records
            .iter_mut()
            .find(|r| r.key == key)
    }

    fn ensure_record(&mut self, segment: usize, key: Key) -> &mut ObjRecord {
        let chunk = &mut self.chunks[segment / ENTRY_CHUNK];
        if chunk.is_empty() {
            *chunk = vec![IndexEntry::default(); ENTRY_CHUNK].into_boxed_slice();
        }
        let entry = &mut chunk[segment % ENTRY_CHUNK];
        let idx = match entry.position(key) {
            Some(i) => i,
            None => {
                entry.records.push(ObjRecord::new(key));
                entry.records.len() - 1
            }
        };
        &mut entry.records[idx]
    }

    /// True if `key`'s value is cached (no stats side effects) — used by
    /// the multi-hop gate: shipping execution away only pays off when the
    /// coordinator's local part resolves without PCIe.
    pub fn peek_cached(&self, segment: usize, key: Key) -> bool {
        self.record(segment, key).is_some_and(|r| r.value.is_some())
    }

    /// Looks up `key` (homed in `segment`) in NIC memory.
    pub fn lookup(&mut self, segment: usize, key: Key) -> NicLookup {
        if let Some(r) = self.record_mut(segment, key) {
            if let Some(v) = &r.value {
                let out = NicLookup::Hit {
                    value: v.clone(),
                    version: r.version,
                    lock: r.lock(),
                };
                r.meta |= REFERENCED;
                self.stats.hits += 1;
                return out;
            }
        }
        self.stats.misses += 1;
        let h = self.hints[segment];
        NicLookup::Miss {
            d_hint: h.d_i,
            slack: self.cfg.slack_k,
            has_overflow: h.has_overflow,
        }
    }

    /// Caches `value` at `version` for `key`, evicting under memory
    /// pressure first, and pins the record if `pin` (shared by install
    /// and commit).
    fn cache_value(&mut self, segment: usize, key: Key, value: Value, version: Version, pin: bool) {
        if !self.peek_cached(segment, key) && self.cached_values >= self.cfg.max_cached_values {
            self.evict_one();
        }
        let r = self.ensure_record(segment, key);
        let newly = r.value.is_none();
        r.value = Some(value);
        r.version = version;
        r.meta |= HAS_VERSION | REFERENCED;
        if pin {
            r.pin();
        }
        if newly {
            self.cached_values += 1;
        }
    }

    /// Installs a value fetched by DMA (or committed) into the cache,
    /// evicting under memory pressure.
    pub fn install(&mut self, segment: usize, key: Key, value: Value, version: Version) {
        self.cache_value(segment, key, value, version, false);
    }

    /// Records the version of an object without caching its value — the
    /// "transaction metadata" the paper keeps for objects touched by
    /// ongoing transactions, making Validate NIC-local (§4.1.3).
    pub fn note_version(&mut self, segment: usize, key: Key, version: Version) {
        let r = self.ensure_record(segment, key);
        r.version = version;
        r.meta |= HAS_VERSION;
    }

    /// Clock eviction: sweep segments for an unpinned, unlocked,
    /// value-holding record; clear reference bits as the hand passes.
    fn evict_one(&mut self) {
        let segments = self.cfg.segments;
        // Two full sweeps guarantee progress: the first clears reference
        // bits, the second finds a victim (unless everything is pinned).
        for _ in 0..(2 * segments) {
            let seg = self.clock_hand % segments;
            self.clock_hand = (self.clock_hand + 1) % segments;
            let Some(entry) = self.chunks[seg / ENTRY_CHUNK].get_mut(seg % ENTRY_CHUNK) else {
                continue;
            };
            let mut victim = None;
            for (i, r) in entry.records.iter_mut().enumerate() {
                if r.value.is_some() && r.evictable() {
                    if r.meta & REFERENCED != 0 {
                        r.meta &= !REFERENCED;
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
                // Drop the record entirely if it carries no metadata.
                if r.evictable() {
                    entry.records.swap_remove(i);
                }
                return;
            }
        }
    }

    /// Attempts to write-lock `key` for `txn`, allocating a metadata
    /// record if needed. Returns false if another transaction holds it.
    /// Re-locking by the same transaction succeeds (idempotent).
    pub fn try_lock(&mut self, segment: usize, key: Key, txn: TxnId) -> bool {
        let r = self.ensure_record(segment, key);
        let ok = match r.lock() {
            LockState::Free => {
                r.set_lock(txn);
                true
            }
            LockState::Held(t) => t == txn,
        };
        if ok && self.ordered.get(key).is_none() {
            // First lock on a key that has never committed: an insert in
            // flight. Register a sentinel in the ordered index so any
            // concurrent range walk over an interval containing `key`
            // sees the phantom and refuses/aborts instead of missing it.
            self.ordered.insert(key, 0);
            self.pending_inserts.insert(key, txn);
        }
        ok
    }

    /// Releases `key`'s lock if held by `txn`. Valueless, pin-free
    /// records are garbage-collected.
    pub fn unlock(&mut self, segment: usize, key: Key, txn: TxnId) {
        if self.pending_inserts.get(&key) == Some(&txn) {
            // Aborted insert (commit_write would have promoted the
            // sentinel before unlock): retract it from the ordered index.
            self.pending_inserts.remove(&key);
            self.ordered.remove(key);
        }
        let Some(entry) = self.entry_mut(segment) else {
            return;
        };
        if let Some(i) = entry.position(key) {
            let r = &mut entry.records[i];
            if r.lock().held_by(txn) {
                r.free_lock();
            }
            if r.is_garbage() {
                entry.records.swap_remove(i);
            }
        }
    }

    /// Current lock state for `key`.
    pub fn lock_state(&self, segment: usize, key: Key) -> LockState {
        self.record(segment, key)
            .map(ObjRecord::lock)
            .unwrap_or_default()
    }

    /// Cached version, if NIC memory knows one.
    pub fn version_of(&self, segment: usize, key: Key) -> Option<Version> {
        self.record(segment, key)
            .filter(|r| r.has_version() || r.value.is_some() || r.pins() > 0)
            .map(|r| r.version)
    }

    /// Records a committed write: updates the cached entry (if present)
    /// and pins it until the host applies the log (§4.2 step 6: "the
    /// write-set objects are pinned in the NIC's index cache and cannot
    /// yet be evicted").
    pub fn commit_write(&mut self, segment: usize, key: Key, value: Value, version: Version) {
        // A committed write refreshes the cache: the new value is hot.
        self.cache_value(segment, key, value, version, true);
        self.commit_ordered(key, version);
    }

    /// Like [`NicIndex::commit_write`] but stores only the version
    /// metadata (used when object caching is disabled): the version is
    /// updated and the record pinned, without holding the value.
    pub fn commit_write_meta(&mut self, segment: usize, key: Key, version: Version) {
        let r = self.ensure_record(segment, key);
        r.version = version;
        r.meta |= HAS_VERSION | REFERENCED;
        r.pin();
        self.commit_ordered(key, version);
    }

    /// A write committed: the key is now (or remains) a committed member
    /// of the ordered index at `version`; any insert sentinel it carried
    /// is promoted.
    fn commit_ordered(&mut self, key: Key, version: Version) {
        self.pending_inserts.remove(&key);
        self.ordered.insert(key, version);
    }

    /// Host acknowledged applying this key's write: unpin.
    pub fn unpin(&mut self, segment: usize, key: Key) {
        if let Some(r) = self.record_mut(segment, key) {
            if r.pins() > 0 {
                r.meta -= 1;
            }
        }
    }

    /// Sets a segment's displacement hint (learned at insert time or from
    /// a deeper-than-expected DMA read).
    pub fn set_hint(&mut self, segment: usize, d_i: u32, has_overflow: bool) {
        let h = &mut self.hints[segment];
        h.d_i = h.d_i.max(d_i);
        h.has_overflow |= has_overflow;
    }

    /// Reads a segment's hint.
    pub fn hint(&self, segment: usize) -> (u32, bool) {
        let h = self.hints[segment];
        (h.d_i, h.has_overflow)
    }

    /// Drops all lock state (primary failover rebuild starts empty; locks
    /// are then re-acquired from surviving logs, §4.2.1).
    pub fn clear_locks(&mut self) {
        for e in self.chunks.iter_mut().flat_map(|c| c.iter_mut()) {
            for r in e.records.iter_mut() {
                r.free_lock();
            }
            e.records.retain(|r| r.value.is_some() || r.pins() > 0);
        }
        // Every in-flight insert dies with its lock: retract the
        // sentinels (sorted, so the rebuilt tree shape is deterministic
        // regardless of hash-map iteration order).
        let mut aborted: Vec<Key> = self.pending_inserts.drain().map(|(k, _)| k).collect();
        aborted.sort_unstable();
        for key in aborted {
            self.ordered.remove(key);
        }
    }

    /// Seeds the ordered index with a preloaded committed key (node
    /// bring-up mirrors the host table's initial contents, the way the
    /// real NIC builds its index when a partition is loaded).
    pub fn preload_ordered(&mut self, key: Key, version: Version) {
        self.ordered.insert(key, version);
    }

    /// Walks the NIC-resident ordered index over `lo..=hi` in key order
    /// on behalf of `txn` — the one routine behind both the Execute-phase
    /// range read and the Validate-phase predicate re-walk (DESIGN.md
    /// §14). `segment_of` maps a key to its host-table segment.
    ///
    /// `txn`'s own pending inserts are skipped (they are not committed
    /// state). Another transaction's pending insert, or a row it holds
    /// write-locked, stops the walk with `conflict` set. Every other row
    /// reaches `f(key, version, cached value)`, which returns false to
    /// stop.
    ///
    /// The walk goes a leaf at a time: it first prefetches the index
    /// entries of up to [`PREFETCH_BATCH`] rows, then probes them in
    /// order, one record search yielding both lock and cached value.
    /// Rows are still resolved one by one in key order, so the walk stops
    /// at the same row — and visits the same number of tree nodes, its
    /// metered cost — as a row-at-a-time walk would.
    pub fn walk_range<S, F>(
        &self,
        lo: Key,
        hi: Key,
        txn: TxnId,
        segment_of: S,
        f: &mut F,
    ) -> RangeWalk
    where
        S: Fn(Key) -> usize,
        F: FnMut(Key, Version, Option<&Value>) -> bool,
    {
        let mut conflict = false;
        let visits = self
            .ordered
            .range_visit_leaves(lo, hi, &mut |keys, versions| {
                keys.chunks(PREFETCH_BATCH)
                    .zip(versions.chunks(PREFETCH_BATCH))
                    .all(|(keys, versions)| {
                        self.walk_batch(keys, versions, txn, &segment_of, &mut conflict, f)
                    })
            });
        RangeWalk { visits, conflict }
    }

    /// One [`Self::walk_range`] batch of at most [`PREFETCH_BATCH`] rows
    /// from one leaf. Returns false once the walk must stop.
    fn walk_batch<S, F>(
        &self,
        keys: &[Key],
        versions: &[Version],
        txn: TxnId,
        segment_of: &S,
        conflict: &mut bool,
        f: &mut F,
    ) -> bool
    where
        S: Fn(Key) -> usize,
        F: FnMut(Key, Version, Option<&Value>) -> bool,
    {
        // Start every row's entry load, then the load of every cached
        // value's first line (the caller's clone touches the reference
        // count beside it).
        let mut segs = [0usize; PREFETCH_BATCH];
        for (seg, &k) in segs.iter_mut().zip(keys) {
            *seg = segment_of(k);
            if let Some(e) = self.entry(*seg) {
                prefetch(e);
            }
        }
        let mut recs: [Option<&ObjRecord>; PREFETCH_BATCH] = [None; PREFETCH_BATCH];
        for ((rec, &k), &seg) in recs.iter_mut().zip(keys).zip(&segs) {
            *rec = self.record(seg, k);
            if let Some(first) = rec.and_then(|r| r.value.as_ref()?.bytes().first()) {
                prefetch(first);
            }
        }
        for ((&k, &version), rec) in keys.iter().zip(versions).zip(recs) {
            if !self.pending_inserts.is_empty() {
                match self.pending_inserts.get(&k) {
                    Some(&owner) if owner == txn => continue,
                    Some(_) => {
                        *conflict = true;
                        return false;
                    }
                    None => {}
                }
            }
            if rec.is_some_and(|r| r.is_locked() && !r.lock().held_by(txn)) {
                *conflict = true;
                return false;
            }
            if !f(k, version, rec.and_then(|r| r.value.as_ref())) {
                return false;
            }
        }
        true
    }

    /// Owner of the in-flight insert sentinel at `key`, if any.
    pub fn pending_insert_owner(&self, key: Key) -> Option<TxnId> {
        self.pending_inserts.get(&key).copied()
    }

    /// Committed + in-flight keys in the ordered index (diagnostics).
    pub fn ordered_len(&self) -> usize {
        self.ordered.len()
    }

    /// All currently held locks (diagnostics / recovery assertions).
    pub fn held_locks(&self) -> Vec<(Key, TxnId)> {
        let mut out = Vec::new();
        for e in self.chunks.iter().flat_map(|c| c.iter()) {
            for r in e.records.iter() {
                if let LockState::Held(t) = r.lock() {
                    out.push((r.key, t));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(max_values: usize) -> NicIndex {
        NicIndex::new(NicIndexConfig {
            segments: 4,
            max_cached_values: max_values,
            slack_k: 1,
        })
    }

    fn val(n: u8) -> Value {
        Value::filled(8, n)
    }

    fn t(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut ix = idx(16);
        match ix.lookup(0, 42) {
            NicLookup::Miss { d_hint, slack, .. } => {
                assert_eq!(d_hint, 0);
                assert_eq!(slack, 1);
            }
            _ => panic!("expected miss"),
        }
        ix.install(0, 42, val(7), 3);
        match ix.lookup(0, 42) {
            NicLookup::Hit { value, version, lock } => {
                assert_eq!(value.bytes()[0], 7);
                assert_eq!(version, 3);
                assert_eq!(lock, LockState::Free);
            }
            _ => panic!("expected hit"),
        }
        assert_eq!(ix.stats().hits, 1);
        assert_eq!(ix.stats().misses, 1);
    }

    #[test]
    fn hint_propagates_to_miss() {
        let mut ix = idx(16);
        ix.set_hint(2, 5, true);
        match ix.lookup(2, 9) {
            NicLookup::Miss {
                d_hint,
                has_overflow,
                ..
            } => {
                assert_eq!(d_hint, 5);
                assert!(has_overflow);
            }
            _ => panic!("expected miss"),
        }
        // Hints are monotone (highest known).
        ix.set_hint(2, 3, false);
        assert_eq!(ix.hint(2), (5, true));
    }

    #[test]
    fn lock_conflict_and_idempotence() {
        let mut ix = idx(16);
        assert!(ix.try_lock(1, 5, t(1)));
        assert!(ix.try_lock(1, 5, t(1)), "re-lock by owner is fine");
        assert!(!ix.try_lock(1, 5, t(2)), "conflicting lock must fail");
        assert_eq!(ix.lock_state(1, 5), LockState::Held(t(1)));
        ix.unlock(1, 5, t(2)); // non-owner unlock is a no-op
        assert!(ix.lock_state(1, 5).is_held());
        ix.unlock(1, 5, t(1));
        assert_eq!(ix.lock_state(1, 5), LockState::Free);
        assert!(ix.try_lock(1, 5, t(2)));
    }

    #[test]
    fn lock_without_value_creates_metadata_only() {
        let mut ix = idx(16);
        assert!(ix.try_lock(0, 77, t(9)));
        assert_eq!(ix.cached_values(), 0);
        // Lookup still misses: metadata records are not value hits.
        assert!(matches!(ix.lookup(0, 77), NicLookup::Miss { .. }));
        ix.unlock(0, 77, t(9));
        assert!(ix.held_locks().is_empty());
    }

    #[test]
    fn eviction_respects_budget() {
        let mut ix = idx(4);
        for k in 0..10 {
            ix.install(0, k, val(k as u8), 1);
        }
        assert!(ix.cached_values() <= 4);
        assert!(ix.stats().evictions >= 6);
    }

    #[test]
    fn pinned_records_survive_eviction() {
        let mut ix = idx(2);
        ix.commit_write(0, 1, val(1), 2); // pinned
        ix.commit_write(0, 2, val(2), 2); // pinned
        for k in 10..20 {
            ix.install(1, k, val(0), 1);
        }
        // The pinned records must still hit.
        assert!(matches!(ix.lookup(0, 1), NicLookup::Hit { .. }));
        assert!(matches!(ix.lookup(0, 2), NicLookup::Hit { .. }));
    }

    #[test]
    fn unpin_makes_evictable() {
        let mut ix = idx(1);
        ix.commit_write(0, 1, val(1), 2);
        ix.unpin(0, 1);
        ix.install(1, 50, val(5), 1);
        ix.install(2, 60, val(6), 1);
        // Key 1 can now be evicted; budget is 1 so at most one value stays.
        assert!(ix.cached_values() <= 1);
    }

    #[test]
    fn locked_records_survive_eviction() {
        let mut ix = idx(1);
        ix.install(0, 1, val(1), 1);
        assert!(ix.try_lock(0, 1, t(3)));
        ix.install(1, 2, val(2), 1);
        ix.install(2, 3, val(3), 1);
        assert!(
            matches!(ix.lookup(0, 1), NicLookup::Hit { .. }),
            "locked record must not be evicted"
        );
    }

    #[test]
    fn commit_write_updates_version_and_pins() {
        let mut ix = idx(16);
        ix.install(0, 5, val(1), 1);
        ix.commit_write(0, 5, val(9), 2);
        match ix.lookup(0, 5) {
            NicLookup::Hit { value, version, .. } => {
                assert_eq!(value.bytes()[0], 9);
                assert_eq!(version, 2);
            }
            _ => panic!("expected hit"),
        }
        assert_eq!(ix.version_of(0, 5), Some(2));
    }

    #[test]
    fn version_of_unknown_key_is_none() {
        let ix = idx(16);
        assert_eq!(ix.version_of(0, 123), None);
    }

    #[test]
    fn clear_locks_rebuild_path() {
        let mut ix = idx(16);
        ix.try_lock(0, 1, t(1));
        ix.try_lock(1, 2, t(2));
        ix.install(2, 3, val(3), 1);
        ix.clear_locks();
        assert!(ix.held_locks().is_empty());
        // Cached values survive a lock wipe.
        assert!(matches!(ix.lookup(2, 3), NicLookup::Hit { .. }));
    }

    /// Segment map for the walk tests: keys live in segment `k % 4`.
    fn seg(k: Key) -> usize {
        (k % 4) as usize
    }

    /// Rows `txn`'s walk over `lo..=hi` saw, and whether it conflicted.
    fn walk(ix: &NicIndex, lo: Key, hi: Key, txn: TxnId) -> (Vec<(Key, Version)>, bool) {
        let mut out = Vec::new();
        let w = ix.walk_range(lo, hi, txn, seg, &mut |k, v, _| {
            out.push((k, v));
            true
        });
        (out, w.conflict)
    }

    #[test]
    fn walk_sees_committed_keys_in_order() {
        let mut ix = idx(16);
        for k in [30u64, 10, 20] {
            ix.preload_ordered(k, 1);
        }
        ix.commit_write(seg(20), 20, val(2), 5);
        assert_eq!(
            walk(&ix, 10, 30, t(9)),
            (vec![(10, 1), (20, 5), (30, 1)], false)
        );
        assert_eq!(walk(&ix, 11, 19, t(9)), (vec![], false));
    }

    #[test]
    fn walk_serves_cached_values_and_stops_on_request() {
        let mut ix = idx(16);
        for k in 0..8u64 {
            ix.preload_ordered(k, 1);
        }
        ix.install(seg(3), 3, val(3), 1);
        let mut cached = Vec::new();
        let w = ix.walk_range(0, 7, t(9), seg, &mut |k, _, v| {
            cached.push((k, v.map(|v| v.bytes()[0])));
            k < 4
        });
        assert!(!w.conflict);
        assert_eq!(w.visits, 1, "eight keys fit one leaf");
        assert_eq!(
            cached,
            vec![(0, None), (1, None), (2, None), (3, Some(3)), (4, None)]
        );
    }

    #[test]
    fn walk_conflicts_on_another_transactions_lock() {
        let mut ix = idx(16);
        for k in [1u64, 2, 3] {
            ix.preload_ordered(k, 1);
        }
        assert!(ix.try_lock(seg(2), 2, t(1)));
        // The owner walks through its own lock; anyone else stops there.
        assert_eq!(walk(&ix, 1, 3, t(1)), (vec![(1, 1), (2, 1), (3, 1)], false));
        assert_eq!(walk(&ix, 1, 3, t(2)), (vec![(1, 1)], true));
    }

    #[test]
    fn pending_insert_is_visible_to_other_walkers_only() {
        let mut ix = idx(16);
        ix.preload_ordered(10, 1);
        // t(1) locks a brand-new key: sentinel appears.
        assert!(ix.try_lock(seg(15), 15, t(1)));
        assert_eq!(ix.pending_insert_owner(15), Some(t(1)));
        assert_eq!(walk(&ix, 10, 20, t(2)), (vec![(10, 1)], true));
        // The inserter's own walk skips its pending key.
        assert_eq!(walk(&ix, 10, 20, t(1)), (vec![(10, 1)], false));
        // Abort: sentinel retracted, lock freed.
        ix.unlock(seg(15), 15, t(1));
        assert_eq!(ix.pending_insert_owner(15), None);
        assert_eq!(walk(&ix, 10, 20, t(2)), (vec![(10, 1)], false));
    }

    #[test]
    fn pending_insert_promotes_on_commit() {
        let mut ix = idx(16);
        assert!(ix.try_lock(seg(7), 7, t(2)));
        ix.commit_write(seg(7), 7, val(7), 1);
        ix.unlock(seg(7), 7, t(2));
        assert_eq!(ix.pending_insert_owner(7), None);
        assert_eq!(walk(&ix, 0, 100, t(9)), (vec![(7, 1)], false));
        // Re-locking a committed key is an update, not an insert: no
        // sentinel, version stays visible to the lock holder.
        assert!(ix.try_lock(seg(7), 7, t(3)));
        assert_eq!(ix.pending_insert_owner(7), None);
        assert_eq!(walk(&ix, 0, 100, t(3)), (vec![(7, 1)], false));
        ix.unlock(seg(7), 7, t(3));
        assert_eq!(walk(&ix, 0, 100, t(9)), (vec![(7, 1)], false));
    }

    #[test]
    fn clear_locks_retracts_pending_inserts() {
        let mut ix = idx(16);
        ix.preload_ordered(5, 1);
        assert!(ix.try_lock(seg(6), 6, t(1)));
        assert!(ix.try_lock(seg(8), 8, t(2)));
        ix.clear_locks();
        assert!(ix.held_locks().is_empty());
        assert_eq!(walk(&ix, 0, 100, t(9)), (vec![(5, 1)], false));
        assert_eq!(ix.ordered_len(), 1);
    }

    #[test]
    fn commit_write_meta_promotes_sentinel_too() {
        let mut ix = idx(16);
        assert!(ix.try_lock(seg(9), 9, t(4)));
        ix.commit_write_meta(seg(9), 9, 3);
        ix.unlock(seg(9), 9, t(4));
        assert_eq!(walk(&ix, 0, 100, t(9)), (vec![(9, 3)], false));
    }

    #[test]
    fn record_flags_and_pins_do_not_alias() {
        let mut ix = idx(16);
        ix.commit_write(0, 4, val(1), 2);
        ix.commit_write(0, 4, val(2), 3);
        assert!(ix.try_lock(0, 4, TxnId::new(u32::MAX, u64::MAX)));
        assert_eq!(
            ix.lock_state(0, 4),
            LockState::Held(TxnId::new(u32::MAX, u64::MAX))
        );
        ix.unpin(0, 4);
        ix.unpin(0, 4);
        ix.unpin(0, 4); // extra unpin is a no-op
        assert!(
            ix.lock_state(0, 4).is_held(),
            "unpin must not clear the lock"
        );
        assert_eq!(ix.version_of(0, 4), Some(3));
        ix.unlock(0, 4, TxnId::new(u32::MAX, u64::MAX));
        assert_eq!(ix.lock_state(0, 4), LockState::Free);
        assert!(matches!(ix.lookup(0, 4), NicLookup::Hit { version: 3, .. }));
    }

    #[test]
    fn held_locks_lists_owners() {
        let mut ix = idx(16);
        ix.try_lock(0, 1, t(1));
        ix.try_lock(3, 9, t(2));
        let mut locks = ix.held_locks();
        locks.sort();
        assert_eq!(locks, vec![(1, t(1)), (9, t(2))]);
    }
}

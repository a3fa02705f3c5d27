//! Differential test: [`xenic_store::BTree`] must agree with
//! `std::collections::BTreeMap` on arbitrary randomized schedules of
//! `insert` / `remove` / `get` / `range` / `first_at_or_after`, and the
//! leaf-batched `range_visit_leaves` must agree with the per-key
//! `range_visit` on keys and visited-node counts
//! (mirroring `queue_differential.rs` in the sim crate). The tree shipped
//! dead for five PRs — the scan path now depends on it, so every public
//! operation is exercised against the reference over ≥ 10^5 operations
//! per seed before any engine code trusts it.

use std::collections::BTreeMap;
use xenic_sim::DetRng;
use xenic_store::BTree;

/// One schedule: interleaved mutations and queries over a key universe
/// small enough that collisions, re-inserts, and emptied leaves all
/// happen constantly.
fn differential(seed: u64, steps: usize, order: usize, universe: u64, describe: &str) {
    let mut rng = DetRng::new(seed);
    let mut t: BTree<u64> = BTree::with_order(order);
    let mut r: BTreeMap<u64, u64> = BTreeMap::new();
    for step in 0..steps {
        // Key distribution: mostly dense (forces splits/merges in the
        // same leaves), occasionally sparse (deep separator paths).
        let key = if rng.below(8) == 0 {
            rng.below(u64::MAX / 2) | 1
        } else {
            rng.below(universe)
        };
        match rng.below(100) {
            // ---- insert (both fresh keys and overwrites) ----
            0..=39 => {
                let val = rng.below(1 << 30);
                let got = t.insert(key, val);
                let want = r.insert(key, val);
                assert_eq!(got, want, "{describe}: insert({key}) @ {step}");
            }
            // ---- remove (both present and absent keys) ----
            40..=69 => {
                let got = t.remove(key);
                let want = r.remove(&key);
                assert_eq!(got, want, "{describe}: remove({key}) @ {step}");
            }
            // ---- point lookups ----
            70..=79 => {
                assert_eq!(
                    t.get(key),
                    r.get(&key),
                    "{describe}: get({key}) @ {step}"
                );
                let (traced, visits) = t.get_traced(key);
                assert_eq!(traced, r.get(&key), "{describe}: get_traced @ {step}");
                assert!(
                    visits >= 1 && visits <= t.height() + 1,
                    "{describe}: visits {visits} vs height {} @ {step}",
                    t.height()
                );
            }
            // ---- range scans with adversarial boundaries ----
            80..=91 => {
                let a = rng.below(universe + 4);
                let b = rng.below(universe + 4);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got: Vec<(u64, u64)> = t.range(lo, hi).iter().map(|(k, v)| (*k, **v)).collect();
                let want: Vec<(u64, u64)> =
                    r.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "{describe}: range({lo},{hi}) @ {step}");
                // The scratch-buffer form must agree with the allocating
                // form, and its visit count must be a plausible node count.
                let mut scratch: Vec<(u64, u64)> = Vec::new();
                let visits = t.range_into(lo, hi, &mut scratch);
                assert_eq!(scratch, want, "{describe}: range_into @ {step}");
                assert!(visits >= 1, "{describe}: range visits @ {step}");
                // Early-stop visitor: first 3 matches only.
                let mut first3: Vec<u64> = Vec::new();
                t.range_visit(lo, hi, &mut |k, _| {
                    first3.push(k);
                    first3.len() < 3
                });
                let want3: Vec<u64> = want.iter().take(3).map(|(k, _)| *k).collect();
                assert_eq!(first3, want3, "{describe}: range_visit limit @ {step}");
                // Leaf-batched visitor stopped at a random row: the same
                // keys and the same visited-node count as the per-key
                // visitor stopped at that row. A walk stopped at key `r`
                // also visits exactly the nodes a full walk of `lo..=r`
                // does — an oracle independent of either visitor.
                let stop = 1 + rng.below(want.len() as u64 + 2) as usize;
                let mut per_key: Vec<u64> = Vec::new();
                let key_visits = t.range_visit(lo, hi, &mut |k, _| {
                    per_key.push(k);
                    per_key.len() < stop
                });
                let mut batched: Vec<u64> = Vec::new();
                let leaf_visits = t.range_visit_leaves(lo, hi, &mut |keys, vals| {
                    assert_eq!(keys.len(), vals.len(), "{describe}: leaf run @ {step}");
                    assert!(!keys.is_empty(), "{describe}: empty leaf run @ {step}");
                    for &k in keys {
                        batched.push(k);
                        if batched.len() == stop {
                            return false;
                        }
                    }
                    true
                });
                let want_keys: Vec<u64> = want.iter().take(stop).map(|(k, _)| *k).collect();
                assert_eq!(batched, want_keys, "{describe}: leaf keys @ {step}");
                assert_eq!(per_key, want_keys, "{describe}: per-key keys @ {step}");
                assert_eq!(leaf_visits, key_visits, "{describe}: leaf visits @ {step}");
                if batched.len() == stop {
                    let r = *batched.last().expect("stopped on a row");
                    let full = t.range_visit_leaves(lo, r, &mut |_, _| true);
                    assert_eq!(leaf_visits, full, "{describe}: stop-point visits @ {step}");
                }
            }
            // ---- successor queries ----
            _ => {
                let lo = rng.below(universe + 4);
                let got = t.first_at_or_after(lo).map(|(k, v)| (k, *v));
                let want = r.range(lo..).next().map(|(k, v)| (*k, *v));
                assert_eq!(got, want, "{describe}: first_at_or_after({lo}) @ {step}");
            }
        }
        assert_eq!(t.len(), r.len(), "{describe}: len @ {step}");
        assert_eq!(t.is_empty(), r.is_empty(), "{describe}: is_empty @ {step}");
    }
    // Full-tree sweep: contents must agree exactly, in order.
    let got: Vec<(u64, u64)> = t.range(0, u64::MAX).iter().map(|(k, v)| (*k, **v)).collect();
    let want: Vec<(u64, u64)> = r.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "{describe}: final sweep");
}

#[test]
fn matches_btreemap_on_random_schedules() {
    // ≥ 10^5 ops per seed (acceptance floor), several seeds, minimum
    // order — small nodes maximize structural churn per operation.
    for seed in 0..6 {
        differential(seed, 100_000, 4, 512, &format!("seed {seed} order 4"));
    }
}

#[test]
fn matches_btreemap_at_production_order() {
    // The order the engine and TPC-C actually use.
    for seed in 100..103 {
        differential(seed, 100_000, 32, 4096, &format!("seed {seed} order 32"));
    }
}

#[test]
fn matches_btreemap_delete_heavy() {
    // Deletion-dominated schedule: drives the lazy empty-leaf pruning and
    // the successor walk across pruned regions (the TPC-C Delivery
    // pattern: pop-oldest on NEW-ORDER).
    let mut rng = DetRng::new(7);
    let mut t: BTree<u64> = BTree::with_order(4);
    let mut r: BTreeMap<u64, u64> = BTreeMap::new();
    for wave in 0..40u64 {
        for k in 0..600u64 {
            let key = wave * 13 + k * 7;
            t.insert(key, key);
            r.insert(key, key);
        }
        // Remove ~80% of current contents in random order.
        let keys: Vec<u64> = r.keys().copied().collect();
        for key in keys {
            if rng.below(5) != 0 {
                assert_eq!(t.remove(key), r.remove(&key), "remove {key} wave {wave}");
            }
        }
        for probe in 0..50 {
            let lo = rng.below(600 * 13);
            assert_eq!(
                t.first_at_or_after(lo).map(|(k, _)| k),
                r.range(lo..).next().map(|(k, _)| *k),
                "successor {probe} wave {wave}"
            );
        }
        // Scans across the pruned regions: leaf-batched and per-key
        // walks stopped at the same row agree on keys and node count.
        for probe in 0..50 {
            let lo = rng.below(600 * 13);
            let hi = lo + rng.below(600);
            let stop = 1 + rng.below(64) as usize;
            let mut per_key = Vec::new();
            let key_visits = t.range_visit(lo, hi, &mut |k, _| {
                per_key.push(k);
                per_key.len() < stop
            });
            let mut batched = Vec::new();
            let leaf_visits = t.range_visit_leaves(lo, hi, &mut |keys, _| {
                let take = keys.len().min(stop - batched.len());
                batched.extend_from_slice(&keys[..take]);
                batched.len() < stop
            });
            let want: Vec<u64> = r.range(lo..=hi).take(stop).map(|(k, _)| *k).collect();
            assert_eq!(per_key, want, "scan {probe} wave {wave}");
            assert_eq!(batched, want, "leaf scan {probe} wave {wave}");
            assert_eq!(leaf_visits, key_visits, "scan visits {probe} wave {wave}");
        }
        assert_eq!(t.len(), r.len(), "wave {wave}");
    }
}

/// Regression pin: pruning an emptied leaf removes the separator that
/// bounded it, and the survivor at that slot must stay reachable for
/// point gets, scans, and successor queries alike.
#[test]
fn pruned_separator_keeps_right_sibling_reachable() {
    let mut t: BTree<u64> = BTree::with_order(4);
    for k in 0..40u64 {
        t.insert(k, k);
    }
    // Empty out one interior leaf's worth of keys.
    for k in 10..20u64 {
        assert_eq!(t.remove(k), Some(k));
    }
    for k in 0..40u64 {
        let want = if (10..20).contains(&k) { None } else { Some(k) };
        assert_eq!(t.get(k).copied(), want, "get {k}");
    }
    assert_eq!(t.first_at_or_after(10).map(|(k, _)| k), Some(20));
    let got: Vec<u64> = t.range(5, 25).iter().map(|(k, _)| *k).collect();
    assert_eq!(got, vec![5, 6, 7, 8, 9, 20, 21, 22, 23, 24, 25]);
}

//! Deterministic cost-aware cache simulation for the tier hierarchy.
//!
//! The simulator decides, per partition access, which tier serves the bytes
//! and what gets admitted or evicted — *purely* as a function of the access
//! trace. The execution engine drives it from the driver's canonical
//! accounting loop, so hit/miss/eviction sequences are identical across
//! execution modes and across physical page sources. Its residency is the
//! only record of what the cache tiers hold: a tiered scan serves a
//! partition from its resident rows exactly when [`TierCacheSim::holds`] it
//! in memory, and from its object-tier file otherwise.
//!
//! Admission is cost-aware, not recency-based: an entry is admitted to a
//! tier when the re-fetch dollars it is expected to save (object GET price
//! plus transfer price, scaled by its observed access count) exceed the
//! occupancy rent of keeping it resident over the pricing horizon. Eviction
//! removes the lowest-scoring resident first, tie-broken canonically by
//! `(score, insertion sequence, key)` so the outcome never depends on hash
//! iteration order. Rent is priced in those scores only: nothing bills it.
//!
//! A cached tier is one record indexed by [`TierLevel`] and priced by
//! [`TierPricing::spec`]; the object tier is no cache and has neither. A
//! pin is one table-to-level entry, so a table is pinned at one level.

use std::collections::BTreeMap;

use ci_types::TableId;
pub use ci_types::TierLevel;

use crate::pricing::{TierPricing, TierSpec};

/// Cache identity of one micro-partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Owning table.
    pub table: TableId,
    /// Partition ordinal within the table.
    pub part: u32,
}

impl CacheKey {
    /// Convenience constructor.
    pub fn new(table: TableId, part: u32) -> CacheKey {
        CacheKey { table, part }
    }
}

/// Outcome of one simulated access: the serving tier plus the admissions
/// and evictions it triggered, in the order they must be applied.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheAccess {
    /// The partition accessed.
    pub key: CacheKey,
    /// Tier that served the bytes.
    pub level: TierLevel,
    /// Entries admitted (promoted) by this access.
    pub admitted: Vec<(CacheKey, TierLevel)>,
    /// Entries evicted to make room, tagged with the tier they left.
    pub evicted: Vec<(CacheKey, TierLevel)>,
}

/// Running totals, exposed for metrics and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Accesses served from memory.
    pub mem_hits: u64,
    /// Accesses served from local SSD.
    pub ssd_hits: u64,
    /// Accesses that went to the object store.
    pub misses: u64,
    /// Admissions into either cache tier.
    pub promotions: u64,
    /// Evictions from either cache tier.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Resident {
    bytes: u64,
    seq: u64,
}

/// One cached tier's contents: its residents and the bytes they occupy.
#[derive(Debug, Default)]
struct Tier {
    residents: BTreeMap<CacheKey, Resident>,
    bytes: u64,
}

/// Deterministic cost-aware two-tier cache simulator.
///
/// All state lives in ordered maps and every decision is a pure function of
/// the access sequence, so two replays of the same trace produce identical
/// hit/miss/admission/eviction sequences — the property the equivalence
/// tests pin.
#[derive(Debug)]
pub struct TierCacheSim {
    pricing: TierPricing,
    /// The cached tiers, indexed by [`TierLevel::code`]: memory, then SSD.
    tiers: [Tier; 2],
    accesses: BTreeMap<CacheKey, u64>,
    /// The one level each pinned table is pinned at.
    pinned: BTreeMap<TableId, TierLevel>,
    seq: u64,
    counters: CacheCounters,
}

impl TierCacheSim {
    /// Empty caches under the given price menu.
    pub fn new(pricing: TierPricing) -> TierCacheSim {
        TierCacheSim {
            pricing,
            tiers: Default::default(),
            accesses: BTreeMap::new(),
            pinned: BTreeMap::new(),
            seq: 0,
            counters: CacheCounters::default(),
        }
    }

    /// The cached tier behind `level` (`None` for the object tier).
    fn tier(&self, level: TierLevel) -> Option<&Tier> {
        self.tiers.get(level.code() as usize)
    }

    fn pinned_at(&self, table: TableId, level: TierLevel) -> bool {
        self.pinned.get(&table) == Some(&level)
    }

    /// Pins every partition of `table` to `level`: always admitted there,
    /// never evicted. Pinning to [`TierLevel::Object`] clears the pin.
    pub fn pin(&mut self, table: TableId, level: TierLevel) {
        if level == TierLevel::Object {
            self.pinned.remove(&table);
        } else {
            self.pinned.insert(table, level);
        }
    }

    /// Forgets every resident partition of `table` in both cached tiers:
    /// the table was rewritten (a recluster), so copies of its old
    /// partitions no longer hold its bytes, and its next reads miss. Its
    /// pin and its access counts stay, since the table is still pinned
    /// where it was and still read as often.
    pub fn forget(&mut self, table: TableId) {
        for tier in &mut self.tiers {
            let keys = CacheKey::new(table, 0)..=CacheKey::new(table, u32::MAX);
            tier.bytes -= tier
                .residents
                .range(keys)
                .map(|(_, r)| r.bytes)
                .sum::<u64>();
            tier.residents.retain(|k, _| k.table != table);
        }
    }

    /// Expected dollars saved minus occupancy rent for keeping `bytes` in
    /// `tier` given `hits` observed accesses.
    fn score(&self, tier: &TierSpec, bytes: u64, hits: u64) -> f64 {
        let saved = self.pricing.refetch_dollars(bytes as f64) * hits as f64;
        let rent = tier.rent_per_hour(bytes) * self.pricing.rent_horizon_hours;
        saved - rent
    }

    /// Admits `key` into the tier behind `level` if its score clears zero
    /// (or its table is pinned there) and room can be made by evicting
    /// strictly lower-scoring, unpinned residents. Returns `true` on admit.
    fn admit(
        &mut self,
        level: TierLevel,
        key: CacheKey,
        bytes: u64,
        hits: u64,
        evicted: &mut Vec<(CacheKey, TierLevel)>,
    ) -> bool {
        let (Some(spec), Some(tier)) = (self.pricing.spec(level), self.tier(level)) else {
            return false;
        };
        let pinned_here = self.pinned_at(key.table, level);
        let cand_score = self.score(spec, bytes, hits);
        if !pinned_here && cand_score <= 0.0 {
            return false;
        }
        if bytes > spec.capacity_bytes {
            return false;
        }
        // Plan evictions until the entry fits. Victims are chosen by
        // ascending (score, insertion seq, key) — fully canonical.
        let mut victims: Vec<CacheKey> = Vec::new();
        let mut freed = 0u64;
        let used = tier.bytes;
        if used + bytes > spec.capacity_bytes {
            let mut ranked: Vec<(f64, u64, CacheKey, u64)> = tier
                .residents
                .iter()
                .filter(|(k, _)| !self.pinned_at(k.table, level))
                .map(|(k, r)| {
                    let h = self.accesses.get(k).copied().unwrap_or(0);
                    (self.score(spec, r.bytes, h), r.seq, *k, r.bytes)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            for (vscore, _, vkey, vbytes) in ranked {
                if used + bytes - freed <= spec.capacity_bytes {
                    break;
                }
                // An unpinned candidate may only displace strictly worse
                // residents; a pinned one displaces anything unpinned.
                if !pinned_here && vscore >= cand_score {
                    return false;
                }
                freed += vbytes;
                victims.push(vkey);
            }
            if used + bytes - freed > spec.capacity_bytes {
                return false;
            }
        }
        for vkey in victims {
            self.remove(level, vkey);
            evicted.push((vkey, level));
            self.counters.evictions += 1;
        }
        let tier = &mut self.tiers[level.code() as usize];
        tier.residents.insert(
            key,
            Resident {
                bytes,
                seq: self.seq,
            },
        );
        tier.bytes += bytes;
        self.seq += 1;
        self.counters.promotions += 1;
        true
    }

    fn remove(&mut self, level: TierLevel, key: CacheKey) {
        if let Some(t) = self.tiers.get_mut(level.code() as usize) {
            if let Some(r) = t.residents.remove(&key) {
                t.bytes -= r.bytes;
            }
        }
    }

    /// Records one access to `key` (`bytes` = encoded partition size) and
    /// returns the serving tier plus the admissions/evictions it triggered.
    pub fn access(&mut self, key: CacheKey, bytes: u64) -> CacheAccess {
        let hits = {
            let e = self.accesses.entry(key).or_insert(0);
            *e += 1;
            *e
        };
        let mut admitted = Vec::new();
        let mut evicted = Vec::new();
        let [mem, ssd] = &self.tiers;
        let level = if mem.residents.contains_key(&key) {
            self.counters.mem_hits += 1;
            TierLevel::Mem
        } else if ssd.residents.contains_key(&key) {
            self.counters.ssd_hits += 1;
            // A hot SSD entry may graduate to memory.
            if self.admit(TierLevel::Mem, key, bytes, hits, &mut evicted) {
                self.remove(TierLevel::Ssd, key);
                admitted.push((key, TierLevel::Mem));
            }
            TierLevel::Ssd
        } else {
            self.counters.misses += 1;
            if self.admit(TierLevel::Mem, key, bytes, hits, &mut evicted) {
                admitted.push((key, TierLevel::Mem));
            } else if self.admit(TierLevel::Ssd, key, bytes, hits, &mut evicted) {
                admitted.push((key, TierLevel::Ssd));
            }
            TierLevel::Object
        };
        CacheAccess {
            key,
            level,
            admitted,
            evicted,
        }
    }

    /// Virtual seconds to serve `bytes` from `level` (the object tier is
    /// priced by the engine's object-store model instead).
    pub fn service_secs(&self, level: TierLevel, bytes: f64) -> Option<f64> {
        Some(self.pricing.spec(level)?.access_secs(bytes))
    }

    /// Running hit/miss/promotion/eviction totals.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Whether `key` is resident in the cached tier behind `level` (never
    /// for the object tier, which the simulator does not track).
    pub fn holds(&self, key: CacheKey, level: TierLevel) -> bool {
        self.tier(level)
            .is_some_and(|t| t.residents.contains_key(&key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pricing() -> TierPricing {
        let mut p = TierPricing::standard();
        // Shrink capacities so eviction paths are exercised with small keys.
        p.mem.capacity_bytes = 3_000_000;
        p.ssd.capacity_bytes = 6_000_000;
        // Make transfer expensive enough that a single access justifies SSD
        // admission for MB-scale partitions.
        p.object_transfer_dollars_per_gb = 10.0;
        p
    }

    fn k(t: u32, p: u32) -> CacheKey {
        CacheKey::new(TableId::new(t), p)
    }

    /// Bytes resident in `level`'s tier.
    fn resident_bytes(sim: &TierCacheSim, level: TierLevel) -> u64 {
        sim.tier(level).map_or(0, |t| t.bytes)
    }

    #[test]
    fn replay_is_deterministic() {
        let trace: Vec<(CacheKey, u64)> =
            (0..40u32).map(|i| (k(i % 3, i % 5), 1_000_000)).collect();
        let run = |p: TierPricing| {
            let mut sim = TierCacheSim::new(p);
            trace
                .iter()
                .map(|(key, b)| sim.access(*key, *b))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(tiny_pricing()), run(tiny_pricing()));
    }

    #[test]
    fn second_access_hits_after_admission() {
        let mut sim = TierCacheSim::new(tiny_pricing());
        let a = sim.access(k(0, 0), 1_000_000);
        assert_eq!(a.level, TierLevel::Object);
        assert!(
            !a.admitted.is_empty(),
            "expensive refetch should be admitted"
        );
        let b = sim.access(k(0, 0), 1_000_000);
        assert_ne!(b.level, TierLevel::Object);
    }

    #[test]
    fn cheap_refetch_is_never_admitted() {
        let mut p = TierPricing::standard();
        p.object_transfer_dollars_per_gb = 0.0;
        p.object_get_dollars = 0.0;
        let mut sim = TierCacheSim::new(p);
        for _ in 0..10 {
            let a = sim.access(k(0, 0), 1_000_000);
            assert_eq!(a.level, TierLevel::Object);
            assert!(a.admitted.is_empty());
        }
        assert_eq!(sim.counters().promotions, 0);
    }

    #[test]
    fn eviction_respects_capacity_and_scores() {
        let mut sim = TierCacheSim::new(tiny_pricing());
        // Fill memory (capacity 3 MB) with three 1 MB entries, then touch a
        // fourth repeatedly until its score beats the coldest resident.
        for part in [0u32, 1, 2] {
            sim.access(k(0, part), 1_000_000);
        }
        // Heat up the original entries unevenly so scores differ.
        sim.access(k(0, 1), 1_000_000);
        sim.access(k(0, 2), 1_000_000);
        sim.access(k(0, 2), 1_000_000);
        // Part 3: first access scores equal to the coldest (part 0) -> no
        // mem eviction (strictly-lower rule); second access beats it.
        let first = sim.access(k(0, 3), 1_000_000);
        assert!(!first.admitted.contains(&(k(0, 3), TierLevel::Mem)));
        let second = sim.access(k(0, 3), 1_000_000);
        assert!(second.admitted.contains(&(k(0, 3), TierLevel::Mem)));
        assert!(second
            .evicted
            .iter()
            .any(|(key, lvl)| *key == k(0, 0) && *lvl == TierLevel::Mem));
        assert!(resident_bytes(&sim, TierLevel::Mem) <= 3_000_000);
    }

    #[test]
    fn pinned_tables_are_admitted_and_never_evicted() {
        let mut sim = TierCacheSim::new(tiny_pricing());
        sim.pin(TableId::new(9), TierLevel::Mem);
        sim.access(k(9, 0), 2_000_000);
        assert_eq!(resident_bytes(&sim, TierLevel::Mem), 2_000_000);
        // Hammer other keys; the pinned entry must survive.
        for i in 0..20u32 {
            sim.access(k(1, i % 2), 1_000_000);
        }
        let hit = sim.access(k(9, 0), 2_000_000);
        assert_eq!(hit.level, TierLevel::Mem);
    }

    /// Forgetting a table empties its residents from both tiers and their
    /// bytes from the totals, leaves other tables and the pin alone, and
    /// makes the table's next access a miss.
    #[test]
    fn forget_drops_one_tables_residents_and_keeps_its_pin() {
        let mut p = tiny_pricing();
        p.mem.capacity_bytes = 2_000_000;
        let mut sim = TierCacheSim::new(p);
        sim.pin(TableId::new(1), TierLevel::Ssd);
        for key in [k(0, 0), k(0, 1), k(0, 2), k(1, 0), k(2, 0)] {
            sim.access(key, 1_000_000);
        }
        let resident = |sim: &TierCacheSim| {
            resident_bytes(sim, TierLevel::Mem) + resident_bytes(sim, TierLevel::Ssd)
        };
        assert_eq!(resident(&sim), 5_000_000, "every partition cached");
        sim.forget(TableId::new(0));
        assert_eq!(resident(&sim), 2_000_000);
        let [mem, ssd] = &sim.tiers;
        let keys = mem.residents.keys().chain(ssd.residents.keys());
        assert!(keys.clone().all(|key| key.table != TableId::new(0)));
        assert_eq!(keys.count(), 2);
        let before = sim.counters();
        assert_eq!(sim.access(k(0, 1), 1_000_000).level, TierLevel::Object);
        assert_eq!(sim.counters().misses, before.misses + 1);
        // A pinned table's residents go too; its pin stays.
        sim.forget(TableId::new(1));
        assert_eq!(sim.pinned.get(&TableId::new(1)), Some(&TierLevel::Ssd));
        assert_eq!(sim.access(k(1, 0), 1_000_000).level, TierLevel::Object);
    }

    #[test]
    fn ssd_catches_what_memory_rejects() {
        let mut p = tiny_pricing();
        // Memory rent so high nothing qualifies; SSD stays cheap.
        p.mem.price_per_gb_hour = 1e6;
        let mut sim = TierCacheSim::new(p);
        let a = sim.access(k(0, 0), 1_000_000);
        assert_eq!(a.admitted, vec![(k(0, 0), TierLevel::Ssd)]);
        assert!(sim.holds(k(0, 0), TierLevel::Ssd));
        assert!(!sim.holds(k(0, 0), TierLevel::Mem));
        assert!(!sim.holds(k(0, 0), TierLevel::Object));
        let b = sim.access(k(0, 0), 1_000_000);
        assert_eq!(b.level, TierLevel::Ssd);
    }
}

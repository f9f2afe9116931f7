//! Differential oracle for the tier-cache simulator.
//!
//! `reference::TierCacheSim` is the simulator as it stood when each cached
//! tier was spelled out by hand (separate memory and SSD maps, byte counts
//! and pin sets), kept verbatim. Seeded traces of accesses and pins, over
//! capacities small enough that evictions, SSD-to-memory promotions and
//! pinned admissions all happen, must produce the same [`CacheAccess`],
//! counters, service times and residency from both: after every step each
//! key of the trace sits in the same tiers, and each tier's bytes (summed
//! from the sizes of the keys it holds) match the reference's byte count.

use ci_cloud::pricing::TierPricing;
use ci_cloud::tiercache::{CacheKey, TierCacheSim, TierLevel};
use ci_types::{DetRng, TableId};

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use ci_cloud::pricing::{TierPricing, TierSpec};
    use ci_cloud::tiercache::{CacheAccess, CacheCounters, CacheKey, TierLevel};
    use ci_types::TableId;

    #[derive(Debug, Clone)]
    struct Resident {
        bytes: u64,
        seq: u64,
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
        mem: BTreeMap<CacheKey, Resident>,
        ssd: BTreeMap<CacheKey, Resident>,
        mem_bytes: u64,
        ssd_bytes: u64,
        accesses: BTreeMap<CacheKey, u64>,
        pinned_mem: BTreeSet<TableId>,
        pinned_ssd: BTreeSet<TableId>,
        seq: u64,
        counters: CacheCounters,
    }

    impl TierCacheSim {
        /// Empty caches under the given price menu.
        pub fn new(pricing: TierPricing) -> TierCacheSim {
            TierCacheSim {
                pricing,
                mem: BTreeMap::new(),
                ssd: BTreeMap::new(),
                mem_bytes: 0,
                ssd_bytes: 0,
                accesses: BTreeMap::new(),
                pinned_mem: BTreeSet::new(),
                pinned_ssd: BTreeSet::new(),
                seq: 0,
                counters: CacheCounters::default(),
            }
        }

        /// Pins every partition of `table` to `level`: always admitted there,
        /// never evicted. Pinning to [`TierLevel::Object`] clears the pin.
        pub fn pin(&mut self, table: TableId, level: TierLevel) {
            self.pinned_mem.remove(&table);
            self.pinned_ssd.remove(&table);
            match level {
                TierLevel::Mem => {
                    self.pinned_mem.insert(table);
                }
                TierLevel::Ssd => {
                    self.pinned_ssd.insert(table);
                }
                TierLevel::Object => {}
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
            let spec = match level {
                TierLevel::Mem => self.pricing.mem.clone(),
                TierLevel::Ssd => self.pricing.ssd.clone(),
                TierLevel::Object => return false,
            };
            let pinned_here = match level {
                TierLevel::Mem => self.pinned_mem.contains(&key.table),
                TierLevel::Ssd => self.pinned_ssd.contains(&key.table),
                TierLevel::Object => false,
            };
            let cand_score = self.score(&spec, bytes, hits);
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
            {
                let (residents, used, pinned) = match level {
                    TierLevel::Mem => (&self.mem, self.mem_bytes, &self.pinned_mem),
                    TierLevel::Ssd => (&self.ssd, self.ssd_bytes, &self.pinned_ssd),
                    TierLevel::Object => unreachable!(),
                };
                if used + bytes > spec.capacity_bytes {
                    let mut ranked: Vec<(f64, u64, CacheKey, u64)> = residents
                        .iter()
                        .filter(|(k, _)| !pinned.contains(&k.table))
                        .map(|(k, r)| {
                            let h = self.accesses.get(k).copied().unwrap_or(0);
                            (self.score(&spec, r.bytes, h), r.seq, *k, r.bytes)
                        })
                        .collect();
                    ranked.sort_by(|a, b| {
                        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                    });
                    for (vscore, _, vkey, vbytes) in ranked {
                        if used + bytes - freed <= spec.capacity_bytes {
                            break;
                        }
                        // An unpinned candidate may only displace strictly
                        // worse residents; a pinned one displaces anything
                        // unpinned.
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
            }
            for vkey in victims {
                self.remove(level, vkey);
                evicted.push((vkey, level));
                self.counters.evictions += 1;
            }
            let resident = Resident {
                bytes,
                seq: self.seq,
            };
            self.seq += 1;
            match level {
                TierLevel::Mem => {
                    self.mem.insert(key, resident);
                    self.mem_bytes += bytes;
                }
                TierLevel::Ssd => {
                    self.ssd.insert(key, resident);
                    self.ssd_bytes += bytes;
                }
                TierLevel::Object => unreachable!(),
            }
            self.counters.promotions += 1;
            true
        }

        fn remove(&mut self, level: TierLevel, key: CacheKey) {
            match level {
                TierLevel::Mem => self.mem.remove(&key).inspect(|r| self.mem_bytes -= r.bytes),
                TierLevel::Ssd => self.ssd.remove(&key).inspect(|r| self.ssd_bytes -= r.bytes),
                TierLevel::Object => None,
            };
        }

        /// Records one access to `key` (`bytes` = encoded partition size) and
        /// returns the serving tier plus the admissions/evictions the physical
        /// store must mirror.
        pub fn access(&mut self, key: CacheKey, bytes: u64) -> CacheAccess {
            let hits = {
                let e = self.accesses.entry(key).or_insert(0);
                *e += 1;
                *e
            };
            let mut admitted = Vec::new();
            let mut evicted = Vec::new();
            let level = if self.mem.contains_key(&key) {
                self.counters.mem_hits += 1;
                TierLevel::Mem
            } else if self.ssd.contains_key(&key) {
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
            match level {
                TierLevel::Mem => Some(self.pricing.mem.access_secs(bytes)),
                TierLevel::Ssd => Some(self.pricing.ssd.access_secs(bytes)),
                TierLevel::Object => None,
            }
        }

        /// Running hit/miss/promotion/eviction totals.
        pub fn counters(&self) -> CacheCounters {
            self.counters
        }

        /// Whether `key` is resident in the cached tier behind `level`.
        pub fn holds(&self, key: CacheKey, level: TierLevel) -> bool {
            match level {
                TierLevel::Mem => self.mem.contains_key(&key),
                TierLevel::Ssd => self.ssd.contains_key(&key),
                TierLevel::Object => false,
            }
        }

        /// Bytes currently resident in `level` (0 for the object tier).
        pub fn resident_bytes(&self, level: TierLevel) -> u64 {
            match level {
                TierLevel::Mem => self.mem_bytes,
                TierLevel::Ssd => self.ssd_bytes,
                TierLevel::Object => 0,
            }
        }
    }
}

const TRACES: u64 = 600;
const STEPS: usize = 250;
const MB: u64 = 1_000_000;
const LEVELS: [TierLevel; 3] = [TierLevel::Mem, TierLevel::Ssd, TierLevel::Object];

/// A price menu whose capacities hold a handful of MB-scale partitions and
/// whose prices put admission scores on both sides of zero.
fn pricing(rng: &mut DetRng) -> TierPricing {
    let mut p = TierPricing::standard();
    p.mem.capacity_bytes = MB + rng.u64_below(5 * MB);
    p.ssd.capacity_bytes = p.mem.capacity_bytes + rng.u64_below(8 * MB);
    p.object_transfer_dollars_per_gb = *rng.choose(&[0.0, 0.01, 1.0, 10.0, 50.0]);
    p.object_get_dollars = *rng.choose(&[0.0, 4e-7, 1e-4]);
    p.mem.price_per_gb_hour = *rng.choose(&[0.05, 5.0, 100.0, 1e6]);
    p.ssd.price_per_gb_hour = *rng.choose(&[0.002, 1.0, 30.0]);
    p.rent_horizon_hours = *rng.choose(&[0.5, 1.0, 4.0]);
    p
}

/// Per-partition sizes: a few shared sizes (so scores tie and the
/// insertion-sequence tie-break decides) and sizes around and above each
/// capacity.
fn sizes(rng: &mut DetRng, p: &TierPricing, tables: u32, parts: u32) -> Vec<Vec<u64>> {
    let (mem, ssd) = (p.mem.capacity_bytes, p.ssd.capacity_bytes);
    (0..tables)
        .map(|_| {
            (0..parts)
                .map(|_| match rng.u64_below(6) {
                    0 | 1 => *rng.choose(&[MB / 2, MB]),
                    2 => 1 + rng.u64_below(mem),
                    3 => mem - mem / 4 + rng.u64_below(mem / 2),
                    4 => ssd - ssd / 4 + rng.u64_below(ssd / 2),
                    _ => 1 + rng.u64_below(MB / 4),
                })
                .collect()
        })
        .collect()
}

/// An ordinal below `n`, skewed toward 0 so some keys come back often.
fn skewed(rng: &mut DetRng, n: u32) -> u32 {
    let hi = 1 + rng.u64_below(n as u64);
    rng.u64_below(hi) as u32
}

/// Every key of the trace is resident in the same tiers of both
/// simulators, and the bytes of the keys each tier holds add up to the
/// reference's own byte count for that tier.
fn assert_same_residency(
    got: &TierCacheSim,
    want: &reference::TierCacheSim,
    sizes: &[Vec<u64>],
    ctx: &dyn Fn() -> String,
) {
    for level in LEVELS {
        let mut held_bytes = 0;
        for (t, parts) in sizes.iter().enumerate() {
            for (part, &bytes) in parts.iter().enumerate() {
                let key = CacheKey::new(TableId::new(t as u32), part as u32);
                let held = got.holds(key, level);
                assert_eq!(
                    held,
                    want.holds(key, level),
                    "holds({key:?}, {level:?}), {}",
                    ctx()
                );
                if held {
                    held_bytes += bytes;
                }
            }
        }
        assert_eq!(
            held_bytes,
            want.resident_bytes(level),
            "resident bytes({level:?}), {}",
            ctx()
        );
    }
}

#[derive(Default)]
struct Coverage {
    evictions: u64,
    ssd_to_mem: u64,
    pinned_admissions: u64,
    pins: [u64; 3],
}

fn run_trace(seed: u64, cov: &mut Coverage) {
    let mut rng = DetRng::seed_from_u64(seed);
    let p = pricing(&mut rng);
    let tables = 1 + rng.u64_below(4) as u32;
    let parts = 1 + rng.u64_below(6) as u32;
    let sizes = sizes(&mut rng, &p, tables, parts);
    let mut got = TierCacheSim::new(p.clone());
    let mut want = reference::TierCacheSim::new(p);
    let mut pinned = std::collections::BTreeMap::new();
    for step in 0..STEPS {
        let ctx = || format!("seed {seed}, step {step}");
        if rng.bool_with(0.04) {
            let table = TableId::new(rng.u64_below(tables as u64) as u32);
            let level = *rng.choose(&LEVELS);
            got.pin(table, level);
            want.pin(table, level);
            pinned.insert(table, level);
            cov.pins[level.code() as usize] += 1;
            assert_same_residency(&got, &want, &sizes, &ctx);
            continue;
        }
        let t = skewed(&mut rng, tables);
        let part = skewed(&mut rng, parts);
        let key = CacheKey::new(TableId::new(t), part);
        let bytes = sizes[t as usize][part as usize];
        let a = got.access(key, bytes);
        let b = want.access(key, bytes);
        assert_eq!(a, b, "access, {}", ctx());
        assert_eq!(got.counters(), want.counters(), "counters, {}", ctx());
        let fetched = rng.range_f64(0.0, 2.0 * bytes as f64);
        for level in LEVELS {
            assert_eq!(
                got.service_secs(level, fetched).map(f64::to_bits),
                want.service_secs(level, fetched).map(f64::to_bits),
                "service_secs({level:?}), {}",
                ctx()
            );
        }
        assert_same_residency(&got, &want, &sizes, &ctx);
        cov.evictions += a.evicted.len() as u64;
        if a.level == TierLevel::Ssd && !a.admitted.is_empty() {
            cov.ssd_to_mem += 1;
        }
        let pin = pinned.get(&key.table).copied();
        if a.admitted.iter().any(|&(_, level)| Some(level) == pin) {
            cov.pinned_admissions += 1;
        }
    }
}

#[test]
fn simulator_matches_the_per_tier_reference_on_seeded_traces() {
    let mut cov = Coverage::default();
    for seed in 0..TRACES {
        run_trace(seed, &mut cov);
    }
    // The traces reach every path the two implementations could disagree on.
    assert!(cov.evictions > 1_000, "evictions: {}", cov.evictions);
    assert!(
        cov.ssd_to_mem > 100,
        "ssd -> mem promotions: {}",
        cov.ssd_to_mem
    );
    assert!(
        cov.pinned_admissions > 100,
        "pinned admissions: {}",
        cov.pinned_admissions
    );
    assert!(
        cov.pins.iter().all(|&n| n > 100),
        "pins by level: {:?}",
        cov.pins
    );
}

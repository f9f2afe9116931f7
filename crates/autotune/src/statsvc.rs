//! The Statistics Service (§4).
//!
//! "For each database instance, the Statistics Service collects the query
//! execution logs from all the tenants to form the 'ground truth' for
//! understanding workload behaviors. The service computes in the background
//! ... queryable workload summaries, including file/attribute-access counts
//! and weighted join graphs for training workload-prediction models and
//! run-time resource usage for modeling the performance and monetary cost."

use std::collections::HashMap;

use ci_types::money::Dollars;
use ci_types::{DetRng, SimDuration, SimTime, TableId};

/// A `(table, column)` attribute reference.
pub type AttrRef = (TableId, usize);
/// An undirected join-graph edge between two attributes.
pub type JoinEdge = (AttrRef, AttrRef);

/// One query execution log record.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogRecord {
    /// Normalized query fingerprint (literals stripped).
    pub fingerprint: String,
    /// Representative SQL text for this fingerprint.
    pub sql: String,
    /// Virtual completion time.
    pub finished_at: SimTime,
    /// Query latency.
    pub latency: SimDuration,
    /// Machine time billed.
    pub machine_time: SimDuration,
    /// Dollars billed.
    pub cost: Dollars,
    /// (table, column) attribute accesses.
    pub attributes: Vec<AttrRef>,
    /// Equi-join column pairs exercised.
    pub joins: Vec<JoinEdge>,
}

/// Modeled ingest cost per recorded query (the service's own bill, §4):
/// ≈ 0.4 node-ms at $2/h.
pub const INGEST_COST_PER_RECORD: Dollars = Dollars::new(2e-7);

/// Sampling configuration.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Probability of recording a query (counts are scaled by `1/rate`).
    pub sampling_rate: f64,
    /// Maximum distinct fingerprints kept exactly; colder entries collapse
    /// into an aggregate bucket (hot/cold tiering, §4).
    pub hot_capacity: usize,
    /// RNG seed for sampling decisions.
    pub seed: u64,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            sampling_rate: 1.0,
            hot_capacity: 10_000,
            seed: 0,
        }
    }
}

/// Per-fingerprint workload summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintStats {
    /// Representative SQL.
    pub sql: String,
    /// Estimated executions (scaled by inverse sampling rate).
    pub count: f64,
    /// Estimated total dollars spent on this fingerprint.
    pub total_cost: Dollars,
    /// Mean latency over sampled executions.
    pub mean_latency: SimDuration,
    /// Earliest and latest observation.
    pub first_seen: SimTime,
    /// Latest observation.
    pub last_seen: SimTime,
}

/// The Statistics Service.
#[derive(Debug)]
pub struct StatisticsService {
    config: StatsConfig,
    rng: DetRng,
    /// Attribute access counts (scaled).
    attr_counts: HashMap<AttrRef, f64>,
    /// Weighted join graph: vertices are (table, column), weights are scaled
    /// access counts (§4's "weighted join graph").
    join_graph: HashMap<JoinEdge, f64>,
    fingerprints: HashMap<String, FingerprintStats>,
    /// Executions that were observed but not recorded (sampling misses).
    skipped: u64,
    recorded: u64,
    /// Aggregate bucket for evicted (cold) fingerprints.
    cold_count: f64,
    cold_cost: Dollars,
    /// The service's own accumulated ingest bill.
    ingest_spend: Dollars,
}

impl StatisticsService {
    /// New service with the given configuration.
    pub fn new(config: StatsConfig) -> StatisticsService {
        let rng = DetRng::seed_from_u64(config.seed);
        StatisticsService {
            config,
            rng,
            attr_counts: HashMap::new(),
            join_graph: HashMap::new(),
            fingerprints: HashMap::new(),
            skipped: 0,
            recorded: 0,
            cold_count: 0.0,
            cold_cost: Dollars::ZERO,
            ingest_spend: Dollars::ZERO,
        }
    }

    /// Ingests one query log record, subject to sampling.
    pub fn ingest(&mut self, rec: QueryLogRecord) {
        if self.config.sampling_rate < 1.0 && !self.rng.bool_with(self.config.sampling_rate) {
            self.skipped += 1;
            return;
        }
        self.recorded += 1;
        self.ingest_spend += INGEST_COST_PER_RECORD;
        let scale = 1.0 / self.config.sampling_rate.max(1e-9);

        for &(t, c) in &rec.attributes {
            *self.attr_counts.entry((t, c)).or_insert(0.0) += scale;
        }
        for &(a, b) in &rec.joins {
            let key = if a <= b { (a, b) } else { (b, a) };
            *self.join_graph.entry(key).or_insert(0.0) += scale;
        }

        let entry = self
            .fingerprints
            .entry(rec.fingerprint.clone())
            .or_insert_with(|| FingerprintStats {
                sql: rec.sql.clone(),
                count: 0.0,
                total_cost: Dollars::ZERO,
                mean_latency: SimDuration::ZERO,
                first_seen: rec.finished_at,
                last_seen: rec.finished_at,
            });
        // Running mean of latency over recorded samples.
        let n_before = entry.count / scale;
        let mean = (entry.mean_latency.as_secs_f64() * n_before + rec.latency.as_secs_f64())
            / (n_before + 1.0);
        entry.mean_latency = SimDuration::from_secs_f64(mean);
        entry.count += scale;
        entry.total_cost += rec.cost * scale;
        entry.last_seen = entry.last_seen.max(rec.finished_at);
        entry.first_seen = entry.first_seen.min(rec.finished_at);

        self.evict_cold_if_needed();
    }

    /// Hot/cold tiering: when over capacity, the coldest (cheapest) half of
    /// fingerprints collapses into an aggregate bucket. Equal costs evict
    /// the lesser fingerprint first, so the survivors never depend on the
    /// map's iteration order.
    fn evict_cold_if_needed(&mut self) {
        if self.fingerprints.len() <= self.config.hot_capacity {
            return;
        }
        let mut entries: Vec<(String, f64)> = self
            .fingerprints
            .iter()
            .map(|(k, v)| (k.clone(), v.total_cost.amount()))
            .collect();
        entries.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let evict = entries.len() - self.config.hot_capacity / 2;
        for (k, _) in entries.into_iter().take(evict) {
            if let Some(v) = self.fingerprints.remove(&k) {
                self.cold_count += v.count;
                self.cold_cost += v.total_cost;
            }
        }
    }

    /// Top attributes by access count, descending.
    pub fn hot_attributes(&self, k: usize) -> Vec<(AttrRef, f64)> {
        let mut v: Vec<_> = self.attr_counts.iter().map(|(a, c)| (*a, *c)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Join-graph edges by weight, descending.
    pub fn join_edges(&self) -> Vec<(JoinEdge, f64)> {
        let mut v: Vec<_> = self.join_graph.iter().map(|(e, w)| (*e, *w)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fingerprints by total cost, descending — "where do the dollars go".
    pub fn top_fingerprints(&self, k: usize) -> Vec<(&str, &FingerprintStats)> {
        let mut v: Vec<_> = self
            .fingerprints
            .iter()
            .map(|(f, s)| (f.as_str(), s))
            .collect();
        v.sort_by(|a, b| {
            b.1.total_cost
                .amount()
                .total_cmp(&a.1.total_cost.amount())
                .then(a.0.cmp(b.0))
        });
        v.truncate(k);
        v
    }

    /// Summary for one fingerprint.
    pub fn fingerprint(&self, fp: &str) -> Option<&FingerprintStats> {
        self.fingerprints.get(fp)
    }

    /// All fingerprints currently tracked.
    pub fn fingerprints(&self) -> impl Iterator<Item = (&str, &FingerprintStats)> {
        self.fingerprints.iter().map(|(f, s)| (f.as_str(), s))
    }

    /// (recorded, skipped) ingest decisions.
    pub fn ingest_counts(&self) -> (u64, u64) {
        (self.recorded, self.skipped)
    }

    /// The service's own accumulated cost (E9's overhead axis).
    pub fn ingest_spend(&self) -> Dollars {
        self.ingest_spend
    }
}

/// Normalizes SQL into a workload fingerprint: lowercase, whitespace
/// collapsed, numeric and string literals replaced by `?`.
pub fn fingerprint_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut last_space = true;
    while let Some(c) = chars.next() {
        if c == '\'' {
            // Skip string literal.
            for d in chars.by_ref() {
                if d == '\'' {
                    break;
                }
            }
            out.push('?');
            last_space = false;
        } else if c.is_ascii_digit()
            && !out
                .chars()
                .last()
                .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_')
        {
            while chars
                .peek()
                .is_some_and(|d| d.is_ascii_digit() || *d == '.')
            {
                chars.next();
            }
            out.push('?');
            last_space = false;
        } else if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c.to_ascii_lowercase());
            last_space = false;
        }
    }
    out.trim().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, cost: f64, t: f64) -> QueryLogRecord {
        QueryLogRecord {
            fingerprint: fp.to_owned(),
            sql: fp.to_owned(),
            finished_at: SimTime::from_secs_f64(t),
            latency: SimDuration::from_secs(1),
            machine_time: SimDuration::from_secs(4),
            cost: Dollars::new(cost),
            attributes: vec![(TableId::new(0), 1), (TableId::new(0), 2)],
            joins: vec![((TableId::new(0), 1), (TableId::new(1), 0))],
        }
    }

    #[test]
    fn full_sampling_counts_exactly() {
        let mut s = StatisticsService::new(StatsConfig::default());
        for i in 0..10 {
            s.ingest(rec("q1", 0.01, i as f64));
        }
        let fp = s.fingerprint("q1").unwrap();
        assert!((fp.count - 10.0).abs() < 1e-9);
        assert!(fp.total_cost.abs_diff(Dollars::new(0.1)) < 1e-9);
        assert_eq!(s.ingest_counts(), (10, 0));
        // Attribute counts scaled by 1.
        assert_eq!(s.hot_attributes(1)[0].1, 10.0);
        // Join edge weight.
        assert_eq!(s.join_edges()[0].1, 10.0);
    }

    #[test]
    fn sampling_unbiased_in_expectation() {
        let cfg = StatsConfig {
            sampling_rate: 0.25,
            seed: 42,
            ..Default::default()
        };
        let mut s = StatisticsService::new(cfg);
        for i in 0..4000 {
            s.ingest(rec("q1", 0.01, i as f64));
        }
        let fp = s.fingerprint("q1").unwrap();
        // Scaled estimate should be close to the true 4000.
        assert!(
            (fp.count - 4000.0).abs() / 4000.0 < 0.1,
            "estimated count {}",
            fp.count
        );
        let (recorded, skipped) = s.ingest_counts();
        assert_eq!(recorded + skipped, 4000);
        // The service bills itself per recorded entry, so its own spend
        // falls in proportion to the sampling rate.
        let per_record = INGEST_COST_PER_RECORD.amount();
        assert!((s.ingest_spend().amount() - recorded as f64 * per_record).abs() < 1e-12);
        assert!(
            (recorded as f64 / 4000.0 - 0.25).abs() < 0.025,
            "recorded {recorded} of 4000 at a 25% rate"
        );
    }

    #[test]
    fn hot_cold_tiering_preserves_totals() {
        let cfg = StatsConfig {
            hot_capacity: 10,
            ..Default::default()
        };
        let mut s = StatisticsService::new(cfg);
        for i in 0..50 {
            // Fingerprint i has cost proportional to i: high-i stay hot.
            s.ingest(rec(&format!("q{i}"), 0.001 * (i + 1) as f64, i as f64));
        }
        assert!(s.fingerprints.len() <= 10);
        // The expensive fingerprints survive.
        assert!(s.fingerprint("q49").is_some());
        assert!(s.fingerprint("q0").is_none());
        // Evicted mass is preserved in the cold bucket.
        assert!(s.cold_count > 0.0);
    }

    #[test]
    fn equal_cost_eviction_ignores_arrival_and_hash_order() {
        let cfg = || StatsConfig {
            hot_capacity: 10,
            ..Default::default()
        };
        let (mut forward, mut reverse) =
            (StatisticsService::new(cfg()), StatisticsService::new(cfg()));
        // 29 records: the last one triggers the last eviction (at 11, 17,
        // 23 and 29 entries), so no survivor is there by arrival alone.
        let names: Vec<String> = (0..29).map(|i| format!("q{i:02}")).collect();
        for name in &names {
            forward.ingest(rec(name, 0.01, 0.0));
        }
        for name in names.iter().rev() {
            reverse.ingest(rec(name, 0.01, 0.0));
        }
        let survivors = |s: &StatisticsService| {
            let mut kept: Vec<String> = s.fingerprints.keys().cloned().collect();
            kept.sort();
            kept
        };
        // Every eviction keeps the greatest five of the tied fingerprints.
        assert_eq!(survivors(&forward), names[24..]);
        assert_eq!(survivors(&reverse), names[24..]);
        assert_eq!(forward.cold_count, 24.0);
    }

    #[test]
    fn top_fingerprints_ranked_by_cost() {
        let mut s = StatisticsService::new(StatsConfig::default());
        s.ingest(rec("cheap", 0.001, 0.0));
        s.ingest(rec("dear", 1.0, 1.0));
        let top = s.top_fingerprints(2);
        assert_eq!(top[0].0, "dear");
    }

    #[test]
    fn fingerprint_normalization() {
        assert_eq!(
            fingerprint_sql("SELECT  a FROM t WHERE x = 42 AND s = 'foo'"),
            "select a from t where x = ? and s = ?"
        );
        // Identifiers containing digits survive.
        assert_eq!(fingerprint_sql("SELECT c1 FROM t2"), "select c1 from t2");
        // Same shape, different literals -> same fingerprint.
        assert_eq!(
            fingerprint_sql("SELECT a FROM t WHERE x < 10"),
            fingerprint_sql("SELECT a FROM t WHERE x < 99999")
        );
    }

    #[test]
    fn mean_latency_running_average() {
        let mut s = StatisticsService::new(StatsConfig::default());
        let mut r1 = rec("q", 0.01, 0.0);
        r1.latency = SimDuration::from_secs(1);
        let mut r2 = rec("q", 0.01, 1.0);
        r2.latency = SimDuration::from_secs(3);
        s.ingest(r1);
        s.ingest(r2);
        let fp = s.fingerprint("q").unwrap();
        assert!((fp.mean_latency.as_secs_f64() - 2.0).abs() < 1e-9);
    }
}

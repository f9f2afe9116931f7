//! CAB data generation.
//!
//! Star schema:
//!
//! * `customer(c_id, c_region, c_segment)` — SF × 5 000 rows;
//! * `part(p_id, p_category, p_price)` — SF × 10 000 rows;
//! * `orders(o_id, o_cust, o_date, o_total)` — SF × 50 000 rows;
//! * `lineitem(l_order, l_part, l_qty, l_price, l_discount)` — SF × 200 000
//!   rows, Zipf-skewed part references (hot products).
//!
//! Everything derives deterministically from a seed, so every experiment is
//! exactly reproducible.

use std::sync::Arc;

use ci_catalog::Catalog;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::{DetRng, Result, TableId, Zipf};

/// Regions used for `c_region`.
pub const REGIONS: [&str; 5] = ["AMER", "EMEA", "APAC", "LATAM", "AFRICA"];
/// Market segments used for `c_segment`.
pub const SEGMENTS: [&str; 4] = ["retail", "wholesale", "online", "enterprise"];
/// Part categories.
pub const CATEGORIES: [&str; 8] = [
    "tools", "toys", "food", "media", "garden", "auto", "office", "apparel",
];
/// Number of distinct order dates (days).
pub const DATE_DOMAIN: i64 = 2_400;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct CabConfig {
    /// Scale factor: row counts scale linearly.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Rows per micro-partition.
    pub rows_per_partition: usize,
    /// Zipf skew of part references in lineitem (0 = uniform).
    pub part_skew: f64,
}

impl Default for CabConfig {
    fn default() -> Self {
        CabConfig {
            scale: 1.0,
            seed: 42,
            rows_per_partition: 8_192,
            part_skew: 0.6,
        }
    }
}

/// The CAB data generator.
#[derive(Debug, Clone)]
pub struct CabGenerator {
    config: CabConfig,
}

impl CabGenerator {
    /// New generator.
    pub fn new(config: CabConfig) -> CabGenerator {
        CabGenerator { config }
    }

    /// Convenience: generator at a given scale with default knobs.
    pub fn at_scale(scale: f64) -> CabGenerator {
        CabGenerator::new(CabConfig {
            scale,
            ..CabConfig::default()
        })
    }

    /// Row counts at the configured scale: (customer, part, orders, lineitem).
    pub fn row_counts(&self) -> (u64, u64, u64, u64) {
        let s = self.config.scale;
        (
            (s * 5_000.0).max(1.0) as u64,
            (s * 10_000.0).max(1.0) as u64,
            (s * 50_000.0).max(1.0) as u64,
            (s * 200_000.0).max(1.0) as u64,
        )
    }

    /// Generates all four tables into a fresh catalog.
    pub fn build_catalog(&self) -> Result<Catalog> {
        let mut catalog = Catalog::new();
        let mut rng = DetRng::seed_from_u64(self.config.seed);
        let (n_cust, n_part, n_orders, n_items) = self.row_counts();

        // customer
        {
            let schema = Arc::new(Schema::new(vec![
                Field::new("c_id", DataType::Int64),
                Field::new("c_region", DataType::Utf8),
                Field::new("c_segment", DataType::Utf8),
            ])?);
            let mut r = rng.fork(1);
            let mut b = TableBuilder::new(
                TableId::new(0),
                "customer",
                schema.clone(),
                self.config.rows_per_partition,
            )?;
            b.append(RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n_cust as i64).collect()),
                    ColumnData::strings((0..n_cust).map(|_| *r.choose(&REGIONS))),
                    ColumnData::strings((0..n_cust).map(|_| *r.choose(&SEGMENTS))),
                ],
            )?)?;
            catalog.register(b.finish()?);
        }

        // part
        {
            let schema = Arc::new(Schema::new(vec![
                Field::new("p_id", DataType::Int64),
                Field::new("p_category", DataType::Utf8),
                Field::new("p_price", DataType::Float64),
            ])?);
            let mut r = rng.fork(2);
            let mut b = TableBuilder::new(
                TableId::new(1),
                "part",
                schema.clone(),
                self.config.rows_per_partition,
            )?;
            b.append(RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n_part as i64).collect()),
                    ColumnData::strings((0..n_part).map(|_| *r.choose(&CATEGORIES))),
                    ColumnData::Float64((0..n_part).map(|_| r.range_f64(1.0, 1000.0)).collect()),
                ],
            )?)?;
            catalog.register(b.finish()?);
        }

        // orders
        {
            let schema = Arc::new(Schema::new(vec![
                Field::new("o_id", DataType::Int64),
                Field::new("o_cust", DataType::Int64),
                Field::new("o_date", DataType::Int64),
                Field::new("o_total", DataType::Float64),
            ])?);
            let mut r = rng.fork(3);
            let mut b = TableBuilder::new(
                TableId::new(2),
                "orders",
                schema.clone(),
                self.config.rows_per_partition,
            )?;
            b.append(RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n_orders as i64).collect()),
                    ColumnData::Int64(
                        (0..n_orders)
                            .map(|_| r.range_i64(0, n_cust as i64))
                            .collect(),
                    ),
                    ColumnData::Int64((0..n_orders).map(|_| r.range_i64(0, DATE_DOMAIN)).collect()),
                    ColumnData::Float64((0..n_orders).map(|_| r.range_f64(10.0, 5000.0)).collect()),
                ],
            )?)?;
            catalog.register(b.finish()?);
        }

        // lineitem
        {
            let schema = Arc::new(Schema::new(vec![
                Field::new("l_order", DataType::Int64),
                Field::new("l_part", DataType::Int64),
                Field::new("l_qty", DataType::Int64),
                Field::new("l_price", DataType::Float64),
                Field::new("l_discount", DataType::Float64),
            ])?);
            let mut r = rng.fork(4);
            let part_ranks = Zipf::new(n_part as usize, self.config.part_skew);
            let mut b = TableBuilder::new(
                TableId::new(3),
                "lineitem",
                schema.clone(),
                self.config.rows_per_partition,
            )?;
            b.append(RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64(
                        (0..n_items)
                            .map(|_| r.range_i64(0, n_orders as i64))
                            .collect(),
                    ),
                    ColumnData::Int64(
                        (0..n_items)
                            .map(|_| part_ranks.sample(&mut r) as i64)
                            .collect(),
                    ),
                    ColumnData::Int64((0..n_items).map(|_| r.range_i64(1, 50)).collect()),
                    ColumnData::Float64((0..n_items).map(|_| r.range_f64(1.0, 500.0)).collect()),
                    ColumnData::Float64((0..n_items).map(|_| r.range_f64(0.0, 0.1)).collect()),
                ],
            )?)?;
            catalog.register(b.finish()?);
        }

        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_scale_linearly() {
        let g1 = CabGenerator::at_scale(1.0);
        let g2 = CabGenerator::at_scale(2.0);
        let (c1, p1, o1, l1) = g1.row_counts();
        let (c2, p2, o2, l2) = g2.row_counts();
        assert_eq!((c2, p2, o2, l2), (c1 * 2, p1 * 2, o1 * 2, l1 * 2));
    }

    #[test]
    fn catalog_has_all_tables_and_rows() {
        let g = CabGenerator::at_scale(0.1);
        let cat = g.build_catalog().unwrap();
        assert_eq!(cat.len(), 4);
        let (c, p, o, l) = g.row_counts();
        assert_eq!(cat.get("customer").unwrap().stats.row_count, c);
        assert_eq!(cat.get("part").unwrap().stats.row_count, p);
        assert_eq!(cat.get("orders").unwrap().stats.row_count, o);
        assert_eq!(cat.get("lineitem").unwrap().stats.row_count, l);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CabGenerator::at_scale(0.05).build_catalog().unwrap();
        let b = CabGenerator::at_scale(0.05).build_catalog().unwrap();
        let ta = a.get("orders").unwrap().table.to_batch().unwrap();
        let tb = b.get("orders").unwrap().table.to_batch().unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn foreign_keys_in_domain() {
        let g = CabGenerator::at_scale(0.05);
        let cat = g.build_catalog().unwrap();
        let (n_cust, n_part, n_orders, _) = g.row_counts();
        let orders = cat.get("orders").unwrap().table.to_batch().unwrap();
        for &c in orders.column(1).as_i64().unwrap() {
            assert!((0..n_cust as i64).contains(&c));
        }
        let items = cat.get("lineitem").unwrap().table.to_batch().unwrap();
        for &o in items.column(0).as_i64().unwrap() {
            assert!((0..n_orders as i64).contains(&o));
        }
        for &p in items.column(1).as_i64().unwrap() {
            assert!((0..n_part as i64).contains(&p));
        }
    }

    #[test]
    fn part_references_are_skewed() {
        let g = CabGenerator::at_scale(0.2);
        let cat = g.build_catalog().unwrap();
        let items = cat.get("lineitem").unwrap().table.to_batch().unwrap();
        let parts = items.column(1).as_i64().unwrap();
        let n_part = g.row_counts().1 as i64;
        let head = parts.iter().filter(|&&p| p < n_part / 10).count();
        let share = head as f64 / parts.len() as f64;
        assert!(
            share > 0.2,
            "top-decile part share {share} should exceed uniform 0.1"
        );
    }

    #[test]
    fn stats_support_histograms_on_dates() {
        let cat = CabGenerator::at_scale(0.1).build_catalog().unwrap();
        let stats = &cat.get("orders").unwrap().stats;
        let h = stats.columns[2]
            .histogram
            .as_ref()
            .expect("o_date histogram");
        let sel = h.range_selectivity(0.0, (DATE_DOMAIN / 2) as f64);
        assert!((sel - 0.5).abs() < 0.05, "half-domain selectivity {sel}");
    }
}

//! CAB query templates Q1–Q12.
//!
//! Twelve parameterized templates spanning the operator space: selective
//! scans, scan-heavy aggregation, 2–4-way star joins, top-k sorts, count-
//! distinct, and HAVING. Templates with the same id share a fingerprint
//! (only literals differ), which is what makes the Statistics Service's
//! recurrence detection and the What-If Service's matching work.

use ci_types::DetRng;

use crate::gen::{CabGenerator, DATE_DOMAIN, SEGMENTS};

/// One parameterized query template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTemplate {
    /// Template id (1-based, Q1..Q12).
    pub id: usize,
    /// Short description.
    pub name: &'static str,
}

/// The CAB template catalog.
pub const TEMPLATES: [QueryTemplate; 12] = [
    QueryTemplate {
        id: 1,
        name: "pricing-summary",
    },
    QueryTemplate {
        id: 2,
        name: "date-window-scan",
    },
    QueryTemplate {
        id: 3,
        name: "revenue-by-region",
    },
    QueryTemplate {
        id: 4,
        name: "segment-analysis",
    },
    QueryTemplate {
        id: 5,
        name: "top-orders",
    },
    QueryTemplate {
        id: 6,
        name: "forecast-revenue-change",
    },
    QueryTemplate {
        id: 7,
        name: "category-volume",
    },
    QueryTemplate {
        id: 8,
        name: "distinct-customers",
    },
    QueryTemplate {
        id: 9,
        name: "star-rollup",
    },
    QueryTemplate {
        id: 10,
        name: "big-sort",
    },
    QueryTemplate {
        id: 11,
        name: "order-lookup",
    },
    QueryTemplate {
        id: 12,
        name: "having-filter",
    },
];

/// Instantiates template `id` with parameters drawn from `rng`, sized for
/// the generator's domains.
pub fn instantiate(id: usize, rng: &mut DetRng, gen: &CabGenerator) -> String {
    let (n_cust, _n_part, n_orders, _) = gen.row_counts();
    match id {
        1 => format!(
            "SELECT l_qty, COUNT(*) AS n, SUM(l_price) AS revenue, AVG(l_discount) AS avg_disc \
             FROM lineitem WHERE l_discount <= {:.3} GROUP BY l_qty ORDER BY l_qty",
            rng.range_f64(0.04, 0.09)
        ),
        2 => {
            let start = rng.range_i64(0, DATE_DOMAIN - 40);
            format!(
                "SELECT o_id, o_total FROM orders WHERE o_date BETWEEN {start} AND {}",
                start + 30
            )
        }
        3 => format!(
            "SELECT c_region, SUM(o_total) AS revenue FROM orders o \
             JOIN customer c ON o.o_cust = c.c_id \
             WHERE o_date >= {} GROUP BY c_region ORDER BY revenue DESC",
            rng.range_i64(0, DATE_DOMAIN / 2)
        ),
        4 => format!(
            "SELECT c_segment, COUNT(*) AS n, SUM(l_price) AS spend FROM lineitem l \
             JOIN orders o ON l.l_order = o.o_id \
             JOIN customer c ON o.o_cust = c.c_id \
             WHERE l_qty > {} GROUP BY c_segment",
            rng.range_i64(5, 30)
        ),
        5 => format!(
            "SELECT o_id, o_total FROM orders WHERE o_cust < {} \
             ORDER BY o_total DESC LIMIT 20",
            rng.range_i64(n_cust as i64 / 4, n_cust as i64)
        ),
        6 => format!(
            "SELECT SUM(l_price * l_discount) AS potential FROM lineitem \
             WHERE l_discount BETWEEN {:.3} AND {:.3} AND l_qty < {}",
            0.02,
            rng.range_f64(0.05, 0.09),
            rng.range_i64(20, 45)
        ),
        7 => format!(
            "SELECT p_category, SUM(l_qty) AS volume FROM lineitem l \
             JOIN part p ON l.l_part = p.p_id \
             WHERE p_price > {:.1} GROUP BY p_category ORDER BY volume DESC",
            rng.range_f64(100.0, 600.0)
        ),
        8 => format!(
            "SELECT c_region, COUNT(DISTINCT o_cust) AS custs FROM orders o \
             JOIN customer c ON o.o_cust = c.c_id \
             WHERE o_total > {:.1} GROUP BY c_region",
            rng.range_f64(500.0, 3000.0)
        ),
        9 => format!(
            "SELECT c_region, p_category, SUM(l_price) AS revenue FROM lineitem l \
             JOIN orders o ON l.l_order = o.o_id \
             JOIN customer c ON o.o_cust = c.c_id \
             JOIN part p ON l.l_part = p.p_id \
             WHERE c_segment = '{}' GROUP BY c_region, p_category",
            rng.choose(&SEGMENTS)
        ),
        10 => "SELECT o_id, o_cust, o_total FROM orders ORDER BY o_total DESC, o_id LIMIT 100"
            .to_owned(),
        11 => format!(
            "SELECT o_id, o_cust, o_total FROM orders WHERE o_id = {}",
            rng.range_i64(0, n_orders as i64)
        ),
        12 => format!(
            "SELECT o_cust, SUM(o_total) AS spend FROM orders GROUP BY o_cust \
             HAVING SUM(o_total) > {:.1} ORDER BY spend DESC LIMIT 50",
            rng.range_f64(5_000.0, 20_000.0)
        ),
        other => panic!("unknown CAB template Q{other}"),
    }
}

/// A canonical (fixed-parameter) instance of each template, for tests and
/// recurring-workload experiments: the template's parameters drawn from a
/// generator seeded by the template id alone.
pub fn canonical(id: usize, gen: &CabGenerator) -> String {
    let mut rng = DetRng::seed_from_u64(0xCAB + id as u64);
    instantiate(id, &mut rng, gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_templates() {
        assert_eq!(TEMPLATES.len(), 12);
        for (i, t) in TEMPLATES.iter().enumerate() {
            assert_eq!(t.id, i + 1);
        }
    }

    #[test]
    fn instantiation_is_deterministic() {
        let gen = CabGenerator::at_scale(1.0);
        let mut r1 = DetRng::seed_from_u64(5);
        let mut r2 = DetRng::seed_from_u64(5);
        for t in &TEMPLATES {
            assert_eq!(
                instantiate(t.id, &mut r1, &gen),
                instantiate(t.id, &mut r2, &gen)
            );
        }
    }

    #[test]
    fn same_template_same_fingerprint_shape() {
        // Different parameters, same structure: fingerprints must collide.
        let gen = CabGenerator::at_scale(1.0);
        let mut r = DetRng::seed_from_u64(1);
        for t in &TEMPLATES {
            let a = instantiate(t.id, &mut r, &gen);
            let b = instantiate(t.id, &mut r, &gen);
            // Cheap structural check: identical after removing numeric
            // literals and quoted string contents.
            let strip = |s: &str| {
                let mut out = String::new();
                let mut in_str = false;
                for c in s.chars() {
                    if c == '\'' {
                        in_str = !in_str;
                        out.push('?');
                    } else if !in_str && !c.is_ascii_digit() && c != '.' {
                        out.push(c);
                    }
                }
                out
            };
            assert_eq!(strip(&a), strip(&b), "Q{} not parameter-stable", t.id);
        }
    }

    #[test]
    #[should_panic(expected = "unknown CAB template")]
    fn unknown_template_panics() {
        let gen = CabGenerator::at_scale(1.0);
        let mut r = DetRng::seed_from_u64(1);
        instantiate(99, &mut r, &gen);
    }
}

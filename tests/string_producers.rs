//! Strings an operator makes rather than scans: a string `MIN` / `MAX` per
//! group (the aggregate's output column interns its values) and a string
//! literal in the select list (a one-entry dictionary broadcast to every
//! row). Both must return the rows a naive reference computes from the
//! generator's own strings, and the same rows and bill under `Simulate`
//! and a 2-worker pool over every page source.

use std::collections::BTreeMap;

use cost_intel::exec::{ExecutionMode, PageSourceMode};
use cost_intel::storage::value::Value;
use cost_intel::storage::RecordBatch;
use cost_intel::types::money::Dollars;
use cost_intel::workload::{CabConfig, CabGenerator};
use cost_intel::{Constraint, Warehouse, WarehouseConfig};

fn generator() -> CabGenerator {
    CabGenerator::new(CabConfig {
        scale: 0.05,
        rows_per_partition: 64,
        ..CabConfig::default()
    })
}

const MIN_MAX: &str = "SELECT c_region, MIN(c_segment) AS lo, MAX(c_segment) AS hi \
                       FROM customer GROUP BY c_region";
const LITERAL: &str = "SELECT c_id, 'tagged' AS tag, c_region FROM customer WHERE c_id < 100";

/// `(c_id, c_region, c_segment)` of every customer, as the generator wrote
/// them.
fn customers() -> Vec<(i64, String, String)> {
    let catalog = generator().build_catalog().expect("catalog");
    let batch = catalog
        .get("customer")
        .expect("customer")
        .table
        .to_batch()
        .expect("rows");
    let text = |v: Value| match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    };
    (0..batch.rows())
        .map(|r| {
            let mut row = batch.row(r).into_iter();
            let id = match row.next() {
                Some(Value::Int(id)) => id,
                other => panic!("not an id: {other:?}"),
            };
            (id, text(row.next().unwrap()), text(row.next().unwrap()))
        })
        .collect()
}

/// The rows of `batch`, sorted: neither query orders its output.
fn sorted_rows(batch: &RecordBatch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..batch.rows()).map(|r| batch.row(r)).collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Both queries in one cell: their sorted rows and bills.
fn run(mode: ExecutionMode, page_source: PageSourceMode) -> Vec<(Vec<Vec<Value>>, Dollars)> {
    let mut config = WarehouseConfig::default();
    config.execution.mode = mode;
    config.execution.page_source = page_source;
    let catalog = generator().build_catalog().expect("catalog");
    let mut w = Warehouse::new(catalog, config);
    [MIN_MAX, LITERAL]
        .iter()
        .map(|sql| {
            let report = w.submit(sql, Constraint::MinCost).expect(sql);
            (sorted_rows(&report.result), report.cost)
        })
        .collect()
}

#[test]
fn string_min_max_and_literals_match_the_naive_reference_in_every_mode() {
    let customers = customers();
    // MIN / MAX per region over the generator's strings.
    let mut bounds: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    for (_, region, segment) in &customers {
        let b = bounds.entry(region).or_insert((segment, segment));
        b.0 = b.0.min(segment.as_str());
        b.1 = b.1.max(segment.as_str());
    }
    let mut min_max: Vec<Vec<Value>> = (bounds.into_iter())
        .map(|(r, (lo, hi))| vec![r.into(), lo.into(), hi.into()])
        .collect();
    min_max.sort_by_key(|r| format!("{r:?}"));
    let mut literal: Vec<Vec<Value>> = (customers.iter())
        .filter(|(id, _, _)| *id < 100)
        .map(|(id, region, _)| vec![Value::Int(*id), "tagged".into(), region.as_str().into()])
        .collect();
    literal.sort_by_key(|r| format!("{r:?}"));
    assert!(min_max.len() > 1 && literal.len() == 100);

    let reference = run(ExecutionMode::Simulate, PageSourceMode::Mem);
    assert_eq!(reference[0].0, min_max, "MIN / MAX per group");
    assert_eq!(reference[1].0, literal, "string literal");
    for mode in [
        ExecutionMode::Simulate,
        ExecutionMode::Parallel { workers: 2 },
    ] {
        for page_source in [
            PageSourceMode::Mem,
            PageSourceMode::Disk,
            PageSourceMode::Tiered,
        ] {
            let cell = run(mode, page_source);
            for (q, ((rows, bill), (want, want_bill))) in cell.iter().zip(&reference).enumerate() {
                let what = format!("{mode:?} / {page_source:?}, query {q}");
                assert_eq!(rows, want, "{what}: rows");
                assert_eq!(
                    bill.amount().to_bits(),
                    want_bill.amount().to_bits(),
                    "{what}: Dollars"
                );
            }
        }
    }
}

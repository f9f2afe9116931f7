//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is rendered from these
//! tables (`bench_e2e --manifest`) and a unit test pins the committed file to
//! them, so names in code and names in the contract cannot drift.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// (name, why it exists).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "cab_sim",
        "All 12 CAB templates at SF 1 through Warehouse::submit in the default Simulate mode: compute operators do the work, fetch is an Arc clone.",
    ),
    (
        "cab_par2",
        "The same queries through the 2-worker pool, trace fold and partial-agg merge; with cab_sim the only honest parallel-speedup pair.",
    ),
    (
        "scan_disk",
        "Scan/agg templates with every morsel read from a CIPF file and fully decoded: where storage decode work shows and cab_* predicts no change.",
    ),
    (
        "scan_tiered",
        "The same scans behind the tier cache (dimensions fit the memory tier, lineitem does not), so a decode win that costs the cached path shows.",
    ),
    (
        "point_lookup",
        "Alternating Q11 key lookups and Q2 date windows with fresh parameters: the one workload where per-query fixed cost outside the executor is visible.",
    ),
    (
        "trace_tune",
        "The paper's loop: SLA-constrained trace replay under misestimates, what-if proposals, MV and recluster apply, replay again; carries the quality metrics.",
    ),
    (
        "write_path",
        "Generate, register, persist to CIPF, recluster, build an MV, query both and read every partition back: encode and registration cost shows only here.",
    ),
];

/// One end-to-end metric: (name, unit, better, bound).
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms_p50", "ms", "lower", 0.25),
    ("geomean_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("slowdown_p95", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("billed_usd_per_query", "usd", "lower", 0.2),
    ("sim_latency_s_mean", "s", "lower", 0.05),
    ("sla_hit_rate", "fraction", "higher", 0.05),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.02),
];

/// One per-layer metric: (name, unit, better). Layers are the crates.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    ("sql.parse_us", "us", "lower"),
    ("plan.bind_us", "us", "lower"),
    ("plan.build_us", "us", "lower"),
    ("plan.pipelines", "count", "lower"),
    ("optimizer.plan_us", "us", "lower"),
    ("optimizer.estimates", "count", "lower"),
    ("optimizer.candidates", "count", "lower"),
    ("optimizer.variants", "count", "lower"),
    ("optimizer.feasible_rate", "fraction", "higher"),
    ("cost.estimate_us", "us", "lower"),
    ("est_latency_relerr_p90", "fraction", "lower"),
    ("est_cost_relerr_p90", "fraction", "lower"),
    ("exec.execute_ms", "ms", "lower"),
    ("exec.share", "fraction", "lower"),
    ("exec.source_rows", "count", "lower"),
    ("exec.sink_rows_physical", "count", "lower"),
    ("exec.morsels", "count", "lower"),
    ("exec.exchange_wire_bytes", "count", "lower"),
    ("exec.source_rows_per_s", "1/s", "higher"),
    ("exec.worker_busy_ms", "ms", "lower"),
    ("exec.pool_busy_share", "fraction", "higher"),
    ("exec.op_ns_per_row.filter", "ns", "lower"),
    ("exec.op_ns_per_row.probe", "ns", "lower"),
    ("exec.op_ns_per_row.build", "ns", "lower"),
    ("exec.op_ns_per_row.agg", "ns", "lower"),
    ("exec.op_ns_per_row.sort", "ns", "lower"),
    ("exec.op_ns_per_row.exchange", "ns", "lower"),
    ("exec.agg_partials", "count", "lower"),
    ("exec.pool_reuses", "count", "higher"),
    ("exec.par_speedup", "ratio", "higher"),
    ("storage.read_partition_us", "us", "lower"),
    ("storage.decode_mb_s", "MB/s", "higher"),
    ("storage.persist_mb_s", "MB/s", "higher"),
    ("storage.page_encode_mb_s", "MB/s", "higher"),
    ("storage.page_decode_mb_s", "MB/s", "higher"),
    ("storage.recluster_ms", "ms", "lower"),
    ("storage.file_bytes", "count", "lower"),
    ("storage.logical_bytes", "count", "lower"),
    ("storage.fetch_decode_share", "fraction", "lower"),
    ("catalog.register_ms", "ms", "lower"),
    ("cloud.tier_mem_hit_rate", "fraction", "higher"),
    ("cloud.tier_ssd_hit_rate", "fraction", "higher"),
    ("cloud.tier_miss_rate", "fraction", "lower"),
    ("cloud.tier_promotions", "count", "lower"),
    ("cloud.tier_evictions", "count", "lower"),
    ("cloud.tier_saved_ms", "ms", "higher"),
    ("monitor.resize_events", "count", "lower"),
    ("monitor.overhead_share", "fraction", "lower"),
    ("autotune.proposals_ms", "ms", "lower"),
    ("autotune.apply_ms", "ms", "lower"),
    ("autotune.proposals", "count", "higher"),
    ("autotune.accepted", "count", "higher"),
    ("autotune.spend_ratio", "ratio", "lower"),
    ("autotune.mv_hit_rate", "fraction", "higher"),
    ("core.submit_ms.q01", "ms", "lower"),
    ("core.submit_ms.q02", "ms", "lower"),
    ("core.submit_ms.q03", "ms", "lower"),
    ("core.submit_ms.q04", "ms", "lower"),
    ("core.submit_ms.q05", "ms", "lower"),
    ("core.submit_ms.q06", "ms", "lower"),
    ("core.submit_ms.q07", "ms", "lower"),
    ("core.submit_ms.q08", "ms", "lower"),
    ("core.submit_ms.q09", "ms", "lower"),
    ("core.submit_ms.q10", "ms", "lower"),
    ("core.submit_ms.q11", "ms", "lower"),
    ("core.submit_ms.q12", "ms", "lower"),
    ("core.overhead_us", "us", "lower"),
    ("core.layer_sum_ratio", "ratio", "higher"),
    ("workload.gen_s", "s", "lower"),
    ("workload.trace_gen_ms", "ms", "lower"),
    ("obs.bench_trace_overhead", "ratio", "lower"),
    ("obs.engine_trace_overhead", "ratio", "lower"),
    ("calib.speed_factor", "ratio", "lower"),
    ("raw.iter_ms_p50", "ms", "lower"),
    ("raw.slowdown_p99", "ratio", "lower"),
    ("raw.iterations", "count", "higher"),
];

/// Unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// Renders `BENCHMARK.json` exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"bench_e2e/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench_e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                format!(
                    "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}"
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(n, u, b)| {
                format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: bench_e2e --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(ok(n, "_.-", 64), "bad name {n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                ok(unit_of(n).unwrap_or("x"), "_/%.-", 16),
                "bad unit of {n}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3 && m.3 <= 0.25));
    }
}

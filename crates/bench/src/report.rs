//! `BENCH_micro.json` schema: a minimal reader/validator for the report
//! `bench_micro` writes, so CI can fail on perf regressions without a JSON
//! dependency (the workspace is registry-free by construction).
//!
//! The parser accepts exactly the shape `bench_micro` emits — a flat object
//! with `schema_version` / `rows` / `cardinality` integers and a `benches`
//! array of flat objects — and errors loudly on anything missing, so schema
//! drift between the writer and this reader breaks the build instead of
//! passing silently.

use ci_types::{CiError, Result};

/// One recorded kernel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Kernel name (e.g. `filter_chain`).
    pub name: String,
    /// Baseline (pre-refactor behaviour) nanoseconds.
    pub baseline_naive_ns: u128,
    /// Optimized-path nanoseconds.
    pub dict_ns: u128,
    /// Recorded speedup (`baseline_naive_ns / dict_ns`).
    pub speedup: f64,
    /// Checksum both paths agreed on.
    pub check: u64,
}

/// The parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report format version; this reader understands version 11.
    pub schema_version: u64,
    /// Fixture rows per batch.
    pub rows: u64,
    /// Distinct string keys in the fixtures.
    pub cardinality: u64,
    /// Every partition of a `CIPF`-persisted table read through the tier
    /// stack fully cold: each read opens the on-disk page file, verifies
    /// its checksum, and decodes the pages.
    pub cache_cold_ns: u64,
    /// The same reads with every partition promoted to the memory tier —
    /// pure cache hits over already-decoded batches.
    pub cache_warm_ns: u64,
    /// `cache_cold_ns / cache_warm_ns`. Gated `>= 2.0` on every host: both
    /// arms are single-threaded, and the recorded ratio (hundreds) leaves
    /// the floor two orders of magnitude of headroom for timing noise.
    pub cache_hit_speedup: f64,
    /// Partition (page file) count of the cache-scan fixture.
    pub cache_parts: u64,
    /// Wire-format bytes of the dict-column exchange stream (bit-packed ids
    /// plus a one-time dictionary).
    pub exchange_wire_bytes: u64,
    /// The same stream serialized as plain pages (decoded values per
    /// chunk) — the pre-wire-format payload.
    pub exchange_plain_bytes: u64,
    /// Decoded logical bytes of the stream.
    pub exchange_decoded_bytes: u64,
    /// Sorted-int fixture page bytes under the size-picked FoR/Delta
    /// codecs.
    pub int_encoded_bytes: u64,
    /// The same fixture as Plain pages (8 B per int) — the pre-int-codec
    /// storage footprint.
    pub int_plain_bytes: u64,
    /// The kernel measurements.
    pub benches: Vec<BenchEntry>,
}

/// The kernels every report must record (schema completeness check).
pub const REQUIRED_BENCHES: &[&str] = &[
    "filter_string_eq",
    "hash_join_string_key",
    "group_by_string_key",
    "filter_chain",
    "page_encode",
    "page_encode_int",
    "exchange_wire",
    "int_join_all_miss",
];

/// The speedup a kernel must record. Every kernel times a slower path of
/// ours against the optimized one and must stay `>= 1.0`, except
/// `int_join_all_miss`, whose baseline is the `std` SwissTable — another
/// hash table, with parity the target. Its floor says the engine's probe
/// stays within 2x of it: the one-`Key`-at-a-time index read about 0.3
/// there, the word index reads about 1.1.
fn speedup_floor(name: &str) -> f64 {
    match name {
        "int_join_all_miss" => 0.5,
        _ => 1.0,
    }
}

impl BenchReport {
    /// Parses a `BENCH_micro.json` document.
    pub fn parse(json: &str) -> Result<BenchReport> {
        let schema_version = int_field(json, "schema_version")?;
        if schema_version != 11 {
            return Err(CiError::Config(format!(
                "unsupported BENCH_micro schema_version {schema_version}"
            )));
        }
        let rows = int_field(json, "rows")?;
        let cardinality = int_field(json, "cardinality")?;
        let cache_cold_ns = int_field(json, "cache_cold_ns")?;
        let cache_warm_ns = int_field(json, "cache_warm_ns")?;
        let cache_hit_speedup = float_field(json, "cache_hit_speedup")?;
        let cache_parts = int_field(json, "cache_parts")?;
        let exchange_wire_bytes = int_field(json, "exchange_wire_bytes")?;
        let exchange_plain_bytes = int_field(json, "exchange_plain_bytes")?;
        let exchange_decoded_bytes = int_field(json, "exchange_decoded_bytes")?;
        let int_encoded_bytes = int_field(json, "int_encoded_bytes")?;
        let int_plain_bytes = int_field(json, "int_plain_bytes")?;
        let array = section(json, "benches")?;
        let benches = objects(array)
            .map(|obj| {
                Ok(BenchEntry {
                    name: str_field(obj, "name")?,
                    baseline_naive_ns: int_field(obj, "baseline_naive_ns")? as u128,
                    dict_ns: int_field(obj, "dict_ns")? as u128,
                    speedup: float_field(obj, "speedup")?,
                    check: int_field(obj, "check")?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BenchReport {
            schema_version,
            rows,
            cardinality,
            cache_cold_ns,
            cache_warm_ns,
            cache_hit_speedup,
            cache_parts,
            exchange_wire_bytes,
            exchange_plain_bytes,
            exchange_decoded_bytes,
            int_encoded_bytes,
            int_plain_bytes,
            benches,
        })
    }

    /// Schema + regression validation: every required kernel present, every
    /// recorded speedup and duration sane. Returns the list of human-readable
    /// violations (empty = valid).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for required in REQUIRED_BENCHES {
            if !self.benches.iter().any(|b| b.name == *required) {
                out.push(format!("required bench '{required}' missing"));
            }
        }
        for b in &self.benches {
            if b.dict_ns == 0 || b.baseline_naive_ns == 0 {
                out.push(format!("{}: zero duration recorded", b.name));
            }
            let recomputed = b.baseline_naive_ns as f64 / (b.dict_ns.max(1)) as f64;
            if (recomputed - b.speedup).abs() > 0.011 * recomputed.max(1.0) {
                out.push(format!(
                    "{}: recorded speedup {:.2} inconsistent with durations ({recomputed:.2})",
                    b.name, b.speedup
                ));
            }
            let floor = speedup_floor(&b.name);
            if b.speedup < floor {
                out.push(format!(
                    "{}: speedup {:.2} < {floor:.1} — optimized path regressed below its baseline",
                    b.name, b.speedup
                ));
            }
        }
        if self.cache_cold_ns == 0 || self.cache_warm_ns == 0 || self.cache_hit_speedup <= 0.0 {
            out.push("cache-hit-scan measurement missing or zero".into());
        } else {
            let recomputed = self.cache_cold_ns as f64 / self.cache_warm_ns as f64;
            if (recomputed - self.cache_hit_speedup).abs() > 0.011 * recomputed.max(1.0) {
                out.push(format!(
                    "recorded cache_hit_speedup {:.2} inconsistent with durations ({recomputed:.2})",
                    self.cache_hit_speedup
                ));
            }
            if self.cache_parts < 2 {
                out.push(format!(
                    "cache-scan fixture spans {} partition(s) — too few to measure the tier stack",
                    self.cache_parts
                ));
            }
            if self.cache_hit_speedup < 2.0 {
                out.push(format!(
                    "warm cache-hit scan only {:.2}x over cold CIPF reads (must stay >= 2x)",
                    self.cache_hit_speedup
                ));
            }
        }
        if self.int_encoded_bytes == 0 {
            out.push("int_encoded_bytes is zero — no sorted-int pages recorded".into());
        } else if self.int_plain_bytes < 4 * self.int_encoded_bytes {
            out.push(format!(
                "sorted-int fixture no longer compresses >= 4x under FoR/Delta \
                 ({} B encoded vs {} B plain)",
                self.int_encoded_bytes, self.int_plain_bytes
            ));
        }
        if self.exchange_wire_bytes == 0 {
            out.push("exchange_wire_bytes is zero — no payload recorded".into());
        } else {
            if self.exchange_wire_bytes >= self.exchange_plain_bytes {
                out.push(format!(
                    "dict-exchange payload ({} B) not smaller than the plain payload ({} B)",
                    self.exchange_wire_bytes, self.exchange_plain_bytes
                ));
            }
            if self.exchange_wire_bytes * 2 > self.exchange_decoded_bytes {
                out.push(format!(
                    "dict-exchange wire bytes ({} B) not >= 2x smaller than decoded ({} B)",
                    self.exchange_wire_bytes, self.exchange_decoded_bytes
                ));
            }
        }
        out
    }
}

/// The text between `"key": [` and its matching `]`.
fn section<'a>(json: &'a str, key: &str) -> Result<&'a str> {
    let tag = format!("\"{key}\"");
    let at = json
        .find(&tag)
        .ok_or_else(|| CiError::Config(format!("missing field '{key}'")))?;
    let rest = &json[at + tag.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| CiError::Config(format!("field '{key}' is not an array")))?;
    let rest = &rest[open + 1..];
    let close = rest
        .rfind(']')
        .ok_or_else(|| CiError::Config(format!("unterminated array '{key}'")))?;
    Ok(&rest[..close])
}

/// Iterates the `{...}` objects of a flat (non-nested) array body.
fn objects(array: &str) -> impl Iterator<Item = &str> {
    array.split('{').skip(1).filter_map(|chunk| {
        let end = chunk.find('}')?;
        Some(&chunk[..end])
    })
}

/// The raw text of `"key": <value>` up to the next `,` / `}` / newline.
fn raw_field<'a>(obj: &'a str, key: &str) -> Result<&'a str> {
    let tag = format!("\"{key}\"");
    let at = obj
        .find(&tag)
        .ok_or_else(|| CiError::Config(format!("missing field '{key}'")))?;
    let rest = &obj[at + tag.len()..];
    let colon = rest
        .find(':')
        .ok_or_else(|| CiError::Config(format!("malformed field '{key}'")))?;
    let rest = &rest[colon + 1..];
    let end = rest.find([',', '}', '\n', ']']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

fn int_field(obj: &str, key: &str) -> Result<u64> {
    raw_field(obj, key)?
        .parse()
        .map_err(|e| CiError::Config(format!("field '{key}' is not an integer: {e}")))
}

fn float_field(obj: &str, key: &str) -> Result<f64> {
    raw_field(obj, key)?
        .parse()
        .map_err(|e| CiError::Config(format!("field '{key}' is not a number: {e}")))
}

fn str_field(obj: &str, key: &str) -> Result<String> {
    let raw = raw_field(obj, key)?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| CiError::Config(format!("field '{key}' is not a string")))?;
    Ok(inner.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(speedup: &str) -> String {
        format!(
            r#"{{
  "schema_version": 11,
  "rows": 1000,
  "cardinality": 10,
  "cache_cold_ns": 9000,
  "cache_warm_ns": 1000,
  "cache_hit_speedup": 9.00,
  "cache_parts": 25,
  "exchange_wire_bytes": 400,
  "exchange_plain_bytes": 1100,
  "exchange_decoded_bytes": 1000,
  "int_encoded_bytes": 150,
  "int_plain_bytes": 1600,
  "benches": [
    {{"name": "filter_string_eq", "baseline_naive_ns": 200, "dict_ns": 100, "speedup": 2.00, "check": 5}},
    {{"name": "hash_join_string_key", "baseline_naive_ns": 300, "dict_ns": 100, "speedup": 3.00, "check": 6}},
    {{"name": "group_by_string_key", "baseline_naive_ns": 150, "dict_ns": 100, "speedup": 1.50, "check": 7}},
    {{"name": "page_encode", "baseline_naive_ns": 180, "dict_ns": 100, "speedup": 1.80, "check": 9}},
    {{"name": "page_encode_int", "baseline_naive_ns": 400, "dict_ns": 100, "speedup": 4.00, "check": 11}},
    {{"name": "exchange_wire", "baseline_naive_ns": 220, "dict_ns": 100, "speedup": 2.20, "check": 10}},
    {{"name": "int_join_all_miss", "baseline_naive_ns": 90, "dict_ns": 100, "speedup": 0.90, "check": 12}},
    {{"name": "filter_chain", "baseline_naive_ns": {base}, "dict_ns": 100, "speedup": {speedup}, "check": 8}}
  ]
}}
"#,
            base = (speedup.parse::<f64>().unwrap() * 100.0).round() as u64,
        )
    }

    #[test]
    fn parses_the_writer_format() {
        let r = BenchReport::parse(&sample("2.50")).unwrap();
        assert_eq!(r.schema_version, 11);
        assert_eq!(r.rows, 1000);
        assert_eq!(r.benches.len(), 8);
        assert_eq!(r.benches[7].name, "filter_chain");
        assert_eq!(r.benches[7].baseline_naive_ns, 250);
        assert!((r.benches[7].speedup - 2.5).abs() < 1e-9);
        assert_eq!(r.benches[0].check, 5);
        assert_eq!(r.cache_cold_ns, 9000);
        assert_eq!(r.cache_warm_ns, 1000);
        assert!((r.cache_hit_speedup - 9.0).abs() < 1e-9);
        assert_eq!(r.cache_parts, 25);
        assert_eq!(r.exchange_wire_bytes, 400);
        assert_eq!(r.exchange_plain_bytes, 1100);
        assert_eq!(r.exchange_decoded_bytes, 1000);
        assert_eq!(r.int_encoded_bytes, 150);
        assert_eq!(r.int_plain_bytes, 1600);
        assert!(r.violations().is_empty());
    }

    #[test]
    fn exchange_payload_gates() {
        // Wire >= plain: the dict exchange stopped beating plain pages.
        let bloated = sample("2.00").replace(
            "\"exchange_wire_bytes\": 400",
            "\"exchange_wire_bytes\": 1200",
        );
        let v = BenchReport::parse(&bloated).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains("not smaller than the plain")),
            "{v:?}"
        );
        // Wire over half of decoded: compression ratio gate.
        let weak = sample("2.00").replace(
            "\"exchange_wire_bytes\": 400",
            "\"exchange_wire_bytes\": 600",
        );
        let v = BenchReport::parse(&weak).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains("2x smaller than decoded")),
            "{v:?}"
        );
        // Zero payload means the writer recorded nothing.
        let zero =
            sample("2.00").replace("\"exchange_wire_bytes\": 400", "\"exchange_wire_bytes\": 0");
        let v = BenchReport::parse(&zero).unwrap().violations();
        assert!(v.iter().any(|m| m.contains("zero")), "{v:?}");
    }

    #[test]
    fn int_codec_compression_gates() {
        // Under 4x: the FoR/Delta pages stopped paying off.
        let weak =
            sample("2.00").replace("\"int_encoded_bytes\": 150", "\"int_encoded_bytes\": 500");
        let v = BenchReport::parse(&weak).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains(">= 4x under FoR/Delta")),
            "{v:?}"
        );
        // Zero means the writer recorded nothing.
        let zero = sample("2.00").replace("\"int_encoded_bytes\": 150", "\"int_encoded_bytes\": 0");
        let v = BenchReport::parse(&zero).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains("int_encoded_bytes is zero")),
            "{v:?}"
        );
        // Missing the int kernel is a schema violation.
        let missing = sample("2.00").replace("page_encode_int", "page_encode_xyz");
        let v = BenchReport::parse(&missing).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains("'page_encode_int' missing")),
            "{v:?}"
        );
    }

    #[test]
    fn cache_hit_speedup_gates() {
        // Warm under 2x over cold: hitting the cache stopped paying for the
        // hierarchy.
        let slow = sample("2.00")
            .replace("\"cache_warm_ns\": 1000", "\"cache_warm_ns\": 6000")
            .replace("\"cache_hit_speedup\": 9.00", "\"cache_hit_speedup\": 1.50");
        let v = BenchReport::parse(&slow).unwrap().violations();
        assert!(
            v.iter()
                .any(|m| m.contains("warm cache-hit scan only 1.50x")),
            "{v:?}"
        );
        // A recorded ratio inconsistent with the durations is flagged.
        let fudged =
            sample("2.00").replace("\"cache_hit_speedup\": 9.00", "\"cache_hit_speedup\": 3.00");
        let v = BenchReport::parse(&fudged).unwrap().violations();
        assert!(
            v.iter()
                .any(|m| m.contains("cache_hit_speedup 3.00 inconsistent")),
            "{v:?}"
        );
        // A single-partition fixture cannot exercise the tier stack.
        let thin = sample("2.00").replace("\"cache_parts\": 25", "\"cache_parts\": 1");
        let v = BenchReport::parse(&thin).unwrap().violations();
        assert!(v.iter().any(|m| m.contains("too few")), "{v:?}");
        // Zero durations mean the writer recorded nothing.
        let zero = sample("2.00").replace("\"cache_cold_ns\": 9000", "\"cache_cold_ns\": 0");
        let v = BenchReport::parse(&zero).unwrap().violations();
        assert!(
            v.iter()
                .any(|m| m.contains("cache-hit-scan measurement missing")),
            "{v:?}"
        );
        // A document must carry the cache fields at all.
        let missing = sample("2.00").replace("\"cache_cold_ns\"", "\"other\"");
        assert!(BenchReport::parse(&missing).is_err());
    }

    #[test]
    fn regression_below_one_is_flagged() {
        let r = BenchReport::parse(&sample("0.80")).unwrap();
        let v = r.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("filter_chain"), "{v:?}");
        assert!(v[0].contains("< 1.0"), "{v:?}");
    }

    #[test]
    fn all_miss_kernel_is_gated_against_the_std_map_at_half() {
        // 0.90 of a SwissTable passes (the sample); under half of it fails.
        let slow = sample("2.00")
            .replace("\"baseline_naive_ns\": 90", "\"baseline_naive_ns\": 40")
            .replace("\"speedup\": 0.90", "\"speedup\": 0.40");
        let v = BenchReport::parse(&slow).unwrap().violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("int_join_all_miss: speedup 0.40 < 0.5"),
            "{v:?}"
        );
    }

    #[test]
    fn missing_required_bench_is_flagged() {
        let text = sample("2.00").replace("filter_chain", "something_else");
        let v = BenchReport::parse(&text).unwrap().violations();
        assert!(
            v.iter().any(|m| m.contains("'filter_chain' missing")),
            "{v:?}"
        );
    }

    #[test]
    fn inconsistent_speedup_is_flagged() {
        let text = sample("2.00").replace("\"speedup\": 3.00", "\"speedup\": 9.99");
        let v = BenchReport::parse(&text).unwrap().violations();
        assert!(v.iter().any(|m| m.contains("inconsistent")), "{v:?}");
    }

    #[test]
    fn malformed_documents_error() {
        assert!(BenchReport::parse("{}").is_err());
        let wrong_version =
            sample("2.00").replace("\"schema_version\": 11", "\"schema_version\": 10");
        assert!(BenchReport::parse(&wrong_version).is_err());
        let missing_field = sample("2.00").replace("\"dict_ns\"", "\"other\"");
        assert!(BenchReport::parse(&missing_field).is_err());
    }
}

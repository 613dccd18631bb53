//! The one place that knows which report fields are non-deterministic.
//!
//! Several CI gates byte-compare serialized reports across runs or
//! thread counts (the streaming-summary diff, the scenario golden
//! matrix, the service smoke). Timing and throughput fields —
//! `CrawlSummary::elapsed_ms`, `visits_per_sec`, swap `compile_ns` —
//! legitimately differ run to run, and each check used to
//! carve them out ad hoc (a `sed` range here, a field omission there).
//! That pattern breaks silently: add one new `*_ms` field to a report
//! and whichever check forgot about it starts flaking.
//!
//! This module centralizes the rule. A key is non-deterministic if it
//! matches [`is_nondeterministic_key`] — a suffix convention
//! (`_ms`/`_ns`/`_per_sec`) plus a short named list —
//! and [`mask_nondeterministic`] nulls every such value anywhere in a
//! JSON tree, preserving the key set (so schema diffs still see the
//! field) while removing the noise. Checks that need to mask additional
//! context-specific blocks (e.g. the service report's epoch-sensitive
//! `outcomes`, which depend on where a racing hot-swap landed) pass
//! them through [`mask_keys`]' `extra` list.
//!
//! The convention is enforceable in reverse, too: name timing fields
//! with one of the recognized suffixes and every byte-equality check in
//! the repo ignores them automatically.

use serde::Serialize;
use serde_json::Value;

/// Suffixes that mark a field as timing/throughput-derived.
const NONDETERMINISTIC_SUFFIXES: &[&str] = &["_ms", "_ns", "_per_sec"];

/// Field names that are non-deterministic without carrying a suffix.
/// `runtime` masks a telemetry snapshot's scheduling-dependent section
/// wholesale (fsync batching, fold shard counts, gauges — see
/// `cg_telemetry`); `overhead_pct` is the telemetry-overhead bench
/// figure, a ratio of two wall-clock rates.
const NONDETERMINISTIC_NAMES: &[&str] = &["runtime", "overhead_pct"];

/// True when `key` names a field whose value varies run to run even for
/// identical work: wall-clock, rates derived from wall-clock, and the
/// scheduling-dependent telemetry section.
pub fn is_nondeterministic_key(key: &str) -> bool {
    NONDETERMINISTIC_NAMES.contains(&key)
        || NONDETERMINISTIC_SUFFIXES.iter().any(|s| key.ends_with(s))
}

/// Recursively replaces the value of every non-deterministic key — and
/// every key in `extra` — with `null`, anywhere in `value`. Keys are
/// kept (schema checks still see them); only the varying values go.
pub fn mask_keys(value: &mut Value, extra: &[&str]) {
    match value {
        Value::Object(map) => {
            let keys: Vec<String> = map.keys().cloned().collect();
            for key in keys {
                if is_nondeterministic_key(&key) || extra.contains(&key.as_str()) {
                    map.insert(key, Value::Null);
                } else if let Some(child) = map.get_mut(&key) {
                    mask_keys(child, extra);
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                mask_keys(item, extra);
            }
        }
        _ => {}
    }
}

/// [`mask_keys`] with no extras — the default determinism surface.
pub fn mask_nondeterministic(value: &mut Value) {
    mask_keys(value, &[]);
}

/// Serializes `report`, masks non-deterministic fields (plus `extra`),
/// and returns the canonical JSON string — the byte-comparable
/// determinism surface of any serializable report.
pub fn deterministic_surface<T: Serialize>(report: &T, extra: &[&str]) -> String {
    let mut value = serde_json::to_value(report).expect("serialize report");
    mask_keys(&mut value, extra);
    serde_json::to_string(&value).expect("serialize masked report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_convention_and_named_fields_are_recognized() {
        for key in [
            "elapsed_ms",
            "wall_ms",
            "compile_ns",
            "install_ns",
            "visits_per_sec",
            "decisions_per_sec",
            "mb_per_sec",
            "runtime",
            "overhead_pct",
        ] {
            assert!(is_nondeterministic_key(key), "{key} must be masked");
        }
        // Only names some report emits are masked: a new timing field
        // must take a recognized suffix, not hide behind a stale name.
        for key in [
            "visits",
            "sessions_opened",
            "decisions",
            "bytes",
            "p50",
            "speedup",
            "fold_speedup",
            "latency",
            "peak_rss_bytes",
            "decode_us",
        ] {
            assert!(!is_nondeterministic_key(key), "{key} must survive");
        }
    }

    #[test]
    fn masking_nulls_values_but_keeps_keys_at_any_depth() {
        let mut v = serde_json::from_str::<Value>(
            r#"{"visits":10,"elapsed_ms":123,
                "nested":{"visits_per_sec":5.0,"bytes":7},
                "runs":[{"wall_ms":9,"decisions":3}]}"#,
        )
        .unwrap();
        mask_nondeterministic(&mut v);
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.contains("\"elapsed_ms\":null"), "{s}");
        assert!(s.contains("\"visits_per_sec\":null"), "{s}");
        assert!(s.contains("\"wall_ms\":null"), "{s}");
        assert!(s.contains("\"visits\":10"), "{s}");
        assert!(s.contains("\"bytes\":7"), "{s}");
        assert!(s.contains("\"decisions\":3"), "{s}");
    }

    #[test]
    fn two_runs_differing_only_in_timing_have_equal_surfaces() {
        #[derive(Serialize)]
        struct Report {
            visits: u64,
            elapsed_ms: u64,
            decisions_per_sec: f64,
        }
        let fast = Report {
            visits: 100,
            elapsed_ms: 3,
            decisions_per_sec: 2e5,
        };
        let slow = Report {
            visits: 100,
            elapsed_ms: 900,
            decisions_per_sec: 7e2,
        };
        assert_eq!(
            deterministic_surface(&fast, &[]),
            deterministic_surface(&slow, &[])
        );
        let diverged = Report {
            visits: 101,
            elapsed_ms: 3,
            decisions_per_sec: 2e5,
        };
        assert_ne!(
            deterministic_surface(&fast, &[]),
            deterministic_surface(&diverged, &[])
        );
    }

    #[test]
    fn extra_keys_mask_whole_subtrees() {
        let mut v = serde_json::from_str::<Value>(
            r#"{"counters":{"visits":1},"outcomes":{"writes_allowed":5}}"#,
        )
        .unwrap();
        mask_keys(&mut v, &["outcomes"]);
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.contains("\"outcomes\":null"), "{s}");
        assert!(s.contains("\"visits\":1"), "{s}");
    }
}

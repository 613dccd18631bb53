//! Scenario-matrix determinism: the properties CI's golden-file diff
//! relies on.

use cg_scenarios::run_matrix;

/// Same seed ⇒ byte-identical JSON, regardless of worker threads.
#[test]
fn matrix_json_is_byte_identical_across_thread_counts() {
    let single = run_matrix(0xC00C1E, 1).to_json();
    let eight = run_matrix(0xC00C1E, 8).to_json();
    assert_eq!(single, eight, "thread count leaked into the matrix bytes");
    // And re-running at the same thread count is a fixed point.
    assert_eq!(single, run_matrix(0xC00C1E, 1).to_json());
}

/// Different seeds change cookie values/timings but never the catalog
/// shape — and every expectation still holds (the claims are about
/// policy decisions, not sampled values).
#[test]
fn matrix_verdicts_hold_across_seeds() {
    for seed in [1u64, 0xDEAD_BEEF, 0xC00C1E] {
        let m = run_matrix(seed, 4);
        assert!(m.rows.len() >= 8);
        assert_eq!(m.passing(), m.rows.len(), "seed {seed:#x} broke a verdict");
    }
}

/// The checked-in golden file matches a fresh default-seed run — the
/// same comparison CI performs through the CLI. Regenerate with:
/// `cargo run --release -p cg-experiments -- scenarios --json \
///  crates/cg-scenarios/golden/scenario_matrix.json`
#[test]
fn matrix_matches_checked_in_golden_file() {
    let golden = include_str!("../golden/scenario_matrix.json");
    let fresh = run_matrix(0xC00C1E, 2).to_json();
    assert_eq!(
        golden, fresh,
        "golden scenario matrix is stale; regenerate it (see test doc)"
    );
}

//! Telemetry never touches the wire: a crawl written while the global
//! registry records must produce a byte-identical store to one written
//! with the registry's kill switch thrown. Counters and spans observe
//! the segment writer; they must not perturb what it writes.

use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, CrawlReader};
use cg_webgen::{GenConfig, WebGenerator};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SEED: u64 = 0xC00C1E;
const SITES: usize = 60;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-telewire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn crawl(dir: &Path, threads: usize) {
    let gen = WebGenerator::new(GenConfig::small(SITES), SEED);
    crawl_to_store(
        dir,
        &gen,
        &VisitConfig::regular(),
        1,
        SITES,
        threads,
        |_| {},
    )
    .unwrap();
}

/// Every `seg-*` file in `dir`, name → raw bytes.
fn segment_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name.starts_with("seg-") {
            out.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    assert!(!out.is_empty(), "no segments written under {dir:?}");
    out
}

/// The merged, rank-ordered record stream as canonical JSON lines —
/// the store's logical wire content at any thread count.
fn json_lines(dir: &Path) -> Vec<String> {
    CrawlReader::open(dir)
        .unwrap()
        .map(|l| serde_json::to_string(&l.unwrap()).unwrap())
        .collect()
}

/// One test function (not several) because the registry kill switch is
/// process-global state: the enabled and disabled crawls must run in a
/// controlled order, and the switch must be restored afterwards.
#[test]
fn stores_are_byte_identical_with_telemetry_on_and_off() {
    // Single-threaded runs: rank→segment assignment is deterministic,
    // so the segment *files* (and their index sidecars) must match byte
    // for byte.
    let on_1 = tmp_dir("on-1");
    crawl(&on_1, 1);
    // Multi-threaded runs: segment contents depend on work claiming,
    // but the merged record stream is the wire contract.
    let on_3 = tmp_dir("on-3");
    crawl(&on_3, 3);

    cg_telemetry::global().set_enabled(false);
    let off_1 = tmp_dir("off-1");
    crawl(&off_1, 1);
    let off_3 = tmp_dir("off-3");
    crawl(&off_3, 3);
    cg_telemetry::global().set_enabled(true);

    assert_eq!(
        segment_bytes(&on_1),
        segment_bytes(&off_1),
        "telemetry changed the bytes a segment writer produced"
    );
    assert_eq!(
        json_lines(&on_3),
        json_lines(&off_3),
        "telemetry changed the store's merged record stream"
    );

    for dir in [on_1, on_3, off_1, off_3] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! `cg-experiments export --jsonl DIR`: a crawl store as greppable,
//! diffable text.
//!
//! The store keeps binary frames only; this is the text view of one.
//! Each visit becomes one compact `serde_json` line, in rank order, so
//! two stores hold the same crawl exactly when their exports are
//! byte-identical — `cmp` is the equivalence check for a resumed store
//! against an uninterrupted one.

use cg_crawlstore::{CrawlReader, StoreError};
use std::io::Write;
use std::path::Path;

/// Writes every visit of the store at `dir` to `out` as one JSON line,
/// in rank order; returns the number of visits written.
pub fn export_jsonl(dir: &Path, out: &mut impl Write) -> Result<u64, StoreError> {
    let mut visits = 0;
    for log in CrawlReader::open(dir)? {
        let line = serde_json::to_string(&log?).map_err(|e| StoreError::Corrupt {
            file: dir.display().to_string(),
            detail: format!("serialize: {e}"),
        })?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        visits += 1;
    }
    out.flush()?;
    Ok(visits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_browser::VisitConfig;
    use cg_webgen::{GenConfig, WebGenerator};

    #[test]
    fn export_is_one_reserialized_line_per_visit_in_rank_order() {
        let dir = std::env::temp_dir().join(format!("cg-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen = WebGenerator::new(GenConfig::small(24), 5);
        cg_crawlstore::crawl_to_store(&dir, &gen, &VisitConfig::regular(), 1, 24, 3, |_| {})
            .unwrap();
        let mut out = Vec::new();
        assert_eq!(export_jsonl(&dir, &mut out).unwrap(), 24);
        let text = String::from_utf8(out).unwrap();
        let expected: Vec<String> = CrawlReader::open(&dir)
            .unwrap()
            .map(|l| serde_json::to_string(&l.unwrap()).unwrap())
            .collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        let ranks: Vec<u64> = text
            .lines()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).unwrap();
                v.get("rank").and_then(|r| r.as_u64()).unwrap()
            })
            .collect();
        assert_eq!(ranks, (1..=24).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

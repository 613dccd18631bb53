//! The store manifest: config fingerprint + per-segment durability
//! watermarks, written atomically (temp file + rename) so a crash never
//! leaves a half-written manifest behind.

use crate::codec::SegmentFormat;
use crate::StoreError;
use cg_browser::VisitConfig;
use cg_webgen::GenConfig;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::path::Path;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Current on-disk format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Identifies the crawl a store belongs to. Two crawls with equal
/// fingerprints produce identical visit logs for every rank, which is
/// what makes resuming into an existing directory sound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// The web generator's master seed.
    pub master_seed: u64,
    /// First rank of the crawl (inclusive, 1-based).
    pub from: usize,
    /// Last rank of the crawl (inclusive).
    pub to: usize,
    /// Digest of the [`VisitConfig`] (see
    /// [`VisitConfig::fingerprint`]).
    pub visit_config: String,
    /// Digest of the generator's [`GenConfig`]. Visit outcomes are a
    /// function of the *generated web*, not just the seed — two tools
    /// building different `GenConfig`s for the same seed/site-count
    /// (e.g. `GenConfig::small(n)` vs `GenConfig::default()`) must not
    /// resume each other's stores.
    pub generator: String,
    /// On-disk segment format. Binary frames of format-v2 payloads
    /// (`"binary-v2"`) are the only one; a manifest naming another —
    /// `"binary"` (v1 payloads), `"jsonl"`, or none, as the oldest
    /// stores record — is refused by [`Manifest::load`].
    pub format: SegmentFormat,
}

impl Fingerprint {
    /// Builds the fingerprint for a crawl of ranks `[from, to]` under
    /// `cfg` on a generator seeded with `master_seed` and configured by
    /// `gen_cfg`.
    pub fn new(
        master_seed: u64,
        from: usize,
        to: usize,
        cfg: &VisitConfig,
        gen_cfg: &GenConfig,
    ) -> Fingerprint {
        // GenConfig is a plain struct of scalar knobs; its Debug form
        // is canonical (field order is fixed by the definition).
        let generator = cg_hash::sha1_hex(format!("{gen_cfg:?}").as_bytes());
        Fingerprint {
            master_seed,
            from,
            to,
            visit_config: cfg.fingerprint(),
            generator,
            format: SegmentFormat::Binary,
        }
    }
}

/// One segment file's durability watermark.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name relative to the store directory (`seg-<n>.bin`).
    pub file: String,
    /// Records known durable (fsync'd) in this segment. The file may
    /// hold *more* complete frames than this (written but not yet
    /// fsync'd when the process died); recovery keeps every complete
    /// frame, since completed visits are deterministic either way.
    pub synced_records: u64,
    /// Highest rank among the synced records (0 when empty).
    pub max_rank: u64,
}

/// The store's checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk format version.
    pub version: u32,
    /// Which crawl this store belongs to.
    pub fingerprint: Fingerprint,
    /// Per-segment watermarks, sorted by file name.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh manifest with no segments.
    pub fn new(fingerprint: Fingerprint) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            fingerprint,
            segments: Vec::new(),
        }
    }

    /// Loads the manifest from a store directory. `Ok(None)` when the
    /// directory has no manifest (a brand-new store). A manifest whose
    /// segment format is not the current one — `"binary"` (format-v1
    /// payloads), `"jsonl"`, or no format field, as stores written
    /// before binary-only segments record — is `Corrupt`, naming the
    /// format it found. There is no migration: recrawl into a fresh
    /// directory.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let corrupt = |detail: String| StoreError::Corrupt {
            file: MANIFEST_FILE.to_string(),
            detail,
        };
        let text = String::from_utf8(bytes).map_err(|e| corrupt(e.to_string()))?;
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| corrupt(e.to_string()))?;
        if let Some(fp) = value.get("fingerprint") {
            let format = match fp.get("format") {
                None => "none recorded (a pre-binary JSONL store)".to_string(),
                Some(f) => f.to_string(),
            };
            let current = SegmentFormat::Binary.tag();
            if format != format!("\"{current}\"") {
                return Err(corrupt(format!(
                    "unsupported segment format {format}: only {current} segments are readable"
                )));
            }
        }
        let manifest: Manifest =
            serde_json::from_value(value).map_err(|e| corrupt(e.to_string()))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "unsupported version {} (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        Ok(Some(manifest))
    }

    /// [`Manifest::load`] for readers: a directory without a manifest
    /// is not a store, so it is `Corrupt` rather than empty.
    pub fn require(dir: &Path) -> Result<Manifest, StoreError> {
        Manifest::load(dir)?.ok_or_else(|| StoreError::Corrupt {
            file: MANIFEST_FILE.to_string(),
            detail: format!("no manifest in {}", dir.display()),
        })
    }

    /// Writes the manifest atomically: serialize to `manifest.json.tmp`,
    /// fsync, rename over the live file, fsync the directory.
    pub fn store(&self, dir: &Path) -> Result<(), StoreError> {
        let mut sorted = self.clone();
        sorted.segments.sort_by(|a, b| a.file.cmp(&b.file));
        let text = serde_json::to_string_pretty(&sorted).map_err(|e| StoreError::Corrupt {
            file: MANIFEST_FILE.to_string(),
            detail: e.to_string(),
        })?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let live = dir.join(MANIFEST_FILE);
        {
            use std::io::Write;
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &live)?;
        // Make the rename itself durable. Directory fsync is best-effort
        // on platforms where opening a directory fails.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// The watermark entry for `file`, creating it when absent.
    pub fn segment_mut(&mut self, file: &str) -> &mut SegmentMeta {
        if let Some(i) = self.segments.iter().position(|s| s.file == file) {
            return &mut self.segments[i];
        }
        self.segments.push(SegmentMeta {
            file: file.to_string(),
            synced_records: 0,
            max_rank: 0,
        });
        self.segments.last_mut().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            master_seed: 7,
            from: 1,
            to: 100,
            visit_config: "abc".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let dir = tmp_dir("rt");
        let mut m = Manifest::new(fp());
        m.segment_mut("seg-1.bin").synced_records = 4;
        m.segment_mut("seg-0.bin").max_rank = 9;
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(back.fingerprint, fp());
        // Stored sorted by file name.
        assert_eq!(back.segments[0].file, "seg-0.bin");
        assert_eq!(back.segments[1].synced_records, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_binary_manifests_are_refused_naming_their_format() {
        // Stores written before binary-only segments record "jsonl", or
        // (version-1 manifests) no format at all. Both are refused as
        // Corrupt, and the error says which format was found.
        let dir = tmp_dir("legacy-format");
        let manifest = |format: &str| {
            format!(
                r#"{{
                    "version": 1,
                    "fingerprint": {{
                        "master_seed": 7, "from": 1, "to": 100,
                        "visit_config": "abc", "generator": "gen"{format}
                    }},
                    "segments": [{{"file": "seg-0.jsonl", "synced_records": 3, "max_rank": 9}}]
                }}"#
            )
        };
        for (format, named) in [(r#", "format": "jsonl""#, "jsonl"), ("", "JSONL")] {
            std::fs::write(dir.join(MANIFEST_FILE), manifest(format)).unwrap();
            match Manifest::load(&dir) {
                Err(StoreError::Corrupt { file, detail }) => {
                    assert_eq!(file, MANIFEST_FILE);
                    assert!(detail.contains(named), "{detail}");
                }
                other => panic!("legacy manifest accepted: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_v1_manifests_are_refused_naming_their_format() {
        // A store written with v1 payloads records "binary". Its frames
        // would misread as v2, so open, resume and read all refuse it.
        let dir = tmp_dir("v1-format");
        let mut m = Manifest::new(fp());
        m.segment_mut("seg-0.bin").synced_records = 3;
        m.store(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(text.contains("\"binary-v2\""), "{text}");
        let v1 = text.replace("\"binary-v2\"", "\"binary\"");
        std::fs::write(dir.join(MANIFEST_FILE), v1).unwrap();
        for loaded in [
            Manifest::load(&dir).map(|_| ()),
            Manifest::require(&dir).map(|_| ()),
        ] {
            match loaded {
                Err(StoreError::Corrupt { file, detail }) => {
                    assert_eq!(file, MANIFEST_FILE);
                    assert!(detail.contains("\"binary\""), "{detail}");
                    assert!(detail.contains("binary-v2"), "{detail}");
                }
                other => panic!("v1 manifest accepted: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = tmp_dir("none");
        assert!(Manifest::load(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_manifest_is_corrupt() {
        let dir = tmp_dir("bad");
        std::fs::write(dir.join(MANIFEST_FILE), "{not json").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Differential suite for the chunked read path: every [`ReadBackend`]
//! must produce byte-identical streams at every thread count, the
//! frame-index sidecar must round-trip and rebuild, and a damaged or
//! stale sidecar must cost a rescan — never a wrong result.

use cg_crawlstore::codec::FRAME_HEADER;
use cg_crawlstore::index::{decode_index, index_file_name, scan_index, INDEX_STRIDE};
use cg_crawlstore::{
    par_fold_with, plan_chunks, CrawlReader, CrawlWriter, Fingerprint, ReadBackend, SegmentFormat,
    StoreError,
};
use cg_instrument::VisitLog;
use std::fs::File;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-chunked-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fp() -> Fingerprint {
    Fingerprint {
        master_seed: 1,
        from: 1,
        to: 10_000,
        visit_config: "cfg".into(),
        generator: "gen".into(),
        format: SegmentFormat::Binary,
    }
}

fn log(rank: usize) -> VisitLog {
    VisitLog {
        complete: !rank.is_multiple_of(7),
        ..VisitLog::new(&format!("site{rank}.com"), rank)
    }
}

/// Writes `ranks` visits striped over `segments` segment files, so
/// every segment holds an ascending (but gapped) rank run long enough
/// to span several index strides.
fn fill(dir: &Path, segments: usize, ranks: usize) {
    let store = CrawlWriter::open(dir, fp()).unwrap();
    let mut segs: Vec<_> = (0..segments).map(|_| store.segment().unwrap()).collect();
    for rank in 1..=ranks {
        segs[rank % segments].record(&log(rank)).unwrap();
    }
    for seg in segs {
        seg.finish().unwrap();
    }
}

const BACKENDS: [ReadBackend; 2] = [ReadBackend::Mmap, ReadBackend::Pread];

/// The full serialized stream per chunk — rank order AND byte-level
/// `VisitLog` equality in one artifact.
fn drain(dir: &Path, threads: usize, backend: ReadBackend) -> Vec<Vec<String>> {
    par_fold_with(dir, threads, backend, |chunk| {
        chunk
            .map(|r| r.map(|l| serde_json::to_string(&l).expect("serialize")))
            .collect()
    })
    .unwrap()
}

#[test]
fn all_backends_and_thread_counts_agree() {
    let dir = tmp_dir("diff");
    // 3 segments × ~67 frames: several chunks per segment.
    fill(&dir, 3, 200);
    let baseline = drain(&dir, 1, ReadBackend::Pread);
    let total: usize = baseline.iter().map(Vec::len).sum();
    assert_eq!(total, 200);
    let plan = plan_chunks(&dir).unwrap();
    assert!(
        plan.len() > plan.segments(),
        "a {}-frame segment must split into multiple chunks",
        200 / 3
    );
    for backend in BACKENDS {
        for threads in [1, 2, 8] {
            assert_eq!(
                drain(&dir, threads, backend),
                baseline,
                "{backend} at {threads} threads diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sidecar_round_trips_and_matches_a_rebuild() {
    let dir = tmp_dir("roundtrip");
    fill(&dir, 1, 100);
    let idx_path = dir.join("seg-0.idx");
    assert!(idx_path.exists(), "writer must emit the sidecar at commit");
    let written = decode_index(&std::fs::read(&idx_path).unwrap()).unwrap();
    assert_eq!(written.stride, INDEX_STRIDE);
    assert_eq!(
        written.entries.len(),
        100usize.div_ceil(INDEX_STRIDE as usize)
    );
    assert_eq!(written.entries[0].offset, 0);
    // The rebuild scan over the bare segment yields the same entries.
    let file = File::open(dir.join("seg-0.bin")).unwrap();
    let (rebuilt, _end) = scan_index(&file, "seg-0.bin", 100, INDEX_STRIDE).unwrap();
    assert_eq!(written, rebuilt);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_sidecar_rebuilds_from_the_segment() {
    let dir = tmp_dir("bare");
    fill(&dir, 2, 150);
    let baseline = drain(&dir, 2, ReadBackend::Mmap);
    for seg in ["seg-0.bin", "seg-1.bin"] {
        std::fs::remove_file(dir.join(index_file_name(seg).unwrap())).unwrap();
    }
    // Same chunking, same results — old index-less stores just rescan.
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_or_stale_sidecars_are_refused_not_believed() {
    let dir = tmp_dir("badidx");
    fill(&dir, 1, 120);
    let baseline = drain(&dir, 2, ReadBackend::Mmap);
    let idx_path = dir.join("seg-0.idx");
    let good = std::fs::read(&idx_path).unwrap();

    // Bit-flip damage anywhere in the sidecar.
    for at in [0usize, 4, 9, 13, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0x55;
        std::fs::write(&idx_path, &bad).unwrap();
        assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);
    }

    // Truncated sidecar.
    std::fs::write(&idx_path, &good[..good.len() / 2]).unwrap();
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);

    // Structurally valid but stale: entries shifted off the real frame
    // boundaries. The header probes must reject it and rescan.
    let mut shifted = decode_index(&good).unwrap();
    for e in shifted.entries.iter_mut().skip(1) {
        e.offset += 3;
    }
    std::fs::write(
        &idx_path,
        cg_crawlstore::index::encode_index(shifted.stride, &shifted.entries),
    )
    .unwrap();
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_and_watermark_rules_hold_on_every_backend() {
    let dir = tmp_dir("torn");
    fill(&dir, 1, 80);
    // Chop bytes off the end: the manifest still promises 80 records,
    // so every backend must surface Corrupt, not stream a short store.
    let path = dir.join("seg-0.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    for backend in BACKENDS {
        let result = par_fold_with(&dir, 2, backend, |chunk| {
            chunk.map(|r| r.map(|_| 1u64)).sum::<Result<u64, _>>()
        });
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{backend} accepted a store short of its watermark"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_file_damage_surfaces_from_chunked_decodes() {
    let dir = tmp_dir("damage");
    fill(&dir, 1, 90);
    let path = dir.join("seg-0.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    for backend in BACKENDS {
        let result = par_fold_with(&dir, 4, backend, |chunk| {
            chunk.map(|r| r.map(|_| 1u64)).sum::<Result<u64, _>>()
        });
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{backend} streamed past mid-file damage"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A frame header whose length field runs past the end of its file,
/// under an unchanged manifest watermark, is refused when the chunks are
/// planned: no window is mapped over missing bytes (which would die of
/// SIGBUS) and no buffer larger than the file is allocated.
#[test]
fn a_frame_length_past_the_file_end_is_corrupt_on_every_path() {
    let dir = tmp_dir("badlen");
    fill(&dir, 1, 3);
    let path = dir.join("seg-0.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    // Walk to the last of the three frames and inflate its length.
    let mut last = 0;
    for _ in 0..2 {
        let len = u32::from_le_bytes(bytes[last..last + 4].try_into().unwrap());
        last += FRAME_HEADER + len as usize;
    }
    bytes[last..last + 4].copy_from_slice(&0x7fff_0000u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    for backend in BACKENDS {
        let result = par_fold_with(&dir, 1, backend, |chunk| {
            chunk.map(|r| r.map(|_| 1u64)).sum::<Result<u64, _>>()
        });
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{backend} accepted a frame running past the file: {result:?}"
        );
    }
    let read: Result<Vec<_>, _> = CrawlReader::open(&dir).and_then(|r| r.collect());
    assert!(
        matches!(read, Err(StoreError::Corrupt { .. })),
        "CrawlReader accepted a frame running past the file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay passes reuse one plan: damage must surface on every pass over
/// it, never only the first.
#[test]
fn damage_surfaces_on_every_pass_over_one_plan() {
    let dir = tmp_dir("passes");
    fill(&dir, 1, 10);
    // Damage a payload byte, not a header: the plan still holds.
    let path = dir.join("seg-0.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[FRAME_HEADER + 1] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let plan = plan_chunks(&dir).unwrap();
    for backend in BACKENDS {
        for pass in 0..2 {
            let result: Result<Vec<_>, _> = (0..plan.len())
                .map(|i| {
                    plan.open_chunk(i, backend)
                        .and_then(|c| c.collect::<Result<Vec<_>, _>>())
                })
                .collect();
            assert!(
                matches!(result, Err(StoreError::Corrupt { .. })),
                "{backend} pass {pass} streamed past damage"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store from before format-v2 payloads — its manifest says
/// `"binary"` (v1 payloads) or `"jsonl"`, or names no format — is
/// refused by every reader.
#[test]
fn pre_binary_stores_are_refused_by_every_reader() {
    let dir = tmp_dir("legacy");
    fill(&dir, 1, 5);
    let manifest = dir.join(cg_crawlstore::MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest).unwrap();
    for legacy in [
        text.replace("\"binary-v2\"", "\"binary\""),
        text.replace("\"binary-v2\"", "\"jsonl\""),
        text.replace(",\n    \"format\": \"binary-v2\"", ""),
    ] {
        assert_ne!(legacy, text);
        std::fs::write(&manifest, &legacy).unwrap();
        let refused = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Corrupt { detail, .. }) if detail.contains("format"));
        assert!(refused(plan_chunks(&dir).map(drop)));
        assert!(refused(CrawlReader::open(&dir).map(drop)));
        assert!(refused(
            par_fold_with(&dir, 2, ReadBackend::Mmap, |c| Ok(c.count())).map(drop)
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_has_an_empty_plan() {
    let dir = tmp_dir("empty");
    drop(CrawlWriter::open(&dir, fp()).unwrap());
    let plan = plan_chunks(&dir).unwrap();
    assert!(plan.is_empty());
    let partials = par_fold_with(&dir, 8, ReadBackend::Mmap, |c| Ok(c.count())).unwrap();
    assert!(partials.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_keeps_sidecars_consistent_with_recovery() {
    let dir = tmp_dir("resume");
    fill(&dir, 1, 70);
    let baseline = drain(&dir, 1, ReadBackend::Pread);
    // Tear the tail: recovery truncates the last frame AND rewrites the
    // sidecar from its scan.
    let path = dir.join("seg-0.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let store = CrawlWriter::open(&dir, fp()).unwrap();
    assert_eq!(store.done_ranks().len(), 69);
    drop(store);
    // The surviving prefix streams identically to before the tear.
    let after: Vec<String> = drain(&dir, 4, ReadBackend::Mmap)
        .into_iter()
        .flatten()
        .collect();
    let before: Vec<String> = baseline.into_iter().flatten().take(69).collect();
    assert_eq!(after.len(), 69);
    assert_eq!(after, before);
    std::fs::remove_dir_all(&dir).unwrap();
}

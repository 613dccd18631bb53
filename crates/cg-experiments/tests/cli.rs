//! The `cg-experiments` binary's exit codes: a failed write is a failed
//! run, and an unknown flag or experiment is refused, not ignored.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cg-experiments"))
        .args(args)
        .output()
        .expect("spawn cg-experiments")
}

#[test]
fn unwritable_json_path_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("cg-cli-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("out.json");
    let out = run(&[
        "--exp",
        "sec5_1",
        "--sites",
        "10",
        "--threads",
        "1",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("results written"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to write"));
}

#[test]
fn removed_knobs_are_refused() {
    for args in [
        &["--fold-sites", "10"][..],
        &["--bench-json", "out.json"][..],
        &["--exp", "storebench"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn serve_with_one_worker_count_is_a_usage_error() {
    for list in ["2", "8"] {
        let out = run(&["serve", "--sites", "10", "--workers", list]);
        assert_eq!(out.status.code(), Some(2), "--workers {list}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("at least 2 worker counts"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

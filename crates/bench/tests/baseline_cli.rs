//! The `baseline` CLI reports bad output locations with a message and an
//! exit code instead of panicking: 2 for an unusable `--out-dir` (checked
//! before any proving), 1 for an artifact write that fails.

use std::path::PathBuf;
use std::process::{Command, Output};

fn baseline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_baseline"))
        .args(args)
        .output()
        .expect("baseline binary runs")
}

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("unizk-baseline-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[test]
fn unusable_out_dir_exits_2_before_proving() {
    let dir = scratch("unusable");
    let file = dir.join("plain-file");
    std::fs::write(&file, b"").expect("temp file is writable");
    for bad in [dir.join("does-not-exist"), file] {
        let bad = bad.to_str().expect("utf-8 temp path");
        let out = baseline(&["--out-dir", bad]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "stderr names the directory: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "nothing ran before the check: {out:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_artifact_write_exits_1_with_the_path() {
    let dir = scratch("unwritable");
    // A directory where the artifact file should go makes the write fail.
    let target = dir.join("BENCH_PROVER_KB.json");
    std::fs::create_dir(&target).expect("temp dir is writable");
    let out = baseline(&[
        "--field",
        "koalabear",
        "--out-dir",
        dir.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let path = target.to_str().expect("utf-8 temp path");
    assert!(stderr.contains(path), "stderr names the path: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! The one loader and the CLI's root handling, against trees planted
//! under cargo's per-target scratch directory.

use jrs_lint::{analyze, find_workspace_root, load, Config};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A hand-written codec: W001 on line 1 under the workspace registry.
const HAND_CODEC: &str =
    "impl Codec for Planted {\n    fn encode(&self, out: &mut Vec<u8>) {}\n}\n";

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

/// A root workspace with one crate that holds a nested package which
/// opts out of the workspace the way `crates/bench/src/benchmark/`
/// does: an empty `[workspace]` table, and the word again in a comment.
fn plant_nested(root: &Path) -> PathBuf {
    write(
        root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    );
    write(root, "crates/gcs/src/lib.rs", HAND_CODEC);
    let nested = "# a package of its own with an empty [workspace]\n\
                  [package]\nname = \"nested\"\nversion = \"0.1.0\"\n\n[workspace]\n";
    write(root, "crates/gcs/src/nested/Cargo.toml", nested);
    write(root, "crates/gcs/src/nested/main.rs", "fn main() {}\n");
    root.join("crates/gcs/src/nested")
}

fn jrs_lint(cwd: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_jrs-lint"))
        .current_dir(cwd)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn loader_reads_each_file_once_and_analysis_never_goes_back_to_disk() {
    let root = scratch("load_once");
    write(
        &root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );
    write(&root, "proto.lock", "# empty\n");
    write(&root, "src/lib.rs", "pub fn umbrella() {}\n");
    write(&root, "crates/gcs/src/lib.rs", HAND_CODEC);
    write(&root, "crates/gcs/src/sub/deep.rs", "pub fn deep() {}\n");
    // Not under `crates/*/src` or `src`, build output, and hidden
    // directories: skipped.
    write(&root, "shims/rand/src/lib.rs", "pub fn shim() {}\n");
    write(&root, "crates/gcs/tests/it.rs", "fn it() {}\n");
    write(&root, "examples/demo.rs", "fn main() {}\n");
    write(&root, "target/debug/src/gen.rs", "fn gen() {}\n");
    write(&root, ".git/src/x.rs", "fn x() {}\n");

    let ws = load(&root).unwrap();
    let paths: Vec<&str> = ws.files.iter().map(|(p, _)| p.as_str()).collect();
    // One walk: `crates/*/src` and the umbrella `src` both come from it,
    // each file exactly once, in path order.
    assert_eq!(
        paths,
        vec![
            "crates/gcs/src/lib.rs",
            "crates/gcs/src/sub/deep.rs",
            "src/lib.rs",
        ]
    );
    assert_eq!(ws.lock.as_deref(), Some("# empty\n"));

    // Every pass runs from what `load` returned: with the tree gone, the
    // analysis still sees all three files and finds the planted W001.
    fs::remove_dir_all(&root).unwrap();
    let report = analyze(&Config::workspace(), &ws.files, ws.lock.as_deref()).report;
    assert_eq!(report.files_scanned, 3);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "W001" && f.path == "crates/gcs/src/lib.rs"),
        "{:#?}",
        report.findings
    );
}

#[test]
fn root_discovery_skips_a_nested_manifest_with_an_empty_workspace_table() {
    let root = scratch("nested_manifest");
    let nested = plant_nested(&root);
    assert_eq!(find_workspace_root(&nested), Some(root.clone()));
    assert_eq!(
        find_workspace_root(&root.join("crates/gcs")),
        Some(root.clone())
    );
    // A package that only opts out is never itself the answer (the walk
    // goes on to whatever encloses the scratch directory).
    let lone = scratch("lone_package");
    write(
        &lone,
        "Cargo.toml",
        "[package]\nname = \"lone\"\n\n[workspace]\n",
    );
    assert_ne!(find_workspace_root(&lone), Some(lone.clone()));
}

#[test]
fn check_from_a_nested_package_scans_the_real_workspace() {
    let root = scratch("nested_cwd");
    let nested = plant_nested(&root);
    let (code, stdout, stderr) = jrs_lint(&nested, &["check"]);
    // The planted codec in `crates/gcs/src/lib.rs` proves the real
    // root was scanned (before the fix: "OK — 0 files", exit 0).
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("crates/gcs/src/lib.rs:1: W001: "),
        "{stdout}"
    );
    assert!(stdout.contains("lint: FAILED — 2 files, "), "{stdout}");
}

#[test]
fn a_zero_file_scan_is_exit_2_never_ok() {
    let empty = scratch("zero_files");
    write(&empty, "README.md", "no sources here\n");
    for args in [
        &["check", "--root", "."][..],
        &["check", "--json", "--root", "."],
        &["lock", "--root", "."],
    ] {
        let (code, stdout, stderr) = jrs_lint(&empty, args);
        assert_eq!(
            code,
            Some(2),
            "{args:?}: stdout: {stdout}\nstderr: {stderr}"
        );
        assert_eq!(stdout, "", "{args:?}");
        assert!(
            stderr.contains("no src/**/*.rs files under"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn usage_errors_are_exit_2() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    for args in [
        &[][..],
        &["frobnicate"],
        &["check", "--root"],
        &["lock", "--json"],
        &["rules", "x"],
    ] {
        let (code, _, stderr) = jrs_lint(here, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}

//! What the shipped binaries print. Each paper-artifact binary must
//! reproduce its committed table under `tests/golden/artifacts/` byte
//! for byte, and `qelectctl` must reject an instance outside a
//! protocol's domain with a typed error — exit 2, an `error:` line and
//! no panic output.
//!
//! Regenerate a golden after a deliberate output change with
//! `cargo run --release -p qelect-bench --bin <name> > tests/golden/artifacts/<name>.txt`.

use std::process::Command;

#[test]
fn paper_artifacts_match_their_goldens() {
    for (name, exe) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table_effectual", env!("CARGO_BIN_EXE_table_effectual")),
        ("table_moves", env!("CARGO_BIN_EXE_table_moves")),
        ("fig1_transform", env!("CARGO_BIN_EXE_fig1_transform")),
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
        ("fig5_petersen", env!("CARGO_BIN_EXE_fig5_petersen")),
    ] {
        let out = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert!(out.status.success(), "{name} exited with {}", out.status);
        let path = format!(
            "{}/../../tests/golden/artifacts/{name}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            out.stdout == golden,
            "{name} no longer prints {path}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn out_of_domain_instances_exit_2_without_a_panic() {
    for args in [
        &["petersen", "cycle:6", "--agents", "0,3"][..],
        &["anon", "path:5", "--agents", "0"],
        &["explore", "path:5", "--agents", "0,2", "--target", "anon"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_qelectctl"))
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("qelectctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

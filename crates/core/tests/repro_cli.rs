//! The `repro` binary's argument checks: a bad flag value exits 2 with
//! a message naming the valid values, before any simulation runs.

use std::process::Command;

#[test]
fn unknown_benchmark_names_exit_2_naming_the_valid_ones() {
    let dir = std::env::temp_dir().join(format!("colt-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["--quick", "--bench", "Gobmk,Nope", "fig18", "--csv"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark 'Nope'"), "{stderr}");
    assert!(stderr.contains("Gobmk") && stderr.contains("Bzip2"), "{stderr}");
    assert!(!dir.join("results").exists(), "no journal or result file was written");
    let _ = std::fs::remove_dir_all(&dir);
}

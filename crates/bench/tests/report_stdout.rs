//! `report` with its stdout closed, as `report … | head` leaves it once
//! `head` has read enough: the entry still runs, exports and exits 0.

use std::io::pipe;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn a_closed_stdout_stops_the_printing_not_the_run() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (reader, writer) = pipe().unwrap();
    // No reader: the first line `report` prints meets a broken pipe.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["run", "--frames", "300"])
        .current_dir(&dir)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(dir.join("target/experiments/run.json").exists());
}

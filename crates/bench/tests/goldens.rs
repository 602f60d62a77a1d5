//! Byte goldens of `repro`: `repro all` stdout and the `repro --csv`
//! files, against `goldens/repro/` (see `goldens/README.md`).

use std::process::{Command, Output};

// `repro` prints text only: the digest helper serves other goldens.
#[allow(dead_code)]
#[path = "../../../tests/support/golden.rs"]
mod golden;

/// Runs the `repro` binary with `args`; fails the test unless it exits 0.
fn repro(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn repro_all_prints_its_golden() {
    let out = repro(&["all"]);
    golden::check("repro/all.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn repro_csv_writes_its_goldens() {
    let dir = std::env::temp_dir().join(format!("repro-goldens-{}", std::process::id()));
    repro(&["--csv", dir.to_str().expect("utf-8 temp path")]);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("csv dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 9, "{names:?}");
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name)).expect("csv file");
        golden::check(&format!("repro/csv/{name}"), &text);
    }
    std::fs::remove_dir_all(&dir).expect("remove the csv dir");
}

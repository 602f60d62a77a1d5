//! Byte goldens: produced text against a committed file under the
//! repository's `goldens/` directory.
//!
//! A mismatch names the first line that differs, writes the produced
//! bytes under the test target's temporary directory and prints the
//! `cp` that re-blesses them. A large set is kept as one [`digest`] line
//! per item, so its mismatch names the first item that moved.

use std::hash::Hasher as _;
use std::path::{Path, PathBuf};

use dram_core::StableHasher;

/// The repository's `goldens/` directory.
fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("goldens"))
        .find(|dir| dir.is_dir())
        .expect("a goldens/ directory above the package")
}

/// The `StableHasher` digest of `bytes` as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// Fails unless `produced` is byte for byte the golden file `name` (a
/// path under `goldens/`).
pub fn check(name: &str, produced: &str) {
    let golden = goldens().join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == produced {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("goldens")
        .join(name);
    std::fs::create_dir_all(fresh.parent().expect("a file path")).expect("create the tmp dir");
    std::fs::write(&fresh, produced).expect("write the produced bytes");
    let (mut want, mut got) = (expected.lines(), produced.lines());
    // Texts whose lines agree differ in how the last one ends.
    let (line, want, got) = (1..)
        .map(|n| (n, want.next(), got.next()))
        .find(|(_, w, g)| w != g || w.is_none())
        .expect("lines run out");
    panic!(
        "{name} differs from its golden at line {line}:\n  golden:   {}\n  produced: {}\n\
         if the change is deliberate, re-bless it with\n  cp {} {}",
        want.unwrap_or("<end of file>"),
        got.unwrap_or("<end of file>"),
        fresh.display(),
        golden.display()
    );
}

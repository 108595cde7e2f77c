//! Fingerprints the simulator's sources for the result store.
//!
//! Hashes every file under `src/` and `crates/*/src` — relative path and
//! contents, in sorted path order — with FNV-1a 64 and exports the hex
//! digest as `GRIT_MODEL_HASH`. Every resume key embeds it, so a change
//! to the model misses every stored result once and re-runs, while the
//! same sources always give the same hash. Reads nothing else: no
//! network, no clock, no environment.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let root = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let mut roots = vec![root.join("src")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("read crates/ entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    roots.extend(crates);

    let mut files = Vec::new();
    for dir in &roots {
        println!("cargo:rerun-if-changed={}", dir.display());
        collect(dir, &mut files);
    }
    files.sort();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in &files {
        let rel = path.strip_prefix(&root).expect("under the manifest dir");
        let name: Vec<String> =
            rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
        feed(name.join("/").as_bytes());
        feed(&[0]);
        let bytes = fs::read(path).expect("read source file");
        feed(&(bytes.len() as u64).to_le_bytes());
        feed(&bytes);
    }
    println!("cargo:rustc-env=GRIT_MODEL_HASH={h:016x}");
}

/// Appends every regular file under `dir`, recursively.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("read source dir entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

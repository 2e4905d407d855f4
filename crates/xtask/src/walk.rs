//! Workspace file discovery for the analyze pass.
//!
//! Scope: every `.rs` file under `crates/` (sources, unit tests,
//! integration tests, benches), plus the top-level `tests/` and
//! `examples/` trees that the facade crate compiles via path overrides.
//! Excluded:
//!
//! * `shims/` — vendored stand-ins for external crates; they mimic
//!   upstream APIs and are not held to this repo's invariants;
//! * any `fixtures/` directory — analyzer test inputs contain
//!   *intentional* violations;
//! * `target/` build output.

use std::path::{Path, PathBuf};

/// Every workspace `.rs` file the analyze pass operates on, sorted for
/// deterministic diagnostic order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collect `.rs` files, honoring the exclusion list.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            let excluded =
                p.file_name().is_some_and(|n| n == "target" || n == "fixtures" || n == "shims");
            if excluded {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The crate (or top-level tree) a workspace-relative path belongs to:
/// `crates/engine/src/exec.rs` → `engine`, `tests/ingest.rs` → `tests`.
pub fn crate_of(rel: &Path) -> String {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned());
    match comps.next().as_deref() {
        Some("crates") => comps.next().unwrap_or_else(|| "crates".into()),
        Some(top) => top.to_string(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of(Path::new("crates/engine/src/exec.rs")), "engine");
        assert_eq!(crate_of(Path::new("tests/ingest.rs")), "tests");
        assert_eq!(crate_of(Path::new("examples/quickstart.rs")), "examples");
    }

    #[test]
    fn walker_skips_fixtures_and_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
        let files = workspace_files(root).unwrap();
        assert!(!files.is_empty());
        assert!(files.iter().all(|f| {
            let s = f.to_string_lossy();
            !s.contains("/fixtures/") && !s.contains("/target/") && !s.contains("/shims/")
        }));
        // The extended scope actually includes tests and benches.
        assert!(files.iter().any(|f| f.to_string_lossy().contains("crates/columnar/tests/")));
        assert!(files.iter().any(|f| f.starts_with(root.join("examples"))));
    }
}

//! Workspace crate-dependency map used to prune impossible call edges.
//!
//! Name-based call resolution (see `callgraph`) over-approximates: a
//! `.load()` on an atomic would otherwise resolve to any workspace
//! method named `load`, including ones in crates the caller does not
//! even depend on. Cargo already knows which crates a caller can reach,
//! so the graph only keeps edges that follow the (transitive)
//! dependency closure declared in each member's `Cargo.toml`. A
//! crate's `[dev-dependencies]` extend the reach of its test code only:
//! library code cannot call them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Transitive intra-workspace dependency closure, keyed by crate
/// directory name (`crates/engine` → `engine`).
#[derive(Debug, Default)]
pub struct CrateDeps {
    /// What a crate's library code reaches: its `[dependencies]`,
    /// transitively.
    reach: BTreeMap<String, BTreeSet<String>>,
    /// What its test code reaches besides: each `[dev-dependencies]`
    /// entry and that crate's `reach`.
    test_reach: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// Parse every `crates/*/Cargo.toml` under `root`.
    pub fn load(root: &Path) -> std::io::Result<CrateDeps> {
        let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut dev: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let crates = root.join("crates");
        let mut manifests: Vec<(String, String)> = Vec::new();
        if crates.is_dir() {
            for entry in std::fs::read_dir(&crates)? {
                let dir = entry?.path();
                let manifest = dir.join("Cargo.toml");
                if !manifest.is_file() {
                    continue;
                }
                let Some(dir_name) = dir.file_name().map(|n| n.to_string_lossy().into_owned())
                else {
                    continue;
                };
                manifests.push((dir_name, std::fs::read_to_string(&manifest)?));
            }
        }
        // First pass: package name → directory name.
        for (dir_name, text) in &manifests {
            if let Some(pkg) = package_name(text) {
                pkg_to_dir.insert(pkg, dir_name.clone());
            }
        }
        // Second pass: dependency keys, resolved to workspace dirs.
        for (dir_name, text) in &manifests {
            for (section, map) in
                [("[dependencies]", &mut direct), ("[dev-dependencies]", &mut dev)]
            {
                let deps = map.entry(dir_name.clone()).or_default();
                for pkg in dependency_keys(text, section) {
                    if let Some(dep_dir) = pkg_to_dir.get(&pkg) {
                        deps.insert(dep_dir.clone());
                    }
                }
            }
        }
        // Transitive closure (the workspace is small; fixpoint is fine).
        let mut reach = direct.clone();
        loop {
            let mut grew = false;
            for name in direct.keys() {
                let current: Vec<String> =
                    reach.get(name).map(|s| s.iter().cloned().collect()).unwrap_or_default();
                for dep in current {
                    let indirect: Vec<String> =
                        reach.get(&dep).map(|s| s.iter().cloned().collect()).unwrap_or_default();
                    let set = reach.entry(name.clone()).or_default();
                    for extra in indirect {
                        grew |= set.insert(extra);
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let test_reach = dev
            .into_iter()
            .map(|(name, devs)| {
                let beyond = devs.iter().flat_map(|d| reach.get(d).into_iter().flatten());
                let all = beyond.cloned().chain(devs.iter().cloned()).collect();
                (name, all)
            })
            .collect();
        Ok(CrateDeps { reach, test_reach })
    }

    /// Whether code in crate `from` can call into crate `to`; `test`
    /// code (a `#[cfg(test)]` item or a file of the crate's `tests/`)
    /// also reaches the crate's dev-dependencies.
    ///
    /// Unknown callers (the top-level `tests/` and `examples/` trees,
    /// which compile under the facade crate) may reach everything except
    /// the `xtask` tool crate, which nothing depends on.
    pub fn can_call(&self, from: &str, to: &str, test: bool) -> bool {
        if from == to {
            return true;
        }
        if to == "xtask" {
            return false;
        }
        let of_tests = || self.test_reach.get(from).is_some_and(|deps| deps.contains(to));
        match self.reach.get(from) {
            Some(deps) => deps.contains(to) || (test && of_tests()),
            None => true,
        }
    }
}

/// The `name = "..."` value of the `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Keys of the manifest's `section` (`[dependencies]` or
/// `[dev-dependencies]`): package names, in the `foo.workspace = true`
/// and `foo = { .. }` forms.
fn dependency_keys(manifest: &str, section: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == section;
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `gdelt-model.workspace = true` or `gdelt-model = { ... }`.
        let key: String =
            line.chars().take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_').collect();
        if !key.is_empty() {
            keys.push(key);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_and_dependency_names() {
        let m = "\
[package]
name = \"gdelt-engine\"

[dependencies]
gdelt-model.workspace = true
rand = { path = \"../../shims/rand\" }

[dev-dependencies]
gdelt-synth.workspace = true
";
        assert_eq!(package_name(m).as_deref(), Some("gdelt-engine"));
        assert_eq!(dependency_keys(m, "[dependencies]"), vec!["gdelt-model", "rand"]);
        assert_eq!(dependency_keys(m, "[dev-dependencies]"), vec!["gdelt-synth"]);
    }

    #[test]
    fn workspace_closure_is_transitive_and_excludes_xtask() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
        let deps = CrateDeps::load(root).unwrap();
        // engine → columnar directly, and → model transitively.
        assert!(deps.can_call("engine", "columnar", false));
        assert!(deps.can_call("engine", "model", false));
        // engine does not depend on cluster or the xtask tool crate.
        assert!(!deps.can_call("engine", "cluster", false));
        assert!(!deps.can_call("engine", "xtask", true));
        // synth is a dev-dependency of engine: its tests reach it, its
        // library does not.
        assert!(deps.can_call("engine", "synth", true));
        assert!(!deps.can_call("engine", "synth", false));
        // Unknown callers (top-level tests/) reach everything but xtask.
        assert!(deps.can_call("tests", "engine", false));
        assert!(!deps.can_call("tests", "xtask", false));
        // xtask may call itself.
        assert!(deps.can_call("xtask", "xtask", false));
    }
}

//! The semantic pass behind `cargo xtask analyze`.
//!
//! Builds the workspace call graph ([`crate::callgraph`]) over the
//! parsed token streams ([`crate::lex`], [`crate::parse`]) and runs
//! three analyses on it:
//!
//! * `panic_path` — every function annotated `// analyze: no_panic` is
//!   a root; any panic sink reachable from a root through the call
//!   graph — `unwrap` / `expect`, a panicking macro, or an index or
//!   slice with a non-literal bound — is reported with the shortest
//!   call path rendered as `file:line → file:line → …`;
//! * `par_race` — mutation of captured or shared state (`&mut`
//!   captures, `Cell`/`RefCell`, `static mut`) inside a closure passed
//!   to `spawn` (the workspace's one fork is `scope.spawn` in
//!   `ExecContext::map_reduce`), directly or transitively through any
//!   call the closure makes. Transitive writes come from the effect
//!   summaries ([`crate::summaries`], folded bottom-up over the SCC
//!   condensation of the call graph) and the finding renders the full
//!   witness chain down to the write;
//! * `atomic_protocol` — per-atomic-field pairing of store/load
//!   orderings across the whole workspace: a `Relaxed` store to a
//!   field that is `Acquire`-loaded elsewhere, a `Release` store no
//!   load ever consumes, asymmetric fences, and `SeqCst` where the
//!   workspace's publish/consume discipline needs at most
//!   `Release`/`Acquire` all become findings. Test code is
//!   **included**: an unsound ordering in a test masks exactly the race
//!   the test exists to catch.
//!
//! The line rules of [`crate::lint`] (`no_panic`, `id_cast`) run over
//! every file too, so one pass checks everything. A final audit flags
//! **stale markers**: suppression comments that no longer suppress
//! anything or name no rule. `--remove-stale` deletes them.
//!
//! Plus the ratchets against `analyze-baseline.toml`
//! ([`crate::baseline`]): the unsafe inventory, per-crate `#[test]`
//! floors, per-crate counts of marker-suppressed `panic_path` /
//! `par_race` / `atomic_protocol` findings (`[suppressed.*]`) and of
//! stale markers (`[stale.*]`). Findings are suppressed per line with
//! `// analyze: allow(<rule>): <reason>` (a `no_panic` marker also
//! silences the `panic_path` sink it already justifies).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::baseline::{self, Baseline, Inventory};
use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lex::tokenize;
use crate::parse::{parse_file, AtomicKind, ParsedFile};
use crate::source::{SourceFile, MARKER_PREFIX};
use crate::{lint, summaries, walk};

/// The baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.toml";

/// A loaded, parsed workspace ready for analysis.
pub struct Analysis {
    /// Per-file: workspace-relative path, line model, unsafe site count.
    files: Vec<(PathBuf, SourceFile, usize)>,
    /// The call graph over every file.
    graph: CallGraph,
}

/// Everything one full pass produces: the findings plus the per-crate
/// counts the `[suppressed.*]` / `[stale.*]` baseline tables ratchet.
pub struct RunResult {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Marker-suppressed `panic_path` / `par_race` / `atomic_protocol`
    /// findings per crate.
    pub suppressed: BTreeMap<String, usize>,
    /// Stale suppression markers per crate.
    pub stale: BTreeMap<String, usize>,
}

/// Is this workspace-relative path in a tree whose functions are only
/// callable from their own file (integration tests, benches, examples)?
fn in_test_tree(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    s.starts_with("tests/")
        || s.starts_with("examples/")
        || s.contains("/tests/")
        || s.contains("/benches/")
        || s.contains("/examples/")
}

/// Is this path a crate `src/` file (scope of the `par_race` rule)?
fn in_crate_src(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    s.starts_with("crates/") && s.contains("/src/")
}

impl Analysis {
    /// Parse `paths` (workspace-relative to `root`) and build the graph.
    pub fn load(root: &Path, paths: &[PathBuf]) -> Result<Analysis, String> {
        let mut files = Vec::new();
        let mut graph_input: Vec<(PathBuf, ParsedFile, bool)> = Vec::new();
        for p in paths {
            let abs = if p.is_absolute() { p.clone() } else { root.join(p) };
            let src = std::fs::read_to_string(&abs)
                .map_err(|e| format!("reading {}: {e}", abs.display()))?;
            let rel = abs.strip_prefix(root).unwrap_or(p).to_path_buf();
            let file = SourceFile::parse(&src);
            let parsed = parse_file(&file, &tokenize(&file));
            files.push((rel.clone(), file, parsed.unsafe_lines.len()));
            let test_tree = in_test_tree(&rel);
            graph_input.push((rel, parsed, test_tree));
        }
        let deps = crate::deps::CrateDeps::load(root)
            .map_err(|e| format!("reading workspace manifests: {e}"))?;
        let graph = CallGraph::build_filtered(&graph_input, Some(&deps));
        Ok(Analysis { files, graph })
    }

    /// Load every workspace file.
    pub fn load_workspace(root: &Path) -> Result<Analysis, String> {
        let paths =
            walk::workspace_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
        Analysis::load(root, &paths)
    }

    /// Run every analysis; diagnostics are sorted by (path, line, rule).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.run().diagnostics
    }

    /// Run every analysis and collect the baseline count maps. The
    /// stale-marker audit runs last so every rule has consulted its
    /// markers first.
    pub fn run(&self) -> RunResult {
        let mut out = Vec::new();
        let mut suppressed: BTreeMap<String, usize> = BTreeMap::new();
        self.panic_paths(&mut out, &mut suppressed);
        let sums = summaries::compute(&self.graph);
        self.par_races(&sums, &mut out, &mut suppressed);
        self.atomic_protocol(&mut out, &mut suppressed);
        // The line rules: `no_panic`, `id_cast`.
        for (rel, src, _) in &self.files {
            out.extend(lint::lint_file(rel, src));
        }
        let stale = self.stale_markers(&mut out);
        out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        RunResult { diagnostics: out, suppressed, stale }
    }

    /// The unsafe inventory for the baseline ratchet.
    pub fn inventory(&self) -> Inventory {
        let mut inv = Inventory::default();
        for (rel, _, unsafe_sites) in &self.files {
            let krate = walk::crate_of(rel);
            let rel_s = rel.to_string_lossy().replace('\\', "/");
            inv.record(&krate, &rel_s, *unsafe_sites);
        }
        inv
    }

    /// Per-crate `#[test]` counts for the test-count ratchet. Counted
    /// on comment-stripped code lines so a commented-out attribute does
    /// not register; top-level `tests/` files bucket under `tests`.
    pub fn test_counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (rel, src, _) in &self.files {
            let krate = walk::crate_of(rel);
            let n = src.lines.iter().filter(|l| l.code.trim() == "#[test]").count();
            if n > 0 {
                *counts.entry(krate).or_default() += n;
            }
        }
        counts
    }

    /// The `SourceFile` backing a graph node's file.
    fn source_of(&self, file_idx: usize) -> &SourceFile {
        &self.files[file_idx].1
    }

    /// `panic_path`: BFS from each `no_panic` root; report each
    /// unsuppressed sink in every reachable function once, with the
    /// shortest path from the nearest root.
    fn panic_paths(&self, out: &mut Vec<Diagnostic>, suppressed: &mut BTreeMap<String, usize>) {
        let roots: Vec<usize> = self
            .graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.func.no_panic && !n.func.is_test)
            .map(|(i, _)| i)
            .collect();
        // node -> best (hops, root, path) over all roots.
        let mut best: BTreeMap<usize, (usize, usize, Vec<crate::callgraph::PathHop>)> =
            BTreeMap::new();
        for &root in &roots {
            let paths = self.graph.shortest_paths(root);
            for (node, path) in paths.into_iter().enumerate() {
                let Some(path) = path else { continue };
                let hops = path.len() - 1;
                let better = best.get(&node).map(|(h, _, _)| hops < *h).unwrap_or(true);
                if better {
                    best.insert(node, (hops, root, path));
                }
            }
        }
        for (&node, (hops, root, path)) in &best {
            let n = &self.graph.nodes[node];
            let src = self.source_of(n.file_idx);
            let krate = walk::crate_of(&n.path);
            let root_n = &self.graph.nodes[*root];
            for sink in &n.func.sinks {
                // `allow(panic_path)` or the line rule's `allow(no_panic)`
                // silences a sink.
                if suppressed_by(src, sink.line, &["panic_path", "no_panic"], &krate, suppressed) {
                    continue;
                }
                let message = if *hops == 0 {
                    format!(
                        "panic sink {} inside `no_panic` kernel `{}`",
                        sink.what,
                        root_n.func.display()
                    )
                } else {
                    format!(
                        "panic sink {} reachable from `no_panic` kernel `{}` ({} call{} away)",
                        sink.what,
                        root_n.func.display(),
                        hops,
                        if *hops == 1 { "" } else { "s" }
                    )
                };
                let mut d = Diagnostic::new(&n.path, sink.line, "panic_path", message);
                d.notes.push(render_path(&self.graph, path, &n.path, sink.line));
                if *hops > 0 {
                    let chain: Vec<String> = path
                        .iter()
                        .map(|h| format!("`{}`", self.graph.nodes[h.node].func.display()))
                        .collect();
                    d.notes.push(format!("call chain: {}", chain.join(" → ")));
                }
                out.push(d);
            }
        }
    }

    /// `par_race`: mutation of captured or shared state inside a
    /// spawned-thread closure — directly, or transitively through any
    /// call the closure makes, witnessed by the effect summaries with a
    /// rendered chain to the write.
    fn par_races(
        &self,
        sums: &[summaries::Summary],
        out: &mut Vec<Diagnostic>,
        suppressed: &mut BTreeMap<String, usize>,
    ) {
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let src = self.source_of(n.file_idx);
            let krate = walk::crate_of(&n.path);
            // Direct: writes to captured bindings / interior-mutable
            // cells / `static mut` recorded inside the closure itself.
            for w in &n.func.par_writes {
                if suppressed_by(src, w.line, &["par_race"], &krate, suppressed) {
                    continue;
                }
                out.push(Diagnostic::new(
                    &n.path,
                    w.line,
                    "par_race",
                    format!(
                        "data race: {} inside a spawned closure in `{}`; every worker \
                         shares this binding — return per-worker state from the closure, \
                         as `ExecContext::map_reduce` does, or justify with \
                         `// analyze: allow(par_race): <reason>`",
                        w.what,
                        n.func.display()
                    ),
                ));
            }
            // Transitive: a call made inside the closure whose callee
            // summary reaches a shared-state write.
            let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
            for c in n.func.calls.iter().filter(|c| c.in_spawn) {
                for e in &self.graph.out[id] {
                    if e.line != c.line || e.to == id {
                        continue;
                    }
                    let callee = &self.graph.nodes[e.to];
                    if callee.func.name != c.name {
                        continue;
                    }
                    for w in &sums[e.to].shared_mut {
                        if !seen.insert((c.line, w.what.clone())) {
                            continue;
                        }
                        if suppressed_by(src, c.line, &["par_race"], &krate, suppressed) {
                            continue;
                        }
                        let mut chain = vec![summaries::Hop { node: id, line: c.line }];
                        chain.extend(w.chain.iter().cloned());
                        let mut d = Diagnostic::new(
                            &n.path,
                            c.line,
                            "par_race",
                            format!(
                                "data race: call to `{}` inside a spawned closure in `{}` \
                                 reaches {}; synchronize the write or justify with \
                                 `// analyze: allow(par_race): <reason>`",
                                callee.func.display(),
                                n.func.display(),
                                w.what
                            ),
                        );
                        d.notes.push(format!(
                            "path: {}",
                            summaries::render_chain(&self.graph, &chain)
                        ));
                        out.push(d);
                    }
                }
            }
        }
    }

    /// `atomic_protocol`: per-field pairing of store/load orderings
    /// across the workspace. Fields are grouped by `(crate, name)` — a
    /// name-based over-approximation, like call resolution.
    /// Test code is included (`in_test` ops are facts too): an unsound
    /// ordering in a test masks the race the test exists to catch.
    fn atomic_protocol(&self, out: &mut Vec<Diagnostic>, suppressed: &mut BTreeMap<String, usize>) {
        struct Site {
            node: usize,
            line: usize,
            kind: AtomicKind,
            ordering: String,
        }
        let mut groups: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            for a in &n.func.atomics {
                groups.entry((walk::crate_of(&n.path), a.field.clone())).or_default().push(Site {
                    node: id,
                    line: a.line,
                    kind: a.kind,
                    ordering: a.ordering.clone(),
                });
            }
        }
        let push = |out: &mut Vec<Diagnostic>,
                    suppressed: &mut BTreeMap<String, usize>,
                    site: &Site,
                    krate: &str,
                    message: String,
                    note: Option<String>| {
            let n = &self.graph.nodes[site.node];
            let src = self.source_of(n.file_idx);
            if suppressed_by(src, site.line, &["atomic_protocol"], krate, suppressed) {
                return;
            }
            let mut d = Diagnostic::new(&n.path, site.line, "atomic_protocol", message);
            if let Some(note) = note {
                d.notes.push(note);
            }
            out.push(d);
        };
        let release = |o: &str| matches!(o, "Release" | "AcqRel" | "SeqCst");
        let acquire = |o: &str| matches!(o, "Acquire" | "AcqRel" | "SeqCst");
        for ((krate, field), sites) in &groups {
            if field == "<fence>" {
                // Fences pair Release-side with Acquire-side; a crate
                // with fences of only one side synchronizes nothing.
                let rel = sites.iter().any(|s| release(&s.ordering));
                let acq = sites.iter().any(|s| acquire(&s.ordering));
                if rel != acq {
                    let (have, miss) =
                        if rel { ("Release", "Acquire") } else { ("Acquire", "Release") };
                    for s in sites {
                        push(
                            out,
                            suppressed,
                            s,
                            krate,
                            format!(
                                "asymmetric fence: `fence({})` with no {miss}-side fence \
                                 in crate `{krate}` — it synchronizes with nothing",
                                s.ordering
                            ),
                            Some(format!("every fence in this crate is {have}-side")),
                        );
                    }
                }
                continue;
            }
            let stores: Vec<&Site> = sites
                .iter()
                .filter(|s| matches!(s.kind, AtomicKind::Store | AtomicKind::Rmw))
                .collect();
            let loads: Vec<&Site> = sites
                .iter()
                .filter(|s| matches!(s.kind, AtomicKind::Load | AtomicKind::Rmw))
                .collect();
            let acq_load = loads.iter().find(|s| acquire(&s.ordering));
            let rel_store = stores.iter().find(|s| release(&s.ordering));
            // SeqCst: the workspace's protocols are all publish/consume
            // pairs — `Release`/`Acquire` (or `Relaxed` for counters)
            // always suffices; a total order is never required.
            for s in sites {
                if s.ordering == "SeqCst" {
                    let suggest = match s.kind {
                        AtomicKind::Store => "`Release` (or `Relaxed` for a pure counter)",
                        AtomicKind::Load => "`Acquire` (or `Relaxed` for a pure counter)",
                        AtomicKind::Rmw => "`AcqRel` (or `Relaxed` for a pure counter)",
                        AtomicKind::Fence => "`Release`/`Acquire`",
                    };
                    push(
                        out,
                        suppressed,
                        s,
                        krate,
                        format!(
                            "`SeqCst` on `{field}`: no access of this field requires a \
                             total order — {suggest} suffices, or justify with \
                             `// analyze: allow(atomic_protocol): <reason>`"
                        ),
                        None,
                    );
                }
            }
            // A Relaxed store to a field somebody Acquire-loads: the
            // load synchronizes-with nothing.
            if let Some(al) = acq_load {
                for s in &stores {
                    if s.ordering == "Relaxed" {
                        let fix = if s.kind == AtomicKind::Rmw { "AcqRel" } else { "Release" };
                        push(
                            out,
                            suppressed,
                            s,
                            krate,
                            format!(
                                "`Relaxed` store to `{field}`, which is Acquire-loaded at \
                                 {}:{} — the load synchronizes-with nothing; use `{fix}` \
                                 or downgrade the load",
                                self.graph.nodes[al.node].path.display(),
                                al.line
                            ),
                            None,
                        );
                    }
                }
            }
            // A Release store nothing consumes: the publication fence
            // is paid but every load is Relaxed.
            if acq_load.is_none() && !loads.is_empty() {
                if let Some(rs) = rel_store {
                    if rs.ordering == "Release" {
                        push(
                            out,
                            suppressed,
                            rs,
                            krate,
                            format!(
                                "`Release` store to `{field}` but every load of it is \
                                 `Relaxed` — nothing consumes the publication; upgrade a \
                                 load to `Acquire` or downgrade the store"
                            ),
                            Some(format!("{} load site(s) of `{field}`, all Relaxed", loads.len())),
                        );
                    }
                }
            }
        }
    }

    /// Flag suppression markers that no longer suppress anything. Every
    /// rule has already recorded its lookups by the time this runs (it
    /// must be the last pass in [`Analysis::run`]).
    fn stale_markers(&self, out: &mut Vec<Diagnostic>) -> BTreeMap<String, usize> {
        let mut stale: BTreeMap<String, usize> = BTreeMap::new();
        for (rel, src, _) in &self.files {
            let used = src.used_markers();
            for (line, rule) in src.markers() {
                let known = MARKER_RULES.contains(&rule.as_str());
                if known && used.contains(&(line, rule.clone())) {
                    continue;
                }
                *stale.entry(walk::crate_of(rel)).or_default() += 1;
                let message = if known {
                    format!(
                        "stale marker: `allow({rule})` suppresses nothing on this line — \
                         delete it or run `cargo xtask analyze --remove-stale`"
                    )
                } else {
                    format!(
                        "stale marker: no rule is named `{rule}` — delete it or run \
                         `cargo xtask analyze --remove-stale`"
                    )
                };
                out.push(Diagnostic::new(rel, line, "stale_marker", message));
            }
        }
        stale
    }
}

/// Every rule a suppression marker can legitimately name: the line
/// rules, then the call-graph and summary rules.
const MARKER_RULES: &[&str] = &["no_panic", "id_cast", "panic_path", "par_race", "atomic_protocol"];

/// Consult the markers for `rules` at `line`; a hit counts into the
/// `[suppressed.*]` table.
fn suppressed_by(
    src: &SourceFile,
    line: usize,
    rules: &[&str],
    krate: &str,
    suppressed: &mut BTreeMap<String, usize>,
) -> bool {
    let hit = rules.iter().any(|rule| src.allowed(line, rule));
    if hit {
        *suppressed.entry(krate.to_string()).or_default() += 1;
    }
    hit
}

/// Render a call path plus the sink as `file:line → file:line → …`.
///
/// Hop 0 is the kernel's declaration; each later hop is the call site
/// (in the caller's file); the final element is the sink itself.
fn render_path(
    graph: &CallGraph,
    path: &[crate::callgraph::PathHop],
    sink_path: &Path,
    sink_line: usize,
) -> String {
    let mut parts = Vec::new();
    let root = &graph.nodes[path[0].node];
    parts.push(format!("{}:{}", root.path.display(), root.func.decl_line));
    for i in 1..path.len() {
        let caller = &graph.nodes[path[i - 1].node];
        parts.push(format!("{}:{}", caller.path.display(), path[i].via_line));
    }
    parts.push(format!("{}:{}", sink_path.display(), sink_line));
    format!("path: {}", parts.join(" → "))
}

/// Check the measured inventory and counts against the committed
/// baseline, rendering ratchet violations as diagnostics against the
/// baseline file.
pub fn check_baseline(
    root: &Path,
    inventory: &Inventory,
    test_counts: &BTreeMap<String, usize>,
    suppressed: &BTreeMap<String, usize>,
    stale: &BTreeMap<String, usize>,
) -> Result<Vec<Diagnostic>, String> {
    let base = baseline::load(&root.join(BASELINE_FILE))?;
    let at = |rule: &'static str| {
        move |e: baseline::RatchetError| {
            Diagnostic::new(Path::new(BASELINE_FILE), 1, rule, e.to_string())
        }
    };
    let unsafe_errs = baseline::check(&base, inventory).into_iter().map(at("unsafe_ratchet"));
    let test_errs = baseline::check_tests(&base, test_counts).into_iter().map(at("test_ratchet"));
    let sup_errs =
        baseline::check_suppressed(&base, suppressed).into_iter().map(at("suppressed_ratchet"));
    let stale_errs = baseline::check_stale(&base, stale).into_iter().map(at("stale_ratchet"));
    Ok(unsafe_errs.chain(test_errs).chain(sup_errs).chain(stale_errs).collect())
}

/// Rewrite the baseline from the current inventory and count maps,
/// carrying forward existing reasons. Returns the written path.
pub fn update_baseline(
    root: &Path,
    inventory: &Inventory,
    test_counts: &BTreeMap<String, usize>,
    suppressed: &BTreeMap<String, usize>,
    stale: &BTreeMap<String, usize>,
) -> Result<PathBuf, String> {
    let path = root.join(BASELINE_FILE);
    let prev = baseline::load(&path).unwrap_or_else(|_| Baseline::default());
    let next = baseline::from_inventory(inventory, test_counts, suppressed, stale, &prev);
    std::fs::write(&path, baseline::serialize(&next))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Delete the markers behind `stale_marker` diagnostics. A line whose
/// code part is blank (marker-only line) is removed whole; a trailing
/// marker is cut at its `//`. Returns the number of markers removed.
pub fn remove_stale_markers(root: &Path, diagnostics: &[Diagnostic]) -> Result<usize, String> {
    let mut by_file: BTreeMap<&Path, Vec<usize>> = BTreeMap::new();
    for d in diagnostics {
        if d.rule == "stale_marker" {
            by_file.entry(d.path.as_path()).or_default().push(d.line);
        }
    }
    let mut removed = 0usize;
    for (rel, mut lines) in by_file {
        let abs = root.join(rel);
        let text =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let had_final_newline = text.ends_with('\n');
        let mut out: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort_unstable();
        lines.dedup();
        for &lineno in lines.iter().rev() {
            let Some(raw) = out.get(lineno - 1) else { continue };
            let Some(cut) = raw.find(&format!("// {MARKER_PREFIX}")) else { continue };
            if raw[..cut].trim().is_empty() {
                out.remove(lineno - 1);
            } else {
                let trimmed = raw[..cut].trim_end().to_string();
                out[lineno - 1] = trimmed;
            }
            removed += 1;
        }
        let mut body = out.join("\n");
        if had_final_newline {
            body.push('\n');
        }
        std::fs::write(&abs, body).map_err(|e| format!("writing {}: {e}", abs.display()))?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build an `Analysis` from in-memory sources by writing them to a
    /// temp dir (the loader wants real files).
    fn analysis(srcs: &[(&str, &str)]) -> Analysis {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xtask-analyze-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut paths = Vec::new();
        for (rel, src) in srcs {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(&p, src).unwrap();
            paths.push(PathBuf::from(rel));
        }
        Analysis::load(&dir, &paths).unwrap()
    }

    #[test]
    fn panic_path_reports_shortest_route() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(v: &[u32]) -> u32 {
    middle(v)
}
fn middle(v: &[u32]) -> u32 {
    bottom(v)
}
fn bottom(v: &[u32]) -> u32 {
    v.first().unwrap() + 1
}
",
        )]);
        let d = a.diagnostics();
        let p: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "panic_path").collect();
        assert_eq!(p.len(), 1, "{d:?}");
        assert_eq!(p[0].line, 9);
        assert!(p[0].message.contains("2 calls away"), "{}", p[0].message);
        assert_eq!(
            p[0].notes[0],
            "path: crates/a/src/lib.rs:2 → crates/a/src/lib.rs:3 → \
             crates/a/src/lib.rs:6 → crates/a/src/lib.rs:9"
        );
        assert!(p[0].notes[1].contains("`kernel` → `middle` → `bottom`"));
    }

    #[test]
    fn marker_silences_panic_path() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(v: &[u32]) -> u32 {
    // analyze: allow(panic_path): v is non-empty by construction
    v.first().unwrap() + 1
}
",
        )]);
        assert!(a.diagnostics().iter().all(|d| d.rule != "panic_path"));
    }

    #[test]
    fn seqcst_flagged_under_atomic_protocol_and_marker_suppresses() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
use std::sync::atomic::{AtomicU32, Ordering};
pub fn bump(c: &AtomicU32) {
    c.fetch_add(1, Ordering::SeqCst);
}
pub fn bump_justified(d: &AtomicU32) {
    // analyze: allow(atomic_protocol): total order needed for the epoch handshake
    d.fetch_add(1, Ordering::SeqCst);
}
",
        )]);
        let run = a.run();
        let s: Vec<&Diagnostic> =
            run.diagnostics.iter().filter(|d| d.rule == "atomic_protocol").collect();
        assert_eq!(s.len(), 1, "{:?}", run.diagnostics);
        assert_eq!(s[0].line, 3);
        assert!(s[0].message.contains("SeqCst"), "{}", s[0].message);
        // The marker suppressed the second site, is counted in the
        // [suppressed.*] table, and is not stale.
        assert_eq!(run.suppressed.get("a"), Some(&1));
        assert!(!run.diagnostics.iter().any(|d| d.rule == "stale_marker"), "{:?}", run.diagnostics);
    }

    #[test]
    fn atomic_protocol_pairs_stores_and_loads_across_functions() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
use std::sync::atomic::{AtomicU64, Ordering};
pub fn publish(g: &AtomicU64) {
    g.store(1, Ordering::Relaxed);
}
pub fn consume(g: &AtomicU64) -> u64 {
    g.load(Ordering::Acquire)
}
pub fn counter_ok(hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
}
pub fn counter_read(hits: &AtomicU64) -> u64 {
    hits.load(Ordering::Relaxed)
}
",
        )]);
        let d = a.diagnostics();
        let s: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "atomic_protocol").collect();
        assert_eq!(s.len(), 1, "{d:?}");
        assert_eq!(s[0].line, 3, "the Relaxed store to the Acquire-loaded field");
        assert!(s[0].message.contains("synchronizes-with nothing"), "{}", s[0].message);
        assert!(!d.iter().any(|x| x.line >= 8), "all-Relaxed counters are clean: {d:?}");
    }

    #[test]
    fn atomic_protocol_flags_unconsumed_release_store() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
use std::sync::atomic::{AtomicU64, Ordering};
pub fn publish(g: &AtomicU64) {
    g.store(1, Ordering::Release);
}
pub fn peek(g: &AtomicU64) -> u64 {
    g.load(Ordering::Relaxed)
}
",
        )]);
        let d = a.diagnostics();
        let s: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "atomic_protocol").collect();
        assert_eq!(s.len(), 1, "{d:?}");
        assert_eq!(s[0].line, 3);
        assert!(s[0].message.contains("nothing consumes"), "{}", s[0].message);
    }

    #[test]
    fn atomic_protocol_sees_test_code() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
use std::sync::atomic::{AtomicU32, Ordering};
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let c = std::sync::atomic::AtomicU32::new(0);
        c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}
",
        )]);
        let d = a.diagnostics();
        assert!(
            d.iter().any(|d| d.rule == "atomic_protocol" && d.line == 7),
            "test-code orderings are findings too: {d:?}"
        );
    }

    #[test]
    fn par_race_direct_and_transitive() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
static mut TOTAL: u64 = 0;
pub fn direct(xs: &[u32], out: &mut Vec<u32>) {
    std::thread::scope(|scope| {
        scope.spawn(|| out.extend_from_slice(xs));
    });
}
pub fn transitive(xs: &[u32]) {
    std::thread::scope(|scope| {
        scope.spawn(move || {
            bump(xs.len() as u64);
        });
    });
}
fn bump(n: u64) {
    unsafe { TOTAL += n };
}
",
        )]);
        let d = a.diagnostics();
        let races: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "par_race").collect();
        assert!(races.iter().any(|d| d.line == 4 && d.message.contains("`out`")), "{races:?}");
        let t = races
            .iter()
            .find(|d| d.line == 10 && d.message.contains("`bump`"))
            .unwrap_or_else(|| panic!("transitive race missing: {races:?}"));
        assert!(t.message.contains("TOTAL"), "{}", t.message);
        assert!(
            t.notes.iter().any(|n| n.starts_with("path: ") && n.contains(":15")),
            "witness chain reaches the write: {:?}",
            t.notes
        );
    }

    #[test]
    fn par_race_marker_suppresses_and_counts() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
pub fn f(xs: &[u32], out: &mut Vec<u32>) {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // analyze: allow(par_race): the only worker; the scope joins before reads
            out.extend_from_slice(xs);
        });
    });
}
",
        )]);
        let run = a.run();
        assert!(!run.diagnostics.iter().any(|d| d.rule == "par_race"), "{:?}", run.diagnostics);
        assert_eq!(run.suppressed.get("a"), Some(&1));
    }

    #[test]
    fn index_sink_is_a_panic_path_finding_with_its_route() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(xs: &[u32], k: usize) -> u32 {
    helper(xs, k) + xs[0]
}
fn helper(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
",
        )]);
        let d = a.diagnostics();
        let p: Vec<&Diagnostic> = d.iter().filter(|x| x.rule == "panic_path").collect();
        assert_eq!(p.len(), 1, "a literal index is no sink: {d:?}");
        assert_eq!(p[0].line, 6);
        assert!(p[0].message.contains("`xs[i]`"), "{}", p[0].message);
        assert!(p[0].message.contains("1 call away"), "{}", p[0].message);
        assert_eq!(
            p[0].notes[0],
            "path: crates/a/src/lib.rs:2 → crates/a/src/lib.rs:3 → crates/a/src/lib.rs:6"
        );
    }

    #[test]
    fn panic_path_marker_on_an_index_site_suppresses_and_counts() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(xs: &[u32], k: usize) -> u32 {
    helper(xs, k)
}
fn helper(xs: &[u32], i: usize) -> u32 {
    // analyze: allow(panic_path): caller guarantees i < xs.len()
    xs[i]
}
",
        )]);
        let run = a.run();
        assert!(!run.diagnostics.iter().any(|x| x.rule == "panic_path"), "{:?}", run.diagnostics);
        assert_eq!(run.suppressed.get("a"), Some(&1), "suppression counted at the site");
        assert!(
            !run.diagnostics.iter().any(|d| d.rule == "stale_marker"),
            "consulted marker is not stale: {:?}",
            run.diagnostics
        );
    }

    #[test]
    fn inventory_counts_unsafe_per_crate() {
        let a = analysis(&[
            (
                "crates/a/src/lib.rs",
                "pub fn f() {\n    // SAFETY: test\n    unsafe { std::hint::spin_loop() }\n}\n",
            ),
            ("crates/b/src/lib.rs", "pub fn g() {}\n"),
        ]);
        let inv = a.inventory();
        assert_eq!(inv.count("a"), 1);
        assert_eq!(inv.count("b"), 0);
    }
}

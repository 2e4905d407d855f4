//! The semantic pass behind `cargo xtask analyze`.
//!
//! Builds the workspace call graph ([`crate::callgraph`]) over the
//! parsed token streams ([`crate::lex`], [`crate::parse`]) and runs
//! five analyses:
//!
//! * `panic_path` — every function annotated `// analyze: no_panic` is
//!   a root; any panic sink reachable from a root through the call
//!   graph is reported with the shortest call path rendered as
//!   `file:line → file:line → …`;
//! * `hot_alloc` — allocations inside rayon parallel closures
//!   (anywhere in crate sources) and inside loop bodies of
//!   panic-freedom kernels;
//! * `obs_hot_path` — observability recording calls (`gdelt_obs`
//!   spans, flight events, registry lookups) inside parallel closures
//!   or loop bodies of panic-freedom kernels: spans buffer a record
//!   and flight events take the ring lock, so per-row recording
//!   serializes exactly the regions the paper parallelizes;
//! * `lock_par` — `Mutex`/`RwLock` acquisition inside a parallel
//!   closure serializes the region;
//! * `lock_cycle` — the lexical lock-order graph must be acyclic.
//!
//! Two concurrency-soundness rules ride on the interprocedural effect
//! summaries ([`crate::summaries`], folded bottom-up over the SCC
//! condensation of the call graph):
//!
//! * `par_race` — mutation of captured or shared state (`&mut`
//!   captures, `Cell`/`RefCell`, `static mut`) inside a parallel
//!   closure or spawned-thread closure, directly or transitively
//!   through any call the closure makes (the finding renders the full
//!   witness chain down to the write);
//! * `atomic_protocol` — per-atomic-field pairing of store/load
//!   orderings across the whole workspace: a `Relaxed` store to a
//!   field that is `Acquire`-loaded elsewhere, a `Release` store no
//!   load ever consumes, asymmetric fences, and `SeqCst` where the
//!   workspace's publish/consume discipline needs at most
//!   `Release`/`Acquire` all become findings. Test code is
//!   **included**: an unsound ordering in a test masks exactly the race
//!   the test exists to catch.
//!
//! On top of those, three dataflow rules run the fixpoint engine
//! ([`crate::dataflow`]) over statement-level CFGs ([`crate::cfg`]):
//!
//! * `index_bounds` — the interval prover ([`crate::bounds`]) must
//!   discharge every `xs[i]` site reachable from a `no_panic` kernel;
//!   it owns the `SinkKind::Index` sinks `panic_path` used to report.
//!   Obligations the prover cannot close locally but can state over
//!   the function's parameters **lift to callers as preconditions**:
//!   each call site substitutes its actual arguments and retries the
//!   proof with the caller's facts; obligations still open at a
//!   `no_panic` root are reported there with the full call chain;
//! * `guard_across_await_or_call` — a `Mutex`/`RwLock` guard live
//!   across a call into another workspace crate ([`crate::guard`]);
//! * `result_discard` — a `Result` from a workspace call dropped on
//!   the floor in serve/engine hot paths ([`crate::discard`]).
//!
//! The line rules of [`crate::lint`] (`no_panic`, `id_cast`,
//! `par_index`) run over every file too, so one pass checks everything.
//! A final audit flags **stale markers**: suppression comments that no
//! longer suppress anything. `--remove-stale` deletes them.
//!
//! Plus the ratcheting unsafe inventory against `analyze-baseline.toml`
//! ([`crate::baseline`]), which also records per-crate dataflow
//! suppression counts (`[dataflow.*]`) and stale-marker counts
//! (`[stale.*]`). Findings are suppressed per-line with
//! `// analyze: allow(<rule>): <reason>` (a `no_panic` / `par_index`
//! marker also silences the `panic_path` / `index_bounds` sink it
//! already justifies).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::baseline::{self, Baseline, Inventory};
use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lex::{tokenize, TokKind, Token};
use crate::parse::{parse_file, AtomicKind, ParsedFile, SinkKind};
use crate::source::{SourceFile, MARKER_PREFIX};
use crate::{bounds, discard, guard, lint, summaries, walk};

/// The baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.toml";

/// A loaded, parsed workspace ready for analysis.
pub struct Analysis {
    /// Per-file: workspace-relative path, line model, token stream,
    /// parsed facts, in-test-tree flag.
    files: Vec<(PathBuf, SourceFile, Vec<Token>, ParsedFile, bool)>,
    /// The call graph over every file.
    graph: CallGraph,
}

/// Everything one full pass produces: the findings plus the per-crate
/// counts the `[dataflow.*]` / `[stale.*]` baseline tables ratchet.
pub struct RunResult {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Marker-suppressed dataflow findings per crate.
    pub dataflow: BTreeMap<String, usize>,
    /// Stale suppression markers per crate.
    pub stale: BTreeMap<String, usize>,
    /// Marker-suppressed summary-rule findings (`par_race`,
    /// `atomic_protocol`) per crate.
    pub summary: BTreeMap<String, usize>,
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

/// Is this path a crate `src/` file (scope of the `hot_alloc` rule)?
fn in_crate_src(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    s.starts_with("crates/") && s.contains("/src/")
}

impl Analysis {
    /// Parse `paths` (workspace-relative to `root`) and build the graph.
    pub fn load(root: &Path, paths: &[PathBuf]) -> Result<Analysis, String> {
        let mut files = Vec::new();
        for p in paths {
            let abs = if p.is_absolute() { p.clone() } else { root.join(p) };
            let src = std::fs::read_to_string(&abs)
                .map_err(|e| format!("reading {}: {e}", abs.display()))?;
            let rel = abs.strip_prefix(root).unwrap_or(p).to_path_buf();
            let file = SourceFile::parse(&src);
            let tokens = tokenize(&file);
            let parsed = parse_file(&file, &tokens);
            let test_tree = in_test_tree(&rel);
            files.push((rel, file, tokens, parsed, test_tree));
        }
        let graph_input: Vec<(PathBuf, ParsedFile, bool)> = files
            .iter()
            .map(|(rel, _, _, parsed, tt)| (rel.clone(), parsed.clone(), *tt))
            .collect();
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
        let mut dataflow: BTreeMap<String, usize> = BTreeMap::new();
        let mut summary: BTreeMap<String, usize> = BTreeMap::new();
        self.panic_paths(&mut out);
        self.hot_allocs(&mut out);
        self.obs_hot_paths(&mut out);
        self.lock_discipline(&mut out);
        self.lock_cycles(&mut out);
        let sums = summaries::compute(&self.graph);
        self.par_races(&sums, &mut out, &mut summary);
        self.atomic_protocol(&mut out, &mut summary);
        self.index_bounds(&mut out, &mut dataflow);
        self.guard_across_calls(&mut out, &mut dataflow);
        self.result_discards(&mut out, &mut dataflow);
        // The line rules: `no_panic`, `id_cast`, `par_index`.
        for (rel, src, _, _, _) in &self.files {
            out.extend(lint::lint_file(rel, src));
        }
        let stale = self.stale_markers(&mut out);
        out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        RunResult { diagnostics: out, dataflow, stale, summary }
    }

    /// The unsafe inventory for the baseline ratchet.
    pub fn inventory(&self) -> Inventory {
        let mut inv = Inventory::default();
        for (rel, _, _, parsed, _) in &self.files {
            let krate = walk::crate_of(rel);
            let rel_s = rel.to_string_lossy().replace('\\', "/");
            inv.record(&krate, &rel_s, parsed.unsafe_lines.len());
        }
        inv
    }

    /// Per-crate `#[test]` counts for the test-count ratchet. Counted
    /// on comment-stripped code lines so a commented-out attribute does
    /// not register; top-level `tests/` files bucket under `tests`.
    pub fn test_counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (rel, src, _, _, _) in &self.files {
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

    /// Functions on a `no_panic` root's reachable set (roots included).
    fn hot_set(&self) -> Vec<bool> {
        let mut hot = vec![false; self.graph.nodes.len()];
        for (i, n) in self.graph.nodes.iter().enumerate() {
            if n.func.no_panic && !n.func.is_test {
                for (j, p) in self.graph.shortest_paths(i).iter().enumerate() {
                    if p.is_some() {
                        hot[j] = true;
                    }
                }
            }
        }
        hot
    }

    /// `panic_path`: BFS from each `no_panic` root; report each
    /// unsuppressed sink in every reachable function once, with the
    /// shortest path from the nearest root.
    fn panic_paths(&self, out: &mut Vec<Diagnostic>) {
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
            let root_n = &self.graph.nodes[*root];
            for sink in &n.func.sinks {
                // Index sinks belong to the `index_bounds` prover now:
                // proven sites are silent, unproven ones carry their
                // obligation instead of a bare "panic sink" report.
                if sink.kind == SinkKind::Index {
                    continue;
                }
                // `allow(panic_path)` or the line rule's `allow(no_panic)`
                // silences a sink.
                if src.allowed(sink.line, "panic_path") || src.allowed(sink.line, "no_panic") {
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

    /// `hot_alloc`: allocations inside parallel closures (crate `src/`
    /// scope) and loop-body allocations in panic-freedom kernels.
    fn hot_allocs(&self, out: &mut Vec<Diagnostic>) {
        // Functions on a no_panic root's reachable set count as kernels
        // for the loop rule.
        let hot = self.hot_set();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let src = self.source_of(n.file_idx);
            for a in &n.func.allocs {
                let flagged = a.in_par || (a.in_loop && hot[id]);
                if !flagged || src.allowed(a.line, "hot_alloc") {
                    continue;
                }
                let ctx = if a.in_par {
                    "a parallel closure"
                } else {
                    "a per-row loop of a `no_panic` kernel"
                };
                out.push(Diagnostic::new(
                    &n.path,
                    a.line,
                    "hot_alloc",
                    format!(
                        "allocation {} inside {ctx} in `{}`; hoist it out of the hot \
                         region or justify with `// analyze: allow(hot_alloc): <reason>`",
                        a.what,
                        n.func.display()
                    ),
                ));
            }
        }
    }

    /// `obs_hot_path`: `gdelt_obs` recording calls inside parallel
    /// closures (crate `src/` scope) or loop bodies of panic-freedom
    /// kernels. One span per partition is the intended grain; one per
    /// row buys nothing and costs a sink append (or, for flight
    /// events, the ring lock) per element.
    fn obs_hot_paths(&self, out: &mut Vec<Diagnostic>) {
        /// Recording entry points plus the registry lookups — the
        /// lookups take the registry lock, so a hot loop must resolve
        /// its handle once outside (see `engine::query::kernel_metrics`).
        const OBS_CALLS: [&str; 9] = [
            "span",
            "span_args",
            "flight",
            "flight_info",
            "flight_warn",
            "flight_error",
            "counter",
            "gauge",
            "histogram",
        ];
        let hot = self.hot_set();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let src = self.source_of(n.file_idx);
            for c in &n.func.calls {
                let flagged =
                    OBS_CALLS.contains(&c.name.as_str()) && (c.in_par || (c.in_loop && hot[id]));
                if !flagged || src.allowed(c.line, "obs_hot_path") {
                    continue;
                }
                let ctx = if c.in_par {
                    "a parallel closure"
                } else {
                    "a per-row loop of a `no_panic` kernel"
                };
                out.push(Diagnostic::new(
                    &n.path,
                    c.line,
                    "obs_hot_path",
                    format!(
                        "observability call `{}(..)` inside {ctx} in `{}`; record once \
                         per partition (resolve registry handles outside the loop) or \
                         justify with `// analyze: allow(obs_hot_path): <reason>`",
                        c.name,
                        n.func.display()
                    ),
                ));
            }
        }
    }

    /// `lock_par`: lock acquisition inside a parallel closure.
    fn lock_discipline(&self, out: &mut Vec<Diagnostic>) {
        for n in &self.graph.nodes {
            if n.func.is_test {
                continue;
            }
            let src = self.source_of(n.file_idx);
            for l in &n.func.locks {
                if !l.in_par || src.allowed(l.line, "lock_par") {
                    continue;
                }
                out.push(Diagnostic::new(
                    &n.path,
                    l.line,
                    "lock_par",
                    format!(
                        "lock `{}` acquired inside a parallel closure in `{}`; \
                         contention serializes the region — use per-worker state \
                         and merge, or justify the lock",
                        l.name,
                        n.func.display()
                    ),
                ));
            }
        }
    }

    /// `par_race`: mutation of captured or shared state inside a
    /// parallel closure or spawned-thread closure — directly, or
    /// transitively through any call the closure makes, witnessed by
    /// the effect summaries with a rendered chain to the write.
    fn par_races(
        &self,
        sums: &[summaries::Summary],
        out: &mut Vec<Diagnostic>,
        summary: &mut BTreeMap<String, usize>,
    ) {
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let src = self.source_of(n.file_idx);
            let krate = walk::crate_of(&n.path);
            // Direct: writes to captured bindings / interior-mutable
            // cells / `static mut` recorded inside the region itself.
            for w in &n.func.par_writes {
                if summary_allowed(src, w.line, &krate, "par_race", summary) {
                    continue;
                }
                out.push(Diagnostic::new(
                    &n.path,
                    w.line,
                    "par_race",
                    format!(
                        "data race: {} inside a parallel closure in `{}`; every worker \
                         shares this binding — use per-worker state (`map_init`) or a \
                         reduction, or justify with `// analyze: allow(par_race): <reason>`",
                        w.what,
                        n.func.display()
                    ),
                ));
            }
            // Transitive: a call made inside the region whose callee
            // summary reaches a shared-state write.
            let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
            for c in &n.func.calls {
                if !c.in_par && !c.in_spawn {
                    continue;
                }
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
                        if summary_allowed(src, c.line, &krate, "par_race", summary) {
                            continue;
                        }
                        let mut chain = vec![summaries::Hop { node: id, line: c.line }];
                        chain.extend(w.chain.iter().cloned());
                        let mut d = Diagnostic::new(
                            &n.path,
                            c.line,
                            "par_race",
                            format!(
                                "data race: call to `{}` inside a parallel closure in `{}` \
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
    /// across the workspace. Fields are grouped by `(crate, name)` —
    /// the same name-based over-approximation the lock rules use.
    /// Test code is included (`in_test` ops are facts too): an unsound
    /// ordering in a test masks the race the test exists to catch.
    fn atomic_protocol(&self, out: &mut Vec<Diagnostic>, summary: &mut BTreeMap<String, usize>) {
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
                    summary: &mut BTreeMap<String, usize>,
                    site: &Site,
                    krate: &str,
                    message: String,
                    note: Option<String>| {
            let n = &self.graph.nodes[site.node];
            let src = self.source_of(n.file_idx);
            if summary_allowed(src, site.line, krate, "atomic_protocol", summary) {
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
                            summary,
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
                        summary,
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
                            summary,
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
                            summary,
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

    /// `lock_cycle`: the union of every function's lexical lock-order
    /// edges must be acyclic.
    fn lock_cycles(&self, out: &mut Vec<Diagnostic>) {
        // name -> [(successor, node id, line)]
        let mut adj: BTreeMap<&str, Vec<(&str, usize, usize)>> = BTreeMap::new();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test {
                continue;
            }
            let src = self.source_of(n.file_idx);
            for e in &n.func.lock_edges {
                if src.allowed(e.line, "lock_cycle") {
                    continue;
                }
                adj.entry(e.held.as_str()).or_default().push((e.then.as_str(), id, e.line));
            }
        }
        // DFS with an explicit stack of lock names; a back edge into the
        // current path is a cycle.
        let names: Vec<&str> = adj.keys().copied().collect();
        let mut done: Vec<&str> = Vec::new();
        for &start in &names {
            if done.contains(&start) {
                continue;
            }
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = vec![start];
            while let Some(top) = stack.len().checked_sub(1) {
                let (name, next) = stack[top];
                let edges = adj.get(name).map(|v| v.as_slice()).unwrap_or(&[]);
                if next >= edges.len() {
                    stack.pop();
                    path.pop();
                    if !done.contains(&name) {
                        done.push(name);
                    }
                    continue;
                }
                let (succ, node_id, line) = edges[next];
                stack[top].1 += 1;
                if let Some(pos) = path.iter().position(|&p| p == succ) {
                    // Cycle: path[pos..] + succ.
                    let mut cycle: Vec<&str> = path[pos..].to_vec();
                    cycle.push(succ);
                    let n = &self.graph.nodes[node_id];
                    out.push(Diagnostic::new(
                        &n.path,
                        line,
                        "lock_cycle",
                        format!(
                            "lock-order cycle: {} — acquiring `{}` while holding `{}` \
                             inverts an order established elsewhere; pick one global order",
                            cycle.iter().map(|c| format!("`{c}`")).collect::<Vec<_>>().join(" → "),
                            succ,
                            name,
                        ),
                    ));
                    continue;
                }
                if !done.contains(&succ) {
                    stack.push((succ, 0));
                    path.push(succ);
                }
            }
        }
    }

    /// `index_bounds`: run the interval prover over every function on a
    /// `no_panic` root's reachable set. Index sites it discharges are
    /// silent — their legacy `panic_path`/`par_index` markers go stale
    /// and the audit flags them for deletion; the rest are findings
    /// carrying the exact unproven obligation.
    fn index_bounds(&self, out: &mut Vec<Diagnostic>, dataflow: &mut BTreeMap<String, usize>) {
        let hot = self.hot_set();
        // Obligations lifted out of each node, final once the node's
        // SCC has been processed (bottom-up order).
        let mut obligs: Vec<Vec<Obligation>> = vec![Vec::new(); self.graph.nodes.len()];
        // Origin sites that must be reported where they stand (not
        // liftable, or the lifting machinery hit a cap).
        let mut at_site: Vec<(usize, bounds::IndexSite)> = Vec::new();
        // Origin sites already accounted for by a surfaced report,
        // keyed by (node, line, what) — one diagnostic per site.
        let mut surfaced: BTreeSet<(usize, usize, String)> = BTreeSet::new();
        let comps = self.graph.sccs();
        let mut comp_of = vec![0usize; self.graph.nodes.len()];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v] = ci;
            }
        }
        for (ci, comp) in comps.iter().enumerate() {
            // Recursion widens to ⊤: members of a non-trivial SCC keep
            // their own sites at-site and do not accept lifted
            // preconditions through recursive edges.
            let recursive =
                comp.len() > 1 || comp.iter().any(|&v| self.graph.out[v].iter().any(|e| e.to == v));
            for &v in comp {
                let n = &self.graph.nodes[v];
                if !hot[v] || n.func.is_test {
                    continue;
                }
                let (_, _, toks, parsed, _) = &self.files[n.file_idx];
                let children = bounds::child_ranges(&parsed.functions, n.fn_idx);
                // Own verdicts. A root reports its own failures at the
                // site (there is no caller to discharge them); helpers
                // lift parameter-shaped goals instead.
                let sites = bounds::check_function(toks, n.func.body.clone(), &children);
                self.report_uncovered_sinks(v, &sites, out, dataflow);
                for site in sites {
                    if site.proven {
                        continue;
                    }
                    let liftable = !n.func.no_panic
                        && !recursive
                        && site
                            .goal
                            .as_ref()
                            .is_some_and(|g| bounds::goal_liftable(g, &n.func.params));
                    if liftable && obligs[v].len() < MAX_OBLIGATIONS {
                        let goal = site.goal.clone().unwrap();
                        obligs[v].push(Obligation {
                            goal,
                            origin: (v, site.line, site.what.clone()),
                            note: site.note.clone(),
                            chain: Vec::new(),
                        });
                    } else {
                        at_site.push((v, site));
                    }
                }
                // Absorb callee obligations: substitute actuals into
                // the precondition and retry the proof with this
                // function's facts at the call site.
                let mut wanted: Vec<usize> = Vec::new();
                for e in &self.graph.out[v] {
                    if comp_of[e.to] == ci || obligs[e.to].is_empty() {
                        continue;
                    }
                    if let Some(c) = self.call_record(v, e) {
                        wanted.push(c.at);
                    }
                }
                wanted.sort_unstable();
                wanted.dedup();
                let facts = bounds::facts_at(toks, n.func.body.clone(), &children, &wanted);
                let empty = bounds::Facts::default();
                for e in &self.graph.out[v] {
                    if comp_of[e.to] == ci || obligs[e.to].is_empty() {
                        continue;
                    }
                    let callee_obligs = std::mem::take(&mut obligs[e.to]);
                    let Some(c) = self.call_record(v, e) else {
                        // No parsable call record: every obligation of
                        // the callee falls back to its origin site.
                        for o in &callee_obligs {
                            self.surface_or_fallback(o, None, out, dataflow, &mut surfaced);
                        }
                        obligs[e.to] = callee_obligs;
                        continue;
                    };
                    let args = self.call_args(v, c.at);
                    let callee = &self.graph.nodes[e.to];
                    for o in &callee_obligs {
                        let subst = args
                            .as_ref()
                            .and_then(|args| substitute_goal(&o.goal, &callee.func.params, args));
                        let Some(goal) = subst else {
                            self.surface_or_fallback(o, None, out, dataflow, &mut surfaced);
                            continue;
                        };
                        let f = facts.get(&c.at).unwrap_or(&empty);
                        if bounds::entails(f, &goal.0, &goal.1, goal.2) {
                            continue; // precondition established here
                        }
                        let mut chain = vec![summaries::Hop { node: v, line: e.line }];
                        chain.extend(o.chain.iter().cloned());
                        let lifted = Obligation {
                            goal,
                            origin: o.origin.clone(),
                            note: o.note.clone(),
                            chain,
                        };
                        let liftable = !n.func.no_panic
                            && !recursive
                            && bounds::goal_liftable(&lifted.goal, &n.func.params)
                            && lifted.chain.len() < summaries::MAX_CHAIN
                            && obligs[v].len() < MAX_OBLIGATIONS;
                        if liftable {
                            obligs[v].push(lifted);
                        } else {
                            // Undischarged at a root (or unliftable
                            // further): report with the full chain.
                            self.surface_or_fallback(
                                &lifted,
                                Some(v),
                                out,
                                dataflow,
                                &mut surfaced,
                            );
                        }
                    }
                    obligs[e.to] = callee_obligs;
                }
            }
        }
        // Obligations still parked at non-root functions whose callers
        // all discharged them are proven; anything that surfaced was
        // reported above. What remains is the at-site list.
        for (v, site) in at_site {
            let n = &self.graph.nodes[v];
            if surfaced.contains(&(v, site.line, site.what.clone())) {
                continue;
            }
            let src = self.source_of(n.file_idx);
            let krate = walk::crate_of(&n.path);
            if index_allowed(src, site.line, &krate, dataflow) {
                continue;
            }
            let mut d = Diagnostic::new(
                &n.path,
                site.line,
                "index_bounds",
                format!("cannot prove {} in bounds in `{}`", site.what, n.func.display()),
            );
            if !site.note.is_empty() {
                d.notes.push(format!("unproven obligation: {}", site.note));
            }
            d.notes.push(
                "add a dominating bound check the prover can see, or justify with \
                 `// analyze: allow(index_bounds): <reason>`"
                    .into(),
            );
            out.push(d);
        }
    }

    /// Find the parsed `Call` record behind a call-graph edge, for
    /// argument parsing at the call site.
    fn call_record(&self, v: usize, e: &crate::callgraph::Edge) -> Option<&crate::parse::Call> {
        let n = &self.graph.nodes[v];
        let callee = &self.graph.nodes[e.to];
        n.func.calls.iter().find(|c| c.line == e.line && c.name == callee.func.name)
    }

    /// Parse the actual-argument terms of the call whose name token is
    /// at `at` in node `v`'s file. Returns one `Option<Term>` per
    /// argument (`None` for arguments too complex to represent).
    fn call_args(&self, v: usize, at: usize) -> Option<Vec<Option<bounds::Term>>> {
        let n = &self.graph.nodes[v];
        let toks = &self.files[n.file_idx].2;
        if toks.get(at + 1).map(|t| t.kind) != Some(TokKind::LParen) {
            return None;
        }
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        let mut depth = 0i32;
        let mut i = at + 1;
        loop {
            let t = toks.get(i)?;
            match t.kind {
                TokKind::LParen | TokKind::LBracket | TokKind::LBrace => {
                    depth += 1;
                    if depth > 1 {
                        args.last_mut().unwrap().push(i);
                    }
                }
                TokKind::RParen | TokKind::RBracket | TokKind::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    args.last_mut().unwrap().push(i);
                }
                TokKind::Punct if t.text == "," && depth == 1 => args.push(Vec::new()),
                _ => args.last_mut().unwrap().push(i),
            }
            i += 1;
        }
        if args.len() == 1 && args[0].is_empty() {
            return Some(Vec::new());
        }
        Some(
            args.into_iter()
                .map(|mut pos| {
                    // Strip leading `&` / `&mut` — references don't
                    // change the value a term names.
                    while pos.first().is_some_and(|&p| toks[p].text == "&" || toks[p].is("mut")) {
                        pos.remove(0);
                    }
                    bounds::parse_term(toks, &pos)
                })
                .collect(),
        )
    }

    /// Report a lifted obligation: at the function it surfaced in
    /// (`root`, with the full call chain) when given, else at its
    /// origin site. The origin site's marker is consulted first — a
    /// justified site stays suppressed no matter where the obligation
    /// traveled.
    fn surface_or_fallback(
        &self,
        o: &Obligation,
        root: Option<usize>,
        out: &mut Vec<Diagnostic>,
        dataflow: &mut BTreeMap<String, usize>,
        surfaced: &mut BTreeSet<(usize, usize, String)>,
    ) {
        let (onode, oline, owhat) = (o.origin.0, o.origin.1, o.origin.2.clone());
        if !surfaced.insert((onode, oline, owhat.clone())) {
            return;
        }
        let origin = &self.graph.nodes[onode];
        let osrc = self.source_of(origin.file_idx);
        let okrate = walk::crate_of(&origin.path);
        if index_allowed(osrc, oline, &okrate, dataflow) {
            return;
        }
        let Some(root) = root else {
            // Fallback: report at the origin site, like a local miss.
            let mut d = Diagnostic::new(
                &origin.path,
                oline,
                "index_bounds",
                format!("cannot prove {owhat} in bounds in `{}`", origin.func.display()),
            );
            if !o.note.is_empty() {
                d.notes.push(format!("unproven obligation: {}", o.note));
            }
            d.notes.push(
                "add a dominating bound check the prover can see, or justify with \
                 `// analyze: allow(index_bounds): <reason>`"
                    .into(),
            );
            out.push(d);
            return;
        };
        let rn = &self.graph.nodes[root];
        let rsrc = self.source_of(rn.file_idx);
        let rkrate = walk::crate_of(&rn.path);
        if index_allowed(rsrc, rn.func.decl_line, &rkrate, dataflow) {
            return;
        }
        let mut d = Diagnostic::new(
            &rn.path,
            rn.func.decl_line,
            "index_bounds",
            format!(
                "cannot establish precondition `{}` required for {owhat} \
                 ({}:{}) on any proof path from `{}`",
                show_goal(&o.goal),
                origin.path.display(),
                oline,
                rn.func.display()
            ),
        );
        let mut chain = vec![summaries::Hop { node: root, line: rn.func.decl_line }];
        chain.extend(o.chain.iter().cloned());
        chain.push(summaries::Hop { node: onode, line: oline });
        d.notes.push(format!("path: {}", summaries::render_chain(&self.graph, &chain)));
        d.notes.push(
            "establish the bound at a call site the prover can see, or justify with \
             `// analyze: allow(index_bounds): <reason>` at the index site"
                .into(),
        );
        out.push(d);
    }

    /// The legacy uncovered-sink sweep of `index_bounds`, factored out
    /// of the main loop.
    fn report_uncovered_sinks(
        &self,
        v: usize,
        sites: &[bounds::IndexSite],
        out: &mut Vec<Diagnostic>,
        dataflow: &mut BTreeMap<String, usize>,
    ) {
        let n = &self.graph.nodes[v];
        let src = self.source_of(n.file_idx);
        let krate = walk::crate_of(&n.path);
        let covered: BTreeSet<(usize, String)> =
            sites.iter().map(|s| (s.line, s.what.clone())).collect();
        // Index sinks the statement-level CFG never lowered (e.g.
        // inside a braced closure body) stay unproven obligations —
        // the prover must not silently narrow `panic_path` coverage.
        for sink in &n.func.sinks {
            if sink.kind != SinkKind::Index
                || covered.contains(&(sink.line, sink.what.clone()))
                || index_allowed(src, sink.line, &krate, dataflow)
            {
                continue;
            }
            let mut d = Diagnostic::new(
                &n.path,
                sink.line,
                "index_bounds",
                format!("cannot prove {} in bounds in `{}`", sink.what, n.func.display()),
            );
            d.notes.push("unproven obligation: site is outside the dataflow region".into());
            d.notes.push(
                "add a dominating bound check the prover can see, or justify with \
                     `// analyze: allow(index_bounds): <reason>`"
                    .into(),
            );
            out.push(d);
        }
    }

    /// `guard_across_await_or_call`: a lock guard live across a call
    /// into another workspace crate, with the exact hold range.
    fn guard_across_calls(
        &self,
        out: &mut Vec<Diagnostic>,
        dataflow: &mut BTreeMap<String, usize>,
    ) {
        let node_crate: Vec<String> =
            self.graph.nodes.iter().map(|n| walk::crate_of(&n.path)).collect();
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let (_, src, toks, parsed, _) = &self.files[n.file_idx];
            if parsed.lock_names.is_empty() {
                continue;
            }
            let cross: Vec<guard::CrossCall> = self.graph.out[id]
                .iter()
                .filter(|e| node_crate[e.to] != node_crate[id])
                .map(|e| {
                    (e.line, self.graph.nodes[e.to].func.name.clone(), node_crate[e.to].clone())
                })
                .collect();
            if cross.is_empty() {
                continue;
            }
            let children = bounds::child_ranges(&parsed.functions, n.fn_idx);
            let found = guard::check_function(
                toks,
                n.func.body.clone(),
                &children,
                &parsed.lock_names,
                &cross,
            );
            for f in found {
                if src.allowed(f.line, "guard_across_await_or_call") {
                    *dataflow.entry(node_crate[id].clone()).or_default() += 1;
                    continue;
                }
                let mut d = Diagnostic::new(
                    &n.path,
                    f.line,
                    "guard_across_await_or_call",
                    format!(
                        "guard `{}` of lock `{}` held across call to `{}` in `{}`",
                        f.binding,
                        f.lock,
                        f.callee,
                        n.func.display()
                    ),
                );
                d.notes.push(format!(
                    "hold range: acquired at line {}, still live at the call on line {} — \
                     drop the guard first, or justify with \
                     `// analyze: allow(guard_across_await_or_call): <reason>`",
                    f.acquired, f.line
                ));
                out.push(d);
            }
        }
    }

    /// `result_discard`: a `Result` from a workspace call dropped on
    /// the floor (`let _ = …;` or a bare call statement) in serve or
    /// engine `src/` code.
    fn result_discards(&self, out: &mut Vec<Diagnostic>, dataflow: &mut BTreeMap<String, usize>) {
        for (id, n) in self.graph.nodes.iter().enumerate() {
            if n.func.is_test || !in_crate_src(&n.path) {
                continue;
            }
            let krate = walk::crate_of(&n.path);
            if !DISCARD_CRATES.contains(&krate.as_str()) {
                continue;
            }
            let candidates: BTreeSet<discard::ResultCall> = self.graph.out[id]
                .iter()
                .filter(|e| self.graph.nodes[e.to].func.returns_result)
                .map(|e| (e.line, self.graph.nodes[e.to].func.name.clone()))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let (_, src, toks, parsed, _) = &self.files[n.file_idx];
            let children = bounds::child_ranges(&parsed.functions, n.fn_idx);
            for f in discard::check_function(toks, n.func.body.clone(), &children, &candidates) {
                if src.allowed(f.line, "result_discard") {
                    *dataflow.entry(krate.clone()).or_default() += 1;
                    continue;
                }
                let how = if f.explicit { "`let _ = …`" } else { "a bare statement" };
                let mut d = Diagnostic::new(
                    &n.path,
                    f.line,
                    "result_discard",
                    format!(
                        "`Result` of workspace call `{}` discarded via {how} in `{}`",
                        f.callee,
                        n.func.display()
                    ),
                );
                d.notes.push(
                    "handle the error (`?`, match, or log it) or justify with \
                     `// analyze: allow(result_discard): <reason>`"
                        .into(),
                );
                out.push(d);
            }
        }
    }

    /// Flag suppression markers that no longer suppress anything. Every
    /// rule has already recorded its lookups by the time this runs (it
    /// must be the last pass in [`Analysis::run`]).
    fn stale_markers(&self, out: &mut Vec<Diagnostic>) -> BTreeMap<String, usize> {
        let mut stale: BTreeMap<String, usize> = BTreeMap::new();
        for (rel, src, _, _, _) in &self.files {
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

/// Crates whose `src/` statements the `result_discard` rule covers —
/// the serve/engine hot paths where a swallowed error loses data.
const DISCARD_CRATES: &[&str] = &["engine", "serve"];

/// Every rule a suppression marker can legitimately name.
const MARKER_RULES: &[&str] = &[
    // line rules
    "no_panic",
    "id_cast",
    "par_index",
    // call-graph rules
    "panic_path",
    "hot_alloc",
    "obs_hot_path",
    "lock_par",
    "lock_cycle",
    // summary rules
    "par_race",
    "atomic_protocol",
    // dataflow rules
    "index_bounds",
    "guard_across_await_or_call",
    "result_discard",
];

/// Consult a summary-rule marker; a hit counts into the `[summary.*]`
/// suppression table.
fn summary_allowed(
    src: &SourceFile,
    line: usize,
    krate: &str,
    rule: &str,
    summary: &mut BTreeMap<String, usize>,
) -> bool {
    let hit = src.allowed(line, rule);
    if hit {
        *summary.entry(krate.to_string()).or_default() += 1;
    }
    hit
}

/// Cap on obligations lifted per function; overflow falls back to an
/// at-site report (conservative, never silent).
const MAX_OBLIGATIONS: usize = 24;

/// An unproven bounds obligation travelling up the call graph as a
/// precondition.
#[derive(Debug, Clone)]
struct Obligation {
    /// `(a, b, strict)`: prove `a < b` (strict) or `a <= b`, stated
    /// over the current holder's parameters after substitution.
    goal: (bounds::Term, bounds::Term, bool),
    /// The index site that raised it: `(node, line, what)`.
    origin: (usize, usize, String),
    /// The original prover note at the site.
    note: String,
    /// Call hops from the current holder down to the origin function
    /// (`chain[0]` is in the holder's body).
    chain: Vec<summaries::Hop>,
}

/// Render a structured goal as `i + 1 < len(xs)`.
fn show_goal(goal: &(bounds::Term, bounds::Term, bool)) -> String {
    format!("{} {} {}", goal.0.show(), if goal.2 { "<" } else { "<=" }, goal.1.show())
}

/// Substitute actual-argument terms for callee parameters inside a
/// goal. `args[i]` is the term of the `i`-th actual; `None` entries
/// poison any goal that mentions the matching parameter.
fn substitute_goal(
    goal: &(bounds::Term, bounds::Term, bool),
    params: &[String],
    args: &[Option<bounds::Term>],
) -> Option<(bounds::Term, bounds::Term, bool)> {
    if params.len() != args.len() {
        return None;
    }
    let mut map = BTreeMap::new();
    for (p, a) in params.iter().zip(args) {
        if let Some(a) = a {
            map.insert(p.clone(), a.clone());
        }
    }
    // A goal mentioning a parameter with no parsed actual cannot be
    // substituted — `subst` returns None for it because the parameter
    // is absent from the map only if the base survives; guard that.
    let relevant = |t: &bounds::Term| {
        params
            .iter()
            .enumerate()
            .any(|(i, p)| args[i].is_none() && (t.base == *p || t.base == format!("len({p})")))
    };
    if relevant(&goal.0) || relevant(&goal.1) {
        return None;
    }
    let a = bounds::subst(&goal.0, &map)?;
    let b = bounds::subst(&goal.1, &map)?;
    Some((a, b, goal.2))
}

/// Consult the `index_bounds` marker plus the legacy spellings; a hit
/// counts into the `[dataflow.*]` suppression table.
fn index_allowed(
    src: &SourceFile,
    line: usize,
    krate: &str,
    dataflow: &mut BTreeMap<String, usize>,
) -> bool {
    for rule in ["index_bounds", "panic_path", "par_index"] {
        if src.allowed(line, rule) {
            *dataflow.entry(krate.to_string()).or_default() += 1;
            return true;
        }
    }
    false
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

/// Check the measured inventory against the committed baseline,
/// rendering ratchet violations as diagnostics against the baseline
/// file.
pub fn check_baseline(
    root: &Path,
    inventory: &Inventory,
    test_counts: &BTreeMap<String, usize>,
    dataflow: &BTreeMap<String, usize>,
    stale: &BTreeMap<String, usize>,
    summary: &BTreeMap<String, usize>,
) -> Result<Vec<Diagnostic>, String> {
    let base = baseline::load(&root.join(BASELINE_FILE))?;
    let at = |rule: &'static str| {
        move |e: baseline::RatchetError| {
            Diagnostic::new(Path::new(BASELINE_FILE), 1, rule, e.to_string())
        }
    };
    let unsafe_errs = baseline::check(&base, inventory).into_iter().map(at("unsafe_ratchet"));
    let test_errs = baseline::check_tests(&base, test_counts).into_iter().map(at("test_ratchet"));
    let df_errs = baseline::check_dataflow(&base, dataflow).into_iter().map(at("dataflow_ratchet"));
    let stale_errs = baseline::check_stale(&base, stale).into_iter().map(at("stale_ratchet"));
    let sum_errs = baseline::check_summary(&base, summary).into_iter().map(at("summary_ratchet"));
    Ok(unsafe_errs.chain(test_errs).chain(df_errs).chain(stale_errs).chain(sum_errs).collect())
}

/// Rewrite the baseline from the current inventory and count maps,
/// carrying forward existing reasons. Returns the written path.
pub fn update_baseline(
    root: &Path,
    inventory: &Inventory,
    test_counts: &BTreeMap<String, usize>,
    dataflow: &BTreeMap<String, usize>,
    stale: &BTreeMap<String, usize>,
    summary: &BTreeMap<String, usize>,
) -> Result<PathBuf, String> {
    let path = root.join(BASELINE_FILE);
    let prev = baseline::load(&path).unwrap_or_else(|_| Baseline::default());
    let next = baseline::from_inventory(inventory, test_counts, dataflow, stale, summary, &prev);
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
    fn hot_alloc_flags_par_closures_only_above_marker_depth() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
pub fn f(v: &[u32]) -> Vec<String> {
    v.par_iter()
        .map(|x| format!(\"{x}\"))
        .collect()
}
",
        )]);
        let d = a.diagnostics();
        let h: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "hot_alloc").collect();
        assert_eq!(h.len(), 1, "{d:?}");
        assert_eq!(h[0].line, 3, "format! flagged, terminator collect not");
    }

    #[test]
    fn obs_hot_path_flags_par_spans_and_kernel_loop_flights() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(v: &[u32]) -> u64 {
    let mut total = 0u64;
    for x in v {
        gdelt_obs::flight_warn(\"a\", \"row\", String::new());
        total += u64::from(*x);
    }
    total
}
pub fn par(v: &[u32]) -> Vec<u64> {
    v.par_iter()
        .map(|x| {
            let _s = gdelt_obs::span(\"a\", \"row\");
            u64::from(*x)
        })
        .collect()
}
pub fn fine(v: &[u32]) -> u64 {
    let _s = gdelt_obs::span(\"a\", \"whole\");
    v.iter().map(|x| u64::from(*x)).sum()
}
",
        )]);
        let d = a.diagnostics();
        let h: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "obs_hot_path").collect();
        assert_eq!(h.len(), 2, "{d:?}");
        assert_eq!(h[0].line, 5, "flight event in the kernel loop");
        assert!(h[0].message.contains("per-row loop"), "{}", h[0].message);
        assert_eq!(h[1].line, 13, "span in the parallel closure");
        assert!(h[1].message.contains("parallel closure"), "{}", h[1].message);
    }

    #[test]
    fn obs_hot_path_marker_and_plain_loops_are_silent() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
pub fn par(v: &[u32]) -> Vec<u64> {
    v.par_iter()
        .map(|x| {
            // analyze: allow(obs_hot_path): coarse partitions, not rows
            let _s = gdelt_obs::span(\"a\", \"part\");
            u64::from(*x)
        })
        .collect()
}
pub fn warm(v: &[u32]) -> u64 {
    let mut total = 0u64;
    for x in v {
        gdelt_obs::flight_warn(\"a\", \"row\", String::new());
        total += u64::from(*x);
    }
    total
}
",
        )]);
        let d = a.diagnostics();
        // The marker silences the par span; the loop flight event sits
        // in a function no `no_panic` root reaches, so it is not hot.
        assert!(d.iter().all(|d| d.rule != "obs_hot_path"), "{d:?}");
    }

    #[test]
    fn lock_par_and_cycle_fire() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
use std::sync::Mutex;
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
pub fn f(s: &S, v: &[u32]) {
    v.par_iter().for_each(|_| {
        let g = s.a.lock().unwrap();
        drop(g);
    });
}
pub fn order_ab(s: &S) {
    let ga = s.a.lock().unwrap();
    let gb = s.b.lock().unwrap();
    drop(gb);
    drop(ga);
}
pub fn order_ba(s: &S) {
    let gb = s.b.lock().unwrap();
    let ga = s.a.lock().unwrap();
    drop(ga);
    drop(gb);
}
",
        )]);
        let d = a.diagnostics();
        assert!(d.iter().any(|d| d.rule == "lock_par" && d.line == 5), "{d:?}");
        assert!(d.iter().any(|d| d.rule == "lock_cycle"), "{d:?}");
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
        // [summary.*] table, and is not stale.
        assert_eq!(run.summary.get("a"), Some(&1));
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
    xs.par_iter().for_each(|x| {
        out.push(*x);
    });
}
pub fn transitive(xs: &[u32]) {
    xs.par_iter().for_each(|x| {
        bump(*x as u64);
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
            .find(|d| d.line == 9 && d.message.contains("`bump`"))
            .unwrap_or_else(|| panic!("transitive race missing: {races:?}"));
        assert!(t.message.contains("TOTAL"), "{}", t.message);
        assert!(
            t.notes.iter().any(|n| n.starts_with("path: ") && n.contains(":13")),
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
    xs.par_iter().for_each(|x| {
        // analyze: allow(par_race): single consumer joins before reads
        out.push(*x);
    });
}
",
        )]);
        let run = a.run();
        assert!(!run.diagnostics.iter().any(|d| d.rule == "par_race"), "{:?}", run.diagnostics);
        assert_eq!(run.summary.get("a"), Some(&1));
    }

    #[test]
    fn interproc_bounds_discharges_via_call_site_facts() {
        // `helper` cannot prove `i < len(xs)` locally; both callers
        // establish it, so the obligation discharges and nothing is
        // reported — with no marker needed at the site.
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(xs: &[u32]) -> u32 {
    let mut t = 0;
    for i in 0..xs.len() {
        t += helper(xs, i);
    }
    t
}
fn helper(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
",
        )]);
        let d = a.diagnostics();
        assert!(!d.iter().any(|x| x.rule == "index_bounds"), "{d:?}");
    }

    #[test]
    fn interproc_bounds_reports_undischarged_at_root_with_chain() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(xs: &[u32], k: usize) -> u32 {
    helper(xs, k)
}
fn helper(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
",
        )]);
        let d = a.diagnostics();
        let s: Vec<&Diagnostic> = d.iter().filter(|x| x.rule == "index_bounds").collect();
        assert_eq!(s.len(), 1, "{d:?}");
        assert_eq!(s[0].line, 2, "reported at the no_panic root");
        assert!(s[0].message.contains("precondition"), "{}", s[0].message);
        assert!(s[0].message.contains("k < len(xs)"), "{}", s[0].message);
        assert!(
            s[0].notes.iter().any(|n| n.starts_with("path: ") && n.contains(":6")),
            "chain reaches the index site: {:?}",
            s[0].notes
        );
    }

    #[test]
    fn interproc_bounds_origin_marker_still_suppresses() {
        let a = analysis(&[(
            "crates/a/src/lib.rs",
            "\
// analyze: no_panic
pub fn kernel(xs: &[u32], k: usize) -> u32 {
    helper(xs, k)
}
fn helper(xs: &[u32], i: usize) -> u32 {
    // analyze: allow(index_bounds): caller guarantees i < xs.len()
    xs[i]
}
",
        )]);
        let run = a.run();
        assert!(!run.diagnostics.iter().any(|x| x.rule == "index_bounds"), "{:?}", run.diagnostics);
        assert_eq!(run.dataflow.get("a"), Some(&1), "suppression counted at the origin");
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

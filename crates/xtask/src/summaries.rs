//! Interprocedural effect summaries over the workspace call graph.
//!
//! Every function gets a [`Summary`] of the shared state its body — and
//! everything it can reach through calls — may mutate: `static mut`
//! bindings and non-thread-local `Cell`/`RefCell` values.
//!
//! Summaries fold **bottom-up over the SCC condensation** of
//! [`crate::callgraph::CallGraph`]: Tarjan emission order is reverse
//! topological, so every callee outside the current component is final
//! when a component is entered. Within a component (mutual or direct
//! recursion) the members iterate to a fixpoint; the lattice is one
//! capped witness set, so its height is finite and the cap *is* the
//! widening — once the set reaches its cap it stops absorbing and the
//! iteration converges.
//!
//! Shared-state mutations carry a **witness chain**: the concrete hop
//! sequence (`file:line` of each call, then the write itself) that the
//! `par_race` rule renders so a finding on `scope.spawn(|| f())` can
//! point at the `static mut` assignment three calls inside `f`.

use crate::callgraph::CallGraph;

/// Witness caps: summaries are propagated along every edge of the call
/// graph, so they must stay small. Caps double as the widening
/// operator at recursion — see the module docs.
pub const MAX_WITNESSES: usize = 4;
/// Cap on witness-chain length (hops beyond it are elided in
/// rendering, the finding still fires).
pub const MAX_CHAIN: usize = 8;

/// One hop of a witness chain: a line inside `node`'s file — either a
/// call site on the way down or the final write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Call-graph node whose file contains the line.
    pub node: usize,
    /// 1-based line.
    pub line: usize,
}

/// A reachable shared-state mutation with its concrete path.
#[derive(Debug, Clone)]
pub struct MutWitness {
    /// Human description of the final write, e.g.
    /// `` write to `static mut TOTAL` ``.
    pub what: String,
    /// Hops from the summarized function down to the write. `chain[0]`
    /// is in the summarized function's own body (the write itself, or
    /// the call that leads toward it); the last hop is the write.
    pub chain: Vec<Hop>,
}

/// The per-function effect summary.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Shared-state mutations reachable from the function, deduped by
    /// description and capped at [`MAX_WITNESSES`].
    pub shared_mut: Vec<MutWitness>,
}

impl Summary {
    /// Merge callee effects into `self` through a call at `line` in
    /// `caller`'s body. Returns whether anything changed (drives the
    /// intra-SCC fixpoint).
    fn absorb(&mut self, callee: &Summary, caller: usize, line: usize) -> bool {
        let mut changed = false;
        for w in &callee.shared_mut {
            if self.shared_mut.len() >= MAX_WITNESSES {
                break;
            }
            if w.chain.len() >= MAX_CHAIN {
                continue;
            }
            if self.shared_mut.iter().any(|mine| mine.what == w.what) {
                continue;
            }
            let mut chain = Vec::with_capacity(w.chain.len() + 1);
            chain.push(Hop { node: caller, line });
            chain.extend(w.chain.iter().cloned());
            self.shared_mut.push(MutWitness { what: w.what.clone(), chain });
            changed = true;
        }
        changed
    }
}

/// Seed one node's summary from its own parsed facts.
fn seed(graph: &CallGraph, v: usize) -> Summary {
    let func = &graph.nodes[v].func;
    let mut s = Summary::default();
    for w in &func.shared_writes {
        if s.shared_mut.len() >= MAX_WITNESSES {
            break;
        }
        if s.shared_mut.iter().any(|mine| mine.what == w.what) {
            continue;
        }
        s.shared_mut
            .push(MutWitness { what: w.what.clone(), chain: vec![Hop { node: v, line: w.line }] });
    }
    s
}

/// Compute every node's summary, bottom-up over the SCC condensation.
pub fn compute(graph: &CallGraph) -> Vec<Summary> {
    let mut sums: Vec<Summary> = (0..graph.nodes.len()).map(|v| seed(graph, v)).collect();
    for comp in graph.sccs() {
        // Callees outside the component are final; members of the
        // component iterate among themselves until nothing changes.
        loop {
            let mut changed = false;
            for &v in &comp {
                for e in &graph.out[v] {
                    if e.to == v {
                        continue; // self-edge adds nothing new
                    }
                    let callee = sums[e.to].clone();
                    changed |= sums[v].absorb(&callee, v, e.line);
                }
            }
            if !changed || comp.len() == 1 {
                break;
            }
        }
    }
    sums
}

/// Render a witness chain as `file:line → file:line → …` using the
/// graph's node paths.
pub fn render_chain(graph: &CallGraph, chain: &[Hop]) -> String {
    let parts: Vec<String> = chain
        .iter()
        .take(MAX_CHAIN)
        .map(|h| format!("{}:{}", graph.nodes[h.node].path.display(), h.line))
        .collect();
    let mut s = parts.join(" → ");
    if chain.len() > MAX_CHAIN {
        s.push_str(" → …");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;
    use crate::parse::{parse_file, ParsedFile};
    use crate::source::SourceFile;
    use std::path::{Path, PathBuf};

    fn graph(src: &str) -> CallGraph {
        let f = SourceFile::parse(src);
        let toks = tokenize(&f);
        let files: Vec<(PathBuf, ParsedFile, bool)> =
            vec![(Path::new("crates/a/src/lib.rs").to_path_buf(), parse_file(&f, &toks), false)];
        CallGraph::build(&files)
    }

    fn id(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.func.display() == name).unwrap()
    }

    #[test]
    fn transitive_shared_mut_carries_chain() {
        let g = graph(
            "\
static mut TOTAL: u64 = 0;
fn top() { mid(); }
fn mid() { leaf(); }
fn leaf() { unsafe { TOTAL += 1 }; }
",
        );
        let sums = compute(&g);
        let top = id(&g, "top");
        let s = &sums[top];
        assert_eq!(s.shared_mut.len(), 1, "{:?}", s.shared_mut);
        let w = &s.shared_mut[0];
        assert!(w.what.contains("TOTAL"), "{w:?}");
        // top's call line, mid's call line, the write.
        assert_eq!(w.chain.len(), 3, "{w:?}");
        assert_eq!(w.chain[0], Hop { node: top, line: 2 });
        assert_eq!(w.chain[2].line, 4);
        let rendered = render_chain(&g, &w.chain);
        assert!(rendered.contains("lib.rs:2 → "), "{rendered}");
        assert!(rendered.ends_with(":4"), "{rendered}");
    }

    #[test]
    fn recursion_reaches_fixpoint_with_union_effects() {
        let g = graph(
            "\
static mut HITS: u64 = 0;
fn ping(n: u32) { if n > 0 { pong(n - 1); } }
fn pong(n: u32) { unsafe { HITS += 1 }; ping(n); }
",
        );
        let sums = compute(&g);
        let ping = &sums[id(&g, "ping")].shared_mut;
        assert_eq!(ping.len(), 1, "effect flows around the cycle: {ping:?}");
        assert!(ping[0].what.contains("HITS"), "{ping:?}");
        assert_eq!(sums[id(&g, "pong")].shared_mut.len(), 1, "deduped, not re-absorbed");
    }
}

//! Intra-workspace call graph over the functions `parse` extracted,
//! with BFS shortest paths for panic-reachability reporting.
//!
//! Resolution is name-based (documented in DESIGN.md):
//!
//! * `self.m(..)` resolves only to methods of the caller's own impl
//!   type;
//! * `Type::f(..)` resolves only to methods of impls named `Type`;
//! * `expr.m(..)` (unknown receiver) resolves to *every* workspace
//!   method named `m` — conservative over-approximation;
//! * `f(..)` resolves to free functions named `f`;
//! * names with no workspace definition (std, shims) resolve to
//!   nothing and are ignored;
//! * `#[cfg(test)]` functions are never callees of non-test code, and
//!   functions in integration-test/example files are only callable from
//!   their own file.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;

use crate::deps::CrateDeps;
use crate::parse::{Function, ParsedFile, Receiver};
use crate::walk::crate_of;

/// One function node with its owning file attached.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub path: PathBuf,
    /// File index into the analyzer's parsed-file list.
    pub file_idx: usize,
    /// The parsed function (cloned out for direct access).
    pub func: Function,
    /// Defined under `tests/`, `examples/`, or a crate's `tests/` or
    /// `benches/` directory (callable only from its own file).
    pub in_test_tree: bool,
}

/// A call edge: `from` calls `to` at `line` (in `from`'s file).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Caller node id.
    pub from: usize,
    /// Callee node id.
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes.
    pub nodes: Vec<Node>,
    /// Adjacency: outgoing edges per node.
    pub out: Vec<Vec<Edge>>,
}

/// One hop of a rendered call path.
#[derive(Debug, Clone)]
pub struct PathHop {
    /// Node reached by this hop.
    pub node: usize,
    /// Call-site line in the *previous* hop's file (0 for the root).
    pub via_line: usize,
}

impl CallGraph {
    /// Build the graph from every parsed file.
    ///
    /// `files` pairs each parse result with its workspace-relative path;
    /// `in_test_tree` flags files whose functions are only callable from
    /// themselves (integration tests, benches, examples).
    pub fn build(files: &[(PathBuf, ParsedFile, bool)]) -> CallGraph {
        Self::build_filtered(files, None)
    }

    /// Like [`CallGraph::build`], additionally dropping edges into
    /// crates the caller's crate does not (transitively) depend on.
    pub fn build_filtered(
        files: &[(PathBuf, ParsedFile, bool)],
        deps: Option<&CrateDeps>,
    ) -> CallGraph {
        let mut g = CallGraph::default();
        for (file_idx, (path, parsed, in_test_tree)) in files.iter().enumerate() {
            for func in &parsed.functions {
                g.nodes.push(Node {
                    path: path.clone(),
                    file_idx,
                    func: func.clone(),
                    in_test_tree: *in_test_tree,
                });
            }
        }
        g.out = vec![Vec::new(); g.nodes.len()];

        // Name → candidate node ids, split by shape.
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            if n.func.self_ty.is_some() {
                methods.entry(n.func.name.as_str()).or_default().push(id);
            } else {
                free.entry(n.func.name.as_str()).or_default().push(id);
            }
        }

        let node_crate: Vec<String> = g.nodes.iter().map(|n| crate_of(&n.path)).collect();

        let mut edges: Vec<Edge> = Vec::new();
        for (from, n) in g.nodes.iter().enumerate() {
            for call in &n.func.calls {
                let candidates: Vec<usize> = match &call.recv {
                    Receiver::SelfMethod => {
                        let ty = n.func.self_ty.as_deref();
                        match ty {
                            Some(ty) => methods
                                .get(call.name.as_str())
                                .into_iter()
                                .flatten()
                                .copied()
                                .filter(|&id| g.nodes[id].func.self_ty.as_deref() == Some(ty))
                                .collect(),
                            // Free fn using `self`? Shouldn't happen; be
                            // conservative and match any method.
                            None => methods
                                .get(call.name.as_str())
                                .into_iter()
                                .flatten()
                                .copied()
                                .collect(),
                        }
                    }
                    Receiver::Qualified(ty) => {
                        let typed: Vec<usize> = methods
                            .get(call.name.as_str())
                            .into_iter()
                            .flatten()
                            .copied()
                            .filter(|&id| g.nodes[id].func.self_ty.as_deref() == Some(ty.as_str()))
                            .collect();
                        if typed.is_empty() {
                            // `Enum::variant(..)` or module-style paths:
                            // fall back to free functions of that name.
                            free.get(call.name.as_str()).into_iter().flatten().copied().collect()
                        } else {
                            typed
                        }
                    }
                    Receiver::Method => {
                        methods.get(call.name.as_str()).into_iter().flatten().copied().collect()
                    }
                    Receiver::Free => {
                        free.get(call.name.as_str()).into_iter().flatten().copied().collect()
                    }
                };
                for to in candidates {
                    let callee = &g.nodes[to];
                    // Test functions and test-tree files are not callees
                    // of foreign code.
                    if callee.func.is_test && !n.func.is_test {
                        continue;
                    }
                    if callee.in_test_tree && callee.path != n.path {
                        continue;
                    }
                    // A real call can only land in a crate the caller
                    // depends on (test code: or dev-depends on).
                    if let Some(deps) = deps {
                        let test = n.func.is_test || n.in_test_tree;
                        if !deps.can_call(&node_crate[from], &node_crate[to], test) {
                            continue;
                        }
                    }
                    edges.push(Edge { from, to, line: call.line });
                }
            }
        }
        for e in edges {
            g.out[e.from].push(e);
        }
        g
    }

    /// Strongly connected components in reverse topological order:
    /// every component is emitted after all components it calls into.
    /// Tarjan's algorithm, iterative (workspace call chains can exceed
    /// the default stack under debug builds). This is the bottom-up
    /// order the summary engine folds in — callee summaries exist by
    /// the time a caller's component is visited.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, next out-edge to examine).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            frames.push((start, 0));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
                if *ei < self.out[v].len() {
                    let w = self.out[v][*ei].to;
                    *ei += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
        out
    }

    /// BFS from `root`, returning for each node the shortest hop
    /// sequence from the root (`None` if unreachable). Paths record the
    /// call-site line of each hop.
    pub fn shortest_paths(&self, root: usize) -> Vec<Option<Vec<PathHop>>> {
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[root] = true;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for e in &self.out[u] {
                if !seen[e.to] {
                    seen[e.to] = true;
                    parent[e.to] = Some((u, e.line));
                    q.push_back(e.to);
                }
            }
        }
        (0..self.nodes.len())
            .map(|v| {
                if !seen[v] {
                    return None;
                }
                let mut hops = vec![PathHop { node: v, via_line: 0 }];
                let mut cur = v;
                while let Some((p, line)) = parent[cur] {
                    if let Some(h) = hops.last_mut() {
                        h.via_line = line;
                    }
                    hops.push(PathHop { node: p, via_line: 0 });
                    cur = p;
                }
                hops.reverse();
                Some(hops)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;
    use crate::parse::parse_file;
    use crate::source::SourceFile;
    use std::path::Path;

    fn graph(srcs: &[(&str, &str, bool)]) -> CallGraph {
        let files: Vec<(PathBuf, ParsedFile, bool)> = srcs
            .iter()
            .map(|(path, src, test_tree)| {
                let f = SourceFile::parse(src);
                let toks = tokenize(&f);
                (Path::new(path).to_path_buf(), parse_file(&f, &toks), *test_tree)
            })
            .collect();
        CallGraph::build(&files)
    }

    fn id(g: &CallGraph, display: &str) -> usize {
        g.nodes.iter().position(|n| n.func.display() == display).unwrap()
    }

    #[test]
    fn free_and_method_edges_resolve() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
fn top() { helper(); }
fn helper() { Thing::poke(0); }
impl Thing {
    fn poke(x: u32) { x.checked_add(1).unwrap(); }
}
",
            false,
        )]);
        let top = id(&g, "top");
        let helper = id(&g, "helper");
        let poke = id(&g, "Thing::poke");
        assert!(g.out[top].iter().any(|e| e.to == helper));
        assert!(g.out[helper].iter().any(|e| e.to == poke));
        let paths = g.shortest_paths(top);
        let p = paths[poke].as_ref().unwrap();
        assert_eq!(p.len(), 3, "top -> helper -> poke");
        assert_eq!(p[1].via_line, 1, "call site of helper in top");
        assert_eq!(p[2].via_line, 2, "call site of poke in helper");
    }

    #[test]
    fn self_method_restricted_to_own_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
impl A { fn go(&self) { self.step(); } fn step(&self) {} }
impl B { fn step(&self) { None::<u32>.unwrap(); } }
",
            false,
        )]);
        let go = id(&g, "A::go");
        let a_step = id(&g, "A::step");
        let b_step = id(&g, "B::step");
        assert!(g.out[go].iter().any(|e| e.to == a_step));
        assert!(!g.out[go].iter().any(|e| e.to == b_step), "self.step() must not cross impls");
    }

    #[test]
    fn unknown_receiver_matches_all_methods() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
fn f(x: &A, y: &B) { x.step(); }
impl A { fn step(&self) {} }
impl B { fn step(&self) {} }
",
            false,
        )]);
        let f = id(&g, "f");
        assert_eq!(g.out[f].len(), 2, "unknown receiver over-approximates");
    }

    #[test]
    fn test_functions_are_not_callees() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
fn prod() { check(); }
#[cfg(test)]
mod tests {
    fn check() { panic!(); }
}
",
            false,
        )]);
        let prod = id(&g, "prod");
        assert!(g.out[prod].is_empty(), "test fn is not a callee of prod code");
    }

    #[test]
    fn sccs_emit_callees_first_and_group_recursion() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
fn top() { ping(); leaf(); }
fn ping() { pong(); }
fn pong() { ping(); leaf(); }
fn leaf() {}
",
            false,
        )]);
        let comps = g.sccs();
        let top = id(&g, "top");
        let ping = id(&g, "ping");
        let pong = id(&g, "pong");
        let leaf = id(&g, "leaf");
        let pos = |v: usize| comps.iter().position(|c| c.contains(&v)).unwrap();
        assert_eq!(comps[pos(ping)], vec![ping.min(pong), ping.max(pong)], "cycle is one SCC");
        assert!(pos(leaf) < pos(ping), "leaf before the cycle that calls it");
        assert!(pos(ping) < pos(top), "cycle before its caller");
        assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), g.nodes.len());
    }

    #[test]
    fn test_tree_files_only_call_themselves() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller() { util(); }\n", false),
            ("tests/helpers.rs", "fn util() { panic!(); }\n", true),
        ]);
        let caller = id(&g, "caller");
        assert!(g.out[caller].is_empty(), "integration-test fns not callable from src");
    }
}

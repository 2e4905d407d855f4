//! Repo automation library behind the `cargo xtask` binary.
//!
//! Exposed as a library so the integration tests under `tests/` can
//! drive the analyze pass against fixture files without spawning the
//! binary. Modules:
//!
//! * [`source`] — line model (code/comment split, literal blanking,
//!   test regions, suppression markers);
//! * [`lex`] / [`parse`] / [`callgraph`] — token stream, item parser,
//!   and intra-workspace call graph for the semantic pass;
//! * [`lint`] — the line rules `analyze` runs over every file;
//! * [`analyze`] — the pass driver behind `cargo xtask analyze`;
//! * [`summaries`] — interprocedural shared-write summaries over the
//!   SCC condensation (behind `par_race`'s transitive findings);
//! * [`baseline`] — the ratcheting unsafe-inventory baseline;
//! * [`diag`] — the diagnostic type and output formats;
//! * [`walk`] — workspace file discovery;
//! * [`sanitize`] — miri / tsan wrappers.

pub mod analyze;
pub mod baseline;
pub mod callgraph;
pub mod deps;
pub mod diag;
pub mod lex;
pub mod lint;
pub mod parse;
pub mod sanitize;
pub mod source;
pub mod summaries;
pub mod walk;

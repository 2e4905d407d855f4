//! `cargo xtask` — repo automation.
//!
//! Subcommands:
//!
//! * `analyze` — the one static-analysis pass: the line rules
//!   (`no_panic`, `id_cast`, `par_index`), panic-reachability from
//!   `// analyze: no_panic` kernels, the `index_bounds` interval
//!   prover, guard-across-call and `Result`-discard dataflow rules,
//!   hot-loop allocations, lock discipline, the atomic-ordering audit,
//!   the stale-marker audit, and the ratcheting baseline
//!   (see [`xtask::analyze`]);
//! * `miri` / `tsan` — sanitizer wrappers.
//!
//! `analyze` writes `--format human|json` output on stdout and exits
//! **0** when clean, **1** when findings were reported, **2** on usage
//! or internal errors. Wired up via the `xtask` alias in
//! `.cargo/config.toml`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::diag::{self, Format};
use xtask::{analyze, sanitize};

const USAGE: &str = "\
cargo xtask — repo automation

USAGE:
  cargo xtask analyze [--format human|json] [--update-baseline]
                      [--remove-stale] [FILES...]
      run the line rules + call-graph + dataflow analyses; with no FILES
      also checks the ratchet tables against analyze-baseline.toml.
        --remove-stale         delete the markers behind stale_marker
                               findings, then drop those findings
  cargo xtask miri              run AlignedBuf unsafe-path tests under Miri
  cargo xtask tsan              run concurrency suites under ThreadSanitizer

Exit codes: 0 clean, 1 findings reported, 2 usage/internal error.
";

/// Parsed flags of `cargo xtask analyze`.
struct Opts {
    format: Format,
    update_baseline: bool,
    remove_stale: bool,
    files: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        format: Format::Human,
        update_baseline: false,
        remove_stale: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value (human|json)")?;
                opts.format = Format::parse(v)?;
            }
            "--update-baseline" => opts.update_baseline = true,
            "--remove-stale" => opts.remove_stale = true,
            f if f.starts_with('-') => return Err(format!("unknown flag {f:?}\n{USAGE}")),
            f => opts.files.push(f.to_string()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<bool, String> = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("miri") => sanitize::miri().map(|()| true),
        Some("tsan") => sanitize::tsan().map(|()| true),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(match other {
            Some(o) => format!("unknown subcommand {o:?}\n{USAGE}"),
            None => USAGE.to_string(),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Run the analyze pass; `Ok(true)` means clean.
fn cmd_analyze(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args)?;
    let root = workspace_root()?;
    let whole_workspace = opts.files.is_empty();
    let analysis = if whole_workspace {
        analyze::Analysis::load_workspace(&root)?
    } else {
        let paths: Vec<PathBuf> = opts.files.iter().map(PathBuf::from).collect();
        analyze::Analysis::load(&root, &paths)?
    };
    let result = analysis.run();
    let mut diagnostics = result.diagnostics;
    if opts.remove_stale {
        let n = analyze::remove_stale_markers(&root, &diagnostics)?;
        eprintln!("xtask analyze: removed {n} stale marker(s)");
        diagnostics.retain(|d| d.rule != "stale_marker");
    }
    // The ratchet tables are whole-workspace properties; partial runs
    // (explicit FILES) skip them rather than reporting bogus shrinkage.
    if whole_workspace {
        let inventory = analysis.inventory();
        let test_counts = analysis.test_counts();
        // `--remove-stale` already deleted what it counted, so record
        // the post-fix numbers (zero stale markers remain).
        let stale =
            if opts.remove_stale { std::collections::BTreeMap::new() } else { result.stale };
        if opts.update_baseline {
            let path = analyze::update_baseline(
                &root,
                &inventory,
                &test_counts,
                &result.dataflow,
                &stale,
                &result.summary,
            )?;
            eprintln!("xtask analyze: baseline written to {}", path.display());
        } else {
            diagnostics.extend(analyze::check_baseline(
                &root,
                &inventory,
                &test_counts,
                &result.dataflow,
                &stale,
                &result.summary,
            )?);
        }
    }
    diag::emit("analyze", &diagnostics, opts.format);
    if diagnostics.is_empty() {
        eprintln!("xtask analyze: clean");
        Ok(true)
    } else {
        eprintln!("xtask analyze: {} finding(s)", diagnostics.len());
        Ok(false)
    }
}

/// The workspace root: where cargo says it is, or the nearest ancestor
/// with a `crates/` directory when invoked directly.
fn workspace_root() -> Result<PathBuf, String> {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        // xtask lives at <root>/crates/xtask.
        if let Some(root) = Path::new(&dir).ancestors().nth(2) {
            if root.join("crates").is_dir() {
                return Ok(root.to_path_buf());
            }
        }
    }
    let mut cur = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if cur.join("crates").is_dir() {
            return Ok(cur);
        }
        if !cur.pop() {
            return Err("could not locate the workspace root (no crates/ found)".into());
        }
    }
}

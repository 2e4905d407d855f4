//! Sanitizer entry points: `cargo xtask miri` and `cargo xtask tsan`.
//!
//! Both need nightly-only tooling that may be absent from a given
//! machine (the CI image pins a nightly with the Miri component; dev
//! boxes often lack it). Rather than failing with an inscrutable cargo
//! error mid-run, each command probes for its prerequisites first and
//! prints exactly what is missing and how to get it.

use std::process::Command;

/// The nightly toolchain CI pins for Miri runs (see
/// `.github/workflows/ci.yml`). Local runs use whatever `+nightly`
/// resolves to.
pub const MIRI_NIGHTLY: &str = "nightly";

/// Run the unsafe-path test targets under Miri.
///
/// `miri_aligned` exercises every unsafe path in `gdelt-columnar`'s
/// `AlignedBuf` (`crates/columnar/tests/miri_aligned.rs`) with the
/// strictest provenance checking; `miri_pool` drives the fork pool's
/// lifetime-erased jobs (`partition::fork_join`) on four simulated CPUs,
/// with the leak check off because pool threads are never joined.
pub fn miri() -> Result<(), String> {
    probe_component("miri", "miri")?;
    for (target, flags) in [
        ("miri_aligned", "-Zmiri-strict-provenance"),
        ("miri_pool", "-Zmiri-strict-provenance -Zmiri-num-cpus=4 -Zmiri-ignore-leaks"),
    ] {
        run(Command::new("cargo")
            .args([&format!("+{MIRI_NIGHTLY}"), "miri", "test", "-p", "gdelt-columnar", "--test"])
            .arg(target)
            .env("MIRIFLAGS", flags))?;
    }
    Ok(())
}

/// Run the columnar test suite and the engine's unit tests (the
/// `ExecContext::map_reduce` fork among them) under ThreadSanitizer.
///
/// Requires nightly (for `-Z sanitizer`) plus the `rust-src`
/// component so std can be rebuilt instrumented.
pub fn tsan() -> Result<(), String> {
    probe_component("rust-src", "rust-src (needed for -Zbuild-std)")?;
    let target = host_target()?;
    for suite in [&["-p", "gdelt-columnar"][..], &["-p", "gdelt-engine", "--lib"]] {
        run(Command::new("cargo")
            .args([&format!("+{MIRI_NIGHTLY}"), "test", "-Zbuild-std", "--target", &target])
            .args(suite)
            .env("RUSTFLAGS", "-Zsanitizer=thread")
            // TSan intercepts allocation; keep test threads serial so
            // reports interleave readably.
            .env("RUST_TEST_THREADS", "1"))?;
    }
    Ok(())
}

/// Fail early with instructions when a rustup component is missing.
fn probe_component(component: &str, label: &str) -> Result<(), String> {
    let out = Command::new("rustup")
        .args(["component", "list", "--toolchain", MIRI_NIGHTLY])
        .output()
        .map_err(|e| format!("running rustup: {e} (is rustup installed?)"))?;
    if !out.status.success() {
        return Err(format!(
            "no `{MIRI_NIGHTLY}` toolchain available.\n  fix: rustup toolchain install {MIRI_NIGHTLY} --component {component}",
        ));
    }
    let listing = String::from_utf8_lossy(&out.stdout);
    let installed = listing.lines().any(|l| l.starts_with(component) && l.contains("(installed)"));
    if installed {
        Ok(())
    } else {
        Err(format!(
            "the {label} component is not installed on `{MIRI_NIGHTLY}`.\n  fix: rustup component add {component} --toolchain {MIRI_NIGHTLY}\n  (requires network access; CI runs this in the dedicated sanitizer job)",
        ))
    }
}

/// Host triple, needed because `-Zbuild-std` requires `--target`.
fn host_target() -> Result<String, String> {
    let out =
        Command::new("rustc").args(["-vV"]).output().map_err(|e| format!("running rustc: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_owned))
        .ok_or_else(|| "could not determine host target from `rustc -vV`".into())
}

fn run(cmd: &mut Command) -> Result<(), String> {
    eprintln!("+ {cmd:?}");
    let status = cmd.status().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("command failed with {status}"))
    }
}

//! `hts-check`: a protocol-safety static analysis pass for the hts
//! workspace, with a committed lint-baseline ratchet.
//!
//! Three of the first five PRs of this repository fixed concurrency and
//! error-handling bugs that a project-specific static check would have
//! caught before review: a `thread::sleep` stalling the ring writer, an
//! `assert!` where an `io::Error` belonged, and a silent catch-all match
//! arm hiding an alive-map recovery bug. This crate is that check — a
//! dependency-free, token-level linter enforcing seven rules over the
//! protocol crates (`crates/{types,core,net,wal,sim,metrics}`):
//!
//! * **L1 `no_panic`** — no `unwrap`/`expect`/`panic!`/`assert!`-family
//!   in non-test protocol code; errors must propagate.
//! * **L2 `no_sleep`** — no `thread::sleep` (event loops, writers and
//!   client attempt paths must block on condvars or deadlines).
//! * **L3 `guard_across_io`** — no lock guard bound live across a
//!   `write`/`flush`/`sync` call in the same block.
//! * **L4 `message_catch_all`** — no `_ =>` catch-all when matching on
//!   [`Message`] wire variants; every variant is dispatched by name.
//! * **L5 `unsafe_safety`** — every `unsafe` block carries a
//!   `// SAFETY:` comment.
//! * **L6 `ring_hot_loop`** — no `Instant::now()` or allocation
//!   constructors inside the per-frame ring hot functions (the
//!   `hts_metrics` helpers are alloc-free and exempt by construction).
//! * **L7 `atomic_ordering`** — every `Ordering::Relaxed` outside the
//!   pure-counter metrics modules and every fence carries a
//!   `// ordering:` comment, and every protocol-crate file constructing
//!   atomics is covered by an `hts-mc` model (or explicitly exempted)
//!   in the `mc-models.toml` manifest (see [`manifest`]).
//!
//! Existing debt is frozen in `lint-baseline.toml` (see [`baseline`]):
//! new violations fail CI, fixed ones shrink the ratchet. Run with
//! `cargo run -p hts-check -- --ci`.
//!
//! The companion *runtime* check — the `hts-mc` model checker the CI
//! `modelcheck` job runs — lives in `crates/mc`.

pub mod baseline;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use baseline::{diff, Baseline, Diff};
pub use rules::{check_file, Rule, Violation};

/// The protocol crates the workspace lint covers. `metrics` is included
/// because its primitives sit on the data path of every other crate.
pub const PROTOCOL_CRATES: [&str; 6] = ["types", "core", "net", "wal", "sim", "metrics"];

/// Lints `crates/<crate>/src/**/*.rs` under `root` for each named crate.
///
/// Returns violations sorted by file, then line. Paths in the result are
/// `root`-relative with `/` separators (stable across platforms, and what
/// the baseline file keys on).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources; a named crate
/// without a `src/` directory is an error (a silently skipped crate would
/// make an empty report look clean).
pub fn check_workspace(root: &Path, crates: &[&str]) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let mut atomic_files: std::collections::BTreeMap<String, Vec<u32>> = Default::default();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("crate source dir not found: {}", src.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(&path)?;
            violations.extend(check_file(&rel, &text));
            let ctors = manifest::atomic_ctor_lines(&text);
            if !ctors.is_empty() {
                atomic_files.insert(rel, ctors);
            }
        }
    }
    violations.extend(manifest::check_coverage(root, &atomic_files)?);
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_crate_is_an_error_not_a_clean_report() {
        let err = check_workspace(Path::new("/nonexistent"), &["nope"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}

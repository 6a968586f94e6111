//! `pktbuf-analyze`: a workspace-wide static invariant checker.
//!
//! The repository's core guarantees are enforced *dynamically* — a counting
//! allocator proves the slot loop allocation-free, differential suites pin
//! the chunked and per-slot engines bit-identical, and the `LabRunner`
//! tests prove reports thread-count-invariant. Those tests catch erosion
//! only when a run happens to cross the eroded path. This crate makes the
//! same invariants **structural properties of the source**, checked on every
//! CI run before a benchmark executes (`pktbuf-lab analyze`).
//!
//! # Rule catalogue — and the dynamic test each rule backstops
//!
//! * **`hotpath-alloc`** (error) — allocating constructs (`Box::new`,
//!   `vec!`, `format!`, `.collect()`, `HashMap::new`, …) are forbidden in
//!   non-setup functions of the files listed under `[hotpath]` in
//!   `analysis.toml`. Backstops `tests/alloc_free_steady_state.rs`, which
//!   counts allocations over 20k measured slots: the counter only sees the
//!   paths the test drives, the rule sees every line.
//! * **`panic-freedom`** (error) — `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` are forbidden in the same
//!   hot functions, except inside `assert*!`/`debug_assert*!` arguments and
//!   test code. Backstops every differential suite (a panic mid-batch
//!   aborts the run instead of producing a comparable report).
//! * **`unchecked-indexing`** (warning) — counts `x[i]` sites per hot file.
//!   Advisory: the SoA arenas index by construction-checked invariants;
//!   the count makes growth visible in review. Backstops the
//!   `debug_assert!` in-bounds checks that release builds compile out.
//! * **`determinism`** (error) — `HashMap`/`HashSet`, `std::time`
//!   (`Instant`, `SystemTime`), and unseeded randomness (`thread_rng`,
//!   `from_entropy`) are forbidden in modules that feed
//!   `SimulationReport`/`FabricRunReport`/serde output (the `[determinism]`
//!   paths). Byte-identical reports must not depend on hash order or wall
//!   clocks. Backstops the thread-count-invariance tests in
//!   `crates/sim/tests/lab_acceptance.rs` and `tests/fabric_invariants.rs`.
//! * **`truncating-cast`** (warning) — `slot/ordinal/seq … as u32`-style
//!   narrowing in determinism scope. Backstops the proptest ordinal-range
//!   suites, which only reach the ordinals their generators draw.
//!
//! Cross-file completeness is left to rustc, the cheaper checker: every
//! `DesignKind` has a `fabric::PortBuffer` variant because one exhaustive
//! `match` in `sim` builds a port of each, and every `PacketBuffer` impl
//! carries the batch fast paths (`step_batch`, `advance_idle`, …) because
//! the trait has no default bodies for them.
//!
//! # Waivers
//!
//! A violation that is *correct by argument* is waived in source:
//!
//! ```text
//! self.pending.pop_front().expect("front checked above")
//!     // analyze: allow(panic-freedom) — pop follows a front() check in the same match
//! ```
//!
//! The justification is mandatory; a waiver that suppresses nothing is an
//! `unused-waiver` **error**, so waivers cannot outlive the code they
//! excuse. Waived findings stay in the JSON artifact with their
//! justification, so the waiver budget is reviewable.

#![forbid(unsafe_code)]

pub mod config;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waiver;

use config::Config;
use report::{AnalysisReport, Diagnostic, Severity};
use std::path::{Path, PathBuf};

/// Loads `analysis.toml`.
///
/// # Errors
///
/// Returns a message when the file cannot be read or parsed.
pub fn load_config(path: &Path) -> Result<Config, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Analyzes a workspace rooted at `root`: walks the configured directories
/// for `.rs` files and runs every rule.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked or a file cannot be
/// read; rule findings are *diagnostics*, not errors.
pub fn analyze_workspace(root: &Path, config: &Config) -> Result<AnalysisReport, String> {
    let mut files = Vec::new();
    for dir in &config.roots {
        let base = root.join(dir);
        if base.is_dir() {
            collect_rs_files(&base, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, text));
    }
    Ok(analyze_sources(&sources, config))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target/` holds build products; hidden dirs are not sources.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes in-memory sources: `(workspace-relative path, content)` pairs.
/// This is the whole engine — `analyze_workspace` is a filesystem shim over
/// it, and the fixture tests feed it directly.
pub fn analyze_sources(sources: &[(String, String)], config: &Config) -> AnalysisReport {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut waiver_sets: Vec<(String, waiver::WaiverSet)> = Vec::new();

    for (path, text) in sources {
        let lexed = lexer::lex(text);
        let parsed = items::parse(&lexed.tokens);
        let waivers = waiver::collect(&lexed.comments, &lexed.tokens);
        for malformed in &waivers.malformed {
            diagnostics.push(Diagnostic::new(
                "malformed-waiver",
                Severity::Error,
                path,
                malformed.line,
                format!("malformed waiver comment: {}", malformed.problem),
            ));
        }
        let ctx = rules::FileContext {
            path,
            tokens: &lexed.tokens,
            parsed: &parsed,
        };
        if rules::is_hot_file(config, path) {
            rules::hotpath_alloc(&ctx, config, &mut diagnostics);
            rules::panic_freedom(&ctx, config, &mut diagnostics);
        }
        if rules::is_determinism_path(config, path) {
            rules::determinism(&ctx, config, &mut diagnostics);
        }
        waiver_sets.push((path.clone(), waivers));
    }

    // Configured hot files that are not in the scanned set: the config has
    // drifted (a rename silently un-hot-ing a file must be loud).
    for hot in &config.hot_files {
        if !sources.iter().any(|(path, _)| path == hot) {
            diagnostics.push(Diagnostic::new(
                "config-drift",
                Severity::Error,
                hot,
                1,
                "file is declared hot in analysis.toml but was not found in the \
                 scanned tree"
                    .to_owned(),
            ));
        }
    }

    // Waiver resolution: a diagnostic is waived by a same-file waiver that
    // covers its line and names its rule.
    let mut waiver_used: Vec<Vec<bool>> = waiver_sets
        .iter()
        .map(|(_, set)| vec![false; set.waivers.len()])
        .collect();
    for diag in &mut diagnostics {
        let Some(file_idx) = waiver_sets.iter().position(|(path, _)| *path == diag.file) else {
            continue;
        };
        let set = &waiver_sets[file_idx].1;
        for (w_idx, w) in set.waivers.iter().enumerate() {
            if w.covered_line == diag.line && w.rules.contains(&diag.rule) {
                diag.waived = true;
                diag.justification = Some(w.justification.clone());
                waiver_used[file_idx][w_idx] = true;
                break;
            }
        }
    }
    for (file_idx, (path, set)) in waiver_sets.iter().enumerate() {
        for (w_idx, w) in set.waivers.iter().enumerate() {
            if !waiver_used[file_idx][w_idx] {
                diagnostics.push(Diagnostic::new(
                    "unused-waiver",
                    Severity::Error,
                    path,
                    w.line,
                    format!(
                        "waiver for {} suppresses nothing — the code it excused is \
                         gone; delete the waiver",
                        w.rules.join(", "),
                    ),
                ));
            }
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    AnalysisReport {
        schema: AnalysisReport::SCHEMA,
        files_scanned: sources.len() as u64,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Diagnostic;

    #[test]
    fn end_to_end_waiver_and_unused_waiver() {
        let config = Config::from_toml(
            "[hotpath]\nfiles = [\"hot.rs\"]\n[determinism]\npaths = [\"det\"]\n",
        )
        .expect("config parses");
        let sources = vec![(
            "hot.rs".to_owned(),
            "fn step() {\n\
               let a = x.unwrap(); // analyze: allow(panic-freedom) — checked above\n\
               let b = y.unwrap();\n\
             }\n\
             // analyze: allow(hotpath-alloc) — nothing here allocates\n\
             fn idle() {}\n"
                .to_owned(),
        )];
        let report = analyze_sources(&sources, &config);
        let waived: Vec<&Diagnostic> = report.diagnostics.iter().filter(|d| d.waived).collect();
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].line, 2);
        // The unwaived unwrap on line 3 plus the unused waiver on line 5.
        assert_eq!(report.error_count(), 2);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "unused-waiver" && d.line == 5));
    }
}

//! Shared guard rails of the `pktbuf-lab` subcommands.
//!
//! Every subcommand that writes machine-readable artifacts shares one
//! failure mode, **stdout conflicts** — two artifacts sent to `'-'` cannot
//! both stream to stdout (the concatenation is neither valid JSON nor valid
//! CSV), and a stdout-bound artifact must move the human summary to stderr.
//! Checked *before* a run starts, so a long sweep is never discarded on
//! output.
//!
//! [`OutputOptions::machine_stdout`] centralises the check over *every*
//! artifact destination a subcommand has (the shared `--json`/`--csv` plus
//! whatever extra artifact flags it declares), next to the artifact
//! read/write and flag-parsing helpers every subcommand uses.

use sim::spec::Sweep;

/// Parsed `--threads`/`--json`/`--csv` output options shared by the `run`,
/// `sweep`, `fabric` and `clos` subcommands.
#[derive(Debug, Clone, Default)]
pub struct OutputOptions {
    /// Worker threads for the lab runner (`None` = all cores).
    pub threads: Option<usize>,
    /// JSON report destination (`'-'` = stdout).
    pub json: Option<String>,
    /// CSV report destination (`'-'` = stdout).
    pub csv: Option<String>,
}

impl OutputOptions {
    /// Whether a machine-readable artifact targets stdout (`'-'`) — the
    /// human summary then moves to stderr so the stream stays valid
    /// JSON/CSV. `extra` lists the subcommand's other artifact flags as
    /// `(flag, destination)` pairs, so the guard sees every destination
    /// beside the shared `--json`/`--csv`. Checked *before* a run starts: two
    /// artifacts cannot share stdout (the concatenation would be neither),
    /// and discovering that only after a long sweep would discard it.
    ///
    /// # Errors
    ///
    /// Errors when more than one artifact was sent to `'-'`, naming the
    /// first two flags.
    pub fn machine_stdout(&self, extra: &[(&str, Option<&str>)]) -> Result<bool, String> {
        let shared = [
            ("--json", self.json.as_deref()),
            ("--csv", self.csv.as_deref()),
        ];
        let mut on_stdout = shared
            .iter()
            .chain(extra)
            .filter(|(_, destination)| *destination == Some("-"))
            .map(|(flag, _)| *flag);
        let first = on_stdout.next();
        if let (Some(a), Some(b)) = (first, on_stdout.next()) {
            return Err(format!("{a} - and {b} - cannot both write to stdout"));
        }
        Ok(first.is_some())
    }

    /// Writes the JSON/CSV artifacts that were requested; the renderers run
    /// lazily so an unrequested format costs nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`write_artifact`] failures (unwritable destination).
    pub fn write_reports(
        &self,
        what: &str,
        json: impl FnOnce() -> String,
        csv: impl FnOnce() -> String,
    ) -> Result<(), String> {
        if let Some(path) = &self.json {
            write_artifact(path, &json(), &format!("{what}JSON report"))?;
        }
        if let Some(path) = &self.csv {
            write_artifact(path, &csv(), &format!("{what}CSV report"))?;
        }
        Ok(())
    }
}

/// Writes one artifact to `path`, or to stdout for `'-'` (the status line
/// then goes to stderr, keeping stdout machine-clean).
///
/// # Errors
///
/// Errors when the destination file cannot be written.
pub fn write_artifact(path: &str, content: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        println!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content)
            .map_err(|e| format!("cannot write {what} to {path:?}: {e}"))?;
        eprintln!("wrote {what} to {path}");
        Ok(())
    }
}

/// Reads a spec's JSON text from a file path, or from stdin for `'-'`
/// (shared by the `run`/`sweep`, `fabric` and `clos` `--spec` flags).
///
/// # Errors
///
/// Errors when the file (or stdin) cannot be read.
pub fn read_spec_text(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read as _;
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buffer)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
    }
}

/// Parses one unsigned-integer flag value.
///
/// # Errors
///
/// Errors when `text` is not an unsigned integer, naming `flag`.
pub fn parse_int(text: &str, flag: &str) -> Result<u64, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{flag}: {text:?} is not an unsigned integer"))
}

/// Parses one sweep flag value (`v`, `v1,v2,…`, `a..b*factor`, `a..b+step`).
///
/// # Errors
///
/// Errors when `text` is not valid sweep syntax, naming `flag`.
pub fn parse_sweep(text: &str, flag: &str) -> Result<Sweep, String> {
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses one comma-separated list flag value into any `FromStr` item type.
///
/// # Errors
///
/// Errors when any item fails to parse or the list is empty, naming `what`.
pub fn parse_list<T: std::str::FromStr>(text: &str, what: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let items = text
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| part.trim().parse::<T>().map_err(|e| e.to_string()))
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        Err(format!("empty {what} list"))
    } else {
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(json: Option<&str>, csv: Option<&str>) -> OutputOptions {
        OutputOptions {
            threads: None,
            json: json.map(str::to_owned),
            csv: csv.map(str::to_owned),
        }
    }

    #[test]
    fn stdout_conflict_is_refused_before_any_run() {
        assert!(options(Some("-"), Some("-")).machine_stdout(&[]).is_err());
        assert!(!options(None, None).machine_stdout(&[]).unwrap());
        assert!(options(Some("-"), None).machine_stdout(&[]).unwrap());
        assert!(options(None, Some("-")).machine_stdout(&[]).unwrap());
        assert!(!options(Some("a.json"), Some("b.csv"))
            .machine_stdout(&[])
            .unwrap());
    }

    #[test]
    fn the_stdout_guard_sees_every_artifact_destination() {
        // --json, --csv and three extra artifact flags, each unset / a file /
        // '-': the whole 3^5 matrix. At most one '-' passes, any '-' claims
        // stdout, and a conflict names the two flags.
        let choices = [None, Some("f"), Some("-")];
        for combo in 0..3usize.pow(5) {
            let dest: Vec<Option<&str>> =
                (0..5).map(|i| choices[combo / 3usize.pow(i) % 3]).collect();
            let extra = [
                ("--faults-json", dest[2]),
                ("--series-csv", dest[3]),
                ("--trace-json", dest[4]),
            ];
            let got = options(dest[0], dest[1]).machine_stdout(&extra);
            match dest.iter().filter(|d| **d == Some("-")).count() {
                0 => assert!(!got.unwrap(), "{dest:?}"),
                1 => assert!(got.unwrap(), "{dest:?}"),
                _ => assert!(got.unwrap_err().contains("cannot both write"), "{dest:?}"),
            }
        }
        let err = options(None, Some("-"))
            .machine_stdout(&[("--faults-json", None), ("--trace-json", Some("-"))])
            .unwrap_err();
        assert_eq!(
            err,
            "--csv - and --trace-json - cannot both write to stdout"
        );
    }

    #[test]
    fn flag_parsers_name_the_flag_in_errors() {
        assert_eq!(parse_int("42", "--slots").unwrap(), 42);
        assert!(parse_int("x", "--slots").unwrap_err().contains("--slots"));
        assert!(parse_sweep("4..16*2", "--ports").is_ok());
        assert!(parse_sweep("nope", "--ports")
            .unwrap_err()
            .contains("--ports"));
        let loads: Vec<u64> = parse_list("25, 95", "load").unwrap();
        assert_eq!(loads, [25, 95]);
        assert!(parse_list::<u64>(" , ", "load")
            .unwrap_err()
            .contains("load"));
    }
}

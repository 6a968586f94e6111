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
//!
//! The experiment subcommands (`run`/`sweep`, `fabric`, `clos`) also share
//! their whole control flow: [`lab_command`] is the one flag loop and the one
//! parse → expand → run → report → gate sequence, and a [`LabLayer`] is what
//! a subcommand adds to it — a table of [`SpecFlag`]s, a summary, a gate.

use sim::experiment::{self, Experiment};
use sim::lab::{LabReport, LabRunner};
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

/// Parses the `--seeds` flag value: a comma-separated list of integers.
///
/// # Errors
///
/// Errors when an item is not an unsigned integer.
pub fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    text.split(',')
        .map(|part| parse_int(part, "--seeds"))
        .collect()
}

/// Parses a list flag value; the word `all` stands for every item of `all`.
///
/// # Errors
///
/// As [`parse_list`].
pub fn parse_list_or_all<T, const N: usize>(
    text: &str,
    what: &str,
    all: [T; N],
) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    if text.eq_ignore_ascii_case("all") {
        Ok(all.into())
    } else {
        parse_list(text, what)
    }
}

/// Stores a parsed flag value in the spec field it belongs to.
///
/// # Errors
///
/// Passes the parse error through.
pub fn set<T>(field: &mut T, parsed: Result<T, String>) -> Result<(), String> {
    *field = parsed?;
    Ok(())
}

/// Prints one line of a human summary: to stderr when a machine-readable
/// artifact owns stdout.
pub fn emit(to_stderr: bool, line: &str) {
    if to_stderr {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

/// What a spec flag does to the spec it edits.
#[derive(Debug)]
enum SpecEdit<S> {
    /// The flag is followed by a value.
    Value(fn(&mut S, &str) -> Result<(), String>),
    /// The flag's value is a sweep, stored in the field `fn` returns.
    Sweep(fn(&mut S) -> &mut Sweep),
    /// The flag's value is an unsigned integer, stored likewise.
    Int(fn(&mut S) -> &mut u64),
    /// The flag stands alone.
    Switch(fn(&mut S)),
}

/// One row of a subcommand's flag table.
#[derive(Debug)]
pub struct SpecFlag<S> {
    names: &'static [&'static str],
    edit: SpecEdit<S>,
}

impl<S> SpecFlag<S> {
    /// A flag followed by a value, under every spelling in `names` (errors
    /// name the last one); `apply` parses the value into the spec.
    pub const fn value(
        names: &'static [&'static str],
        apply: fn(&mut S, &str) -> Result<(), String>,
    ) -> Self {
        SpecFlag {
            names,
            edit: SpecEdit::Value(apply),
        }
    }

    /// A flag whose value is a sweep ([`parse_sweep`], errors naming the
    /// last spelling), stored in the field `field` returns.
    pub const fn sweep(names: &'static [&'static str], field: fn(&mut S) -> &mut Sweep) -> Self {
        SpecFlag {
            names,
            edit: SpecEdit::Sweep(field),
        }
    }

    /// A flag whose value is an unsigned integer ([`parse_int`]), stored
    /// like a [`SpecFlag::sweep`].
    pub const fn int(names: &'static [&'static str], field: fn(&mut S) -> &mut u64) -> Self {
        SpecFlag {
            names,
            edit: SpecEdit::Int(field),
        }
    }

    /// A flag that stands alone.
    pub const fn switch(names: &'static [&'static str], apply: fn(&mut S)) -> Self {
        SpecFlag {
            names,
            edit: SpecEdit::Switch(apply),
        }
    }

    /// The spelling errors name: the last one.
    fn long(&self) -> &'static str {
        self.names.last().expect("a flag has a spelling")
    }
}

/// The destinations given for a layer's own artifact flags
/// ([`LabLayer::ARTIFACT_FLAGS`]), in that order.
#[derive(Debug)]
pub struct Artifacts(Vec<(&'static str, Option<String>)>);

impl Artifacts {
    /// Where `flag`'s artifact goes, if the flag was given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, destination)| destination.as_deref())
    }
}

/// What one experiment subcommand adds to [`lab_command`].
pub trait LabLayer {
    /// The layer's spec type.
    type Spec: Experiment + 'static;
    /// The subcommand's name in messages, with its trailing space:
    /// `"fabric "`, or `""` for `run`/`sweep`.
    const WHAT: &'static str;
    /// Appended to the unknown-flag error.
    const UNKNOWN_FLAG_HINT: &'static str = "";
    /// The spec flags.
    const FLAGS: &'static [SpecFlag<Self::Spec>];
    /// Flags naming the destination of an artifact of the layer's own, next
    /// to the shared `--json`/`--csv` (`'-'` = stdout, like theirs).
    const ARTIFACT_FLAGS: &'static [&'static str] = &[];

    /// The fixed spec of the layer's acceptance gate. `Some`: the subcommand
    /// also takes `--smoke` (run and gate this spec; spec flags are refused)
    /// and `--print-spec`.
    fn smoke_spec(&self) -> Option<Self::Spec> {
        None
    }

    /// Edits the spec for the artifacts asked for, before it is expanded or
    /// printed.
    fn arm(&self, _spec: &mut Self::Spec, _artifacts: &Artifacts, _smoke: bool) {}

    /// Refuses artifact flags the run could not honour, before it starts.
    ///
    /// # Errors
    ///
    /// Names the flag and what it needs.
    fn check(
        &self,
        _spec: &Self::Spec,
        _artifacts: &Artifacts,
        _smoke: bool,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Prints the human summary of a report.
    fn summary(&self, report: &LabReport<Self::Spec>, to_stderr: bool);

    /// Runs what follows the main report, which is already summarised and
    /// written: further legs on the same `runner`, the layer's own artifacts,
    /// and — last, so a failure leaves the evidence written — the gates.
    ///
    /// # Errors
    ///
    /// Reports an unwritable artifact or a failed gate.
    fn finish(
        &self,
        _runner: &LabRunner,
        _report: &LabReport<Self::Spec>,
        _artifacts: &Artifacts,
        _smoke: bool,
        _to_stderr: bool,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// Runs one experiment subcommand over `args`: reads the flags; takes the
/// gate suite's fixed spec (`--smoke`, which refuses spec flags) or else the
/// `--spec` file or the layer's default, edited by the spec flags in
/// command-line order; expands it; prints it and stops (`--print-spec`) or
/// checks the artifact destinations, runs it, prints the summary, writes the
/// reports and hands over to [`LabLayer::finish`].
///
/// # Errors
///
/// Reports the first flag, spec, artifact or gate problem.
pub fn lab_command<L: LabLayer>(layer: &L, args: &[String]) -> Result<(), String> {
    let smoke_spec = layer.smoke_spec();
    let mut base: Option<L::Spec> = None;
    let mut output = OutputOptions::default();
    let (mut smoke, mut print_spec) = (false, false);
    let mut artifacts = Artifacts(L::ARTIFACT_FLAGS.iter().map(|flag| (*flag, None)).collect());
    // Spec flags are collected first and applied over the base afterwards,
    // so `--seeds 9 --spec file` reseeds the saved experiment like
    // `--spec file --seeds 9` does.
    let mut edits: Vec<(&SpecFlag<L::Spec>, &str)> = Vec::new();
    let gated = smoke_spec.is_some();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--smoke" if gated => smoke = true,
            "--print-spec" if gated => print_spec = true,
            "--spec" => {
                let text = read_spec_text(value("--spec")?)?;
                base = Some(experiment::from_json(&text).map_err(|e| e.to_string())?);
            }
            "--threads" => {
                output.threads = Some(parse_int(value("--threads")?, "--threads")? as usize);
            }
            "--json" => output.json = Some(value("--json")?.to_owned()),
            "--csv" => output.csv = Some(value("--csv")?.to_owned()),
            other => {
                if let Some(slot) = artifacts.0.iter_mut().find(|(name, _)| *name == other) {
                    slot.1 = Some(value(slot.0)?.to_owned());
                } else if let Some(flag) = L::FLAGS.iter().find(|f| f.names.contains(&other)) {
                    edits.push(match flag.edit {
                        SpecEdit::Switch(_) => (flag, ""),
                        _ => (flag, value(flag.long())?),
                    });
                } else {
                    return Err(format!(
                        "unknown {}flag {other:?}{}",
                        L::WHAT,
                        L::UNKNOWN_FLAG_HINT
                    ));
                }
            }
        }
    }
    let mut spec = match smoke_spec {
        // The smoke suite is a *fixed* acceptance gate: letting spec flags
        // through would let a typo (or a well-meaning CI edit) weaken the
        // gated scenario while still reporting "gate held".
        Some(_) if smoke && (base.is_some() || !edits.is_empty()) => {
            return Err(
                "--smoke runs the fixed gate suite; drop --spec and the spec flags \
                 (--threads/--json/--csv remain available)"
                    .to_owned(),
            );
        }
        Some(fixed) if smoke => fixed,
        _ => base.unwrap_or_default(),
    };
    for (flag, value) in edits {
        match flag.edit {
            SpecEdit::Value(apply) => apply(&mut spec, value)?,
            SpecEdit::Sweep(field) => *field(&mut spec) = parse_sweep(value, flag.long())?,
            SpecEdit::Int(field) => *field(&mut spec) = parse_int(value, flag.long())?,
            SpecEdit::Switch(apply) => apply(&mut spec),
        }
    }
    layer.arm(&mut spec, &artifacts, smoke);
    experiment::expand(&spec).map_err(|e| e.to_string())?;
    if print_spec {
        println!("{}", experiment::to_json(&spec));
        return Ok(());
    }
    // Every artifact check runs before the first simulated slot: a sweep is
    // never discarded on a flag combination that could have been refused up
    // front.
    let destinations: Vec<(&str, Option<&str>)> = artifacts
        .0
        .iter()
        .map(|(flag, destination)| (*flag, destination.as_deref()))
        .collect();
    let to_stderr = output.machine_stdout(&destinations)?;
    layer.check(&spec, &artifacts, smoke)?;
    let mut runner = LabRunner::new();
    if let Some(threads) = output.threads {
        runner = runner.with_threads(threads);
    }
    let report = runner.run(&spec).map_err(|e| e.to_string())?;
    layer.summary(&report, to_stderr);
    output.write_reports(L::WHAT, || report.to_json(), || report.to_csv())?;
    layer.finish(&runner, &report, &artifacts, smoke, to_stderr)
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

//! `analysis.toml`: which files are hot and which modules feed reports.
//!
//! The parser is a hand-rolled TOML *subset* in the spirit of the vendored
//! dependency stand-ins (the container has no crates.io access): `[table]`
//! headers, `key = "string"`, `key = integer`, `key = true/false`, and
//! (possibly multi-line) string arrays. That is all the checked-in
//! configuration needs; anything else — an `[[array-of-tables]]` header
//! included — is a parse error so config drift is loud.

use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// An array of quoted strings.
    StrArray(Vec<String>),
}

/// A `key = value` table (order-stable via `BTreeMap`).
pub type TomlTable = BTreeMap<String, TomlValue>;

/// The parsed document: named tables.
#[derive(Debug, Default)]
pub struct TomlDoc {
    /// `[name]` tables.
    pub tables: BTreeMap<String, TomlTable>,
    /// Keys written before any table header.
    pub root: TomlTable,
}

/// The analyzer's effective configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) that are walked for `.rs` files.
    pub roots: Vec<String>,
    /// Files whose steady-state slot loop must stay allocation-free and
    /// panic-free (the PR-3 property, made source-visible).
    pub hot_files: Vec<String>,
    /// Function names (exact, or `prefix*`) that are *setup/teardown*, not
    /// slot-loop code: constructors, preloaders, report builders. The
    /// hotpath-alloc rule does not apply inside them.
    pub setup_functions: Vec<String>,
    /// Path prefixes whose modules feed `SimulationReport`/`FabricRunReport`/
    /// serde output and therefore must be deterministic.
    pub determinism_paths: Vec<String>,
    /// Identifier stems that mark slot/ordinal arithmetic for the
    /// truncating-cast check.
    pub ordinal_stems: Vec<String>,
}

impl Config {
    /// Parses a configuration document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for syntax errors,
    /// unknown sections/keys, and missing required keys.
    pub fn from_toml(text: &str) -> Result<Config, String> {
        let doc = parse_toml(text)?;
        let mut config = Config {
            roots: vec![
                "crates".into(),
                "src".into(),
                "tests".into(),
                "examples".into(),
                "vendor".into(),
            ],
            hot_files: Vec::new(),
            setup_functions: Vec::new(),
            determinism_paths: Vec::new(),
            ordinal_stems: vec!["slot".into(), "ordinal".into(), "seq".into()],
        };
        for (name, table) in &doc.tables {
            match name.as_str() {
                "workspace" => {
                    if let Some(value) = table.get("roots") {
                        config.roots = as_str_array(value, "workspace.roots")?;
                    }
                    check_keys(table, &["roots"], "workspace")?;
                }
                "hotpath" => {
                    config.hot_files = as_str_array(require(table, "files", "hotpath")?, "files")?;
                    if let Some(value) = table.get("setup_functions") {
                        config.setup_functions = as_str_array(value, "setup_functions")?;
                    }
                    check_keys(table, &["files", "setup_functions"], "hotpath")?;
                }
                "determinism" => {
                    config.determinism_paths =
                        as_str_array(require(table, "paths", "determinism")?, "paths")?;
                    if let Some(value) = table.get("ordinal_stems") {
                        config.ordinal_stems = as_str_array(value, "ordinal_stems")?;
                    }
                    check_keys(table, &["paths", "ordinal_stems"], "determinism")?;
                }
                other => return Err(format!("unknown section [{other}] in analysis.toml")),
            }
        }
        Ok(config)
    }

    /// Whether `fn_name` matches the setup-function list (exact match, or a
    /// `prefix*` glob entry).
    pub fn is_setup_function(&self, fn_name: &str) -> bool {
        self.setup_functions
            .iter()
            .any(|pattern| match pattern.strip_suffix('*') {
                Some(prefix) => fn_name.starts_with(prefix),
                None => fn_name == pattern,
            })
    }
}

fn require<'a>(table: &'a TomlTable, key: &str, section: &str) -> Result<&'a TomlValue, String> {
    table
        .get(key)
        .ok_or_else(|| format!("[{section}] is missing required key {key:?}"))
}

fn check_keys(table: &TomlTable, allowed: &[&str], section: &str) -> Result<(), String> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?} in [{section}]"));
        }
    }
    Ok(())
}

fn as_str_array(value: &TomlValue, key: &str) -> Result<Vec<String>, String> {
    match value {
        TomlValue::StrArray(items) => Ok(items.clone()),
        other => Err(format!("{key} must be a string array, found {other:?}")),
    }
}

/// Parses the TOML subset. Line-oriented: a `key = [` array may span lines
/// until its closing `]`.
pub fn parse_toml(text: &str) -> Result<TomlDoc, String> {
    enum Target {
        Root,
        Table(String),
    }
    let mut doc = TomlDoc::default();
    let mut target = Target::Root;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("[[") {
            return Err(format!(
                "line {line_no}: unknown section {line} in analysis.toml (no array of \
                 tables is read)"
            ));
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: malformed [section] header"))?
                .trim()
                .to_owned();
            doc.tables.entry(name.clone()).or_default();
            target = Target::Table(name);
            continue;
        }
        let (key, value_text) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected `key = value`"))?;
        let key = key.trim().to_owned();
        let mut value_text = value_text.trim().to_owned();
        // Multi-line arrays: accumulate until the closing bracket.
        if value_text.starts_with('[') {
            while !balanced_array(&value_text) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("line {line_no}: unterminated array for {key:?}"))?;
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
        }
        let value = parse_value(&value_text)
            .map_err(|e| format!("line {line_no}: value for {key:?}: {e}"))?;
        let table = match &target {
            Target::Root => &mut doc.root,
            Target::Table(name) => doc.tables.get_mut(name).expect("header created the table"),
        };
        if table.insert(key.clone(), value).is_some() {
            return Err(format!("line {line_no}: duplicate key {key:?}"));
        }
    }
    Ok(doc)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut previous_was_escape = false;
    for (pos, c) in line.char_indices() {
        match c {
            '"' if !previous_was_escape => in_string = !in_string,
            '#' if !in_string => return &line[..pos],
            _ => {}
        }
        previous_was_escape = c == '\\' && !previous_was_escape;
    }
    line
}

/// Whether an accumulated array text has its closing `]` (quote-aware).
fn balanced_array(text: &str) -> bool {
    let mut in_string = false;
    let mut previous_was_escape = false;
    let mut depth = 0i32;
    for c in text.chars() {
        match c {
            '"' if !previous_was_escape => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
        previous_was_escape = c == '\\' && !previous_was_escape;
    }
    depth == 0
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    let text = text.trim();
    if text == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if text == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_owned())?;
        return Ok(TomlValue::Str(unescape(inner)));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_owned())?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                TomlValue::Str(s) => items.push(s),
                other => return Err(format!("arrays hold strings only, found {other:?}")),
            }
        }
        return Ok(TomlValue::StrArray(items));
    }
    text.parse::<u64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("cannot parse {text:?} (expected string, integer, bool, or array)"))
}

/// Splits array items at top-level commas (quote-aware).
fn split_array_items(inner: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut previous_was_escape = false;
    for c in inner.chars() {
        match c {
            '"' if !previous_was_escape => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
        previous_was_escape = c == '\\' && !previous_was_escape;
    }
    items.push(current);
    items
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') | None => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[workspace]
roots = ["crates", "src"]

[hotpath]
files = [
  "crates/core/src/hotpath.rs", # trailing comment
  "crates/core/src/rads.rs",
]
setup_functions = ["new", "with_*"]

[determinism]
paths = ["crates/sim/src"]
"#;

    #[test]
    fn parses_the_full_shape() {
        let config = Config::from_toml(SAMPLE).expect("sample parses");
        assert_eq!(config.roots, vec!["crates", "src"]);
        assert_eq!(config.hot_files.len(), 2);
        assert!(config.is_setup_function("new"));
        assert!(config.is_setup_function("with_capacity"));
        assert!(!config.is_setup_function("step"));
        assert_eq!(config.determinism_paths, vec!["crates/sim/src"]);
    }

    #[test]
    fn unknown_sections_and_keys_are_errors() {
        assert!(Config::from_toml("[mystery]\nx = 1\n").is_err());
        assert!(Config::from_toml("[hotpath]\nfiles = []\nbogus = 1\n").is_err());
        assert!(Config::from_toml("[determinism]\n").is_err()); // missing paths
                                                                // The cross-file rules rustc replaced: a stale analysis.toml that
                                                                // still configures them fails loudly instead of checking nothing.
        for stale in [
            "[[enum_sync]]\nsource_enum = \"DesignKind\"\n",
            "[[impl_sync]]\ntrait = \"PacketBuffer\"\n",
        ] {
            let err = Config::from_toml(stale).expect_err(stale);
            assert!(err.contains("unknown section [["), "{err}");
        }
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse_toml("[t]\nkey = \"has # hash\"\n").expect("parses");
        assert_eq!(
            doc.tables["t"]["key"],
            TomlValue::Str("has # hash".to_owned())
        );
    }
}

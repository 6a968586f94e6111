//! Diagnostics and the JSON artifact.
//!
//! The [`AnalysisReport`] round-trips through the vendored `serde_json` so CI
//! can upload `analysis.json` and tooling can diff runs.

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// How bad a finding is. Errors gate CI; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed or waived for the run to pass.
    Error,
    /// Reported and recorded, but does not fail the run.
    Warning,
}

impl Severity {
    /// The JSON/stdout spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, waived or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired (`hotpath-alloc`, `determinism`, …).
    pub rule: String,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation of what fired and why it matters.
    pub message: String,
    /// True when an in-source waiver suppressed this finding.
    pub waived: bool,
    /// The waiver's justification, when waived.
    pub justification: Option<String>,
}

impl Diagnostic {
    /// Creates an unwaived diagnostic.
    pub fn new(
        rule: &str,
        severity: Severity,
        file: &str,
        line: u32,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            severity,
            file: file.to_owned(),
            line,
            message,
            waived: false,
            justification: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.waived {
            write!(
                f,
                "waived[{}] {}:{}: {} (justification: {})",
                self.rule,
                self.file,
                self.line,
                self.message,
                self.justification.as_deref().unwrap_or("-"),
            )
        } else {
            write!(
                f,
                "{}[{}] {}:{}: {}",
                self.severity, self.rule, self.file, self.line, self.message
            )
        }
    }
}

/// The full result of one analysis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Artifact schema version.
    pub schema: u64,
    /// Number of `.rs` files scanned.
    pub files_scanned: u64,
    /// Every finding, in (file, line) order, waived ones included.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Current artifact schema version.
    pub const SCHEMA: u64 = 1;

    /// Unwaived errors — the CI gate.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| !d.waived && d.severity == Severity::Error)
            .count()
    }

    /// Unwaived warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| !d.waived && d.severity == Severity::Warning)
            .count()
    }

    /// Findings suppressed by a justified waiver.
    pub fn waived_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.waived).count()
    }

    /// Renders the artifact as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // A report is plain data; serialization cannot fail in practice.
            format!("{{\"error\":\"{e}\"}}")
        })
    }

    /// Parses an artifact produced by [`AnalysisReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` message for malformed or mis-shaped input.
    pub fn from_json(text: &str) -> Result<AnalysisReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

// Hand-written (the derive spells an enum by its variant names): severities
// are lower-case.
impl Serialize for Diagnostic {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("Diagnostic", 7)?;
        st.serialize_field("rule", &self.rule)?;
        st.serialize_field("severity", &self.severity.as_str().to_owned())?;
        st.serialize_field("file", &self.file)?;
        st.serialize_field("line", &u64::from(self.line))?;
        st.serialize_field("message", &self.message)?;
        st.serialize_field("waived", &self.waived)?;
        st.serialize_field("justification", &self.justification)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Diagnostic {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = Diagnostic;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a diagnostic object")
            }
            fn visit_map<A: de::MapAccess<'de>>(self, mut map: A) -> Result<Diagnostic, A::Error> {
                let mut diag = Diagnostic::new("", Severity::Error, "", 0, String::new());
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "rule" => diag.rule = map.next_value()?,
                        "severity" => {
                            let text: String = map.next_value()?;
                            diag.severity = match text.as_str() {
                                "error" => Severity::Error,
                                "warning" => Severity::Warning,
                                other => {
                                    return Err(de::Error::custom(format_args!(
                                        "unknown severity {other:?}"
                                    )))
                                }
                            };
                        }
                        "file" => diag.file = map.next_value()?,
                        "line" => {
                            let line: u64 = map.next_value()?;
                            diag.line = u32::try_from(line).map_err(|_| {
                                de::Error::custom(format_args!("line {line} out of range"))
                            })?;
                        }
                        "message" => diag.message = map.next_value()?,
                        "waived" => diag.waived = map.next_value()?,
                        "justification" => diag.justification = map.next_value()?,
                        other => {
                            return Err(de::Error::custom(format_args!(
                                "unknown diagnostic field {other:?}"
                            )))
                        }
                    }
                }
                Ok(diag)
            }
        }
        deserializer.deserialize_any(V)
    }
}

// Hand-written (the derive has no computed fields): the three counts are
// derived on the way out and recomputed, not trusted, on the way in.
impl Serialize for AnalysisReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("AnalysisReport", 6)?;
        st.serialize_field("schema", &self.schema)?;
        st.serialize_field("files_scanned", &self.files_scanned)?;
        st.serialize_field("errors", &(self.error_count() as u64))?;
        st.serialize_field("warnings", &(self.warning_count() as u64))?;
        st.serialize_field("waived", &(self.waived_count() as u64))?;
        st.serialize_field("diagnostics", &self.diagnostics)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for AnalysisReport {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = AnalysisReport;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an analysis-report object")
            }
            fn visit_map<A: de::MapAccess<'de>>(
                self,
                mut map: A,
            ) -> Result<AnalysisReport, A::Error> {
                let mut report = AnalysisReport {
                    schema: AnalysisReport::SCHEMA,
                    files_scanned: 0,
                    diagnostics: Vec::new(),
                };
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "schema" => report.schema = map.next_value()?,
                        "files_scanned" => report.files_scanned = map.next_value()?,
                        // Derived counts are recomputed, not trusted.
                        "errors" | "warnings" | "waived" => {
                            let _: u64 = map.next_value()?;
                        }
                        "diagnostics" => report.diagnostics = map.next_value()?,
                        other => {
                            return Err(de::Error::custom(format_args!(
                                "unknown report field {other:?}"
                            )))
                        }
                    }
                }
                Ok(report)
            }
        }
        deserializer.deserialize_any(V)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_split_waived_from_live() {
        let mut waived = Diagnostic::new("determinism", Severity::Error, "a.rs", 3, "x".into());
        waived.waived = true;
        waived.justification = Some("why".into());
        let report = AnalysisReport {
            schema: AnalysisReport::SCHEMA,
            files_scanned: 2,
            diagnostics: vec![
                Diagnostic::new("hotpath-alloc", Severity::Error, "a.rs", 1, "x".into()),
                Diagnostic::new("truncating-cast", Severity::Warning, "a.rs", 2, "x".into()),
                waived,
            ],
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.waived_count(), 1);
    }
}

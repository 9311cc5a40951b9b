//! Diagnostics: what a rule reports and how it is printed.

use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: printed, never fails the build.
    Warn,
    /// Hard failure under `--check` (what a section without a `severity`
    /// key gets).
    #[default]
    Error,
}

impl Severity {
    /// The lowercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a severity from config text.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "warn" | "warning" => Ok(Severity::Warn),
            "error" | "deny" => Ok(Severity::Error),
            other => Err(format!("unknown severity {other:?} (expected \"warn\" or \"error\")")),
        }
    }
}

/// One finding at a `file:line`.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: String,
    /// Its configured severity.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation of the violation.
    pub message: String,
    /// Supporting context — for the transitive rules, the call chain that
    /// carries the effect to the flagged line.
    pub note: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path,
            self.line,
            self.severity.as_str(),
            self.rule,
            self.message
        )?;
        if let Some(note) = &self.note {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule() {
        let d = Diagnostic {
            rule: "wire-hygiene".into(),
            severity: Severity::Error,
            path: "crates/core/src/engine.rs".into(),
            line: 42,
            message: "`P` is one-way".into(),
            note: None,
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/engine.rs:42: error [wire-hygiene] `P` is one-way"
        );
    }

    #[test]
    fn notes_render_indented() {
        let d = Diagnostic {
            rule: "no-panic-hot-path".into(),
            severity: Severity::Error,
            path: "p.rs".into(),
            line: 3,
            message: "m".into(),
            note: Some("call chain: a → b".into()),
        };
        assert_eq!(d.to_string(), "p.rs:3: error [no-panic-hot-path] m\n  note: call chain: a → b");
    }
}

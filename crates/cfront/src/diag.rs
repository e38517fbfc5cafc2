//! Diagnostics shared by the whole compiler chain.
//!
//! The paper's PC-CC stage *rejects* programs whose `pure` annotations cannot
//! be verified; those rejections are reported through [`Diagnostic`]s with the
//! offending span, mirroring a conventional compiler error stream.

use crate::span::{LineMap, Span};
use std::fmt;

/// Severity of a diagnostic. `Error` aborts the pipeline stage that raised
/// it; `Warning` and `Note` are informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable machine-readable codes so tests can assert on *which* rule fired
/// rather than matching message prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    // Lexing / parsing.
    LexUnexpectedChar,
    LexUnterminated,
    ParseExpected,
    ParseUnexpectedEof,
    // Preprocessor.
    PpBadDirective,
    PpMissingInclude,
    PpUnbalancedConditional,
    PpMacroArity,
    // Purity verification (the paper's PC-CC rules, Sect. 3.2).
    PureCallsImpure,
    PureWritesExternal,
    PureAssignsExternalPtrWithoutCast,
    PureFreesForeign,
    PureGlobalWrite,
    PurePointerReassigned,
    PureUnknownCallee,
    PureParamWrittenInLoop,
    /// `static` local in a pure function: state that outlives the call.
    PureStaticLocal,
    PureRecursionOk, // note-level: self recursion is allowed by the hashset rule
    // Polyhedral extraction.
    PolyNonAffine,
    PolyUnsupported,
    // Static race analysis of `omp parallel for` bodies (`purec check`).
    /// Non-reduction write to a shared scalar from a parallel body.
    RaceSharedWrite,
    /// Reduction-shaped update of a shared scalar (needs a reduction
    /// clause the runtime does not implement — verdict stays Unknown).
    RaceSharedReduction,
    /// Loop-carried dependence proven by the polyhedral dependence test.
    RaceLoopCarried,
    /// Independence could not be proven (non-affine access, impure call,
    /// unsupported shape) — the dynamic race check remains the backstop.
    RaceUnprovable,
    /// `omp parallel for` clause the runtime does not understand.
    OmpUnknownClause,
    /// `schedule(...)` kind the runtime silently degrades to static.
    OmpUnknownSchedule,
    /// A second `schedule` clause on one loop header (GCC: "too many
    /// 'schedule' clauses").
    OmpDuplicateSchedule,
    // Purity inference (`purec check --infer-pure`).
    /// Unannotated function that passes the PC-CC rules as-is.
    PureInferrable,
    /// Unannotated function that fails the PC-CC rules (with the first
    /// blocking reason).
    PureInferenceBlocked,
    // Dataflow lints.
    /// Scalar local read before any prior write on the textual walk.
    LintUninitRead,
    /// Local never referenced after its declaration.
    LintUnusedVar,
    /// Local written but never read.
    LintDeadStore,
    // Driver.
    Io,
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// One reported problem: severity, stable code, message and source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: Code,
    pub message: String,
    pub span: Span,
}

impl Diagnostic {
    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span,
        }
    }

    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            span,
        }
    }

    pub fn note(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            code,
            message: message.into(),
            span,
        }
    }

    /// Render `error[PureCallsImpure] at 12:3: ...` using a line map.
    pub fn render(&self, map: &LineMap) -> String {
        let pos = map.line_col(self.span.start);
        format!(
            "{}[{}] at {}: {}",
            self.severity, self.code, pos, self.message
        )
    }
}

/// Accumulator used by every pass. Passes push diagnostics as they go and
/// callers decide whether errors are fatal.
#[derive(Debug, Default, Clone)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    pub fn error(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(code, span, message));
    }

    pub fn warning(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::warning(code, span, message));
    }

    pub fn note(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::note(code, span, message));
    }

    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if any diagnostic carries the given code (any severity).
    pub fn has_code(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Render all diagnostics against `src`, one per line.
    pub fn render_all(&self, src: &str) -> String {
        let map = LineMap::new(src);
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render(&map));
            out.push('\n');
        }
        out
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_detection_and_counts() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.warning(Code::PolyNonAffine, Span::DUMMY, "non-affine access");
        assert!(!ds.has_errors());
        ds.error(Code::PureGlobalWrite, Span::new(3, 8), "global write");
        assert!(ds.has_errors());
        assert_eq!(ds.error_count(), 1);
        assert!(ds.has_code(Code::PureGlobalWrite));
        assert!(!ds.has_code(Code::PureFreesForeign));
    }

    #[test]
    fn render_includes_position_and_code() {
        let src = "int a;\nfoo();\n";
        let mut ds = Diagnostics::new();
        ds.error(
            Code::PureCallsImpure,
            Span::new(7, 12),
            "call to impure function 'foo'",
        );
        let rendered = ds.render_all(src);
        assert!(
            rendered.contains("error[PureCallsImpure] at 2:1"),
            "{rendered}"
        );
    }
}

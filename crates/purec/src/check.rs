//! `purec check` — run the static analyzer without compiling.
//!
//! Preprocess → parse → purity verification → the Listing-5 screen of
//! SCoP marking → [`analysis::analyze_unit`] over the source *as written* (hand-authored pragmas included), with
//! human-readable or machine-readable (`--json`, one object per line)
//! output. Exit status 1 iff any error-severity diagnostic fired.

use cfront::diag::{Diagnostics, Severity};
use cfront::parser::parse;
use cfront::span::LineMap;
use purec_core::{mark_scops, verify_unit, PureSet};
use serde_json::Value;

/// Options for one `purec check` invocation.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Seeded pure registry (swap for the `--no-alloc-pure` ablation).
    pub seed: PureSet,
    /// Also report which unannotated functions could be declared pure
    /// (`--infer-pure`).
    pub infer_pure: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            seed: PureSet::seeded(),
            infer_pure: false,
        }
    }
}

/// Everything `purec check` produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Preprocessed text the spans refer to (identical to the input for
    /// directive-free sources).
    pub text: String,
    /// Purity + race + lint diagnostics, in pass order.
    pub diags: Diagnostics,
    /// Unannotated functions that could be declared pure (only populated
    /// with [`CheckOptions::infer_pure`]).
    pub inferred_pure: Vec<String>,
}

impl CheckOutcome {
    pub fn has_errors(&self) -> bool {
        self.diags.has_errors()
    }

    /// Human-readable rendering, one diagnostic per line.
    pub fn render(&self) -> String {
        self.diags.render_all(&self.text)
    }

    /// Machine-readable rendering: one JSON object per line with
    /// `severity`, `code`, `message`, 1-based `line`/`col`, and the byte
    /// span `start`/`end`.
    pub fn render_json(&self) -> String {
        let map = LineMap::new(&self.text);
        let mut out = String::new();
        for d in self.diags.items() {
            let pos = map.line_col(d.span.start);
            let obj = Value::Object(vec![
                ("severity".to_string(), Value::Str(d.severity.to_string())),
                ("code".to_string(), Value::Str(d.code.to_string())),
                ("message".to_string(), Value::Str(d.message.clone())),
                ("line".to_string(), Value::Num(pos.line as f64)),
                ("col".to_string(), Value::Num(pos.col as f64)),
                ("start".to_string(), Value::Num(d.span.start as f64)),
                ("end".to_string(), Value::Num(d.span.end as f64)),
            ]);
            out.push_str(&serde_json::to_string(&obj).expect("render json"));
            out.push('\n');
        }
        out
    }
}

/// Run the checker over raw source text. Parse/preprocess failures are
/// reported through the same diagnostic stream (no panics).
pub fn check_source(source: &str, opts: &CheckOptions) -> CheckOutcome {
    let pp = cprep::preprocess(source, &Default::default());
    let mut diags = pp.diags.clone();
    if pp.diags.has_errors() {
        return CheckOutcome {
            text: pp.text,
            diags,
            inferred_pure: Vec::new(),
        };
    }

    let parsed = parse(&pp.text);
    diags.extend(parsed.diags.clone());
    if parsed.diags.has_errors() {
        return CheckOutcome {
            text: pp.text,
            diags,
            inferred_pure: Vec::new(),
        };
    }

    // Declared-pure verification first: its pure set feeds the race
    // analyzer, and its violations are part of the check output.
    let purity = verify_unit(&parsed.unit, opts.seed.clone());
    diags.extend(purity.diags);

    // The caller-side half of the purity contract (paper Listing 5) is
    // checked while marking SCoPs; the marks themselves are not needed.
    let mut marked = parsed.unit.clone();
    diags.extend(mark_scops(&mut marked, &purity.pure_set, &purity.global_reads).diags);

    let report = analysis::analyze_unit(
        &parsed.unit,
        &purity.pure_set,
        &analysis::AnalysisOptions {
            infer_pure: opts.infer_pure,
        },
    );
    diags.extend(report.diags);

    // Keep output deterministic and readable: errors/warnings in source
    // order within each pass is already the case; nothing to sort.
    debug_assert!(diags.items().iter().all(|d| {
        matches!(
            d.severity,
            Severity::Error | Severity::Warning | Severity::Note
        )
    }));

    CheckOutcome {
        text: pp.text,
        diags,
        inferred_pure: report.inferred_pure,
    }
}

//! Parsing of `#pragma omp parallel for` clause lists.
//!
//! One parser serves both consumers: the interpreter engines only need
//! the [`OmpSchedule`], while the static race analyzer additionally
//! consumes the `private(...)` list and wants to *warn* about clauses or
//! schedule kinds the runtime does not implement (which previously
//! degraded to `static` silently).

use crate::omprt::sched::OmpSchedule;

/// The clause list of one `omp parallel for` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmpClauses {
    /// Effective schedule (unknown kinds degrade to `Static`, recorded in
    /// [`OmpClauses::unknown_schedule`]).
    pub schedule: OmpSchedule,
    /// Variables listed in `private(...)` clauses.
    pub privates: Vec<String>,
    /// Clause names the runtime does not understand (e.g. `reduction`,
    /// `collapse`, `nowait`).
    pub unknown_clauses: Vec<String>,
    /// `schedule(kind)` kind that fell back to static (e.g. `runtime`).
    pub unknown_schedule: Option<String>,
}

/// Parse the clause list of `pragma omp parallel for ...` /
/// `pragma omp for ...`. Returns `None` when `text` is not a
/// parallel-for pragma at all (e.g. `omp simd`, `scop`).
pub fn parse_omp_parallel_for_clauses(text: &str) -> Option<OmpClauses> {
    let t = text.trim();
    let rest = t
        .strip_prefix("pragma omp parallel for")
        .or_else(|| t.strip_prefix("pragma omp for"))?;

    let mut clauses = OmpClauses {
        schedule: OmpSchedule::Static,
        privates: Vec::new(),
        unknown_clauses: Vec::new(),
        unknown_schedule: None,
    };

    let mut s = rest;
    loop {
        s = s.trim_start_matches([' ', '\t', ',']);
        if s.is_empty() {
            break;
        }
        let name_len = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(s.len());
        if name_len == 0 {
            // Stray punctuation — skip one char rather than loop forever.
            s = &s[1..];
            continue;
        }
        let name = &s[..name_len];
        s = &s[name_len..];
        let args = if let Some(open) = s.strip_prefix('(') {
            match open.find(')') {
                Some(close) => {
                    let a = &open[..close];
                    s = &open[close + 1..];
                    Some(a)
                }
                None => {
                    // Unbalanced parenthesis: consume the rest.
                    s = "";
                    Some(open)
                }
            }
        } else {
            None
        };

        match (name, args) {
            ("schedule", Some(spec)) => {
                let mut parts = spec.split(',').map(str::trim);
                let kind = parts.next().unwrap_or("");
                let chunk: u64 = parts.next().and_then(|c| c.parse().ok()).unwrap_or(1);
                clauses.schedule = match kind {
                    "dynamic" => OmpSchedule::Dynamic(chunk),
                    "guided" => OmpSchedule::Guided(chunk.max(1)),
                    "static" if chunk > 1 => OmpSchedule::StaticChunk(chunk),
                    "static" => OmpSchedule::Static,
                    other => {
                        clauses.unknown_schedule = Some(other.to_string());
                        OmpSchedule::Static
                    }
                };
            }
            ("private", Some(list)) => {
                clauses.privates.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|v| !v.is_empty())
                        .map(str::to_string),
                );
            }
            _ => clauses.unknown_clauses.push(name.to_string()),
        }
    }

    Some(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_parallel_for_is_static() {
        let c = parse_omp_parallel_for_clauses("pragma omp parallel for").unwrap();
        assert_eq!(c.schedule, OmpSchedule::Static);
        assert!(c.privates.is_empty());
        assert!(c.unknown_clauses.is_empty());
        assert!(c.unknown_schedule.is_none());
    }

    #[test]
    fn non_parallel_pragmas_are_none() {
        assert!(parse_omp_parallel_for_clauses("pragma omp simd").is_none());
        assert!(parse_omp_parallel_for_clauses("pragma GCC ivdep").is_none());
    }

    #[test]
    fn schedule_kinds_parse() {
        let c = |t: &str| parse_omp_parallel_for_clauses(t).unwrap().schedule;
        assert_eq!(
            c("pragma omp parallel for schedule(dynamic, 4)"),
            OmpSchedule::Dynamic(4)
        );
        assert_eq!(
            c("pragma omp parallel for schedule(guided)"),
            OmpSchedule::Guided(1)
        );
        assert_eq!(
            c("pragma omp parallel for schedule(static, 8)"),
            OmpSchedule::StaticChunk(8)
        );
        assert_eq!(c("pragma omp for schedule(static)"), OmpSchedule::Static);
    }

    #[test]
    fn private_list_collected() {
        let c = parse_omp_parallel_for_clauses(
            "pragma omp parallel for private(t2t, t1, t2) schedule(dynamic,2)",
        )
        .unwrap();
        assert_eq!(c.privates, vec!["t2t", "t1", "t2"]);
        assert_eq!(c.schedule, OmpSchedule::Dynamic(2));
        assert!(c.unknown_clauses.is_empty());
    }

    #[test]
    fn unknown_schedule_kind_recorded_not_silent() {
        let c =
            parse_omp_parallel_for_clauses("pragma omp parallel for schedule(runtime)").unwrap();
        assert_eq!(c.schedule, OmpSchedule::Static);
        assert_eq!(c.unknown_schedule.as_deref(), Some("runtime"));
    }

    #[test]
    fn unknown_clauses_recorded() {
        let c = parse_omp_parallel_for_clauses(
            "pragma omp parallel for reduction(+:sum) collapse(2) nowait",
        )
        .unwrap();
        assert_eq!(c.unknown_clauses, vec!["reduction", "collapse", "nowait"]);
    }
}

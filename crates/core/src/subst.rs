//! Temporary call substitution (Sect. 3.3, Fig. 1).
//!
//! PluTo is unaware of pure functions, so before the polyhedral stage every
//! pure call inside a SCoP-flagged nest is replaced by a "special,
//! unique word" that makes it look like a constant — `fnAB()` becomes
//! `tmpConst_fnAB` in the paper's figure. After the transformation the
//! placeholders are swapped back, *adapting* the arguments to the renamed
//! loop iterators (PluTo renames `i`/`j` to `t1`/`t2`…).

use crate::stdfns::PureSet;
use cfront::ast::*;
use cfront::visit::{visit_expr_mut, visit_exprs_mut, visit_stmts_mut_pruned};
use std::collections::HashMap;

/// Map from placeholder identifier to the original call expression.
#[derive(Debug, Clone, Default)]
pub struct SubstMap {
    entries: HashMap<String, Expr>,
    counter: usize,
}

impl SubstMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, placeholder: &str) -> Option<&Expr> {
        self.entries.get(placeholder)
    }

    pub fn placeholders(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    fn fresh_name(&mut self, callee: &str) -> String {
        let name = format!("tmpConst_{callee}_{}", self.counter);
        self.counter += 1;
        name
    }
}

/// Replace every pure call inside a SCoP-flagged nest with a placeholder
/// identifier. Returns the substitution map for later reinsertion.
pub fn substitute_calls(unit: &mut TranslationUnit, pure_set: &PureSet) -> SubstMap {
    let mut map = SubstMap::new();
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        for stmt in &mut body.stmts {
            visit_stmts_mut_pruned(stmt, &mut |s| {
                if !matches!(s.kind, StmtKind::For { scop: true, .. }) {
                    return true;
                }
                substitute_in_stmt(s, pure_set, &mut map);
                false
            });
        }
    }
    map
}

fn substitute_in_stmt(stmt: &mut Stmt, pure_set: &PureSet, map: &mut SubstMap) {
    visit_exprs_mut(stmt, &mut |e| {
        let Some((name, _)) = e.as_direct_call() else {
            return;
        };
        if name == "__initlist" || !pure_set.contains(name) {
            return;
        }
        let placeholder = map.fresh_name(name);
        let original = std::mem::replace(e, Expr::ident(placeholder.clone()));
        e.span = original.span;
        map.entries.insert(placeholder, original);
    });
}

/// Reinsert the stored calls, applying an iterator renaming to every stored
/// argument. `iter_map(placeholder)` is the renaming of the placeholder's
/// region: it maps an original iterator name (e.g. `i`) to its
/// replacement expression in the transformed code (e.g. `t1`, or a tile
/// expression like `32 * t1 + t3`); `None` keeps the call as stored.
pub fn reinsert_calls<'m>(
    unit: &mut TranslationUnit,
    map: &SubstMap,
    iter_map: impl Fn(&str) -> Option<&'m HashMap<String, Expr>>,
) -> usize {
    let mut replaced = 0;
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        for stmt in &mut body.stmts {
            visit_exprs_mut(stmt, &mut |e| {
                let Some(name) = e.as_ident() else { return };
                let Some(original) = map.get(name) else {
                    return;
                };
                let mut call = original.clone();
                if let Some(iter_map) = iter_map(name) {
                    rename_iterators(&mut call, iter_map);
                }
                *e = call;
                replaced += 1;
            });
        }
    }
    replaced
}

/// Substitute iterator identifiers inside an expression.
pub fn rename_iterators(e: &mut Expr, iter_map: &HashMap<String, Expr>) {
    visit_expr_mut(e, &mut |node| {
        if let ExprKind::Ident(name) = &node.kind {
            if let Some(replacement) = iter_map.get(name) {
                let span = node.span;
                *node = replacement.clone();
                node.span = span;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purity::verify_unit;
    use crate::scop::mark_scops;
    use cfront::parser::{parse, parse_expr_str};
    use cfront::printer::print_unit;

    fn pipeline(src: &str) -> (TranslationUnit, SubstMap) {
        let mut unit = parse(src).unit;
        let purity = verify_unit(&unit, PureSet::seeded());
        assert!(purity.ok(), "{:?}", purity.diags.items());
        let scop = mark_scops(&mut unit, &purity.pure_set, &purity.global_reads);
        assert!(!scop.diags.has_errors());
        let map = substitute_calls(&mut unit, &purity.pure_set);
        (unit, map)
    }

    const MATMUL: &str = "float **A, **Bt, **C;\n\
        pure float dot(pure float* a, pure float* b, int size) { return a[0] * b[0]; }\n\
        int main() {\n\
            for (int i = 0; i < 64; ++i)\n\
                for (int j = 0; j < 64; ++j)\n\
                    C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 64);\n\
            return 0;\n\
        }";

    #[test]
    fn calls_become_placeholders_inside_scop() {
        let (unit, map) = pipeline(MATMUL);
        assert_eq!(map.len(), 1);
        let out = print_unit(&unit);
        assert!(out.contains("tmpConst_dot_0"), "{out}");
        assert!(!out.contains("dot((pure float*)A[i]"), "{out}");
        // The pure function definition itself is untouched.
        assert!(out.contains("pure float dot(pure float* a, pure float* b, int size)"));
    }

    #[test]
    fn calls_outside_scop_are_untouched() {
        let (unit, map) = pipeline(
            "pure int f(int x) { return x; }\n\
             int main() {\n\
                 int a[8];\n\
                 int warmup = f(3);\n\
                 for (int i = 0; i < 8; i++) a[i] = f(i);\n\
                 return warmup;\n\
             }",
        );
        // Only the in-loop call is substituted.
        assert_eq!(map.len(), 1);
        let out = print_unit(&unit);
        assert!(out.contains("int warmup = f(3);"), "{out}");
    }

    #[test]
    fn reinsert_restores_calls_with_renamed_iterators() {
        let (mut unit, map) = pipeline(MATMUL);
        let mut iter_map = HashMap::new();
        iter_map.insert("i".to_string(), parse_expr_str("t1").unwrap());
        iter_map.insert("j".to_string(), parse_expr_str("t2").unwrap());
        let n = reinsert_calls(&mut unit, &map, |_| Some(&iter_map));
        assert_eq!(n, 1);
        let out = print_unit(&unit);
        assert!(
            out.contains("dot((pure float*)A[t1], (pure float*)Bt[t2], 64)"),
            "{out}"
        );
        assert!(!out.contains("tmpConst_"), "{out}");
    }

    #[test]
    fn reinsert_with_tiled_iterator_expressions() {
        let (mut unit, map) = pipeline(MATMUL);
        let mut iter_map = HashMap::new();
        iter_map.insert("i".to_string(), parse_expr_str("32 * t1 + t3").unwrap());
        iter_map.insert("j".to_string(), parse_expr_str("32 * t2 + t4").unwrap());
        reinsert_calls(&mut unit, &map, |_| Some(&iter_map));
        let out = print_unit(&unit);
        assert!(out.contains("A[32 * t1 + t3]"), "{out}");
    }

    #[test]
    fn nested_pure_calls_survive_round_trip() {
        let (mut unit, map) = pipeline(
            "pure float g(float x) { return x; }\n\
             pure float f(float x) { return g(x); }\n\
             int main() {\n\
                 float a[8];\n\
                 for (int i = 0; i < 8; i++) a[i] = f(g(i));\n\
                 return 0;\n\
             }",
        );
        // Outer call replaced; the nested g(i) lives inside the stored expr.
        assert_eq!(map.len(), 1);
        let mut iter_map = HashMap::new();
        iter_map.insert("i".to_string(), parse_expr_str("t1").unwrap());
        reinsert_calls(&mut unit, &map, |_| Some(&iter_map));
        let out = print_unit(&unit);
        assert!(
            out.contains("a[i] = f(g(t1));") || out.contains("= f(g(t1))"),
            "{out}"
        );
    }

    #[test]
    fn placeholder_names_are_unique() {
        let (_, map) = pipeline(
            "pure int f(int x) { return x; }\n\
             int main() {\n\
                 int a[8], b[8];\n\
                 for (int i = 0; i < 8; i++) { a[i] = f(i); b[i] = f(i + 1); }\n\
                 return 0;\n\
             }",
        );
        assert_eq!(map.len(), 2);
        let names: Vec<&str> = map.placeholders().collect();
        assert_ne!(names[0], names[1]);
    }
}

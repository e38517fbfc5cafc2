//! # cprep — the preprocessing stages of the `pure-c` compiler chain
//!
//! The paper's chain (Fig. 1) brackets the core pass with three text-level
//! stages:
//!
//! 1. **PC-PrePro** — remove *system* includes (`#include <...>`) so the
//!    parser never sees libc headers, remembering them for later;
//! 2. **GCC-E** — resolve the remaining (local) includes and preprocessor
//!    directives. We emulate the subset needed here: `#include "..."`,
//!    object- and function-like `#define`, `#undef`, and the conditional
//!    family `#if/#ifdef/#ifndef/#elif/#else/#endif` with `defined(...)`;
//! 3. **PC-PosPro** — re-insert the stripped system includes before the
//!    final compile.
//!
//! `#pragma` lines always pass through untouched — they carry the SCoP
//! markers and OpenMP annotations the rest of the chain depends on.

pub mod cond;
pub mod macros;

use cfront::diag::{Code, Diagnostics};
use cfront::span::Span;
use macros::MacroTable;
use std::collections::BTreeMap;

/// Outcome of [`preprocess`]: the fully expanded text plus the stripped
/// system includes (in original order) for PC-PosPro.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    pub text: String,
    pub system_includes: Vec<String>,
    pub diags: Diagnostics,
}

/// In-memory header store standing in for the filesystem include path.
#[derive(Debug, Clone, Default)]
pub struct IncludeMap {
    files: BTreeMap<String, String>,
}

impl IncludeMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, content: impl Into<String>) {
        self.files.insert(name.into(), content.into());
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(|s| s.as_str())
    }
}

/// Stage 1+2: PC-PrePro (strip system includes) followed by the GCC-E
/// emulation (local includes, macros, conditionals).
pub fn preprocess(src: &str, includes: &IncludeMap) -> PreprocessOutput {
    let mut pp = Preprocessor {
        includes,
        macros: MacroTable::new(),
        system_includes: Vec::new(),
        diags: Diagnostics::new(),
        depth: 0,
    };
    let text = pp.process(src);
    PreprocessOutput {
        text,
        system_includes: pp.system_includes,
        diags: pp.diags,
    }
}

/// Stage 3: PC-PosPro — put the system includes back on top of the final,
/// transformed source so the (conceptual) system compiler sees them.
pub fn postprocess(transformed: &str, system_includes: &[String]) -> String {
    let mut out = String::with_capacity(
        transformed.len() + system_includes.iter().map(|s| s.len() + 12).sum::<usize>(),
    );
    for inc in system_includes {
        out.push_str("#include <");
        out.push_str(inc);
        out.push_str(">\n");
    }
    if !system_includes.is_empty() {
        out.push('\n');
    }
    out.push_str(transformed);
    out
}

struct Preprocessor<'a> {
    includes: &'a IncludeMap,
    macros: MacroTable,
    system_includes: Vec<String>,
    diags: Diagnostics,
    depth: usize,
}

/// State of one `#if` nesting level.
#[derive(Debug, Clone, Copy)]
struct CondFrame {
    /// Are we currently emitting lines in this frame?
    active: bool,
    /// Has any branch of this if-chain been taken yet?
    taken: bool,
    /// Was the *enclosing* context active? (inactive outer disables all)
    parent_active: bool,
}

impl<'a> Preprocessor<'a> {
    fn process(&mut self, src: &str) -> String {
        if self.depth > 32 {
            self.diags.error(
                Code::PpMissingInclude,
                Span::DUMMY,
                "include nesting too deep (cycle?)",
            );
            return String::new();
        }
        let mut out = String::with_capacity(src.len());
        let mut stack: Vec<CondFrame> = Vec::new();

        // Handle backslash line continuations up front.
        let joined = src.replace("\\\n", " ");

        for line in joined.lines() {
            let trimmed = line.trim_start();
            let active = stack.iter().all(|f| f.active);

            if let Some(directive) = trimmed.strip_prefix('#') {
                let directive = directive.trim();
                let (name, rest) = split_directive(directive);
                match name {
                    "include" if active => self.handle_include(rest, &mut out),
                    "define" if active => {
                        if let Err(msg) = self.macros.define(rest) {
                            self.diags.error(Code::PpBadDirective, Span::DUMMY, msg);
                        }
                    }
                    "undef" if active => {
                        self.macros.undef(rest.trim());
                    }
                    "ifdef" => {
                        let cond = self.macros.is_defined(rest.trim());
                        stack.push(CondFrame {
                            active: active && cond,
                            taken: cond,
                            parent_active: active,
                        });
                    }
                    "ifndef" => {
                        let cond = !self.macros.is_defined(rest.trim());
                        stack.push(CondFrame {
                            active: active && cond,
                            taken: cond,
                            parent_active: active,
                        });
                    }
                    "if" => {
                        let cond = self.eval_condition(rest);
                        stack.push(CondFrame {
                            active: active && cond,
                            taken: cond,
                            parent_active: active,
                        });
                    }
                    "elif" => match stack.last() {
                        Some(frame) => {
                            if frame.taken {
                                stack.last_mut().expect("nonempty").active = false;
                            } else {
                                let parent = frame.parent_active;
                                let cond = self.eval_condition(rest);
                                let frame = stack.last_mut().expect("nonempty");
                                frame.active = parent && cond;
                                frame.taken = cond;
                            }
                        }
                        None => self.unbalanced("elif"),
                    },
                    "else" => match stack.last_mut() {
                        Some(frame) => {
                            frame.active = frame.parent_active && !frame.taken;
                            frame.taken = true;
                        }
                        None => self.unbalanced("else"),
                    },
                    "endif" => {
                        if stack.pop().is_none() {
                            self.unbalanced("endif");
                        }
                    }
                    "pragma" => {
                        if active {
                            out.push_str(line.trim_start());
                            out.push('\n');
                        }
                    }
                    "error" => {
                        if active {
                            self.diags.error(
                                Code::PpBadDirective,
                                Span::DUMMY,
                                format!("#error: {rest}"),
                            );
                        }
                    }
                    _ if !active => {} // ignore directives in dead branches
                    other => {
                        self.diags.error(
                            Code::PpBadDirective,
                            Span::DUMMY,
                            format!("unsupported preprocessor directive `#{other}`"),
                        );
                    }
                }
                continue;
            }

            if active {
                out.push_str(&self.macros.expand_line(line));
                out.push('\n');
            }
        }

        if !stack.is_empty() {
            self.diags.error(
                Code::PpUnbalancedConditional,
                Span::DUMMY,
                "unterminated conditional block (missing #endif)",
            );
        }
        out
    }

    fn unbalanced(&mut self, what: &str) {
        self.diags.error(
            Code::PpUnbalancedConditional,
            Span::DUMMY,
            format!("#{what} without matching #if"),
        );
    }

    fn handle_include(&mut self, rest: &str, out: &mut String) {
        let rest = rest.trim();
        if let Some(name) = rest.strip_prefix('<').and_then(|r| r.strip_suffix('>')) {
            // PC-PrePro: system includes are stripped and remembered.
            self.system_includes.push(name.trim().to_string());
        } else if let Some(name) = rest.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
            match self.includes.get(name.trim()) {
                Some(content) => {
                    let content = content.to_string();
                    self.depth += 1;
                    let expanded = self.process(&content);
                    self.depth -= 1;
                    out.push_str(&expanded);
                }
                None => {
                    self.diags.error(
                        Code::PpMissingInclude,
                        Span::DUMMY,
                        format!("include file \"{name}\" not found"),
                    );
                }
            }
        } else {
            self.diags.error(
                Code::PpBadDirective,
                Span::DUMMY,
                format!("malformed #include: {rest}"),
            );
        }
    }

    fn eval_condition(&mut self, expr: &str) -> bool {
        match cond::eval(expr, &self.macros) {
            Ok(v) => v != 0,
            Err(msg) => {
                self.diags.error(
                    Code::PpBadDirective,
                    Span::DUMMY,
                    format!("cannot evaluate #if condition `{expr}`: {msg}"),
                );
                false
            }
        }
    }
}

fn split_directive(directive: &str) -> (&str, &str) {
    match directive.find(|c: char| c.is_whitespace()) {
        Some(i) => (&directive[..i], directive[i..].trim_start()),
        None => (directive, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> PreprocessOutput {
        preprocess(src, &IncludeMap::new())
    }

    #[test]
    fn strips_system_includes_and_remembers_them() {
        let out = pp("#include <stdio.h>\n#include <stdlib.h>\nint main() { return 0; }\n");
        assert!(!out.diags.has_errors());
        assert_eq!(out.system_includes, vec!["stdio.h", "stdlib.h"]);
        assert!(!out.text.contains("include"));
        assert!(out.text.contains("int main()"));
    }

    #[test]
    fn postprocess_reinserts_system_includes() {
        let final_text = postprocess("int main() { return 0; }\n", &["stdio.h".to_string()]);
        assert!(final_text.starts_with("#include <stdio.h>\n"));
        assert!(final_text.contains("int main()"));
    }

    #[test]
    fn resolves_local_includes() {
        let mut inc = IncludeMap::new();
        inc.insert("defs.h", "#define N 16\nint helper(int);\n");
        let out = preprocess("#include \"defs.h\"\nint a[N];\n", &inc);
        assert!(!out.diags.has_errors(), "{:?}", out.diags.items());
        assert!(out.text.contains("int helper(int);"));
        assert!(out.text.contains("int a[16];"));
    }

    #[test]
    fn missing_local_include_is_an_error() {
        let out = pp("#include \"nope.h\"\n");
        assert!(out.diags.has_errors());
        assert!(out.diags.has_code(Code::PpMissingInclude));
    }

    #[test]
    fn object_macros_expand() {
        let out = pp("#define SIZE 4096\nfloat m[SIZE][SIZE];\n");
        assert_eq!(out.text.trim(), "float m[4096][4096];");
    }

    #[test]
    fn function_macros_expand_with_args() {
        let out = pp("#define MIN(a, b) ((a) < (b) ? (a) : (b))\nint x = MIN(p + 1, q);\n");
        assert_eq!(out.text.trim(), "int x = ((p + 1) < (q) ? (p + 1) : (q));");
    }

    #[test]
    fn ifdef_blocks_select_branches() {
        let src = "#define FAST\n#ifdef FAST\nint speed = 2;\n#else\nint speed = 1;\n#endif\n";
        let out = pp(src);
        assert!(out.text.contains("speed = 2"));
        assert!(!out.text.contains("speed = 1"));
    }

    #[test]
    fn ifndef_and_nested_conditionals() {
        let src = "\
#ifndef GUARD
#define GUARD
#ifdef INNER
int inner = 1;
#else
int outer = 1;
#endif
#endif
";
        let out = pp(src);
        assert!(out.text.contains("outer"));
        assert!(!out.text.contains("inner = 1"));
    }

    #[test]
    fn if_with_arithmetic_and_defined() {
        let src = "\
#define CORES 64
#if defined(CORES) && CORES > 32
int big = 1;
#elif CORES > 8
int mid = 1;
#else
int small = 1;
#endif
";
        let out = pp(src);
        assert!(out.text.contains("big"), "{}", out.text);
        assert!(!out.text.contains("mid"));
        assert!(!out.text.contains("small"));
    }

    #[test]
    fn elif_chain_takes_first_true_branch() {
        let src = "\
#define V 2
#if V == 1
int one;
#elif V == 2
int two;
#elif V == 3
int three;
#else
int other;
#endif
";
        let out = pp(src);
        assert!(out.text.contains("two"));
        assert!(!out.text.contains("one;"));
        assert!(!out.text.contains("three"));
        assert!(!out.text.contains("other"));
    }

    #[test]
    fn pragmas_pass_through() {
        let out = pp("#pragma GCC ivdep\nfor (;;) ;\n#pragma omp barrier\n");
        assert!(out.text.contains("#pragma GCC ivdep"));
        assert!(out.text.contains("#pragma omp barrier"));
    }

    #[test]
    fn unbalanced_endif_reported() {
        let out = pp("#endif\n");
        assert!(out.diags.has_code(Code::PpUnbalancedConditional));
        let out2 = pp("#ifdef X\nint a;\n");
        assert!(out2.diags.has_code(Code::PpUnbalancedConditional));
    }

    #[test]
    fn undef_removes_macro() {
        let out = pp("#define A 1\n#undef A\n#ifdef A\nint yes;\n#else\nint no;\n#endif\n");
        assert!(out.text.contains("no"));
    }

    #[test]
    fn dead_branch_directives_are_ignored() {
        let out = pp("#ifdef NOPE\n#include \"missing.h\"\n#define X 1\n#endif\nint a;\n");
        assert!(!out.diags.has_errors());
        assert!(out.text.contains("int a;"));
    }

    #[test]
    fn line_continuations_join() {
        let out = pp("#define LONG(a) \\\n ((a) * 2)\nint x = LONG(3);\n");
        assert_eq!(out.text.trim(), "int x = ((3) * 2);");
    }

    #[test]
    fn error_directive_reports() {
        let out = pp("#error unsupported platform\n");
        assert!(out.diags.has_errors());
    }

    #[test]
    fn full_chain_pre_and_post() {
        let src = "#include <math.h>\n#define N 8\nfloat grid[N];\n";
        let out = pp(src);
        let final_text = postprocess(&out.text, &out.system_includes);
        assert!(final_text.starts_with("#include <math.h>"));
        assert!(final_text.contains("float grid[8];"));
    }
}

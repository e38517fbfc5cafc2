//! Operator and conversion semantics: what `l <op> r`, `-v`, `++`/`--`
//! and a declaration's or cast's value conversion *mean*, as pure
//! functions of [`Scalar`]s. The three engines and the constant folder
//! all answer through this table — they differ in how they reach an
//! operand and in how they keep their executed-op counters
//! ([`Counted`] names the counter, the caller bumps its own
//! representation), never in the answer.

use crate::value::Scalar;
use crate::vm::int_arith;
use cfront::ast::{BaseType, BinOp, Type};

/// Which executed-op counter an operation bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counted {
    None,
    Int,
    Float,
}

type Outcome = Result<(Scalar, Counted), &'static str>;

fn truth(c: bool, counted: Counted) -> Outcome {
    Ok((Scalar::I(i64::from(c)), counted))
}

/// `l <op> r`. Pointer forms first (element-wise arithmetic; equality by
/// identity; order only within one allocation — C leaves the rest
/// undefined, and an interpreter that traps on an out-of-bounds load
/// does not guess), then float if either side is a float, else the VM's
/// integer table over `as_i64`.
// A new operator must be one compile error here, not a silent fall
// through (the second lint is the first one's name when exactly one
// variant is left to the wildcard).
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn binop(op: BinOp, l: Scalar, r: Scalar) -> Outcome {
    use BinOp::*;
    use Scalar::{Null, F, I, P};
    match op {
        And | Or => return Err("short-circuit operator evaluated as a value operator"),
        Add => match (l, r) {
            (P(_), P(_)) => {}
            (P(p), i) | (i, P(p)) => return Ok((P(p.offset(i.as_i64())), Counted::Int)),
            _ => {}
        },
        Sub => match (l, r) {
            (P(a), P(b)) => return Ok((I(a.index.wrapping_sub(b.index)), Counted::Int)),
            (P(p), i) => return Ok((P(p.offset(i.as_i64().wrapping_neg())), Counted::Int)),
            _ => {}
        },
        Eq | Ne => match (l, r) {
            (P(a), P(b)) => return truth((a == b) == (op == Eq), Counted::None),
            (P(_), Null) | (Null, P(_)) => return truth(op == Ne, Counted::None),
            _ => {}
        },
        Lt | Gt | Le | Ge => {
            if let (P(a), P(b)) = (l, r) {
                if a.alloc != b.alloc {
                    return Err("relational comparison of pointers into different allocations");
                }
                return int_arith(op, a.index, b.index).map(|v| (I(v), Counted::Int));
            }
        }
        Mul | Div | Rem | Shl | Shr | BitAnd | BitXor | BitOr => {}
    }
    if l.is_float() || r.is_float() {
        let (a, b) = (l.as_f64(), r.as_f64());
        let out = match op {
            Add => F(a + b),
            Sub => F(a - b),
            Mul => F(a * b),
            Div => F(a / b),
            Rem => F(a % b),
            Lt => I(i64::from(a < b)),
            Gt => I(i64::from(a > b)),
            Le => I(i64::from(a <= b)),
            Ge => I(i64::from(a >= b)),
            Eq => I(i64::from(a == b)),
            Ne => I(i64::from(a != b)),
            Shl | Shr | BitAnd | BitXor | BitOr => return Err("bitwise op on float"),
            And | Or => unreachable!("returned above"),
        };
        Ok((out, Counted::Float))
    } else {
        int_arith(op, l.as_i64(), r.as_i64()).map(|v| (I(v), Counted::Int))
    }
}

/// Unary `-` (wrapping on ints, like the binary operators).
pub(crate) fn neg(v: Scalar) -> (Scalar, Counted) {
    match v {
        Scalar::F(f) => (Scalar::F(-f), Counted::Float),
        other => (Scalar::I(other.as_i64().wrapping_neg()), Counted::Int),
    }
}

/// The `++`/`--` value transition: `delta` is `+1` or `-1`; a pointer
/// moves one element and counts nothing.
pub(crate) fn incdec(old: Scalar, delta: i64) -> (Scalar, Counted) {
    match old {
        Scalar::F(f) => (Scalar::F(f + delta as f64), Counted::Float),
        Scalar::P(p) => (Scalar::P(p.offset(delta)), Counted::None),
        other => (Scalar::I(other.as_i64().wrapping_add(delta)), Counted::Int),
    }
}

/// Value conversion performed on declaration init, cast and parameter
/// binding, decided once from the target [`Type`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coerce {
    /// Pointer or otherwise untouched target.
    None,
    /// `float` / `double` target: integer values become floats.
    ToFloat,
    /// Integer target: float values truncate.
    ToInt,
}

impl Coerce {
    pub(crate) fn of(ty: &Type) -> Coerce {
        if ty.is_pointer() {
            return Coerce::None;
        }
        match &ty.base {
            BaseType::Float | BaseType::Double => Coerce::ToFloat,
            b if b.is_integer() => Coerce::ToInt,
            _ => Coerce::None,
        }
    }

    /// The converted value, `None` when `v` passes through untouched.
    #[inline]
    pub(crate) fn convert(self, v: Scalar) -> Option<Scalar> {
        match (self, v) {
            (Coerce::ToFloat, Scalar::I(i)) => Some(Scalar::F(i as f64)),
            (Coerce::ToInt, Scalar::F(f)) => Some(Scalar::I(f as i64)),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn apply(self, v: Scalar) -> Scalar {
        self.convert(v).unwrap_or(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Op;
    use crate::interp::{InterpOptions, Program};
    use crate::value::{CounterSnapshot, Ptr};
    use cfront::parser::parse;
    use proptest::prelude::*;

    const OPS: [(BinOp, &str); 18] = [
        (BinOp::Add, "+"),
        (BinOp::Sub, "-"),
        (BinOp::Mul, "*"),
        (BinOp::Div, "/"),
        (BinOp::Rem, "%"),
        (BinOp::Shl, "<<"),
        (BinOp::Shr, ">>"),
        (BinOp::Lt, "<"),
        (BinOp::Gt, ">"),
        (BinOp::Le, "<="),
        (BinOp::Ge, ">="),
        (BinOp::Eq, "=="),
        (BinOp::Ne, "!="),
        (BinOp::BitAnd, "&"),
        (BinOp::BitXor, "^"),
        (BinOp::BitOr, "|"),
        (BinOp::And, "&&"),
        (BinOp::Or, "||"),
    ];

    /// 2⁴⁹ + 5 and 2⁴⁸ + 9: past the VM's 47-bit inline window.
    const WIDE_L: i64 = 562_949_953_421_317;
    const WIDE_R: i64 = 281_474_976_710_665;

    /// What a run shows: exit code, stdout and the executed-op counters,
    /// or the error's text.
    type Outcome = Result<(i64, String, CounterSnapshot), String>;

    /// `printf("%d %f\n", L op R, L op R)` — or the result's distance
    /// from `a` when it is a pointer — through the four routes: the VM
    /// on raw bytecode, the VM on optimized bytecode (literal operands
    /// are answered by the folder, locals by the fused `Bin*` forms), the
    /// resolved engine and the legacy tree-walker. Returns the one
    /// outcome after asserting they agree.
    fn through_four_routes(l: &str, op: &str, r: &str, pointer_result: bool) -> Outcome {
        let e = format!("{l} {op} {r}");
        let show = if pointer_result {
            format!("printf(\"%d\\n\", ({e}) - a);")
        } else {
            format!("printf(\"%d %f\\n\", {e}, {e});")
        };
        let src = format!(
            "int main() {{\n\
                 int* a = (int*) malloc(8 * sizeof(int));\n\
                 int* b = (int*) malloc(8 * sizeof(int));\n\
                 int u;\n\
                 int i = 7; int j = 3;\n\
                 int w = {WIDE_L}; int x = {WIDE_R};\n\
                 float f = 2.5; float g = 0.5;\n\
                 int* p = a + 2; int* e = a + 5; int* q = b + 2;\n\
                 {show}\n\
                 return 0;\n\
             }}"
        );
        let parsed = parse(&src);
        assert!(!parsed.diags.has_errors(), "{src}");
        let prog = Program::new(&parsed.unit);
        let outcome = |run: Result<crate::RunResult, crate::RuntimeError>| -> Outcome {
            run.map(|r| (r.exit_code, r.output, r.counters.without_memo()))
                .map_err(|e| e.message)
        };
        let opts = |opt_level| InterpOptions {
            opt_level,
            ..Default::default()
        };
        let raw = outcome(prog.run(opts(0)));
        assert_eq!(outcome(prog.run(opts(2))), raw, "vm optimized: {e}");
        assert_eq!(outcome(prog.run_resolved(opts(2))), raw, "resolved: {e}");
        assert_eq!(outcome(prog.run_legacy(opts(2))), raw, "legacy: {e}");
        raw
    }

    /// Every operator over every pair of operand kinds a program can
    /// produce — int, wide int, float (each as a literal and as a
    /// local), pointer (same and other allocation), uninitialised — is
    /// the same value, counter and error text on all four routes, and
    /// what the table says wherever no allocation id is involved.
    #[test]
    fn every_operator_agrees_through_the_four_routes() {
        use Scalar::{Uninit, F, I};
        let p = |alloc, index| Scalar::P(Ptr { alloc, index });
        let left = [
            ("7", I(7)),
            ("i", I(7)),
            ("562949953421317", I(WIDE_L)),
            ("w", I(WIDE_L)),
            ("2.5", F(2.5)),
            ("f", F(2.5)),
            ("p", p(1, 2)),
            ("u", Uninit),
        ];
        let right = [
            ("3", I(3)),
            ("j", I(3)),
            ("281474976710665", I(WIDE_R)),
            ("x", I(WIDE_R)),
            ("0.5", F(0.5)),
            ("g", F(0.5)),
            ("e", p(1, 5)),
            ("q", p(2, 2)),
            ("u", Uninit),
        ];
        for (op, sym) in OPS {
            for (l, lv) in left {
                for (r, rv) in right {
                    let table = binop(op, lv, rv);
                    let pointer_result = matches!(table, Ok((Scalar::P(_), _)));
                    let seen = through_four_routes(l, sym, r, pointer_result);
                    let cell = format!("{l} {sym} {r}");
                    if matches!(op, BinOp::And | BinOp::Or) {
                        // Control flow, not a table entry.
                        let truth = match op {
                            BinOp::And => lv.truthy() && rv.truthy(),
                            _ => lv.truthy() || rv.truthy(),
                        };
                        let shown = format!("{} {:.6}\n", i64::from(truth), f64::from(truth));
                        assert_eq!(seen.expect(&cell).1, shown, "{cell}");
                        continue;
                    }
                    match table {
                        Ok((Scalar::P(at), _)) => {
                            assert_eq!(seen.expect(&cell).1, format!("{}\n", at.index), "{cell}")
                        }
                        Ok((v, _)) => {
                            // Rendered as C renders it (`nan`, `-nan`).
                            let shown = crate::builtins::format_printf(
                                "%d %f\n",
                                &[v, v],
                                &crate::value::Memory::new(),
                            );
                            assert_eq!(seen.expect(&cell).1, shown, "{cell}");
                        }
                        Err(msg) => assert_eq!(seen.expect_err(&cell), msg, "{cell}"),
                    }
                }
            }
        }
    }

    /// The counter each kind of operation names (the routes above agree
    /// on the totals; this pins which counter it is).
    #[test]
    fn counted_names_the_counter() {
        use Scalar::{Null, Uninit, F, I};
        let p = |alloc, index| Scalar::P(Ptr { alloc, index });
        assert_eq!(binop(BinOp::Add, I(1), I(2)), Ok((I(3), Counted::Int)));
        assert_eq!(binop(BinOp::Lt, I(1), F(2.0)), Ok((I(1), Counted::Float)));
        assert_eq!(binop(BinOp::Add, Uninit, Null), Ok((I(0), Counted::Int)));
        assert_eq!(
            binop(BinOp::Add, I(2), p(1, 3)),
            Ok((p(1, 5), Counted::Int))
        );
        assert_eq!(
            binop(BinOp::Sub, p(1, 3), F(2.9)),
            Ok((p(1, 1), Counted::Int))
        );
        assert_eq!(
            binop(BinOp::Sub, p(1, 3), p(1, 1)),
            Ok((I(2), Counted::Int))
        );
        assert_eq!(
            binop(BinOp::Eq, p(1, 3), p(1, 3)),
            Ok((I(1), Counted::None))
        );
        assert_eq!(
            binop(BinOp::Ne, p(1, 3), p(2, 3)),
            Ok((I(1), Counted::None))
        );
        assert_eq!(binop(BinOp::Eq, p(1, 0), Null), Ok((I(0), Counted::None)));
        assert_eq!(binop(BinOp::Ne, Null, p(1, 0)), Ok((I(1), Counted::None)));
        assert_eq!(neg(F(1.5)), (F(-1.5), Counted::Float));
        assert_eq!(neg(I(i64::MIN)), (I(i64::MIN), Counted::Int));
        assert_eq!(incdec(p(1, 3), -1), (p(1, 2), Counted::None));
        assert_eq!(incdec(F(1.0), 1), (F(2.0), Counted::Float));
        assert_eq!(incdec(I(i64::MAX), 1), (I(i64::MIN), Counted::Int));
    }

    /// `<  >  <=  >=` on two pointers: by index within one allocation
    /// (every engine used to answer `1 < 1`), an error across two.
    #[test]
    fn pointers_are_ordered_within_one_allocation_only() {
        let p = |alloc, index| Scalar::P(Ptr { alloc, index });
        for (op, below, same, above) in [
            (BinOp::Lt, 1, 0, 0),
            (BinOp::Le, 1, 1, 0),
            (BinOp::Gt, 0, 0, 1),
            (BinOp::Ge, 0, 1, 1),
        ] {
            for (l, r, want) in [(2, 5, below), (5, 5, same), (5, 2, above)] {
                assert_eq!(
                    binop(op, p(1, l), p(1, r)),
                    Ok((Scalar::I(want), Counted::Int)),
                    "{op:?} {l} {r}"
                );
            }
            assert_eq!(
                binop(op, p(1, 2), p(2, 2)),
                Err("relational comparison of pointers into different allocations"),
                "{op:?}"
            );
        }
        for (sym, want) in [("<", "1"), ("<=", "1"), (">", "0"), (">=", "0")] {
            let seen = through_four_routes("p", sym, "e", false).expect(sym);
            assert!(seen.1.starts_with(want), "p {sym} e printed {}", seen.1);
            assert_eq!(
                through_four_routes("p", sym, "q", false),
                Err("relational comparison of pointers into different allocations".to_string())
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On two ints the table *is* the VM's integer table, and on two
        /// numeric constants the optimizer folds to what the VM computes:
        /// the raw and the folded build of `return`-less one-expression
        /// programs print the same (or fail alike, unfolded), and the
        /// folded build holds a `ConstFold` whenever the table answers.
        #[test]
        fn the_folder_is_the_vms_table(
            a in any::<i64>(),
            b in any::<i64>(),
            small in -4i64..5,
            fa in 0i64..64,
            fb in 0i64..64,
            opi in 0usize..16,
        ) {
            let (op, sym) = OPS[opi];
            for (l, r) in [(a, b), (a, small), (small, b >> 20)] {
                prop_assert_eq!(
                    binop(op, Scalar::I(l), Scalar::I(r)),
                    int_arith(op, l, r).map(|v| (Scalar::I(v), Counted::Int))
                );
            }
            // Literals a lexer reads back as one constant: non-negative
            // ints, floats with an exact short decimal form.
            let (x, y) = (a & i64::MAX, b & (i64::MAX >> 9));
            let (fx, fy) = (fa as f64 / 8.0, fb as f64 / 8.0);
            let spell = |v: f64| format!("{v:.3}");
            for (l, r, lv, rv) in [
                (x.to_string(), y.to_string(), Scalar::I(x), Scalar::I(y)),
                (x.to_string(), small.abs().to_string(), Scalar::I(x), Scalar::I(small.abs())),
                (spell(fx), spell(fy), Scalar::F(fx), Scalar::F(fy)),
                (spell(fx), y.to_string(), Scalar::F(fx), Scalar::I(y)),
            ] {
                let src = format!("int main() {{ printf(\"%d %f\\n\", {l} {sym} {r}, {l} {sym} {r}); return 0; }}");
                let prog = Program::new(&parse(&src).unit);
                let run = |opt_level| {
                    prog.run(InterpOptions { opt_level, ..Default::default() })
                        .map(|r| (r.output, r.counters.without_memo()))
                        .map_err(|e| e.message)
                };
                prop_assert_eq!(run(2), run(0), "{}", &src);
                let folded = prog
                    .bytecode_at(2)
                    .funcs
                    .iter()
                    .flat_map(|f| f.code.iter())
                    .any(|i| i.op == Op::ConstFold);
                prop_assert_eq!(folded, binop(op, lv, rv).is_ok(), "{}", &src);
            }
        }
    }
}

//! Builtin C functions known to the interpreter, in two parts:
//!
//! * the **math table** ([`math_builtin`]): the math library (seeded pure
//!   in the verifier). An entry is a function over scalars — it receives no [`Memory`] and no output
//!   buffer, so "const builtin" means *has an entry here*, by
//!   construction ([`crate::effects`]);
//! * the four **effectful** builtins `malloc` / `calloc` / `free` /
//!   `printf`, which [`call_builtin`] handles itself.

use crate::interp::RuntimeError;
use crate::value::{Memory, Scalar};
use cfront::span::Span;
use parking_lot::Mutex;

/// A math-table entry.
pub type MathFn = fn(&[Scalar]) -> Scalar;

/// Argument `i` as a float; a missing argument reads as zero.
fn float_arg(args: &[Scalar], i: usize) -> f64 {
    args.get(i).copied().unwrap_or(Scalar::F(0.0)).as_f64()
}

/// Argument `i` as an integer; a missing argument reads as zero.
fn int_arg(args: &[Scalar], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(Scalar::I(0)).as_i64()
}

fn f1(args: &[Scalar], f: fn(f64) -> f64) -> Scalar {
    Scalar::F(f(float_arg(args, 0)))
}

fn f2(args: &[Scalar], f: fn(f64, f64) -> f64) -> Scalar {
    Scalar::F(f(float_arg(args, 0), float_arg(args, 1)))
}

/// The side-effect-free builtins: name → function over scalars.
pub fn math_builtin(name: &str) -> Option<MathFn> {
    let f: MathFn = match name {
        // Double and float variants share f64 slots.
        "sin" | "sinf" => |a| f1(a, f64::sin),
        "cos" | "cosf" => |a| f1(a, f64::cos),
        "tan" | "tanf" => |a| f1(a, f64::tan),
        "asin" | "asinf" => |a| f1(a, f64::asin),
        "acos" | "acosf" => |a| f1(a, f64::acos),
        "atan" | "atanf" => |a| f1(a, f64::atan),
        "atan2" | "atan2f" => |a| f2(a, f64::atan2),
        "sinh" => |a| f1(a, f64::sinh),
        "cosh" => |a| f1(a, f64::cosh),
        "tanh" => |a| f1(a, f64::tanh),
        "exp" | "expf" => |a| f1(a, f64::exp),
        "log" | "logf" => |a| f1(a, f64::ln),
        "log2" | "log2f" => |a| f1(a, f64::log2),
        "log10" | "log10f" => |a| f1(a, f64::log10),
        "sqrt" | "sqrtf" => |a| f1(a, f64::sqrt),
        "cbrt" => |a| f1(a, f64::cbrt),
        "pow" | "powf" => |a| f2(a, f64::powf),
        "fabs" | "fabsf" => |a| f1(a, f64::abs),
        "floor" | "floorf" => |a| f1(a, f64::floor),
        "ceil" | "ceilf" => |a| f1(a, f64::ceil),
        "round" | "roundf" => |a| f1(a, f64::round),
        "trunc" => |a| f1(a, f64::trunc),
        "fmod" | "fmodf" => |a| f2(a, |x, y| x % y),
        "fmin" | "fminf" => |a| f2(a, f64::min),
        "fmax" | "fmaxf" => |a| f2(a, f64::max),
        "hypot" => |a| f2(a, f64::hypot),
        "expm1" => |a| f1(a, f64::exp_m1),
        "log1p" => |a| f1(a, f64::ln_1p),
        "copysign" => |a| f2(a, f64::copysign),
        "abs" | "labs" | "llabs" => |a| Scalar::I(int_arg(a, 0).wrapping_abs()),
        _ => return None,
    };
    Some(f)
}

/// Call builtin `name`: the math table first, then the four effectful
/// builtins. A memory error keeps its trap kind, and a name that is
/// neither is the "undefined function" error — the same on every engine,
/// at `span`.
pub fn call_builtin(
    name: &str,
    args: &[Scalar],
    mem: &Memory,
    output: &Mutex<String>,
    span: Span,
) -> Result<Scalar, RuntimeError> {
    if let Some(f) = math_builtin(name) {
        return Ok(f(args));
    }
    // Slot model: sizeof(T) == 8 bytes ⇒ /8. A negative size is 0.
    let size_arg = |i: usize| int_arg(args, i).max(0);
    let slots = |bytes: i64| (bytes as usize).div_ceil(8);
    match name {
        "malloc" => mem.try_alloc(slots(size_arg(0))).map(Scalar::P),
        // A product beyond i64 saturates: no heap can hold it, so
        // `try_alloc_zeroed` refuses it as a memory-limit trap.
        "calloc" => mem
            .try_alloc_zeroed(slots(
                size_arg(0).checked_mul(size_arg(1)).unwrap_or(i64::MAX),
            ))
            .map(Scalar::P),
        "free" => match args.first() {
            Some(Scalar::P(p)) => mem.free(*p).map(|()| Scalar::I(0)),
            Some(Scalar::Null) | None => Ok(Scalar::I(0)), // free(NULL) is a no-op
            _ => Err(crate::value::MemError::new("free of non-pointer")),
        },
        // The engines render `printf` themselves (the format string is
        // resolved at lower time); only a program whose *entry point* is
        // named printf lands here.
        "printf" => {
            output.lock().push_str("[printf]");
            Ok(Scalar::I(0))
        }
        _ => {
            return Err(RuntimeError::at(
                format!("call to undefined function '{name}'"),
                span,
            ))
        }
    }
    .map_err(|e| RuntimeError::from_mem(e, span))
}

/// Render a `printf` call given the format string and evaluated arguments.
/// Supports `%d %i %u %x %X %o %f %F %e %E %g %G %c %s %%` with optional
/// width/precision digits (only the precision is applied) and the `hh`,
/// `h`, `l`, `ll` and `z` length modifiers. An integer is read as C reads
/// it: `%u %x %X %o` take its low 32 bits as an `unsigned int`, 64 under
/// `l`/`ll`/`z`, 16 under `h` and 8 under `hh`; `%hd` and `%hhd` take its
/// low 16 or 8 bits as signed. Any other conversion prints as written and
/// still consumes its argument, so the conversions after it read theirs.
pub fn format_printf(fmt: &str, args: &[Scalar], mem: &Memory) -> String {
    let mut out = String::with_capacity(fmt.len() + 16);
    let mut chars = fmt.chars().peekable();
    let mut next_arg = 0usize;
    let mut take = || {
        let v = args.get(next_arg).copied().unwrap_or(Scalar::Uninit);
        next_arg += 1;
        v
    };
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Collect flags/width/precision/length.
        let mut spec = String::new();
        let conv = loop {
            match chars.next() {
                Some(d @ ('0'..='9' | '.' | '-' | '+' | 'h' | 'l' | 'z')) => spec.push(d),
                Some(conv) => break Some(conv),
                None => break None,
            }
        };
        let Some(conv) = conv else {
            out.push('%');
            out.push_str(&spec);
            break;
        };
        let precision = spec.split('.').nth(1).and_then(|p| p.parse::<usize>().ok());
        let bits = match (spec.matches('h').count(), spec.contains(['l', 'z'])) {
            (_, true) => 64,
            (0, _) => 32,
            (1, _) => 16,
            _ => 8,
        };
        let unsigned = |v: Scalar| (v.as_i64() as u64) & (u64::MAX >> (64 - bits));
        match conv {
            '%' => out.push('%'),
            'd' | 'i' => {
                let v = take().as_i64();
                let v = if bits < 32 {
                    v << (64 - bits) >> (64 - bits)
                } else {
                    v
                };
                out.push_str(&v.to_string());
            }
            'u' => out.push_str(&unsigned(take()).to_string()),
            'x' => out.push_str(&format!("{:x}", unsigned(take()))),
            'X' => out.push_str(&format!("{:X}", unsigned(take()))),
            'o' => out.push_str(&format!("{:o}", unsigned(take()))),
            'f' | 'F' => {
                let p = precision.unwrap_or(6);
                out.push_str(&format!("{:.*}", p, take().as_f64()));
            }
            'e' | 'E' => {
                let p = precision.unwrap_or(6);
                out.push_str(&format!("{:.*e}", p, take().as_f64()));
            }
            'g' | 'G' => out.push_str(&format!("{}", take().as_f64())),
            'c' => {
                let v = take().as_i64();
                out.push(char::from_u32(v as u32).unwrap_or('?'));
            }
            's' => match take() {
                Scalar::P(mut p) => {
                    // C strings are stored one char per slot.
                    while let Ok(Scalar::I(ch)) = mem.load(p) {
                        if ch == 0 {
                            break;
                        }
                        out.push(char::from_u32(ch as u32).unwrap_or('?'));
                        p = p.offset(1);
                    }
                }
                _ => out.push_str("(null)"),
            },
            other => {
                take();
                out.push('%');
                out.push_str(&spec);
                out.push(other);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Trap;

    fn call_in(mem: &Memory, name: &str, args: &[Scalar]) -> Result<Scalar, RuntimeError> {
        call_builtin(name, args, mem, &Mutex::new(String::new()), Span::DUMMY)
    }

    fn call(name: &str, args: &[Scalar]) -> Scalar {
        call_in(&Memory::new(), name, args).expect("no error")
    }

    #[test]
    fn math_functions() {
        assert_eq!(call("sqrt", &[Scalar::F(9.0)]), Scalar::F(3.0));
        assert_eq!(call("sqrtf", &[Scalar::F(4.0)]), Scalar::F(2.0));
        assert_eq!(call("fabs", &[Scalar::F(-2.5)]), Scalar::F(2.5));
        assert_eq!(
            call("pow", &[Scalar::F(2.0), Scalar::F(10.0)]),
            Scalar::F(1024.0)
        );
        assert_eq!(
            call("fmax", &[Scalar::F(1.0), Scalar::F(3.0)]),
            Scalar::F(3.0)
        );
        assert_eq!(call("abs", &[Scalar::I(-5)]), Scalar::I(5));
        // Integer arguments are promoted.
        assert_eq!(call("sqrt", &[Scalar::I(16)]), Scalar::F(4.0));
    }

    #[test]
    fn malloc_slot_model() {
        let mem = Memory::new();
        // malloc(3 * sizeof(int)) with sizeof == 8 → 24 bytes → 3 slots.
        let r = call_in(&mem, "malloc", &[Scalar::I(24)]).unwrap();
        let Scalar::P(p) = r else {
            panic!("not a pointer")
        };
        assert_eq!(mem.alloc_len(p), Some(3));
    }

    #[test]
    fn calloc_zeroes() {
        let mem = Memory::new();
        let r = call_in(&mem, "calloc", &[Scalar::I(4), Scalar::I(8)]).unwrap();
        let Scalar::P(p) = r else { panic!() };
        for i in 0..4 {
            assert_eq!(mem.load(p.offset(i)).unwrap(), Scalar::I(0));
        }
    }

    #[test]
    fn calloc_product_overflow_is_a_limit_error() {
        let mem = Memory::new();
        let huge = Scalar::I(4_000_000_000);
        let e = call_in(&mem, "calloc", &[huge, huge]).unwrap_err();
        assert_eq!(e.trap, Some(Trap::MemoryLimit), "{}", e.message);
        let e = call_in(&mem, "malloc", &[Scalar::I(i64::MAX)]).unwrap_err();
        assert_eq!(e.trap, Some(Trap::MemoryLimit), "{}", e.message);
    }

    #[test]
    fn free_null_is_noop() {
        assert!(call_in(&Memory::new(), "free", &[Scalar::Null]).is_ok());
    }

    #[test]
    fn unknown_function_is_not_builtin() {
        let e = call_in(&Memory::new(), "do_stuff", &[]).unwrap_err();
        assert_eq!(e.message, "call to undefined function 'do_stuff'");
        assert!(math_builtin("do_stuff").is_none());
    }

    #[test]
    fn printf_formatting() {
        let mem = Memory::new();
        let s = format_printf("i=%d f=%.2f %%\n", &[Scalar::I(7), Scalar::F(1.5)], &mem);
        assert_eq!(s, "i=7 f=1.50 %\n");
        let s2 = format_printf("%e", &[Scalar::F(12345.0)], &mem);
        assert!(s2.contains('e'));
    }

    fn printf(fmt: &str, args: &[i64]) -> String {
        let args: Vec<Scalar> = args.iter().map(|&v| Scalar::I(v)).collect();
        format_printf(fmt, &args, &Memory::new())
    }

    #[test]
    fn printf_unsigned_conversions_read_cs_unsigned_int() {
        // What `gcc -O2` prints for the same call.
        assert_eq!(
            printf("%x %d|%o|%X|%u\n", &[255, 7, 8, 255, -1]),
            "ff 7|10|FF|4294967295\n"
        );
        // `int`'s low 32 bits, unless a length modifier says otherwise.
        assert_eq!(
            printf("%x %lx %llx", &[-1, -1, -1]),
            "ffffffff ffffffffffffffff ffffffffffffffff"
        );
        assert_eq!(
            printf("%lu %llu %zu", &[-1, 1 << 40, 5]),
            "18446744073709551615 1099511627776 5"
        );
        assert_eq!(
            printf("%u %o", &[(1 << 32) + 9, 4_294_967_295]),
            "9 37777777777"
        );
        assert_eq!(
            printf("%hu %hhu %hx %hhX", &[70_000, 257, -1, 511]),
            "4464 1 ffff FF"
        );
    }

    #[test]
    fn printf_short_and_char_lengths_wrap_signed_conversions() {
        assert_eq!(printf("%hd", &[70_000]), "4464");
        assert_eq!(
            printf("%hd %hhd %hhi", &[32_768, 200, 127]),
            "-32768 -56 127"
        );
        assert_eq!(
            printf("%d %ld %lld", &[-5, 1 << 40, -(1 << 40)]),
            "-5 1099511627776 -1099511627776"
        );
    }

    #[test]
    fn printf_unknown_conversion_consumes_its_argument() {
        // `%p` is not rendered, but the `%d` after it reads the second
        // argument, not the first.
        assert_eq!(printf("%p|%d", &[64, 3]), "%p|3");
        assert_eq!(printf("%5k %d", &[1, 2]), "%5k 2");
    }

    /// Run `src` on the VM, the resolved engine and the legacy oracle.
    fn on_every_engine(src: &str) -> [Result<i64, RuntimeError>; 3] {
        use crate::interp::{InterpOptions, Program};
        let parsed = cfront::parser::parse(src);
        assert!(!parsed.diags.has_errors(), "{src}");
        let prog = Program::new(&parsed.unit);
        let opts = InterpOptions::default();
        [
            prog.run(opts),
            prog.run_resolved(opts),
            prog.run_legacy(opts),
        ]
        .map(|r| r.map(|ok| ok.exit_code))
    }

    /// A builtin's error is the engines' own runtime error — same message
    /// and span on all three — never a panic.
    #[test]
    fn builtin_errors_match_on_every_engine() {
        let src = "int main() { free(3); return 0; }";
        let [vm, resolved, legacy] =
            on_every_engine(src).map(|r| r.expect_err("free of a non-pointer must error"));
        assert!(vm.message.contains("free of non-pointer"), "{}", vm.message);
        assert!(!vm.span.is_empty());
        for other in [resolved, legacy] {
            assert_eq!((&other.message, other.span), (&vm.message, vm.span));
        }
    }

    /// Integer entries wrap like the engines' operators, and a missing
    /// argument reads as zero (the way `f1`/`f2` always did).
    #[test]
    fn integer_builtins_wrap_and_tolerate_missing_arguments() {
        const MIN: &str = "(-9223372036854775807 - 1)";
        for (src, want) in [
            (format!("int main() {{ return labs({MIN}) == {MIN}; }}"), 1),
            ("int main() { return labs(); }".to_string(), 0),
            ("int main() { return abs(-3); }".to_string(), 3),
        ] {
            for (engine, got) in on_every_engine(&src).into_iter().enumerate() {
                assert_eq!(got.ok(), Some(want), "engine {engine}: {src}");
            }
        }
    }
}

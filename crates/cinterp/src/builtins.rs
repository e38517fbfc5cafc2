//! Builtin C functions known to the interpreter: the math library (seeded
//! pure in the verifier), `malloc`/`calloc`/`free`, `printf`, and the
//! `__pc_*` codegen helpers (used when the transformed program was not
//! given their C definitions).

use crate::value::{MemError, Memory, Scalar};

/// Result of a builtin call; `None` means "not a builtin".
pub fn call_builtin(
    name: &str,
    args: &[Scalar],
    mem: &Memory,
    output: &mut String,
) -> Option<Result<Scalar, MemError>> {
    let f1 = |f: fn(f64) -> f64| -> Result<Scalar, MemError> {
        Ok(Scalar::F(f(args
            .first()
            .copied()
            .unwrap_or(Scalar::F(0.0))
            .as_f64())))
    };
    let f2 = |f: fn(f64, f64) -> f64| -> Result<Scalar, MemError> {
        let a = args.first().copied().unwrap_or(Scalar::F(0.0)).as_f64();
        let b = args.get(1).copied().unwrap_or(Scalar::F(0.0)).as_f64();
        Ok(Scalar::F(f(a, b)))
    };
    Some(match name {
        // ---- math (double and float variants share f64 slots) -------------
        "sin" | "sinf" => f1(f64::sin),
        "cos" | "cosf" => f1(f64::cos),
        "tan" | "tanf" => f1(f64::tan),
        "asin" | "asinf" => f1(f64::asin),
        "acos" | "acosf" => f1(f64::acos),
        "atan" | "atanf" => f1(f64::atan),
        "atan2" | "atan2f" => f2(f64::atan2),
        "sinh" => f1(f64::sinh),
        "cosh" => f1(f64::cosh),
        "tanh" => f1(f64::tanh),
        "exp" | "expf" => f1(f64::exp),
        "log" | "logf" => f1(f64::ln),
        "log2" | "log2f" => f1(f64::log2),
        "log10" | "log10f" => f1(f64::log10),
        "sqrt" | "sqrtf" => f1(f64::sqrt),
        "cbrt" => f1(f64::cbrt),
        "pow" | "powf" => f2(f64::powf),
        "fabs" | "fabsf" => f1(f64::abs),
        "floor" | "floorf" => f1(f64::floor),
        "ceil" | "ceilf" => f1(f64::ceil),
        "round" | "roundf" => f1(f64::round),
        "trunc" => f1(f64::trunc),
        "fmod" | "fmodf" => f2(|a, b| a % b),
        "fmin" | "fminf" => f2(f64::min),
        "fmax" | "fmaxf" => f2(f64::max),
        "hypot" => f2(f64::hypot),
        "expm1" => f1(f64::exp_m1),
        "log1p" => f1(f64::ln_1p),
        "copysign" => f2(f64::copysign),
        "abs" | "labs" | "llabs" => Ok(Scalar::I(
            args.first().copied().unwrap_or(Scalar::I(0)).as_i64().abs(),
        )),

        // ---- allocation (slot model: sizeof(T) == 8 bytes ⇒ /8) -----------
        "malloc" => {
            let bytes = args
                .first()
                .copied()
                .unwrap_or(Scalar::I(0))
                .as_i64()
                .max(0);
            mem.try_alloc((bytes as usize).div_ceil(8)).map(Scalar::P)
        }
        "calloc" => {
            let n = args
                .first()
                .copied()
                .unwrap_or(Scalar::I(0))
                .as_i64()
                .max(0);
            let sz = args.get(1).copied().unwrap_or(Scalar::I(0)).as_i64().max(0);
            // A product beyond i64 saturates: no heap can hold it, so
            // `try_alloc_zeroed` refuses it as a memory-limit trap.
            let bytes = n.checked_mul(sz).unwrap_or(i64::MAX);
            mem.try_alloc_zeroed((bytes as usize).div_ceil(8))
                .map(Scalar::P)
        }
        "free" => {
            match args.first() {
                Some(Scalar::P(p)) => match mem.free(*p) {
                    Ok(()) => Ok(Scalar::I(0)),
                    Err(e) => Err(e),
                },
                Some(Scalar::Null) | None => Ok(Scalar::I(0)), // free(NULL) is a no-op
                _ => Err(MemError::new("free of non-pointer")),
            }
        }

        // ---- I/O ------------------------------------------------------------
        "printf" => {
            // The format string was evaluated to a pointer into a string
            // allocation by the caller and passed pre-rendered in `output`
            // by the interpreter; here we only see scalars. The interpreter
            // handles printf specially; this arm is a fallback.
            output.push_str("[printf]");
            Ok(Scalar::I(0))
        }

        // ---- codegen helpers (fallback when not defined in C) -------------
        "__pc_floord" => {
            let n = args[0].as_i64();
            let d = args[1].as_i64();
            Ok(Scalar::I(n.div_euclid(d)))
        }
        "__pc_ceild" => {
            let n = args[0].as_i64();
            let d = args[1].as_i64();
            Ok(Scalar::I(-((-n).div_euclid(d))))
        }
        "__pc_max" => Ok(Scalar::I(args[0].as_i64().max(args[1].as_i64()))),
        "__pc_min" => Ok(Scalar::I(args[0].as_i64().min(args[1].as_i64()))),

        _ => return None,
    })
}

/// Render a `printf` call given the format string and evaluated arguments.
/// Supports the conversions used by the evaluation programs:
/// `%d %ld %u %f %g %e %s %c %%` with optional width/precision digits.
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
        // Collect flags/width/precision.
        let mut spec = String::new();
        let conv = loop {
            match chars.next() {
                Some(d @ ('0'..='9' | '.' | '-' | '+' | 'l' | 'z')) => spec.push(d),
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
        match conv {
            '%' => out.push('%'),
            'd' | 'i' | 'u' => out.push_str(&take().as_i64().to_string()),
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
                out.push('%');
                out.push(other);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Scalar]) -> Scalar {
        let mem = Memory::new();
        let mut out = String::new();
        call_builtin(name, args, &mem, &mut out)
            .expect("is builtin")
            .expect("no error")
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
        let mut out = String::new();
        // malloc(3 * sizeof(int)) with sizeof == 8 → 24 bytes → 3 slots.
        let r = call_builtin("malloc", &[Scalar::I(24)], &mem, &mut out)
            .unwrap()
            .unwrap();
        let Scalar::P(p) = r else {
            panic!("not a pointer")
        };
        assert_eq!(mem.alloc_len(p), Some(3));
    }

    #[test]
    fn calloc_zeroes() {
        let mem = Memory::new();
        let mut out = String::new();
        let r = call_builtin("calloc", &[Scalar::I(4), Scalar::I(8)], &mem, &mut out)
            .unwrap()
            .unwrap();
        let Scalar::P(p) = r else { panic!() };
        for i in 0..4 {
            assert_eq!(mem.load(p.offset(i)).unwrap(), Scalar::I(0));
        }
    }

    #[test]
    fn calloc_product_overflow_is_a_limit_error() {
        let mem = Memory::new();
        let mut out = String::new();
        let huge = Scalar::I(4_000_000_000);
        let e = call_builtin("calloc", &[huge, huge], &mem, &mut out)
            .unwrap()
            .unwrap_err();
        assert!(e.limit, "{}", e.message);
        let e = call_builtin("malloc", &[Scalar::I(i64::MAX)], &mem, &mut out)
            .unwrap()
            .unwrap_err();
        assert!(e.limit, "{}", e.message);
    }

    #[test]
    fn free_null_is_noop() {
        let mem = Memory::new();
        let mut out = String::new();
        let r = call_builtin("free", &[Scalar::Null], &mem, &mut out).unwrap();
        assert!(r.is_ok());
    }

    #[test]
    fn pc_helpers_floor_and_ceil_division() {
        assert_eq!(
            call("__pc_floord", &[Scalar::I(7), Scalar::I(2)]),
            Scalar::I(3)
        );
        assert_eq!(
            call("__pc_floord", &[Scalar::I(-7), Scalar::I(2)]),
            Scalar::I(-4)
        );
        assert_eq!(
            call("__pc_ceild", &[Scalar::I(7), Scalar::I(2)]),
            Scalar::I(4)
        );
        assert_eq!(
            call("__pc_ceild", &[Scalar::I(-7), Scalar::I(2)]),
            Scalar::I(-3)
        );
        assert_eq!(
            call("__pc_max", &[Scalar::I(3), Scalar::I(9)]),
            Scalar::I(9)
        );
        assert_eq!(
            call("__pc_min", &[Scalar::I(3), Scalar::I(9)]),
            Scalar::I(3)
        );
    }

    #[test]
    fn unknown_function_is_not_builtin() {
        let mem = Memory::new();
        let mut out = String::new();
        assert!(call_builtin("do_stuff", &[], &mem, &mut out).is_none());
    }

    #[test]
    fn printf_formatting() {
        let mem = Memory::new();
        let s = format_printf("i=%d f=%.2f %%\n", &[Scalar::I(7), Scalar::F(1.5)], &mem);
        assert_eq!(s, "i=7 f=1.50 %\n");
        let s2 = format_printf("%e", &[Scalar::F(12345.0)], &mem);
        assert!(s2.contains('e'));
    }
}

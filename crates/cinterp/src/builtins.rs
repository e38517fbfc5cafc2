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

/// The widest field and the longest precision one conversion pads to: the
/// program chooses them (`%*d` reads one from its arguments), so they are
/// bounded before anything is written. C11 7.21.6.1 asks an
/// implementation to produce at least 4 095 characters per conversion.
const MAX_FIELD: usize = 1 << 16;

/// Flags, field width and precision of one `printf` conversion.
#[derive(Default)]
struct Field {
    /// `-`: pad on the right.
    left: bool,
    /// `0`: pad a number with zeros after its sign or prefix.
    zero: bool,
    /// `+`: a non-negative signed number shows `+`.
    plus: bool,
    /// ` `: a non-negative signed number shows a space.
    space: bool,
    /// `#`: `0x`/`0X` in front of a non-zero `%x`/`%X`, a leading `0` on
    /// `%o`, trailing zeros kept by `%g`.
    alt: bool,
    width: usize,
    precision: Option<usize>,
}

impl Field {
    fn sign(&self, negative: bool) -> &'static str {
        match (negative, self.plus, self.space) {
            (true, _, _) => "-",
            (false, true, _) => "+",
            (false, false, true) => " ",
            _ => "",
        }
    }

    /// Write `prefix` (a sign, `0x`) and `body` padded to the width:
    /// spaces after them under `-`, zeros between them under `0` when
    /// `zeros` (a finite number without an integer precision), spaces in
    /// front otherwise.
    fn pad(&self, out: &mut String, prefix: &str, body: &str, zeros: bool) {
        let fill = self
            .width
            .saturating_sub(prefix.chars().count() + body.chars().count());
        let spaces = |out: &mut String| out.extend(std::iter::repeat_n(' ', fill));
        if self.left {
            out.push_str(prefix);
            out.push_str(body);
            spaces(out);
        } else if self.zero && zeros {
            out.push_str(prefix);
            out.extend(std::iter::repeat_n('0', fill));
            out.push_str(body);
        } else {
            spaces(out);
            out.push_str(prefix);
            out.push_str(body);
        }
    }

    /// An integer's digits under the precision: at least that many
    /// digits, and none for zero at precision 0.
    fn digits(&self, mut digits: String) -> String {
        match self.precision {
            Some(0) if digits == "0" => String::new(),
            Some(p) if digits.len() < p => {
                digits.insert_str(0, &"0".repeat(p - digits.len()));
                digits
            }
            _ => digits,
        }
    }
}

/// `x` (finite, not negative) rounded to one digit, `.` and `p` more
/// digits, times a power of ten: that mantissa's text and the exponent.
fn scientific(x: f64, p: usize) -> (String, i32) {
    let s = format!("{x:.p$e}");
    let (mantissa, exp) = s
        .split_once('e')
        .expect("`{:e}` writes the mantissa, then `e`, then a decimal exponent");
    (
        mantissa.to_string(),
        exp.parse().expect("a decimal exponent"),
    )
}

/// C's exponent suffix: `e` (or `E`), the sign and at least two digits.
fn exponent(exp: i32, upper: bool) -> String {
    let e = if upper { 'E' } else { 'e' };
    let sign = if exp < 0 { '-' } else { '+' };
    format!("{e}{sign}{:02}", exp.unsigned_abs())
}

/// `x` (finite, not negative) in C's `%g` style at precision `p`: `%e`
/// style when the exponent is below −4 or at least `p` (0 counts as 1),
/// `%f` style otherwise, then trailing zeros and a trailing point
/// removed unless `keep_zeros` (`#`).
fn general_style(x: f64, p: usize, upper: bool, keep_zeros: bool) -> String {
    let p = p.max(1);
    let (mantissa, exp) = scientific(x, p - 1);
    let (mut digits, suffix) = if exp < -4 || exp >= p as i32 {
        (mantissa, exponent(exp, upper))
    } else {
        (
            format!("{x:.*}", (p as i32 - 1 - exp) as usize),
            String::new(),
        )
    };
    if !keep_zeros && digits.contains('.') {
        digits.truncate(digits.trim_end_matches('0').trim_end_matches('.').len());
    }
    digits + &suffix
}

/// The digits at the front of `chars` as a number (0 when there are
/// none), each also appended to `spec`.
fn decimal(chars: &mut std::iter::Peekable<std::str::Chars>, spec: &mut String) -> usize {
    let mut n = 0usize;
    while let Some(d) = chars.next_if(char::is_ascii_digit) {
        spec.push(d);
        n = n
            .saturating_mul(10)
            .saturating_add(d as usize - '0' as usize);
    }
    n
}

/// Render a `printf` call given the format string and evaluated arguments.
/// Supports `%d %i %u %x %X %o %f %F %e %E %g %G %c %s %%` with C's flags
/// (`-`, `0`, `+`, space, `#`), field width and precision (either may be
/// `*`, read from the arguments), and the `hh`, `h`, `l`, `ll` and `z`
/// length modifiers. An integer is read as C reads it: `%u %x %X %o`
/// take its low 32 bits as an `unsigned int`, 64 under `l`/`ll`/`z`, 16
/// under `h` and 8 under `hh`; `%hd` and `%hhd` take its low 16 or 8 bits
/// as signed. Floats print as glibc prints them: `%e` with at least two
/// exponent digits, `%g` by C's rule, `inf` and `nan` with their sign.
/// Any other conversion prints as written and still consumes its
/// argument, so the conversions after it read theirs.
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
        // Flags, width, precision and length, also kept as written.
        let mut spec = String::new();
        let mut f = Field::default();
        while let Some(&d @ ('-' | '+' | ' ' | '0' | '#')) = chars.peek() {
            match d {
                '-' => f.left = true,
                '+' => f.plus = true,
                ' ' => f.space = true,
                '0' => f.zero = true,
                _ => f.alt = true,
            }
            spec.push(d);
            chars.next();
        }
        if chars.next_if_eq(&'*').is_some() {
            spec.push('*');
            // A negative width is the `-` flag.
            let n = take().as_i64();
            f.left |= n < 0;
            f.width = n.unsigned_abs() as usize;
        } else {
            f.width = decimal(&mut chars, &mut spec);
        }
        if chars.next_if_eq(&'.').is_some() {
            spec.push('.');
            f.precision = if chars.next_if_eq(&'*').is_some() {
                spec.push('*');
                // A negative precision is no precision.
                usize::try_from(take().as_i64()).ok()
            } else {
                Some(decimal(&mut chars, &mut spec))
            };
        }
        while let Some(d) = chars.next_if(|c| matches!(c, 'h' | 'l' | 'z')) {
            spec.push(d);
        }
        f.width = f.width.min(MAX_FIELD);
        f.precision = f.precision.map(|p| p.min(MAX_FIELD));
        let Some(conv) = chars.next() else {
            out.push('%');
            out.push_str(&spec);
            break;
        };
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
                let body = f.digits(v.unsigned_abs().to_string());
                f.pad(&mut out, f.sign(v < 0), &body, f.precision.is_none());
            }
            'u' | 'x' | 'X' | 'o' => {
                let v = unsigned(take());
                let body = f.digits(match conv {
                    'u' => v.to_string(),
                    'x' => format!("{v:x}"),
                    'X' => format!("{v:X}"),
                    _ => format!("{v:o}"),
                });
                let prefix = match conv {
                    'x' if f.alt && v != 0 => "0x",
                    'X' if f.alt && v != 0 => "0X",
                    'o' if f.alt && !body.starts_with('0') => "0",
                    _ => "",
                };
                f.pad(&mut out, prefix, &body, f.precision.is_none());
            }
            'f' | 'F' | 'e' | 'E' | 'g' | 'G' => {
                let x = take().as_f64();
                let upper = conv.is_ascii_uppercase();
                let p = f.precision.unwrap_or(6);
                let body = if !x.is_finite() {
                    let s = if x.is_nan() { "nan" } else { "inf" };
                    if upper {
                        s.to_ascii_uppercase()
                    } else {
                        s.to_string()
                    }
                } else {
                    match conv {
                        'f' | 'F' => format!("{:.p$}", x.abs()),
                        'e' | 'E' => {
                            let (mantissa, exp) = scientific(x.abs(), p);
                            mantissa + &exponent(exp, upper)
                        }
                        _ => general_style(x.abs(), p, upper, f.alt),
                    }
                };
                f.pad(&mut out, f.sign(x.is_sign_negative()), &body, x.is_finite());
            }
            'c' => {
                let v = take().as_i64();
                let body = char::from_u32(v as u32).unwrap_or('?').to_string();
                f.pad(&mut out, "", &body, false);
            }
            's' => {
                let mut body = String::new();
                match take() {
                    Scalar::P(mut p) => {
                        // C strings are stored one char per slot; the
                        // precision bounds how many are read.
                        let mut read = 0;
                        while f.precision.is_none_or(|n| read < n) {
                            read += 1;
                            let Ok(Scalar::I(ch)) = mem.load(p) else {
                                break;
                            };
                            if ch == 0 {
                                break;
                            }
                            body.push(char::from_u32(ch as u32).unwrap_or('?'));
                            p = p.offset(1);
                        }
                    }
                    _ => body.push_str("(null)"),
                }
                f.pad(&mut out, "", &body, false);
            }
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
        assert_eq!(printf("%-*.*k %d", &[4, 2, 1, 2]), "%-*.*k 2");
    }

    /// A C string in `mem`, one char per slot, as the engines store one.
    fn c_string(mem: &Memory, s: &str) -> Scalar {
        let p = mem.try_alloc_zeroed(s.len() + 1).expect("room");
        for (i, ch) in s.chars().enumerate() {
            mem.store(p.offset(i as i64), Scalar::I(ch as i64))
                .expect("in bounds");
        }
        Scalar::P(p)
    }

    #[test]
    fn printf_widths_and_flags_pad_as_c_does() {
        // Each expectation is what `gcc -O2` prints for the same call.
        let mem = Memory::new();
        let (ab, cd) = (c_string(&mem, "ab"), c_string(&mem, "cd"));
        let args = [
            Scalar::I(42),
            Scalar::I(7),
            Scalar::F(1e20),
            Scalar::I(3),
            Scalar::F(1.23456),
            Scalar::F(0.0001),
            ab,
            cd,
        ];
        assert_eq!(
            format_printf(
                "[%5d] [%-4d|] [%g] [%05d] [%8.3f] [%g] [%s|%6s]",
                &args,
                &mem
            ),
            "[   42] [7   |] [1e+20] [00003] [   1.235] [0.0001] [ab|    cd]"
        );
        assert_eq!(
            printf(
                "[%+d] [% d] [%+5d] [%-+5d|] [%05d] [%-05d|] [%.3d] [%.0d] [%5.3d]",
                &[5, 5, -5, 5, -42, 42, 7, 0, -7]
            ),
            "[+5] [ 5] [   -5] [+5   |] [-0042] [42   |] [007] [] [ -007]"
        );
        assert_eq!(
            printf(
                "[%#x] [%#X] [%#o] [%#o] [%08x] [%-6x|] [%#08x] [%x]",
                &[255, 255, 8, 0, 255, 255, 255, 0]
            ),
            "[0xff] [0XFF] [010] [0] [000000ff] [ff    |] [0x0000ff] [0]"
        );
        // `*` reads the width from the arguments; a negative one is `-`.
        assert_eq!(
            printf("[%*d] [%-*d|] [%*d]", &[6, 1, 4, 2, -5, 9]),
            "[     1] [2   |] [9    ]"
        );
        // A width the program computes is bounded before it is written.
        assert_eq!(printf("%*d", &[1 << 40, 7]).len(), MAX_FIELD);
        assert_eq!(printf("%.999999999999d", &[7]).len(), MAX_FIELD);
        let hello = c_string(&mem, "hello");
        let xyz = c_string(&mem, "xyz");
        let args = [hello, xyz, Scalar::I(65), Scalar::I(66)];
        assert_eq!(
            format_printf("[%.2s] [%5.1s] [%c] [%-3c|]", &args, &mem),
            "[he] [    x] [A] [B  |]"
        );
    }

    fn printf_f(fmt: &str, args: &[f64]) -> String {
        let args: Vec<Scalar> = args.iter().map(|&v| Scalar::F(v)).collect();
        format_printf(fmt, &args, &Memory::new())
    }

    #[test]
    fn printf_floats_follow_cs_e_and_g_rules() {
        // Each expectation is what `gcc -O2` prints for the same call.
        assert_eq!(
            printf_f(
                "[%g] [%g] [%g] [%g] [%g] [%g] [%g] [%g]",
                &[1e5, 1e6, 123456789.0, 0.00001, 1.5, 0.0, -2.5, 1e-300]
            ),
            "[100000] [1e+06] [1.23457e+08] [1e-05] [1.5] [0] [-2.5] [1e-300]"
        );
        assert_eq!(
            printf_f(
                "[%.0g] [%.1g] [%.3g] [%#g] [%G] [%10.4g] [%-10.2g|] [%010g]",
                &[123.0, 0.05, 1.23456, 1.0, 1e-10, 1.23456, 0.000123456, -1.5]
            ),
            "[1e+02] [0.05] [1.23] [1.00000] [1E-10] [     1.235] [0.00012   |] [-0000001.5]"
        );
        // Rounding decides the style: 999999.5 rounds to 1e+06.
        assert_eq!(
            printf_f("[%g] [%g] [%.3g]", &[999999.5, 0.00009999995, 99.95]),
            "[1e+06] [0.0001] [100]"
        );
        assert_eq!(
            printf_f(
                "[%e] [%.2e] [%E] [%12.3e] [%.0e] [%e]",
                &[12345.0, 0.000123, 1e100, -6.02e23, 5.0, 0.0]
            ),
            "[1.234500e+04] [1.23e-04] [1.000000E+100] [  -6.020e+23] [5e+00] [0.000000e+00]"
        );
        assert_eq!(
            printf_f(
                "[%+.2f] [% .1f] [%08.2f] [%-8.2f|] [%f] [%+f]",
                &[2.5, 2.25, -1.23456, 1.0, -0.0, 0.0]
            ),
            "[+2.50] [ 2.2] [-0001.23] [1.00    |] [-0.000000] [+0.000000]"
        );
        // Not a number pads with spaces, never zeros, and keeps its sign.
        let nan = f64::NAN;
        assert_eq!(
            printf_f(
                "[%f] [%6.1f] [%e] [%F] [%06f] [%-6g|] [%+f]",
                &[
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -nan.abs(),
                    f64::INFINITY,
                    f64::INFINITY,
                    nan.abs(),
                    f64::INFINITY
                ]
            ),
            "[inf] [  -inf] [-nan] [INF] [   inf] [nan   |] [+inf]"
        );
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

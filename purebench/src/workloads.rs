//! The seven workloads: seeded source generators and references that do
//! not come from the compiler under test.
//!
//! The seed only reaches the generators here; the chain and the engines
//! receive source text. Wherever the seed picks inputs it permutes a fixed
//! set (stride over a fixed key range, shuffle of a fixed shape multiset),
//! so the *amount* of work is the same for every seed and a run on another
//! seed is comparable.

use crate::heavy;
use cinterp::InterpOptions;

/// One C program of a workload with its reference observables.
pub struct ProgramSpec {
    pub name: &'static str,
    pub source: String,
    pub expect_exit: i64,
    pub expect_stdout: String,
    /// `malloc` calls the program makes (known to the generator), the
    /// divisor of `cinterp.value.rss_kb_per_malloc`.
    pub mallocs: u64,
}

/// A workload: the programs of one *execution* plus how they are run.
pub struct Workload {
    pub programs: Vec<ProgramSpec>,
    /// `true`: measured at `T` threads; `false`: at 1.
    pub parallel: bool,
    /// Options of the measured run, `threads` left at 1.
    pub opts: InterpOptions,
    /// Problem sizes, for the provenance record.
    pub sizes: String,
}

impl Workload {
    /// Options of the measured run on a host whose parallel runs use `t`
    /// threads.
    pub fn measured_opts(&self, t: usize) -> InterpOptions {
        InterpOptions {
            threads: if self.parallel { t } else { 1 },
            ..self.opts
        }
    }
}

pub const NAMES: [&str; 7] = [
    "paper_apps",
    "poly_nest",
    "dispatch_scalar",
    "futures_dnc",
    "memo_reuse",
    "compile_heavy",
    "region_churn",
];

/// splitmix64 — the only random source of the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A seeded stride coprime to `range`, so `i * stride % range` walks a
/// permutation of `0..range`: the key *set* is fixed, its order is seeded.
fn coprime_stride(rng: &mut Rng, range: u64) -> u64 {
    loop {
        let s = 1001 + rng.below(8000);
        if gcd(s, range) == 1 {
            return s;
        }
    }
}

/// Expected `aod=` / `spmv=` lines for satellite and lama, checked into
/// `refs/` (one `program size… = line` per row). Their two confirmation
/// routes are the tests at the bottom of this file.
fn checked_in_ref(key: &str) -> String {
    const REFS: &str = include_str!("../refs/expected.txt");
    for line in REFS.lines() {
        if let Some((k, v)) = line.split_once(" = ") {
            if k == key {
                return format!("{v}\n");
            }
        }
    }
    panic!("no checked-in reference for `{key}` in refs/expected.txt");
}

fn paper_apps(quick: bool) -> Workload {
    let (mm, hn, hs, sw, sh, lr, lk) = if quick {
        (32, 32, 10, 32, 32, 1024, 16)
    } else {
        (64, 64, 20, 64, 64, 4096, 16)
    };
    let programs = vec![
        ProgramSpec {
            name: "matmul",
            source: apps::matmul::c_source(mm),
            expect_exit: 0,
            expect_stdout: format!("checksum={:.1}\n", apps::matmul::c_source_checksum(mm)),
            mallocs: 3 + 3 * mm as u64,
        },
        ProgramSpec {
            name: "heat",
            source: apps::heat::c_source(hn, hs),
            expect_exit: 0,
            expect_stdout: format!("heat={:.3}\n", apps::heat::c_source_total(hn, hs)),
            mallocs: 2 + 2 * hn as u64,
        },
        ProgramSpec {
            name: "satellite",
            source: apps::satellite::c_source(sw, sh),
            expect_exit: 0,
            expect_stdout: checked_in_ref(&format!("satellite {sw} {sh}")),
            mallocs: 2,
        },
        ProgramSpec {
            name: "lama",
            source: apps::lama::c_source(lr, lk),
            expect_exit: 0,
            expect_stdout: checked_in_ref(&format!("lama {lr} {lk}")),
            mallocs: 4,
        },
    ];
    Workload {
        programs,
        parallel: true,
        opts: InterpOptions::default(),
        sizes: format!("matmul {mm}, heat {hn}x{hs}, satellite {sw}x{sh}, lama {lr}x{lk}"),
    }
}

fn poly_nest(quick: bool) -> Workload {
    let n = if quick { 80 } else { 128 };
    Workload {
        programs: vec![ProgramSpec {
            name: "matmul_inline",
            source: apps::matmul::c_source_inline(n),
            expect_exit: 0,
            expect_stdout: format!("checksum={:.1}\n", apps::matmul::c_source_checksum(n)),
            mallocs: 3 + 3 * n as u64,
        }],
        parallel: true,
        opts: InterpOptions::default(),
        sizes: format!("matmul_inline {n}"),
    }
}

fn varaccess_source(iters: u64) -> String {
    format!(
        "int main() {{\n\
             int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;\n\
             for (int i = 0; i < {iters}; i++) {{\n\
                 a = a + b; b = b ^ c; c = c + d;\n\
                 d = d + e; e = e + a; a = a - d;\n\
             }}\n\
             return a & 255;\n\
         }}\n"
    )
}

/// Mirror of [`varaccess_source`]: the interpreter's `int` is a wrapping
/// 64-bit integer.
fn varaccess_exit(iters: u64) -> i64 {
    let (mut a, mut b, mut c, mut d, mut e) = (0i64, 1i64, 2i64, 3i64, 4i64);
    for _ in 0..iters {
        a = a.wrapping_add(b);
        b ^= c;
        c = c.wrapping_add(d);
        d = d.wrapping_add(e);
        e = e.wrapping_add(a);
        a = a.wrapping_sub(d);
    }
    a & 255
}

fn arraysum_source(n: u64, iters: u64) -> String {
    format!(
        "int main() {{\n\
             int* a = (int*) malloc({n} * sizeof(int));\n\
             for (int i = 0; i < {n}; i++) a[i] = i * 3 + 1;\n\
             int acc = 0;\n\
             for (int r = 0; r < {iters}; r++) {{\n\
                 for (int i = 0; i < {n}; i++) {{\n\
                     int v = a[i];\n\
                     a[i] = v + r;\n\
                     a[i] += r & 7;\n\
                     acc = acc + v;\n\
                 }}\n\
             }}\n\
             return acc & 255;\n\
         }}\n"
    )
}

fn arraysum_exit(n: u64, iters: u64) -> i64 {
    let mut a: Vec<i64> = (0..n as i64).map(|i| i * 3 + 1).collect();
    let mut acc = 0i64;
    for r in 0..iters as i64 {
        for x in a.iter_mut() {
            let v = *x;
            *x = v + r + (r & 7);
            acc = acc.wrapping_add(v);
        }
    }
    acc & 255
}

fn dispatch_scalar(quick: bool) -> Workload {
    let (vi, an, ai) = if quick {
        (125_000, 1024, 100)
    } else {
        (500_000, 1024, 400)
    };
    Workload {
        programs: vec![
            ProgramSpec {
                name: "varaccess",
                source: varaccess_source(vi),
                expect_exit: varaccess_exit(vi),
                expect_stdout: String::new(),
                mallocs: 0,
            },
            ProgramSpec {
                name: "arraysum",
                source: arraysum_source(an, ai),
                expect_exit: arraysum_exit(an, ai),
                expect_stdout: String::new(),
                mallocs: 1,
            },
        ],
        parallel: false,
        opts: InterpOptions::default(),
        sizes: format!("varaccess {vi}, arraysum {an}x{ai}"),
    }
}

fn fib(n: u64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

fn tsum(n: u64, v: i64) -> i64 {
    if n == 0 {
        return (v % 13) + 1;
    }
    tsum(n - 1, v * 2 + 1) + tsum(n - 1, v * 2 + 2)
}

fn futures_dnc(quick: bool) -> Workload {
    let (fn_, td) = if quick { (24, 16) } else { (27, 19) };
    // Explicit locals make the two recursive calls a statement-level spawn
    // batch; tsum's calls sit inside the return expression, so its spawn
    // sites exist only through temp hoisting (expression spawns).
    let fib_src = format!(
        "pure int fib(int n) {{\n\
             if (n < 2) return n;\n\
             int a = fib(n - 1);\n\
             int b = fib(n - 2);\n\
             return a + b;\n\
         }}\n\
         int main() {{ return fib({fn_}) % 251; }}\n"
    );
    let tsum_src = format!(
        "pure int tsum(int n, int v) {{\n\
             if (n == 0) return (v % 13) + 1;\n\
             return tsum(n - 1, v * 2 + 1) + tsum(n - 1, v * 2 + 2);\n\
         }}\n\
         int main() {{ return tsum({td}, 1) % 251; }}\n"
    );
    Workload {
        programs: vec![
            ProgramSpec {
                name: "fib",
                source: fib_src,
                expect_exit: fib(fn_) % 251,
                expect_stdout: String::new(),
                mallocs: 0,
            },
            ProgramSpec {
                name: "tsum",
                source: tsum_src,
                expect_exit: tsum(td, 1) % 251,
                expect_stdout: String::new(),
                mallocs: 0,
            },
        ],
        parallel: true,
        opts: InterpOptions {
            memo: false,
            ..InterpOptions::default()
        },
        sizes: format!("fib {fn_}, tsum {td}"),
    }
}

fn collatz(mut n: i64, cap: i64) -> i64 {
    let mut steps = 0;
    while n != 1 && steps < cap {
        n = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
        steps += 1;
    }
    steps
}

/// One phase of `memo_reuse`: `calls` calls of `collatz` over the key range
/// `lo..lo+range`, visited with a seeded stride. `cap` bounds the steps of
/// one call, that is what a miss costs.
fn collatz_phase(
    name: &'static str,
    (lo, range): (u64, u64),
    calls: u64,
    stride: u64,
    cap: i64,
) -> ProgramSpec {
    let source = format!(
        "pure int collatz(int n) {{\n\
             int steps = 0;\n\
             while (n != 1 && steps < {cap}) {{\n\
                 if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;\n\
                 steps = steps + 1;\n\
             }}\n\
             return steps;\n\
         }}\n\
         int main() {{\n\
             int* out = (int*) malloc({calls} * sizeof(int));\n\
         #pragma omp parallel for schedule(dynamic,64)\n\
             for (int i = 0; i < {calls}; i++)\n\
                 out[i] = collatz({lo} + (i * {stride}) % {range});\n\
             int acc = 0;\n\
             for (int i = 0; i < {calls}; i++) acc = (acc + out[i]) % 1000003;\n\
             return acc % 251;\n\
         }}\n"
    );
    let mut acc = 0i64;
    for i in 0..calls {
        acc = (acc + collatz((lo + (i * stride) % range) as i64, cap)) % 1_000_003;
    }
    ProgramSpec {
        name,
        source,
        expect_exit: acc % 251,
        expect_stdout: String::new(),
        mallocs: 1,
    }
}

fn memo_reuse(seed: u64, quick: bool) -> Workload {
    let mut rng = Rng::new(seed);
    let (hot_keys, hot_calls, cold_keys) = if quick {
        (4096, 40_000, 32_768)
    } else {
        // The cold key set is twice `cinterp::resolve::MEMO_CAPACITY`.
        (4096, 160_000, 131_072)
    };
    // A hot miss walks the whole trajectory (about 110 steps), so hits are
    // worth having; a cold miss is capped, so that phase is cache traffic.
    let hot_stride = coprime_stride(&mut rng, hot_keys);
    let hot = collatz_phase("hot", (1000, hot_keys), hot_calls, hot_stride, 100_000);
    let cold_stride = coprime_stride(&mut rng, cold_keys);
    let cold = collatz_phase("cold", (10_000, cold_keys), cold_keys, cold_stride, 8);
    Workload {
        programs: vec![hot, cold],
        parallel: true,
        opts: InterpOptions::default(),
        sizes: format!("hot {hot_keys} keys x {hot_calls} calls, cold {cold_keys} keys"),
    }
}

fn compile_heavy(seed: u64, quick: bool) -> Workload {
    let groups = if quick { 16 } else { 64 };
    let unit = heavy::generate(seed, groups);
    let total = heavy::evaluate(&unit);
    Workload {
        programs: vec![ProgramSpec {
            name: "unit",
            source: unit.source(),
            expect_exit: total % 251,
            expect_stdout: format!("heavy={total}\n"),
            mallocs: 2 * groups as u64 * (1 + heavy::N as u64),
        }],
        parallel: false,
        opts: InterpOptions::default(),
        sizes: format!("{groups} groups, N {}", heavy::N),
    }
}

fn region_churn(quick: bool) -> Workload {
    let (regions, width, pairs) = if quick {
        (750, 64, 12_500)
    } else {
        (3000, 64, 50_000)
    };
    let source = format!(
        "int main() {{\n\
             double* a = (double*) malloc({width} * sizeof(double));\n\
             for (int i = 0; i < {width}; i++) a[i] = i;\n\
             for (int r = 0; r < {regions}; r++) {{\n\
         #pragma omp parallel for schedule(static)\n\
                 for (int i = 0; i < {width}; i++) a[i] = a[i] + 1.0;\n\
             }}\n\
             double acc = 0;\n\
             for (int i = 0; i < {width}; i++) acc = acc + a[i];\n\
             int live = 0;\n\
             for (int k = 0; k < {pairs}; k++) {{\n\
                 int* p = (int*) malloc(256);\n\
                 p[0] = k;\n\
                 live = live + (p[0] & 1);\n\
                 free(p);\n\
             }}\n\
             return (((int) acc) + live) % 251;\n\
         }}\n"
    );
    let acc: i64 = (0..width).map(|i| i + regions).sum();
    let live = pairs / 2;
    Workload {
        programs: vec![ProgramSpec {
            name: "churn",
            source,
            expect_exit: (acc + live) % 251,
            expect_stdout: String::new(),
            mallocs: 1 + pairs as u64,
        }],
        parallel: true,
        opts: InterpOptions::default(),
        sizes: format!("{regions} regions x {width}, {pairs} malloc/free pairs"),
    }
}

/// Generate workload `name` from `seed`. `quick` divides the sizes by
/// about four (smoke runs and tests).
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    Some(match name {
        "paper_apps" => paper_apps(quick),
        "poly_nest" => poly_nest(quick),
        "dispatch_scalar" => dispatch_scalar(quick),
        "futures_dnc" => futures_dnc(quick),
        "memo_reuse" => memo_reuse(seed, quick),
        "compile_heavy" => compile_heavy(seed, quick),
        "region_churn" => region_churn(quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinterp::Engine;
    use purec::chain::{compile, ChainOptions};

    fn checked_in() -> Vec<ProgramSpec> {
        [false, true]
            .into_iter()
            .flat_map(|quick| paper_apps(quick).programs)
            .filter(|p| p.name == "satellite" || p.name == "lama")
            .collect()
    }

    /// First confirmation route of `refs/expected.txt`: the resolved-IR
    /// engine on a compile that skipped the polyhedral stage.
    #[test]
    fn checked_in_refs_match_resolved_engine_without_poly() {
        for p in checked_in() {
            let opts = ChainOptions {
                no_poly: true,
                ..Default::default()
            };
            let out = compile(&p.source, opts).expect("chain");
            let r = out
                .program()
                .run(InterpOptions {
                    engine: Engine::Resolved,
                    ..Default::default()
                })
                .expect("runs");
            assert_eq!((r.exit_code, r.output), (p.expect_exit, p.expect_stdout));
        }
    }

    /// Second route: the legacy tree-walker on the untransformed program
    /// (PC-CC and lowering only; no polycc, no resolved IR, no bytecode).
    #[cfg(feature = "legacy-oracle")]
    #[test]
    fn checked_in_refs_match_legacy_tree_walker() {
        use purec_core::{finish, run_pc_cc, PcCcOptions};
        for p in checked_in() {
            let out = run_pc_cc(&p.source, PcCcOptions::default()).expect("PC-CC");
            let none = std::collections::HashMap::new();
            let finished = finish(out.unit, &out.subst, &none, &out.system_includes);
            let r = cinterp::Program::new(&finished.unit)
                .run_legacy(InterpOptions::default())
                .expect("runs");
            assert_eq!((r.exit_code, r.output), (p.expect_exit, p.expect_stdout));
        }
    }

    #[test]
    fn seeded_strides_walk_a_permutation() {
        let mut rng = Rng::new(7);
        for range in [4096, 131_072, 32_768] {
            let s = coprime_stride(&mut rng, range);
            let mut seen = vec![false; range as usize];
            for i in 0..range {
                seen[((i * s) % range) as usize] = true;
            }
            assert!(seen.iter().all(|&b| b), "stride {s} over {range}");
        }
    }

    #[test]
    fn same_seed_same_sources_other_seed_other_sources() {
        for name in NAMES {
            let a = build(name, 3, true).unwrap();
            let b = build(name, 3, true).unwrap();
            let same = |x: &Workload, y: &Workload| {
                x.programs
                    .iter()
                    .zip(&y.programs)
                    .all(|(p, q)| p.source == q.source && p.expect_exit == q.expect_exit)
            };
            assert!(same(&a, &b), "{name}");
        }
        for name in ["memo_reuse", "compile_heavy"] {
            let a = build(name, 3, true).unwrap();
            let b = build(name, 4, true).unwrap();
            assert_ne!(a.programs[0].source, b.programs[0].source, "{name}");
        }
    }
}

// Shared through `include!` by the tests that walk the checked-in
// programs (`analysis_golden`, `chain_integration`, `effects_golden`,
// `matrix`), by those that run the blind-spot programs (`matrix`,
// `poly_differential`, `deps_golden`) and the braceless-body ones
// (`matrix`, `chain_integration`), and by `resource_limits` and
// `crates/purec/tests/cli.rs`, which read the trap and CI programs; and
// by every test that runs entries of the matrix (`matrix`, `gcc_oracle`,
// `chain_integration`, `poly_differential`, `resource_limits`), whose
// `tests/support/entries.rs` reads it. Every constant here is an entry
// there.

/// Every `.c` file under `examples/`, recursively, as `(path relative to
/// examples/, source)`, sorted by path.
#[allow(dead_code)] // not every includer walks both
fn example_programs() -> Vec<(String, String)> {
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|x| x == "c") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files = Vec::new();
    collect(&root, &mut files);
    files.sort();
    files
        .iter()
        .map(|p| {
            let name = p.strip_prefix(&root).expect("under examples/");
            let src = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (name.to_string_lossy().into_owned(), src)
        })
        .collect()
}

/// The polyhedral model sees a pure call as an opaque placeholder and
/// keys accesses by name, so it cannot see what the call reads. These
/// programs once compiled wrong because of that: `(name, source, stdout,
/// the number of `omp parallel for` loops the chain emits)`. A nest with a
/// hazard gets no pragma; the other nests keep theirs.
#[allow(dead_code)]
const BLIND_SPOT: [(&str, &str, &str, usize); 3] = [
    // Two adjacent nests: the consumer's call reads `a` one cell ahead
    // of the producer. Fused, the call read a[i + 1] before the producer
    // wrote it and the program printed 0, even at one thread.
    (
        "blind_spot/fused_feedback.c",
        "#include <stdio.h>
pure int f(pure int* v, int i) { return v[i + 1]; }
int a[101];
int b[100];
int main() {
    for (int i = 0; i < 100; i++) a[i] = i;
    for (int i = 0; i < 100; i++) b[i] = f((pure int*)a, i);
    int s = 0;
    for (int i = 0; i < 100; i++) s += b[i];
    printf(\"%d\\n\", s);
    return s % 256;
}
",
        "4950\n",
        2,
    ),
    // Listing 5 over two statements: the call reads a[i + 1], which the
    // next iteration's second statement overwrites. No assignment feeds
    // its own call, so Listing 5 passes it. The nest got an `omp parallel
    // for`, and a GCC build at four threads printed less than 5050.
    (
        "blind_spot/cross_statement.c",
        "#include <stdio.h>
pure int f(pure int* v, int i) { return v[i + 1]; }
int a[101];
int b[100];
int main() {
    for (int i = 0; i < 101; i++) a[i] = i;
    for (int i = 0; i < 100; i++) {
        b[i] = f((pure int*)a, i);
        a[i] = 0;
    }
    int s = 0;
    for (int i = 0; i < 100; i++) s += b[i];
    printf(\"%d\\n\", s);
    return s % 256;
}
",
        "5050\n",
        1,
    ),
    // Paper Listing 6: Listing 5 through an alias. Each iteration reads
    // the cell the one before it wrote (a prefix sum).
    (
        "blind_spot/listing6.c",
        "#include <stdio.h>
pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }
int array[100];
int main() {
    int* alias = array;
    for (int i = 0; i < 100; i++) array[i] = i;
    for (int i = 1; i < 100; i++)
        alias[i] = func((pure int*)array, i);
    printf(\"%d\\n\", array[99]);
    return array[99] % 256;
}
",
        "4950\n",
        1,
    ),
];

/// A user `omp parallel for` loop that is the braceless body of an `if`
/// or of a `for`: `(name, source, stdout under GCC 12, -O2, with or
/// without -fopenmp)`. While the header was a statement of its own, it
/// became the body, and the loop ran outside its `if` or `for`: every
/// engine printed `103 107` and `1 1`, and the emitted text stacked two
/// headers over the loop, which GCC rejects.
#[allow(dead_code)]
const BRACELESS_OMP: [(&str, &str, &str); 2] = [
    (
        "braceless_omp/if_body.c",
        "#include <stdio.h>
int a[100];
int main() {
    int c = 0;
    if (c)
#pragma omp parallel for
        for (int i = 0; i < 100; i++)
            a[i] = 1;
    int s = 0;
    for (int i = 0; i < 100; i++)
        s = s + a[i];
    printf(\"%d %d\\n\", 3 + s, 7 + s);
    return 0;
}
",
        "3 7\n",
    ),
    (
        "braceless_omp/for_body.c",
        "#include <stdio.h>
int a[100];
int main() {
    int n = 0;
    for (int t = 0; t < 3; t++)
#pragma omp parallel for
        for (int i = 0; i < 100; i++)
            a[i] = a[i] + 1;
    for (int i = 0; i < 100; i++)
        n = n + a[i];
    printf(\"%d %d\\n\", a[0], n / 100);
    return 0;
}
",
        "3 3\n",
    ),
];

/// One member of the generated blind-spot family: a pure call reads the
/// array `a` at `offset` from its iterator, and `a` is written either by
/// the nest before the call's (`producer`) or by the call's own nest,
/// after the call. The read reaches `a` through the call's argument,
/// through the global the callee reads, or through an alias the writes
/// go through.
fn blind_spot_member(seed: &mut u64, producer: bool, offset: i64, reach: &str) -> String {
    let mut next = |lo: u64, span: u64| {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (*seed >> 33) % span
    };
    let (n, k, c) = (next(200, 200), next(2, 7), next(1, 4));
    let call = match reach {
        "argument" | "alias" => "f((pure int*)a, i)",
        _ => "g(i)",
    };
    let w = if reach == "alias" { "p" } else { "a" };
    let nests = if producer {
        format!(
            "    for (int i = 1; i <= {n}; i++) {w}[i] = a[i] + i;\n\
             \x20   for (int i = 1; i <= {n}; i++) b[i] = {call};\n"
        )
    } else {
        format!(
            "    for (int i = 1; i <= {n}; i++) {{\n\
             \x20       b[i] = {call};\n\
             \x20       {w}[i] = b[i] % 1000 + i;\n\
             \x20   }}\n"
        )
    };
    format!(
        "int a[{len}];\n\
         int b[{len}];\n\
         pure int f(pure int* v, int i) {{ return v[i + {offset}] * {k} + 1; }}\n\
         pure int g(int i) {{ return a[i + {offset}] * {k} + 1; }}\n\
         int main() {{\n\
         \x20   int* p = a;\n\
         \x20   for (int i = 0; i < {len}; i++) a[i] = i * {c};\n\
         {nests}\
         \x20   int s = 0;\n\
         \x20   for (int i = 1; i <= {n}; i++) s = (s * 31 + b[i]) % 1000003;\n\
         \x20   printf(\"%d\\n\", s);\n\
         \x20   return s % 256;\n\
         }}\n",
        len = n + 2,
    )
}

/// The 18 members of the seeded blind-spot family, in a fixed order: a
/// producer nest and its consumer, or one nest that reads and then
/// writes; a pure call reading at offset −1, 0 or +1; the read reaching
/// its array through an argument, a global or an alias.
#[allow(dead_code)]
fn blind_spot_family() -> Vec<String> {
    let mut seed = 0x5eed_u64;
    let mut family = Vec::new();
    for producer in [true, false] {
        for offset in [-1i64, 0, 1] {
            for reach in ["argument", "global", "alias"] {
                family.push(blind_spot_member(&mut seed, producer, offset, reach));
            }
        }
    }
    family
}

/// Every value-level operator on the operand kinds C defines it for —
/// `int`, a `long` past 2⁴⁷, `double`, pointers into one array — one
/// result per line, and `printf`'s integer conversions, length
/// modifiers, flags, field widths and `%e`/`%g` (`fmt`).
#[allow(dead_code)]
const OPERATOR_TABLE: &str = r#"#include <stdio.h>
#include <stdlib.h>

int main() {
    int i = 7; int j = 3; int m = -7;
    long w = 562949953421317; long x = 281474976710665;
    double f = 2.5; double g = 0.5;
    int* a = (int*) malloc(8 * sizeof(int));
    for (int k = 0; k < 8; k++) a[k] = k * k;
    int* p = a + 2; int* e = a + 5;

    printf("int   %d %d %d %d %d\n", i + j, i - j, i * j, i / j, i % j);
    printf("neg   %d %d %d %d\n", m / j, m % j, m >> 1, -m);
    printf("bits  %d %d %d %d %d %d\n", i << j, i >> 1, i & j, i ^ j, i | j, ~i);
    printf("cmp   %d %d %d %d %d %d\n", i < j, i > j, i <= j, i >= j, i == j, i != j);
    printf("logic %d %d %d %d %d\n", i && j, i && 0, 0 || j, 0 || 0, !i);
    printf("wide  %ld %ld %ld %ld %ld\n", w + x, w - x, w * 3, w / x, w % x);
    printf("wbits %ld %ld %ld %ld %ld\n", w >> 3, x << 2, w & x, w ^ x, w | x);
    printf("wcmp  %d %d %d %d %d %d\n", w < x, w > x, w <= x, w >= x, w == x, w != x);
    printf("mixed %ld %ld %d %d\n", w + i, w * j, w > i, i == w);
    printf("float %f %f %f %f %f\n", f + g, f - g, f * g, f / g, -f);
    printf("fcmp  %d %d %d %d %d %d\n", f < g, f > g, f <= g, f >= g, f == g, f != g);
    printf("fint  %f %f %f %d %d\n", f + i, i - f, j / g, i > f, f && 0);
    printf("ptr   %d %d %d %d\n", (int)(p + 2 - a), (int)(2 + p - a), (int)(p - 1 - a), (int)(e - p));
    printf("pcmp  %d %d %d %d %d %d\n", p < e, p > e, p <= e, p >= e, p == e, p != e);
    printf("pself %d %d %d %d\n", p < p, p <= p, p == p, e > p);
    printf("deref %d %d %d\n", *p, *(e - 1), p[1]);
    printf("fmt   %x %d|%o|%X|%u|%hd %hhd %hu|%lx %lu %lo\n", 255, i, 8, 255, m, 70000, 200, m, w, -x, x);
    printf("fmt   [%5d] [%-4d|] [%g] [%05d] [%8.3f] [%g] [%s|%6s]\n", 42, i, 1e20, j, 3.14159, 0.0001, "ab", "cd");
    printf("fmt   [%+d] [% d] [%.3d] [%#x] [%-+6.1f|] [%.2s] [%*d] [%e] [%G] [%.3g]\n", i, m, j, 255, f, "hello", 4, m, w * 1.0, 1e-10, f / 3);
    i++; --j; w++; f++; p++; e--;
    printf("step  %d %d %ld %f %d %d\n", i, j, w, f, (int)(p - a), (int)(e - a));
    free(a);
    return (i + j) % 7;
}
"#;

/// A user `omp parallel for` nested in a sequential loop: the chain must
/// emit one pragma in front of the loop, with the user's clause, or GCC
/// stops at "for statement expected before '#pragma'".
#[allow(dead_code)]
const NESTED_OMP: &str = r#"#include <stdio.h>
#include <stdlib.h>

int main() {
    double* a = (double*) malloc(64 * sizeof(double));
    for (int i = 0; i < 64; i++) a[i] = i;
    for (int r = 0; r < 10; r++) {
#pragma omp parallel for schedule(dynamic,4)
        for (int i = 0; i < 64; i++) a[i] = a[i] + 1.0;
    }
    double acc = 0;
    for (int i = 0; i < 64; i++) acc = acc + a[i];
    printf("acc=%.1f\n", acc);
    return 0;
}
"#;

/// The pragma lines a user writes over a loop reach the text in a shape
/// GCC builds: `(name, source, stdout, a run of lines the default and the
/// `--no-poly` text both carry, right above a `for`)`. A comment on a
/// header line is no clause (`// rows` once printed as a clause named
/// `rows`), and a hoisted bound once went between `#pragma GCC ivdep` and
/// its `for` ("for, while or do statement expected").
#[allow(dead_code)]
const USER_PRAGMAS: [(&str, &str, &str, &[&str]); 3] = [
    (
        "user_pragmas/commented_header.c",
        "#include <stdio.h>
int a[64];
int main() {
#pragma omp parallel for /* schedule(dynamic, 4) */ schedule(static) // rows
    for (int i = 0; i < 64; i++)
        a[i] = 2 * i;
    int s = 0;
    for (int i = 0; i < 64; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        "4032\n",
        &["#pragma omp parallel for schedule(static)"],
    ),
    (
        "user_pragmas/unroll_over_a_carried_nest.c",
        "#include <stdio.h>
int a[256];
int main() {
    int n = 256;
    for (int i = 0; i < 64; i++)
        a[i] = i;
#pragma GCC ivdep
#pragma GCC unroll 4
    for (int i = 64; i < n; i++)
        a[i] = a[i - 64] + 1;
    printf(\"%d %d\\n\", a[n - 1], a[100]);
    return 0;
}
",
        "66 37\n",
        &["#pragma GCC ivdep", "#pragma GCC unroll 4"],
    ),
    // CI's `commented_omp.c`: both of the above in one function.
    (
        "user_pragmas/commented_omp.c",
        "#include <stdio.h>
int a[256];
int main() {
    int n = 256;
#pragma omp parallel for /* schedule(dynamic, 4) */ schedule(static) // rows
    for (int i = 0; i < 64; i++)
        a[i] = i;
#pragma GCC ivdep
#pragma GCC unroll 4
    for (int i = 64; i < n; i++)
        a[i] = a[i - 64] + 1;
    printf(\"%d %d\\n\", a[n - 1], a[100]);
    return 0;
}
",
        "66 37\n",
        &["#pragma GCC ivdep", "#pragma GCC unroll 4"],
    ),
];

/// A loop hint over a nest polycc would parallelize: `(name, hint)` over
/// `for (int i = 0; i < n; i++) a[i] = 2 * i;`. polycc leaves such a nest
/// as written; it once put `#pragma omp parallel for` between the hint
/// and its `for`, and GCC stopped at "for, while or do statement expected
/// before '#pragma'".
#[allow(dead_code)]
const LOOP_HINTS: [(&str, &str); 3] = [
    ("loop_hints/ivdep.c", "#pragma GCC ivdep"),
    ("loop_hints/unroll.c", "#pragma GCC unroll 4"),
    ("loop_hints/omp_simd.c", "#pragma omp simd"),
];

/// The program of a [`LOOP_HINTS`] row: it prints `4032`.
#[allow(dead_code)]
fn loop_hint_source(hint: &str) -> String {
    format!(
        "#include <stdio.h>\n\
         int a[64];\n\
         int main() {{\n\
         \x20   int n = 64;\n\
         {hint}\n\
         \x20   for (int i = 0; i < n; i++) a[i] = 2 * i;\n\
         \x20   int s = 0;\n\
         \x20   for (int i = 0; i < n; i++) s = s + a[i];\n\
         \x20   printf(\"%d\\n\", s);\n\
         \x20   return 0;\n\
         }}\n"
    )
}

/// A header with two `schedule` clauses: GCC stops at "too many
/// 'schedule' clauses", and so does cfront's parser
/// (`OmpDuplicateSchedule`).
#[allow(dead_code)]
const TWO_SCHEDULES: &str = "#include <stdio.h>
int a[64];
int main() {
#pragma omp parallel for schedule(dynamic, 4) schedule(static)
    for (int i = 0; i < 64; i++)
        a[i] = i;
    printf(\"%d\\n\", a[63]);
    return 0;
}
";

/// CI's futures smoke: a recursive `pure int fib`, whose two calls are a
/// spawn site (`fib=17711`).
#[allow(dead_code)]
const FIB_FUT: &str = "pure int fib(int n) {
    if (n < 2) return n;
    int a = fib(n - 1);
    int b = fib(n - 2);
    return a + b;
}
int main() { printf(\"fib=%d\\n\", fib(22)); return 0; }
";

/// CI's expression-spawn smoke: both calls in one expression.
#[allow(dead_code)]
const TSUM: &str = "pure int tsum(int n, int v) {
    if (n == 0) return (v % 13) + 1;
    return tsum(n - 1, v * 2 + 1) + tsum(n - 1, v * 2 + 2);
}
int main() { printf(\"tsum=%d\\n\", tsum(16, 1)); return 0; }
";

/// CI's memo-eviction smoke: 65 536 distinct keys from a dynamic
/// schedule are four shards' worth, so a two-thread run evicts.
#[allow(dead_code)]
const COLLATZ_EVICT: &str = "pure int collatz(int n) {
    int steps = 0;
    while (n != 1 && steps < 64) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps = steps + 1;
    }
    return steps;
}
int main() {
    int* out = (int*) malloc(65536 * sizeof(int));
#pragma omp parallel for schedule(dynamic,64)
    for (int i = 0; i < 65536; i++)
        out[i] = collatz(10000 + i);
    int acc = 0;
    for (int i = 0; i < 65536; i++) acc = (acc + out[i]) % 1000003;
    printf(\"acc=%d\\n\", acc);
    return acc % 251;
}
";

/// CI's polyhedral smoke: a user-parallel triple nest over row pointers
/// (`__pc_row` in the default text, none under `--no-poly`).
#[allow(dead_code)]
const POLY_MM: &str = "float **A, **Bt, **C;
int main() {
    A = (float**) malloc(32 * sizeof(float*));
    Bt = (float**) malloc(32 * sizeof(float*));
    C = (float**) malloc(32 * sizeof(float*));
    for (int i = 0; i < 32; ++i) {
        A[i] = (float*) malloc(32 * sizeof(float));
        Bt[i] = (float*) malloc(32 * sizeof(float));
        C[i] = (float*) malloc(32 * sizeof(float));
        for (int j = 0; j < 32; ++j) {
            A[i][j] = (float)(i + 2 * j + 1);
            Bt[i][j] = (float)(i - j + 3);
            C[i][j] = 0.0f;
        }
    }
#pragma omp parallel for
    for (int i = 0; i < 32; ++i)
        for (int j = 0; j < 32; ++j)
            for (int k = 0; k < 32; ++k)
                C[i][j] += A[i][k] * Bt[j][k];
    float checksum = 0.0f;
    for (int i = 0; i < 32; ++i)
        checksum += C[i][(i * 7) % 32];
    printf(\"checksum=%.1f\\n\", checksum);
    return 0;
}
";

/// CI's literal-loop smoke: two loops whose headers are not canonical
/// (an `i += 2` step, a `while`), so neither runs on `AffineHead`.
#[allow(dead_code)]
const POLY_LITERAL: &str = "int main() {
    int s = 0;
    for (int i = 0; i < 64; i += 2) s = s + i;
    int j = 0;
    while (j < 64) { s = s + j; j++; }
    printf(\"%d\\n\", s);
    return 0;
}
";

/// A spin, an allocation that is never freed and a recursion a million
/// deep: each stops at its resource limit on every engine.
#[allow(dead_code)]
const INFINITE_LOOP: &str = "int main() { int i = 0; while (1) { i = i + 1; } return i; }";

#[allow(dead_code)]
const ALLOC_BOMB: &str = "\
int main() {
    int acc = 0;
    for (int i = 0; i < 1000000; i++) {
        int* p = (int*) malloc(4096 * sizeof(int));
        p[0] = i;
        acc += p[0];
    }
    return acc % 100;
}";

#[allow(dead_code)]
const DEEP_RECURSION: &str = "\
int rec(int n) {
    if (n <= 0) return 0;
    return 1 + rec(n - 1);
}
int main() { return rec(1000000); }";

/// Programs whose engines disagree with GCC today: `(an `examples/` path
/// or a name, the program when it is not a checked-in example, GCC's
/// stdout and exit code at OMP_NUM_THREADS=1, the ROADMAP item whose
/// change removes the disagreement, what every engine shows today)`.
#[allow(dead_code)]
type Divergence = (&'static str, Option<&'static str>, (&'static str, i64), &'static str, (&'static str, i64));

#[allow(dead_code)]
const KNOWN_DIVERGENCES: [Divergence; 4] = [
    // `sum = sum + a[i]` under a header: OpenMP makes `sum` shared, and
    // every engine runs each iteration on a copy of the frame.
    ("analysis/reduction.c", None, ("", 224), "O", ("", 0)),
    // Wide values stored into an `int*`: GCC's `int` is 32 bits, every
    // engine's 64.
    (
        "wide_heap.c",
        None,
        ("wide[0]=0 wide[255]=-255 mix=-452919424\noffsets=32640 negative_zeros=256\n", 10),
        "T",
        (
            "wide[0]=-18014398509481984 wide[255]=17873661021126401 mix=8178864779180441472\n\
             offsets=32640 negative_zeros=256\n",
            10,
        ),
    ),
    // A `reduction` clause is parsed and ignored.
    (
        "divergence/reduction_clause.c",
        Some(
            "#include <stdio.h>
int b[1000];
int main() {
    int s = 0;
    for (int i = 0; i < 1000; i++) b[i] = 2 * i + 1;
#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 1000; i++)
        s += b[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        ),
        ("1000000\n", 0),
        "O",
        ("0\n", 0),
    ),
    // One iteration writes a shared scalar.
    (
        "divergence/last_match.c",
        Some(
            "#include <stdio.h>
int b[100];
int main() {
    int last = -1;
    for (int i = 0; i < 100; i++) b[i] = i;
#pragma omp parallel for
    for (int i = 0; i < 100; i++)
        if (b[i] == 42) last = i;
    printf(\"%d\\n\", last);
    return 0;
}
",
        ),
        ("42\n", 0),
        "O",
        ("-1\n", 0),
    ),
];

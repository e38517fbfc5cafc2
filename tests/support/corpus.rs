// Shared through `include!` by the tests that walk the checked-in
// programs (`analysis_golden`, `chain_integration`, `effects_golden`), by
// those that run the blind-spot programs (`gcc_oracle`,
// `poly_differential`, `deps_golden`) and the braceless-body ones
// (`gcc_oracle`, `poly_differential`, `chain_integration`), and by those
// that read the pragmas of emitted text (`chain_integration`,
// `gcc_oracle`).

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

/// Every `#pragma omp` line of emitted text heads a loop: the next line
/// is a `for`, never another pragma (GCC stops at "for statement expected
/// before '#pragma'"), and a `for` with constant bounds has at least two
/// iterations (a parallel loop of one runs on one thread).
#[allow(dead_code)]
fn assert_omp_pragmas_head_loops(what: &str, text: &str) {
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if !line.starts_with("#pragma omp") {
            continue;
        }
        let next = lines.next().unwrap_or_default();
        assert!(
            next.starts_with("for ("),
            "{what}: `{line}` is followed by `{next}`:\n{text}"
        );
        if let Some(trips) = constant_trip_count(next) {
            assert!(
                trips >= 2,
                "{what}: `{line}` heads a loop of {trips} iteration(s), `{next}`:\n{text}"
            );
        }
    }
}

/// The trip count of `for (T i = lo; i < hi; i++)` (or `<=`) when `lo`
/// and `hi` are integer literals.
#[allow(dead_code)]
fn constant_trip_count(header: &str) -> Option<i64> {
    let mut parts = header.strip_prefix("for (")?.splitn(3, ';');
    let lo: i64 = parts.next()?.rsplit_once('=')?.1.trim().parse().ok()?;
    let cond = parts.next()?;
    let (hi, inclusive) = match cond.split_once("<=") {
        Some((_, hi)) => (hi, 1),
        None => (cond.split_once('<')?.1, 0),
    };
    let hi: i64 = hi.trim().parse().ok()?;
    Some(hi - lo + inclusive)
}

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

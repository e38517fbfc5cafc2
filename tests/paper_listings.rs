//! Conformance suite: every listing of the paper (Sect. 3) as an
//! executable specification of the `pure` extension, run through the full
//! chain. Listing numbers refer to the IJPP 2020 version.

use cfront::diag::Code;
use pure_c::prelude::*;

fn accepts(src: &str) {
    let r = run_pc_cc(src, PcCcOptions::default());
    assert!(
        r.is_ok(),
        "expected ACCEPT:\n{src}\n{:?}",
        r.err().map(|d| d.render_all(src))
    );
}

fn rejects_with(src: &str, code: Code) {
    let r = run_pc_cc(src, PcCcOptions::default());
    match r {
        Ok(_) => panic!("expected REJECT ({code:?}):\n{src}"),
        Err(d) => assert!(
            d.has_code(code),
            "wrong code, wanted {code:?}:\n{}",
            d.render_all(src)
        ),
    }
}

// ---------------------------------------------------------------------------
// Listing 1 — declaration syntax
// ---------------------------------------------------------------------------

#[test]
fn listing1_declaration_parses_with_both_pure_positions() {
    let r = parse("pure int* func(pure int* p1, int p2);");
    assert!(!r.diags.has_errors());
    let f = r.unit.find_function("func").unwrap();
    assert!(f.is_pure, "first pure labels the function");
    assert!(f.params[0].ty.pure_qual, "second pure labels the pointer");
    assert!(!f.params[1].ty.pure_qual);
}

// ---------------------------------------------------------------------------
// Listing 2 — valid and invalid operations in pure functions
// ---------------------------------------------------------------------------

const LISTING2_VALID: &str = "
int* globalPtr;
void func1();
pure int* func2(pure int* p1, int p2) {
    int a = p2;
    int b = a + 42;
    int* c = (int*) malloc(3 * sizeof(int));
    pure int* ptr = p1;
    pure int* extPtr2;
    extPtr2 = (pure int*) globalPtr;
    pure int* extPtr3;
    extPtr3 = (pure int*) func2(p1, p2);
    return c;
}
int main() { return 0; }
";

#[test]
fn listing2_valid_operations_accepted() {
    accepts(LISTING2_VALID);
}

#[test]
fn listing2_line11_external_ptr_to_plain_local_rejected() {
    rejects_with(
        "int* globalPtr;
pure int f(int x) { int* extPtr1 = globalPtr; return x; }
int main() { return 0; }",
        Code::PureAssignsExternalPtrWithoutCast,
    );
}

#[test]
fn listing2_line14_impure_call_rejected() {
    rejects_with(
        "void func1();
pure int f(int x) { func1(); return x; }
int main() { return 0; }",
        Code::PureCallsImpure,
    );
}

#[test]
fn listing2_self_call_allowed_via_hashset() {
    // func2 calls itself — the hashset registration makes this legal.
    accepts(
        "pure int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
int main() { return fact(5); }",
    );
}

// ---------------------------------------------------------------------------
// Listing 3 — external pointer assignment discipline
// ---------------------------------------------------------------------------

#[test]
fn listing3_pure_cast_binding_accepted() {
    accepts(
        "float* external;
pure float f(int i) {
    pure float* internal = (pure float*) external;
    return internal[i];
}
int main() { return 0; }",
    );
}

// ---------------------------------------------------------------------------
// Listing 4 — valid and invalid assignments
// ---------------------------------------------------------------------------

#[test]
fn listing4_local_struct_write_valid() {
    accepts(
        "struct datatype { int storage; };
pure int f(int data) {
    struct datatype intStruct;
    intStruct.storage = data;
    return intStruct.storage;
}
int main() { return 0; }",
    );
}

#[test]
fn listing4_plain_reassignment_rejected() {
    rejects_with(
        "int* extPtr;
pure void f() {
    pure int* intPtr = (pure int*) extPtr;
    intPtr = extPtr;
}
int main() { return 0; }",
        Code::PurePointerReassigned,
    );
}

// ---------------------------------------------------------------------------
// Listing 5 / Listing 6 — caller-side safety and the model's assumptions
// ---------------------------------------------------------------------------

const LISTING5: &str = "
pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }
int main() {
    int array[100];
    for (int i = 1; i < 100; i++)
        array[i] = func((pure int*)array, i);
    return 0;
}
";

#[test]
fn listing5_feedback_rejected() {
    rejects_with(LISTING5, Code::PureParamWrittenInLoop);
}

const LISTING6: &str = "
pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }
int main() {
    int array[100];
    int* alias = array;
    array[0] = 1;
    for (int i = 1; i < 100; i++)
        alias[i] = func((pure int*)array, i);
    return array[99];
}
";

/// The alias still deceives Listing 5's per-assignment rule — the program
/// compiles, as in the paper — but not the check of what the model
/// assumes: the nest is no SCoP, so the chain emits no `omp parallel for`
/// for it. Put there by hand, the pragma meets the dynamic checker, which
/// refuses to run the loop in parallel.
#[test]
fn listing6_alias_deceives_static_check_but_dynamic_check_catches_it() {
    let out = run_pc_cc(LISTING6, PcCcOptions::default()).expect("accepted");
    assert_eq!(out.scops_marked, 0, "the aliasing nest is not a SCoP");
    let chain = compile(LISTING6, ChainOptions::default()).expect("chain");
    assert!(!chain.text.contains("omp parallel for"), "{}", chain.text);

    let user_parallel = LISTING6.replace(
        "    for (int i = 1;",
        "#pragma omp parallel for\n    for (int i = 1;",
    );
    let err = purec::compile_and_run(
        &user_parallel,
        ChainOptions::default(),
        InterpOptions {
            threads: 4,
            race_check: true,
            ..Default::default()
        },
    );
    match err {
        Err(purec::ChainError::Runtime(e)) => {
            assert!(e.message.contains("race"), "{e}");
        }
        other => panic!("expected a detected race, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Listings 7/8 — the matmul transformation
// ---------------------------------------------------------------------------

#[test]
fn listing7_to_listing8_shape() {
    let src = "
float **A, **Bt, **C;
pure float mult(float a, float b) {
    return a * b;
}
pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}
int main(int argc, char** argv) {
    for (int i = 0; i < 64; ++i)
        for (int j = 0; j < 64; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 64);
    return 0;
}
";
    let out = compile(src, ChainOptions::default()).expect("chain");
    // Listing 8's signature shapes.
    assert!(
        out.text.contains("float mult(float a, float b)"),
        "{}",
        out.text
    );
    assert!(
        out.text
            .contains("float dot(const float* a, const float* b, int size)"),
        "{}",
        out.text
    );
    // Parallel pragma on the outer loop, iterators renamed t1/t2; the
    // inner one is private by its for-init declaration (Listing 8 says
    // `private(t2)` because PluTo declares `int t1, t2;` up front).
    assert!(
        out.text
            .contains("#pragma omp parallel for\n    for (int t1 = 0; t1 <= 63; t1++)"),
        "{}",
        out.text
    );
    assert!(
        out.text.contains("for (int t2 = 0; t2 <= 63; t2++)"),
        "{}",
        out.text
    );
    assert!(!out.text.contains("private("), "{}", out.text);
    // The store keeps Listing 8's call, with the invariant row pointer
    // strength-reduced out of the inner loop by the backend.
    assert!(
        out.text.contains("float* __pc_row1 = C[t1];"),
        "{}",
        out.text
    );
    assert!(
        out.text
            .contains("__pc_row1[t2] = dot((const float*)A[t1], (const float*)Bt[t2], 64);"),
        "{}",
        out.text
    );
    // No extension syntax leaks into the final program.
    assert!(!out.text.contains("pure"));
    assert!(!out.text.contains("#pragma scop"));
}

// ---------------------------------------------------------------------------
// Sect. 3.2 — free() discipline and malloc admission
// ---------------------------------------------------------------------------

#[test]
fn free_of_non_local_memory_rejected() {
    rejects_with(
        "pure void f(int* p) { free(p); }\nint main() { return 0; }",
        Code::PureFreesForeign,
    );
    rejects_with(
        "int* g;\npure void f() { free(g); }\nint main() { return 0; }",
        Code::PureFreesForeign,
    );
}

#[test]
fn free_of_locally_malloced_memory_accepted_and_runs() {
    let src = "
pure int sum_squares(int n) {
    int* buf = (int*) malloc(n * sizeof(int));
    for (int i = 0; i < n; i++) buf[i] = i * i;
    int total = 0;
    for (int i = 0; i < n; i++) total += buf[i];
    free(buf);
    return total;
}
int main() { return sum_squares(10); }
";
    accepts(src);
    let (_, run) = purec::compile_and_run(src, ChainOptions::default(), InterpOptions::default())
        .expect("runs");
    assert_eq!(run.exit_code, 285);
}

#[test]
fn removing_pure_keyword_does_not_change_results() {
    // Sect. 3.2: "Removing it has no effect on the results of a program
    // other than that the program might not be as parallelizable."
    let with_pure = "
pure int twice(int x) { return 2 * x; }
int main() {
    int* a = (int*) malloc(32 * sizeof(int));
    for (int i = 0; i < 32; i++) a[i] = twice(i);
    int acc = 0;
    for (int i = 0; i < 32; i++) acc += a[i];
    return acc % 128;
}
";
    let without_pure = with_pure.replace("pure ", "");
    let (out_with, run_with) =
        purec::compile_and_run(with_pure, ChainOptions::default(), InterpOptions::default())
            .expect("with pure");
    let (out_without, run_without) = purec::compile_and_run(
        &without_pure,
        ChainOptions::default(),
        InterpOptions::default(),
    )
    .expect("without pure");
    assert_eq!(run_with.exit_code, run_without.exit_code);
    // With pure: loops parallelized; without: fewer or none.
    assert!(out_with.regions_parallelized >= out_without.regions_parallelized);
}

// ---------------------------------------------------------------------------
// Three programs the verifier used to accept: each was verified pure, its
// loop was parallelized, and runs disagreed with --race-check passing.
// ---------------------------------------------------------------------------

/// The chain must refuse the program with `code`, so no `omp` pragma for
/// its loop can reach the emitted text.
fn chain_rejects_with(src: &str, code: Code) {
    rejects_with(src, code);
    match compile(src, ChainOptions::default()) {
        Ok(out) => panic!("expected a compile error, got:\n{}", out.text),
        Err(d) => {
            assert!(d.has_code(code), "{}", d.render_all(src));
            let at = d.items().iter().find(|i| i.code == code).expect("has code");
            assert!(!at.span.is_empty(), "{code:?} must be spanned");
        }
    }
}

#[test]
fn block_scoped_shadow_of_a_global_ends_with_its_block() {
    chain_rejects_with(
        "int g;
pure int f(int n) { { int g = 1; n = n + g; } g = g + n; return g; }
int main() {
    int* out = (int*) malloc(64 * sizeof(int));
    for (int i = 0; i < 64; i++) out[i] = f(i);
    return out[63];
}",
        Code::PureGlobalWrite,
    );
    // Shadowing itself stays legal: inside its block the local wins.
    accepts(
        "int g;
pure int f(int n) { { int g = 1; g = g + n; n = g; } return n + g; }
int main() { return f(1); }",
    );
}

#[test]
fn static_local_in_a_pure_function_rejected() {
    chain_rejects_with(
        "pure int next(int x) { static int n = 0; n = n + 1; return x + n; }
int main() {
    int out[3];
    for (int i = 0; i < 3; i++) out[i] = next(1);
    return out[2];
}",
        Code::PureStaticLocal,
    );
}

#[test]
fn listing5_through_a_global_rejected() {
    chain_rejects_with(
        "int g[100];
pure int f(int i) { return g[i - 1] + 1; }
int main() {
    g[0] = 0;
    for (int i = 1; i < 100; i++) g[i] = f(i);
    return g[99];
}",
        Code::PureParamWrittenInLoop,
    );
    // Through a verified callee, too: the reads are closed over calls.
    chain_rejects_with(
        "int g[100];
pure int peek(int i) { return g[i - 1]; }
pure int f(int i) { return peek(i) + 1; }
int main() {
    g[0] = 0;
    for (int i = 1; i < 100; i++) g[i] = f(i);
    return g[99];
}",
        Code::PureParamWrittenInLoop,
    );
}

/// Listing 5 does not depend on braces: a nest hanging bare off an `if`
/// is flagged like any other, so its feedback is the same error, at the
/// same line and column, as in its braced twin.
#[test]
fn listing5_in_a_bare_body_is_the_error_of_its_braced_twin() {
    let bare = "\
pure int prev(pure int* a, int i) { return a[i - 1]; }
int main(int c) {
    int a[16];
    if (c)
        for (int i = 1; i < 16; i++)
            a[i] = prev((pure int*)a, i);
    return a[15];
}";
    let braced = bare
        .replace("if (c)\n", "if (c) {\n")
        .replace("    return a[15];", "    }\n    return a[15];");
    let at = |src: &str| {
        let d = compile(src, ChainOptions::default()).expect_err("Listing 5 is rejected");
        let item = d
            .items()
            .iter()
            .find(|i| i.code == Code::PureParamWrittenInLoop)
            .unwrap_or_else(|| panic!("{}", d.render_all(src)));
        cfront::span::LineMap::new(src).line_col(item.span.start)
    };
    let (b, c) = (at(bare), at(&braced));
    assert_eq!((b.line, b.col), (6, 13));
    assert_eq!((b.line, b.col), (c.line, c.col));
}

/// A SCoP is what PC-CC verified, not what the source says: a
/// user-written `#pragma scop` around a loop whose call writes a global
/// is an ordinary pragma. It is printed as written, and the loop is
/// neither transformed nor parallelized.
#[test]
fn a_user_scop_pragma_around_an_impure_call_steers_nothing() {
    let src = "\
int counter;
int bump(int x) { counter = counter + x; return counter; }
int main() {
    int a[8];
#pragma scop
    for (int i = 0; i < 8; i++)
        a[i] = bump(i);
#pragma endscop
    printf(\"%d %d\\n\", a[3], counter);
    return 0;
}";
    let out = compile(src, ChainOptions::default()).expect("chain");
    assert!(!out.text.contains("omp parallel for"), "{}", out.text);
    assert_eq!((out.scops_marked, out.regions_transformed), (0, 0));
    assert!(out
        .text
        .contains("#pragma scop\n    for (int i = 0; i < 8; i++)"));
    let run = out.program().run(InterpOptions::default()).expect("runs");
    assert_eq!(run.output, "6 28\n");
}

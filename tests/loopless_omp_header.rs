//! An OpenMP loop header heads the `for` directly under it, as GCC
//! requires. Three programs put `#pragma omp parallel for` where no `for`
//! follows it: above an ordinary statement, as the last statement of a
//! block, and stacked above `#pragma omp simd` and its loop. For each, the
//! run on the three engines (the chain's default text and `--no-poly`),
//! `purec check`'s diagnostics and the printed text are pinned. A header
//! with no loop under it is a statement of its own: it launches no region
//! and prints where the user wrote it. The stacked one follows GCC's rule
//! (GCC rejects that file): `#pragma omp simd` stands between the header
//! and the loop, so the `--no-poly` build runs the loop sequentially
//! (while a header paired with the first `for` after a run of pragmas,
//! that build launched a region), and polycc keeps a nest under a loop
//! pragma as written, so the default build launches none either (it once
//! put a header of its own between `#pragma omp simd` and the loop).

use pure_c::prelude::*;
use purec::check::{check_source, CheckOptions};

struct Pinned {
    name: &'static str,
    source: &'static str,
    stdout: &'static str,
    /// Regions launched (forked or inline) by the default and the
    /// `--no-poly` build, the same on every engine.
    regions: (u64, u64),
    /// `main` as the default and the `--no-poly` build print it.
    text: (&'static str, &'static str),
}

const PROGRAMS: [Pinned; 3] = [
    Pinned {
        name: "above_a_statement",
        source: "#include <stdio.h>
int a[8];
int main() {
    int s = 0;
#pragma omp parallel for
    s = s + 1;
    for (int i = 0; i < 8; i++)
        a[i] = i;
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        stdout: "29\n",
        regions: (1, 0),
        text: (
            "int main(void) {
    int s = 0;
#pragma omp parallel for
    s = s + 1;
#pragma omp parallel for
    for (int t1 = 0; t1 <= 7; t1++)
        a[t1] = t1;
    for (int t1 = 0; t1 <= 7; t1++)
        s = s + a[t1];
    printf(\"%d\\n\", s);
    return 0;
}
",
            "int main(void) {
    int s = 0;
#pragma omp parallel for
    s = s + 1;
    for (int i = 0; i < 8; i++)
        a[i] = i;
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        ),
    },
    Pinned {
        name: "last_in_a_block",
        source: "#include <stdio.h>
int a[8];
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) {
        a[i] = i;
#pragma omp parallel for
    }
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        stdout: "28\n",
        regions: (0, 0),
        text: (
            "int main(void) {
    int s = 0;
    for (int i = 0; i < 8; i++)
    {
        a[i] = i;
#pragma omp parallel for
    }
    for (int t1 = 0; t1 <= 7; t1++)
        s = s + a[t1];
    printf(\"%d\\n\", s);
    return 0;
}
",
            "int main(void) {
    int s = 0;
    for (int i = 0; i < 8; i++)
    {
        a[i] = i;
#pragma omp parallel for
    }
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        ),
    },
    Pinned {
        name: "stacked_above_simd",
        source: "#include <stdio.h>
int a[8];
int main() {
    int s = 0;
#pragma omp parallel for
#pragma omp simd
    for (int i = 0; i < 8; i++)
        a[i] = i;
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        stdout: "28\n",
        regions: (0, 0),
        text: (
            "int main(void) {
    int s = 0;
#pragma omp parallel for
#pragma omp simd
    for (int i = 0; i < 8; i++)
        a[i] = i;
    for (int t1 = 0; t1 <= 7; t1++)
        s = s + a[t1];
    printf(\"%d\\n\", s);
    return 0;
}
",
            "int main(void) {
    int s = 0;
#pragma omp parallel for
#pragma omp simd
    for (int i = 0; i < 8; i++)
        a[i] = i;
    for (int i = 0; i < 8; i++)
        s = s + a[i];
    printf(\"%d\\n\", s);
    return 0;
}
",
        ),
    },
];

/// The printed text from `int main` on.
fn main_of(text: &str) -> &str {
    &text[text.find("int main").expect("a main")..]
}

#[test]
fn a_header_with_no_loop_under_it_runs_and_prints_as_pinned() {
    let no_poly = ChainOptions {
        no_poly: true,
        ..Default::default()
    };
    for p in &PROGRAMS {
        let check = check_source(p.source, &CheckOptions::default());
        assert_eq!(check.render(), "", "{}: purec check", p.name);
        assert!(!check.has_errors(), "{}", p.name);
        let builds = [
            ("default", ChainOptions::default(), p.regions.0, p.text.0),
            ("no-poly", no_poly.clone(), p.regions.1, p.text.1),
        ];
        for (build, opts, regions, text) in builds {
            let what = format!("{}, {build}", p.name);
            let chain = compile(p.source, opts)
                .unwrap_or_else(|d| panic!("{what}: {}", d.render_all(p.source)));
            assert_eq!(main_of(&chain.text), text, "{what}: text");
            let prog = chain.program();
            for threads in [1, 2] {
                let opts = InterpOptions {
                    threads,
                    ..Default::default()
                };
                for (engine, run) in [
                    ("vm", prog.run(opts)),
                    ("resolved", prog.run_resolved(opts)),
                    ("legacy", prog.run_legacy(opts)),
                ] {
                    let cell = format!("{what}, {engine}, {threads} threads");
                    let run = run.unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(
                        (run.output.as_str(), run.exit_code),
                        (p.stdout, 0),
                        "{cell}"
                    );
                    let c = run.counters;
                    assert_eq!(c.regions_forked + c.regions_inline, regions, "{cell}");
                }
            }
        }
    }
}

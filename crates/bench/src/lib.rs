//! # bench-harness — regenerates every table/figure of the paper
//!
//! One binary per figure (`fig2_tiling`, `fig03_matmul_gcc`, …,
//! `fig11_lama_speedup`) plus `all_figures` which emits everything at once
//! (and `--json` for machine-readable output). Criterion benches cover the
//! pipeline stages, the polyhedral engine, the omprt runtime, the figure
//! model, and the ablations (`benches/ablations.rs`).

use apps::Figure;

/// Print a figure to stdout, optionally as JSON.
pub fn emit(fig: &Figure, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(fig).expect("serializable")
        );
    } else {
        println!("{}", fig.render());
    }
}

/// Shared `--json` flag handling for the fig binaries.
pub fn json_flag() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Fig. 2 demonstration: the invalid-vs-valid tiling story on the paper's
/// stencil, produced by the real dependence analyzer and scheduler.
pub fn fig2_report() -> String {
    use cfront::ast::{Stmt, StmtKind};
    use cfront::parser::parse;
    use polyhedral::{analyze, compute_schedule, extract_scop, generate, CodegenOptions};

    let src = "\
void kernel(float** a) {
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++)
            a[i][j] = a[i - 1][j] + a[i - 1][j + 1];
}
";
    let unit = parse(src).unit;
    let mut found: Option<Stmt> = None;
    for f in unit.functions() {
        if let Some(body) = &f.body {
            for s in &body.stmts {
                s.walk(&mut |st| {
                    if found.is_none() && matches!(st.kind, StmtKind::For { .. }) {
                        found = Some(st.clone());
                    }
                });
            }
        }
    }
    let scop = extract_scop(&found.expect("loop")).expect("scop");
    let deps = polyhedral::analyze(&scop).deps;
    let transform = compute_schedule(&scop, &deps);
    let _ = analyze;

    let mut out = String::new();
    out.push_str("== fig2 — iteration points and dependency structure ==\n");
    out.push_str(&format!("kernel:\n{src}\n"));
    out.push_str("dependences (distance vectors):\n");
    for d in &deps {
        out.push_str(&format!("  {d}\n"));
    }
    out.push_str(
        "\nrectangular tiling of the ORIGINAL space: INVALID \
         (distance (1,-1) has a negative component — backward arrow in Fig. 2 left)\n",
    );
    out.push_str(&format!(
        "schedule found: hyperplanes {:?} (skewed: {}), permutable band {} of {}\n",
        transform.matrix,
        transform.skewed,
        transform.band,
        transform.depth()
    ));
    out.push_str(
        "after the shear t2 = i + j all transformed distances are non-negative \
         → rectangular tiling VALID (Fig. 2 right)\n\n",
    );
    let gen = generate(
        &scop,
        &transform,
        CodegenOptions {
            tile: Some(32),
            sica: false,
            omp: true,
        },
    )
    .expect("codegen");
    out.push_str("generated tiled code:\n");
    for s in &gen.stmts {
        out.push_str(&cfront::print_stmt(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_report_tells_the_skewing_story() {
        let r = fig2_report();
        assert!(r.contains("INVALID"));
        assert!(r.contains("VALID"));
        assert!(r.contains("skewed: true"));
        assert!(r.contains("[1, 1]"), "{r}");
        assert!(r.contains("t1t"), "tiled code expected:\n{r}");
    }
}

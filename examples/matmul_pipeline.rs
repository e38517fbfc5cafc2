//! The paper's flagship example (Listings 7 → 8): matrix–matrix
//! multiplication with the `dot` kernel extracted into a pure function —
//! unparallelizable by a plain polyhedral tool, parallelized by the chain.
//!
//! ```sh
//! cargo run --example matmul_pipeline
//! ```

use pure_c::prelude::*;

fn main() {
    let n = 24;
    let source = apps::matmul::c_source(n);

    // Stage view: after PC-CC the loops are marked and calls substituted.
    let marked = run_pc_cc(&source, PcCcOptions::default()).expect("PC-CC");
    println!(
        "PC-CC: verified pure {:?}, {} scop(s), {} call(s) substituted",
        marked.declared_pure,
        marked.scops_marked,
        marked.subst.len()
    );

    // Full chain (what Listing 8 shows).
    let out = compile(&source, ChainOptions::default()).expect("chain");
    println!("\n--- Listing-8-style output (excerpt) ---");
    for line in out
        .text
        .lines()
        .filter(|l| l.contains("omp parallel") || l.contains("dot(") || l.contains("for (int t"))
    {
        println!("{line}");
    }

    // Execute at three thread counts; checksum must match the native Rust
    // reference implementation bit for bit.
    let expected = format!("checksum={:.1}\n", apps::matmul::c_source_checksum(n));
    for threads in [1, 4, 8] {
        let (_, run) = compile_and_run(
            &source,
            ChainOptions::default(),
            InterpOptions {
                threads,
                ..Default::default()
            },
        )
        .expect("runs");
        assert_eq!(run.output, expected, "threads={threads}");
        println!(
            "threads={threads}: {} ({} flops interpreted)",
            run.output.trim(),
            run.counters.flops
        );
    }

    // `--tile 32`: every band with a dimension longer than 32 is tiled —
    // here only dot's loop over `size`, whose trip count is symbolic.
    let tiled = compile(
        &source,
        ChainOptions {
            polycc: PolyccOptions {
                tile: Some(32),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("tiled chain");
    println!(
        "\n--tile 32: {} region(s) tiled, {} omp parallel for",
        tiled.regions_tiled,
        tiled.text.matches("#pragma omp parallel for").count()
    );
}

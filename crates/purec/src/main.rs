//! `purec` — the command-line driver of the extended compiler chain.
//!
//! ```text
//! purec <file.c> [--tile N] [--no-poly] [--no-omp]
//!       [--dump-schedule] [--run [--threads N]]
//!       [--engine vm|resolved] [--no-futures]
//!       [--no-memo] [--no-opt] [--dump-bytecode]
//!       [--fuel N] [--max-memory BYTES] [--max-depth N]
//!       [--race-check] [--race-check-cap N] [--infer-pure]
//!       [--emit-marked] [--no-alloc-pure] [--stats]
//!       [--trace FILE] [--stats-json FILE]
//! purec check <file.c> [--json] [--infer-pure] [--no-alloc-pure]
//! purec trace-check <trace.json>
//! purec --demo <matmul|heat|satellite|lama> [same flags]
//! ```
//!
//! Without `--run` the transformed standard-C text is printed to stdout
//! (the source-to-source behaviour of the paper's tool). With `--run` the
//! program is executed on the built-in interpreter and omprt runtime.
//!
//! Resource limits (all unlimited by default) turn runaway executions
//! into structured traps with distinct exit codes: fuel exhaustion → 97,
//! memory limit → 98, call-depth limit → 99.
//!
//! `--no-memo` turns the pure-call memo cache off, so recursive pure
//! functions do their full work — the configuration in which pure-call
//! futures (and `--no-futures`, their A/B) can be timed from the command
//! line; with the cache on, a memoized `fib` finishes before it spawns.
//!
//! Observability: `--trace FILE` records compile phases, parallel
//! regions, future lifecycles, memo/fuel/trap events into a Chrome
//! trace-event JSON file (open in `chrome://tracing` or Perfetto;
//! validate with `purec trace-check`). `--stats-json FILE` dumps the
//! full counter set plus latency histograms and gauges as one JSON
//! object.

use purec::chain::{compile, ChainOptions, ChainOutput};
use purec_core::{PcCcOptions, PureSet};

/// The chain half of a `--stats` line (compile-only and `--run` alike).
fn chain_stats_line(out: &ChainOutput) -> String {
    let mut line = format!("verified pure: {:?}", out.declared_pure);
    for (_, label, value) in out.stats() {
        line.push_str(&format!("; {label} {value}"));
    }
    line
}

fn usage() -> ! {
    eprintln!(
        "usage: purec <file.c> [options]\n\
         \x20      purec check <file.c> [--json] [--infer-pure] [--no-alloc-pure]\n\
         \x20      purec trace-check <trace.json>\n\
         \x20      purec --demo <matmul|heat|satellite|lama> [options]\n\
         check mode (static race + purity analyzer, no compilation):\n\
         \x20 --json           one JSON diagnostic object per line\n\
         \x20 --infer-pure     also report functions that could be declared pure\n\
         trace-check mode: structurally validate a Chrome trace-event file\n\
         \x20 (matched B/E pairs, per-thread monotonic timestamps)\n\
         options:\n\
         \x20 --tile N         tile each full band with edge N, 2 <= N <= 65536\n\
         \x20 --no-poly        skip the polyhedral stage; every loop nest runs\n\
         \x20                  literally (A/B comparison against the fast path)\n\
         \x20 --dump-schedule  print one line per region outcome (schedule\n\
         \x20                  matrix, band, parallel/tiled/skewed) to stderr\n\
         \x20 --no-omp         suppress OpenMP pragmas (transform only)\n\
         \x20 --no-alloc-pure  drop malloc/free from the pure registry (ablation A1)\n\
         \x20 --emit-marked    stop after PC-CC and print the marked source\n\
         \x20 --run            execute the result on the interpreter\n\
         \x20 --engine E       execution tier for --run: vm (bytecode VM, default)\n\
         \x20                  or resolved (resolved-IR oracle engine)\n\
         \x20 --threads N      omprt threads for --run (default 1)\n\
         \x20 --no-futures     run independent pure calls inline instead of as\n\
         \x20                  futures on the worker pool (A/B comparison)\n\
         \x20 --no-memo        run without the pure-call memo cache: every pure\n\
         \x20                  call executes (what futures A/B timings need)\n\
         \x20 --no-opt         run the raw bytecode, skipping the tier-3.5\n\
         \x20                  optimizer (fold/fusion A/B comparison)\n\
         \x20 --dump-bytecode  print the bytecode that will run (post-optimizer\n\
         \x20                  unless --no-opt) to stderr\n\
         \x20 --trace FILE     record a Chrome trace-event JSON file for the\n\
         \x20                  compile + run (phases, parallel regions, future\n\
         \x20                  lifecycles, memo/fuel/trap events)\n\
         \x20 --stats-json FILE  dump run counters, latency histograms and\n\
         \x20                  sampled gauges as one JSON object\n\
         \x20 --race-check     run a parallel loop's first iterations one at a time,\n\
         \x20                  checking they touch disjoint memory (loops the static\n\
         \x20                  analyzer proves independent skip the check; proven-\n\
         \x20                  racy loops are errors)\n\
         \x20 --race-check-cap N  check at most N iterations per loop\n\
         \x20                  (0 = unlimited; default 65536)\n\
         \x20 --infer-pure     treat unannotated functions that pass the PC-CC\n\
         \x20                  rules as verified (widens memo/spawn eligibility)\n\
         \x20 --fuel N         cap executed statements/instructions at N; a run\n\
         \x20                  that exhausts its fuel traps and exits 97\n\
         \x20 --max-memory B   cap live interpreter memory at B bytes (free gives\n\
         \x20                  its bytes back); exceeding the cap traps and exits 98\n\
         \x20 --max-depth N    cap the call stack at N frames; exceeding the\n\
         \x20                  cap traps and exits 99 (N above what the native\n\
         \x20                  stack holds is refused, exit 2)\n\
         \x20 --stats          print chain statistics to stderr"
    );
    std::process::exit(2);
}

/// `purec check <file.c> [--json] [--infer-pure] [--no-alloc-pure]`
fn check_mode(args: &[String]) -> ! {
    let mut source_path: Option<String> = None;
    let mut json = false;
    let mut infer_pure = false;
    let mut alloc_pure = true;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--infer-pure" => infer_pure = true,
            "--no-alloc-pure" => alloc_pure = false,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && source_path.is_none() => {
                source_path = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    let path = source_path.unwrap_or_else(|| usage());
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("purec: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let opts = purec::CheckOptions {
        seed: if alloc_pure {
            PureSet::seeded()
        } else {
            PureSet::seeded_without_alloc()
        },
        infer_pure,
    };
    let outcome = purec::check_source(&source, &opts);
    if json {
        print!("{}", outcome.render_json());
    } else {
        print!("{}", outcome.render());
        if infer_pure && !outcome.inferred_pure.is_empty() {
            eprintln!(
                "purec: {} function(s) inferable as pure: {:?}",
                outcome.inferred_pure.len(),
                outcome.inferred_pure
            );
        }
    }
    std::process::exit(if outcome.has_errors() { 1 } else { 0 });
}

/// `purec trace-check <trace.json>` — structurally validate a Chrome
/// trace-event file (the CI smoke step runs this on `--trace` output).
fn trace_check_mode(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("purec: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match cinterp::validate_chrome_trace(&json) {
        Ok(stats) => {
            println!(
                "purec: trace ok: {} event(s), {} span(s), {} instant(s)\nnames: {}",
                stats.events,
                stats.spans,
                stats.instants,
                stats.names.join(" ")
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("purec: invalid trace: {e}");
            std::process::exit(1);
        }
    }
}

/// The interpreters recurse on the native stack, so the program runs on
/// a thread with the same explicit stack as the pool's workers instead
/// of on whatever the main thread was given.
fn main() {
    let program = std::thread::Builder::new()
        .name("purec".to_string())
        .stack_size(machine::STACK_SIZE)
        .spawn(cli)
        .expect("spawn the thread that runs the program");
    if let Err(panic) = program.join() {
        std::panic::resume_unwind(panic);
    }
}

fn cli() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "check" {
        check_mode(&args[1..]);
    }
    if args[0] == "trace-check" {
        trace_check_mode(&args[1..]);
    }

    let mut source_path: Option<String> = None;
    let mut demo: Option<String> = None;
    let mut tile: Option<i64> = None;
    let mut no_poly = false;
    let mut dump_schedule = false;
    let mut omp = true;
    let mut alloc_pure = true;
    let mut emit_marked = false;
    let mut run = false;
    let mut engine = cinterp::Engine::Bytecode;
    let mut threads = 1usize;
    let mut futures = true;
    let mut memo = true;
    let mut race_check = false;
    let mut race_check_cap: Option<u64> = None;
    let mut infer_pure = false;
    let mut stats = false;
    let mut opt_level: u8 = 2;
    let mut dump_bytecode = false;
    let mut trace_path: Option<String> = None;
    let mut stats_json_path: Option<String> = None;
    let mut fuel: Option<u64> = None;
    let mut max_memory: Option<u64> = None;
    let mut max_depth: Option<usize> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" => demo = Some(it.next().unwrap_or_else(|| usage())),
            "--tile" => {
                tile = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| (2..=polyhedral::PolyccOptions::MAX_TILE).contains(n))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--no-poly" => no_poly = true,
            "--dump-schedule" => dump_schedule = true,
            "--no-omp" => omp = false,
            "--no-alloc-pure" => alloc_pure = false,
            "--emit-marked" => emit_marked = true,
            "--run" => run = true,
            "--engine" => {
                engine = match it.next().as_deref() {
                    Some("vm") | Some("bytecode") => cinterp::Engine::Bytecode,
                    Some("resolved") => cinterp::Engine::Resolved,
                    _ => usage(),
                }
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--no-futures" => futures = false,
            "--no-memo" => memo = false,
            "--no-opt" => opt_level = 0,
            "--dump-bytecode" => dump_bytecode = true,
            "--trace" => trace_path = Some(it.next().unwrap_or_else(|| usage())),
            "--stats-json" => stats_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--race-check" => race_check = true,
            "--race-check-cap" => {
                race_check_cap = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--infer-pure" => infer_pure = true,
            "--fuel" => {
                fuel = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-memory" => {
                max_memory = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-depth" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if n > cinterp::MAX_CALL_DEPTH {
                    eprintln!(
                        "purec: --max-depth {n} is more than the {} MB native stack holds; \
                         the deepest limit that is sure to trap is {}",
                        machine::STACK_SIZE >> 20,
                        cinterp::MAX_CALL_DEPTH
                    );
                    std::process::exit(2);
                }
                max_depth = Some(n);
            }
            "--stats" => stats = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && source_path.is_none() => {
                source_path = Some(other.to_string())
            }
            _ => usage(),
        }
    }

    let source = match (&source_path, &demo) {
        (Some(path), None) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("purec: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        (None, Some(name)) => match name.as_str() {
            "matmul" => apps::matmul::c_source(64),
            "heat" => apps::heat::c_source(32, 10),
            "satellite" => apps::satellite::c_source(16, 16),
            "lama" => apps::lama::c_source(256, 9),
            other => {
                eprintln!("purec: unknown demo '{other}'");
                std::process::exit(2);
            }
        },
        _ => usage(),
    };

    let seed = if alloc_pure {
        PureSet::seeded()
    } else {
        PureSet::seeded_without_alloc()
    };
    let opts = ChainOptions {
        pc_cc: PcCcOptions {
            seed,
            infer_pure,
            includes: Default::default(),
        },
        polycc: polyhedral::PolyccOptions { tile, omp },
        no_poly,
    };

    if emit_marked {
        match purec_core::run_pc_cc(&source, opts.pc_cc) {
            Ok(out) => {
                print!("{}", cfront::print_unit(&out.unit));
                if stats {
                    eprintln!(
                        "purec: {} pure function(s), {} scop(s) marked, {} call(s) substituted",
                        out.declared_pure.len(),
                        out.scops_marked,
                        out.subst.len()
                    );
                }
            }
            Err(diags) => {
                eprint!("{}", diags.render_all(&source));
                std::process::exit(1);
            }
        }
        return;
    }

    if run {
        let interp = cinterp::InterpOptions {
            threads,
            race_check,
            race_check_cap,
            engine,
            futures,
            memo,
            fuel,
            max_memory_bytes: max_memory,
            max_call_depth: max_depth,
            opt_level,
            ..Default::default()
        };
        // A trace/metrics session brackets compile + run, so pipeline
        // phases land in the same timeline as runtime spans.
        let session =
            (trace_path.is_some() || stats_json_path.is_some()).then(cinterp::TraceSession::start);
        let outcome = compile(&source, opts)
            .map_err(purec::chain::ChainError::Compile)
            .and_then(|out| {
                let program = out.program();
                if dump_bytecode {
                    eprint!("{}", program.bytecode_at(opt_level).dump());
                }
                let run = program.run(interp);
                run.map(|result| (out, program, result))
                    .map_err(purec::chain::ChainError::Runtime)
            });
        // Switch the probes off and export before deciding the exit
        // path, so even trapped runs leave a valid trace behind.
        let trace_data = session.map(cinterp::TraceSession::finish);
        if let (Some(path), Some(data)) = (&trace_path, &trace_data) {
            if let Err(e) = std::fs::write(path, cinterp::chrome_trace_json(data)) {
                eprintln!("purec: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        match outcome {
            Ok((out, program, result)) => {
                print!("{}", result.output);
                // What the `Program` that ran decided: summaries and spawn
                // sites from its lowered form, inlined calls from the
                // bytecode it executed (the oracle engine inlines nothing).
                let resolved = program.resolved();
                let spawn_sites: usize = resolved.spawn_sites().iter().map(|(_, n)| n).sum();
                let executed = match engine {
                    cinterp::Engine::Bytecode => program.bytecode_at(opt_level),
                    cinterp::Engine::Resolved => program.bytecode_at(0),
                };
                let inlined = executed.inlined_functions();
                if dump_schedule {
                    for line in &out.schedules {
                        eprintln!("purec: {line}");
                    }
                }
                if stats {
                    eprintln!(
                        "purec: {}; spawn sites {}; const {:?}; heavy {:?}; memoized {:?}; \
                         inlined {:?}; exit {}; \
                         ops {{flops: {}, int_ops: {}, loads: {}, stores: {}, calls: {}, \
                         branches: {}}}; \
                         memo {{hits: {}, misses: {}, evictions: {}}}; \
                         futures {{spawned: {}, inlined: {}, helped: {}}}; \
                         steals {{local_pushes: {}, tasks_stolen: {}}}; \
                         opt {{level: {}, folded: {}, fused: {}}}; \
                         race {{static_skips: {}, dyn_iters: {}}}; \
                         regions {{forked: {}, inline: {}}}",
                        chain_stats_line(&out),
                        spawn_sites,
                        resolved.functions_where(|s| s.class == cinterp::Class::Const),
                        resolved.functions_where(|s| s.cost == cinterp::Cost::Heavy),
                        resolved.spawn_heavy_functions(),
                        inlined,
                        result.exit_code,
                        result.counters.flops,
                        result.counters.int_ops,
                        result.counters.loads,
                        result.counters.stores,
                        result.counters.calls,
                        result.counters.branches,
                        result.counters.memo_hits,
                        result.counters.memo_misses,
                        result.counters.memo_evictions,
                        result.counters.futures_spawned,
                        result.counters.futures_inlined,
                        result.counters.futures_helped,
                        result.counters.local_pushes,
                        result.counters.tasks_stolen,
                        opt_level,
                        result.counters.insns_folded,
                        result.counters.insns_fused,
                        result.counters.race_static_skips,
                        result.counters.race_dyn_iters,
                        result.counters.regions_forked,
                        result.counters.regions_inline,
                    );
                    eprintln!(
                        "purec: heap: allocations {}, frees {}, peak live bytes {}",
                        result.heap.allocations, result.heap.frees, result.heap.peak_live_bytes,
                    );
                    // Latency histograms and gauges exist only when a
                    // session ran (--trace / --stats-json alongside).
                    if let Some(data) = &trace_data {
                        for (name, h) in &data.metrics.hists {
                            if h.count() > 0 {
                                eprintln!(
                                    "purec: hist {name}: n={} p50<={}ns p99<={}ns",
                                    h.count(),
                                    h.quantile_upper(0.5),
                                    h.quantile_upper(0.99),
                                );
                            }
                        }
                        for (name, g) in &data.metrics.gauges {
                            if g.count > 0 {
                                eprintln!(
                                    "purec: gauge {name}: n={} mean={:.1} max={}",
                                    g.count,
                                    g.mean(),
                                    g.max,
                                );
                            }
                        }
                    }
                }
                if let Some(path) = &stats_json_path {
                    let data = trace_data
                        .as_ref()
                        .expect("--stats-json always runs a session");
                    let n = |v: u64| serde_json::Value::Num(v as f64);
                    let mut chain: Vec<(String, serde_json::Value)> = out
                        .stats()
                        .into_iter()
                        .map(|(key, _, value)| (key.to_string(), n(value as u64)))
                        .collect();
                    chain.push(("spawn_sites".to_string(), n(spawn_sites as u64)));
                    // The same summaries and the same inlined set the
                    // lists of `--stats` are filtered from.
                    let functions = resolved
                        .summaries()
                        .map(|(name, s)| {
                            let word = |v: String| serde_json::Value::Str(v.to_lowercase());
                            let call = if inlined.contains(&name) {
                                "inlined"
                            } else if s.spawn_heavy() {
                                "memoized"
                            } else {
                                "plain"
                            };
                            let fields = vec![
                                ("class".to_string(), word(format!("{:?}", s.class))),
                                ("cost".to_string(), word(format!("{:?}", s.cost))),
                                ("call".to_string(), word(call.to_string())),
                            ];
                            (name.to_string(), serde_json::Value::Object(fields))
                        })
                        .collect();
                    let root = serde_json::Value::Object(vec![
                        (
                            "exit_code".to_string(),
                            serde_json::Value::Num(result.exit_code as f64),
                        ),
                        ("opt_level".to_string(), n(opt_level as u64)),
                        (
                            "counters".to_string(),
                            cinterp::counters_json(&result.counters),
                        ),
                        ("metrics".to_string(), cinterp::metrics_json(&data.metrics)),
                        ("chain".to_string(), serde_json::Value::Object(chain)),
                        (
                            "functions".to_string(),
                            serde_json::Value::Object(functions),
                        ),
                        ("dropped_events".to_string(), n(data.dropped)),
                    ]);
                    let rendered = serde_json::to_string_pretty(&root).expect("stats JSON renders");
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("purec: cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                }
                std::process::exit(result.exit_code as i32 & 0x7f);
            }
            Err(e) => {
                eprintln!("purec: {e}");
                match &e {
                    purec::chain::ChainError::Compile(d) => {
                        eprint!("{}", d.render_all(&source));
                        std::process::exit(1);
                    }
                    // Resource traps get distinct, documented exit codes so
                    // scripts can tell "the program misbehaved" from "the
                    // governor stopped it".
                    purec::chain::ChainError::Runtime(err) => match err.trap {
                        Some(cinterp::Trap::FuelExhausted) => std::process::exit(97),
                        Some(cinterp::Trap::MemoryLimit) => std::process::exit(98),
                        Some(cinterp::Trap::DepthLimit) => std::process::exit(99),
                        None => std::process::exit(1),
                    },
                }
            }
        }
    }

    match compile(&source, opts) {
        Ok(out) => {
            print!("{}", out.text);
            if dump_bytecode {
                eprint!("{}", out.program().bytecode_at(opt_level).dump());
            }
            if dump_schedule {
                for line in &out.schedules {
                    eprintln!("purec: {line}");
                }
            }
            if stats {
                eprintln!("purec: {}", chain_stats_line(&out));
            }
        }
        Err(diags) => {
            eprint!("{}", diags.render_all(&source));
            std::process::exit(1);
        }
    }
}

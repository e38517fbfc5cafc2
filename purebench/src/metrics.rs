//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same rows (a test compares them).

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("e2e_s", "s", 0.25),
    e2e("compile_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("setup_s", "s", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: "lower",
        bound,
    }
}

/// A metric of a single layer. `exact` marks the deterministic work counts
/// `--check-repeat` requires to be bit-identical between two sets of runs.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
}

const fn time(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        better: "lower",
        exact: false,
    }
}

/// A count where less is less work.
const fn work(name: &'static str, exact: bool) -> Layer {
    Layer {
        name,
        unit: "count",
        better: "lower",
        exact,
    }
}

/// A count where more is more of what the layer is for.
const fn gain(name: &'static str, exact: bool) -> Layer {
    Layer {
        name,
        unit: "count",
        better: "higher",
        exact,
    }
}

/// An exact size of source or generated text.
const fn bytes(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "bytes",
        better: "lower",
        exact: true,
    }
}

const fn other(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

pub const PER_LAYER: &[Layer] = &[
    bytes("cprep.src_bytes"),
    time("cfront.lex_s"),
    work("cfront.tokens", true),
    time("cfront.parse_s"),
    work("cfront.ast_items", true),
    other("cfront.mtokens_per_s", "Mtok/s", "higher"),
    time("core.pc_cc_s"),
    gain("core.pure_fns", true),
    gain("core.scops_marked", true),
    work("core.loops_skipped_impure", true),
    work("core.diags", true),
    time("polyhedral.polycc_s"),
    gain("polyhedral.regions_transformed", true),
    gain("polyhedral.regions_parallelized", true),
    gain("polyhedral.regions_skewed", true),
    gain("polyhedral.regions_tiled", true),
    gain("polyhedral.regions_fused", true),
    gain("polyhedral.rows_hoisted", true),
    work("polyhedral.regions_skipped", true),
    time("analysis.analyze_s"),
    gain("analysis.loops_independent", true),
    work("analysis.loops_racy", true),
    work("analysis.loops_unknown", true),
    work("analysis.diags", true),
    time("purec.compile_s"),
    time("purec.lower_glue_s"),
    bytes("purec.text_bytes"),
    time("purec.check_s"),
    time("cinterp.resolve.lower_s"),
    gain("cinterp.resolve.cacheable_fns", true),
    gain("cinterp.resolve.spawn_sites", true),
    gain("cinterp.resolve.spawn_heavy_fns", true),
    time("cinterp.resolve.run_s"),
    time("cinterp.bytecode.compile_s"),
    work("cinterp.bytecode.insns_raw", true),
    time("cinterp.opt.optimize_s"),
    work("cinterp.opt.insns_opt", true),
    gain("cinterp.opt.insns_folded", true),
    gain("cinterp.opt.insns_fused", true),
    gain("cinterp.opt.icache_hits", true),
    time("cinterp.opt.run_o0_s"),
    other("cinterp.opt.run_gain", "ratio", "higher"),
    time("cinterp.vm.run_seq_s"),
    work("cinterp.vm.ops_executed", true),
    work("cinterp.vm.flops", true),
    work("cinterp.vm.int_ops", true),
    work("cinterp.vm.loads", true),
    work("cinterp.vm.stores", true),
    work("cinterp.vm.calls", true),
    work("cinterp.vm.branches", true),
    work("cinterp.vm.fuel_burned", true),
    other("cinterp.vm.ns_per_op", "ns", "lower"),
    other("cinterp.vm.ns_per_fuel", "ns", "lower"),
    other("cinterp.vm.speedup_par", "ratio", "higher"),
    gain("cinterp.cache.memo_hits", false),
    work("cinterp.cache.memo_misses", false),
    work("cinterp.cache.memo_evictions", false),
    other("cinterp.cache.hit_share", "ratio", "higher"),
    time("cinterp.cache.run_memo_off_s"),
    time("cinterp.cache.hot_s"),
    time("cinterp.cache.cold_s"),
    gain("cinterp.spawn.futures_spawned", false),
    work("cinterp.spawn.futures_inlined", false),
    gain("cinterp.spawn.futures_helped", false),
    other("cinterp.spawn.spawn_share", "ratio", "higher"),
    time("cinterp.spawn.run_futures_off_s"),
    other("machine.omprt.region_launch_us", "us", "lower"),
    other("machine.omprt.future_roundtrip_us", "us", "lower"),
    work("machine.omprt.regions", false),
    other("machine.omprt.region_ns_p50", "ns", "lower"),
    other("machine.omprt.region_ns_p99", "ns", "lower"),
    other("machine.omprt.queue_wait_ns_p50", "ns", "lower"),
    other("machine.omprt.queue_wait_ns_p99", "ns", "lower"),
    other("machine.omprt.steal_ns_p50", "ns", "lower"),
    work("machine.omprt.await_waits", false),
    other("machine.omprt.await_wait_ns_p50", "ns", "lower"),
    gain("machine.omprt.tasks_stolen", false),
    gain("machine.omprt.local_pushes", false),
    other("machine.omprt.steal_share", "ratio", "higher"),
    other("cinterp.value.arena_bytes_max", "bytes", "lower"),
    other("cinterp.value.spill_bytes_max", "bytes", "lower"),
    other("cinterp.value.rss_kb_per_malloc", "kB", "lower"),
    other("cinterp.trace.overhead_ratio", "ratio", "lower"),
    work("cinterp.trace.events", false),
    work("cinterp.trace.dropped_events", false),
    gain("harness.samples", false),
    time("harness.e2e_p75_s"),
    time("harness.e2e_min_s"),
    other("harness.e2e_iqr_rel", "ratio", "lower"),
    other("harness.threads", "count", "higher"),
    other("harness.host_cpus", "count", "higher"),
    other("harness.host_speed", "ratio", "lower"),
];

/// `(unit, better)` of a metric of either table.
pub fn describe(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find_map(|(n, unit, better)| (n == name).then_some((unit, better)))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

/// One measured value of a named metric.
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
}

impl Reading {
    pub fn new(name: &'static str, value: f64) -> Self {
        Reading { name, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn rows(manifest: &Value, key: &str) -> Vec<Vec<(String, Value)>> {
        let fields = manifest.as_object().expect("object");
        let (_, list) = fields.iter().find(|(k, _)| k == key).expect(key);
        list.as_array()
            .expect("array")
            .iter()
            .map(|row| row.as_object().expect("row").to_vec())
            .collect()
    }

    fn s(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    /// `BENCHMARK.json` and the tables here list the same metrics and
    /// workloads, in the same order.
    #[test]
    fn benchmark_json_lists_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let manifest: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    ("name".to_string(), s(m.name)),
                    ("unit".to_string(), s(m.unit)),
                    ("better".to_string(), s(m.better)),
                    ("bound".to_string(), Value::Num(m.bound)),
                ]
            })
            .collect();
        assert_eq!(rows(&manifest, "end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    ("name".to_string(), s(m.name)),
                    ("unit".to_string(), s(m.unit)),
                    ("better".to_string(), s(m.better)),
                ]
            })
            .collect();
        assert_eq!(rows(&manifest, "per_layer"), want);
        let names: Vec<Value> = rows(&manifest, "workloads")
            .into_iter()
            .map(|row| row[0].1.clone())
            .collect();
        let want: Vec<Value> = crate::workloads::NAMES.iter().map(|n| s(n)).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            let (unit, better) = describe(n);
            assert!(
                unit.len() <= 16 && ["lower", "higher"].contains(&better),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}

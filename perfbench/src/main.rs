//! End-to-end and per-layer benchmark of the train, serve and ingest paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: a client sends its next request only
//! after the previous one returned.  Inputs are generated from `--seed`
//! before anything is timed.  Each run checks its outputs; a failed check
//! makes the run print `"correct": false` and exit with status 1.
//!
//! The last line of standard output is the result object.  With
//! `--trace 0` its metrics are the end-to-end metrics of [`END_TO_END`];
//! with `--trace 1` they are the per-layer metrics of [`PER_LAYER`], measured
//! by timing calls into the library's public functions from here.  The line
//! before it is a report with host metadata, the workload's metrics under the
//! names its operations have (`train_p50_ms`, `append_tail_ms`, …), the
//! percentile and sample count behind every tail, and the outcome of every
//! check.

mod data;
mod ingest;
mod json;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;

use json::Json;
use stats::OpLog;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`.  Every workload reports each one for
/// its own closed-loop operation — a training job on `train`, a burst of 32
/// small scoring requests on `serve`, an ingest interval (50 appends with
/// their refreshes and the checkpoint closing them) on `ingest`.  Each is
/// large enough that one stalled call does not decide the tail on its own.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.  A layer the
/// workload's operations do not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.scan.rows", "count"),
    ("engine.scan.units", "count"),
    ("engine.group.partition_ms", "ms"),
    ("engine.group.states_scan_ms", "ms"),
    ("core.transition_ms", "ms"),
    ("linalg.kernels.rank_k_gflops", "GFLOP/s"),
    ("core.finalize_ms", "ms"),
    ("linalg.decomposition_ms", "ms"),
    ("core.model_build.total_ms", "ms"),
    ("core.model_build.aggregate_ms", "ms"),
    ("core.model_build_ms", "ms"),
    ("core.finalize_share", "fraction"),
    ("engine.iteration.iterations", "count"),
    ("engine.iteration.temp_tables_leaked", "count"),
    ("engine.iteration.ms_per_iter", "ms"),
    ("engine.catalog.lookup_us", "us"),
    ("engine.score.score_us", "us"),
    ("core.predict_batch_us", "us"),
    ("engine.score.call_overhead_us", "us"),
    ("linalg.kernels.batch_dot_rows_per_s", "rows/s"),
    ("engine.score.bulk_scan_ms", "ms"),
    ("engine.score.score_per_group_ms", "ms"),
    ("engine.score.route_ms", "ms"),
    ("engine.database.apply_ms", "ms"),
    ("engine.database.append_views_ms", "ms"),
    ("engine.materialize.absorb_ms", "ms"),
    ("engine.database.append_durable_ms", "ms"),
    ("engine.wal.commit_ms", "ms"),
    ("engine.wal.bytes_per_append", "B"),
    ("engine.persist.checkpoint_chunks", "count"),
    ("engine.persist.checkpoint_bytes", "B"),
    ("engine.persist.wal_bytes_replayed", "B"),
    ("engine.persist.replay_rows_per_s", "rows/s"),
    ("engine.persist.disk_bytes_per_user_byte", "ratio"),
    ("engine.database.snapshot_us", "us"),
    ("engine.materialize.finalize_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("self.client_ms", "ms"),
    ("self.engine.database.snapshot_ms", "ms"),
    ("self.core.train_grouped_ms", "ms"),
    ("self.core.train_ms", "ms"),
    ("self.engine.catalog.lookup_ms", "ms"),
    ("self.engine.score.score_ms", "ms"),
    ("self.engine.database.append_rows_ms", "ms"),
    ("self.core.refresh_ms", "ms"),
    ("self.engine.persist.checkpoint_ms", "ms"),
];

/// Exact counters: a repeated pass with the same seed must reproduce them
/// bit-for-bit.
pub const EXACT: &[&str] = &[
    "engine.scan.rows",
    "engine.scan.units",
    "engine.iteration.iterations",
    "engine.iteration.temp_tables_leaked",
    "engine.wal.bytes_per_append",
    "engine.persist.checkpoint_chunks",
    "engine.persist.checkpoint_bytes",
    "engine.persist.wal_bytes_replayed",
    "engine.persist.disk_bytes_per_user_byte",
];

/// Command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted and failed.
    pub ops: OpLog,
    /// End-to-end metrics by name (see [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (see [`PER_LAYER`]); traced run only.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own metric names, values and units, tails included.
    pub named: Vec<(String, Json)>,
    /// Further report fields (shapes, exact-counter passes, span summary).
    pub extra: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    /// Records a metric under the workload's own name.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((
            name.to_owned(),
            Json::obj().with("value", value).with("unit", unit),
        ));
    }

    /// Records a latency sample's median (with its quartiles) and tail under
    /// `prefix_p50_ms` and `prefix_tail_ms`, with the tail's percentile and
    /// sample count.
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64]) {
        let [q1, q2, q3] = stats::quartiles(samples_ms).unwrap_or([f64::NAN; 3]);
        self.named.push((
            format!("{prefix}_p50_ms"),
            Json::obj()
                .with("value", q2)
                .with("unit", "ms")
                .with("q1", q1)
                .with("q3", q3),
        ));
        let tail = stats::tail(samples_ms);
        self.named.push((
            format!("{prefix}_tail_ms"),
            Json::obj()
                .with("value", tail.map_or(f64::NAN, |t| t.value))
                .with("unit", "ms")
                .with("percentile", tail.map_or(f64::NAN, |t| t.percentile))
                .with("samples", samples_ms.len()),
        ));
    }

    /// Sets the workload's closed-loop operation latency metric and reports
    /// the operation's median and tail under `prefix`.  An untraced run too
    /// short to have ten samples beyond any percentile fails its check.
    ///
    /// The tail is reported, not bounded: with ten samples beyond it, its
    /// spread over seeds (IQR/median, 10 × 30 s runs) reached 0.19 on `serve`
    /// and 0.26 on `ingest`, above the largest bound a metric may have.
    pub fn op_latency(&mut self, config: &Config, prefix: &str, samples_ms: &[f64]) {
        if !config.trace {
            self.check("enough_samples_for_tail", stats::tail(samples_ms).is_some());
        }
        self.e2e.insert("op_p50_ms", stats::median(samples_ms));
        self.latency(prefix, samples_ms);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_metadata(workload: &str, config: &Config) -> Json {
    let features: Vec<Json> = madlib_linalg::kernels::cpu_features()
        .into_iter()
        .map(Json::from)
        .collect();
    Json::obj()
        .with("workload", workload)
        .with("seed", config.seed)
        .with("seconds", config.seconds)
        .with("trace", config.trace)
        .with(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("cpu_features", features)
        .with("kernel_path", madlib_linalg::kernels::active_path().label())
        .with("workers", madlib_engine::scan::worker_count())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <train|serve|ingest> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, Config)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().ok()?,
            "--seconds" => {
                config.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some((workload?, config))
}

fn main() -> ExitCode {
    let Some((workload, config)) = parse_args() else {
        return usage();
    };
    let result = match workload.as_str() {
        "train" => train::run(&config),
        "serve" => serve::run(&config),
        "ingest" => ingest::run(&config),
        _ => return usage(),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {workload} failed: {err}");
            return ExitCode::from(1);
        }
    };
    let peak = peak_rss_mb();
    outcome.e2e.entry("peak_rss_mb").or_insert(peak);
    outcome.named("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB");
    outcome.named("peak_rss_end_mb", peak, "MB");
    outcome.named("failed_ops_frac", outcome.ops.failed_frac(), "fraction");

    let (list, values) = if config.trace {
        (PER_LAYER, outcome.layers.clone())
    } else {
        (END_TO_END, outcome.e2e.clone())
    };
    let mut metrics = Json::obj();
    for &(name, unit) in list {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            outcome.check(format!("{name}_is_finite"), false);
        }
        metrics = metrics.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    outcome.check("ops_attempted", outcome.ops.attempted > 0);
    let correct = outcome.correct();

    let mut report = Json::obj()
        .with("host", host_metadata(&workload, &config))
        .with("failed_ops_frac", outcome.ops.failed_frac())
        .with("metrics", Json::Obj(outcome.named.clone()));
    for (key, value) in &outcome.extra {
        report = report.with(key, value.clone());
    }
    let checks = outcome
        .checks
        .iter()
        .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
        .collect();
    report = report.with("checks", Json::Obj(checks));
    println!("{}", report.render());

    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", outcome.ops.attempted.max(1))
        .with("failed", outcome.ops.failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut cursor = 0;
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = text[cursor..]
                .find(&entry)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {entry} after byte {cursor}"));
            cursor += at + entry.len();
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn exact_counters_are_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}

//! `repro` — regenerates every table and figure of the MADlib paper's
//! evaluation on the Rust reproduction.
//!
//! ```text
//! cargo run -p madlib-bench --bin repro --release -- all
//! cargo run -p madlib-bench --bin repro --release -- figure4 [--full]
//! cargo run -p madlib-bench --bin repro --release -- figure5 [--full]
//! cargo run -p madlib-bench --bin repro --release -- table1 | table2 | table3
//! cargo run -p madlib-bench --bin repro --release -- logistic | kmeans | overhead
//! cargo run -p madlib-bench --bin repro --release -- rowchunk | grouped [--full]
//! cargo run -p madlib-bench --bin repro --release -- grouped --smoke   # CI-scale
//! cargo run -p madlib-bench --bin repro --release -- kernels [--full|--smoke]
//! cargo run -p madlib-bench --bin repro --release -- predict [--full|--smoke]
//! cargo run -p madlib-bench --bin repro --release -- ingest [--full|--smoke]
//! cargo run -p madlib-bench --bin repro --release -- durability [--full|--smoke]
//! ```
//!
//! With `--full` the Figure 4/5 sweeps use the paper's variable counts
//! (10…320) and a larger row count; the default is a laptop-sized scaledown
//! that preserves the shape of the results.

use madlib_bench::{figure4_sweep, render_figure4, render_figure5};
use madlib_convex::objectives::{
    CrfObjective, LassoObjective, LeastSquaresObjective, LogisticObjective,
    MatrixFactorizationObjective, SvmHingeObjective,
};
use madlib_convex::{ConvexObjective, IgdConfig, IgdRunner, StepSchedule};
use madlib_core::assoc::Apriori;
use madlib_core::classify::{DecisionTree, LinearSvm, NaiveBayes};
use madlib_core::cluster::KMeans;
use madlib_core::datasets;
use madlib_core::factor::LowRankFactorization;
use madlib_core::optim::conjugate_gradient_solve;
use madlib_core::regress::{LinearRegression, LogisticRegression};
use madlib_core::topic::Lda;
use madlib_core::train::Session;
use madlib_engine::{
    row, Column, ColumnType, Database, Dataset, Executor, Row, Schema, Table, Value,
};
use madlib_linalg::kernels::KernelGeneration;
use madlib_linalg::{DenseMatrix, DenseVector, SparseVector};
use madlib_sketch::{profile_table, CountMinSketch, FlajoletMartin, QuantileSummary};
use madlib_text::mcmc::{gibbs_sample, metropolis_hastings_sample, McmcConfig};
use madlib_text::viterbi::viterbi_decode;
use madlib_text::{CrfEstimator, FeatureExtractor, TrigramIndex};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    match command {
        "figure4" => figure4(full),
        "figure5" => figure5(full),
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "logistic" => logistic(),
        "kmeans" => kmeans(),
        "overhead" => overhead(),
        "rowchunk" => rowchunk(full),
        "grouped" => grouped(full, smoke),
        "kernels" => kernels(full, smoke),
        "predict" => predict(full, smoke),
        "ingest" => ingest(full, smoke),
        "durability" => durability(full, smoke),
        "all" => {
            figure4(full);
            figure5(full);
            table1();
            table2();
            table3();
            logistic();
            kmeans();
            overhead();
            rowchunk(full);
            grouped(full, smoke);
            kernels(full, smoke);
            predict(full, smoke);
            ingest(full, smoke);
            durability(full, smoke);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!("expected one of: figure4 figure5 table1 table2 table3 logistic kmeans overhead rowchunk grouped kernels predict ingest durability all");
            std::process::exit(2);
        }
    }
}

/// JSON fragment recording the measurement host: core count, detected CPU
/// features and the kernel dispatch path that was active — so a baseline
/// number can always be traced back to the tier that produced it.
fn host_metadata_json() -> String {
    let features = madlib_linalg::kernels::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "  \"host_cores\": {},\n  \"cpu_features\": [{}],\n  \"kernel_path\": \"{}\",\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        features,
        madlib_linalg::kernels::active_path().label(),
    )
}

/// Kernel-tier sweep: per-kernel GFLOP/s for the scalar reference and the
/// AVX2 SIMD tier, across the Figure 4/5 feature widths.  Records
/// `BENCH_kernels.json` (never on `--smoke`) with the ≥1.3× rank-k
/// acceptance cell and the host's CPU-feature metadata.
fn kernels(full: bool, smoke: bool) {
    println!("== Batched linalg kernels: dispatch-tier throughput (GFLOP/s) ==\n");
    let (widths, target_flops, samples): (&[usize], f64, usize) = if smoke {
        (&[40, 400], 2e7, 1)
    } else if full {
        (&[40, 100, 400, 1000], 4e8, 5)
    } else {
        (&[40, 100, 400, 1000], 1e8, 3)
    };
    println!(
        "active dispatch path: {} (MADLIB_SIMD={}), detected cpu features: {:?}\n",
        madlib_linalg::kernels::active_path().label(),
        std::env::var("MADLIB_SIMD").unwrap_or_else(|_| "unset".to_owned()),
        madlib_linalg::kernels::cpu_features(),
    );
    let measurements = madlib_bench::measure_kernel_tiers(widths, target_flops, samples);
    let gflops_of = |kernel: &str, width: usize, tier: &str| {
        measurements
            .iter()
            .find(|m| m.kernel == kernel && m.width == width && m.tier == tier)
            .map(|m| format!("{:>10.2}", m.gflops))
            .unwrap_or_else(|| format!("{:>10}", "-"))
    };
    println!(
        "{:<30}  {:>6}  {:>6}  {:>10}  {:>10}  {:>8}",
        "kernel", "width", "rows", "scalar", "simd", "speedup"
    );
    let mut kernel_names: Vec<&'static str> = Vec::new();
    for m in &measurements {
        if !kernel_names.contains(&m.kernel) {
            kernel_names.push(m.kernel);
        }
    }
    for kernel in kernel_names {
        for &width in widths {
            let rows = measurements
                .iter()
                .find(|m| m.kernel == kernel && m.width == width)
                .map(|m| m.rows)
                .unwrap_or(0);
            let speedup = madlib_bench::kernel_speedup_cell(&measurements, kernel, width)
                .map(|(_, _, ratio)| format!("{ratio:>7.2}x"))
                .unwrap_or_else(|| format!("{:>8}", "-"));
            println!(
                "{:<30}  {:>6}  {:>6}  {}  {}  {}",
                kernel,
                width,
                rows,
                gflops_of(kernel, width, "scalar"),
                gflops_of(kernel, width, "simd"),
                speedup,
            );
        }
    }

    // The PR's acceptance cell: rank-k at the widest measured shape must
    // beat the scalar tier by ≥1.3×.
    let accept_width = *widths.last().expect("sweep has at least one width");
    match madlib_bench::kernel_speedup_cell(&measurements, "rank_k_update_lower", accept_width) {
        Some((scalar, best, ratio)) => println!(
            "\nrank_k_update_lower @ width {accept_width}: scalar {scalar:.2} GFLOP/s -> simd {best:.2} GFLOP/s = {ratio:.2}x (acceptance floor 1.3x)",
        ),
        None => println!(
            "\nrank_k_update_lower @ width {accept_width}: no SIMD tier on this host (AVX2 not detected); scalar only, no speedup cell",
        ),
    }

    if smoke {
        println!("\nsmoke run: baseline JSON left untouched\n");
        return;
    }
    let mut json = String::from("{\n  \"experiment\": \"kernel_dispatch_tiers\",\n");
    json.push_str(&host_metadata_json());
    json.push_str("  \"cells\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"tier\": \"{}\", \"width\": {}, \"rows\": {}, \"seconds\": {:.6}, \"gflops\": {:.4}}}{}\n",
            m.kernel,
            m.tier,
            m.width,
            m.rows,
            m.elapsed.as_secs_f64(),
            m.gflops,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]");
    if let Some((scalar, best, ratio)) =
        madlib_bench::kernel_speedup_cell(&measurements, "rank_k_update_lower", accept_width)
    {
        json.push_str(&format!(
            ",\n  \"acceptance\": {{\"kernel\": \"rank_k_update_lower\", \"width\": {accept_width}, \"scalar_gflops\": {scalar:.4}, \"best_gflops\": {best:.4}, \"speedup\": {ratio:.4}}}"
        ));
    }
    json.push_str("\n}\n");
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_kernels.json\n"),
        Err(err) => println!("\ncould not write BENCH_kernels.json: {err}\n"),
    }
}

/// Serving sweep: `Dataset::score` with the linregr dot-product scorer —
/// chunked vs row-at-a-time execution vs the naive per-row predict loop —
/// plus the raw `batch_dot` scoring kernel per dispatch tier in millions of
/// rows scored per second.  Records `BENCH_predict.json` (never on
/// `--smoke`) with the ≥2× width-100 acceptance cell and the host's
/// CPU-feature metadata.
fn predict(full: bool, smoke: bool) {
    println!("== In-engine serving: Dataset::score vs the per-row predict loop (linregr) ==\n");
    // Shapes keep the working set cache-resident (≤~16 MB) so the
    // comparison measures the serving inner loop, not DRAM bandwidth —
    // `--full` adds the paper-scale memory-bound shapes on top.
    let (shapes, samples): (&[(usize, usize)], usize) = if smoke {
        (&[(20_000, 10), (10_000, 100)], 1)
    } else if full {
        (
            &[
                (200_000, 10),
                (20_000, 100),
                (2_000, 1000),
                (1_000_000, 10),
                (400_000, 100),
            ],
            5,
        )
    } else {
        (&[(200_000, 10), (20_000, 100), (2_000, 1000)], 5)
    };
    let segments = 4usize;
    println!(
        "active dispatch path: {} (MADLIB_SIMD={}), detected cpu features: {:?}\n",
        madlib_linalg::kernels::active_path().label(),
        std::env::var("MADLIB_SIMD").unwrap_or_else(|_| "unset".to_owned()),
        madlib_linalg::kernels::cpu_features(),
    );
    println!(
        "{:>9}  {:>6}  {:>12}  {:>12}  {:>12}  {:>8}  {:>10}",
        "# rows", "width", "loop (s)", "row (s)", "chunk (s)", "speedup", "Mrows/s"
    );
    let mut measurements = Vec::new();
    for &(rows, width) in shapes {
        let m = madlib_bench::measure_predict(rows, width, segments, samples);
        println!(
            "{:>9}  {:>6}  {:>12.4}  {:>12.4}  {:>12.4}  {:>7.2}x  {:>10.2}",
            m.rows,
            m.width,
            m.per_row_loop.as_secs_f64(),
            m.row_mode.as_secs_f64(),
            m.chunk_mode.as_secs_f64(),
            m.speedup_vs_loop(),
            m.rows_per_sec(m.chunk_mode) / 1e6,
        );
        measurements.push(m);
    }

    println!("\n-- Raw dot-product scoring kernel (batch_dot) per dispatch tier --\n");
    println!(
        "{:>6}  {:>10}  {:>6}  {:>12}",
        "width", "tier", "rows", "Mrows/s"
    );
    let kernel_width = 100usize;
    let kernel_cells = madlib_bench::measure_predict_kernel_tiers(kernel_width, samples);
    for cell in &kernel_cells {
        println!(
            "{:>6}  {:>10}  {:>6}  {:>12.2}",
            cell.width, cell.tier, cell.rows, cell.mrows_per_sec
        );
    }

    // The PR's acceptance cell: chunked Dataset::score at width 100 must
    // beat the per-row predict loop by ≥2×.
    let acceptance = measurements.iter().find(|m| m.width == 100);
    if let Some(m) = acceptance {
        println!(
            "\nDataset::score @ width 100: per-row loop {:.4}s -> chunked {:.4}s = {:.2}x (acceptance floor 2.0x); {:.2}M rows/s chunked",
            m.per_row_loop.as_secs_f64(),
            m.chunk_mode.as_secs_f64(),
            m.speedup_vs_loop(),
            m.rows_per_sec(m.chunk_mode) / 1e6,
        );
    }
    if let Some(best) = kernel_cells
        .iter()
        .max_by(|a, b| a.mrows_per_sec.total_cmp(&b.mrows_per_sec))
    {
        println!(
            "dot-product path @ width {kernel_width}: {:.2}M rows scored/s ({} tier)",
            best.mrows_per_sec, best.tier
        );
    }

    if smoke {
        println!("\nsmoke run: baseline JSON left untouched\n");
        return;
    }
    let mut json = String::from("{\n  \"experiment\": \"predict_serving_sweep\",\n");
    json.push_str(&host_metadata_json());
    json.push_str("  \"cells\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"width\": {}, \"segments\": {}, \"per_row_loop_s\": {:.6}, \"row_mode_s\": {:.6}, \"chunk_mode_s\": {:.6}, \"speedup_vs_loop\": {:.4}, \"chunk_rows_per_sec\": {:.1}}}{}\n",
            m.rows,
            m.width,
            m.segments,
            m.per_row_loop.as_secs_f64(),
            m.row_mode.as_secs_f64(),
            m.chunk_mode.as_secs_f64(),
            m.speedup_vs_loop(),
            m.rows_per_sec(m.chunk_mode),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"dot_kernel_cells\": [\n");
    for (i, cell) in kernel_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{}\", \"width\": {}, \"rows\": {}, \"seconds\": {:.6}, \"mrows_per_sec\": {:.4}}}{}\n",
            cell.tier,
            cell.width,
            cell.rows,
            cell.elapsed.as_secs_f64(),
            cell.mrows_per_sec,
            if i + 1 < kernel_cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]");
    if let Some(m) = acceptance {
        json.push_str(&format!(
            ",\n  \"acceptance\": {{\"width\": 100, \"rows\": {}, \"per_row_loop_s\": {:.6}, \"chunk_mode_s\": {:.6}, \"speedup_vs_loop\": {:.4}, \"chunk_rows_per_sec\": {:.1}}}",
            m.rows,
            m.per_row_loop.as_secs_f64(),
            m.chunk_mode.as_secs_f64(),
            m.speedup_vs_loop(),
            m.rows_per_sec(m.chunk_mode),
        ));
    }
    json.push_str("\n}\n");
    match std::fs::write("BENCH_predict.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_predict.json\n"),
        Err(err) => println!("\ncould not write BENCH_predict.json: {err}\n"),
    }
}

/// Streaming ingest: `Session::refresh` after a 1% append vs. a full
/// retrain (linregr).  The refresh absorbs only the appended rows into the
/// materialized transition states and re-finalizes, so its cost is
/// O(appended) + finalize while the retrain rescans everything; the two
/// models must be bit-identical (the aggregate is algebraic and the view
/// replays the executor's merge structure exactly).  Records
/// `BENCH_ingest.json` (never on `--smoke`) with the ≥5× width-100
/// acceptance cell and the host's CPU-feature metadata.
fn ingest(full: bool, smoke: bool) {
    println!("== Streaming ingest: refresh-after-append vs. full retrain (linregr) ==\n");
    let (shapes, samples): (&[(usize, usize)], usize) = if smoke {
        (&[(8_000, 20), (4_000, 100)], 1)
    } else if full {
        (&[(40_000, 10), (40_000, 100), (200_000, 100)], 5)
    } else {
        (&[(40_000, 10), (40_000, 100)], 3)
    };
    let segments = 4usize;
    println!(
        "active dispatch path: {} (MADLIB_SIMD={}), detected cpu features: {:?}\n",
        madlib_linalg::kernels::active_path().label(),
        std::env::var("MADLIB_SIMD").unwrap_or_else(|_| "unset".to_owned()),
        madlib_linalg::kernels::cpu_features(),
    );
    println!(
        "{:>8}  {:>6}  {:>8}  {:>12}  {:>12}  {:>8}  {:>9}",
        "# rows", "width", "append", "retrain (s)", "refresh (s)", "speedup", "identical"
    );

    struct IngestCell {
        rows: usize,
        width: usize,
        appended: usize,
        retrain_s: f64,
        refresh_s: f64,
        bit_identical: bool,
    }
    let mut cells: Vec<IngestCell> = Vec::new();

    for &(rows, width) in shapes {
        let data = datasets::linear_regression_data(rows, width, 0.1, segments, 42).unwrap();
        let session = Session::new(Database::new(segments).unwrap());
        session
            .database()
            .register_table("events", data.table)
            .unwrap();
        let estimator = LinearRegression::new("y", "x");
        session
            .train_incremental(&estimator, "events", "ingest_linregr")
            .unwrap();

        let appended = (rows / 100).max(1);
        let mut best_refresh = f64::INFINITY;
        let mut best_retrain = f64::INFINITY;
        let mut bit_identical = true;
        let mut total_rows = rows;
        for sample in 0..samples {
            // Fresh rows from the same generator; inserted through the raw
            // table mutator (not `append_rows`) so the refresh itself pays
            // for the absorb.
            let batch =
                datasets::linear_regression_data(appended, width, 0.1, 1, 1_000 + sample as u64)
                    .unwrap()
                    .table
                    .collect_rows();
            session
                .database()
                .with_table_mut("events", |t| {
                    for r in batch {
                        t.insert(r)?;
                    }
                    Ok(())
                })
                .unwrap();
            total_rows += appended;

            let started = Instant::now();
            let refreshed = session
                .refresh(&estimator, "events", "ingest_linregr")
                .unwrap();
            best_refresh = best_refresh.min(started.elapsed().as_secs_f64());

            let started = Instant::now();
            let retrained = session
                .train(&estimator, &session.dataset("events").unwrap())
                .unwrap();
            best_retrain = best_retrain.min(started.elapsed().as_secs_f64());

            bit_identical &= refreshed.num_rows == total_rows as u64
                && retrained.num_rows == total_rows as u64
                && refreshed.r2.to_bits() == retrained.r2.to_bits()
                && refreshed.coef.len() == retrained.coef.len()
                && refreshed
                    .coef
                    .iter()
                    .zip(&retrained.coef)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        println!(
            "{:>8}  {:>6}  {:>8}  {:>12.4}  {:>12.4}  {:>7.1}x  {:>9}",
            rows,
            width,
            appended,
            best_retrain,
            best_refresh,
            best_retrain / best_refresh,
            bit_identical,
        );
        cells.push(IngestCell {
            rows,
            width,
            appended,
            retrain_s: best_retrain,
            refresh_s: best_refresh,
            bit_identical,
        });
    }

    // The PR's acceptance cell: refresh after a 1% append at width 100 must
    // beat the full retrain by ≥5×, with bit-identical output.  Smoke runs
    // are CI-scale (finalize dominates at a few thousand rows), so the
    // acceptance cell is only meaningful — and only printed — at full scale.
    let acceptance = cells.iter().rfind(|c| c.width == 100);
    if smoke {
        println!("\nsmoke scale: acceptance cell evaluated only on full-scale runs");
    } else if let Some(c) = acceptance {
        println!(
            "\nrefresh @ width 100 after 1% append: retrain {:.4}s -> refresh {:.4}s = {:.1}x (acceptance floor 5.0x); bit-identical: {}",
            c.retrain_s,
            c.refresh_s,
            c.retrain_s / c.refresh_s,
            c.bit_identical,
        );
    }
    for c in &cells {
        assert!(
            c.bit_identical,
            "refresh diverged from full retrain at rows={} width={}",
            c.rows, c.width
        );
    }

    if smoke {
        println!("\nsmoke run: baseline JSON left untouched\n");
        return;
    }
    let mut json = String::from("{\n  \"experiment\": \"ingest_refresh_vs_retrain\",\n");
    json.push_str(&host_metadata_json());
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"width\": {}, \"segments\": {}, \"appended_rows\": {}, \"retrain_s\": {:.6}, \"refresh_s\": {:.6}, \"speedup\": {:.4}, \"bit_identical\": {}}}{}\n",
            c.rows,
            c.width,
            segments,
            c.appended,
            c.retrain_s,
            c.refresh_s,
            c.retrain_s / c.refresh_s,
            c.bit_identical,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]");
    if let Some(c) = acceptance {
        json.push_str(&format!(
            ",\n  \"acceptance\": {{\"width\": 100, \"rows\": {}, \"appended_rows\": {}, \"retrain_s\": {:.6}, \"refresh_s\": {:.6}, \"speedup\": {:.4}, \"bit_identical\": {}}}",
            c.rows,
            c.appended,
            c.retrain_s,
            c.refresh_s,
            c.retrain_s / c.refresh_s,
            c.bit_identical,
        ));
    }
    json.push_str("\n}\n");
    match std::fs::write("BENCH_ingest.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_ingest.json\n"),
        Err(err) => println!("\ncould not write BENCH_ingest.json: {err}\n"),
    }
}

/// Durability: group-commit WAL throughput vs. one fsync per append, and
/// recovery time as a function of WAL length.  Concurrent appenders hammer
/// one table; with group commit the leader batches every queued record into
/// a single `write` + `fsync`, so the fsync cost amortizes across the
/// group, while the per-append mode pays one fsync per record (the paper's
/// host DBMS default).  Records `BENCH_durability.json` (never on
/// `--smoke`) with the ≥3× 64-appender acceptance cell.  The scratch
/// directory lives under `target/` — real filesystem, not tmpfs, so the
/// fsyncs being amortized are real ones.
fn durability(full: bool, smoke: bool) {
    println!("== Durability: group-commit WAL vs. per-append fsync, recovery replay ==\n");
    let (appenders, batches, recovery_rows): (usize, usize, &[usize]) = if smoke {
        (8, 10, &[2_000])
    } else if full {
        (64, 50, &[10_000, 40_000, 160_000])
    } else {
        (64, 25, &[10_000, 40_000])
    };
    let rows_per_batch = 4usize;
    let segments = 4usize;
    let schema = Schema::new(vec![
        Column::new("id", ColumnType::Int),
        Column::new("v", ColumnType::Double),
    ]);
    let bench_root = std::path::PathBuf::from("target/durability_bench");

    // -- Group commit vs. per-append fsync at `appenders` concurrent writers.
    let run_commit = |group: bool| -> f64 {
        let dir = bench_root.join(if group { "group" } else { "per_append" });
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = Database::open(&dir, segments).unwrap();
        db.set_group_commit(group);
        db.create_table("events", schema.clone()).unwrap();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..appenders {
                let db = &db;
                scope.spawn(move || {
                    for b in 0..batches {
                        let base = (tid * batches + b) * rows_per_batch;
                        db.append_rows(
                            "events",
                            (0..rows_per_batch).map(|i| row![(base + i) as i64, (base + i) as f64]),
                        )
                        .unwrap();
                    }
                });
            }
        });
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            db.table("events").unwrap().row_count(),
            appenders * batches * rows_per_batch,
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    };
    let per_fsync_s = run_commit(false);
    let group_s = run_commit(true);
    let total_appends = (appenders * batches) as f64;
    let speedup = per_fsync_s / group_s;
    println!(
        "{:>10}  {:>8}  {:>16}  {:>16}  {:>8}",
        "appenders", "appends", "per-fsync (a/s)", "group (a/s)", "speedup"
    );
    println!(
        "{:>10}  {:>8}  {:>16.0}  {:>16.0}  {:>7.1}x",
        appenders,
        appenders * batches,
        total_appends / per_fsync_s,
        total_appends / group_s,
        speedup,
    );

    // -- Recovery time vs. WAL length (appends only, no checkpoint: the
    // whole state is replayed from the log).
    struct RecoveryCell {
        rows: usize,
        wal_bytes: u64,
        recover_s: f64,
    }
    let mut recovery: Vec<RecoveryCell> = Vec::new();
    println!(
        "\n{:>10}  {:>12}  {:>12}  {:>14}",
        "# rows", "wal bytes", "recover (s)", "rows/s"
    );
    for &rows in recovery_rows {
        let dir = bench_root.join(format!("recovery_{rows}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_bytes;
        {
            let db = Database::open(&dir, segments).unwrap();
            db.create_table("events", schema.clone()).unwrap();
            for start in (0..rows).step_by(500) {
                let end = (start + 500).min(rows);
                db.append_rows("events", (start..end).map(|i| row![i as i64, i as f64]))
                    .unwrap();
            }
            wal_bytes = db.wal_durable_len().unwrap();
        }
        let started = Instant::now();
        let recovered = Database::recover(&dir).unwrap();
        let recover_s = started.elapsed().as_secs_f64();
        assert_eq!(recovered.table("events").unwrap().row_count(), rows);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "{:>10}  {:>12}  {:>12.4}  {:>14.0}",
            rows,
            wal_bytes,
            recover_s,
            rows as f64 / recover_s,
        );
        recovery.push(RecoveryCell {
            rows,
            wal_bytes,
            recover_s,
        });
    }
    let _ = std::fs::remove_dir_all(&bench_root);

    if smoke {
        println!("\nsmoke scale: acceptance cell evaluated only on full-scale runs");
        println!("\nsmoke run: baseline JSON left untouched\n");
        return;
    }
    println!(
        "\ngroup commit @ {appenders} appenders: per-fsync {per_fsync_s:.4}s -> group {group_s:.4}s = {speedup:.1}x (acceptance floor 3.0x)"
    );

    let mut json = String::from("{\n  \"experiment\": \"durability_wal\",\n");
    json.push_str(&host_metadata_json());
    json.push_str(&format!(
        "  \"commit\": {{\"appenders\": {}, \"batches_per_appender\": {}, \"rows_per_batch\": {}, \"per_fsync_s\": {:.6}, \"group_s\": {:.6}, \"per_fsync_appends_per_s\": {:.1}, \"group_appends_per_s\": {:.1}, \"speedup\": {:.4}}},\n",
        appenders,
        batches,
        rows_per_batch,
        per_fsync_s,
        group_s,
        total_appends / per_fsync_s,
        total_appends / group_s,
        speedup,
    ));
    json.push_str("  \"recovery\": [\n");
    for (i, c) in recovery.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"wal_bytes\": {}, \"recover_s\": {:.6}, \"rows_per_s\": {:.0}}}{}\n",
            c.rows,
            c.wal_bytes,
            c.recover_s,
            c.rows as f64 / c.recover_s,
            if i + 1 < recovery.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"acceptance\": {{\"appenders\": {}, \"per_fsync_s\": {:.6}, \"group_s\": {:.6}, \"speedup\": {:.4}, \"floor\": 3.0}}\n",
        appenders, per_fsync_s, group_s, speedup,
    ));
    json.push_str("}\n");
    match std::fs::write("BENCH_durability.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_durability.json\n"),
        Err(err) => println!("\ncould not write BENCH_durability.json: {err}\n"),
    }
}

/// Row-path vs. chunk-path baseline: the engine's own Figure 4-style
/// inner-loop comparison.  Sweeps feature widths up to the 1 000-wide
/// acceptance shape and prints the measured chunk-path speedup per cell.
fn rowchunk(full: bool) {
    println!("== Row-at-a-time vs. chunk-at-a-time execution (linregr, v0.3 kernel) ==\n");
    let sweep: &[(usize, usize, usize, usize)] = if full {
        &[
            (100_000, 40, 4, 5),
            (40_000, 100, 4, 5),
            (10_000, 400, 4, 3),
            (10_000, 1000, 4, 3),
        ]
    } else {
        &[
            (20_000, 40, 4, 5),
            (8_000, 100, 4, 5),
            (2_000, 400, 4, 3),
            (2_000, 1000, 4, 3),
        ]
    };
    println!(
        "{:>8}  {:>11}  {:>12}  {:>12}  {:>8}",
        "# rows", "# variables", "row (s)", "chunk (s)", "speedup"
    );
    for &(rows, variables, segments, samples) in sweep {
        let (row, chunk) = madlib_bench::measure_row_vs_chunk(rows, variables, segments, samples);
        println!(
            "{rows:>8}  {variables:>11}  {:>12.4}  {:>12.4}  {:>7.2}x",
            row.as_secs_f64(),
            chunk.as_secs_f64(),
            row.as_secs_f64() / chunk.as_secs_f64(),
        );
    }
    println!();
}

/// Grouped row-path vs. chunk-path baseline: the PR-1 single-threaded
/// grouped row loop (display-string keys, per-row transitions) against the
/// segment-parallel chunked grouped scan, swept over the number of groups —
/// including the high-cardinality regime served by the radix partition pass
/// — plus a composite-key (`group_by(["grp", "sub"])`) cell.  Records the
/// measurements to `BENCH_grouped.json` next to the working directory so
/// future sessions can compare against this baseline.
///
/// With `--smoke` the sweep shrinks to a seconds-scale CI check that still
/// exercises the direct-gather, radix and composite paths in both execution
/// modes; smoke runs never overwrite the recorded baseline.
fn grouped(full: bool, smoke: bool) {
    println!(
        "== Grouped aggregation: PR-1 row loop vs. segment-parallel chunked scan (linregr) ==\n"
    );
    let (rows, variables, segments, samples) = if smoke {
        (4_000, 16, 2, 1)
    } else if full {
        (100_000, 100, 4, 5)
    } else {
        (40_000, 100, 4, 3)
    };
    // The smoke sweep keeps one low-cardinality cell (direct gather path)
    // and one ≥1-group-per-chunk-row cell (radix partition path).
    let group_counts: &[usize] = if smoke { &[8, 2048] } else { &[16, 256, 4096] };
    println!(
        "{:>8}  {:>11}  {:>8}  {:>12}  {:>12}  {:>8}",
        "# rows", "# variables", "# groups", "row (s)", "chunk (s)", "speedup"
    );
    let mut measurements = Vec::new();
    for &groups in group_counts {
        let m =
            madlib_bench::measure_grouped_row_vs_chunk(rows, variables, groups, segments, samples);
        println!(
            "{:>8}  {:>11}  {:>8}  {:>12.4}  {:>12.4}  {:>7.2}x",
            m.rows,
            m.variables,
            m.groups,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
        );
        measurements.push(m);
    }

    println!(
        "\n== Composite grouping: group_by([\"grp\", \"sub\"]), row-at-a-time vs chunked ==\n"
    );
    let composite_shapes: &[(usize, usize)] = if smoke { &[(8, 8)] } else { &[(64, 64)] };
    println!(
        "{:>8}  {:>11}  {:>8}  {:>12}  {:>12}  {:>8}",
        "# rows", "# variables", "# keys", "row (s)", "chunk (s)", "speedup"
    );
    let mut composite = Vec::new();
    for &(groups, subgroups) in composite_shapes {
        let m = madlib_bench::measure_grouped_composite_row_vs_chunk(
            rows, variables, groups, subgroups, segments, samples,
        );
        println!(
            "{:>8}  {:>11}  {:>8}  {:>12.4}  {:>12.4}  {:>7.2}x",
            m.rows,
            m.variables,
            m.groups,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
        );
        composite.push(m);
    }

    println!("\n== Zipf-skewed multi-tenant scan: work-stealing vs static segment striping ==\n");
    let (zipf_groups, zipf_segments, zipf_workers) = if smoke { (64, 8, 4) } else { (512, 16, 4) };
    println!(
        "{:>8}  {:>8}  {:>8}  {:>8}  {:>12}  {:>12}  {:>10}  {:>13}",
        "# rows",
        "# groups",
        "# segs",
        "workers",
        "striped (s)",
        "stealing (s)",
        "wall ratio",
        "makespan gain"
    );
    let zipf = madlib_bench::measure_zipf_schedulers(
        rows,
        variables,
        zipf_groups,
        zipf_segments,
        samples,
        zipf_workers,
    );
    println!(
        "{:>8}  {:>8}  {:>8}  {:>8}  {:>12.4}  {:>12.4}  {:>9.2}x  {:>12.2}x",
        zipf.rows,
        zipf.groups,
        zipf.segments,
        zipf.workers,
        zipf.striped.as_secs_f64(),
        zipf.stealing.as_secs_f64(),
        zipf.wall_clock_ratio(),
        zipf.makespan_ratio(),
    );
    println!(
        "(makespan gain = busiest worker's row share, striped / stealing: the wall-clock\n ratio a {}-core host approaches; wall ratio on this host reflects {} available core(s))",
        zipf.workers,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );

    if smoke {
        let zt = madlib_bench::measure_grouped_training_zipf(
            rows,
            variables,
            zipf_groups,
            segments,
            samples,
        );
        println!(
            "\nzipf grouped training ({} groups): row {:.4}s  chunk {:.4}s  {:.2}x",
            zt.groups,
            zt.row_path.as_secs_f64(),
            zt.chunk_path.as_secs_f64(),
            zt.speedup(),
        );
        println!("\nsmoke run: baseline JSON left untouched\n");
        return;
    }
    let cell_json = |m: &madlib_bench::GroupedMeasurement, last: bool| {
        format!(
            "    {{\"rows\": {}, \"variables\": {}, \"groups\": {}, \"segments\": {}, \"row_s\": {:.6}, \"chunk_s\": {:.6}, \"speedup\": {:.4}}}{}\n",
            m.rows,
            m.variables,
            m.groups,
            m.segments,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
            if last { "" } else { "," },
        )
    };
    let mut json = String::from("{\n  \"experiment\": \"grouped_linregr_row_vs_chunk\",\n");
    json.push_str(&host_metadata_json());
    json.push_str("  \"cells\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&cell_json(m, i + 1 == measurements.len()));
    }
    json.push_str("  ],\n  \"composite_cells\": [\n");
    for (i, m) in composite.iter().enumerate() {
        json.push_str(&cell_json(m, i + 1 == composite.len()));
    }
    json.push_str("  ],\n  \"zipf_scheduler_cells\": [\n");
    json.push_str(&format!(
        "    {{\"rows\": {}, \"variables\": {}, \"groups\": {}, \"segments\": {}, \"workers\": {}, \"host_cores\": {}, \"striped_s\": {:.6}, \"stealing_s\": {:.6}, \"wall_clock_ratio\": {:.4}, \"striped_makespan_rows\": {}, \"stealing_makespan_rows\": {}, \"makespan_ratio\": {:.4}}}\n",
        zipf.rows,
        zipf.variables,
        zipf.groups,
        zipf.segments,
        zipf.workers,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        zipf.striped.as_secs_f64(),
        zipf.stealing.as_secs_f64(),
        zipf.wall_clock_ratio(),
        zipf.striped_makespan_rows,
        zipf.stealing_makespan_rows,
        zipf.makespan_ratio(),
    ));
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_grouped.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_grouped.json\n"),
        Err(err) => println!("\ncould not write BENCH_grouped.json: {err}\n"),
    }

    grouped_training(full);
}

/// Grouped-*training* sweep: full per-group linear-regression fits through
/// `Session::train_grouped` (one model per group in a single grouped scan),
/// chunked vs row-at-a-time execution.  Records the measurements to
/// `BENCH_grouped_train.json`.
fn grouped_training(full: bool) {
    println!(
        "== Grouped training: Session::train_grouped per-group linregr, row vs chunk mode ==\n"
    );
    let (rows, variables, segments, samples) = if full {
        (100_000, 100, 4, 5)
    } else {
        (40_000, 100, 4, 3)
    };
    println!(
        "{:>8}  {:>11}  {:>8}  {:>12}  {:>12}  {:>8}",
        "# rows", "# variables", "# groups", "row (s)", "chunk (s)", "speedup"
    );
    let mut measurements = Vec::new();
    for &groups in &[16usize, 256] {
        let m = madlib_bench::measure_grouped_training(rows, variables, groups, segments, samples);
        println!(
            "{:>8}  {:>11}  {:>8}  {:>12.4}  {:>12.4}  {:>7.2}x",
            m.rows,
            m.variables,
            m.groups,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
        );
        measurements.push(m);
    }

    println!("\n-- Zipf-skewed group sizes (group g holds ~1/(g+1) of the rows) --\n");
    let mut zipf_cells = Vec::new();
    let zipf_group_counts: &[usize] = &[256];
    for &groups in zipf_group_counts {
        let m =
            madlib_bench::measure_grouped_training_zipf(rows, variables, groups, segments, samples);
        println!(
            "{:>8}  {:>11}  {:>8}  {:>12.4}  {:>12.4}  {:>7.2}x",
            m.rows,
            m.variables,
            m.groups,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
        );
        zipf_cells.push(m);
    }

    let mut json =
        String::from("{\n  \"experiment\": \"grouped_linregr_training_row_vs_chunk\",\n");
    json.push_str(&host_metadata_json());
    json.push_str("  \"cells\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"variables\": {}, \"groups\": {}, \"segments\": {}, \"row_s\": {:.6}, \"chunk_s\": {:.6}, \"speedup\": {:.4}}}{}\n",
            m.rows,
            m.variables,
            m.groups,
            m.segments,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"zipf_cells\": [\n");
    for (i, m) in zipf_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"variables\": {}, \"groups\": {}, \"segments\": {}, \"row_s\": {:.6}, \"chunk_s\": {:.6}, \"speedup\": {:.4}}}{}\n",
            m.rows,
            m.variables,
            m.groups,
            m.segments,
            m.row_path.as_secs_f64(),
            m.chunk_path.as_secs_f64(),
            m.speedup(),
            if i + 1 < zipf_cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_grouped_train.json", &json) {
        Ok(()) => println!("\nbaseline recorded to BENCH_grouped_train.json\n"),
        Err(err) => println!("\ncould not write BENCH_grouped_train.json: {err}\n"),
    }
}

fn sweep_parameters(full: bool) -> (Vec<usize>, Vec<usize>, usize) {
    if full {
        // The paper's grid (segments scaled to the worker count the engine
        // will actually use — MADLIB_THREADS override included).
        let cores = madlib_engine::scan::worker_count();
        let segments: Vec<usize> = [6, 12, 18, 24]
            .iter()
            .map(|&s| s.min(cores))
            .collect::<Vec<_>>();
        (segments, vec![10, 20, 40, 80, 160, 320], 1_000_000)
    } else {
        (vec![1, 2, 4, 8], vec![10, 20, 40, 80], 50_000)
    }
}

fn figure4(full: bool) {
    let (segments, variables, rows) = sweep_parameters(full);
    println!("== Figure 4: linear-regression execution times ==");
    println!(
        "(rows = {rows}, segments = {segments:?}, variables = {variables:?}; paper: 10M rows on a 24-core Greenplum cluster)\n"
    );
    let measurements = figure4_sweep(&segments, &variables, rows, &KernelGeneration::ALL);
    println!("{}", render_figure4(&measurements));
}

fn figure5(full: bool) {
    let (segments, variables, rows) = sweep_parameters(full);
    println!("== Figure 5: execution time vs. #variables per segment count (v0.3) ==\n");
    let measurements = figure4_sweep(&segments, &variables, rows, &[KernelGeneration::V03]);
    println!("{}", render_figure5(&measurements));
}

fn check(name: &str, passed: bool, detail: String) {
    println!(
        "  [{}] {:<28} {}",
        if passed { "ok" } else { "FAIL" },
        name,
        detail
    );
}

#[allow(clippy::too_many_lines)]
fn table1() {
    println!("== Table 1: methods provided in MADlib v0.3 (reproduction status) ==");
    let executor = Executor::new();
    let session = Session::new(Database::new(4).unwrap());

    // Supervised learning.
    let lin = datasets::linear_regression_data(2_000, 5, 0.1, 4, 1).unwrap();
    let lin_model = session
        .train(
            &LinearRegression::new("y", "x"),
            &Dataset::from_table(&lin.table),
        )
        .unwrap();
    check(
        "Linear Regression",
        lin_model.r2 > 0.9,
        format!("r2 = {:.4}", lin_model.r2),
    );

    let logit = datasets::logistic_regression_data(2_000, 3, 4, 2).unwrap();
    let logit_model = session
        .train(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&logit.table),
        )
        .unwrap();
    check(
        "Logistic Regression",
        logit_model.converged,
        format!("{} IRLS iterations", logit_model.num_iterations),
    );

    let nb_schema = Schema::new(vec![
        Column::new("label", ColumnType::Text),
        Column::new("features", ColumnType::DoubleArray),
    ]);
    let mut nb_table = Table::new(nb_schema.clone(), 4).unwrap();
    for i in 0..200 {
        let (label, center) = if i % 2 == 0 { ("a", 0.0) } else { ("b", 5.0) };
        nb_table
            .insert(row![label, vec![center + (i % 7) as f64 * 0.1]])
            .unwrap();
    }
    let nb = session
        .train(
            &NaiveBayes::new("label", "features"),
            &Dataset::from_table(&nb_table),
        )
        .unwrap();
    check(
        "Naive Bayes Classification",
        nb.predict(&[0.1]).unwrap() == "a" && nb.predict(&[5.1]).unwrap() == "b",
        format!("{} classes", nb.classes.len()),
    );

    let mut dt_table = Table::new(nb_schema, 4).unwrap();
    for i in 0..200 {
        let x = i as f64 / 20.0;
        let label = if x > 5.0 { "high" } else { "low" };
        dt_table.insert(row![label, vec![x]]).unwrap();
    }
    let dt = session
        .train(
            &DecisionTree::new("label", "features"),
            &Dataset::from_table(&dt_table),
        )
        .unwrap();
    check(
        "Decision Trees (C4.5)",
        dt.predict(&[9.0]).unwrap() == "high" && dt.predict(&[1.0]).unwrap() == "low",
        format!("{} leaves", dt.leaf_count()),
    );

    let svm_data = datasets::logistic_regression_data(1_000, 3, 4, 5).unwrap();
    let svm = session
        .train(
            &LinearSvm::new("y", "x").with_epochs(15),
            &Dataset::from_table(&svm_data.table),
        )
        .unwrap();
    check(
        "Support Vector Machines",
        svm.final_objective.is_finite(),
        format!("objective = {:.4}", svm.final_objective),
    );

    // Unsupervised learning.
    let blobs = datasets::gaussian_blobs(600, 3, 2, 0.5, 4, 7).unwrap();
    let km = session
        .train(
            &KMeans::new("coords", 3).unwrap(),
            &Dataset::from_table(&blobs.table),
        )
        .unwrap();
    check(
        "k-Means Clustering",
        km.converged,
        format!("{} iterations, inertia = {:.1}", km.iterations, km.inertia),
    );

    let ratings = datasets::ratings_data(30, 25, 2, 0.5, 4, 9).unwrap();
    let mf = session
        .train(
            &LowRankFactorization::new("user_id", "item_id", "rating", 4)
                .unwrap()
                .with_epochs(40),
            &Dataset::from_table(&ratings),
        )
        .unwrap();
    check(
        "SVD Matrix Factorization",
        mf.train_rmse < 0.3,
        format!("train RMSE = {:.4}", mf.train_rmse),
    );

    let corpus = datasets::document_corpus(30, 3, 15, 40, 4, 11).unwrap();
    let lda = session
        .train(
            &Lda::new("tokens", 3)
                .unwrap()
                .with_alpha(0.1)
                .with_iterations(80),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    check(
        "Latent Dirichlet Allocation",
        lda.top_words(0, 5).unwrap().len() == 5,
        format!(
            "{} topics over {} words",
            lda.num_topics,
            lda.vocabulary.len()
        ),
    );

    let baskets = datasets::market_basket_data(800, 25, 4, 13).unwrap();
    let basket_model = session
        .train(
            &Apriori::new("items", 0.2, 0.6).unwrap(),
            &Dataset::from_table(&baskets),
        )
        .unwrap();
    check(
        "Association Rules",
        !basket_model.rules.is_empty(),
        format!("{} rules found", basket_model.rules.len()),
    );

    // Descriptive statistics.
    let mut cm = CountMinSketch::with_error_bounds(0.01, 0.01);
    for i in 0..10_000u64 {
        cm.update(&format!("key{}", i % 97), 1);
    }
    check(
        "Count-Min Sketch",
        cm.estimate("key0") >= 10_000 / 97,
        format!("estimate(key0) = {}", cm.estimate("key0")),
    );

    let mut fm = FlajoletMartin::new(64);
    for i in 0..5_000 {
        fm.update(&format!("user{i}"));
    }
    check(
        "Flajolet-Martin Sketch",
        (fm.estimate() - 5_000.0).abs() / 5_000.0 < 0.35,
        format!("estimate = {:.0} (true 5000)", fm.estimate()),
    );

    let profile = profile_table(&executor, &lin.table).unwrap();
    check(
        "Data Profiling",
        profile.columns.len() == 2,
        format!("{} columns profiled", profile.columns.len()),
    );

    let mut quantiles = QuantileSummary::new(0.01);
    for i in 0..10_000 {
        quantiles.insert(i as f64);
    }
    check(
        "Quantiles",
        (quantiles.median().unwrap() - 5_000.0).abs() < 300.0,
        format!("median ≈ {:.0}", quantiles.median().unwrap()),
    );

    // Support modules.
    let sparse = SparseVector::from_dense(&[0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 1.0]);
    check(
        "Sparse Vectors",
        sparse.run_count() < sparse.len(),
        format!("{} runs for {} elements", sparse.run_count(), sparse.len()),
    );
    check(
        "Array Operations",
        madlib_linalg::array_ops::array_dot(&[1.0, 2.0], &[3.0, 4.0]).unwrap() == 11.0,
        "dot([1,2],[3,4]) = 11".to_owned(),
    );
    let spd = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
    let cg =
        conjugate_gradient_solve(&spd, &DenseVector::from_vec(vec![1.0, 2.0]), 1e-10, 50).unwrap();
    check(
        "Conjugate Gradient",
        cg.converged,
        format!("{} iterations", cg.iterations),
    );
    println!();
}

fn table2() {
    println!("== Table 2: models implemented via the convex (SGD) framework ==");
    let executor = Executor::new();
    let run = |name: &str,
               objective: &dyn DynObjective,
               table: &Table,
               initial: Vec<f64>,
               epochs: usize| {
        let runner = IgdRunner::new(IgdConfig {
            max_epochs: epochs,
            tolerance: 1e-8,
            schedule: StepSchedule::Constant(0.05),
        });
        let db = Database::new(table.num_segments()).unwrap();
        let summary = objective.run(&runner, &executor, &db, table, initial);
        let reduction = 100.0 * (1.0 - summary.1 / summary.0.max(1e-12));
        println!(
            "  {:<22} initial objective {:>12.4}  final {:>12.4}  reduction {:>5.1}%  epochs {}",
            name, summary.0, summary.1, reduction, summary.2
        );
    };

    let reg = datasets::linear_regression_data(3_000, 6, 0.1, 4, 21).unwrap();
    let cls = datasets::logistic_regression_data(3_000, 6, 4, 22).unwrap();

    let ls = LeastSquaresObjective::new("y", "x", 6);
    run("Least Squares", &ls, &reg.table, vec![0.0; 6], 40);
    let lasso = LassoObjective::new("y", "x", 6, 0.01);
    run("Lasso", &lasso, &reg.table, vec![0.0; 6], 40);
    let logistic = LogisticObjective::new("y", "x", 6);
    run(
        "Logistic Regression",
        &logistic,
        &cls.table,
        vec![0.0; 6],
        40,
    );
    let svm = SvmHingeObjective::new("y", "x", 6, 1e-3);
    run("Classification (SVM)", &svm, &cls.table, vec![0.0; 6], 40);

    let ratings = datasets::ratings_data(40, 30, 2, 0.4, 4, 23).unwrap();
    let mf = MatrixFactorizationObjective::new("user_id", "item_id", "rating", 40, 30, 4, 1e-4);
    let initial = mf.initial_model();
    run("Recommendation", &mf, &ratings, initial, 80);

    let crf_table = crf_corpus(60, 4);
    let crf = CrfObjective::new("observations", "labels", 2, 4);
    let crf_dim = crf.dimension();
    run("Labeling (CRF)", &crf, &crf_table, vec![0.0; crf_dim], 40);
    println!();
}

/// Object-safe adapter so `table2` can iterate heterogeneous objectives.
trait DynObjective {
    fn run(
        &self,
        runner: &IgdRunner,
        executor: &Executor,
        db: &Database,
        table: &Table,
        initial: Vec<f64>,
    ) -> (f64, f64, usize);
}

impl<O: ConvexObjective> DynObjective for O {
    fn run(
        &self,
        runner: &IgdRunner,
        executor: &Executor,
        db: &Database,
        table: &Table,
        initial: Vec<f64>,
    ) -> (f64, f64, usize) {
        let summary = runner
            .run(executor, db, table, self, initial)
            .expect("IGD training failed");
        (
            summary.initial_objective_value,
            summary.objective_value,
            summary.epochs,
        )
    }
}

/// Small synthetic CRF training corpus shared by table2/table3.
fn crf_corpus(sequences: usize, segments: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("observations", ColumnType::IntArray),
        Column::new("labels", ColumnType::IntArray),
    ]);
    let mut t = Table::new(schema, segments).unwrap();
    for s in 0..sequences {
        let length = 6 + s % 4;
        let mut observations = Vec::new();
        let mut labels = Vec::new();
        for idx in 0..length {
            let label = (idx + s) % 2;
            observations.push((label * 2 + s % 2) as i64);
            labels.push(label as i64);
        }
        t.insert(Row::new(vec![
            Value::IntArray(observations),
            Value::IntArray(labels),
        ]))
        .unwrap();
    }
    t
}

fn table3() {
    println!("== Table 3: statistical text-analysis methods (POS / NER / ER) ==");
    let db = Database::new(4).unwrap();

    // Text feature extraction.
    let extractor = FeatureExtractor::new().with_dictionary("person", ["tim", "alice", "bob"]);
    let tokens = madlib_text::tokenize("Tim Tebow visited Denver in 2011");
    let features = extractor.extract(&tokens);
    check(
        "Text Feature Extraction",
        features[0].active.iter().any(|f| f == "dict:person"),
        format!(
            "{} tokens, {} features on token 0",
            tokens.len(),
            features[0].active.len()
        ),
    );

    // CRF training + Viterbi inference.
    let corpus = crf_corpus(60, 4);
    let crf = Session::new(db.clone())
        .train(
            &CrfEstimator::new("observations", "labels", 2, 4).with_epochs(40),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    let observations = [0usize, 3, 0, 3, 0];
    let (labels, score) = viterbi_decode(&crf, &observations).unwrap();
    check(
        "Viterbi Inference",
        labels == vec![0, 1, 0, 1, 0],
        format!("decoded {labels:?} with score {score:.2}"),
    );

    // MCMC inference.
    let config = McmcConfig {
        samples: 400,
        burn_in: 100,
        seed: 5,
    };
    let gibbs = gibbs_sample(&crf, &observations, &config).unwrap();
    let mh = metropolis_hastings_sample(&crf, &observations, &config).unwrap();
    check(
        "MCMC Inference (Gibbs/MH)",
        gibbs.map_labels == labels && mh.map_labels == labels,
        format!(
            "Gibbs confidence {:.2}, MH acceptance {:.2}",
            gibbs.marginals[0][labels[0]], mh.acceptance_rate
        ),
    );

    // Approximate string matching (entity resolution).
    let mut index = TrigramIndex::new();
    index.insert("Tim Tebow threw for 300 yards");
    index.insert("Peyton Manning led the drive");
    index.insert("tim tebo signs autographs");
    let matches = index.search("Tim Tebow", 0.5);
    check(
        "Approximate String Matching",
        matches.len() == 2,
        format!("{} approximate mentions of 'Tim Tebow'", matches.len()),
    );
    println!();
}

fn logistic() {
    println!("== Section 4.2: logistic regression via the IRLS driver (Figure 3 control flow) ==");
    let session = Session::new(Database::new(4).unwrap());
    let data = datasets::logistic_regression_data(20_000, 10, 4, 31).unwrap();
    let start = Instant::now();
    let model = session
        .train(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&data.table),
        )
        .unwrap();
    println!(
        "  20k rows × 10 variables: {} iterations, converged = {}, {:.3}s total, log-likelihood {:.1}\n",
        model.num_iterations,
        model.converged,
        start.elapsed().as_secs_f64(),
        model.log_likelihood
    );
}

fn kmeans() {
    println!("== Section 4.3: k-means large-state iteration ==");
    let session = Session::new(Database::new(4).unwrap());
    let data = datasets::gaussian_blobs(20_000, 5, 8, 1.0, 4, 37).unwrap();
    let start = Instant::now();
    let model = session
        .train(
            &KMeans::new("coords", 5).unwrap(),
            &Dataset::from_table(&data.table),
        )
        .unwrap();
    println!(
        "  20k points × 8 dims, k=5: {} iterations, converged = {}, inertia {:.0}, {:.3}s total\n",
        model.iterations,
        model.converged,
        model.inertia,
        start.elapsed().as_secs_f64()
    );
}

fn overhead() {
    println!("== Section 4.4: per-query overhead of the aggregate machinery ==");
    let table = madlib_bench::figure4_table(10, 2, 4, 3);
    let start = Instant::now();
    let iterations = 100;
    for _ in 0..iterations {
        let _ = madlib_bench::measure_linregr(&table, KernelGeneration::V03);
    }
    let per_query = start.elapsed().as_secs_f64() / iterations as f64;
    println!(
        "  tiny (10-row) linregr query: {:.6}s per query ({} samples) — the paper reports a fraction of a second\n",
        per_query, iterations
    );
}

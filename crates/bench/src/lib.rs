//! # madlib-bench
//!
//! Workload generators and measurement helpers shared by the Criterion
//! benches and the `repro` binary, which together regenerate every table and
//! figure in the MADlib paper's evaluation:
//!
//! * **Figure 4 / Figure 5** — linear-regression execution times swept over
//!   the number of segments, the number of independent variables, and the
//!   three inner-loop generations (v0.1alpha / v0.2.1beta / v0.3).
//! * **Table 1** — the method inventory, exercised end-to-end.
//! * **Table 2** — the models implemented on the SGD framework.
//! * **Table 3** — the statistical text-analysis methods.
//!
//! The paper ran on a 24-core Greenplum cluster with 10 M-row tables; the
//! default sizes here are scaled down so the full reproduction runs on a
//! laptop in minutes, and the `repro` binary accepts `--full` to sweep the
//! paper's original parameter grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use madlib_core::datasets::linear_regression_data;
use madlib_core::regress::linear::LinRegrState;
use madlib_core::regress::{LinearRegression, LinearRegressionModel};
use madlib_core::train::{Estimator, Session};
use madlib_core::{FeatureScorer, Predictor};
use madlib_engine::{Aggregate, Dataset, ExecutionMode, Executor, Row, RowChunk, Schema, Table};
use madlib_linalg::kernels::KernelGeneration;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured cell of the Figure 4 table.
#[derive(Debug, Clone, PartialEq)]
pub struct LinregrMeasurement {
    /// Number of segments (parallel workers).
    pub segments: usize,
    /// Number of independent variables.
    pub variables: usize,
    /// Number of rows.
    pub rows: usize,
    /// Inner-loop generation measured.
    pub generation: KernelGeneration,
    /// Wall-clock execution time of the aggregate.
    pub elapsed: Duration,
}

/// Generates the dense regression table used by the Figure 4/5 experiments.
///
/// # Panics
/// Panics if generation fails (invalid sizes), which the callers never pass.
pub fn figure4_table(rows: usize, variables: usize, segments: usize, seed: u64) -> Table {
    linear_regression_data(rows, variables, 0.1, segments, seed)
        .expect("workload generation cannot fail for positive sizes")
        .table
}

/// Runs the linear-regression aggregate once on the default (chunk-at-a-time)
/// executor and reports the wall-clock time.
///
/// # Panics
/// Panics if the fit fails, which cannot happen for the generated workloads.
pub fn measure_linregr(table: &Table, generation: KernelGeneration) -> Duration {
    measure_linregr_mode(table, generation, ExecutionMode::Chunked)
}

/// Runs the linear-regression aggregate once under an explicit execution
/// mode — the row-path vs. chunk-path axis of the vectorization comparison.
///
/// # Panics
/// Panics if the fit fails, which cannot happen for the generated workloads.
pub fn measure_linregr_mode(
    table: &Table,
    generation: KernelGeneration,
    mode: ExecutionMode,
) -> Duration {
    let executor = Executor::new().with_mode(mode);
    let session = Session::in_memory(1).expect("positive segment count");
    let regression = LinearRegression::new("y", "x").with_kernel(generation);
    let start = Instant::now();
    let model = regression
        .fit(
            &Dataset::from_table(table).with_executor(executor),
            &session,
        )
        .expect("linear regression over generated data cannot fail");
    let elapsed = start.elapsed();
    // Keep the optimizer honest.
    assert!(model.coef.iter().all(|c| c.is_finite()));
    elapsed
}

/// Scan-only view of the linear-regression aggregate: same transition state,
/// same per-row and per-chunk inner loops, but a trivial final function (the
/// per-fit eigendecomposition of `XᵀX` is O(width³) and mode-independent, so
/// it would drown the transition comparison at large widths — the quantity
/// the paper's Figure 4 isolates is precisely the inner loop).
struct LinregrScan(LinearRegression);

impl Aggregate for LinregrScan {
    type State = LinRegrState;
    type Output = u64;

    fn initial_state(&self) -> LinRegrState {
        self.0.initial_state()
    }

    fn transition(
        &self,
        state: &mut LinRegrState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        self.0.transition(state, row, schema)
    }

    fn transition_chunk(
        &self,
        state: &mut LinRegrState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        self.0.transition_chunk(state, chunk, schema)
    }

    fn merge(&self, left: LinRegrState, right: LinRegrState) -> LinRegrState {
        self.0.merge(left, right)
    }

    fn finalize(&self, state: LinRegrState) -> madlib_engine::Result<u64> {
        Ok(state.num_rows)
    }
}

/// Times one scan (transition + merge, trivial finalize) of the
/// linear-regression aggregate under the given execution mode.
///
/// # Panics
/// Panics if the scan fails, which cannot happen for generated workloads.
pub fn measure_linregr_scan(table: &Table, mode: ExecutionMode) -> Duration {
    let executor = Executor::new().with_mode(mode);
    let scan = LinregrScan(LinearRegression::new("y", "x"));
    let start = Instant::now();
    let rows = executor
        .aggregate(table, &scan)
        .expect("linregr scan over generated data cannot fail");
    let elapsed = start.elapsed();
    assert_eq!(rows as usize, table.row_count());
    elapsed
}

/// The median of a non-empty set of timings (the upper middle one for an
/// even count).
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// One cell of the row-path vs. chunk-path comparison: median-of-`samples`
/// scan time per mode for the v0.3 kernel at the given table shape.
///
/// Caveat on interpreting the ratio: since storage is now column-major, the
/// row-at-a-time baseline materializes each row from chunks (one `Vec<Value>`
/// plus a feature-array clone per row) — overhead the original row-storage
/// engine did not pay.  At the 1 000-wide acceptance shape that
/// materialization is noise (an 8 KB copy against a 500 k-FLOP walk over a
/// multi-megabyte accumulator, so the gap there is genuinely the tiled
/// kernel), but at small widths it is a visible part of the measured ratio.
///
/// # Panics
/// Panics when `samples == 0` or workload generation fails.
pub fn measure_row_vs_chunk(
    rows: usize,
    variables: usize,
    segments: usize,
    samples: usize,
) -> (Duration, Duration) {
    assert!(samples > 0, "need at least one sample");
    let table = figure4_table(rows, variables, segments, 42 + variables as u64);
    let time_mode = |mode: ExecutionMode| -> Duration {
        median(
            (0..samples)
                .map(|_| measure_linregr_scan(&table, mode))
                .collect(),
        )
    };
    (
        time_mode(ExecutionMode::RowAtATime),
        time_mode(ExecutionMode::Chunked),
    )
}

/// One measured cell of the grouped row-path vs. chunk-path comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedMeasurement {
    /// Number of rows.
    pub rows: usize,
    /// Number of independent variables.
    pub variables: usize,
    /// Number of distinct groups.
    pub groups: usize,
    /// Number of segments.
    pub segments: usize,
    /// Median wall-clock time of the PR-1-style row loop (single-threaded,
    /// per-row transitions).
    pub row_path: Duration,
    /// Median wall-clock time of the segment-parallel chunked grouped scan.
    pub chunk_path: Duration,
}

impl GroupedMeasurement {
    /// Chunk-path speedup over the row-loop baseline.
    pub fn speedup(&self) -> f64 {
        self.row_path.as_secs_f64() / self.chunk_path.as_secs_f64()
    }
}

/// Generates the grouped regression table used by the grouped sweep: the
/// Figure 4 workload plus a leading `grp` bigint column cycling over
/// `groups` distinct keys, so each group is its own (smaller) regression
/// problem — the paper's Section 4.2 "one model per group in a single pass"
/// shape.  The table is hash-distributed on `grp` (Greenplum's
/// `DISTRIBUTED BY` for a grouped workload), which co-locates each group's
/// rows in one segment.
///
/// # Panics
/// Panics if generation fails (invalid sizes), which the callers never pass.
pub fn grouped_regression_table(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    seed: u64,
) -> Table {
    use madlib_engine::table::Distribution;
    use madlib_engine::{Column, ColumnType, Value};
    assert!(groups > 0, "need at least one group");
    let base = figure4_table(rows, variables, 1, seed);
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table =
        Table::with_distribution(schema, segments, Distribution::HashColumn("grp".into()))
            .expect("positive segment count");
    for (i, row) in base.iter().enumerate() {
        let mut values = Vec::with_capacity(3);
        values.push(Value::Int((i % groups) as i64));
        values.extend(row.into_values());
        table
            .insert(Row::new(values))
            .expect("generated rows match the schema");
    }
    table
}

/// Times one grouped scan (transition + merge per group, trivial finalize)
/// of the linear-regression aggregate under the given executor.
///
/// # Panics
/// Panics if the scan fails or loses rows, which cannot happen for the
/// generated workloads.
pub fn measure_grouped_linregr_scan(table: &Table, executor: &Executor, groups: usize) -> Duration {
    let scan = LinregrScan(LinearRegression::new("y", "x"));
    let start = Instant::now();
    let result = Dataset::from_table(table)
        .with_executor(*executor)
        .group_by(["grp"])
        .aggregate_per_group(&scan)
        .expect("grouped linregr scan over generated data cannot fail");
    let elapsed = start.elapsed();
    assert_eq!(result.len(), groups.min(table.row_count()));
    let total: u64 = result.iter().map(|(_, rows)| rows).sum();
    assert_eq!(total as usize, table.row_count());
    elapsed
}

/// Times the PR-1 grouped row loop verbatim: a single coordinator thread
/// walks every segment row by row, keys the state map by the group value's
/// *display string* (the old `Value::to_string()` scheme, with its
/// allocation per row), and feeds per-row transitions.  This is the
/// baseline the chunked grouped path is measured against.
///
/// # Panics
/// Panics if a transition fails, which cannot happen for generated
/// workloads.
pub fn measure_grouped_legacy_row_loop(table: &Table, groups: usize) -> Duration {
    use madlib_engine::Value;
    use std::collections::HashMap;
    let scan = LinregrScan(LinearRegression::new("y", "x"));
    let schema = table.schema();
    let group_idx = schema.index_of("grp").expect("grp column exists");
    let start = Instant::now();
    let mut states: HashMap<String, (Value, LinRegrState)> = HashMap::new();
    for seg in 0..table.num_segments() {
        for row in table.segment(seg).iter() {
            let key_value = row.get(group_idx).clone();
            let key = key_value.to_string();
            let entry = states
                .entry(key)
                .or_insert_with(|| (key_value.clone(), scan.initial_state()));
            scan.transition(&mut entry.1, &row, schema)
                .expect("transition over generated data cannot fail");
        }
    }
    let total: u64 = states.values().map(|(_, s)| s.num_rows).sum();
    let elapsed = start.elapsed();
    assert_eq!(total as usize, table.row_count());
    assert_eq!(states.len(), groups.min(table.row_count()));
    elapsed
}

/// Generates the composite-key variant of the grouped workload: the
/// [`grouped_regression_table`] shape plus a second `sub` bigint grouping
/// column, so `group_by(["grp", "sub"])` yields `groups × subgroups`
/// distinct composite keys.  Hash-distributed on `grp`, as before.
///
/// # Panics
/// Panics if generation fails (invalid sizes), which the callers never pass.
pub fn grouped_composite_regression_table(
    rows: usize,
    variables: usize,
    groups: usize,
    subgroups: usize,
    segments: usize,
    seed: u64,
) -> Table {
    use madlib_engine::table::Distribution;
    use madlib_engine::{Column, ColumnType, Value};
    assert!(groups > 0 && subgroups > 0, "need at least one group");
    let base = figure4_table(rows, variables, 1, seed);
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("sub", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table =
        Table::with_distribution(schema, segments, Distribution::HashColumn("grp".into()))
            .expect("positive segment count");
    for (i, row) in base.iter().enumerate() {
        let mut values = Vec::with_capacity(4);
        values.push(Value::Int((i % groups) as i64));
        values.push(Value::Int(((i / groups) % subgroups) as i64));
        values.extend(row.into_values());
        table
            .insert(Row::new(values))
            .expect("generated rows match the schema");
    }
    table
}

/// Times one *composite-key* grouped scan — `group_by(["grp", "sub"])` with
/// the linear-regression transition — under the given executor, and checks
/// that no rows were lost across the composite groups.
///
/// # Panics
/// Panics if the scan fails or loses rows, which cannot happen for the
/// generated workloads.
pub fn measure_grouped_composite_scan(
    table: &Table,
    executor: &Executor,
    expected_groups: usize,
) -> Duration {
    let scan = LinregrScan(LinearRegression::new("y", "x"));
    let start = Instant::now();
    let result = Dataset::from_table(table)
        .with_executor(*executor)
        .group_by(["grp", "sub"])
        .aggregate_per_group(&scan)
        .expect("composite grouped scan over generated data cannot fail");
    let elapsed = start.elapsed();
    assert_eq!(result.len(), expected_groups.min(table.row_count()));
    assert!(result.iter().all(|(key, _)| key.arity() == 2));
    let total: u64 = result.iter().map(|(_, rows)| rows).sum();
    assert_eq!(total as usize, table.row_count());
    elapsed
}

/// One cell of the composite-key grouped comparison: median-of-`samples`
/// row-at-a-time vs. chunked times for a `group_by(["grp", "sub"])` scan
/// over `groups × subgroups` composite keys.  (The PR-1 legacy loop cannot
/// express composite keys, so the baseline here is the engine's
/// `ExecutionMode::RowAtATime` grouped scan.)
///
/// # Panics
/// Panics when `samples == 0` or workload generation fails.
pub fn measure_grouped_composite_row_vs_chunk(
    rows: usize,
    variables: usize,
    groups: usize,
    subgroups: usize,
    segments: usize,
    samples: usize,
) -> GroupedMeasurement {
    assert!(samples > 0, "need at least one sample");
    let table = grouped_composite_regression_table(
        rows,
        variables,
        groups,
        subgroups,
        segments,
        42 + (groups * subgroups) as u64,
    );
    let expected = groups * subgroups;
    let row_executor = Executor::row_at_a_time();
    let row_path = median(
        (0..samples)
            .map(|_| measure_grouped_composite_scan(&table, &row_executor, expected))
            .collect(),
    );
    let chunked_executor = Executor::new();
    let chunk_path = median(
        (0..samples)
            .map(|_| measure_grouped_composite_scan(&table, &chunked_executor, expected))
            .collect(),
    );
    GroupedMeasurement {
        rows,
        variables,
        groups: expected,
        segments,
        row_path,
        chunk_path,
    }
}

/// One cell of the grouped comparison: median-of-`samples` times for the
/// legacy row loop vs. the segment-parallel chunked grouped scan on the same
/// table.
///
/// # Panics
/// Panics when `samples == 0` or workload generation fails.
pub fn measure_grouped_row_vs_chunk(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    samples: usize,
) -> GroupedMeasurement {
    assert!(samples > 0, "need at least one sample");
    let table = grouped_regression_table(rows, variables, groups, segments, 42 + groups as u64);
    let row_path = median(
        (0..samples)
            .map(|_| measure_grouped_legacy_row_loop(&table, groups))
            .collect(),
    );
    let chunked_executor = Executor::new();
    let chunk_path = median(
        (0..samples)
            .map(|_| measure_grouped_linregr_scan(&table, &chunked_executor, groups))
            .collect(),
    );
    GroupedMeasurement {
        rows,
        variables,
        groups,
        segments,
        row_path,
        chunk_path,
    }
}

/// One measured cell of the grouped-*training* comparison: full per-group
/// linear-regression fits (transition + merge + per-group finalize) through
/// `Session::train_grouped`, chunked vs row-at-a-time execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedTrainingMeasurement {
    /// Number of rows.
    pub rows: usize,
    /// Number of independent variables.
    pub variables: usize,
    /// Number of distinct groups (= models trained per call).
    pub groups: usize,
    /// Number of segments.
    pub segments: usize,
    /// Median wall-clock time of the row-at-a-time grouped training pass.
    pub row_path: Duration,
    /// Median wall-clock time of the chunked grouped training pass.
    pub chunk_path: Duration,
}

impl GroupedTrainingMeasurement {
    /// Chunk-path speedup over the row-at-a-time baseline.
    pub fn speedup(&self) -> f64 {
        self.row_path.as_secs_f64() / self.chunk_path.as_secs_f64()
    }
}

/// Times one grouped training call — `Session::train_grouped` with linear
/// regression over a `group_by("grp")` dataset, i.e. one fitted model per
/// group in a single grouped scan — under the given executor.
///
/// # Panics
/// Panics if training fails or produces the wrong number of models, which
/// cannot happen for the generated workloads.
pub fn measure_grouped_training_pass(table: &Table, executor: Executor, groups: usize) -> Duration {
    let session = Session::in_memory(table.num_segments())
        .expect("positive segment count")
        .with_executor(executor);
    let dataset = Dataset::from_table(table).group_by(["grp"]);
    let estimator = LinearRegression::new("y", "x");
    let start = Instant::now();
    let models = session
        .train_grouped(&estimator, &dataset)
        .expect("grouped training over generated data cannot fail");
    let elapsed = start.elapsed();
    assert_eq!(models.len(), groups.min(table.row_count()));
    let total: u64 = models.iter().map(|(_, m)| m.num_rows).sum();
    assert_eq!(total as usize, table.row_count());
    elapsed
}

/// One cell of the grouped-training comparison: median-of-`samples` times
/// for `Session::train_grouped` per-group linregr under row vs chunk mode.
///
/// # Panics
/// Panics when `samples == 0` or workload generation fails.
pub fn measure_grouped_training(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    samples: usize,
) -> GroupedTrainingMeasurement {
    assert!(samples > 0, "need at least one sample");
    let table = grouped_regression_table(rows, variables, groups, segments, 77 + groups as u64);
    let row_path = median(
        (0..samples)
            .map(|_| measure_grouped_training_pass(&table, Executor::row_at_a_time(), groups))
            .collect(),
    );
    let chunk_path = median(
        (0..samples)
            .map(|_| measure_grouped_training_pass(&table, Executor::new(), groups))
            .collect(),
    );
    GroupedTrainingMeasurement {
        rows,
        variables,
        groups,
        segments,
        row_path,
        chunk_path,
    }
}

/// Generates the Zipf-skewed multi-tenant variant of the grouped workload:
/// group `g` (0-based rank) holds a share of the rows proportional to
/// `1/(g+1)`, so the top tenant owns a large fraction of the table while the
/// tail groups hold a handful of rows each — and hash distribution on `grp`
/// piles the hot tenant's rows onto one segment.  Every group gets at least
/// one row (`rows >= groups` required), so model/group counts stay exact.
///
/// # Panics
/// Panics when `rows < groups` or generation fails.
pub fn zipf_grouped_regression_table(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    seed: u64,
) -> Table {
    use madlib_engine::table::Distribution;
    use madlib_engine::{Column, ColumnType, Value};
    assert!(groups > 0, "need at least one group");
    assert!(rows >= groups, "need at least one row per group");
    let counts = zipf_group_sizes(rows, groups);
    let base = figure4_table(rows, variables, 1, seed);
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table =
        Table::with_distribution(schema, segments, Distribution::HashColumn("grp".into()))
            .expect("positive segment count");
    let mut group = 0usize;
    let mut remaining_in_group = counts[0];
    for row in base.iter() {
        while remaining_in_group == 0 {
            group += 1;
            remaining_in_group = counts[group];
        }
        remaining_in_group -= 1;
        let mut values = Vec::with_capacity(3);
        values.push(Value::Int(group as i64));
        values.extend(row.into_values());
        table
            .insert(Row::new(values))
            .expect("generated rows match the schema");
    }
    table
}

/// Zipf(1) apportionment of `rows` over `groups` ranks: one guaranteed row
/// per group, the rest split by largest remainder on weights `1/(g+1)`.
fn zipf_group_sizes(rows: usize, groups: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..groups).map(|g| 1.0 / (g as f64 + 1.0)).collect();
    let total_weight: f64 = weights.iter().sum();
    let spare = rows - groups;
    let mut counts = Vec::with_capacity(groups);
    let mut fractions: Vec<(f64, usize)> = Vec::with_capacity(groups);
    let mut assigned = 0usize;
    for (g, w) in weights.iter().enumerate() {
        let quota = spare as f64 * w / total_weight;
        let floor = quota.floor() as usize;
        counts.push(1 + floor);
        assigned += floor;
        fractions.push((quota - floor as f64, g));
    }
    // Largest-remainder: hand the leftover rows to the biggest fractions.
    fractions.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, g) in fractions.iter().take(spare - assigned) {
        counts[*g] += 1;
    }
    counts
}

/// One measured cell of the scheduler comparison on the Zipf-skewed
/// multi-tenant shape: the engine's work-stealing
/// [`run_per_segment`](madlib_engine::scan::run_per_segment) against the pre-stealing static striping policy,
/// both running the same per-segment linregr accumulation with the same
/// worker count.
///
/// Wall-clock times tell the story only when the host has at least `workers`
/// cores (time-slicing hides scheduling quality on fewer); the simulated
/// makespans — busiest worker's row share under each policy, computed from
/// the actual per-segment row counts — capture the scheduling difference
/// deterministically on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfScheduleMeasurement {
    /// Number of rows.
    pub rows: usize,
    /// Number of independent variables.
    pub variables: usize,
    /// Number of Zipf-ranked groups.
    pub groups: usize,
    /// Number of segments.
    pub segments: usize,
    /// Worker count both policies ran with.
    pub workers: usize,
    /// Median wall-clock time under the work-stealing scheduler.
    pub stealing: Duration,
    /// Median wall-clock time under static striping.
    pub striped: Duration,
    /// Simulated makespan (busiest worker's rows) under work stealing.
    pub stealing_makespan_rows: usize,
    /// Simulated makespan (busiest worker's rows) under static striping.
    pub striped_makespan_rows: usize,
}

impl ZipfScheduleMeasurement {
    /// Wall-clock advantage of stealing over striping (>1 = stealing faster).
    pub fn wall_clock_ratio(&self) -> f64 {
        self.striped.as_secs_f64() / self.stealing.as_secs_f64()
    }

    /// Makespan advantage of stealing over striping (>1 = stealing better
    /// balanced); this is the wall-clock ratio a `workers`-core host would
    /// approach.
    pub fn makespan_ratio(&self) -> f64 {
        self.striped_makespan_rows as f64 / self.stealing_makespan_rows.max(1) as f64
    }
}

/// Static-striping reference scheduler — the pre-work-stealing
/// `run_per_segment` policy (worker `w` owns segments `w, w+W, ...`), kept
/// here so the benchmark can compare scheduling policies head-to-head.
fn run_per_segment_striped<T, F>(table: &Table, workers: usize, work: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, &madlib_engine::chunk::Segment) -> T + Sync,
{
    let num_segments = table.num_segments();
    let workers = workers.clamp(1, num_segments.max(1));
    let mut results: Vec<Option<T>> = (0..num_segments).map(|_| None).collect();
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..num_segments)
                        .step_by(workers)
                        .map(|seg| (seg, work(seg, table.segment(seg))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (seg, result) in handle.join().expect("bench worker does not panic") {
                results[seg] = Some(result);
            }
        }
    });
    results
}

/// Busiest worker's row count when segments are striped statically.
fn striped_makespan(segment_rows: &[usize], workers: usize) -> usize {
    (0..workers.max(1))
        .map(|w| segment_rows.iter().skip(w).step_by(workers.max(1)).sum())
        .max()
        .unwrap_or(0)
}

/// Busiest worker's row count under cursor-order work stealing: the worker
/// that frees up first claims the next segment (greedy list scheduling).
fn stealing_makespan(segment_rows: &[usize], workers: usize) -> usize {
    let mut loads = vec![0usize; workers.max(1)];
    for &rows in segment_rows {
        *loads.iter_mut().min().expect("at least one worker") += rows;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Measures the work-stealing scheduler against static striping on the
/// Zipf-skewed grouped table: both policies run the same per-segment linregr
/// state accumulation (the grouped scan's per-segment work) with `workers`
/// threads, and must produce identical per-segment states.
///
/// # Panics
/// Panics when `samples == 0`, generation fails, or the two schedulers
/// disagree on any per-segment result.
pub fn measure_zipf_schedulers(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    samples: usize,
    workers: usize,
) -> ZipfScheduleMeasurement {
    use madlib_engine::scan;
    assert!(samples > 0, "need at least one sample");
    let table =
        zipf_grouped_regression_table(rows, variables, groups, segments, 99 + groups as u64);
    let agg = LinregrScan(LinearRegression::new("y", "x"));
    let schema = table.schema();
    let accumulate = |segment: &madlib_engine::chunk::Segment| -> u64 {
        let mut state = agg.initial_state();
        scan::scan_segment_chunks(segment, schema, None, |batch| {
            agg.transition_chunk(&mut state, batch.chunk(), schema)
        })
        .expect("scan over generated data cannot fail");
        state.num_rows
    };

    // Pin both policies to the same worker count via the env override the
    // engine's worker_count() honours.
    let saved = std::env::var("MADLIB_THREADS").ok();
    std::env::set_var("MADLIB_THREADS", workers.to_string());
    let mut stealing_times = Vec::with_capacity(samples);
    let mut stealing_rows: Vec<u64> = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let per_segment = scan::run_per_segment(&table, true, |_, segment| Ok(accumulate(segment)));
        stealing_times.push(start.elapsed());
        stealing_rows = per_segment
            .into_iter()
            .map(|r| r.expect("bench worker does not panic"))
            .collect();
    }
    match saved {
        Some(value) => std::env::set_var("MADLIB_THREADS", value),
        None => std::env::remove_var("MADLIB_THREADS"),
    }

    let mut striped_times = Vec::with_capacity(samples);
    let mut striped_rows: Vec<u64> = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let per_segment = run_per_segment_striped(&table, workers, |_, s| accumulate(s));
        striped_times.push(start.elapsed());
        striped_rows = per_segment
            .into_iter()
            .map(|slot| slot.expect("every segment ran"))
            .collect();
    }
    assert_eq!(
        stealing_rows, striped_rows,
        "schedulers disagreed on per-segment results"
    );
    let total: u64 = stealing_rows.iter().sum();
    assert_eq!(total as usize, table.row_count());

    let segment_rows: Vec<usize> = stealing_rows.iter().map(|&r| r as usize).collect();
    ZipfScheduleMeasurement {
        rows,
        variables,
        groups,
        segments,
        workers,
        stealing: median(stealing_times),
        striped: median(striped_times),
        stealing_makespan_rows: stealing_makespan(&segment_rows, workers),
        striped_makespan_rows: striped_makespan(&segment_rows, workers),
    }
}

/// One cell of the grouped-training comparison on the Zipf-skewed table:
/// median-of-`samples` `Session::train_grouped` per-group linregr times,
/// row vs chunk mode, over [`zipf_grouped_regression_table`].
///
/// # Panics
/// Panics when `samples == 0` or workload generation fails.
pub fn measure_grouped_training_zipf(
    rows: usize,
    variables: usize,
    groups: usize,
    segments: usize,
    samples: usize,
) -> GroupedTrainingMeasurement {
    assert!(samples > 0, "need at least one sample");
    let table =
        zipf_grouped_regression_table(rows, variables, groups, segments, 55 + groups as u64);
    let row_path = median(
        (0..samples)
            .map(|_| measure_grouped_training_pass(&table, Executor::row_at_a_time(), groups))
            .collect(),
    );
    let chunk_path = median(
        (0..samples)
            .map(|_| measure_grouped_training_pass(&table, Executor::new(), groups))
            .collect(),
    );
    GroupedTrainingMeasurement {
        rows,
        variables,
        groups,
        segments,
        row_path,
        chunk_path,
    }
}

/// One measured cell of the kernel-tier sweep: a single batched linalg
/// kernel at one width, timed per dispatch tier.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMeasurement {
    /// Kernel under measurement (e.g. `"rank_k_update_lower"`).
    pub kernel: &'static str,
    /// Dispatch tier measured: `"scalar"` or `"simd"`.
    pub tier: &'static str,
    /// Feature-vector width (matrix dimension for the rank-k/gemm shapes).
    pub width: usize,
    /// Rows per kernel call.
    pub rows: usize,
    /// Median wall-clock time of one timed region (`reps` kernel calls).
    pub elapsed: Duration,
    /// Throughput in GFLOP/s over the region.
    pub gflops: f64,
}

/// Deterministic finite bench values in [-2, 2) (xorshift; no specials —
/// NaN/∞ would poison throughput numbers via subnormal/NaN slow paths).
fn kernel_bench_data(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 250.0 - 2.0
        })
        .collect()
}

/// Sweeps every rewritten batched kernel across the dispatch tiers —
/// `scalar` (reference) and `simd` (AVX2, when the host supports it) —
/// addressing the tier modules directly so the `MADLIB_SIMD` dispatch cache
/// cannot skew the comparison.  Each cell loops the kernel enough times to
/// retire ~`target_flops` floating-point operations and reports the
/// median-of-`samples` throughput.
///
/// # Panics
/// Panics when `samples == 0` or an internal shape is invalid (it cannot be
/// for the fixed sweep shapes).
pub fn measure_kernel_tiers(
    widths: &[usize],
    target_flops: f64,
    samples: usize,
) -> Vec<KernelMeasurement> {
    use madlib_linalg::kernels::{scalar, simd};
    assert!(samples > 0, "need at least one sample");
    const TIERS: [&str; 2] = ["scalar", "simd"];
    const CLOSEST_COLUMNS: usize = 8;
    let mut measurements = Vec::new();
    for &width in widths {
        assert!(width > 0, "kernel sweep widths must be positive");
        // Buffers stay bounded (~25 MB of rows at width 40); throughput
        // comes from repeating calls, not from giant single calls.
        let rows = (4_000_000 / width).clamp(64, 16_384);
        let xs = kernel_bench_data(rows * width, 11 + width as u64);
        let ys = kernel_bench_data(rows, 13);
        let weights = kernel_bench_data(rows, 17);
        let wvec = kernel_bench_data(width, 19);
        let center = kernel_bench_data(width, 23);
        let columns: Vec<Vec<f64>> = (0..CLOSEST_COLUMNS)
            .map(|c| kernel_bench_data(width, 29 + c as u64))
            .collect();
        let dense = |r: usize, c: usize, seed: u64| {
            madlib_linalg::DenseMatrix::from_row_major(r, c, kernel_bench_data(r * c, seed))
                .expect("bench shapes are consistent")
        };
        let a_mat = madlib_linalg::DenseMatrix::from_row_major(rows, width, xs.clone())
            .expect("bench shapes are consistent");
        let gemm_m = 64usize;
        let gemm_a = dense(gemm_m, width, 31);
        let gemm_b = dense(width, width, 37);

        let mut run = |kernel: &'static str, flops_per_call: f64, f: &mut dyn FnMut(usize)| {
            let reps = ((target_flops / flops_per_call).ceil() as usize).clamp(1, 1_000_000);
            for (tier_idx, &tier) in TIERS.iter().enumerate() {
                if tier == "simd" && !simd::available() {
                    continue;
                }
                f(tier_idx); // warm up (page in buffers, resolve branches)
                let elapsed = median(
                    (0..samples)
                        .map(|_| {
                            let start = Instant::now();
                            for _ in 0..reps {
                                f(tier_idx);
                            }
                            start.elapsed()
                        })
                        .collect(),
                );
                measurements.push(KernelMeasurement {
                    kernel,
                    tier,
                    width,
                    rows,
                    elapsed,
                    gflops: flops_per_call * reps as f64 / elapsed.as_secs_f64() / 1e9,
                });
            }
        };

        // Lower-triangle rank-k: one mul + one add per (i, j ≤ i) pair per row.
        let tri_flops = (rows * width * (width + 1)) as f64;
        let mut m = madlib_linalg::DenseMatrix::zeros(width, width);
        run("rank_k_update_lower", tri_flops, &mut |tier| {
            match tier {
                0 => scalar::rank_k_update_lower(&mut m, &xs, width),
                _ => simd::rank_k_update_lower(&mut m, &xs, width),
            }
            black_box(m.as_slice().first());
        });
        let mut m = madlib_linalg::DenseMatrix::zeros(width, width);
        run(
            "weighted_rank_k_update_lower",
            tri_flops + (rows * width) as f64,
            &mut |tier| {
                match tier {
                    0 => scalar::weighted_rank_k_update_lower(&mut m, &xs, &weights, width),
                    _ => simd::weighted_rank_k_update_lower(&mut m, &xs, &weights, width),
                }
                black_box(m.as_slice().first());
            },
        );
        let mut acc = vec![0.0f64; width];
        run("xty_update", (2 * rows * width) as f64, &mut |tier| {
            match tier {
                0 => scalar::xty_update(&mut acc, &xs, &ys, width),
                _ => simd::xty_update(&mut acc, &xs, &ys, width),
            }
            black_box(acc.first());
        });
        let mut out = vec![0.0f64; rows];
        run("batch_dot", (2 * rows * width) as f64, &mut |tier| {
            match tier {
                0 => scalar::batch_dot(&xs, &wvec, &mut out),
                _ => simd::batch_dot(&xs, &wvec, &mut out),
            }
            black_box(out.first());
        });
        let mut out = vec![0.0f64; rows];
        run(
            "batch_squared_distances",
            (3 * rows * width) as f64,
            &mut |tier| {
                match tier {
                    0 => scalar::batch_squared_distances(&xs, &center, &mut out),
                    _ => simd::batch_squared_distances(&xs, &center, &mut out),
                }
                black_box(out.first());
            },
        );
        let mut best = vec![0usize; rows];
        run(
            "batch_closest_column",
            (3 * rows * width * CLOSEST_COLUMNS) as f64,
            &mut |tier| {
                match tier {
                    0 => scalar::batch_closest_column(&columns, &xs, width, &mut best),
                    _ => simd::batch_closest_column(&columns, &xs, width, &mut best),
                }
                black_box(best.first());
            },
        );
        let mut y = vec![0.0f64; rows];
        run("gemv_acc", (2 * rows * width) as f64, &mut |tier| {
            match tier {
                0 => scalar::gemv_acc(1.0, &a_mat, &wvec, &mut y),
                _ => simd::gemv_acc(1.0, &a_mat, &wvec, &mut y),
            }
            black_box(y.first());
        });
        let mut out = madlib_linalg::DenseMatrix::zeros(gemm_m, width);
        run(
            "gemm_acc",
            (2 * gemm_m * width * width) as f64,
            &mut |tier| {
                match tier {
                    0 => scalar::gemm_acc(&mut out, &gemm_a, &gemm_b),
                    _ => simd::gemm_acc(&mut out, &gemm_a, &gemm_b),
                }
                black_box(out.as_slice().first());
            },
        );
    }
    measurements
}

/// The sweep's acceptance cell: scalar vs SIMD throughput for one kernel at
/// one width.  Returns `(scalar_gflops, simd_gflops, ratio)`, or `None` when
/// either tier was not measured — on a host without AVX2 there is no faster
/// tier to compare against.
pub fn kernel_speedup_cell(
    measurements: &[KernelMeasurement],
    kernel: &str,
    width: usize,
) -> Option<(f64, f64, f64)> {
    let of = |tier: &str| {
        measurements
            .iter()
            .find(|m| m.kernel == kernel && m.width == width && m.tier == tier)
            .map(|m| m.gflops)
    };
    let scalar = of("scalar")?;
    let simd = of("simd")?;
    Some((scalar, simd, simd / scalar))
}

/// One measured cell of the serving sweep: `Dataset::score` with the
/// linear-regression dot-product scorer, chunked vs row-at-a-time execution,
/// against the naive per-row predict loop a client would write without the
/// serving subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictMeasurement {
    /// Number of rows scored.
    pub rows: usize,
    /// Feature-vector width.
    pub width: usize,
    /// Number of segments.
    pub segments: usize,
    /// Median wall-clock time of the single-threaded per-row predict loop
    /// (materialize each row, call `Predictor::predict_value`).
    pub per_row_loop: Duration,
    /// Median wall-clock time of `Dataset::score` under
    /// [`ExecutionMode::RowAtATime`].
    pub row_mode: Duration,
    /// Median wall-clock time of `Dataset::score` under
    /// [`ExecutionMode::Chunked`] (the `batch_dot` override).
    pub chunk_mode: Duration,
}

impl PredictMeasurement {
    /// Chunked `Dataset::score` speedup over the per-row predict loop — the
    /// serving acceptance ratio.
    pub fn speedup_vs_loop(&self) -> f64 {
        self.per_row_loop.as_secs_f64() / self.chunk_mode.as_secs_f64()
    }

    /// Rows scored per second for one of the measured durations.
    pub fn rows_per_sec(&self, elapsed: Duration) -> f64 {
        self.rows as f64 / elapsed.as_secs_f64()
    }
}

/// Constructs a servable linear-regression model of the given width without
/// paying for a fit (deterministic non-trivial coefficients).
fn predict_bench_model(width: usize) -> LinearRegressionModel {
    LinearRegressionModel {
        coef: kernel_bench_data(width, 41 + width as u64),
        r2: 0.0,
        std_err: Vec::new(),
        t_stats: Vec::new(),
        p_values: Vec::new(),
        condition_no: 0.0,
        num_rows: 0,
    }
}

/// Times the naive client-side serving loop: walk every segment row by row,
/// materialize the row, pull the feature array out and call the model's
/// per-row `predict_value` — no chunks, no batched kernels, no parallelism.
///
/// # Panics
/// Panics if a prediction fails, which cannot happen for generated
/// workloads.
pub fn measure_predict_row_loop(table: &Table, model: &LinearRegressionModel) -> Duration {
    let schema = table.schema();
    let x_idx = schema.index_of("x").expect("x column exists");
    let start = Instant::now();
    let mut scored = 0usize;
    let mut acc = 0.0f64;
    for seg in 0..table.num_segments() {
        for row in table.segment(seg).iter() {
            let x = row
                .get(x_idx)
                .as_double_array()
                .expect("generated features are double arrays");
            let prediction = model
                .predict_value(x)
                .expect("predict over generated data cannot fail");
            if let madlib_engine::Value::Double(d) = prediction {
                acc += d;
            }
            scored += 1;
        }
    }
    let elapsed = start.elapsed();
    black_box(acc);
    assert_eq!(scored, table.row_count());
    elapsed
}

/// Times one `Dataset::score` pass over the table under the given execution
/// mode, with the linear-regression scorer.
///
/// # Panics
/// Panics if scoring fails or loses rows, which cannot happen for the
/// generated workloads.
pub fn measure_predict_scan(
    table: &Table,
    model: &LinearRegressionModel,
    mode: ExecutionMode,
) -> Duration {
    let executor = Executor::new().with_mode(mode);
    let scorer = FeatureScorer::new(model, "x");
    let start = Instant::now();
    let predictions = Dataset::from_table(table)
        .with_executor(executor)
        .score(&scorer)
        .expect("scoring generated data cannot fail");
    let elapsed = start.elapsed();
    black_box(predictions.first());
    assert_eq!(predictions.len(), table.row_count());
    elapsed
}

/// One cell of the serving sweep: median-of-`samples` times for the per-row
/// predict loop, row-at-a-time `Dataset::score` and chunked `Dataset::score`
/// on the same generated table — after checking the three plans agree on the
/// predictions bit for bit.
///
/// # Panics
/// Panics when `samples == 0`, generation fails, or the three serving plans
/// disagree on any prediction.
pub fn measure_predict(
    rows: usize,
    width: usize,
    segments: usize,
    samples: usize,
) -> PredictMeasurement {
    assert!(samples > 0, "need at least one sample");
    let table = figure4_table(rows, width, segments, 61 + width as u64);
    let model = predict_bench_model(width);

    // Fidelity first: the vectorized pass must not buy speed with drift.
    let scorer = FeatureScorer::new(&model, "x");
    let chunked = Dataset::from_table(&table)
        .score(&scorer)
        .expect("scoring generated data cannot fail");
    let by_rows = Dataset::from_table(&table)
        .with_executor(Executor::row_at_a_time())
        .score(&scorer)
        .expect("scoring generated data cannot fail");
    assert_eq!(chunked, by_rows, "chunked scoring diverged from row mode");

    let per_row_loop = median(
        (0..samples)
            .map(|_| measure_predict_row_loop(&table, &model))
            .collect(),
    );
    let row_mode = median(
        (0..samples)
            .map(|_| measure_predict_scan(&table, &model, ExecutionMode::RowAtATime))
            .collect(),
    );
    let chunk_mode = median(
        (0..samples)
            .map(|_| measure_predict_scan(&table, &model, ExecutionMode::Chunked))
            .collect(),
    );
    PredictMeasurement {
        rows,
        width,
        segments,
        per_row_loop,
        row_mode,
        chunk_mode,
    }
}

/// One measured cell of the raw dot-product scoring kernel per dispatch
/// tier: `batch_dot` over a flat feature buffer, reported in millions of
/// rows scored per second.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictKernelMeasurement {
    /// Dispatch tier measured: `"scalar"` or `"simd"`.
    pub tier: &'static str,
    /// Feature-vector width.
    pub width: usize,
    /// Rows per kernel call.
    pub rows: usize,
    /// Median wall-clock time of one timed region.
    pub elapsed: Duration,
    /// Throughput in millions of rows scored per second.
    pub mrows_per_sec: f64,
}

/// Sweeps the dot-product scoring kernel (`batch_dot` — the inner loop of
/// linregr/logregr/SVM serving) across the dispatch tiers, addressing the
/// tier modules directly so the `MADLIB_SIMD` dispatch cache cannot skew the
/// comparison.  Reports millions of rows scored per second per tier.
///
/// # Panics
/// Panics when `samples == 0` or `width == 0`.
pub fn measure_predict_kernel_tiers(width: usize, samples: usize) -> Vec<PredictKernelMeasurement> {
    use madlib_linalg::kernels::{scalar, simd};
    assert!(samples > 0, "need at least one sample");
    assert!(width > 0, "need a positive width");
    let rows = (4_000_000 / width).clamp(1_024, 65_536);
    let xs = kernel_bench_data(rows * width, 43 + width as u64);
    let coef = kernel_bench_data(width, 47);
    let mut out = vec![0.0f64; rows];
    // Enough repetitions per timed region to outlast timer resolution.
    let reps = (2_000_000 / rows).max(4);
    let mut measurements = Vec::new();
    for tier in ["scalar", "simd"] {
        if tier == "simd" && !simd::available() {
            continue;
        }
        let call = |out: &mut [f64]| match tier {
            "scalar" => scalar::batch_dot(&xs, &coef, out),
            _ => simd::batch_dot(&xs, &coef, out),
        };
        call(&mut out); // warm up
        let elapsed = median(
            (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        call(&mut out);
                        black_box(out.first());
                    }
                    start.elapsed()
                })
                .collect(),
        );
        measurements.push(PredictKernelMeasurement {
            tier,
            width,
            rows,
            elapsed,
            mrows_per_sec: (rows * reps) as f64 / elapsed.as_secs_f64() / 1e6,
        });
    }
    measurements
}

/// Runs the full Figure 4 sweep and returns one measurement per cell.
pub fn figure4_sweep(
    segment_counts: &[usize],
    variable_counts: &[usize],
    rows: usize,
    generations: &[KernelGeneration],
) -> Vec<LinregrMeasurement> {
    let mut measurements = Vec::new();
    for &variables in variable_counts {
        // One logical dataset per variable count, re-partitioned per segment
        // count so every cell sees identical data (as in the paper, where the
        // same 10 M-row table is scanned by different cluster sizes).
        let base = figure4_table(rows, variables, 1, 42 + variables as u64);
        for &segments in segment_counts {
            let table = base
                .repartition(segments)
                .expect("repartition of generated data cannot fail");
            for &generation in generations {
                let elapsed = measure_linregr(&table, generation);
                measurements.push(LinregrMeasurement {
                    segments,
                    variables,
                    rows,
                    generation,
                    elapsed,
                });
            }
        }
    }
    measurements
}

/// Renders measurements in the layout of the paper's Figure 4 table
/// (`# segments`, `# variables`, `# rows`, one column per generation).
pub fn render_figure4(measurements: &[LinregrMeasurement]) -> String {
    let mut out = String::new();
    out.push_str(
        "# segments  # variables    # rows      v0.3 (s)  v0.2.1beta (s)  v0.1alpha (s)\n",
    );
    let mut cells: Vec<(usize, usize, usize)> = measurements
        .iter()
        .map(|m| (m.segments, m.variables, m.rows))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    for (segments, variables, rows) in cells {
        let time_of = |generation: KernelGeneration| -> String {
            measurements
                .iter()
                .find(|m| {
                    m.segments == segments
                        && m.variables == variables
                        && m.rows == rows
                        && m.generation == generation
                })
                .map(|m| format!("{:.4}", m.elapsed.as_secs_f64()))
                .unwrap_or_else(|| "-".to_owned())
        };
        out.push_str(&format!(
            "{:>10}  {:>11}  {:>8}  {:>12}  {:>14}  {:>13}\n",
            segments,
            variables,
            rows,
            time_of(KernelGeneration::V03),
            time_of(KernelGeneration::V021Beta),
            time_of(KernelGeneration::V01Alpha),
        ));
    }
    out
}

/// Renders the Figure 5 view of the same measurements: execution time versus
/// the number of independent variables, one series per segment count
/// (v0.3 kernel only), plus the parallel-speedup factors relative to the
/// smallest segment count.
pub fn render_figure5(measurements: &[LinregrMeasurement]) -> String {
    let mut out = String::new();
    let mut segment_counts: Vec<usize> = measurements.iter().map(|m| m.segments).collect();
    segment_counts.sort_unstable();
    segment_counts.dedup();
    let mut variable_counts: Vec<usize> = measurements.iter().map(|m| m.variables).collect();
    variable_counts.sort_unstable();
    variable_counts.dedup();

    out.push_str("# variables");
    for &s in &segment_counts {
        out.push_str(&format!("  {s:>2} seg (s)"));
    }
    out.push('\n');
    for &variables in &variable_counts {
        out.push_str(&format!("{variables:>11}"));
        for &segments in &segment_counts {
            let t = measurements
                .iter()
                .find(|m| {
                    m.variables == variables
                        && m.segments == segments
                        && m.generation == KernelGeneration::V03
                })
                .map(|m| m.elapsed.as_secs_f64());
            match t {
                Some(t) => out.push_str(&format!("  {t:>10.4}")),
                None => out.push_str("           -"),
            }
        }
        out.push('\n');
    }

    // Speedup summary on the largest variable count (the regime where the
    // paper reports near-perfect linear speedup).
    if let (Some(&max_vars), Some(&base_segments)) =
        (variable_counts.last(), segment_counts.first())
    {
        let base_time = measurements
            .iter()
            .find(|m| {
                m.variables == max_vars
                    && m.segments == base_segments
                    && m.generation == KernelGeneration::V03
            })
            .map(|m| m.elapsed.as_secs_f64());
        if let Some(base_time) = base_time {
            out.push_str(&format!(
                "\nspeedup at {max_vars} variables (relative to {base_segments} segment(s)):\n"
            ));
            for &segments in &segment_counts {
                if let Some(t) = measurements
                    .iter()
                    .find(|m| {
                        m.variables == max_vars
                            && m.segments == segments
                            && m.generation == KernelGeneration::V03
                    })
                    .map(|m| m.elapsed.as_secs_f64())
                {
                    out.push_str(&format!(
                        "  {segments:>2} segments: {:.2}x (ideal {:.2}x)\n",
                        base_time / t,
                        segments as f64 / base_segments as f64
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_measurement_per_cell() {
        let measurements = figure4_sweep(
            &[1, 2],
            &[4, 8],
            500,
            &[KernelGeneration::V03, KernelGeneration::V01Alpha],
        );
        assert_eq!(measurements.len(), 2 * 2 * 2);
        assert!(measurements.iter().all(|m| m.elapsed.as_nanos() > 0));
        assert!(measurements.iter().all(|m| m.rows == 500));
    }

    #[test]
    fn rendering_contains_every_cell() {
        let measurements = figure4_sweep(&[1, 2], &[4], 200, &KernelGeneration::ALL);
        let table = render_figure4(&measurements);
        assert!(table.contains("v0.3"));
        assert!(table.contains("v0.1alpha"));
        // Two (segments × variables) cells → header plus two rows.
        assert_eq!(table.lines().count(), 3);

        let fig5 = render_figure5(&measurements);
        assert!(fig5.contains("# variables"));
        assert!(fig5.contains("speedup"));
    }

    #[test]
    fn row_vs_chunk_measurement_produces_positive_times() {
        let (row, chunk) = measure_row_vs_chunk(400, 8, 2, 1);
        assert!(row.as_nanos() > 0);
        assert!(chunk.as_nanos() > 0);
        // Modes must agree on the fitted model (spot check).
        let table = figure4_table(300, 6, 2, 9);
        let session = Session::in_memory(1).unwrap();
        let chunked = LinearRegression::new("y", "x")
            .fit(&Dataset::from_table(&table), &session)
            .unwrap();
        let row_based = LinearRegression::new("y", "x")
            .fit(
                &Dataset::from_table(&table).with_executor(Executor::row_at_a_time()),
                &session,
            )
            .unwrap();
        for (a, b) in chunked.coef.iter().zip(&row_based.coef) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grouped_measurement_agrees_across_paths() {
        let m = measure_grouped_row_vs_chunk(600, 6, 16, 2, 1);
        assert!(m.row_path.as_nanos() > 0);
        assert!(m.chunk_path.as_nanos() > 0);
        assert!(m.speedup() > 0.0);

        // The chunked grouped path and the legacy-style row loop fit the
        // same per-group models (single segment → identical merge order).
        let table = grouped_regression_table(300, 4, 8, 1, 3);
        let chunked = Dataset::from_table(&table)
            .group_by(["grp"])
            .aggregate_per_group(&LinearRegression::new("y", "x"))
            .unwrap();
        let by_rows = Dataset::from_table(&table)
            .with_executor(Executor::row_at_a_time())
            .group_by(["grp"])
            .aggregate_per_group(&LinearRegression::new("y", "x"))
            .unwrap();
        assert_eq!(chunked.len(), 8);
        for ((ka, ma), (kb, mb)) in chunked.iter().zip(&by_rows) {
            assert_eq!(ka, kb);
            for (a, b) in ma.coef.iter().zip(&mb.coef) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn composite_grouped_measurement_agrees_across_paths() {
        let m = measure_grouped_composite_row_vs_chunk(500, 5, 6, 4, 2, 1);
        assert_eq!(m.groups, 24);
        assert!(m.row_path.as_nanos() > 0);
        assert!(m.chunk_path.as_nanos() > 0);

        // Composite keys fit the same per-group models in both modes.
        let table = grouped_composite_regression_table(300, 4, 5, 3, 2, 9);
        let chunked = Dataset::from_table(&table)
            .group_by(["grp", "sub"])
            .aggregate_per_group(&LinearRegression::new("y", "x"))
            .unwrap();
        let by_rows = Dataset::from_table(&table)
            .with_executor(Executor::row_at_a_time())
            .group_by(["grp", "sub"])
            .aggregate_per_group(&LinearRegression::new("y", "x"))
            .unwrap();
        assert_eq!(chunked.len(), 15);
        for ((ka, ma), (kb, mb)) in chunked.iter().zip(&by_rows) {
            assert_eq!(ka, kb);
            for (a, b) in ma.coef.iter().zip(&mb.coef) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn grouped_training_measurement_is_consistent() {
        let m = measure_grouped_training(400, 5, 8, 2, 1);
        assert!(m.row_path.as_nanos() > 0);
        assert!(m.chunk_path.as_nanos() > 0);
        assert!(m.speedup() > 0.0);
        assert_eq!((m.rows, m.variables, m.groups, m.segments), (400, 5, 8, 2));
    }

    #[test]
    fn kernel_sweep_measures_every_tier() {
        let measurements = measure_kernel_tiers(&[8], 1e6, 1);
        let has_simd = madlib_linalg::kernels::simd::available();
        let tiers = if has_simd { 2 } else { 1 };
        assert_eq!(measurements.len(), 8 * tiers);
        assert!(measurements.iter().all(|m| m.gflops > 0.0));
        assert!(measurements.iter().all(|m| m.elapsed.as_nanos() > 0));
        let cell = kernel_speedup_cell(&measurements, "rank_k_update_lower", 8);
        if has_simd {
            let (scalar, simd, ratio) = cell.expect("both tiers measured");
            assert!(scalar > 0.0 && simd > 0.0 && ratio > 0.0);
        } else {
            assert!(cell.is_none(), "no SIMD tier to compare against");
        }
        assert!(kernel_speedup_cell(&measurements, "no_such_kernel", 8).is_none());
    }

    #[test]
    fn predict_measurement_is_consistent() {
        let m = measure_predict(2_000, 8, 2, 1);
        assert_eq!((m.rows, m.width, m.segments), (2_000, 8, 2));
        assert!(m.per_row_loop.as_nanos() > 0);
        assert!(m.row_mode.as_nanos() > 0);
        assert!(m.chunk_mode.as_nanos() > 0);
        assert!(m.speedup_vs_loop() > 0.0);
        assert!(m.rows_per_sec(m.chunk_mode) > 0.0);

        let tiers = measure_predict_kernel_tiers(8, 1);
        let expected = if madlib_linalg::kernels::simd::available() {
            2
        } else {
            1
        };
        assert_eq!(tiers.len(), expected);
        assert!(tiers.iter().all(|t| t.mrows_per_sec > 0.0));
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let a = figure4_table(100, 3, 2, 7);
        let b = figure4_table(100, 3, 2, 7);
        assert_eq!(a.collect_rows(), b.collect_rows());
        let elapsed = measure_linregr(&a, KernelGeneration::V03);
        assert!(elapsed.as_nanos() > 0);
    }
}

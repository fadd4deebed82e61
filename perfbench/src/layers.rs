//! Layer probes shared by the workloads' traced runs.  Each probe times
//! calls into one layer's public functions from outside the library.

use crate::stats::{median, median_ms, median_ms_ok, us};
use madlib_core::regress::{LinRegrState, LinearRegression, LinearRegressionModel};
use madlib_core::train::Session;
use madlib_core::{FeatureScorer, Predictor};
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::scan::chunk_range_units;
use madlib_engine::{Aggregate, Dataset, FinalizeScratch, RowChunk, Schema, Table, Value};
use madlib_linalg::decomposition::{symmetric_inverse_with, EigenWorkspace};
use madlib_linalg::kernels::{batch_dot, rank_k_update_lower};
use madlib_linalg::DenseMatrix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions behind every probe median.
pub const REPS: usize = 5;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Wraps an aggregate so that `finalize` hands back the merged transition
/// state: a grouped scan with it costs partition + transition + merge and
/// no finalize.
pub struct StatesOnly<'a, A>(pub &'a A);

impl<A: Aggregate> Aggregate for StatesOnly<'_, A> {
    type State = A::State;
    type Output = A::State;

    fn initial_state(&self) -> A::State {
        self.0.initial_state()
    }

    fn transition(
        &self,
        state: &mut A::State,
        row: &madlib_engine::Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        self.0.transition(state, row, schema)
    }

    fn transition_chunk(
        &self,
        state: &mut A::State,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        self.0.transition_chunk(state, chunk, schema)
    }

    fn merge(&self, left: A::State, right: A::State) -> A::State {
        self.0.merge(left, right)
    }

    fn finalize(&self, state: A::State) -> madlib_engine::Result<A::State> {
        Ok(state)
    }

    fn finalize_with(
        &self,
        state: A::State,
        _scratch: &mut FinalizeScratch,
    ) -> madlib_engine::Result<A::State> {
        Ok(state)
    }
}

/// Rows scanned (from `aggregate_with_stats`) and steal units (from
/// `chunk_range_units` under the default executor's granularity).
///
/// # Errors
/// Propagates scan errors.
pub fn scan_counts(table: &Table, layers: &mut Layers) -> madlib_engine::Result<()> {
    let dataset = Dataset::from_table(table);
    let (_, stats) = dataset.aggregate_with_stats(&CountAggregate)?;
    let units = chunk_range_units(table, dataset.executor().steal_granularity()).len();
    layers.insert("engine.scan.rows", stats.rows_scanned as f64);
    layers.insert("engine.scan.units", units as f64);
    Ok(())
}

/// The grouped linear-regression decomposition of one `train_grouped` call.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupedSplit {
    /// Count-only grouped scan: partitioning and gathering.
    pub partition_ms: f64,
    /// States-only grouped scan: partition + transition + merge.
    pub states_ms: f64,
    /// Serial sum of `Aggregate::finalize` over the collected states.
    pub finalize_ms: f64,
    /// Serial sum of `symmetric_inverse_with` over the same `XᵀX`.
    pub decomposition_ms: f64,
    /// The whole `Session::train_grouped` call.
    pub train_grouped_ms: f64,
    /// Number of groups.
    pub groups: usize,
}

/// Splits `train_grouped(LinearRegression(y, x))` by `group` into its
/// layers, and checks that finalizing the collected states reproduces the
/// trained models bit-for-bit.
///
/// # Errors
/// Propagates scan, finalize and training errors.
pub fn grouped_split(
    session: &Session,
    table: &Table,
    group: &str,
    estimator: &LinearRegression,
) -> Result<(GroupedSplit, bool), Box<dyn std::error::Error>> {
    let grouped = || Dataset::from_table(table).group_by([group]);
    let (partition_ms, _) = median_ms_ok(REPS, || grouped().aggregate_per_group(&CountAggregate))?;
    let (states_ms, states): (f64, Vec<(madlib_engine::GroupKey, LinRegrState)>) =
        median_ms_ok(REPS, || {
            grouped().aggregate_per_group(&StatesOnly(estimator))
        })?;
    let (train_grouped_ms, models) =
        median_ms_ok(REPS, || session.train_grouped(estimator, &grouped()))?;

    let mut finalize = Vec::with_capacity(REPS);
    let mut finalized: Vec<LinearRegressionModel> = Vec::new();
    for _ in 0..REPS {
        let inputs: Vec<LinRegrState> = states.iter().map(|(_, s)| s.clone()).collect();
        let start = Instant::now();
        finalized = inputs
            .into_iter()
            .map(|s| estimator.finalize(s))
            .collect::<madlib_engine::Result<_>>()?;
        finalize.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let matches = finalized.len() == models.len()
        && models
            .iter()
            .zip(&finalized)
            .all(|((_, m), f)| model_bits(m) == model_bits(f));

    let mut decomposition = Vec::with_capacity(REPS);
    let symmetric: Vec<DenseMatrix> = states
        .iter()
        .map(|(_, s)| {
            let mut m = s.x_transp_x.clone();
            m.symmetrize_from_lower().map(|()| m)
        })
        .collect::<Result<_, _>>()?;
    let mut workspace = EigenWorkspace::new();
    for _ in 0..REPS {
        let start = Instant::now();
        for m in &symmetric {
            std::hint::black_box(symmetric_inverse_with(m, 1e-10, &mut workspace)?);
        }
        decomposition.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((
        GroupedSplit {
            partition_ms,
            states_ms,
            finalize_ms: median(&finalize),
            decomposition_ms: median(&decomposition),
            train_grouped_ms,
            groups: states.len(),
        },
        matches,
    ))
}

impl GroupedSplit {
    /// Adds another split's times (two grouped trainings in one job).
    pub fn add(self, other: GroupedSplit) -> GroupedSplit {
        GroupedSplit {
            partition_ms: self.partition_ms + other.partition_ms,
            states_ms: self.states_ms + other.states_ms,
            finalize_ms: self.finalize_ms + other.finalize_ms,
            decomposition_ms: self.decomposition_ms + other.decomposition_ms,
            train_grouped_ms: self.train_grouped_ms + other.train_grouped_ms,
            groups: self.groups + other.groups,
        }
    }

    /// Writes the split into the per-layer metrics.
    pub fn record(&self, layers: &mut Layers) {
        layers.insert("engine.group.partition_ms", self.partition_ms);
        layers.insert("engine.group.states_scan_ms", self.states_ms);
        layers.insert("core.transition_ms", self.states_ms - self.partition_ms);
        layers.insert("core.finalize_ms", self.finalize_ms);
        layers.insert("linalg.decomposition_ms", self.decomposition_ms);
        layers.insert("core.model_build.total_ms", self.train_grouped_ms);
        layers.insert("core.model_build.aggregate_ms", self.states_ms);
        layers.insert(
            "core.model_build_ms",
            self.train_grouped_ms - self.states_ms,
        );
        layers.insert(
            "core.finalize_share",
            (self.train_grouped_ms - self.states_ms) / self.train_grouped_ms,
        );
    }

    /// The split as a report object.
    pub fn json(&self) -> crate::json::Json {
        crate::json::Json::obj()
            .with("groups", self.groups)
            .with("partition_ms", self.partition_ms)
            .with("states_scan_ms", self.states_ms)
            .with("transition_ms", self.states_ms - self.partition_ms)
            .with("finalize_serial_ms", self.finalize_ms)
            .with("decomposition_serial_ms", self.decomposition_ms)
            .with("train_grouped_ms", self.train_grouped_ms)
            .with("model_build_ms", self.train_grouped_ms - self.states_ms)
            .with(
                "finalize_share",
                (self.train_grouped_ms - self.states_ms) / self.train_grouped_ms,
            )
    }
}

/// Every float of a linear-regression model as bits, for exact comparison.
pub fn model_bits(m: &LinearRegressionModel) -> Vec<u64> {
    m.coef
        .iter()
        .chain(&m.std_err)
        .chain(&m.t_stats)
        .chain(&m.p_values)
        .chain([&m.r2, &m.condition_no])
        .map(|v| v.to_bits())
        .chain([m.num_rows])
        .collect()
}

/// Whether `predicted` equals the model's per-row `predict` bit-for-bit.
pub fn same_bits(predicted: &Value, model: &LinearRegressionModel, x: &[f64]) -> bool {
    matches!(
        (predicted, model.predict(x)),
        (Value::Double(p), Ok(e)) if p.to_bits() == e.to_bits()
    )
}

/// The feature vector in column `idx` of a generated row.
pub fn features_at(row: &madlib_engine::Row, idx: usize) -> &[f64] {
    match row.get(idx) {
        Value::DoubleArray(x) => x,
        other => panic!("generated features are double arrays, found {other:?}"),
    }
}

/// The flattened feature buffers of every chunk's `column`, with its width.
fn feature_buffers<'t>(table: &'t Table, column: &str) -> Vec<(&'t [f64], usize)> {
    let idx = table
        .schema()
        .index_of(column)
        .expect("workload tables have their feature column");
    let mut buffers = Vec::new();
    for seg in 0..table.num_segments() {
        for chunk in table.segment(seg).chunks() {
            let xs = chunk
                .double_arrays(idx)
                .expect("feature columns are double arrays");
            if let Some(width) = xs.uniform_width() {
                buffers.push((xs.flat_values(), width));
            }
        }
    }
    buffers
}

/// `rank_k_update_lower` replayed over the table's chunk buffers of each
/// column: lower-triangle multiply-adds per second, in GFLOP/s.
pub fn rank_k_gflops(table: &Table, columns: &[&str]) -> f64 {
    let mut flops = 0.0;
    let mut times = 0.0;
    for column in columns {
        let buffers = feature_buffers(table, column);
        let Some(&(_, width)) = buffers.first() else {
            continue;
        };
        let rows: usize = buffers.iter().map(|(xs, w)| xs.len() / w).sum();
        let (t, _) = median_ms(REPS, || {
            let mut m = DenseMatrix::zeros(width, width);
            for (xs, w) in &buffers {
                rank_k_update_lower(&mut m, xs, *w);
            }
            m
        });
        flops += (rows * width * (width + 1)) as f64;
        times += t;
    }
    flops / (times * 1e-3) / 1e9
}

/// `batch_dot` replayed over the table's chunk buffers: rows scored per
/// second.
pub fn batch_dot_rows_per_s(table: &Table, column: &str, weights: &[f64]) -> f64 {
    let buffers = feature_buffers(table, column);
    let rows: usize = buffers.iter().map(|(xs, w)| xs.len() / w).sum();
    let mut out = vec![
        0.0;
        buffers
            .iter()
            .map(|(xs, w)| xs.len() / w)
            .max()
            .unwrap_or(0)
    ];
    let (t, _) = median_ms(REPS, || {
        for (xs, w) in &buffers {
            batch_dot(xs, weights, &mut out[..xs.len() / w]);
        }
        out[0]
    });
    rows as f64 / (t * 1e-3)
}

/// Serving call overhead on one request batch: `Dataset::score` against
/// `Predictor::predict_batch` on the same rows, plus a catalog lookup.
///
/// # Errors
/// Propagates lookup and scoring errors.
pub fn serving_split(
    lookup: &dyn Fn() -> madlib_engine::Result<std::sync::Arc<LinearRegressionModel>>,
    batch: &Table,
    layers: &mut Layers,
) -> Result<(), Box<dyn std::error::Error>> {
    const CALLS: usize = 200;
    let mut lookups = Vec::with_capacity(CALLS);
    let mut scores = Vec::with_capacity(CALLS);
    let mut predicts = Vec::with_capacity(CALLS);
    let buffers = feature_buffers(batch, "x");
    let rows: usize = buffers.iter().map(|(xs, w)| xs.len() / w).sum();
    let mut out: Vec<Value> = Vec::with_capacity(rows);
    for _ in 0..CALLS {
        let start = Instant::now();
        let model = lookup()?;
        lookups.push(us(start.elapsed()));

        let scorer = FeatureScorer::new(std::sync::Arc::clone(&model), "x");
        let start = Instant::now();
        std::hint::black_box(Dataset::from_table(batch).score(&scorer)?);
        scores.push(us(start.elapsed()));

        let start = Instant::now();
        out.clear();
        for (xs, w) in &buffers {
            model.predict_batch(xs, *w, xs.len() / w, &mut out)?;
        }
        std::hint::black_box(&out);
        predicts.push(us(start.elapsed()));
    }
    let (score, predict) = (median(&scores), median(&predicts));
    layers.insert("engine.catalog.lookup_us", median(&lookups));
    layers.insert("engine.score.score_us", score);
    layers.insert("core.predict_batch_us", predict);
    layers.insert("engine.score.call_overhead_us", score - predict);
    Ok(())
}

/// Mean self time per span of each traced layer, plus the span count.
pub fn record_spans(tracer: &crate::trace::Tracer, roots: &[&str], layers: &mut Layers) {
    let times = tracer.layer_times();
    let mean_self = |name: &str| times.get(name).map_or(0.0, |t| t.self_ms / t.count as f64);
    let mean_total = |name: &str| times.get(name).map_or(0.0, |t| t.total_ms / t.count as f64);
    layers.insert("trace.spans", times.values().map(|t| t.count as f64).sum());
    let (mut root_self, mut root_count) = (0.0, 0u64);
    for root in roots {
        if let Some(t) = times.get(root) {
            root_self += t.self_ms;
            root_count += t.count;
        }
    }
    layers.insert(
        "self.client_ms",
        if root_count == 0 {
            0.0
        } else {
            root_self / root_count as f64
        },
    );
    for (metric, span) in [
        (
            "self.engine.database.snapshot_ms",
            "engine.database.snapshot",
        ),
        ("self.core.train_grouped_ms", "core.train_grouped"),
        ("self.core.train_ms", "core.train"),
        ("self.engine.catalog.lookup_ms", "engine.catalog.lookup"),
        ("self.engine.score.score_ms", "engine.score.score"),
        (
            "self.engine.database.append_rows_ms",
            "engine.database.append_rows",
        ),
        ("self.core.refresh_ms", "core.refresh"),
        (
            "self.engine.persist.checkpoint_ms",
            "engine.persist.checkpoint",
        ),
    ] {
        layers.insert(metric, mean_self(span));
    }
    layers.insert(
        "engine.database.snapshot_us",
        mean_total("engine.database.snapshot") * 1e3,
    );
}

/// The trace's per-span totals as a report object.
pub fn spans_json(tracer: &crate::trace::Tracer) -> crate::json::Json {
    let mut out = crate::json::Json::obj();
    for (name, t) in tracer.layer_times() {
        out = out.with(
            name,
            crate::json::Json::obj()
                .with("count", t.count)
                .with("total_ms", t.total_ms)
                .with("self_ms", t.self_ms),
        );
    }
    out
}

/// Records the tracing overhead: median traced minus median untraced
/// latency of the same operation, interleaved in one loop.
pub fn record_overhead(untraced_ms: &[f64], traced_ms: &[f64], layers: &mut Layers) {
    let (u, t) = (median(untraced_ms), median(traced_ms));
    layers.insert("trace.untraced_p50_ms", u);
    layers.insert("trace.traced_p50_ms", t);
    layers.insert("trace.overhead_ms", t - u);
}

/// Writes the spans to `.bench_out/trace-<workload>.jsonl` under the
/// working directory, replacing the previous traced run's.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_trace(
    tracer: &crate::trace::Tracer,
    workload: &str,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    tracer.write_jsonl(&path)?;
    Ok(path)
}

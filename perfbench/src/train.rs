//! `train`: one client trains in a closed loop.
//!
//! One job is (a) `train_grouped(LinearRegression(y, x))` by `tenant` —
//! 256 groups of 100 variables, finalize-bound; (b)
//! `train_grouped(LinearRegression(y, xs))` by `sku` — 4 096 groups of 10
//! variables and about 10 rows each, which forces the radix-partition path;
//! (c) `train(LogisticRegression(label, xs))` by IRLS, the only user of the
//! iteration driver.  The 40 000-row table is about 35 MB of features in 4
//! segments: larger than one core's L2, inside L3.

use crate::data::{dot, features, load_table, shuffled_keys, Rng};
use crate::layers::{self, model_bits, Layers};
use crate::stats::{median, median_ms_ok, ms};
use crate::trace::Tracer;
use crate::{json::Json, Config, Outcome};
use madlib_core::regress::{
    LinearRegression, LinearRegressionModel, LogisticRegression, LogisticRegressionModel,
};
use madlib_core::train::{GroupedModels, Session};
use madlib_engine::{Column, ColumnType, Database, Executor, Row, Schema};
use std::time::{Duration, Instant};

const ROWS: usize = 40_000;
const SEGMENTS: usize = 4;
const TENANTS: usize = 256;
const SKUS: usize = 4_096;
const WIDE: usize = 100;
const NARROW: usize = 10;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
const TABLE: &str = "events";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("tenant", ColumnType::Int),
        Column::new("sku", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("label", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
        Column::new("xs", ColumnType::DoubleArray),
    ])
}

fn generate(seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 1);
    let beta = rng.normals(WIDE);
    let gamma = rng.normals(NARROW);
    let tenants = shuffled_keys(&mut rng, ROWS, TENANTS);
    let skus = shuffled_keys(&mut rng, ROWS, SKUS);
    (0..ROWS)
        .map(|i| {
            let x = features(&mut rng, WIDE);
            let xs = features(&mut rng, NARROW);
            let y = dot(&x, &beta) + 0.1 * rng.normal();
            let label = f64::from(u8::from(dot(&xs, &gamma) + rng.normal() > 0.0));
            Row::new(vec![
                tenants[i].into(),
                skus[i].into(),
                y.into(),
                label.into(),
                x.into(),
                xs.into(),
            ])
        })
        .collect()
}

/// Loads the table into a fresh database: the workload's set-up.
fn setup(rows: &[Row]) -> Result<Session, Box<dyn std::error::Error>> {
    let db = Database::new(SEGMENTS)?;
    db.register_table(TABLE, load_table(&schema(), SEGMENTS, rows)?)?;
    Ok(Session::new(db))
}

struct Models {
    by_tenant: GroupedModels<LinearRegressionModel>,
    by_sku: GroupedModels<LinearRegressionModel>,
    logistic: LogisticRegressionModel,
}

fn grouped_bits(models: &GroupedModels<LinearRegressionModel>) -> Vec<u64> {
    models
        .iter()
        .flat_map(|(key, m)| {
            let key = format!("{key:?}");
            key.bytes()
                .map(u64::from)
                .chain(model_bits(m))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn logistic_bits(m: &LogisticRegressionModel) -> Vec<u64> {
    m.coef
        .iter()
        .chain(&m.std_err)
        .chain(&m.z_stats)
        .chain(&m.p_values)
        .chain([&m.log_likelihood])
        .map(|v| v.to_bits())
        .chain([m.num_iterations as u64, u64::from(m.converged), m.num_rows])
        .collect()
}

impl Models {
    fn bits(&self) -> [Vec<u64>; 3] {
        [
            grouped_bits(&self.by_tenant),
            grouped_bits(&self.by_sku),
            logistic_bits(&self.logistic),
        ]
    }
}

/// One job.  Each sub-call's error or time is returned separately so the
/// caller can count three operations.
fn job(
    session: &Session,
    tracer: &Tracer,
    request: u64,
) -> (Result<Models, Box<dyn std::error::Error>>, [Duration; 3]) {
    let mut times = [Duration::ZERO; 3];
    let out = tracer.request("bench.train.job", request, || {
        let dataset = tracer.span("engine.database.snapshot", || session.dataset(TABLE))?;
        let start = Instant::now();
        let by_tenant = tracer.span("core.train_grouped", || {
            session.train_grouped(
                &LinearRegression::new("y", "x"),
                &dataset.reborrow().group_by(["tenant"]),
            )
        })?;
        times[0] = start.elapsed();
        let start = Instant::now();
        let by_sku = tracer.span("core.train_grouped", || {
            session.train_grouped(
                &LinearRegression::new("y", "xs"),
                &dataset.reborrow().group_by(["sku"]),
            )
        })?;
        times[1] = start.elapsed();
        let start = Instant::now();
        let logistic = tracer.span("core.train", || {
            session.train(&LogisticRegression::new("label", "xs"), &dataset)
        })?;
        times[2] = start.elapsed();
        Ok(Models {
            by_tenant,
            by_sku,
            logistic,
        })
    });
    (out, times)
}

/// The exact counters of the workload: scan rows and units, IRLS
/// iterations, temp tables left behind.
fn exact_counters(session: &Session) -> Result<Layers, Box<dyn std::error::Error>> {
    let mut layers = Layers::new();
    layers::scan_counts(&session.database().table(TABLE)?, &mut layers)?;
    let model = session.train(
        &LogisticRegression::new("label", "xs"),
        &session.dataset(TABLE)?,
    )?;
    let leaked = session
        .database()
        .list_tables()
        .iter()
        .filter(|(_, temp)| *temp)
        .count();
    layers.insert("engine.iteration.iterations", model.num_iterations as f64);
    layers.insert("engine.iteration.temp_tables_leaked", leaked as f64);
    Ok(layers)
}

/// Runs the workload.
///
/// # Errors
/// Returns set-up failures; operation failures are counted instead.
pub fn run(config: &Config) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut outcome = Outcome::default();
    let rows = generate(config.seed);

    // Each set-up's predecessor is dropped outside the timed region.
    let (setup_ms, session) = median_ms_ok(SETUPS, || setup(&rows))?;
    drop(rows);
    let setup_s = setup_ms / 1e3;
    outcome.e2e.insert("setup_s", setup_s);
    outcome.named("setup_s", setup_s, "s");

    // Warm-up job: its models are the reference every timed job must match.
    let (reference, _) = job(&session, &Tracer::new(false), 0);
    let reference = reference?.bits();

    let traced = Tracer::new(config.trace);
    let untraced = Tracer::new(false);
    let mut jobs_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut sub_ms: [Vec<f64>; 3] = Default::default();
    let mut rows_trained = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.seconds);
    let mut request = 0u64;
    while Instant::now() < deadline {
        request += 1;
        // The traced run interleaves traced and untraced jobs so the
        // difference between them is the tracing overhead.
        let is_traced = config.trace && request.is_multiple_of(2);
        let tracer = if is_traced { &traced } else { &untraced };
        let start = Instant::now();
        let (models, times) = job(&session, tracer, request);
        let elapsed = ms(start.elapsed());
        match models {
            Ok(models) => {
                for (i, bits) in models.bits().iter().enumerate() {
                    outcome.ops.record(*bits == reference[i]);
                    sub_ms[i].push(ms(times[i]));
                }
                rows_trained += 3 * ROWS as u64;
            }
            Err(err) => {
                eprintln!("train job failed: {err}");
                let done = times.iter().filter(|t| !t.is_zero()).count();
                for i in 0..3 {
                    outcome.ops.record(i < done);
                }
            }
        }
        if is_traced {
            traced_ms.push(elapsed);
        } else {
            jobs_ms.push(elapsed);
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    outcome.check("jobs_match_first_job", outcome.ops.failed == 0);
    outcome.op_latency(config, "train", &jobs_ms);
    outcome
        .e2e
        .insert("rows_per_s", rows_trained as f64 / loop_s);
    outcome.named("train_rows_per_s", rows_trained as f64 / loop_s, "rows/s");
    for (i, name) in ["train_tenant_x100", "train_sku_x10", "train_logistic_irls"]
        .iter()
        .enumerate()
    {
        outcome.named(&format!("{name}_p50_ms"), median(&sub_ms[i]), "ms");
    }

    // Chunked training must match the row-at-a-time executor bit-for-bit.
    let row_session = session.clone().with_executor(Executor::row_at_a_time());
    let (row_models, _) = job(&row_session, &untraced, 0);
    let row_ok = row_models.map(|m| m.bits() == reference).unwrap_or(false);
    outcome.ops.record(row_ok);
    outcome.check("matches_row_at_a_time", row_ok);

    outcome.extra.push((
        "shape".to_owned(),
        Json::obj()
            .with("rows", ROWS)
            .with("segments", SEGMENTS)
            .with("tenants", TENANTS)
            .with("skus", SKUS)
            .with("wide_variables", WIDE)
            .with("narrow_variables", NARROW)
            .with("feature_bytes", ROWS * (WIDE + NARROW) * 8)
            .with("clients", 1u64),
    ));

    if config.trace {
        trace_layers(
            config,
            &session,
            &traced,
            &jobs_ms,
            &traced_ms,
            &mut outcome,
        )?;
    }
    Ok(outcome)
}

fn trace_layers(
    config: &Config,
    session: &Session,
    tracer: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    outcome: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut layers = exact_counters(session)?;
    // Exact-counter self-check: the same seed must reproduce every count.
    let again = exact_counters(&setup(&generate(config.seed))?)?;
    let reproduced = crate::EXACT
        .iter()
        .all(|name| layers.get(name).map(|v| v.to_bits()) == again.get(name).map(|v| v.to_bits()));
    outcome.check("exact_counters_reproduce", reproduced);

    let table = session.database().table(TABLE)?;
    let (tenant, tenant_ok) =
        layers::grouped_split(session, &table, "tenant", &LinearRegression::new("y", "x"))?;
    let (sku, sku_ok) =
        layers::grouped_split(session, &table, "sku", &LinearRegression::new("y", "xs"))?;
    outcome.check(
        "finalize_of_states_matches_train_grouped",
        tenant_ok && sku_ok,
    );
    tenant.add(sku).record(&mut layers);
    layers.insert(
        "linalg.kernels.rank_k_gflops",
        layers::rank_k_gflops(&table, &["x", "xs"]),
    );
    let logistic_ms = tracer
        .layer_times()
        .get("core.train")
        .map_or(f64::NAN, |t| t.total_ms / t.count as f64);
    let iterations = layers["engine.iteration.iterations"];
    layers.insert("engine.iteration.ms_per_iter", logistic_ms / iterations);
    layers::record_spans(tracer, &["bench.train.job"], &mut layers);
    layers::record_overhead(untraced_ms, traced_ms, &mut layers);
    let path = layers::write_trace(tracer, "train")?;

    outcome.extra.push((
        "layer_split".to_owned(),
        Json::obj()
            .with("tenant_x100", tenant.json())
            .with("sku_x10", sku.json())
            .with("spans", layers::spans_json(tracer))
            .with("trace_file", path.display().to_string()),
    ));
    outcome.layers = layers;
    Ok(())
}

//! `serve`: one client scores in a closed loop.
//!
//! Each cycle sends a burst of 32 small requests, then one bulk call; the
//! burst is the workload's end-to-end operation.  A small request
//! looks up one Zipf-chosen tenant's model in the model catalog and runs
//! `Dataset::score` over a 1 024-row × 10-variable request batch drawn from
//! a pool of 64 (5 MiB: more than one core's 4 MiB L2, inside L3), so its
//! cost is mostly per-call fixed cost.  The bulk call is
//! `Session::score` → `score_per_group` over 200 000 × 10 rows (16 MB) with
//! 256 per-tenant models, bound by kernel speed and memory bandwidth.
//! Finalize and the WAL do no work here.

use crate::data::{dot, features, load_table, Rng, Zipf};
use crate::layers::{self, features_at, same_bits, Layers, REPS};
use crate::stats::{median, median_ms_ok, ms};
use crate::trace::Tracer;
use crate::{json::Json, Config, Outcome};
use madlib_core::regress::{LinearRegression, LinearRegressionModel};
use madlib_core::train::Session;
use madlib_core::FeatureScorer;
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::{Column, ColumnType, Database, Dataset, GroupKey, Row, Schema, Table, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BULK_ROWS: usize = 200_000;
const SEGMENTS: usize = 4;
const TENANTS: usize = 256;
const WIDTH: usize = 10;
const BATCH_ROWS: usize = 1_024;
const POOL: usize = 64;
const SMALL_PER_CYCLE: usize = 32;
/// Rows of each response checked against a per-row `predict`.
const CHECKED_ROWS: usize = 4;
const SETUPS: usize = 9;
const MODELS: &str = "tenant_models";

struct Inputs {
    bulk: Vec<Row>,
    batches: Vec<Vec<Row>>,
}

fn bulk_schema() -> Schema {
    Schema::new(vec![
        Column::new("tenant", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ])
}

fn batch_schema() -> Schema {
    Schema::new(vec![Column::new("x", ColumnType::DoubleArray)])
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let betas: Vec<Vec<f64>> = (0..TENANTS).map(|_| rng.normals(WIDTH)).collect();
    let bulk = (0..BULK_ROWS)
        .map(|_| {
            let tenant = rng.below(TENANTS);
            let x = features(&mut rng, WIDTH);
            let y = dot(&x, &betas[tenant]) + 0.1 * rng.normal();
            Row::new(vec![(tenant as i64).into(), y.into(), x.into()])
        })
        .collect();
    let batches = (0..POOL)
        .map(|_| {
            (0..BATCH_ROWS)
                .map(|_| Row::new(vec![features(&mut rng, WIDTH).into()]))
                .collect()
        })
        .collect();
    Inputs { bulk, batches }
}

struct Served {
    session: Session,
    bulk: Table,
    batches: Vec<Table>,
}

/// Loads the tables, trains the per-tenant models and registers them in
/// the model catalog: the workload's set-up.
fn setup(inputs: &Inputs) -> Result<Served, Box<dyn std::error::Error>> {
    let session = Session::new(Database::new(SEGMENTS)?);
    let bulk = load_table(&bulk_schema(), SEGMENTS, &inputs.bulk)?;
    let models = session.train_grouped(
        &LinearRegression::new("y", "x"),
        &Dataset::from_table(&bulk).group_by(["tenant"]),
    )?;
    session.register_grouped_models(MODELS, models)?;
    let batches = inputs
        .batches
        .iter()
        .map(|rows| load_table(&batch_schema(), 1, rows))
        .collect::<madlib_engine::Result<_>>()?;
    Ok(Served {
        session,
        bulk,
        batches,
    })
}

fn tenant_key(tenant: usize) -> GroupKey {
    GroupKey::from_value(&Value::Int(tenant as i64))
}

fn lookup(session: &Session, tenant: usize) -> madlib_engine::Result<Arc<LinearRegressionModel>> {
    session
        .database()
        .models()
        .get_group::<LinearRegressionModel>(MODELS, &tenant_key(tenant))
}

fn small_request(
    served: &Served,
    inputs: &Inputs,
    tracer: &Tracer,
    request: u64,
    tenant: usize,
    batch: usize,
    rng: &mut Rng,
) -> (bool, f64) {
    let start = Instant::now();
    let result = tracer.request("bench.serve.request", request, || {
        let model = tracer.span("engine.catalog.lookup", || lookup(&served.session, tenant))?;
        let scorer = FeatureScorer::new(Arc::clone(&model), "x");
        let scores = tracer.span("engine.score.score", || {
            Dataset::from_table(&served.batches[batch]).score(&scorer)
        })?;
        Ok::<_, madlib_engine::EngineError>((model, scores))
    });
    let elapsed = ms(start.elapsed());
    let ok = match result {
        Ok((model, scores)) => {
            scores.len() == BATCH_ROWS
                && (0..CHECKED_ROWS).all(|_| {
                    let i = rng.below(BATCH_ROWS);
                    same_bits(
                        &scores[i],
                        &model,
                        features_at(&inputs.batches[batch][i], 0),
                    )
                })
        }
        Err(err) => {
            eprintln!("serve request failed: {err}");
            false
        }
    };
    (ok, elapsed)
}

/// Rows of the bulk table in scan order, sampled for checking.
struct BulkSample {
    positions: Vec<usize>,
    rows: Vec<Row>,
}

fn bulk_sample(bulk: &Table, rng: &mut Rng) -> BulkSample {
    let all = bulk.collect_rows();
    let positions: Vec<usize> = (0..64).map(|_| rng.below(all.len())).collect();
    let rows = positions.iter().map(|&p| all[p].clone()).collect();
    BulkSample { positions, rows }
}

fn bulk_call(served: &Served, tracer: &Tracer, request: u64, sample: &BulkSample) -> bool {
    let scores = tracer.request("bench.serve.bulk", request, || {
        tracer.span("engine.score.score_per_group", || {
            served.session.score::<LinearRegressionModel>(
                &Dataset::from_table(&served.bulk).group_by(["tenant"]),
                MODELS,
                "x",
            )
        })
    });
    match scores {
        Ok(scores) => {
            scores.len() == BULK_ROWS
                && sample.positions.iter().zip(&sample.rows).all(|(&p, row)| {
                    let Value::Int(tenant) = row.get(0) else {
                        return false;
                    };
                    lookup(&served.session, *tenant as usize)
                        .is_ok_and(|m| same_bits(&scores[p], &m, features_at(row, 2)))
                })
        }
        Err(err) => {
            eprintln!("serve bulk call failed: {err}");
            false
        }
    }
}

/// Runs the workload.
///
/// # Errors
/// Returns set-up failures; operation failures are counted instead.
pub fn run(config: &Config) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut outcome = Outcome::default();
    let inputs = generate(config.seed);
    let mut rng = Rng::new(config.seed, 3);
    let zipf = Zipf::new(TENANTS);

    // Each set-up's predecessor is dropped outside the timed region.
    let (setup_ms, served) = median_ms_ok(SETUPS, || setup(&inputs))?;
    let setup_s = setup_ms / 1e3;
    outcome.e2e.insert("setup_s", setup_s);
    outcome.named("setup_s", setup_s, "s");
    let sample = bulk_sample(&served.bulk, &mut rng);

    // Warm-up cycle, untimed.
    for batch in 0..SMALL_PER_CYCLE {
        small_request(&served, &inputs, &Tracer::new(false), 0, 0, batch, &mut rng);
    }
    bulk_call(&served, &Tracer::new(false), 0, &sample);

    let traced = Tracer::new(config.trace);
    let untraced = Tracer::new(false);
    let mut small_ms = Vec::new();
    let mut burst_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut bulk_ms = Vec::new();
    let mut request = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        // The traced run alternates traced and untraced bursts so the
        // difference between them is the tracing overhead.
        cycle += 1;
        let is_traced = config.trace && cycle.is_multiple_of(2);
        let tracer = if is_traced { &traced } else { &untraced };
        let mut burst = 0.0;
        for _ in 0..SMALL_PER_CYCLE {
            request += 1;
            let tenant = zipf.sample(&mut rng);
            let batch = rng.below(POOL);
            let (ok, elapsed) =
                small_request(&served, &inputs, tracer, request, tenant, batch, &mut rng);
            outcome.ops.record(ok);
            burst += elapsed;
            if !is_traced {
                small_ms.push(elapsed);
            }
        }
        if is_traced {
            traced_ms.push(burst);
        } else {
            burst_ms.push(burst);
        }
        request += 1;
        let start = Instant::now();
        let ok = bulk_call(&served, &traced, request, &sample);
        bulk_ms.push(ms(start.elapsed()));
        outcome.ops.record(ok);
    }
    outcome.check("scores_match_per_row_predict", outcome.ops.failed == 0);
    outcome.op_latency(config, "burst", &burst_ms);
    let bulk_rows_per_s = BULK_ROWS as f64 / (median(&bulk_ms) * 1e-3);
    outcome.e2e.insert("rows_per_s", bulk_rows_per_s);
    outcome.latency("score", &small_ms);
    outcome.named("score_rows_per_s", bulk_rows_per_s, "rows/s");
    outcome.named("bulk_p50_ms", median(&bulk_ms), "ms");
    outcome.extra.push((
        "shape".to_owned(),
        Json::obj()
            .with("bulk_rows", BULK_ROWS)
            .with("segments", SEGMENTS)
            .with("tenants", TENANTS)
            .with("variables", WIDTH)
            .with("batch_rows", BATCH_ROWS)
            .with("batch_pool", POOL)
            .with("pool_feature_bytes", POOL * BATCH_ROWS * WIDTH * 8)
            .with("bulk_feature_bytes", BULK_ROWS * WIDTH * 8)
            .with("small_requests_per_cycle", SMALL_PER_CYCLE)
            .with("bulk_calls", bulk_ms.len())
            .with("clients", 1u64),
    ));

    if config.trace {
        trace_layers(
            config,
            &served,
            &traced,
            &burst_ms,
            &traced_ms,
            &mut outcome,
        )?;
    }
    Ok(outcome)
}

fn scan_counts(bulk: &Table) -> Result<Layers, Box<dyn std::error::Error>> {
    let mut layers = Layers::new();
    let (_, stats) = Dataset::from_table(bulk).aggregate_with_stats(&CountAggregate)?;
    // `score_per_group` schedules chunk-range units.
    let units =
        madlib_engine::scan::chunk_range_units(bulk, madlib_engine::StealGranularity::ChunkRange)
            .len();
    layers.insert("engine.scan.rows", stats.rows_scanned as f64);
    layers.insert("engine.scan.units", units as f64);
    Ok(layers)
}

fn trace_layers(
    config: &Config,
    served: &Served,
    tracer: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    outcome: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut layers = scan_counts(&served.bulk)?;
    let again = scan_counts(&load_table(
        &bulk_schema(),
        SEGMENTS,
        &generate(config.seed).bulk,
    )?)?;
    outcome.check("exact_counters_reproduce", layers == again);

    let (partition_ms, _) = median_ms_ok(REPS, || {
        Dataset::from_table(&served.bulk)
            .group_by(["tenant"])
            .aggregate_per_group(&CountAggregate)
    })?;
    layers.insert("engine.group.partition_ms", partition_ms);
    layers::serving_split(
        &|| lookup(&served.session, 0),
        &served.batches[0],
        &mut layers,
    )?;

    let model = lookup(&served.session, 0)?;
    layers.insert(
        "linalg.kernels.batch_dot_rows_per_s",
        layers::batch_dot_rows_per_s(&served.bulk, "x", &model.coef),
    );
    let scorer = FeatureScorer::new(Arc::clone(&model), "x");
    let (bulk_scan_ms, _) =
        median_ms_ok(REPS, || Dataset::from_table(&served.bulk).score(&scorer))?;
    let (per_group_ms, _) = median_ms_ok(REPS, || {
        served.session.score::<LinearRegressionModel>(
            &Dataset::from_table(&served.bulk).group_by(["tenant"]),
            MODELS,
            "x",
        )
    })?;
    layers.insert("engine.score.bulk_scan_ms", bulk_scan_ms);
    layers.insert("engine.score.score_per_group_ms", per_group_ms);
    layers.insert("engine.score.route_ms", per_group_ms - bulk_scan_ms);

    layers::record_spans(
        tracer,
        &["bench.serve.request", "bench.serve.bulk"],
        &mut layers,
    );
    layers::record_overhead(untraced_ms, traced_ms, &mut layers);
    let path = layers::write_trace(tracer, "serve")?;
    outcome.extra.push((
        "layer_split".to_owned(),
        Json::obj()
            .with("spans", layers::spans_json(tracer))
            .with("trace_file", path.display().to_string()),
    ));
    outcome.layers = layers;
    Ok(())
}

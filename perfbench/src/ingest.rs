//! `ingest`: a writer and a reader, two clients in closed loops, on a
//! durable database opened in a fresh directory.
//!
//! The writer appends 100-row batches with `append_rows`; an incremental
//! linear regression (20 variables) and a grouped view on `tenant` absorb
//! each batch, then the writer calls `Session::refresh`, and it checkpoints
//! every 50 batches.  Group commit stays at its default (on): every append
//! returns after the fsync of the group-commit batch holding its record.
//! The reader, every millisecond, snapshots the table, checks that it holds
//! a whole number of batches, and scores a 1 024-row holdout with the
//! cataloged model.  After
//! the loop the database is dropped and recovered several times; the
//! recovered table must hold every acknowledged append and retrain to the
//! writer's last refreshed model bit-for-bit.

use crate::data::{dot, features, user_bytes, Rng};
use crate::layers::{self, features_at, model_bits, same_bits, Layers, StatesOnly, REPS};
use crate::stats::{median, median_ms_ok, ms};
use crate::trace::Tracer;
use crate::{json::Json, Config, Outcome};
use madlib_core::regress::{LinRegrState, LinearRegression, LinearRegressionModel};
use madlib_core::train::{incremental_view_name, Session};
use madlib_core::FeatureScorer;
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::materialize::MaterializedAggregate;
use madlib_engine::{Aggregate, Column, ColumnType, Database, Dataset, Row, Schema, Table};
use madlib_linalg::decomposition::{symmetric_inverse_with, EigenWorkspace};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SEGMENTS: usize = 4;
const TENANTS: usize = 64;
const WIDTH: usize = 20;
const INITIAL_ROWS: usize = 10_000;
const LOAD_BATCH: usize = 1_000;
const BATCH_ROWS: usize = 100;
const CHECKPOINT_EVERY: usize = 50;
const HOLDOUT_ROWS: usize = 1_024;
const SETUPS: usize = 9;
const RECOVERIES: usize = 3;
/// `peak_rss_mb` is read once this many batches are in, so it describes a
/// fixed amount of data however fast the writer runs (about 4.5 s into a
/// run on the host of record).
const RSS_AT_BATCHES: usize = 4_000;
/// The reader's pause between reads: it polls rather than spins, so it
/// contends with the writer for locks and memory, not for a whole core.
const READ_THINK: Duration = Duration::from_millis(1);
/// The traced run records the spans of one read in this many.
const READ_TRACE_EVERY: u64 = 16;
/// Batches of the timer-free counter pass: two checkpoints, then a WAL tail.
const COUNTER_BATCHES: usize = 120;
const TABLE: &str = "stream";
const MODEL: &str = "stream_linregr";
const GROUPED_VIEW: &str = "stream_by_tenant";
/// Where durable databases live, under the working directory.
const DATA_DIR: &str = ".bench_data";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("tenant", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ])
}

fn beta(seed: u64) -> Vec<f64> {
    Rng::new(seed, 4).normals(WIDTH)
}

fn rows(rng: &mut Rng, beta: &[f64], n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let tenant = rng.below(TENANTS) as i64;
            let x = features(rng, WIDTH);
            let y = dot(&x, beta) + 0.1 * rng.normal();
            Row::new(vec![tenant.into(), y.into(), x.into()])
        })
        .collect()
}

/// Batch `k` of the append stream.
fn batch(seed: u64, k: usize) -> Vec<Row> {
    rows(
        &mut Rng::new(seed, 1_000 + k as u64),
        &beta(seed),
        BATCH_ROWS,
    )
}

fn initial_rows(seed: u64) -> Vec<Row> {
    rows(&mut Rng::new(seed, 5), &beta(seed), INITIAL_ROWS)
}

fn holdout(seed: u64) -> Result<Table, Box<dyn std::error::Error>> {
    let mut rng = Rng::new(seed, 6);
    let rows: Vec<Row> = (0..HOLDOUT_ROWS)
        .map(|_| Row::new(vec![features(&mut rng, WIDTH).into()]))
        .collect();
    Ok(crate::data::load_table(
        &Schema::new(vec![Column::new("x", ColumnType::DoubleArray)]),
        1,
        &rows,
    )?)
}

fn estimator() -> LinearRegression {
    LinearRegression::new("y", "x")
}

/// Creates the table, loads the initial rows, trains the incremental model
/// and registers the grouped view: the workload's set-up, on `db`.
fn setup_on(db: &Database, initial: &[Row]) -> Result<Session, Box<dyn std::error::Error>> {
    db.create_table(TABLE, schema())?;
    for rows in initial.chunks(LOAD_BATCH) {
        db.append_rows(TABLE, rows.iter().cloned())?;
    }
    let session = Session::new(db.clone());
    session.train_incremental(&estimator(), TABLE, MODEL)?;
    db.register_view(
        GROUPED_VIEW,
        TABLE,
        Box::new(
            MaterializedAggregate::new(estimator(), session.executor())
                .with_group_columns(["tenant"]),
        ),
    )?;
    db.refresh_view(GROUPED_VIEW, |_| Ok(()))?;
    Ok(session)
}

/// A scratch database directory under [`DATA_DIR`], removed when dropped
/// (error paths included).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let dir = Path::new(DATA_DIR).join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too unless another run still uses it.
        let _ = std::fs::remove_dir(DATA_DIR);
    }
}

/// Durable open plus [`setup_on`], then a checkpoint so the timed loop
/// starts from an empty log.
fn setup_durable(dir: &Path, initial: &[Row]) -> Result<Session, Box<dyn std::error::Error>> {
    let db = Database::open(dir, SEGMENTS)?;
    let session = setup_on(&db, initial)?;
    db.checkpoint()?;
    Ok(session)
}

/// Writes back dirty pages left by earlier processes (a build, the previous
/// run's files) so that their write-back does not land inside this run's
/// fsyncs.  Best effort: a missing `sync` only costs steadiness.
fn flush_page_cache() {
    if let Err(err) = std::process::Command::new("sync").status() {
        eprintln!("sync failed: {err}");
    }
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[derive(Default)]
struct Writer {
    append_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Untraced ingest intervals: [`CHECKPOINT_EVERY`] appends with their
    /// refreshes, and the checkpoint that closes them.
    interval_ms: Vec<f64>,
    /// Traced ingest intervals (traced run only).
    traced_interval_ms: Vec<f64>,
    /// Peak RSS once [`RSS_AT_BATCHES`] batches were acknowledged.
    rss_mb: Option<f64>,
    acked_batches: usize,
    elapsed_s: f64,
    last_model: Option<LinearRegressionModel>,
    ops: crate::stats::OpLog,
}

#[derive(Default)]
struct Reader {
    read_ms: Vec<f64>,
    ops: crate::stats::OpLog,
}

fn write_loop(
    session: &Session,
    config: &Config,
    traced: &Tracer,
    deadline: Instant,
    stop: &AtomicBool,
) -> Writer {
    let untraced = Tracer::new(false);
    let db = session.database();
    let mut w = Writer::default();
    let started = Instant::now();
    let mut generating = Duration::ZERO;
    let mut interval_start = started;
    let mut pending: Vec<Vec<Row>> = Vec::new();
    let mut k = 0usize;
    while Instant::now() < deadline {
        if k.is_multiple_of(CHECKPOINT_EVERY) {
            // The interval's inputs are generated before it is timed.
            let start = Instant::now();
            pending = (k..k + CHECKPOINT_EVERY)
                .rev()
                .map(|j| batch(config.seed, j))
                .collect();
            generating += start.elapsed();
            interval_start = Instant::now();
        }
        let rows = pending.pop().expect("one pending batch per interval step");
        let request = k as u64 + 1;
        // The traced run alternates traced and untraced intervals so the
        // difference between them is the tracing overhead.
        let is_traced = config.trace && (k / CHECKPOINT_EVERY) % 2 == 1;
        let tracer = if is_traced { traced } else { &untraced };
        let start = Instant::now();
        let appended = tracer.request("bench.ingest.append", request, || {
            tracer.span("engine.database.append_rows", || {
                db.append_rows(TABLE, rows)
            })
        });
        if !is_traced {
            w.append_ms.push(ms(start.elapsed()));
        }
        w.ops.record(appended.is_ok());
        if let Err(err) = appended {
            eprintln!("append failed: {err}");
            break;
        }
        w.acked_batches += 1;
        if w.acked_batches == RSS_AT_BATCHES {
            w.rss_mb = Some(crate::peak_rss_mb());
        }

        let start = Instant::now();
        let refreshed = tracer.request("bench.ingest.refresh", request, || {
            tracer.span("core.refresh", || {
                session.refresh(&estimator(), TABLE, MODEL)
            })
        });
        w.refresh_ms.push(ms(start.elapsed()));
        let expected_rows = (INITIAL_ROWS + w.acked_batches * BATCH_ROWS) as u64;
        let ok = refreshed
            .as_ref()
            .is_ok_and(|m| m.num_rows == expected_rows);
        w.ops.record(ok);
        if let Ok(model) = refreshed {
            w.last_model = Some(model);
        }

        if w.acked_batches % CHECKPOINT_EVERY == 0 {
            let start = Instant::now();
            let written = tracer.request("bench.ingest.checkpoint", request, || {
                tracer.span("engine.persist.checkpoint", || db.checkpoint())
            });
            w.checkpoint_ms.push(ms(start.elapsed()));
            w.ops.record(written.is_ok());
            let interval = ms(interval_start.elapsed());
            if is_traced {
                w.traced_interval_ms.push(interval);
            } else {
                w.interval_ms.push(interval);
            }
        }
        k += 1;
    }
    w.elapsed_s = (started.elapsed() - generating).as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    w
}

fn read_loop(
    session: &Session,
    holdout: &Table,
    holdout_rows: &[Row],
    config: &Config,
    traced: &Tracer,
    stop: &AtomicBool,
) -> Reader {
    let untraced = Tracer::new(false);
    let db = session.database();
    let mut rng = Rng::new(config.seed, 7);
    let mut r = Reader::default();
    let mut request = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(READ_THINK);
        request += 1;
        // Reads are short and many: trace one in READ_TRACE_EVERY.
        let is_traced = config.trace && request.is_multiple_of(READ_TRACE_EVERY);
        let tracer = if is_traced { traced } else { &untraced };
        let start = Instant::now();
        let result = tracer.request("bench.ingest.read", request << 32, || {
            let snapshot = tracer.span("engine.database.snapshot", || db.dataset(TABLE))?;
            let rows = snapshot.table().row_count();
            let model = tracer.span("engine.catalog.lookup", || {
                db.models().get::<LinearRegressionModel>(MODEL)
            })?;
            let scorer = FeatureScorer::new(std::sync::Arc::clone(&model), "x");
            let scores = tracer.span("engine.score.score", || {
                Dataset::from_table(holdout).score(&scorer)
            })?;
            Ok::<_, madlib_engine::EngineError>((rows, model, scores))
        });
        r.read_ms.push(ms(start.elapsed()));
        let ok = match result {
            Ok((rows, model, scores)) => {
                let whole_batches =
                    rows >= INITIAL_ROWS && (rows - INITIAL_ROWS).is_multiple_of(BATCH_ROWS);
                let i = rng.below(HOLDOUT_ROWS);
                whole_batches
                    && scores.len() == HOLDOUT_ROWS
                    && same_bits(&scores[i], &model, features_at(&holdout_rows[i], 0))
            }
            Err(err) => {
                eprintln!("read failed: {err}");
                false
            }
        };
        r.ops.record(ok);
    }
    r
}

/// Runs the workload.
///
/// # Errors
/// Returns set-up and I/O failures; operation failures are counted instead.
pub fn run(config: &Config) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut outcome = Outcome::default();
    let initial = initial_rows(config.seed);
    let holdout_table = holdout(config.seed)?;
    let holdout_rows = holdout_table.collect_rows();

    flush_page_cache();
    let mut setups = Vec::with_capacity(SETUPS);
    let scratch = ScratchDir::new("ingest")?;
    let dir = scratch.0.as_path();
    let mut session = None;
    for _ in 0..SETUPS {
        // Close the previous set-up's database before removing its files.
        drop(session.take());
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let start = Instant::now();
        session = Some(setup_durable(dir, &initial)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let session = session.expect("SETUPS > 0");
    let setup_s = median(&setups);
    outcome.e2e.insert("setup_s", setup_s);
    outcome.named("setup_s", setup_s, "s");

    let traced = Tracer::new(config.trace);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_loop(
                &session,
                &holdout_table,
                &holdout_rows,
                config,
                &traced,
                &stop,
            )
        });
        let writer = write_loop(&session, config, &traced, deadline, &stop);
        (writer, reader.join().expect("reader thread panicked"))
    });
    outcome.ops.absorb(writer.ops);
    outcome.ops.absorb(reader.ops);
    outcome.check(
        "reads_see_whole_batches_and_match_predict",
        reader.ops.failed == 0,
    );
    outcome.check("appends_and_refreshes_succeed", writer.ops.failed == 0);

    let appended_rows = writer.acked_batches * BATCH_ROWS;
    let ingest_rows_per_s = appended_rows as f64 / writer.elapsed_s;
    outcome.op_latency(config, "interval", &writer.interval_ms);
    // A writer too slow to reach the fixed size reports its end-of-run peak.
    if let Some(rss) = writer.rss_mb {
        outcome.e2e.insert("peak_rss_mb", rss);
    }
    outcome.extra.push((
        "peak_rss_at_batches".to_owned(),
        Json::from(if writer.rss_mb.is_some() {
            RSS_AT_BATCHES
        } else {
            writer.acked_batches
        }),
    ));
    outcome.e2e.insert("rows_per_s", ingest_rows_per_s);
    outcome.latency("append", &writer.append_ms);
    outcome.latency("score", &reader.read_ms);
    outcome.named("refresh_p50_ms", median(&writer.refresh_ms), "ms");
    outcome.named("checkpoint_p50_ms", median(&writer.checkpoint_ms), "ms");
    outcome.named("ingest_rows_per_s", ingest_rows_per_s, "rows/s");

    // Stored bytes per byte of user data, at the end of the timed run.
    let user: u64 = user_bytes(&initial)
        + (0..writer.acked_batches)
            .map(|k| user_bytes(&batch(config.seed, k)))
            .sum::<u64>();
    outcome.named(
        "disk_bytes_per_user_byte",
        dir_bytes(dir)? as f64 / user as f64,
        "ratio",
    );

    // Crash and recover: the recovered table must hold every acknowledged
    // append and retrain to the last refreshed model bit-for-bit.
    let expected_rows = INITIAL_ROWS + appended_rows;
    let last_bits = writer.last_model.as_ref().map(model_bits);
    drop(session);
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    for i in 0..RECOVERIES {
        let start = Instant::now();
        let recovered = Database::recover(dir);
        recover_s.push(start.elapsed().as_secs_f64());
        let ok = match recovered {
            Ok(db) => {
                let rows_ok = db
                    .table(TABLE)
                    .is_ok_and(|t| t.row_count() == expected_rows);
                let retrain_ok = i > 0 || {
                    let session = Session::new(db);
                    session
                        .dataset(TABLE)
                        .and_then(|d| session.train(&estimator(), &d))
                        .is_ok_and(|m| Some(model_bits(&m)) == last_bits)
                };
                rows_ok && retrain_ok
            }
            Err(err) => {
                eprintln!("recover failed: {err}");
                false
            }
        };
        outcome.ops.record(ok);
        outcome.check(format!("recovery_{i}_holds_acked_appends_and_retrains"), ok);
    }
    drop(scratch);
    outcome.named("recover_s", median(&recover_s), "s");
    outcome.extra.push((
        "shape".to_owned(),
        Json::obj()
            .with("initial_rows", INITIAL_ROWS)
            .with("batch_rows", BATCH_ROWS)
            .with("variables", WIDTH)
            .with("tenants", TENANTS)
            .with("segments", SEGMENTS)
            .with("checkpoint_every", CHECKPOINT_EVERY)
            .with(
                "flush_policy",
                "group commit (default): fsync per commit group",
            )
            .with("acked_batches", writer.acked_batches)
            .with("reads", reader.read_ms.len())
            .with("clients", 2u64),
    ));

    if config.trace {
        trace_layers(config, &traced, &writer, &mut outcome)?;
    }
    Ok(outcome)
}

/// Timings and exact counters of the fixed, single-writer counter pass.
struct CounterPass {
    exact: Layers,
    apply_ms: f64,
    views_ms: f64,
    durable_ms: f64,
    replay_rows_per_s: f64,
}

/// Feeds the same [`COUNTER_BATCHES`] batches to three databases — in
/// memory without views, in memory with the views, durable with the views
/// — checkpointing the durable one every [`CHECKPOINT_EVERY`] batches, then
/// recovers it.  Counts depend on the seed only.
fn counter_pass(seed: u64, initial: &[Row]) -> Result<CounterPass, Box<dyn std::error::Error>> {
    let plain = Database::new(SEGMENTS)?;
    plain.create_table(TABLE, schema())?;
    for rows in initial.chunks(LOAD_BATCH) {
        plain.append_rows(TABLE, rows.iter().cloned())?;
    }
    let viewed = Database::new(SEGMENTS)?;
    setup_on(&viewed, initial)?;
    let scratch = ScratchDir::new("counters")?;
    let dir = scratch.0.as_path();
    let durable = setup_durable(dir, initial)?;
    let db = durable.database().clone();

    let mut times: [Vec<f64>; 3] = Default::default();
    let mut checkpoint_chunks = 0usize;
    let mut checkpoint_bytes = 0u64;
    let mut user = user_bytes(initial);
    let mut wal_after_checkpoint = 0;
    for k in 0..COUNTER_BATCHES {
        let rows = batch(seed, k);
        user += user_bytes(&rows);
        // Rotate which database goes first so they share the noise.
        for j in 0..3 {
            let which = (k + j) % 3;
            let target = [&plain, &viewed, &db][which];
            let start = Instant::now();
            target.append_rows(TABLE, rows.iter().cloned())?;
            times[which].push(ms(start.elapsed()));
        }
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            let wal_before = db.wal_durable_len().unwrap_or(0);
            let before = dir_bytes(dir)? - wal_before;
            checkpoint_chunks += db.checkpoint()?;
            wal_after_checkpoint = db.wal_durable_len().unwrap_or(0);
            checkpoint_bytes += (dir_bytes(dir)? - wal_after_checkpoint) - before;
        }
    }
    let tail_batches = COUNTER_BATCHES % CHECKPOINT_EVERY;
    let wal_end = db.wal_durable_len().unwrap_or(0);
    let replayed = wal_end - wal_after_checkpoint;
    let disk_ratio = dir_bytes(dir)? as f64 / user as f64;
    drop(db);
    drop(durable);

    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut recovered_rows = 0;
    for _ in 0..RECOVERIES {
        let start = Instant::now();
        let recovered = Database::recover(dir)?;
        recover_s.push(start.elapsed().as_secs_f64());
        recovered_rows = recovered.table(TABLE)?.row_count();
    }
    drop(scratch);
    if recovered_rows != INITIAL_ROWS + COUNTER_BATCHES * BATCH_ROWS {
        return Err(format!("counter pass recovered {recovered_rows} rows").into());
    }

    let mut exact = Layers::new();
    exact.insert(
        "engine.wal.bytes_per_append",
        replayed as f64 / tail_batches as f64,
    );
    exact.insert("engine.persist.checkpoint_chunks", checkpoint_chunks as f64);
    exact.insert("engine.persist.checkpoint_bytes", checkpoint_bytes as f64);
    exact.insert("engine.persist.wal_bytes_replayed", replayed as f64);
    exact.insert("engine.persist.disk_bytes_per_user_byte", disk_ratio);
    layers::scan_counts(&viewed.table(TABLE)?, &mut exact)?;
    Ok(CounterPass {
        exact,
        apply_ms: median(&times[0]),
        views_ms: median(&times[1]),
        durable_ms: median(&times[2]),
        replay_rows_per_s: (tail_batches * BATCH_ROWS) as f64 / median(&recover_s),
    })
}

fn trace_layers(
    config: &Config,
    tracer: &Tracer,
    writer: &Writer,
    outcome: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let initial = initial_rows(config.seed);
    let pass = counter_pass(config.seed, &initial)?;
    let again = counter_pass(config.seed, &initial)?;
    let reproduced = pass
        .exact
        .iter()
        .all(|(name, v)| again.exact.get(name).map(|w| w.to_bits()) == Some(v.to_bits()));
    outcome.check("exact_counters_reproduce", reproduced);
    let mut layers = pass.exact.clone();
    layers.insert("engine.database.apply_ms", pass.apply_ms);
    layers.insert("engine.database.append_views_ms", pass.views_ms);
    layers.insert(
        "engine.materialize.absorb_ms",
        pass.views_ms - pass.apply_ms,
    );
    layers.insert("engine.database.append_durable_ms", pass.durable_ms);
    layers.insert("engine.wal.commit_ms", pass.durable_ms - pass.views_ms);
    layers.insert("engine.persist.replay_rows_per_s", pass.replay_rows_per_s);

    // Read-path and refresh layers, on an in-memory database holding the
    // initial rows and the counter pass's batches.
    let db = Database::new(SEGMENTS)?;
    let session = setup_on(&db, &initial)?;
    for k in 0..COUNTER_BATCHES {
        db.append_rows(TABLE, batch(config.seed, k))?;
    }
    session.refresh(&estimator(), TABLE, MODEL)?;
    let table = db.table(TABLE)?;
    let lr = estimator();
    let grouped = || Dataset::from_table(&table).group_by(["tenant"]);
    let (partition_ms, _) = median_ms_ok(REPS, || grouped().aggregate_per_group(&CountAggregate))?;
    let (states_ms, _) = median_ms_ok(REPS, || grouped().aggregate_per_group(&StatesOnly(&lr)))?;
    layers.insert("engine.group.partition_ms", partition_ms);
    layers.insert("engine.group.states_scan_ms", states_ms);
    layers.insert("core.transition_ms", states_ms - partition_ms);
    layers.insert(
        "linalg.kernels.rank_k_gflops",
        layers::rank_k_gflops(&table, &["x"]),
    );

    // Refresh = catch the view up and finalize (`refresh_view`), then
    // register the model.
    const CALLS: usize = 50;
    let view = incremental_view_name(MODEL);
    let (view_ms, _) = median_ms_ok(CALLS, || {
        db.refresh_view(&view, |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<LinearRegression>>()
                .ok_or_else(|| madlib_engine::EngineError::invalid("unexpected view type"))?
                .finalize()
        })
    })?;
    let (refresh_ms, _) = median_ms_ok(CALLS, || session.refresh(&lr, TABLE, MODEL))?;
    layers.insert("engine.materialize.finalize_ms", view_ms);
    layers.insert("core.model_build.total_ms", refresh_ms);
    layers.insert("core.model_build.aggregate_ms", view_ms);
    layers.insert("core.model_build_ms", refresh_ms - view_ms);

    let state: LinRegrState = Dataset::from_table(&table).aggregate(&StatesOnly(&lr))?;
    let (finalize_ms, _) = median_ms_ok(CALLS, || lr.finalize(state.clone()))?;
    let mut xtx = state.x_transp_x.clone();
    xtx.symmetrize_from_lower()?;
    let mut workspace = EigenWorkspace::new();
    let (decomposition_ms, _) = median_ms_ok(CALLS, || {
        symmetric_inverse_with(&xtx, 1e-10, &mut workspace)
    })?;
    layers.insert("core.finalize_ms", finalize_ms);
    layers.insert("linalg.decomposition_ms", decomposition_ms);
    layers.insert("core.finalize_share", view_ms / refresh_ms);

    let holdout_table = holdout(config.seed)?;
    let lookup = || db.models().get::<LinearRegressionModel>(MODEL);
    layers::serving_split(&lookup, &holdout_table, &mut layers)?;
    layers.insert(
        "linalg.kernels.batch_dot_rows_per_s",
        layers::batch_dot_rows_per_s(&table, "x", &lookup()?.coef),
    );

    layers::record_spans(
        tracer,
        &[
            "bench.ingest.append",
            "bench.ingest.refresh",
            "bench.ingest.checkpoint",
            "bench.ingest.read",
        ],
        &mut layers,
    );
    layers::record_overhead(&writer.interval_ms, &writer.traced_interval_ms, &mut layers);
    let path = layers::write_trace(tracer, "ingest")?;
    outcome.extra.push((
        "layer_split".to_owned(),
        Json::obj()
            .with("counter_batches", COUNTER_BATCHES)
            .with("spans", layers::spans_json(tracer))
            .with("trace_file", path.display().to_string()),
    ));
    outcome.layers = layers;
    Ok(())
}

//! Serving-subsystem equivalence properties.
//!
//! `Dataset::score` promises that running prediction as a chunked,
//! work-stealing scan pass — vectorized `predict_batch` overrides riding the
//! batched kernel tiers — is **bit-identical** to the naive per-row
//! `predict` loop, under both execution modes, both kernel tiers (CI re-runs
//! this suite with `MADLIB_SIMD=off MADLIB_THREADS=1`, which pins the scalar
//! reference tier on one worker), NULL-bearing and empty chunks, and
//! filtered scans.  Grouped (catalog-routed) scoring
//! promises bit-identity to filtering each group out and scoring it with its
//! own model, including composite NULL/NaN/`-0.0` keys.  These tests enforce
//! both promises over randomized data, plus the catalog's typed error
//! surface and the k-NN terminal's mode/tie determinism.

use madlib::engine::expr::Predicate;
use madlib::engine::{
    Column, ColumnType, Database, Dataset, EngineError, Executor, GroupKey, GroupScorers, Row,
    Schema, Similarity, Table, Value,
};
use madlib::methods::classify::{DecisionTree, NaiveBayes, SvmModel};
use madlib::methods::cluster::KMeansModel;
use madlib::methods::regress::{LinearRegressionModel, LogisticRegressionModel};
use madlib::methods::{FeatureScorer, Predictor, Session};
use proptest::prelude::*;

/// Bit-exact prediction equality: `Double`s compare by bits (so NaN == NaN
/// and -0.0 != 0.0), everything else by value.
fn assert_predictions_eq(got: &[Value], want: &[Value], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = match (g, w) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        assert!(same, "{context}: row {i}: got {g:?}, want {w:?}");
    }
}

fn linregr_model(coef: Vec<f64>) -> LinearRegressionModel {
    LinearRegressionModel {
        coef,
        r2: 0.0,
        std_err: Vec::new(),
        t_stats: Vec::new(),
        p_values: Vec::new(),
        condition_no: 0.0,
        num_rows: 0,
    }
}

fn logregr_model(coef: Vec<f64>) -> LogisticRegressionModel {
    LogisticRegressionModel {
        coef,
        std_err: Vec::new(),
        z_stats: Vec::new(),
        p_values: Vec::new(),
        log_likelihood: 0.0,
        num_iterations: 0,
        converged: true,
        num_rows: 0,
    }
}

fn svm_model(weights: Vec<f64>) -> SvmModel {
    SvmModel {
        weights,
        lambda: 1e-3,
        epochs: 0,
        final_objective: 0.0,
        num_rows: 0,
    }
}

fn kmeans_model(centroids: Vec<Vec<f64>>) -> KMeansModel {
    KMeansModel {
        centroids,
        inertia: 0.0,
        iterations: 0,
        converged: true,
        num_points: 0,
    }
}

/// Builds a `y (double) | x (double[], nullable)` table.
fn feature_table(
    points: &[(f64, Vec<f64>)],
    null_every: Option<usize>,
    segments: usize,
    chunk_capacity: usize,
) -> Table {
    let schema = Schema::new(vec![
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (i, (y, x)) in points.iter().enumerate() {
        let features = if null_every.is_some_and(|n| i % n == 0) {
            Value::Null
        } else {
            Value::DoubleArray(x.clone())
        };
        table
            .insert(Row::new(vec![Value::Double(*y), features]))
            .unwrap();
    }
    table
}

/// The naive serving plan `Dataset::score` must reproduce bit-for-bit: walk
/// the filter-surviving rows in segment order and call the model's typed
/// per-row predict, NULL features scoring to NULL.
fn per_row_reference<P: Predictor>(dataset: &Dataset<'_>, model: &P) -> Vec<Value> {
    dataset
        .map_rows(|row, schema| {
            let value = row.get_named(schema, "x")?;
            if value.is_null() {
                return Ok(Value::Null);
            }
            model
                .predict_value(value.as_double_array()?)
                .map_err(madlib::engine::EngineError::invalid)
        })
        .unwrap()
}

fn both_executors() -> [Executor; 2] {
    [Executor::new(), Executor::row_at_a_time()]
}

proptest! {
    /// `Dataset::score` ≡ per-row predict, bit for bit: linear regression's
    /// `batch_dot` override, across both execution modes, ragged segment
    /// layouts, tiny chunks, NULL-bearing rows and filters.
    #[test]
    fn score_matches_per_row_predict(
        points in prop::collection::vec(
            (-100.0f64..100.0, prop::collection::vec(-10.0f64..10.0, 3)),
            1..120,
        ),
        coef in prop::collection::vec(-5.0f64..5.0, 3),
        segments in 1usize..5,
        chunk_capacity in prop_oneof![Just(4usize), Just(16usize), Just(1024usize)],
        null_every_raw in 0usize..8,
        with_filter in any::<bool>(),
    ) {
        let null_every = (null_every_raw > 0).then_some(null_every_raw);
        let table = feature_table(&points, null_every, segments, chunk_capacity);
        let model = linregr_model(coef);
        let scorer = FeatureScorer::new(&model, "x");
        for executor in both_executors() {
            let mut dataset = Dataset::from_table(&table).with_executor(executor);
            if with_filter {
                dataset = dataset.filter(Predicate::column_gt("y", 0.0));
            }
            let scored = dataset.score(&scorer).unwrap();
            let reference = per_row_reference(&dataset, &model);
            assert_predictions_eq(&scored, &reference, "linregr");
        }
    }

    /// Grouped catalog-routed scoring ≡ filter-then-predict per group, with
    /// double group keys exercising the NULL/NaN/`-0.0` corners.
    #[test]
    fn grouped_scoring_matches_filtered_runs(
        points in prop::collection::vec(
            (0usize..5, prop::collection::vec(-10.0f64..10.0, 2)),
            1..100,
        ),
        segments in 1usize..4,
        chunk_capacity in prop_oneof![Just(4usize), Just(16usize), Just(1024usize)],
    ) {
        // Key space includes NULL, NaN, -0.0 and 0.0 — all distinct groups.
        let keys = [
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(1.5),
        ];
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (key_idx, x) in &points {
            table
                .insert(Row::new(vec![
                    keys[*key_idx].clone(),
                    Value::DoubleArray(x.clone()),
                ]))
                .unwrap();
        }
        // One distinct linregr model per possible key.
        let registry: Vec<(GroupKey, LinearRegressionModel)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let coef = vec![1.0 + i as f64, -0.5 * i as f64];
                (GroupKey::from_value(key), linregr_model(coef))
            })
            .collect();
        let scorers = GroupScorers::new(
            "per_key",
            registry
                .iter()
                .map(|(key, model)| (key.clone(), FeatureScorer::new(model, "x")))
                .collect(),
        )
        .unwrap();
        for executor in both_executors() {
            let grouped = Dataset::from_table(&table)
                .with_executor(executor)
                .group_by(["k"]);
            let scored = grouped.score_per_group(&scorers).unwrap();
            prop_assert_eq!(scored.len(), points.len());
            // The naive plan: per group, filter the rows down and score them
            // with that group's model alone; predictions must land at the
            // same positions with the same bits.
            let row_keys: Vec<GroupKey> = Dataset::from_table(&table)
                .with_executor(executor)
                .map_rows(|row, _| Ok(GroupKey::from_value(row.get(0))))
                .unwrap();
            for (key, model) in &registry {
                let filtered = Dataset::from_table(&table)
                    .with_executor(executor)
                    .filter(Predicate::column_is_key("k", key.clone()))
                    .score(&FeatureScorer::new(model, "x"))
                    .unwrap();
                let positions: Vec<usize> = row_keys
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| *k == key)
                    .map(|(i, _)| i)
                    .collect();
                prop_assert_eq!(filtered.len(), positions.len());
                let routed: Vec<Value> =
                    positions.iter().map(|&i| scored[i].clone()).collect();
                assert_predictions_eq(&routed, &filtered, "grouped routing");
            }
        }
    }

    /// `top_k_by_score` is deterministic and mode-independent: both
    /// executors return the same rows and bit-identical scores, matching a
    /// naive sort of the per-row reference scores under both metrics.
    #[test]
    fn top_k_matches_naive_sort(
        points in prop::collection::vec(
            (-100.0f64..100.0, prop::collection::vec(-10.0f64..10.0, 4)),
            1..80,
        ),
        query in prop::collection::vec(-10.0f64..10.0, 4),
        (k, with_filter) in (1usize..12, any::<bool>()),
        segments in 1usize..4,
        chunk_capacity in prop_oneof![Just(4usize), Just(1024usize)],
        null_every_raw in 0usize..6,
    ) {
        let null_every = (null_every_raw > 1).then_some(null_every_raw);
        let table = feature_table(&points, null_every, segments, chunk_capacity);
        for metric in [Similarity::Dot, Similarity::Euclidean] {
            let mut results = Vec::new();
            for executor in both_executors() {
                let mut dataset = Dataset::from_table(&table).with_executor(executor);
                if with_filter {
                    dataset = dataset.filter(Predicate::column_gt("y", 0.0));
                }
                let top = dataset.top_k_by_score("x", &query, k, metric).unwrap();
                // Naive reference: score the surviving non-NULL rows in scan
                // order and stable-sort by score.
                let mut reference: Vec<(Row, f64)> = Vec::new();
                for row in dataset.collect_rows().unwrap() {
                    let value = row.get(1);
                    if value.is_null() {
                        continue;
                    }
                    let x = value.as_double_array().unwrap();
                    let score: f64 = match metric {
                        Similarity::Dot => x.iter().zip(&query).map(|(a, b)| a * b).sum(),
                        Similarity::Euclidean => x
                            .iter()
                            .zip(&query)
                            .map(|(a, b)| {
                                let d = a - b;
                                d * d
                            })
                            .sum(),
                    };
                    reference.push((row, score));
                }
                match metric {
                    Similarity::Dot => {
                        reference.sort_by(|a, b| b.1.total_cmp(&a.1));
                    }
                    Similarity::Euclidean => {
                        reference.sort_by(|a, b| a.1.total_cmp(&b.1));
                    }
                }
                reference.truncate(k);
                prop_assert_eq!(top.len(), reference.len());
                for ((row, score), (want_row, want_score)) in top.iter().zip(&reference) {
                    prop_assert_eq!(score.to_bits(), want_score.to_bits());
                    prop_assert_eq!(row, want_row);
                }
                results.push(top);
            }
            // Chunked ≡ row-at-a-time, rows and bits.
            let (a, b) = (&results[0], &results[1]);
            prop_assert_eq!(a.len(), b.len());
            for ((ra, sa), (rb, sb)) in a.iter().zip(b) {
                prop_assert_eq!(ra, rb);
                prop_assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }
}

/// Every model family's vectorized path agrees with its per-row predict —
/// the dot-product family on `batch_dot`, k-means on `batch_closest_column`,
/// tree and Bayes through the per-row default — on a NULL-bearing, filtered,
/// multi-segment table under both modes.
#[test]
fn all_model_families_score_bit_identically() {
    let points: Vec<(f64, Vec<f64>)> = (0..257)
        .map(|i| {
            let t = i as f64;
            (
                t - 128.0,
                vec![1.0, (t * 0.37) % 5.0 - 2.5, (t * 0.11) % 3.0, t % 7.0 - 3.0],
            )
        })
        .collect();
    let table = feature_table(&points, Some(9), 3, 16);

    let linregr = linregr_model(vec![0.5, -1.25, 2.0, 0.125]);
    let logregr = logregr_model(vec![-0.25, 1.0, -0.75, 0.5]);
    let svm = svm_model(vec![0.0625, -0.5, 1.5, -1.0]);
    let kmeans = kmeans_model(vec![
        vec![1.0, 0.0, 0.0, 0.0],
        vec![1.0, -2.0, 1.0, 2.0],
        vec![1.0, 2.0, 2.0, -2.0],
    ]);

    // Trained models for the per-row-only families.
    let labeled_schema = Schema::new(vec![
        Column::new("label", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut labeled = Table::new(labeled_schema, 2).unwrap();
    for (y, x) in &points {
        let label = if *y > 0.0 { "pos" } else { "neg" };
        labeled
            .insert(Row::new(vec![
                Value::Text(label.to_owned()),
                Value::DoubleArray(x.clone()),
            ]))
            .unwrap();
    }
    let session = Session::new(Database::new(2).unwrap());
    let labeled_ds = Dataset::from_table(&labeled);
    let tree = session
        .train(
            &DecisionTree::new("label", "x").with_max_depth(4),
            &labeled_ds,
        )
        .unwrap();
    let bayes = session
        .train(&NaiveBayes::new("label", "x"), &labeled_ds)
        .unwrap();

    fn check<P: Predictor>(table: &Table, model: &P, context: &str) {
        let scorer = FeatureScorer::new(model, "x");
        for executor in both_executors() {
            for filtered in [false, true] {
                let mut dataset = Dataset::from_table(table).with_executor(executor);
                if filtered {
                    dataset = dataset.filter(Predicate::column_gt("y", -30.0));
                }
                let scored = dataset.score(&scorer).unwrap();
                let reference = per_row_reference(&dataset, model);
                assert_predictions_eq(&scored, &reference, context);
            }
        }
    }

    check(&table, &linregr, "linregr");
    check(&table, &logregr, "logregr");
    check(&table, &svm, "svm");
    check(&table, &kmeans, "kmeans");
    check(&table, &tree, "decision tree");
    check(&table, &bayes, "naive bayes");
}

/// Empty datasets and fully-filtered scans score to empty prediction
/// vectors in both modes; scoring a grouped dataset without a registry is a
/// typed error.
#[test]
fn empty_and_grouped_edges() {
    let table = feature_table(&[], None, 3, 16);
    let model = linregr_model(vec![1.0, 2.0]);
    let scorer = FeatureScorer::new(&model, "x");
    for executor in both_executors() {
        let scored = Dataset::from_table(&table)
            .with_executor(executor)
            .score(&scorer)
            .unwrap();
        assert!(scored.is_empty());
    }
    let populated = feature_table(&[(1.0, vec![1.0, 2.0]), (2.0, vec![3.0, 4.0])], None, 2, 16);
    for executor in both_executors() {
        let scored = Dataset::from_table(&populated)
            .with_executor(executor)
            .filter(Predicate::column_gt("y", 100.0))
            .score(&scorer)
            .unwrap();
        assert!(scored.is_empty());
    }
    // Ungrouped serving terminals reject grouped datasets with guidance.
    let grouped = Dataset::from_table(&populated).group_by(["y"]);
    assert!(matches!(
        grouped.score(&scorer),
        Err(EngineError::InvalidArgument { message }) if message.contains("score_per_group")
    ));
    assert!(grouped
        .top_k_by_score("x", &[0.0, 0.0], 1, Similarity::Dot)
        .is_err());
}

/// The catalog's typed serving surface end to end: register by name, score
/// by name through the session, and surface `ModelNotFound` / wrong-type /
/// missing-group errors as typed values.
#[test]
fn catalog_routed_serving_and_errors() {
    let database = Database::new(2).unwrap();
    let session = Session::new(database.clone());
    let schema = Schema::new(vec![
        Column::new("region", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    database.create_table("customers", schema).unwrap();
    database
        .with_table_mut("customers", |t| {
            for i in 0..40 {
                let region = if i % 2 == 0 { "north" } else { "south" };
                t.insert(Row::new(vec![
                    Value::Text(region.to_owned()),
                    Value::DoubleArray(vec![1.0, i as f64]),
                ]))?;
            }
            Ok(())
        })
        .unwrap();

    // Single model: register + score by name.
    let model = linregr_model(vec![2.0, 0.5]);
    session.register_model("churn", model.clone());
    let dataset = session.dataset("customers").unwrap();
    let scored = session
        .score::<LinearRegressionModel>(&dataset, "churn", "x")
        .unwrap();
    let reference = per_row_reference(&dataset, &model);
    assert_predictions_eq(&scored, &reference, "catalog single");

    // Grouped registry: one model per region, routed by the dataset's keys.
    let north = linregr_model(vec![1.0, 1.0]);
    let south = linregr_model(vec![-1.0, 0.25]);
    database
        .models()
        .register_grouped(
            "churn_by_region",
            vec![
                (
                    GroupKey::from_value(&Value::Text("north".into())),
                    north.clone(),
                ),
                (
                    GroupKey::from_value(&Value::Text("south".into())),
                    south.clone(),
                ),
            ],
        )
        .unwrap();
    let grouped = dataset.reborrow().group_by(["region"]);
    let routed = session
        .score::<LinearRegressionModel>(&grouped, "churn_by_region", "x")
        .unwrap();
    for (i, row) in dataset.collect_rows().unwrap().iter().enumerate() {
        let region = row.get(0).as_text().unwrap();
        let model = if region == "north" { &north } else { &south };
        let x = row.get(1).as_double_array().unwrap();
        let want = model.predict_value(x).unwrap();
        assert_predictions_eq(
            std::slice::from_ref(&routed[i]),
            std::slice::from_ref(&want),
            "catalog grouped",
        );
    }

    // Typed errors: unknown name, wrong type, missing group.
    assert!(matches!(
        session.score::<LinearRegressionModel>(&dataset, "missing", "x"),
        Err(e) if e.to_string().contains("model not found")
    ));
    assert!(matches!(
        database.models().get::<KMeansModel>("churn").unwrap_err(),
        EngineError::TypeMismatch { .. }
    ));
    let west_only = GroupScorers::new(
        "churn_by_region",
        vec![(
            GroupKey::from_value(&Value::Text("north".into())),
            FeatureScorer::new(&north, "x"),
        )],
    )
    .unwrap();
    for executor in both_executors() {
        let err = grouped
            .reborrow()
            .with_executor(executor)
            .score_per_group(&west_only)
            .unwrap_err();
        match err {
            EngineError::ModelNotFound { name, group } => {
                assert_eq!(name, "churn_by_region");
                assert!(group.is_some());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

/// `score_into` materializes the predictions as a catalog table whose
/// segment placement mirrors the source.
#[test]
fn score_into_materializes_predictions() {
    let database = Database::new(3).unwrap();
    let points: Vec<(f64, Vec<f64>)> = (0..50).map(|i| (i as f64, vec![1.0, i as f64])).collect();
    let table = feature_table(&points, Some(7), 3, 8);
    let model = linregr_model(vec![3.0, -0.5]);
    let scorer = FeatureScorer::new(&model, "x");
    let dataset = Dataset::from_table(&table);
    dataset
        .score_into(&scorer, &database, "predictions")
        .unwrap();
    let predictions = database.table("predictions").unwrap();
    assert_eq!(predictions.schema().columns().len(), 1);
    assert_eq!(predictions.num_segments(), table.num_segments());
    let scored = dataset.score(&scorer).unwrap();
    let materialized: Vec<Value> = Dataset::from_table(&predictions)
        .map_rows(|row, _| Ok(row.get(0).clone()))
        .unwrap();
    assert_predictions_eq(&materialized, &scored, "score_into");
    // Per segment, predictions line up with the source segment's rows.
    for seg in 0..table.num_segments() {
        assert_eq!(
            predictions.segment(seg).len(),
            table.segment(seg).len(),
            "segment {seg}"
        );
    }
    // Name collisions surface as the catalog's typed error.
    assert!(matches!(
        dataset.score_into(&scorer, &database, "predictions"),
        Err(EngineError::TableAlreadyExists { .. })
    ));
}

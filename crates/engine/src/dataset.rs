//! Lazy, composable scan descriptions — the engine half of the MADlib-style
//! uniform calling convention.
//!
//! MADlib's defining interface decision (paper Sections 3–4) is that every
//! method is invoked the same way: `method_train(source_table, output,
//! dep_var, indep_vars, grouping_cols)` — one call, optionally one model
//! *per group*.  [`Dataset`] is the Rust shape of the first half of that
//! convention: a description of *which rows* a computation runs over —
//! a source table, an optional predicate (the `WHERE` clause) and optional
//! grouping columns (`grouping_cols`) — built lazily:
//!
//! ```
//! # use madlib_engine::{Database, Column, ColumnType, Schema, Value, row};
//! # use madlib_engine::expr::Predicate;
//! # use madlib_engine::aggregate::CountAggregate;
//! # let db = Database::new(2).unwrap();
//! # db.create_table("patients", Schema::new(vec![
//! #     Column::new("hospital", ColumnType::Text),
//! #     Column::new("age", ColumnType::Double),
//! # ])).unwrap();
//! # db.with_table_mut("patients", |t| t.insert(row!["a", 40.0])).unwrap();
//! let per_hospital = db
//!     .dataset("patients")
//!     .unwrap()
//!     .filter(Predicate::column_gt("age", 18.0))
//!     .group_by(["hospital"])
//!     .aggregate_per_group(&CountAggregate)
//!     .unwrap();
//! ```
//!
//! Nothing is scanned until a *terminal operation* runs: [`Dataset::aggregate`],
//! [`Dataset::aggregate_per_group`], [`Dataset::map_chunks`],
//! [`Dataset::map_rows`], [`Dataset::collect_rows`] or
//! [`Dataset::gather_groups`].  All of them dispatch onto the shared
//! [`crate::scan`] pipeline (segment fan-out, chunk-level predicate masks,
//! compaction), under the [`Executor`] the dataset is bound to — so a
//! dataset built from a row-at-a-time executor reproduces the legacy scan
//! exactly.
//!
//! The grouped terminal runs the segment-parallel, chunk-at-a-time hash
//! grouping of [`crate::group`] (typed [`GroupKey`]s, counting-sort
//! partitioning, per-group gathers through
//! [`crate::chunk::RowChunk::gather_rows`]); it is the *only* grouped-scan
//! entry point — the old `Executor` method matrix has been removed.
//! `grouping_cols` is an arbitrary column *list*, as in the paper:
//! `group_by(["a", "b"])` keys every group by the composite tuple of its
//! columns' values (one [`crate::group::KeyPart`] per column).  When a chunk
//! splinters into more groups than batching pays for, the scan switches to a
//! radix partition pass: each row is bucketed by its group slot, bucket rows
//! are staged across chunks (cheap columnar copies, no [`Row`]
//! materialization) and flushed through [`Aggregate::transition_chunk`] one
//! group at a time — so even the ≥1-group-per-chunk-row regime runs on the
//! vectorized kernels, bit-identical to the row loop.

use crate::aggregate::Aggregate;
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::executor::{ExecutionMode, ExecutionStats, Executor};
use crate::expr::Predicate;
use crate::group::{self, GroupKey, GroupedStates};
use crate::row::Row;
use crate::scan;
use crate::schema::Schema;
use crate::table::Table;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// A lazy, composable description of a scan: a source table plus an optional
/// row predicate and optional grouping columns, bound to the [`Executor`]
/// that will run it.
///
/// The table is held as a [`Cow`], so a dataset either borrows an existing
/// [`Table`] ([`Dataset::from_table`] — zero-copy) or owns a catalog
/// snapshot ([`Database::dataset`]).
#[derive(Debug, Clone)]
pub struct Dataset<'a> {
    table: Cow<'a, Table>,
    filter: Option<Predicate>,
    group_columns: Vec<String>,
    executor: Executor,
    /// Whether [`Dataset::with_executor`] was called: an explicitly bound
    /// executor wins over a training session's default (see
    /// `Session::train`), while the implicit default is freely replaceable.
    executor_bound: bool,
}

impl<'a> Dataset<'a> {
    /// Creates a dataset borrowing `table`, with no filter or grouping,
    /// bound to the default parallel chunk-at-a-time executor.
    pub fn from_table(table: &'a Table) -> Dataset<'a> {
        Dataset {
            table: Cow::Borrowed(table),
            filter: None,
            group_columns: Vec::new(),
            executor: Executor::new(),
            executor_bound: false,
        }
    }

    /// Creates a dataset that owns its table.
    pub fn from_owned_table(table: Table) -> Dataset<'static> {
        Dataset {
            table: Cow::Owned(table),
            filter: None,
            group_columns: Vec::new(),
            executor: Executor::new(),
            executor_bound: false,
        }
    }

    /// Restricts the dataset to rows accepted by `predicate`.  Chaining
    /// filters composes with AND.
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filter = Some(match self.filter.take() {
            None => predicate,
            Some(existing) => existing.and(predicate),
        });
        self
    }

    /// Sets the grouping columns (the paper's `grouping_cols` — an arbitrary
    /// column list).  Grouped terminals evaluate their aggregate once per
    /// distinct *composite* group key: one [`crate::group::KeyPart`] per
    /// column, compared tuple-wise.
    ///
    /// The builder stays infallible; column names are resolved by the
    /// terminal operations, which report unknown or duplicate columns (and
    /// an empty list) as typed [`EngineError`]s.
    #[must_use]
    pub fn group_by<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Binds the dataset to a specific executor (mode and parallelism).
    /// An executor bound here sticks: a training session will run this
    /// dataset under it instead of the session's own executor.
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self.executor_bound = true;
        self
    }

    /// Binds `executor` only if none was explicitly bound yet — how a
    /// training session applies its default without overriding an explicit
    /// [`Dataset::with_executor`] choice.
    #[must_use]
    pub fn with_default_executor(mut self, executor: Executor) -> Self {
        if !self.executor_bound {
            self.executor = executor;
        }
        self
    }

    /// Whether [`Dataset::with_executor`] explicitly bound an executor.
    pub fn has_bound_executor(&self) -> bool {
        self.executor_bound
    }

    /// A cheap re-borrowing copy: the same filter/grouping over the same
    /// table, but borrowing instead of owning — so callers (e.g. a training
    /// session) can re-bind the executor without cloning table storage.
    pub fn reborrow(&self) -> Dataset<'_> {
        Dataset {
            table: Cow::Borrowed(self.table.as_ref()),
            filter: self.filter.clone(),
            group_columns: self.group_columns.clone(),
            executor: self.executor,
            executor_bound: self.executor_bound,
        }
    }

    /// The source table.
    pub fn table(&self) -> &Table {
        self.table.as_ref()
    }

    /// The source table's schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The composed row predicate, if any.
    pub fn filter_predicate(&self) -> Option<&Predicate> {
        self.filter.as_ref()
    }

    /// The grouping columns (empty when ungrouped).
    pub fn group_columns(&self) -> &[String] {
        &self.group_columns
    }

    /// Whether the dataset has grouping columns.
    pub fn is_grouped(&self) -> bool {
        !self.group_columns.is_empty()
    }

    /// The executor this dataset is bound to.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Resolves the grouping columns to schema indices, validating the list:
    /// it must be non-empty, every name must exist in the schema
    /// ([`EngineError::ColumnNotFound`] otherwise) and no column may appear
    /// twice — grouping by a repeated column would silently produce the same
    /// groups under a wider-looking key, so duplicates are rejected as
    /// [`EngineError::InvalidArgument`] instead.
    pub(crate) fn group_column_indices(&self) -> Result<Vec<usize>> {
        if self.group_columns.is_empty() {
            return Err(EngineError::invalid(
                "dataset has no grouping columns; call group_by([...]) first",
            ));
        }
        let schema = self.schema();
        let mut indices = Vec::with_capacity(self.group_columns.len());
        for column in &self.group_columns {
            let idx = schema.index_of(column)?;
            if indices.contains(&idx) {
                return Err(EngineError::invalid(format!(
                    "duplicate grouping column {column:?}; grouping columns must be distinct"
                )));
            }
            indices.push(idx);
        }
        Ok(indices)
    }

    fn require_ungrouped(&self, operation: &str) -> Result<()> {
        if self.is_grouped() {
            return Err(EngineError::invalid(format!(
                "{operation} over a grouped dataset; use aggregate_per_group \
                 (or Session::train_grouped) for grouped evaluation"
            )));
        }
        Ok(())
    }

    /// Runs `aggregate` over the dataset's (filtered) rows and returns the
    /// finalized output.  Terminal operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates aggregate and predicate errors; errors on a grouped
    /// dataset.
    pub fn aggregate<A: Aggregate>(&self, aggregate: &A) -> Result<A::Output> {
        Ok(self.aggregate_with_stats(aggregate)?.0)
    }

    /// Like [`Dataset::aggregate`], additionally returning scan statistics.
    ///
    /// # Errors
    /// Propagates aggregate and predicate errors; errors on a grouped
    /// dataset.
    pub fn aggregate_with_stats<A: Aggregate>(
        &self,
        aggregate: &A,
    ) -> Result<(A::Output, ExecutionStats)> {
        self.require_ungrouped("ungrouped aggregation")?;
        self.executor
            .aggregate_with_stats(self.table(), aggregate, self.filter.as_ref())
    }

    /// Runs `aggregate` once per distinct group key, returning the finalized
    /// per-group outputs sorted by key ([`GroupKey`]'s total order, NULL
    /// group first; composite keys compare tuple-wise).  Groups with no
    /// (filter-surviving) rows are absent.
    ///
    /// The grouping is evaluated per segment on the shared scan pipeline and
    /// the per-segment group states merged in segment order, so the
    /// data-parallel structure is identical to the ungrouped path — this is
    /// what lets MADlib train e.g. one regression per group in a single pass
    /// (Section 4.2's grouping constructs).  Under the chunked executor each
    /// chunk is partitioned by key and every group's rows are gathered, in
    /// row order, into a compacted sub-chunk for
    /// [`Aggregate::transition_chunk`]; when a chunk has too many groups for
    /// direct gathers to pay off, its rows are instead staged into
    /// group-slot radix buckets and flushed in batches, so high-cardinality
    /// scans stay on the vectorized kernels (bit-identical results either
    /// way).
    ///
    /// After the merge, the per-group **finalize** stage runs on the same
    /// work-stealing worker pool as the scan (groups are independent):
    /// outputs land in per-group slots and are reassembled in key order, and
    /// each finalize worker reuses one [`crate::FinalizeScratch`] across all
    /// the groups it claims, so results are bit-identical to the serial
    /// finalize loop regardless of scheduling.
    ///
    /// # Errors
    /// Propagates aggregate, predicate and column-lookup errors; errors when
    /// the dataset has no grouping columns or lists one twice.  A finalize
    /// worker panic surfaces as [`crate::EngineError::WorkerPanicked`].
    pub fn aggregate_per_group<A: Aggregate>(
        &self,
        aggregate: &A,
    ) -> Result<Vec<(GroupKey, A::Output)>>
    where
        A::Output: Send,
    {
        let schema = self.schema();
        let group_indices = self.group_column_indices()?;
        let group_indices = group_indices.as_slice();
        let filter = self.filter.as_ref();
        let mode = self.executor.mode();
        let segment_results =
            scan::run_per_segment(self.table(), self.executor.is_parallel(), |_, segment| {
                let mut grouped = GroupedStates::default();
                let chunks = segment.chunks();
                match mode {
                    ExecutionMode::Chunked => {
                        grouped.transition_chunks(aggregate, chunks, schema, group_indices, filter)
                    }
                    ExecutionMode::RowAtATime => {
                        grouped.transition_rows(aggregate, chunks, schema, group_indices, filter)
                    }
                }?;
                Ok(grouped.into_pairs())
            });
        let segments = segment_results.into_iter().collect::<Result<Vec<_>>>()?;
        let entries = group::merge_segment_groups(aggregate, segments);

        // Parallel finalize: groups are independent, so the sorted states
        // fan out over the work-stealing pool and reassemble in key order.
        let finalized = scan::run_per_item_with_scratch(
            entries,
            self.executor.is_parallel(),
            || aggregate.make_finalize_scratch(),
            |_, (key, state), scratch| {
                aggregate
                    .finalize_with(state, scratch)
                    .map(|output| (key, output))
            },
        );
        // Outer Err = worker panic; inner Err = finalize failure.
        finalized.into_iter().map(|slot| slot?).collect()
    }

    /// Applies `map` once per column-major chunk of filter-surviving rows
    /// (per segment, in parallel) and concatenates the outputs in
    /// segment-then-row order.  Partially selected chunks arrive compacted,
    /// so `map` only ever sees rows that passed the filter.  Terminal
    /// operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates predicate errors and errors returned by `map`.
    pub fn map_chunks<T, F>(&self, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&crate::chunk::RowChunk, &Schema) -> Result<Vec<T>> + Sync,
    {
        self.require_ungrouped("chunk projection")?;
        let schema = self.schema();
        let filter = self.filter.as_ref();
        // Always chunk-range stealing: outputs concatenate in range order,
        // which is unconditionally identical to the whole-segment scan, so
        // a hot segment's chunks can spread across workers for free.
        let per_segment = scan::run_per_segment_ranged(
            self.table(),
            self.executor.is_parallel(),
            |range, segment| {
                let mut out = Vec::new();
                scan::scan_chunks(range.chunks(segment), schema, filter, |batch| {
                    out.extend(map(batch.chunk(), schema)?);
                    Ok(())
                })?;
                Ok(out)
            },
            |mut left, right: Vec<T>| {
                left.extend(right);
                left
            },
        );
        let mut out = Vec::with_capacity(self.table().row_count());
        for res in per_segment {
            out.extend(res?);
        }
        Ok(out)
    }

    /// Applies `map` to every filter-surviving row (per segment, in
    /// parallel), concatenating outputs in segment-then-row order.  The
    /// row-level adapter over [`Dataset::map_chunks`].
    ///
    /// # Errors
    /// Propagates predicate errors and errors returned by `map`.
    pub fn map_rows<T, F>(&self, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Row, &Schema) -> Result<T> + Sync,
    {
        self.map_chunks(|chunk, schema| {
            let mut out = Vec::with_capacity(chunk.len());
            let mut values = Vec::with_capacity(chunk.arity());
            for i in 0..chunk.len() {
                chunk.read_row_into(i, &mut values);
                let row = Row::new(std::mem::take(&mut values));
                out.push(map(&row, schema)?);
                values = row.into_values();
            }
            Ok(out)
        })
    }

    /// Materializes the filter-surviving rows in segment order.  Terminal
    /// operation; requires an ungrouped dataset.  Intended for small results
    /// and tests — large scans should stay on the aggregate/map terminals.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub fn collect_rows(&self) -> Result<Vec<Row>> {
        self.map_rows(|row, _| Ok(row.clone()))
    }

    /// The first filter-surviving row in segment order, if any.  Serial;
    /// used by drivers that probe the input shape (e.g. the feature width)
    /// before iterating.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub fn first_row(&self) -> Result<Option<Row>> {
        let schema = self.schema();
        for row in self.table().iter() {
            match &self.filter {
                Some(pred) if !pred.evaluate(&row, schema)? => continue,
                _ => return Ok(Some(row)),
            }
        }
        Ok(None)
    }

    /// Splits the dataset into one table per group, preserving each row's
    /// original segment (and per-segment row order) so that any scan over a
    /// gathered table is bitwise identical to a scan over the source
    /// filtered down to that group.  Groups are returned sorted by key.
    ///
    /// This is the "per-group gather" used to run *iterative* estimators per
    /// group: single-pass aggregates go through
    /// [`Dataset::aggregate_per_group`] instead and never materialize
    /// per-group storage.
    ///
    /// # Errors
    /// Propagates predicate and column-lookup errors; errors when the
    /// dataset has no grouping columns or lists one twice.
    pub fn gather_groups(&self) -> Result<Vec<(GroupKey, Table)>> {
        let schema = self.schema();
        let group_indices = self.group_column_indices()?;
        let group_indices = group_indices.as_slice();
        let source = self.table();
        let filter = self.filter.as_ref();
        // Per segment, in parallel: split the filter-surviving rows by key,
        // preserving row order within each (segment, group).
        let per_segment =
            scan::run_per_segment(source, self.executor.is_parallel(), |_, segment| {
                let mut slots: HashMap<GroupKey, usize> = HashMap::new();
                let mut split: Vec<(GroupKey, Vec<Row>)> = Vec::new();
                scan::scan_segment_rows(segment, schema, filter, |row| {
                    let key = GroupKey::from_values(group_indices.iter().map(|&i| row.get(i)));
                    let slot = match slots.get(&key) {
                        Some(&slot) => slot,
                        None => {
                            split.push((key.clone(), Vec::new()));
                            slots.insert(key, split.len() - 1);
                            split.len() - 1
                        }
                    };
                    split[slot].1.push(row.clone());
                    Ok(())
                })?;
                Ok(split)
            });
        // Assemble the per-group tables in segment order, so every row keeps
        // its original segment and per-segment position.
        let mut groups: BTreeMap<GroupKey, Table> = BTreeMap::new();
        for (seg, res) in per_segment.into_iter().enumerate() {
            for (key, rows) in res? {
                if !groups.contains_key(&key) {
                    let table = Table::new(schema.clone(), source.num_segments())?
                        .with_chunk_capacity(source.chunk_capacity())?;
                    groups.insert(key.clone(), table);
                }
                let table = groups.get_mut(&key).expect("group table inserted above");
                for row in rows {
                    table.insert_into_segment(seg, row)?;
                }
            }
        }
        Ok(groups.into_iter().collect())
    }
}

impl Database {
    /// Opens a dataset over a snapshot of the named table (the analogue of
    /// naming a `source_table` in a MADlib call).
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn dataset(&self, name: &str) -> Result<Dataset<'static>> {
        Ok(Dataset::from_owned_table(self.table(name)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountAggregate, SumAggregate};
    use crate::row;
    use crate::schema::{Column, ColumnType};
    use crate::value::Value;

    fn make_table(segments: usize, rows: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Text),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        for i in 0..rows {
            let grp = if i % 2 == 0 { "even" } else { "odd" };
            t.insert(row![grp, i as f64, vec![i as f64, 1.0]]).unwrap();
        }
        t
    }

    #[test]
    fn builder_composes_filters_and_grouping() {
        let t = make_table(2, 10);
        let ds = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 1.5))
            .filter(Predicate::column_lt("y", 8.5))
            .group_by(["grp"]);
        assert!(ds.is_grouped());
        assert_eq!(ds.group_columns(), ["grp".to_owned()]);
        // Both filters apply (AND): y in {2..8} → 7 rows.
        let groups = ds.aggregate_per_group(&CountAggregate).unwrap();
        let total: u64 = groups.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn ungrouped_terminals_reject_grouped_datasets() {
        let t = make_table(2, 4);
        let ds = Dataset::from_table(&t).group_by(["grp"]);
        assert!(ds.aggregate(&CountAggregate).is_err());
        assert!(ds.map_rows(|_, _| Ok(())).is_err());
        assert!(ds.collect_rows().is_err());
    }

    #[test]
    fn grouped_terminals_validate_the_column_list() {
        use crate::error::EngineError;

        let t = make_table(2, 4);
        // No grouping columns at all.
        assert!(matches!(
            Dataset::from_table(&t).aggregate_per_group(&CountAggregate),
            Err(EngineError::InvalidArgument { .. })
        ));
        assert!(Dataset::from_table(&t).gather_groups().is_err());
        // Unknown names surface as typed ColumnNotFound at terminal time.
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["nope"])
                .aggregate_per_group(&CountAggregate),
            Err(EngineError::ColumnNotFound { name }) if name == "nope"
        ));
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["grp", "nope"])
                .gather_groups(),
            Err(EngineError::ColumnNotFound { name }) if name == "nope"
        ));
        // Duplicate columns are rejected instead of silently mis-grouping.
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["grp", "grp"])
                .aggregate_per_group(&CountAggregate),
            Err(EngineError::InvalidArgument { message }) if message.contains("duplicate")
        ));
        assert!(Dataset::from_table(&t)
            .group_by(["grp", "grp"])
            .gather_groups()
            .is_err());
        // A valid multi-column list works.
        assert!(Dataset::from_table(&t)
            .group_by(["grp", "y"])
            .aggregate_per_group(&CountAggregate)
            .is_ok());
    }

    #[test]
    fn composite_grouping_matches_filtered_runs() {
        let schema = Schema::new(vec![
            Column::new("a", ColumnType::Text),
            Column::new("b", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        for i in 0..53 {
            let a = ["x", "y"][i % 2];
            let b = (i % 3) as i64;
            t.insert(row![a, b, i as f64]).unwrap();
        }
        t.insert(Row::new(vec![
            Value::Null,
            Value::Int(0),
            Value::Double(100.0),
        ]))
        .unwrap();

        for executor in [Executor::new(), Executor::row_at_a_time()] {
            let groups = Dataset::from_table(&t)
                .with_executor(executor)
                .group_by(["a", "b"])
                .aggregate_per_group(&SumAggregate::new("v"))
                .unwrap();
            // 2 × 3 live tuples plus the (NULL, 0) group.
            assert_eq!(groups.len(), 7);
            for (key, sum) in &groups {
                assert_eq!(key.arity(), 2);
                let filtered = Dataset::from_table(&t)
                    .with_executor(executor)
                    .filter(Predicate::columns_are_key(["a", "b"], key.clone()))
                    .aggregate(&SumAggregate::new("v"))
                    .unwrap();
                assert_eq!(sum.to_bits(), filtered.to_bits());
            }
        }
    }

    #[test]
    fn grouped_aggregation_matches_filtered_runs() {
        let base = make_table(1, 97);
        let mut t = Table::new(base.schema().clone(), 4)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        t.insert_all(base.iter()).unwrap();

        for executor in [Executor::new(), Executor::row_at_a_time()] {
            let groups = Dataset::from_table(&t)
                .with_executor(executor)
                .group_by(["grp"])
                .aggregate_per_group(&SumAggregate::new("y"))
                .unwrap();
            assert_eq!(groups.len(), 2);
            for (key, sum) in &groups {
                let filtered = Dataset::from_table(&t)
                    .with_executor(executor)
                    .filter(Predicate::column_is_key("grp", key.clone()))
                    .aggregate(&SumAggregate::new("y"))
                    .unwrap();
                assert_eq!(sum.to_bits(), filtered.to_bits());
            }
        }
    }

    #[test]
    fn grouped_keys_are_typed_not_stringly() {
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Double),
            Column::new("v", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, 2).unwrap();
        // -0.0 and 0.0 must be distinct groups; NaNs must form one group.
        t.insert(row![0.0, 1.0]).unwrap();
        t.insert(row![-0.0, 2.0]).unwrap();
        t.insert(row![f64::NAN, 4.0]).unwrap();
        t.insert(row![f64::NAN, 8.0]).unwrap();
        t.insert(Row::new(vec![Value::Null, Value::Double(16.0)]))
            .unwrap();
        let groups = Dataset::from_table(&t)
            .group_by(["k"])
            .aggregate_per_group(&SumAggregate::new("v"))
            .unwrap();
        assert_eq!(groups.len(), 4);
        // Total order: NULL first, then -0.0 < 0.0 < NaN.
        assert_eq!(groups[0].0, GroupKey::from_value(&Value::Null));
        assert_eq!(groups[0].1, 16.0);
        match groups[1].0.clone().into_value() {
            Value::Double(v) => assert_eq!(v.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected key {other:?}"),
        }
        assert_eq!(groups[1].1, 2.0);
        assert_eq!(groups[2].0.clone().into_value(), Value::Double(0.0));
        assert_eq!(groups[2].1, 1.0);
        match groups[3].0.clone().into_value() {
            Value::Double(v) => assert!(v.is_nan()),
            other => panic!("unexpected key {other:?}"),
        }
        assert_eq!(groups[3].1, 12.0);

        // The ColumnIs predicate selects exactly one group, NaN included.
        for (key, sum) in &groups {
            let filtered = Dataset::from_table(&t)
                .filter(Predicate::column_is_key("k", key.clone()))
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            assert_eq!(filtered.to_bits(), sum.to_bits());
        }

        let text = |s: &str| GroupKey::from_value(&Value::Text(s.into()));
        for executor in [Executor::new(), Executor::row_at_a_time()] {
            // Text keys with a NULL group: every row lands in exactly one
            // group, the NULL group sorts first, and each group keeps its
            // rows in scan order.
            let schema = Schema::new(vec![
                Column::new("grp", ColumnType::Text),
                Column::new("v", ColumnType::Double),
            ]);
            let mut t = Table::new(schema, 1).unwrap();
            for (grp, v) in [("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", 4.0), ("c", 5.0)] {
                t.insert(row![grp, v]).unwrap();
            }
            t.insert(Row::new(vec![Value::Null, Value::Double(6.0)]))
                .unwrap();
            let ds = Dataset::from_table(&t)
                .with_executor(executor)
                .group_by(["grp"]);
            assert_eq!(
                ds.aggregate_per_group(&CountAggregate).unwrap(),
                vec![
                    (GroupKey::from_value(&Value::Null), 1),
                    (text("a"), 2),
                    (text("b"), 2),
                    (text("c"), 1),
                ]
            );
            let gathered = ds.gather_groups().unwrap();
            assert_eq!(gathered[1].0, text("a"));
            let a_rows: Vec<Row> = gathered[1].1.iter().collect();
            assert_eq!(a_rows, vec![row!["a", 2.0], row!["a", 4.0]]);

            // Composite tuples that differ in one part: two groups on either
            // column alone, three on the pair, ("x", 1) holding two rows.
            let schema = Schema::new(vec![
                Column::new("a", ColumnType::Text),
                Column::new("b", ColumnType::Int),
            ]);
            let mut t = Table::new(schema, 1).unwrap();
            for (a, b) in [("x", 1), ("x", 2), ("y", 1), ("x", 1)] {
                t.insert(row![a, b as i64]).unwrap();
            }
            let count_by = |columns: &[&str]| {
                Dataset::from_table(&t)
                    .with_executor(executor)
                    .group_by(columns.iter().copied())
                    .aggregate_per_group(&CountAggregate)
                    .unwrap()
            };
            assert_eq!(count_by(&["a"]).len(), 2);
            assert_eq!(count_by(&["b"]).len(), 2);
            let pairs = count_by(&["a", "b"]);
            assert_eq!(pairs.len(), 3);
            assert_eq!(
                pairs[0],
                (
                    GroupKey::from_values([&Value::Text("x".into()), &Value::Int(1)]),
                    2
                )
            );

            // double precision[] keys group by content.
            let schema = Schema::new(vec![Column::new("k", ColumnType::DoubleArray)]);
            let mut t = Table::new(schema, 1).unwrap();
            for k in [vec![1.0, 2.0], vec![1.0, 2.0], vec![2.0]] {
                t.insert(row![k]).unwrap();
            }
            let arrays = Dataset::from_table(&t)
                .with_executor(executor)
                .group_by(["k"])
                .aggregate_per_group(&CountAggregate)
                .unwrap();
            assert_eq!(
                arrays,
                vec![
                    (GroupKey::from_value(&Value::DoubleArray(vec![1.0, 2.0])), 2),
                    (GroupKey::from_value(&Value::DoubleArray(vec![2.0])), 1),
                ]
            );
        }
    }

    #[test]
    fn radix_flush_thresholds_preserve_equivalence() {
        // Two shapes that cross the staging thresholds mid-scan (the other
        // grouped tests stay below them and only flush at end of segment):
        // - 20 000 rows cycling 2 048 keys in 1 024-row chunks: every chunk
        //   is high-cardinality, each bucket gains 16 rows per chunk and
        //   crosses RADIX_FLUSH_ROWS after 16 chunks.
        // - 34 000 rows with 34 000 distinct keys: no bucket ever reaches
        //   the per-bucket threshold, so total staging crosses
        //   RADIX_MAX_STAGED_ROWS and the fullest-bucket drain kicks in.
        for (rows, groups) in [(20_000usize, 2_048usize), (34_000, 34_000)] {
            let schema = Schema::new(vec![
                Column::new("grp", ColumnType::Int),
                Column::new("y", ColumnType::Double),
            ]);
            let mut t = Table::new(schema, 1).unwrap();
            for i in 0..rows {
                t.insert(row![(i % groups) as i64, (i % 97) as f64 - 48.0])
                    .unwrap();
            }
            let run = |executor: Executor| {
                Dataset::from_table(&t)
                    .with_executor(executor)
                    .group_by(["grp"])
                    .aggregate_per_group(&SumAggregate::new("y"))
                    .unwrap()
            };
            let chunked = run(Executor::new());
            let by_rows = run(Executor::row_at_a_time());
            assert_eq!(chunked.len(), groups);
            assert_eq!(chunked.len(), by_rows.len());
            for ((ka, va), (kb, vb)) in chunked.iter().zip(&by_rows) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits(), "key {ka:?}");
            }
        }
    }

    #[test]
    fn map_and_collect_respect_filters() {
        let t = make_table(3, 12);
        let ds = Dataset::from_table(&t).filter(Predicate::column_gt("y", 5.5));
        let rows = ds.collect_rows().unwrap();
        assert_eq!(rows.len(), 6);
        let ys: Vec<f64> = ds
            .map_rows(|row, schema| row.get_named(schema, "y")?.as_double())
            .unwrap();
        assert!(ys.iter().all(|&y| y > 5.5));
        let by_chunks: Vec<f64> = ds
            .map_chunks(|chunk, schema| {
                let idx = schema.index_of("y")?;
                Ok(chunk.doubles(idx)?.values.to_vec())
            })
            .unwrap();
        assert_eq!(ys, by_chunks);

        let first = ds.first_row().unwrap().unwrap();
        assert_eq!(first.get(1).as_double().unwrap(), ys[0]);
        let none = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 1e9))
            .first_row()
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn gather_groups_preserves_segment_placement() {
        let base = make_table(1, 41);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        t.insert_all(base.iter()).unwrap();

        let gathered = Dataset::from_table(&t)
            .group_by(["grp"])
            .gather_groups()
            .unwrap();
        assert_eq!(gathered.len(), 2);
        let mut total = 0;
        for (key, group_table) in &gathered {
            assert_eq!(group_table.num_segments(), t.num_segments());
            assert_eq!(group_table.chunk_capacity(), t.chunk_capacity());
            total += group_table.row_count();
            // Per segment, the gathered rows are the source segment's rows
            // of this group, in order.
            for seg in 0..t.num_segments() {
                let expected: Vec<Row> = t
                    .segment(seg)
                    .iter()
                    .filter(|r| GroupKey::from_value(r.get(0)) == *key)
                    .collect();
                let got: Vec<Row> = group_table.segment(seg).iter().collect();
                assert_eq!(got, expected);
            }
        }
        assert_eq!(total, t.row_count());
    }

    #[test]
    fn database_dataset_snapshots_the_catalog_table() {
        let db = Database::new(2).unwrap();
        let schema = Schema::new(vec![Column::new("v", ColumnType::Double)]);
        db.create_table("data", schema).unwrap();
        db.with_table_mut("data", |t| {
            for i in 0..6 {
                t.insert(row![i as f64])?;
            }
            Ok(())
        })
        .unwrap();
        let ds = db.dataset("data").unwrap();
        assert_eq!(ds.aggregate(&CountAggregate).unwrap(), 6);
        assert!(db.dataset("missing").is_err());
    }
}

//! Parallel segment executor with chunk-at-a-time (vectorized) scans.
//!
//! Runs user-defined aggregates over a partitioned [`Table`] with one
//! transition state per segment, mirroring Greenplum's "one query process
//! per segment" execution model that the paper's Figure 4/5 evaluation
//! sweeps over.  Segments are claimed by `min(worker_count(), segments)`
//! work-stealing workers ([`crate::scan::worker_count`]).  The transition
//! function streams over each segment locally; the resulting per-segment
//! states are merged on the coordinating thread in segment order; and the
//! final function produces the output.  Only the (small) transition states
//! ever cross segment boundaries — the property the paper credits for its
//! near-linear parallel speedup.
//!
//! Every scan the executor issues — ungrouped aggregation and
//! `parallel_map` projections — runs on the shared [`crate::scan`] pipeline:
//! segments (chunk ranges, for projections) fan out to worker threads
//! ([`crate::scan::run_per_segment`] / [`crate::scan::run_per_segment_ranged`],
//! which convert worker panics into [`EngineError::WorkerPanicked`]), and
//! chunks stream through [`crate::scan::scan_chunks`] with predicates
//! hoisted to one [`crate::chunk::SelectionMask`] per chunk.
//! [`ExecutionMode::RowAtATime`] swaps the inner loop for the legacy per-row
//! scan; results are identical by contract, and the benchmark harness sweeps
//! both modes to reproduce the paper's Figure 4 "rewrite the inner loop"
//! comparison.
//!
//! Filtered and grouped scans are described with [`crate::dataset::Dataset`]
//! (`db.dataset("t")?.filter(...).group_by([...])`), which dispatches onto
//! the same pipeline.  (The executor's old `aggregate_filtered` /
//! `aggregate_grouped` / `aggregate_grouped_filtered` method matrix was
//! deprecated in favour of `Dataset` and has since been removed.)

use crate::aggregate::{merge_segment_states, Aggregate};
use crate::chunk::Segment;
use crate::dataset::Dataset;
use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::row::Row;
use crate::scan;
use crate::schema::Schema;
use crate::table::Table;

/// Statistics describing one aggregate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Rows scanned across all segments.
    pub rows_scanned: u64,
    /// Rows that passed the filter (equals `rows_scanned` when no filter).
    pub rows_aggregated: u64,
    /// Number of segments in the scanned table (`table.num_segments()`),
    /// not the number of worker threads.
    pub segments: usize,
}

/// How the executor scans a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Stream column-major chunks through [`Aggregate::transition_chunk`]
    /// with chunk-level predicate evaluation (default).
    #[default]
    Chunked,
    /// Materialize each row and call [`Aggregate::transition`], evaluating
    /// predicates row by row — the engine's original execution model, kept
    /// for debugging and for measuring the vectorization speedup.
    RowAtATime,
}

/// Executes aggregates over partitioned tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor {
    /// When true (default), segments are processed by parallel worker
    /// threads; when false everything runs on the calling thread, which is
    /// occasionally useful for debugging and for measuring parallel speedup.
    parallel: bool,
    mode: ExecutionMode,
}

impl Executor {
    /// Creates a parallel, chunk-at-a-time executor.  Scans fan out to
    /// `min(`[`scan::worker_count`]`(), units)` work-stealing workers, where a
    /// unit is a segment for aggregates and a chunk range for projections
    /// and scoring.
    pub fn new() -> Self {
        Self {
            parallel: true,
            mode: ExecutionMode::Chunked,
        }
    }

    /// Creates an executor that processes segments serially on the calling
    /// thread.  The per-segment transition/merge structure is identical, so
    /// results match the parallel path exactly.
    pub fn serial() -> Self {
        Self {
            parallel: false,
            ..Self::new()
        }
    }

    /// Selects the scan mode (chunked by default).
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for a parallel executor using the legacy per-row scan.
    pub fn row_at_a_time() -> Self {
        Self::new().with_mode(ExecutionMode::RowAtATime)
    }

    /// Whether this executor runs segments in parallel.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// The scan mode in use.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The work-stealing granularity of aggregate scans: always
    /// [`scan::StealGranularity::Segment`], one transition state per segment.
    pub fn steal_granularity(&self) -> scan::StealGranularity {
        scan::StealGranularity::Segment
    }

    /// Runs `aggregate` over every row of `table`, returning the finalized
    /// output.
    ///
    /// # Errors
    /// Propagates transition/final errors from the aggregate.
    pub fn aggregate<A: Aggregate>(&self, table: &Table, aggregate: &A) -> Result<A::Output> {
        Ok(self.aggregate_with_stats(table, aggregate, None)?.0)
    }

    /// Runs `aggregate` over the rows of `table` accepted by `filter`,
    /// returning the finalized output together with execution statistics.
    ///
    /// # Errors
    /// Propagates transition/final errors from the aggregate and predicate
    /// evaluation errors from the filter.
    pub fn aggregate_with_stats<A: Aggregate>(
        &self,
        table: &Table,
        aggregate: &A,
        filter: Option<&Predicate>,
    ) -> Result<(A::Output, ExecutionStats)> {
        let schema = table.schema();
        let mode = self.mode;
        let segment_results = scan::run_per_segment(table, self.parallel, |_, segment| {
            Self::run_segment(aggregate, segment, schema, filter, mode)
        });

        let mut stats = ExecutionStats {
            rows_scanned: 0,
            rows_aggregated: 0,
            segments: table.num_segments(),
        };
        let mut states = Vec::with_capacity(table.num_segments());
        for res in segment_results {
            let (state, seg_stats) = res?;
            stats.rows_scanned += seg_stats.rows_scanned;
            stats.rows_aggregated += seg_stats.rows_passed;
            states.push(state);
        }
        let state = merge_segment_states(aggregate, states);
        Ok((aggregate.finalize(state)?, stats))
    }

    fn run_segment<A: Aggregate>(
        aggregate: &A,
        segment: &Segment,
        schema: &Schema,
        filter: Option<&Predicate>,
        mode: ExecutionMode,
    ) -> Result<(A::State, scan::SegmentScanStats)> {
        let mut state = aggregate.initial_state();
        let stats = match mode {
            ExecutionMode::Chunked => {
                scan::scan_segment_chunks(segment, schema, filter, |batch| {
                    aggregate.transition_chunk(&mut state, batch.chunk(), schema)
                })?
            }
            ExecutionMode::RowAtATime => scan::scan_segment_rows(segment, schema, filter, |row| {
                aggregate.transition(&mut state, row, schema)
            })?,
        };
        Ok((state, stats))
    }

    /// Applies `map` to every row in parallel per segment and collects the
    /// outputs (segment order preserved).  This is the engine's equivalent of
    /// a parallel projection / per-row UDF scan — the unfiltered shorthand
    /// for [`Dataset::map_rows`], which supplies the shared fan-out, panic
    /// handling and row-materialization adapter.
    ///
    /// # Errors
    /// Propagates errors returned by `map`.
    pub fn parallel_map<T, F>(&self, table: &Table, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Row, &Schema) -> Result<T> + Sync,
    {
        Dataset::from_table(table)
            .with_executor(*self)
            .map_rows(map)
    }

    /// Chunk-level parallel projection: applies `map` once per column-major
    /// chunk (per segment, in parallel) and concatenates the outputs in
    /// segment-then-row order.  Chunk-aware consumers use this to read whole
    /// column slices (via [`crate::chunk::RowChunk::doubles`] /
    /// [`crate::chunk::RowChunk::double_arrays`]) instead of materialized
    /// rows.  The unfiltered shorthand for [`Dataset::map_chunks`];
    /// [`Executor::parallel_map`] is the row-level adapter on top.
    ///
    /// # Errors
    /// Propagates errors returned by `map`.
    pub fn parallel_map_chunks<T, F>(&self, table: &Table, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&crate::chunk::RowChunk, &Schema) -> Result<Vec<T>> + Sync,
    {
        Dataset::from_table(table)
            .with_executor(*self)
            .map_chunks(map)
    }

    /// Validates that the executor can run against the table (non-empty when
    /// `require_rows` is set).  Utility used by method drivers to produce a
    /// friendlier error than an empty-aggregate failure.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] for an empty table when rows
    /// are required.
    pub fn validate_input(&self, table: &Table, require_rows: bool) -> Result<()> {
        if require_rows && table.is_empty() {
            return Err(EngineError::invalid("input table has no rows"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{ArraySumAggregate, AvgAggregate, CountAggregate, SumAggregate};
    use crate::expr::Predicate;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

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
    fn parallel_and_serial_agree() {
        let t = make_table(4, 100);
        let parallel = Executor::new();
        let serial = Executor::serial();
        assert!(parallel.is_parallel());
        assert!(!serial.is_parallel());
        let sum_par = parallel.aggregate(&t, &SumAggregate::new("y")).unwrap();
        let sum_ser = serial.aggregate(&t, &SumAggregate::new("y")).unwrap();
        assert_eq!(sum_par, sum_ser);
        assert_eq!(sum_par, (0..100).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn chunked_and_row_modes_agree() {
        // Use a tiny chunk capacity so the scan crosses several chunk
        // boundaries per segment.
        let base = make_table(1, 157);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        t.insert_all(base.iter()).unwrap();

        let chunked = Executor::new();
        let row = Executor::row_at_a_time();
        assert_eq!(chunked.mode(), ExecutionMode::Chunked);
        assert_eq!(row.mode(), ExecutionMode::RowAtATime);

        let a = chunked.aggregate(&t, &SumAggregate::new("y")).unwrap();
        let b = row.aggregate(&t, &SumAggregate::new("y")).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());

        let a = chunked.aggregate(&t, &ArraySumAggregate::new("x")).unwrap();
        let b = row.aggregate(&t, &ArraySumAggregate::new("x")).unwrap();
        assert_eq!(a, b);

        let pred = Predicate::column_gt("y", 31.5).and(Predicate::column_lt("y", 141.0));
        let (ca, cs) = chunked
            .aggregate_with_stats(&t, &CountAggregate, Some(&pred))
            .unwrap();
        let (ra, rs) = row
            .aggregate_with_stats(&t, &CountAggregate, Some(&pred))
            .unwrap();
        assert_eq!(ca, ra);
        assert_eq!(cs, rs);
        assert_eq!(cs.rows_scanned, 157);
    }

    #[test]
    fn results_invariant_to_partitioning() {
        let base = make_table(1, 60);
        let expected = Executor::new()
            .aggregate(&base, &ArraySumAggregate::new("x"))
            .unwrap();
        for segs in [2, 3, 5, 8] {
            let t = base.repartition(segs).unwrap();
            let got = Executor::new()
                .aggregate(&t, &ArraySumAggregate::new("x"))
                .unwrap();
            assert_eq!(got, expected, "mismatch at {segs} segments");
        }
    }

    #[test]
    fn filtered_aggregation_and_stats() {
        let t = make_table(3, 10);
        let exec = Executor::new();
        let pred = Predicate::column_gt("y", 4.5);
        let (count, stats) = exec
            .aggregate_with_stats(&t, &CountAggregate, Some(&pred))
            .unwrap();
        assert_eq!(count, 5); // y in {5..9}
        assert_eq!(stats.rows_scanned, 10);
        assert_eq!(stats.rows_aggregated, 5);
        assert_eq!(stats.segments, 3);
    }

    #[test]
    fn empty_table_aggregates() {
        let t = make_table(2, 0);
        let exec = Executor::new();
        assert_eq!(exec.aggregate(&t, &CountAggregate).unwrap(), 0);
        assert_eq!(exec.aggregate(&t, &AvgAggregate::new("y")).unwrap(), None);
        assert!(exec.aggregate(&t, &ArraySumAggregate::new("x")).is_err());
        assert!(exec.validate_input(&t, true).is_err());
        assert!(exec.validate_input(&t, false).is_ok());
    }

    #[test]
    fn worker_panics_surface_as_errors_not_aborts() {
        struct PanickyAggregate;
        impl Aggregate for PanickyAggregate {
            type State = u64;
            type Output = u64;
            fn initial_state(&self) -> u64 {
                0
            }
            fn transition(&self, _: &mut u64, row: &Row, _: &Schema) -> Result<()> {
                if row.get(1).as_double()? >= 8.0 {
                    panic!("transition exploded");
                }
                Ok(())
            }
            fn merge(&self, left: u64, right: u64) -> u64 {
                left + right
            }
            fn finalize(&self, state: u64) -> Result<u64> {
                Ok(state)
            }
        }

        let t = make_table(4, 32);
        for exec in [
            Executor::row_at_a_time(),
            Executor::serial().with_mode(ExecutionMode::RowAtATime),
        ] {
            let err = exec.aggregate(&t, &PanickyAggregate).unwrap_err();
            match err {
                EngineError::WorkerPanicked { message } => {
                    assert!(message.contains("transition exploded"), "got: {message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }

        // parallel_map workers propagate panics the same way.
        let err = Executor::new()
            .parallel_map(&t, |row, _| -> Result<f64> {
                if row.get(1).as_double()? >= 8.0 {
                    panic!("map exploded");
                }
                Ok(0.0)
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }));
    }

    #[test]
    fn parallel_map_preserves_all_rows() {
        let t = make_table(4, 20);
        let exec = Executor::new();
        let doubled: Vec<f64> = exec
            .parallel_map(&t, |row, schema| {
                Ok(row.get_named(schema, "y")?.as_double()? * 2.0)
            })
            .unwrap();
        assert_eq!(doubled.len(), 20);
        let sum: f64 = doubled.iter().sum();
        assert_eq!(sum, 2.0 * (0..20).map(|i| i as f64).sum::<f64>());
        // Errors propagate.
        let err = exec.parallel_map(&t, |row, schema| {
            row.get_named(schema, "grp")?.as_double().map(|_| ())
        });
        assert!(err.is_err());
    }

    #[test]
    fn parallel_map_chunks_matches_row_level_map() {
        let base = make_table(1, 53);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        t.insert_all(base.iter()).unwrap();
        let exec = Executor::new();
        let by_rows: Vec<f64> = exec
            .parallel_map(&t, |row, schema| {
                Ok(row.get_named(schema, "y")?.as_double()? + 1.0)
            })
            .unwrap();
        let by_chunks: Vec<f64> = exec
            .parallel_map_chunks(&t, |chunk, schema| {
                let idx = schema.index_of("y")?;
                let column = chunk.doubles(idx)?;
                Ok(column.values.iter().map(|v| v + 1.0).collect())
            })
            .unwrap();
        assert_eq!(by_rows, by_chunks);
    }
}

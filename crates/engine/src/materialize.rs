//! Materialized aggregate state: incremental view maintenance for algebraic
//! aggregates.
//!
//! The paper's macro-programming pattern requires every aggregate to be
//! *algebraic* — `transition` folds rows into a state, `merge` combines
//! partial states, `final` extracts the output.  That same property makes
//! models maintainable under appends without rescanning history: keep the
//! partial transition states around, fold only the **new** rows in, and
//! re-run the (cheap) merge + finalize.  This module is that machinery.
//!
//! A [`MaterializedAggregate`] holds, per table segment, the partial states
//! of an aggregate together with a **chunk watermark**: how many chunks (and
//! how many rows of the open tail chunk) have already been absorbed.
//! [`MaterializedAggregate::absorb`] advances the watermark by running the
//! transition on the rows past it — O(appended rows), not O(table) — and
//! [`MaterializedAggregate::finalize`] re-runs merge + finalize over the
//! retained states.
//!
//! # Bit-identity with the batch path
//!
//! A view runs the batch scan's own code, so its result is the batch
//! result bit-for-bit:
//!
//! - the rows past the watermark stream through [`crate::scan::scan_chunks`]
//!   (the scan's filter, mask and compaction);
//! - an ungrouped view folds each batch into its segment's single state with
//!   [`Aggregate::transition_chunk`], as the executor does; a grouped view
//!   keeps each segment's key → slot directory and slot-indexed states and
//!   advances them with the batch grouped scan's per-segment transition
//!   (direct gathers, radix staging, single-key chunks alike), draining
//!   every staged row before the absorb returns;
//! - finalize runs the segment-order fold the executor uses and the per-key
//!   fold + sort the grouped scan uses.
//!
//! Absorbing a then-open tail chunk in installments splits the batch scan's
//! transitions at row boundaries, which the `transition_chunk` contract
//! (bit-identical to sequential per-row `transition`) makes invisible.
//!
//! One requirement is **not** checkable here and is part of the contract for
//! aggregates used incrementally: `merge(state, initial_state())` must be
//! bit-identical to `state` (merge-identity).  The batch scan folds an
//! `initial_state()` in for segments that were empty at scan time; the
//! incremental path folds one in for segments that were empty at *view
//! creation* time even after rows later arrive there.  All built-in
//! aggregates satisfy this (their merges short-circuit on empty states or
//! add zeros).
//!
//! # Mutation model
//!
//! Views track **appends**.  A shrinking source segment (truncate,
//! [`crate::Database::replace_table`] with fewer rows) is detected through
//! the watermark and triggers a from-scratch rebuild of that segment's
//! states; an in-place rewrite that keeps row counts identical is *not*
//! detectable — drop and recreate the view around such mutations.

use crate::aggregate::{merge_segment_states, Aggregate};
use crate::chunk::{RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::executor::Executor;
use crate::expr::Predicate;
use crate::group::{self, GroupKey, GroupedStates};
use crate::scan;
use crate::schema::Schema;
use crate::table::Table;
use std::any::Any;
use std::sync::Arc;

/// Type-erased handle to a [`MaterializedAggregate`], so the
/// [`crate::Database`] view registry can hold views of heterogeneous
/// aggregate types.  Downcast through [`AnyMaterialized::as_any_mut`] to
/// finalize.
pub trait AnyMaterialized: Send {
    /// Absorbs all rows of `table` past the watermark.
    ///
    /// # Errors
    /// Propagates transition and predicate errors.
    fn absorb(&mut self, table: &Table) -> Result<()>;

    /// Flags the view so its next absorb rebuilds from scratch instead of
    /// trusting the retained states.  [`crate::Database`] sets this after a
    /// failed absorb, whose partial transitions may have left states
    /// inconsistent with the watermark.
    fn mark_needs_rebuild(&mut self);

    /// The concrete [`MaterializedAggregate`], for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// The concrete [`MaterializedAggregate`], mutable, for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One segment's partial state: a single state for ungrouped views, the
/// batch grouped scan's per-segment states for grouped views.
#[derive(Debug, Clone)]
enum PartialState<S> {
    Single(S),
    Grouped(GroupedStates<S>),
}

/// Per-segment partial states plus the segment's chunk watermark.
#[derive(Debug, Clone)]
struct SegmentStates<S> {
    /// The segment's partial state.
    states: PartialState<S>,
    /// Chunks `0..absorbed_chunks` are fully absorbed.
    absorbed_chunks: usize,
    /// Rows of chunk `absorbed_chunks` already absorbed (the open-tail
    /// partial watermark; `0` when that chunk is untouched).
    tail_rows: usize,
}

/// Incrementally maintained partial aggregate state over one table — see the
/// module docs for the maintenance and bit-identity story.
///
/// The view is configured like a [`crate::Dataset`] terminal: an optional
/// filter and optional grouping columns.
pub struct MaterializedAggregate<A: Aggregate> {
    aggregate: A,
    filter: Option<Predicate>,
    group_columns: Vec<String>,
    segments: Vec<SegmentStates<A::State>>,
    /// Lifecycle generation of the table incarnation the watermarks
    /// describe ([`Table::generation`]); a mismatch on absorb proves the
    /// source was dropped/recreated, replaced or truncated, and forces a
    /// rebuild even when the new incarnation has at least as many chunks.
    source_generation: Option<u64>,
    /// Set when a failed absorb may have left states inconsistent with the
    /// watermark; the next absorb rebuilds from scratch.
    needs_rebuild: bool,
}

impl<A: Aggregate> std::fmt::Debug for MaterializedAggregate<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedAggregate")
            .field("group_columns", &self.group_columns)
            .field("segments", &self.segments.len())
            .finish_non_exhaustive()
    }
}

impl<A> MaterializedAggregate<A>
where
    A: Aggregate,
    A::State: Clone,
{
    /// Creates an empty ungrouped, unfiltered view.  Every executor scans
    /// aggregates one state per segment, and its execution modes agree
    /// bit-for-bit, so the retained states match any executor's batch scan;
    /// the parameter is kept for call-site compatibility.
    pub fn new(aggregate: A, _executor: &Executor) -> Self {
        Self {
            aggregate,
            filter: None,
            group_columns: Vec::new(),
            segments: Vec::new(),
            source_generation: None,
            needs_rebuild: false,
        }
    }

    /// Restricts the view to rows matching `filter` (the dataset's `WHERE`).
    #[must_use]
    pub fn with_filter(mut self, filter: Predicate) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Maintains one state per distinct key of `columns` (the dataset's
    /// `grouping_cols`).
    #[must_use]
    pub fn with_group_columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// The aggregate the view maintains.
    pub fn aggregate(&self) -> &A {
        &self.aggregate
    }

    /// Whether the view maintains per-group states.
    pub fn is_grouped(&self) -> bool {
        !self.group_columns.is_empty()
    }

    /// Whether the next absorb will rebuild from scratch (a failed absorb
    /// marked the retained states untrustworthy).
    pub fn needs_rebuild(&self) -> bool {
        self.needs_rebuild
    }

    /// Absorbs every row of `table` past the per-segment watermarks —
    /// O(new rows).  Safe to call repeatedly and after arbitrary appends; a
    /// segment that shrank since the last absorb is rebuilt from scratch.
    ///
    /// # Errors
    /// Propagates transition, predicate and column-lookup errors.
    pub fn absorb(&mut self, table: &Table) -> Result<()> {
        let schema = table.schema();
        let group_indices: Vec<usize> = self
            .group_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        let generation = table.generation();
        if self.needs_rebuild || self.source_generation != Some(generation) {
            // A different table incarnation (drop/recreate, replace,
            // truncate — possibly with *more* chunks than the watermark, so
            // shrink detection alone would wrongly absorb its suffix), or a
            // previous absorb failed mid-transition: start over.
            self.segments.clear();
            self.needs_rebuild = false;
            self.source_generation = Some(generation);
        }
        if self.segments.len() != table.num_segments() {
            // Repartitioned (or first absorb): start over.
            self.segments = (0..table.num_segments())
                .map(|_| self.empty_segment())
                .collect();
        }
        for seg in 0..table.num_segments() {
            if let Err(e) = self.absorb_segment(seg, table.segment(seg), schema, &group_indices) {
                // The failed transition may have folded some rows in without
                // advancing the watermark; only a rebuild is safe now.
                self.needs_rebuild = true;
                return Err(e);
            }
        }
        Ok(())
    }

    fn absorb_segment(
        &mut self,
        seg: usize,
        segment: &Segment,
        schema: &Schema,
        group_indices: &[usize],
    ) -> Result<()> {
        let chunks = segment.chunks();
        let shrank = {
            let st = &self.segments[seg];
            st.absorbed_chunks > chunks.len()
                || (st.tail_rows > 0
                    && (st.absorbed_chunks >= chunks.len()
                        || chunks[st.absorbed_chunks].len() < st.tail_rows))
        };
        if shrank {
            self.segments[seg] = self.empty_segment();
        }
        let st = &mut self.segments[seg];
        let Some(last) = chunks.len().checked_sub(1) else {
            return Ok(());
        };
        if st.absorbed_chunks == last && st.tail_rows == chunks[last].len() {
            return Ok(());
        }

        // The pieces past the watermark: the unabsorbed suffix of the chunk
        // the last absorb stopped in, then every later chunk.
        let mut pieces: Vec<Arc<RowChunk>> = chunks[st.absorbed_chunks..].to_vec();
        if st.tail_rows > 0 {
            let indices: Vec<u32> = (st.tail_rows as u32..pieces[0].len() as u32).collect();
            pieces[0] = Arc::new(pieces[0].gather_rows(&indices));
        }
        let filter = self.filter.as_ref();
        match &mut st.states {
            PartialState::Single(state) => {
                scan::scan_chunks(&pieces, schema, filter, |batch| {
                    self.aggregate
                        .transition_chunk(state, batch.chunk(), schema)
                })?;
            }
            PartialState::Grouped(grouped) => {
                grouped.transition_chunks(
                    &self.aggregate,
                    &pieces,
                    schema,
                    group_indices,
                    filter,
                )?;
            }
        }
        // The last chunk stays the open tail (even if currently at capacity
        // — it is only provably sealed once a successor chunk exists).
        st.absorbed_chunks = last;
        st.tail_rows = chunks[last].len();
        Ok(())
    }

    /// A segment with nothing absorbed: `initial_state()` for an ungrouped
    /// view (what an empty segment contributes to the batch merge), no keys
    /// for a grouped one.
    fn empty_segment(&self) -> SegmentStates<A::State> {
        let states = if self.is_grouped() {
            PartialState::Grouped(GroupedStates::default())
        } else {
            PartialState::Single(self.aggregate.initial_state())
        };
        SegmentStates {
            states,
            absorbed_chunks: 0,
            tail_rows: 0,
        }
    }

    /// Merges the retained states and finalizes — the cheap, O(states)
    /// refresh step.  Requires an ungrouped view.
    ///
    /// # Errors
    /// Propagates merge/finalize errors; errors on a grouped view.
    pub fn finalize(&self) -> Result<A::Output> {
        if self.is_grouped() {
            return Err(EngineError::invalid(
                "finalize on a grouped materialized aggregate; use finalize_grouped",
            ));
        }
        let states = self.segments.iter().map(|seg| match &seg.states {
            PartialState::Single(state) => state.clone(),
            PartialState::Grouped(_) => unreachable!("ungrouped view"),
        });
        self.aggregate
            .finalize(merge_segment_states(&self.aggregate, states))
    }

    /// Merges the retained per-group states and finalizes each group,
    /// returning outputs sorted by key (matching
    /// [`crate::Dataset::aggregate_per_group`]).  Requires a grouped view.
    ///
    /// # Errors
    /// Propagates merge/finalize errors; errors on an ungrouped view.
    pub fn finalize_grouped(&self) -> Result<Vec<(GroupKey, A::Output)>> {
        if !self.is_grouped() {
            return Err(EngineError::invalid(
                "finalize_grouped on an ungrouped materialized aggregate; use finalize",
            ));
        }
        let segments = self.segments.iter().map(|seg| match &seg.states {
            PartialState::Grouped(grouped) => grouped.cloned_pairs(),
            PartialState::Single(_) => unreachable!("grouped view"),
        });
        let mut scratch = self.aggregate.make_finalize_scratch();
        group::merge_segment_groups(&self.aggregate, segments)
            .into_iter()
            .map(|(key, state)| {
                self.aggregate
                    .finalize_with(state, &mut scratch)
                    .map(|output| (key, output))
            })
            .collect()
    }
}

impl<A> AnyMaterialized for MaterializedAggregate<A>
where
    A: Aggregate + Send + 'static,
    A::State: Clone + 'static,
{
    fn absorb(&mut self, table: &Table) -> Result<()> {
        MaterializedAggregate::absorb(self, table)
    }

    fn mark_needs_rebuild(&mut self) {
        self.needs_rebuild = true;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AvgAggregate, CountAggregate, SumAggregate};
    use crate::expr::Predicate;
    use crate::row;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("g", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ])
    }

    fn table(rows: usize, segments: usize, chunk_capacity: usize) -> Table {
        let mut t = Table::new(schema(), segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for i in 0..rows {
            t.insert(row![(i % 3) as i64, i as f64]).unwrap();
        }
        t
    }

    /// Incremental absorb across partial tail chunks, chunk seals, filters
    /// and both execution modes matches the batch scan exactly.
    #[test]
    fn absorb_matches_batch_aggregate() {
        for executor in [Executor::new(), Executor::row_at_a_time()] {
            let filter = Predicate::column_gt("v", 2.5);
            let mut t = table(0, 2, 4);
            let mut view = MaterializedAggregate::new(SumAggregate::new("v"), &executor)
                .with_filter(filter.clone());
            view.absorb(&t).unwrap();
            assert_eq!(view.finalize().unwrap(), 0.0);

            // Absorb in uneven installments: 1, 3, 9, 14 rows...
            for (start, end) in [(0, 1), (1, 4), (4, 13), (13, 27)] {
                for i in start..end {
                    t.insert(row![(i % 3) as i64, i as f64]).unwrap();
                }
                view.absorb(&t).unwrap();
                let batch = crate::Dataset::from_table(&t)
                    .with_executor(executor)
                    .filter(filter.clone())
                    .aggregate(&SumAggregate::new("v"))
                    .unwrap();
                assert_eq!(view.finalize().unwrap(), batch);
            }
        }
    }

    /// Grouped views match `aggregate_per_group` (keys sorted, per-key merge
    /// order preserved).
    #[test]
    fn grouped_absorb_matches_batch() {
        let executor = Executor::new();
        let mut t = table(10, 2, 4);
        let mut view =
            MaterializedAggregate::new(AvgAggregate::new("v"), &executor).with_group_columns(["g"]);
        view.absorb(&t).unwrap();
        for i in 10..23 {
            t.insert(row![(i % 3) as i64, i as f64]).unwrap();
        }
        view.absorb(&t).unwrap();
        let batch = crate::Dataset::from_table(&t)
            .with_executor(executor)
            .group_by(["g"])
            .aggregate_per_group(&AvgAggregate::new("v"))
            .unwrap();
        assert_eq!(view.finalize_grouped().unwrap(), batch);
    }

    /// A shrinking segment (truncate) rebuilds instead of double-counting.
    #[test]
    fn truncate_triggers_rebuild() {
        let executor = Executor::new();
        let mut t = table(20, 2, 4);
        let mut view = MaterializedAggregate::new(CountAggregate, &executor);
        view.absorb(&t).unwrap();
        assert_eq!(view.finalize().unwrap(), 20);
        t.truncate();
        for i in 0..7 {
            t.insert(row![0i64, i as f64]).unwrap();
        }
        view.absorb(&t).unwrap();
        assert_eq!(view.finalize().unwrap(), 7);
    }
}

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
//! [`MaterializedAggregate::absorb`] advances the watermark by running
//! [`Aggregate::transition_chunk`] on the rows past it — O(appended rows),
//! not O(table) — and [`MaterializedAggregate::finalize`] re-runs merge +
//! finalize over the retained states.
//!
//! # Bit-identity with the batch path
//!
//! The absorbed states reproduce the executor's batch scan **bit-for-bit**,
//! which rests on three invariants:
//!
//! 1. `transition_chunk` is bit-identical to sequential per-row
//!    `transition` (the engine-wide override contract).  Splitting a chunk
//!    at any row boundary and transitioning the pieces sequentially is
//!    therefore bit-identical to one whole-chunk call — so absorbing a
//!    then-open tail chunk in several installments matches the batch scan
//!    that sees it sealed.
//! 2. The view keeps one state per segment, as every aggregate scan does
//!    ([`crate::scan::run_per_segment`]): an ungrouped segment's state
//!    starts at `initial_state()` and only ever grows by transitions, so no
//!    merge happens inside a segment on either path.
//! 3. Finalize replays the executor's exact merge structure: the
//!    per-segment states fold left-to-right in segment order (grouped states
//!    fold flat per key in (segment, first-appearance) order, matching the
//!    grouped coordinator), and empty segments contribute `initial_state()`
//!    exactly where the batch scan does.
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

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::executor::Executor;
use crate::expr::Predicate;
use crate::group::{self, GroupKey};
use crate::schema::Schema;
use crate::table::Table;
use std::any::Any;
use std::collections::HashMap;

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

/// One segment's partial state: a single state for ungrouped views, per-key
/// states in first-appearance order for grouped views.
#[derive(Debug, Clone)]
enum PartialState<S> {
    Single(S),
    Grouped(Vec<(GroupKey, S)>),
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

impl<S> SegmentStates<S> {
    fn new(states: PartialState<S>) -> Self {
        Self {
            states,
            absorbed_chunks: 0,
            tail_rows: 0,
        }
    }
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

        // Partial-tail catch-up: the last absorb stopped mid-chunk.
        let st = &self.segments[seg];
        let (mut next_chunk, tail_rows) = (st.absorbed_chunks, st.tail_rows);
        if tail_rows > 0 {
            let chunk = &chunks[next_chunk];
            if chunk.len() > tail_rows {
                let indices: Vec<u32> = (tail_rows as u32..chunk.len() as u32).collect();
                let suffix = chunk.gather_rows(&indices);
                self.absorb_piece(seg, &suffix, schema, group_indices)?;
            }
            // Advance past the chunk only once a successor proves it sealed.
            if next_chunk + 1 < chunks.len() {
                next_chunk += 1;
                self.segments[seg].absorbed_chunks = next_chunk;
                self.segments[seg].tail_rows = 0;
            } else {
                self.segments[seg].tail_rows = chunk.len();
                return Ok(());
            }
        }

        // Whole-chunk loop from the watermark to the end of the segment.
        while next_chunk < chunks.len() {
            let chunk = std::sync::Arc::clone(&chunks[next_chunk]);
            self.absorb_piece(seg, &chunk, schema, group_indices)?;
            if next_chunk + 1 < chunks.len() {
                next_chunk += 1;
                self.segments[seg].absorbed_chunks = next_chunk;
            } else {
                // Open tail (even if currently at capacity — it is only
                // provably sealed once a successor chunk exists).
                self.segments[seg].tail_rows = chunk.len();
                break;
            }
        }
        Ok(())
    }

    /// A segment with nothing absorbed: `initial_state()` for an ungrouped
    /// view (what an empty segment contributes to the batch merge), no keys
    /// for a grouped one.
    fn empty_segment(&self) -> SegmentStates<A::State> {
        SegmentStates::new(if self.is_grouped() {
            PartialState::Grouped(Vec::new())
        } else {
            PartialState::Single(self.aggregate.initial_state())
        })
    }

    /// Folds one piece (a whole chunk, or the gathered suffix of the open
    /// tail chunk) of segment `seg` into the segment's state, applying the
    /// view's filter exactly as [`crate::scan::scan_chunks`] does.
    fn absorb_piece(
        &mut self,
        seg: usize,
        piece: &RowChunk,
        schema: &Schema,
        group_indices: &[usize],
    ) -> Result<()> {
        if piece.is_empty() {
            return Ok(());
        }
        // Mirror the scan's filter handling: one mask per piece, pass-through
        // when fully selected, gather-compact when partially selected.
        let compacted;
        let batch: &RowChunk = match &self.filter {
            None => piece,
            Some(predicate) => {
                let mask = predicate.evaluate_chunk(piece, schema)?;
                let selected = mask.count_selected();
                if selected == 0 {
                    return Ok(());
                }
                if selected == piece.len() {
                    piece
                } else {
                    compacted = piece.gather(&mask);
                    &compacted
                }
            }
        };
        match &mut self.segments[seg].states {
            PartialState::Single(state) => self.aggregate.transition_chunk(state, batch, schema),
            PartialState::Grouped(states) => {
                for part in group::partition_by_group(batch, group_indices) {
                    let slot = match states.iter().position(|(k, _)| *k == part.key) {
                        Some(slot) => slot,
                        None => {
                            states.push((part.key.clone(), self.aggregate.initial_state()));
                            states.len() - 1
                        }
                    };
                    if part.rows == batch.len() {
                        self.aggregate
                            .transition_chunk(&mut states[slot].1, batch, schema)?;
                    } else {
                        let sub = batch.gather(&part.mask);
                        self.aggregate
                            .transition_chunk(&mut states[slot].1, &sub, schema)?;
                    }
                }
                Ok(())
            }
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
        // Replay the executor's merge structure exactly: fold the
        // per-segment states in segment order.
        let mut merged: Option<A::State> = None;
        for seg in &self.segments {
            let state = match &seg.states {
                PartialState::Single(s) => s.clone(),
                PartialState::Grouped(_) => unreachable!("ungrouped view"),
            };
            merged = Some(match merged {
                None => state,
                Some(prev) => self.aggregate.merge(prev, state),
            });
        }
        let state = merged.unwrap_or_else(|| self.aggregate.initial_state());
        self.aggregate.finalize(state)
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
        // Per key, states merge flat left-to-right in (segment,
        // first-appearance) order — the grouped coordinator's fold.
        let mut merged: HashMap<GroupKey, A::State> = HashMap::new();
        for seg in &self.segments {
            let states = match &seg.states {
                PartialState::Grouped(states) => states,
                PartialState::Single(_) => unreachable!("grouped view"),
            };
            for (key, state) in states {
                let combined = match merged.remove(key) {
                    None => state.clone(),
                    Some(prev) => self.aggregate.merge(prev, state.clone()),
                };
                merged.insert(key.clone(), combined);
            }
        }
        let mut entries: Vec<(GroupKey, A::State)> = merged.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut scratch = self.aggregate.make_finalize_scratch();
        entries
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

//! User-defined aggregates.
//!
//! The paper (Section 3.1.1) describes the UDA pattern every MADlib method is
//! built on: a *transition* function folds one row into a running state, an
//! optional *merge* function combines two states produced on different
//! segments, and a *final* function turns the state into the output value.
//! An aggregate is data-parallel exactly when the transition is associative
//! and merging two partial states is equivalent to having streamed the second
//! state's rows through the first.
//!
//! The [`Aggregate`] trait captures that contract; [`crate::Executor`] runs
//! implementations in parallel across table segments.

use crate::chunk::{ColumnChunk, RowChunk};
use crate::error::Result;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// A user-defined aggregate in the MADlib transition/merge/final style.
///
/// Implementations must satisfy the *merge law*: for any split of a row
/// stream into two halves, transitioning each half into its own state and
/// merging must produce the same final output as transitioning the whole
/// stream into one state.  The engine test-suite contains property tests
/// enforcing this for the built-in aggregates, and methods in the library
/// crates are tested the same way.
///
/// # Vectorized execution
///
/// The executor's default path streams column-major [`RowChunk`]s and calls
/// [`Aggregate::transition_chunk`] once per chunk.  The provided
/// implementation falls back to per-row [`Aggregate::transition`] calls over
/// materialized rows, so every aggregate works unchanged; hot aggregates
/// override it to read whole column slices and must then produce **exactly**
/// the state the per-row path would (same values, same floating-point
/// accumulation order), keeping results independent of the execution mode.
pub trait Aggregate: Sync {
    /// Per-segment running state.
    type State: Send;
    /// Final output type.
    type Output;

    /// Creates an empty transition state.
    fn initial_state(&self) -> Self::State;

    /// Folds one row into the state.
    ///
    /// # Errors
    /// Implementations should surface malformed rows as
    /// [`crate::EngineError`] values rather than panicking.
    fn transition(&self, state: &mut Self::State, row: &Row, schema: &Schema) -> Result<()>;

    /// Folds one column-major chunk of rows into the state.
    ///
    /// The default delegates to [`transition_chunk_by_rows`], i.e. per-row
    /// [`Aggregate::transition`] over materialized rows.  Overrides must be
    /// observationally identical to that fallback.
    ///
    /// # Errors
    /// Same contract as [`Aggregate::transition`].
    fn transition_chunk(
        &self,
        state: &mut Self::State,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        transition_chunk_by_rows(self, state, chunk, schema)
    }

    /// Combines two states produced on different segments.
    fn merge(&self, left: Self::State, right: Self::State) -> Self::State;

    /// Transforms the combined state into the aggregate output.
    ///
    /// # Errors
    /// Implementations may fail, e.g. when the input was empty and the
    /// aggregate has no identity output.
    fn finalize(&self, state: Self::State) -> Result<Self::Output>;

    /// Creates a reusable finalize workspace, or [`FinalizeScratch::none`]
    /// (the default) when the aggregate has nothing worth reusing.
    ///
    /// Grouped execution calls this once per finalize worker and threads the
    /// same scratch through every group that worker finalizes, so aggregates
    /// whose finalize allocates heavily (e.g. an eigendecomposition per
    /// linear-regression group) can override this together with
    /// [`Aggregate::finalize_with`] to amortize the allocations.
    fn make_finalize_scratch(&self) -> FinalizeScratch {
        FinalizeScratch::none()
    }

    /// [`Aggregate::finalize`] with a reusable scratch workspace.
    ///
    /// The default ignores the scratch and delegates to
    /// [`Aggregate::finalize`]; overrides must produce **exactly** the output
    /// `finalize` would — the scratch is an allocation-reuse handle, never a
    /// carrier of state between groups — so results stay bit-identical no
    /// matter how groups are distributed over finalize workers.
    ///
    /// # Errors
    /// Same contract as [`Aggregate::finalize`].
    fn finalize_with(
        &self,
        state: Self::State,
        _scratch: &mut FinalizeScratch,
    ) -> Result<Self::Output> {
        self.finalize(state)
    }
}

/// Type-erased per-worker workspace for [`Aggregate::finalize_with`].
///
/// Associated-type defaults are unstable, so the scratch is erased behind
/// [`std::any::Any`]: aggregates that want one call
/// [`FinalizeScratch::get_or_insert_with`] with their concrete workspace
/// type, everyone else keeps the empty default.
#[derive(Default)]
pub struct FinalizeScratch {
    slot: Option<Box<dyn std::any::Any + Send>>,
}

impl FinalizeScratch {
    /// An empty scratch — the default for aggregates without a workspace.
    #[must_use]
    pub fn none() -> Self {
        Self { slot: None }
    }

    /// Returns the workspace of type `W`, creating it with `init` when the
    /// scratch is empty or currently holds a different type.
    pub fn get_or_insert_with<W, F>(&mut self, init: F) -> &mut W
    where
        W: std::any::Any + Send,
        F: FnOnce() -> W,
    {
        let fresh = match &self.slot {
            Some(existing) => !existing.is::<W>(),
            None => true,
        };
        if fresh {
            self.slot = Some(Box::new(init()));
        }
        self.slot
            .as_mut()
            .expect("slot was just filled")
            .downcast_mut::<W>()
            .expect("slot holds a W")
    }
}

/// The row-at-a-time fallback behind [`Aggregate::transition_chunk`]:
/// materializes each row of `chunk` and feeds it to
/// [`Aggregate::transition`] in order.
///
/// Public so that chunk-aware aggregates can reuse it for configurations
/// their vectorized path does not cover (e.g. the legacy kernel generations
/// of linear regression).
///
/// # Errors
/// Propagates transition errors.
pub fn transition_chunk_by_rows<A: Aggregate + ?Sized>(
    aggregate: &A,
    state: &mut A::State,
    chunk: &RowChunk,
    schema: &Schema,
) -> Result<()> {
    let mut values = Vec::with_capacity(chunk.arity());
    for i in 0..chunk.len() {
        chunk.read_row_into(i, &mut values);
        let row = Row::new(std::mem::take(&mut values));
        aggregate.transition(state, &row, schema)?;
        values = row.into_values();
    }
    Ok(())
}

/// Merges per-segment states left to right in segment order — the fold
/// behind every ungrouped aggregate result, batch or incremental.  No states
/// merge to `initial_state()`.
pub(crate) fn merge_segment_states<A: Aggregate>(
    aggregate: &A,
    states: impl IntoIterator<Item = A::State>,
) -> A::State {
    states
        .into_iter()
        .reduce(|prev, next| aggregate.merge(prev, next))
        .unwrap_or_else(|| aggregate.initial_state())
}

/// Whether a chunk column contains at least one non-NULL value.  The SQL
/// aggregates only raise type errors for values they actually read, so the
/// chunk paths must stay silent on columns that are entirely NULL.
fn has_non_null(chunk: &RowChunk, idx: usize) -> bool {
    chunk.column(idx).nulls().null_count() < chunk.len()
}

fn numeric_type_mismatch(column: &ColumnChunk) -> crate::error::EngineError {
    crate::error::EngineError::TypeMismatch {
        expected: "double precision",
        found: column.type_name().to_owned(),
    }
}

/// `count(*)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountAggregate;

impl Aggregate for CountAggregate {
    type State = u64;
    type Output = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn transition(&self, state: &mut u64, _row: &Row, _schema: &Schema) -> Result<()> {
        *state += 1;
        Ok(())
    }

    fn transition_chunk(&self, state: &mut u64, chunk: &RowChunk, _schema: &Schema) -> Result<()> {
        *state += chunk.len() as u64;
        Ok(())
    }

    fn merge(&self, left: u64, right: u64) -> u64 {
        left + right
    }

    fn finalize(&self, state: u64) -> Result<u64> {
        Ok(state)
    }
}

/// Shared vectorized inner loop of [`SumAggregate`] and [`AvgAggregate`]:
/// adds every non-NULL value of a numeric column into `sum`, in row order
/// (identical floating-point accumulation order to the per-row path), and
/// returns how many values were added.
fn sum_numeric_column(chunk: &RowChunk, idx: usize, sum: &mut f64) -> Result<u64> {
    match chunk.column(idx) {
        ColumnChunk::Double { values, nulls } => {
            if nulls.any_null() {
                let mut added = 0;
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) {
                        *sum += v;
                        added += 1;
                    }
                }
                Ok(added)
            } else {
                for v in values {
                    *sum += v;
                }
                Ok(values.len() as u64)
            }
        }
        ColumnChunk::Int { values, nulls } => {
            let mut added = 0;
            for (i, v) in values.iter().enumerate() {
                if !nulls.is_null(i) {
                    *sum += *v as f64;
                    added += 1;
                }
            }
            Ok(added)
        }
        ColumnChunk::Bool { values, nulls } => {
            let mut added = 0;
            for (i, v) in values.iter().enumerate() {
                if !nulls.is_null(i) {
                    *sum += if *v { 1.0 } else { 0.0 };
                    added += 1;
                }
            }
            Ok(added)
        }
        other => {
            // The per-row path only fails on values it actually reads, so an
            // entirely-NULL column of the wrong type stays silent.
            if has_non_null(chunk, idx) {
                Err(numeric_type_mismatch(other))
            } else {
                Ok(0)
            }
        }
    }
}

/// `sum(column)` over a numeric column; NULLs are skipped as in SQL.
#[derive(Debug, Clone)]
pub struct SumAggregate {
    column: String,
}

impl SumAggregate {
    /// Sums the named numeric column.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
        }
    }
}

impl Aggregate for SumAggregate {
    type State = f64;
    type Output = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn transition(&self, state: &mut f64, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if !value.is_null() {
            *state += value.as_double()?;
        }
        Ok(())
    }

    fn transition_chunk(&self, state: &mut f64, chunk: &RowChunk, schema: &Schema) -> Result<()> {
        let idx = schema.index_of(&self.column)?;
        sum_numeric_column(chunk, idx, state)?;
        Ok(())
    }

    fn merge(&self, left: f64, right: f64) -> f64 {
        left + right
    }

    fn finalize(&self, state: f64) -> Result<f64> {
        Ok(state)
    }
}

/// `avg(column)`: keeps (sum, count) in the transition state.
#[derive(Debug, Clone)]
pub struct AvgAggregate {
    column: String,
}

impl AvgAggregate {
    /// Averages the named numeric column.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
        }
    }
}

impl Aggregate for AvgAggregate {
    type State = (f64, u64);
    type Output = Option<f64>;

    fn initial_state(&self) -> (f64, u64) {
        (0.0, 0)
    }

    fn transition(&self, state: &mut (f64, u64), row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if !value.is_null() {
            state.0 += value.as_double()?;
            state.1 += 1;
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut (f64, u64),
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        let idx = schema.index_of(&self.column)?;
        state.1 += sum_numeric_column(chunk, idx, &mut state.0)?;
        Ok(())
    }

    fn merge(&self, left: (f64, u64), right: (f64, u64)) -> (f64, u64) {
        (left.0 + right.0, left.1 + right.1)
    }

    fn finalize(&self, state: (f64, u64)) -> Result<Option<f64>> {
        Ok((state.1 > 0).then(|| state.0 / state.1 as f64))
    }
}

/// Element-wise `sum(double precision[])` over an array column: the building
/// block for model-averaging style methods (e.g. the SGD framework of the
/// paper's Section 5.1).  All non-null arrays must have equal length.
#[derive(Debug, Clone)]
pub struct ArraySumAggregate {
    column: String,
}

impl ArraySumAggregate {
    /// Sums the named `double precision[]` column element-wise.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
        }
    }
}

impl Aggregate for ArraySumAggregate {
    type State = Option<Vec<f64>>;
    type Output = Vec<f64>;

    fn initial_state(&self) -> Option<Vec<f64>> {
        None
    }

    fn transition(&self, state: &mut Option<Vec<f64>>, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if value.is_null() {
            return Ok(());
        }
        let arr = value.as_double_array()?;
        match state {
            None => *state = Some(arr.to_vec()),
            Some(acc) => {
                if acc.len() != arr.len() {
                    return Err(crate::error::EngineError::aggregate(format!(
                        "array_sum: length mismatch {} vs {}",
                        acc.len(),
                        arr.len()
                    )));
                }
                for (a, b) in acc.iter_mut().zip(arr) {
                    *a += b;
                }
            }
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut Option<Vec<f64>>,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        let idx = schema.index_of(&self.column)?;
        let column = match chunk.column(idx) {
            ColumnChunk::DoubleArray { .. } => chunk.double_arrays(idx)?,
            other => {
                if has_non_null(chunk, idx) {
                    return Err(crate::error::EngineError::TypeMismatch {
                        expected: "double precision[]",
                        found: other.type_name().to_owned(),
                    });
                }
                return Ok(());
            }
        };
        let nulls = column.nulls();
        for i in 0..column.len() {
            if nulls.is_null(i) {
                continue;
            }
            let arr = column.row(i);
            match state {
                None => *state = Some(arr.to_vec()),
                Some(acc) => {
                    if acc.len() != arr.len() {
                        return Err(crate::error::EngineError::aggregate(format!(
                            "array_sum: length mismatch {} vs {}",
                            acc.len(),
                            arr.len()
                        )));
                    }
                    for (a, b) in acc.iter_mut().zip(arr) {
                        *a += b;
                    }
                }
            }
        }
        Ok(())
    }

    fn merge(&self, left: Option<Vec<f64>>, right: Option<Vec<f64>>) -> Option<Vec<f64>> {
        match (left, right) {
            (None, r) => r,
            (l, None) => l,
            (Some(mut l), Some(r)) => {
                for (a, b) in l.iter_mut().zip(&r) {
                    *a += b;
                }
                Some(l)
            }
        }
    }

    fn finalize(&self, state: Option<Vec<f64>>) -> Result<Vec<f64>> {
        state.ok_or_else(|| crate::error::EngineError::aggregate("array_sum over empty input"))
    }
}

/// Extracts a named `double precision` column and the named
/// `double precision[]` column from a row — the `(y, x)` access pattern used
/// by every regression-style transition function in the paper (Listing 1).
///
/// # Errors
/// Propagates column-lookup and type errors.
pub fn extract_labeled_point<'a>(
    row: &'a Row,
    schema: &Schema,
    y_column: &str,
    x_column: &str,
) -> Result<(f64, &'a [f64])> {
    let y = row.get_named(schema, y_column)?.as_double()?;
    let x = row.get_named(schema, x_column)?.as_double_array()?;
    Ok((y, x))
}

/// Convenience wrapper that converts a column's values to `f64`, skipping
/// NULLs — shared by several method implementations.
pub fn numeric_column(rows: &[Row], schema: &Schema, column: &str) -> Result<Vec<f64>> {
    let idx = schema.index_of(column)?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let v = row.get(idx);
        if !v.is_null() {
            out.push(v.as_double()?);
        }
    }
    Ok(out)
}

/// Placeholder output type for aggregates that produce a composite record:
/// named fields with [`Value`] payloads, like the `linregr` record output in
/// the paper's Section 4.1 example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompositeRecord {
    fields: Vec<(String, Value)>,
}

impl CompositeRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field.
    pub fn push(&mut self, name: impl Into<String>, value: Value) {
        self.fields.push((name.into(), value));
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }

    /// All fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1.0, vec![1.0, 2.0]],
            row![2.0, vec![3.0, 4.0]],
            row![3.0, vec![5.0, 6.0]],
        ]
    }

    fn run_serial<A: Aggregate>(agg: &A, rows: &[Row], schema: &Schema) -> A::Output {
        let mut state = agg.initial_state();
        for r in rows {
            agg.transition(&mut state, r, schema).unwrap();
        }
        agg.finalize(state).unwrap()
    }

    #[test]
    fn count_sum_avg() {
        let s = schema();
        let rs = rows();
        assert_eq!(run_serial(&CountAggregate, &rs, &s), 3);
        assert_eq!(run_serial(&SumAggregate::new("y"), &rs, &s), 6.0);
        assert_eq!(run_serial(&AvgAggregate::new("y"), &rs, &s), Some(2.0));
    }

    #[test]
    fn avg_of_empty_is_none() {
        let s = schema();
        assert_eq!(run_serial(&AvgAggregate::new("y"), &[], &s), None);
    }

    #[test]
    fn nulls_are_skipped() {
        let s = schema();
        let rs = vec![
            row![1.0, vec![1.0]],
            Row::new(vec![Value::Null, Value::Null]),
            row![3.0, vec![2.0]],
        ];
        assert_eq!(run_serial(&SumAggregate::new("y"), &rs, &s), 4.0);
        assert_eq!(run_serial(&AvgAggregate::new("y"), &rs, &s), Some(2.0));
        assert_eq!(run_serial(&CountAggregate, &rs, &s), 3);
    }

    #[test]
    fn array_sum_elementwise() {
        let s = schema();
        let rs = rows();
        let agg = ArraySumAggregate::new("x");
        assert_eq!(run_serial(&agg, &rs, &s), vec![9.0, 12.0]);
    }

    #[test]
    fn array_sum_rejects_mismatched_lengths_and_empty() {
        let s = schema();
        let agg = ArraySumAggregate::new("x");
        let mut state = agg.initial_state();
        agg.transition(&mut state, &row![1.0, vec![1.0, 2.0]], &s)
            .unwrap();
        assert!(agg
            .transition(&mut state, &row![1.0, vec![1.0]], &s)
            .is_err());
        assert!(agg.finalize(agg.initial_state()).is_err());
    }

    #[test]
    fn merge_law_holds_for_builtin_aggregates() {
        let s = schema();
        let rs = rows();
        let agg = SumAggregate::new("y");
        let mut left = agg.initial_state();
        let mut right = agg.initial_state();
        agg.transition(&mut left, &rs[0], &s).unwrap();
        for r in &rs[1..] {
            agg.transition(&mut right, r, &s).unwrap();
        }
        let merged = agg.finalize(agg.merge(left, right)).unwrap();
        assert_eq!(merged, run_serial(&agg, &rs, &s));

        let agg = ArraySumAggregate::new("x");
        let mut left = agg.initial_state();
        let mut right = agg.initial_state();
        agg.transition(&mut left, &rs[0], &s).unwrap();
        for r in &rs[1..] {
            agg.transition(&mut right, r, &s).unwrap();
        }
        assert_eq!(
            agg.finalize(agg.merge(left, right)).unwrap(),
            run_serial(&agg, &rs, &s)
        );
        // Merge with an empty side is the identity.
        let merged = agg.merge(None, Some(vec![1.0]));
        assert_eq!(merged, Some(vec![1.0]));
    }

    #[test]
    fn labeled_point_extraction() {
        let s = schema();
        let r = row![5.0, vec![1.0, 2.0]];
        let (y, x) = extract_labeled_point(&r, &s, "y", "x").unwrap();
        assert_eq!(y, 5.0);
        assert_eq!(x, &[1.0, 2.0]);
        assert!(extract_labeled_point(&r, &s, "missing", "x").is_err());
    }

    #[test]
    fn numeric_column_skips_nulls() {
        let s = schema();
        let rs = vec![
            row![1.0, vec![0.0]],
            Row::new(vec![Value::Null, Value::Null]),
        ];
        assert_eq!(numeric_column(&rs, &s, "y").unwrap(), vec![1.0]);
    }

    #[test]
    fn composite_record_lookup() {
        let mut rec = CompositeRecord::new();
        rec.push("coef", Value::DoubleArray(vec![1.0, 2.0]));
        rec.push("r2", Value::Double(0.9));
        assert_eq!(rec.get("r2"), Some(&Value::Double(0.9)));
        assert_eq!(rec.get("missing"), None);
        assert_eq!(rec.fields().len(), 2);
    }
}

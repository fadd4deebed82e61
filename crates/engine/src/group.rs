//! Typed group-by keys and the per-segment grouped transition.
//!
//! Grouping used to key states by `Value::to_string()`, which is both slow
//! (one heap allocation and one formatting pass per row) and wrong at the
//! edges: `-0.0` and `0.0` render identically but are distinct IEEE-754
//! values, `NaN` formats as a non-comparable string, and numerically ordered
//! keys sort lexicographically (`"10" < "9"`).  [`KeyPart`] replaces the
//! string with a typed key part: `Eq`/`Hash` compare floating-point values by
//! bit pattern and ordering uses [`f64::total_cmp`], so every [`Value`] —
//! including NaN and signed zero — lands in exactly one group and groups
//! have a deterministic total order.  Parts of different runtime types order
//! by type first (NULL < boolean < bigint < double < text < arrays), so
//! mixed-type grouping is deterministic too.
//!
//! A [`GroupKey`] is a *composite* of one part per grouping column — the
//! paper's `grouping_cols` is an arbitrary column list, so
//! `group_by(["a", "b"])` keys each group by the tuple of its columns'
//! values.  Keys compare and hash part-wise (lexicographic over the parts,
//! exactly SQL's multi-column `GROUP BY` ordering) and the single-column case
//! stays allocation-free: a one-part key stores its part inline.
//!
//! `GroupedStates` is the one grouped-state path: a segment's key → slot
//! directory plus slot-indexed transition states, advanced chunk at a time
//! by the direct-gather / radix-staging transition, and folded across
//! segments by `merge_segment_groups`.  The batch grouped scan and grouped
//! materialized views both run it.

use crate::aggregate::Aggregate;
use crate::chunk::{ColumnChunk, RowChunk};
use crate::error::Result;
use crate::expr::Predicate;
use crate::scan;
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An `f64` with total equality, ordering and hashing: bit-pattern equality
/// (distinguishing `-0.0` from `0.0`, and treating identical NaNs as equal)
/// and the IEEE-754 `totalOrder` predicate via [`f64::total_cmp`].
#[derive(Debug, Clone, Copy)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for TotalF64 {}

impl Hash for TotalF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One column's contribution to a grouping key, derived from a [`Value`].
///
/// Unlike [`Value`] this is `Eq + Hash + Ord`, so it can key a hash map and
/// the resulting groups can be emitted in a deterministic total order.  The
/// variant order defines the cross-type ordering (`NULL` groups sort first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyPart {
    /// SQL NULL (all NULLs form one group, as in `GROUP BY`).
    Null,
    /// `boolean` key.
    Bool(bool),
    /// `bigint` key.
    Int(i64),
    /// `double precision` key (bit-pattern identity, total order).
    Double(TotalF64),
    /// `text` key.
    Text(String),
    /// `double precision[]` key.
    DoubleArray(Vec<TotalF64>),
    /// `bigint[]` key.
    IntArray(Vec<i64>),
    /// `text[]` key.
    TextArray(Vec<String>),
}

impl KeyPart {
    /// Derives the key part for a value.
    pub fn from_value(value: &Value) -> Self {
        match value {
            Value::Null => KeyPart::Null,
            Value::Bool(b) => KeyPart::Bool(*b),
            Value::Int(v) => KeyPart::Int(*v),
            Value::Double(v) => KeyPart::Double(TotalF64(*v)),
            Value::Text(s) => KeyPart::Text(s.clone()),
            Value::DoubleArray(a) => KeyPart::DoubleArray(a.iter().map(|&v| TotalF64(v)).collect()),
            Value::IntArray(a) => KeyPart::IntArray(a.clone()),
            Value::TextArray(a) => KeyPart::TextArray(a.clone()),
        }
    }

    /// Reconstructs the representative [`Value`] of this key part.  The
    /// round trip through [`KeyPart::from_value`] is exact, including NaN
    /// payloads and signed zeros.
    pub fn into_value(self) -> Value {
        match self {
            KeyPart::Null => Value::Null,
            KeyPart::Bool(b) => Value::Bool(b),
            KeyPart::Int(v) => Value::Int(v),
            KeyPart::Double(v) => Value::Double(v.0),
            KeyPart::Text(s) => Value::Text(s),
            KeyPart::DoubleArray(a) => Value::DoubleArray(a.into_iter().map(|v| v.0).collect()),
            KeyPart::IntArray(a) => Value::IntArray(a),
            KeyPart::TextArray(a) => Value::TextArray(a),
        }
    }

    /// Whether this part equals the key part of row `i` of a column chunk,
    /// checked in place — no allocation, unlike building the row's part with
    /// [`KeyPart::from_column`] first.  The grouped scan uses this to probe
    /// the previous row's key, since group values cluster in practice (and
    /// always do under hash distribution on the group column).
    pub fn matches_column(&self, column: &ColumnChunk, i: usize) -> bool {
        if column.nulls().is_null(i) {
            return matches!(self, KeyPart::Null);
        }
        match (self, column) {
            (KeyPart::Double(key), ColumnChunk::Double { values, .. }) => {
                key.0.to_bits() == values[i].to_bits()
            }
            (KeyPart::Int(key), ColumnChunk::Int { values, .. }) => *key == values[i],
            (KeyPart::Bool(key), ColumnChunk::Bool { values, .. }) => *key == values[i],
            (KeyPart::Text(key), ColumnChunk::Text { values, .. }) => *key == values[i],
            (
                KeyPart::DoubleArray(key),
                ColumnChunk::DoubleArray {
                    values, offsets, ..
                },
            ) => {
                let row = &values[offsets[i]..offsets[i + 1]];
                key.len() == row.len()
                    && key
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.0.to_bits() == b.to_bits())
            }
            (
                KeyPart::IntArray(key),
                ColumnChunk::IntArray {
                    values, offsets, ..
                },
            ) => key.as_slice() == &values[offsets[i]..offsets[i + 1]],
            (
                KeyPart::TextArray(key),
                ColumnChunk::TextArray {
                    values, offsets, ..
                },
            ) => key.as_slice() == &values[offsets[i]..offsets[i + 1]],
            _ => false,
        }
    }

    /// The key part of row `i` of a column chunk, read straight from the
    /// column buffer (no [`Value`] materialization for scalar columns).
    pub fn from_column(column: &ColumnChunk, i: usize) -> Self {
        if column.nulls().is_null(i) {
            return KeyPart::Null;
        }
        match column {
            ColumnChunk::Double { values, .. } => KeyPart::Double(TotalF64(values[i])),
            ColumnChunk::Int { values, .. } => KeyPart::Int(values[i]),
            ColumnChunk::Bool { values, .. } => KeyPart::Bool(values[i]),
            ColumnChunk::Text { values, .. } => KeyPart::Text(values[i].clone()),
            ColumnChunk::DoubleArray {
                values, offsets, ..
            } => KeyPart::DoubleArray(
                values[offsets[i]..offsets[i + 1]]
                    .iter()
                    .map(|&v| TotalF64(v))
                    .collect(),
            ),
            ColumnChunk::IntArray {
                values, offsets, ..
            } => KeyPart::IntArray(values[offsets[i]..offsets[i + 1]].to_vec()),
            ColumnChunk::TextArray {
                values, offsets, ..
            } => KeyPart::TextArray(values[offsets[i]..offsets[i + 1]].to_vec()),
        }
    }
}

/// The composite parts, stored small-vec style: the single-column common case
/// holds its part inline (no heap indirection beyond what the part itself
/// owns), composite keys box their part slice.
#[derive(Debug, Clone)]
enum KeyParts {
    One(KeyPart),
    Many(Box<[KeyPart]>),
}

/// A grouping key: one [`KeyPart`] per grouping column.
///
/// Keys compare, hash and order part-wise — lexicographic over the parts
/// with [`KeyPart`]'s per-part semantics (bit-pattern float equality, total
/// order, NULL-first) — so a composite key behaves exactly like SQL's
/// multi-column `GROUP BY` tuple.  Keys of different arity never compare
/// equal (shorter tuples order first on a shared prefix), though in practice
/// every key produced by one grouped scan has the same arity.
#[derive(Debug, Clone)]
pub struct GroupKey(KeyParts);

impl GroupKey {
    /// A single-column key from one part.
    pub fn single(part: KeyPart) -> Self {
        GroupKey(KeyParts::One(part))
    }

    /// A key from one part per grouping column.  One-part keys are stored
    /// inline ([`GroupKey::single`]); anything else is boxed.
    pub fn composite(parts: Vec<KeyPart>) -> Self {
        let mut parts = parts;
        if parts.len() == 1 {
            GroupKey(KeyParts::One(parts.pop().expect("length checked")))
        } else {
            GroupKey(KeyParts::Many(parts.into_boxed_slice()))
        }
    }

    /// Derives a single-column key for a value.
    pub fn from_value(value: &Value) -> Self {
        GroupKey::single(KeyPart::from_value(value))
    }

    /// Derives a composite key from one value per grouping column.  A
    /// single-value iterator produces an inline one-part key without heap
    /// allocation, matching [`GroupKey::from_value`].
    pub fn from_values<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut iter = values.into_iter().map(KeyPart::from_value);
        match (iter.next(), iter.next()) {
            (Some(only), None) => GroupKey::single(only),
            (first, second) => {
                let mut parts: Vec<KeyPart> = first.into_iter().chain(second).collect();
                parts.extend(iter);
                GroupKey::composite(parts)
            }
        }
    }

    /// The key's parts, one per grouping column.
    pub fn parts(&self) -> &[KeyPart] {
        match &self.0 {
            KeyParts::One(part) => std::slice::from_ref(part),
            KeyParts::Many(parts) => parts,
        }
    }

    /// Number of grouping columns the key spans.
    pub fn arity(&self) -> usize {
        self.parts().len()
    }

    /// Whether the key spans more than one grouping column.
    pub fn is_composite(&self) -> bool {
        self.arity() > 1
    }

    /// Reconstructs the representative [`Value`] of a *single-column* key's
    /// group.  The round trip through [`GroupKey::from_value`] is exact,
    /// including NaN payloads and signed zeros.
    ///
    /// # Panics
    /// Panics on a composite key — use [`GroupKey::into_values`] when the
    /// grouping may span several columns.
    #[track_caller]
    pub fn into_value(self) -> Value {
        match self.0 {
            KeyParts::One(part) => part.into_value(),
            KeyParts::Many(parts) => panic!(
                "into_value on a composite key of {} parts; use into_values",
                parts.len()
            ),
        }
    }

    /// Reconstructs the representative [`Value`]s of this key's group, one
    /// per grouping column.  Exact, like [`GroupKey::into_value`].
    pub fn into_values(self) -> Vec<Value> {
        match self.0 {
            KeyParts::One(part) => vec![part.into_value()],
            KeyParts::Many(parts) => parts
                .into_vec()
                .into_iter()
                .map(KeyPart::into_value)
                .collect(),
        }
    }

    /// Whether this key equals the key of row `i` over the given key
    /// columns, checked in place (see [`KeyPart::matches_column`]).  Returns
    /// `false` when the arity differs from the column count.
    pub fn matches_columns(&self, columns: &[&ColumnChunk], i: usize) -> bool {
        let parts = self.parts();
        parts.len() == columns.len()
            && parts
                .iter()
                .zip(columns)
                .all(|(part, column)| part.matches_column(column, i))
    }

    /// The key of row `i` over the given key columns, read straight from the
    /// column buffers.
    pub fn from_columns(columns: &[&ColumnChunk], i: usize) -> Self {
        if let [column] = columns {
            return GroupKey::single(KeyPart::from_column(column, i));
        }
        GroupKey::composite(
            columns
                .iter()
                .map(|column| KeyPart::from_column(column, i))
                .collect(),
        )
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the part sequence itself (not the slice, whose `Hash` prefixes
        // the length) so a one-part key hashes identically whether it is
        // stored inline or boxed.
        for part in self.parts() {
            part.hash(state);
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(other.parts())
    }
}

impl From<KeyPart> for GroupKey {
    fn from(part: KeyPart) -> Self {
        GroupKey::single(part)
    }
}

/// Once the mean rows-per-group within a chunk drops below this, the grouped
/// transition stops gathering per-group sub-chunks directly and switches to
/// the radix partition pass: a gather that yields only a couple of rows
/// costs more than the vectorized kernel saves, so high-cardinality chunks
/// stage their rows by group-slot bucket instead and batch each group across
/// many chunks.  (Equality of results does not depend on the threshold —
/// `transition_chunk` overrides are bit-identical to per-row transitions by
/// contract, and staging preserves each group's row order — so this is
/// purely a performance knob.)
const MIN_ROWS_PER_GROUP_FOR_GATHER: usize = 4;

/// How many consecutive group slots share one radix bucket.  Rows are
/// bucketed by `slot / RADIX_SLOTS_PER_BUCKET`, so a flushed bucket touches a
/// contiguous run of aggregate states (cache-friendly) and each group's
/// staged batch stays big enough for the vectorized kernels.
const RADIX_SLOTS_PER_BUCKET: usize = 16;

/// A bucket is flushed through `transition_chunk` once it has staged this
/// many rows — at that point each of its (up to
/// [`RADIX_SLOTS_PER_BUCKET`]) groups averages a batch worth gathering.
const RADIX_FLUSH_ROWS: usize = 256;

/// Upper bound on rows staged across all buckets of one grouped transition
/// call; when exceeded, the fullest buckets are flushed early.  Bounds
/// staging memory at roughly this many rows' worth of columnar data per
/// worker.
const RADIX_MAX_STAGED_ROWS: usize = 32 * 1024;

/// One segment's grouped transition states: a key → slot directory (each
/// distinct key is hashed into a dense slot once) and the slot-indexed
/// states it points into.
///
/// The batch grouped scan ([`crate::Dataset::aggregate_per_group`]) builds
/// one per segment scan; a grouped [`crate::MaterializedAggregate`] keeps one
/// per segment across absorbs.  Both advance it through
/// [`GroupedStates::transition_chunks`], so a view's states are the batch
/// scan's states by construction.
#[derive(Debug, Clone)]
pub(crate) struct GroupedStates<S> {
    slots: HashMap<GroupKey, u32>,
    states: Vec<S>,
}

impl<S> Default for GroupedStates<S> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            states: Vec::new(),
        }
    }
}

impl<S> GroupedStates<S> {
    /// The slot of `key`, created with `initial()` on first sight.
    fn slot_of(&mut self, key: &GroupKey, initial: impl FnOnce() -> S) -> u32 {
        if let Some(&slot) = self.slots.get(key) {
            return slot;
        }
        let slot = self.states.len() as u32;
        self.states.push(initial());
        self.slots.insert(key.clone(), slot);
        slot
    }

    /// Folds the filter-surviving rows of `chunks` into the per-key states,
    /// chunk at a time: the per-segment grouped transition.
    ///
    /// Each chunk's rows are keyed into slots, then fed to
    /// [`Aggregate::transition_chunk`] in one of three ways: a single-key
    /// chunk as a whole; a chunk with few groups as one gathered sub-chunk
    /// per group (row order kept); a high-cardinality chunk through the
    /// radix pass, which stages rows into group-slot buckets across chunks
    /// and flushes each group as one batch.  Every staged row is drained
    /// before this returns, so the result equals per-row transitions in scan
    /// order no matter how the rows were batched or split across calls.
    ///
    /// # Errors
    /// Propagates predicate and transition errors; the states may then hold
    /// a partial fold and must be discarded.
    pub(crate) fn transition_chunks<A>(
        &mut self,
        aggregate: &A,
        chunks: &[Arc<RowChunk>],
        schema: &Schema,
        group_indices: &[usize],
        filter: Option<&Predicate>,
    ) -> Result<()>
    where
        A: Aggregate<State = S>,
    {
        let mut staging = GroupStaging::default();
        scan::scan_chunks(chunks, schema, filter, |batch| {
            staging.transition_chunk(aggregate, schema, group_indices, self, batch.chunk())
        })?;
        staging.drain(aggregate, schema, &mut self.states)
    }

    /// The row-at-a-time twin of [`GroupedStates::transition_chunks`]
    /// ([`crate::ExecutionMode::RowAtATime`]): per-row keys, predicates and
    /// [`Aggregate::transition`].
    ///
    /// # Errors
    /// As [`GroupedStates::transition_chunks`].
    pub(crate) fn transition_rows<A>(
        &mut self,
        aggregate: &A,
        chunks: &[Arc<RowChunk>],
        schema: &Schema,
        group_indices: &[usize],
        filter: Option<&Predicate>,
    ) -> Result<()>
    where
        A: Aggregate<State = S>,
    {
        scan::scan_rows(chunks, schema, filter, |row| {
            let key = GroupKey::from_values(group_indices.iter().map(|&i| row.get(i)));
            let slot = self.slot_of(&key, || aggregate.initial_state());
            aggregate.transition(&mut self.states[slot as usize], row, schema)
        })?;
        Ok(())
    }

    /// The `(key, state)` pairs, in slot (first-appearance) order.
    pub(crate) fn into_pairs(self) -> Vec<(GroupKey, S)> {
        let mut keys: Vec<(GroupKey, u32)> = self.slots.into_iter().collect();
        keys.sort_unstable_by_key(|(_, slot)| *slot);
        keys.into_iter()
            .map(|(key, _)| key)
            .zip(self.states)
            .collect()
    }

    /// Copies of the `(key, state)` pairs, in no particular order (the
    /// per-key fold of [`merge_segment_groups`] does not depend on it).
    pub(crate) fn cloned_pairs(&self) -> impl Iterator<Item = (GroupKey, S)> + '_
    where
        S: Clone,
    {
        self.slots
            .iter()
            .map(|(key, &slot)| (key.clone(), self.states[slot as usize].clone()))
    }
}

/// Merges per-segment grouped states into one state per key and returns
/// them sorted by key.  Per key, states merge left to right in segment order
/// — the fold behind every grouped aggregate result, batch or incremental.
pub(crate) fn merge_segment_groups<A, I>(aggregate: &A, segments: I) -> Vec<(GroupKey, A::State)>
where
    A: Aggregate,
    I: IntoIterator,
    I::Item: IntoIterator<Item = (GroupKey, A::State)>,
{
    let mut merged: HashMap<GroupKey, A::State> = HashMap::new();
    for (key, state) in segments.into_iter().flatten() {
        let combined = match merged.remove(&key) {
            None => state,
            Some(prev) => aggregate.merge(prev, state),
        };
        merged.insert(key, combined);
    }
    let mut entries: Vec<(GroupKey, A::State)> = merged.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// Per-call scratch of [`GroupedStates::transition_chunks`]: the radix
/// staging buckets and the per-chunk directories.  It is drained before the
/// call returns and then dropped, so no staged row or grown bucket buffer
/// outlives the call.
#[derive(Default)]
struct GroupStaging {
    /// One bucket per contiguous run of [`RADIX_SLOTS_PER_BUCKET`] slots,
    /// holding rows copied out of their source chunks until the bucket is
    /// worth batching.  Created when the radix pass first stages rows.
    buckets: Vec<StagedBucket>,
    /// Rows staged across all buckets.
    staged_total: usize,
    /// The slot of every row of the current chunk.
    row_slots: Vec<u32>,
    /// The current chunk's distinct slots (first-seen order) with their
    /// in-chunk row counts.
    chunk_groups: Vec<(u32, u32)>,
    /// Epoch-stamped marker per slot (`u32::MAX` = not yet seen this chunk)
    /// locating each slot's entry in `chunk_groups`.
    chunk_group_of_slot: Vec<u32>,
    /// The bucket-granularity twins of `chunk_groups` and
    /// `chunk_group_of_slot`, for the chunk being staged.
    chunk_buckets: Vec<(u32, u32)>,
    chunk_entry_of_bucket: Vec<u32>,
    /// Counting-sort buffers of the gather and staging passes.
    scatter: Vec<u32>,
    offsets: Vec<u32>,
}

impl GroupStaging {
    /// Folds one filter-surviving chunk into `grouped`.
    fn transition_chunk<A: Aggregate>(
        &mut self,
        aggregate: &A,
        schema: &Schema,
        group_indices: &[usize],
        grouped: &mut GroupedStates<A::State>,
        chunk: &RowChunk,
    ) -> Result<()> {
        let rows = chunk.len();
        let key_columns: Vec<&ColumnChunk> =
            group_indices.iter().map(|&c| chunk.column(c)).collect();

        // Pass 1: key every row into its slot and tally this chunk's
        // distinct groups (the per-group selection masks, in compressed slot
        // form).  Group values cluster in practice, so probe the previous
        // row's key in place first — for text and array keys that skips the
        // per-row key allocation entirely.
        self.row_slots.clear();
        for group in self.chunk_groups.drain(..) {
            self.chunk_group_of_slot[group.0 as usize] = u32::MAX;
        }
        let mut previous: Option<(GroupKey, u32)> = None;
        for i in 0..rows {
            let slot = match &previous {
                Some((key, slot)) if key.matches_columns(&key_columns, i) => *slot,
                _ => {
                    let key = GroupKey::from_columns(&key_columns, i);
                    let slot = grouped.slot_of(&key, || aggregate.initial_state());
                    previous = Some((key, slot));
                    slot
                }
            };
            self.row_slots.push(slot);
            if self.chunk_group_of_slot.len() <= slot as usize {
                self.chunk_group_of_slot
                    .resize(grouped.states.len(), u32::MAX);
            }
            let marker = &mut self.chunk_group_of_slot[slot as usize];
            if *marker == u32::MAX {
                *marker = self.chunk_groups.len() as u32;
                self.chunk_groups.push((slot, 0));
            }
            self.chunk_groups[*marker as usize].1 += 1;
        }
        let states = &mut grouped.states;

        if self.chunk_groups.len() == 1 {
            // Single-key chunk: the whole chunk is one group's batch.  Any
            // staged rows of this group's bucket must run first to keep the
            // group's row order.
            let slot = self.chunk_groups[0].0 as usize;
            self.flush(aggregate, schema, states, slot / RADIX_SLOTS_PER_BUCKET)?;
            return aggregate.transition_chunk(&mut states[slot], chunk, schema);
        }

        if rows >= self.chunk_groups.len() * MIN_ROWS_PER_GROUP_FOR_GATHER {
            // Batches are big enough for the vectorized kernels: bucket the
            // row indices by group (counting-sort scatter, one flat reused
            // buffer) and gather each group's rows — in row order — into a
            // compacted sub-chunk.  Buckets holding staged rows of this
            // chunk's groups flush first (order again).
            if self.staged_total > 0 {
                for g in 0..self.chunk_groups.len() {
                    let slot = self.chunk_groups[g].0 as usize;
                    self.flush(aggregate, schema, states, slot / RADIX_SLOTS_PER_BUCKET)?;
                }
            }
            self.offsets.clear();
            let mut running = 0u32;
            for &(_, count) in &self.chunk_groups {
                self.offsets.push(running);
                running += count;
            }
            self.scatter.resize(rows, 0);
            let mut cursors = self.offsets.clone();
            for (i, &slot) in self.row_slots.iter().enumerate() {
                let g = self.chunk_group_of_slot[slot as usize] as usize;
                self.scatter[cursors[g] as usize] = i as u32;
                cursors[g] += 1;
            }
            for (g, &(slot, count)) in self.chunk_groups.iter().enumerate() {
                let start = self.offsets[g] as usize;
                let indices = &self.scatter[start..start + count as usize];
                let sub = chunk.gather_rows(indices);
                aggregate.transition_chunk(&mut states[slot as usize], &sub, schema)?;
            }
            return Ok(());
        }

        // High-cardinality chunk — the radix partition pass.  Counting-sort
        // the row indices into slot-range buckets and append each bucket's
        // rows (columnar copies, no Row materialization) to its staging
        // chunk; groups batch up across chunks and flush through
        // transition_chunk once their bucket is full.  Per-group row order
        // is preserved: a group's rows route through exactly one bucket, in
        // scan order.
        let wanted = states.len().div_ceil(RADIX_SLOTS_PER_BUCKET);
        if self.buckets.len() < wanted {
            self.buckets
                .resize_with(wanted, || StagedBucket::new(schema));
        }
        self.scatter.resize(rows, 0);
        self.stage(chunk)?;
        // Flush buckets that reached a batch worth of rows — only the
        // buckets staged into by *this* chunk (still listed in
        // `chunk_buckets`) can have newly crossed the threshold, so the
        // check is O(buckets touched), not O(all buckets).
        for entry in 0..self.chunk_buckets.len() {
            let b = self.chunk_buckets[entry].0 as usize;
            if self.buckets[b].len() >= RADIX_FLUSH_ROWS {
                self.flush(aggregate, schema, states, b)?;
            }
        }
        // Bound total staging memory by draining the fullest buckets
        // (global scan, but only reached when the cap is exceeded).
        while self.staged_total > RADIX_MAX_STAGED_ROWS {
            let fullest = (0..self.buckets.len())
                .max_by_key(|&b| self.buckets[b].len())
                .expect("buckets exist while rows are staged");
            self.flush(aggregate, schema, states, fullest)?;
        }
        Ok(())
    }

    /// Stages the current chunk's rows (keyed in `row_slots`) into their
    /// slot-range buckets: counting-sorts the row indices by bucket (stable,
    /// preserving row order) and appends each bucket's run to its staging
    /// chunk in one [`RowChunk::append_rows`] call.  The bucket directory is
    /// epoch-stamped like the slot directory, so keying a row to its
    /// chunk-bucket entry is O(1) no matter how many distinct buckets the
    /// chunk touches or in what order keys arrive.
    fn stage(&mut self, chunk: &RowChunk) -> Result<()> {
        // Reset the directory: un-mark the previous staged chunk's buckets
        // and cover any buckets created since.
        for entry in self.chunk_buckets.drain(..) {
            self.chunk_entry_of_bucket[entry.0 as usize] = u32::MAX;
        }
        self.chunk_entry_of_bucket
            .resize(self.buckets.len(), u32::MAX);
        // Distinct buckets of this chunk in first-seen order, with counts.
        for &slot in &self.row_slots {
            let b = slot / RADIX_SLOTS_PER_BUCKET as u32;
            let marker = &mut self.chunk_entry_of_bucket[b as usize];
            if *marker == u32::MAX {
                *marker = self.chunk_buckets.len() as u32;
                self.chunk_buckets.push((b, 0));
            }
            self.chunk_buckets[*marker as usize].1 += 1;
        }
        // Counting-sort scatter with one cursor array: after the scatter
        // pass each cursor sits at the *end* of its bucket's range, and the
        // start is recovered as `end - count` — no second offsets buffer
        // needed.
        self.offsets.clear();
        let mut running = 0u32;
        for &(_, count) in &self.chunk_buckets {
            self.offsets.push(running);
            running += count;
        }
        for (i, &slot) in self.row_slots.iter().enumerate() {
            let b = slot / RADIX_SLOTS_PER_BUCKET as u32;
            let entry = self.chunk_entry_of_bucket[b as usize] as usize;
            self.scatter[self.offsets[entry] as usize] = i as u32;
            self.offsets[entry] += 1;
        }
        for (entry, &(b, count)) in self.chunk_buckets.iter().enumerate() {
            let end = self.offsets[entry] as usize;
            let indices = &self.scatter[end - count as usize..end];
            let bucket = &mut self.buckets[b as usize];
            bucket.rows.append_rows(chunk, indices)?;
            bucket
                .slots
                .extend(indices.iter().map(|&i| self.row_slots[i as usize]));
            self.staged_total += count as usize;
        }
        Ok(())
    }

    /// Flushes bucket `b`, if the radix pass has created it: counting-sorts
    /// the staged row indices by group slot (stable, so each group's rows
    /// keep their scan order), gathers every group's batch through
    /// [`RowChunk::gather_rows`] and feeds it to
    /// [`Aggregate::transition_chunk`].  Clears the bucket in place
    /// afterwards, keeping its grown buffers for the next staging round.
    fn flush<A: Aggregate>(
        &mut self,
        aggregate: &A,
        schema: &Schema,
        states: &mut [A::State],
        b: usize,
    ) -> Result<()> {
        let Some(bucket) = self.buckets.get_mut(b) else {
            return Ok(());
        };
        let staged = bucket.len();
        if staged == 0 {
            return Ok(());
        }
        self.staged_total -= staged;
        let chunk = &bucket.rows;
        let slots = &bucket.slots;

        let base = (b * RADIX_SLOTS_PER_BUCKET) as u32;
        // Local counting sort over the bucket's (at most
        // RADIX_SLOTS_PER_BUCKET) slots.
        let mut counts = [0u32; RADIX_SLOTS_PER_BUCKET];
        for &slot in slots {
            counts[(slot - base) as usize] += 1;
        }
        let outcome = if counts.iter().any(|&c| c as usize == staged) {
            // Single-group bucket: the whole staged chunk is one batch.
            let slot = slots[0] as usize;
            aggregate.transition_chunk(&mut states[slot], chunk, schema)
        } else {
            let mut offsets = [0u32; RADIX_SLOTS_PER_BUCKET];
            let mut running = 0u32;
            for (offset, &count) in offsets.iter_mut().zip(&counts) {
                *offset = running;
                running += count;
            }
            let mut scatter = vec![0u32; staged];
            let mut cursors = offsets;
            for (i, &slot) in slots.iter().enumerate() {
                let local = (slot - base) as usize;
                scatter[cursors[local] as usize] = i as u32;
                cursors[local] += 1;
            }
            let mut result = Ok(());
            for (local, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let start = offsets[local] as usize;
                let indices = &scatter[start..start + count as usize];
                let sub = chunk.gather_rows(indices);
                if let Err(err) =
                    aggregate.transition_chunk(&mut states[base as usize + local], &sub, schema)
                {
                    result = Err(err);
                    break;
                }
            }
            result
        };
        bucket.rows.clear();
        bucket.slots.clear();
        outcome
    }

    /// Drains every bucket.  Cross-group order is free (each group's state
    /// is independent); per-group order was preserved by the staging
    /// discipline.
    fn drain<A: Aggregate>(
        &mut self,
        aggregate: &A,
        schema: &Schema,
        states: &mut [A::State],
    ) -> Result<()> {
        for b in 0..self.buckets.len() {
            self.flush(aggregate, schema, states, b)?;
        }
        debug_assert_eq!(self.staged_total, 0);
        Ok(())
    }
}

/// One radix bucket of the high-cardinality grouped transition: the staged
/// rows of a contiguous run of [`RADIX_SLOTS_PER_BUCKET`] group slots,
/// appended in scan order (so each group's rows stay in row order), plus
/// each staged row's slot — recorded at staging time so a flush never
/// re-derives keys.
struct StagedBucket {
    rows: RowChunk,
    slots: Vec<u32>,
}

impl StagedBucket {
    fn new(schema: &Schema) -> Self {
        Self {
            rows: RowChunk::new(schema),
            slots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

    #[test]
    fn signed_zero_and_nan_form_distinct_stable_groups() {
        let pos = GroupKey::from_value(&Value::Double(0.0));
        let neg = GroupKey::from_value(&Value::Double(-0.0));
        let nan = GroupKey::from_value(&Value::Double(f64::NAN));
        assert_ne!(pos, neg, "-0.0 and 0.0 must be distinct groups");
        assert_eq!(nan, GroupKey::from_value(&Value::Double(f64::NAN)));
        assert!(neg < pos, "total order puts -0.0 before 0.0");
        assert!(nan > pos, "positive NaN sorts after all finite values");
        // The round trip preserves the exact bit pattern.
        match GroupKey::from_value(&Value::Double(-0.0)).into_value() {
            Value::Double(v) => assert_eq!(v.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_type_keys_have_a_deterministic_total_order() {
        let mut keys = vec![
            GroupKey::from_value(&Value::Text("a".into())),
            GroupKey::from_value(&Value::Double(1.5)),
            GroupKey::from_value(&Value::Int(10)),
            GroupKey::from_value(&Value::Int(9)),
            GroupKey::from_value(&Value::Null),
            GroupKey::from_value(&Value::Bool(true)),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                GroupKey::single(KeyPart::Null),
                GroupKey::single(KeyPart::Bool(true)),
                GroupKey::single(KeyPart::Int(9)),
                GroupKey::single(KeyPart::Int(10)), // numeric, not lexicographic, order
                GroupKey::single(KeyPart::Double(TotalF64(1.5))),
                GroupKey::single(KeyPart::Text("a".into())),
            ]
        );
    }

    #[test]
    fn composite_keys_compare_hash_and_order_part_wise() {
        use std::collections::hash_map::DefaultHasher;

        let ab = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(1)]);
        let ab2 = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(1)]);
        let ac = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(2)]);
        let bb = GroupKey::from_values([&Value::Text("b".into()), &Value::Int(1)]);
        assert_eq!(ab, ab2);
        assert_ne!(ab, ac);
        assert!(ab < ac, "second part breaks the tie");
        assert!(ac < bb, "first part dominates");
        assert_eq!(ab.arity(), 2);
        assert!(ab.is_composite());
        assert_eq!(
            ab.clone().into_values(),
            vec![Value::Text("a".into()), Value::Int(1)]
        );

        // A one-part composite normalizes to the inline representation and
        // hashes/compares identically to the single-part constructor.
        let single = GroupKey::composite(vec![KeyPart::Int(7)]);
        assert_eq!(single, GroupKey::from_value(&Value::Int(7)));
        let hash_of = |key: &GroupKey| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        assert_eq!(
            hash_of(&single),
            hash_of(&GroupKey::from_value(&Value::Int(7)))
        );

        // NULL and NaN parts keep their group-key semantics inside a tuple.
        let null_nan = GroupKey::from_values([&Value::Null, &Value::Double(f64::NAN)]);
        assert_eq!(
            null_nan,
            GroupKey::from_values([&Value::Null, &Value::Double(f64::NAN)])
        );
        let null_zero = GroupKey::from_values([&Value::Null, &Value::Double(0.0)]);
        let null_negzero = GroupKey::from_values([&Value::Null, &Value::Double(-0.0)]);
        assert_ne!(null_zero, null_negzero);
        assert!(null_negzero < null_zero);

        // Different arity never compares equal; shorter prefixes sort first.
        let a = GroupKey::from_values([&Value::Text("a".into())]);
        assert_ne!(a, ab);
        assert!(a < ab);
    }

    #[test]
    fn matches_columns_agrees_with_from_columns() {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Text),
            Column::new("d", ColumnType::Double),
            Column::new("a", ColumnType::DoubleArray),
        ]);
        let mut chunk = RowChunk::new(&schema);
        chunk
            .push_values(row!["x", 0.0, vec![1.0, 2.0]].values())
            .unwrap();
        chunk
            .push_values(row!["y", -0.0, vec![1.0]].values())
            .unwrap();
        chunk
            .push_values(&[Value::Null, Value::Null, Value::Null])
            .unwrap();
        // Every single column and every column pair behave consistently.
        let column_sets: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[1, 2], &[2, 0], &[0, 1, 2]];
        for set in column_sets {
            let columns: Vec<&ColumnChunk> = set.iter().map(|&c| chunk.column(c)).collect();
            for i in 0..chunk.len() {
                let key = GroupKey::from_columns(&columns, i);
                assert_eq!(key.arity(), set.len());
                for j in 0..chunk.len() {
                    assert_eq!(
                        key.matches_columns(&columns, j),
                        key == GroupKey::from_columns(&columns, j),
                        "columns {set:?}, key of row {i} probed against row {j}"
                    );
                }
            }
        }
    }
}

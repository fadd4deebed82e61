//! The database: a catalog of named tables plus temp-table support.
//!
//! The driver-function pattern from the paper (Section 3.1.2, Figure 3)
//! stages inter-iteration state in temporary tables created with
//! `CREATE TEMP TABLE ... AS SELECT ...` so that "all large-data movement is
//! done within the database engine".  [`Database`] provides that catalog:
//! regular tables, temp tables (dropped on [`Database::drop_temp_tables`]),
//! and a default segment count that new tables inherit (the analogue of the
//! cluster's segment configuration).
//!
//! # Locking
//!
//! The catalog map itself is guarded by one `RwLock`, but each table lives
//! behind its **own** `Arc<RwLock<Table>>`: catalog operations (create,
//! drop, lookup) take the catalog lock only long enough to touch the map,
//! and every table read or mutation happens under that table's private
//! lock.  A long append to table A therefore never blocks a snapshot read
//! of table B — the failure mode of the earlier design, where
//! [`Database::with_table_mut`] held the catalog-wide write lock for its
//! closure's full duration.
//!
//! # Snapshot isolation
//!
//! [`Database::table`] and [`Database::dataset`] return a *snapshot*: a
//! clone of the table taken under its read lock.  Because a
//! [`crate::chunk::Segment`]'s chunks sit behind `Arc`, the clone shares
//! every sealed chunk buffer with the cataloged table (pointer identity, no
//! copy) and only the open tail chunk is copied lazily when a later append
//! mutates it (`Arc::make_mut`).  Appends committed *after* the snapshot
//! was taken are never visible to it, and the snapshot stays valid after
//! the table is dropped — the read-committed snapshot semantics the paper's
//! method drivers assume of `source_table`.
//!
//! # Durability
//!
//! A database opened with [`Database::open`] is backed by a directory: a
//! write-ahead log (`crate::wal`) plus chunk-granular snapshots and a
//! manifest (`crate::persist`).  The logged operations are exactly the
//! catalog-level mutations — [`Database::create_table`] (and variants),
//! [`Database::append_rows`], [`Database::truncate_table`],
//! [`Database::replace_table`], [`Database::register_table`] and
//! [`Database::drop_table`].  Each call is one WAL record; **the commit
//! point is the fsync of the group-commit batch containing that record**,
//! and the call does not return success before it.  Concurrent committers
//! share one fsync (group commit); a reader may observe rows a few
//! microseconds before their commit fsync completes (async-commit-style
//! visibility), but the *caller* is only acknowledged after it.
//!
//! What is durable: table data, schemas, distribution and chunk layout —
//! recovery ([`Database::open`] / [`Database::recover`]) reproduces them
//! **bit-identically** to a committed prefix of the operation history, chunk
//! boundaries and round-robin cursor included.  Models and materialized
//! views are *derived caches*: they are not persisted and do not survive the
//! process, but because training and view absorption are deterministic over
//! bit-identical tables, re-registering and refreshing them after recovery
//! reproduces their pre-crash state bit-for-bit.  Temp tables are never
//! logged or persisted.  [`Database::with_table_mut`] is the unlogged escape
//! hatch — mutations made through it reach disk only at the next
//! [`Database::checkpoint`].
//!
//! Logged mutations follow one locking discipline so that WAL order always
//! equals in-memory apply order: take the commit gate (read), then the
//! catalog lock, then the table's write lock, and enqueue the record before
//! releasing the table lock.  The checkpoint takes the gate in write mode,
//! so its manifest `(epoch, offset)` and its table snapshot agree exactly.

use crate::catalog::ModelCatalog;
use crate::error::{EngineError, Result};
use crate::materialize::AnyMaterialized;
use crate::persist::{
    self, Durability, Manifest, ManifestSegment, ManifestTable, PersistState, TablePersist,
    WalRecord,
};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::{Distribution, Table};
use crate::value::Value;
use crate::wal::{self, Wal, WAL_HEADER_LEN};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug, Clone)]
struct CatalogEntry {
    table: Arc<RwLock<Table>>,
    is_temp: bool,
}

/// A registered materialized aggregate: the type-erased incremental state
/// plus the source table it watches.
struct ViewEntry {
    source: String,
    state: Arc<Mutex<Box<dyn AnyMaterialized>>>,
}

/// An in-memory database: named tables partitioned across a configurable
/// number of segments.
#[derive(Clone)]
pub struct Database {
    inner: Arc<RwLock<HashMap<String, CatalogEntry>>>,
    views: Arc<RwLock<HashMap<String, ViewEntry>>>,
    models: ModelCatalog,
    temp_counter: Arc<AtomicU64>,
    /// Source of per-table lifecycle generations (see [`Table::generation`]);
    /// starts at 1 so generation 0 marks standalone, never-cataloged tables.
    generations: Arc<AtomicU64>,
    durability: Option<Arc<Durability>>,
    num_segments: usize,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("num_segments", &self.num_segments)
            .field("tables", &self.list_tables().len())
            .finish_non_exhaustive()
    }
}

/// Recovers a read guard from a poisoned lock: catalog and table mutations
/// cannot leave their data half-written, so propagating the panic as a
/// second panic would only lose information.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl Database {
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, CatalogEntry>> {
        read_lock(&self.inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, CatalogEntry>> {
        write_lock(&self.inner)
    }

    /// Looks up a table's lock handle, holding the catalog lock only for the
    /// map probe.
    fn entry(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.read()
            .get(name)
            .map(|e| Arc::clone(&e.table))
            .ok_or_else(|| EngineError::TableNotFound {
                name: name.to_owned(),
            })
    }

    /// Creates a database whose tables default to `num_segments` partitions.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    pub fn new(num_segments: usize) -> Result<Self> {
        if num_segments == 0 {
            return Err(EngineError::InvalidSegmentCount { requested: 0 });
        }
        Ok(Self {
            inner: Arc::new(RwLock::new(HashMap::new())),
            views: Arc::new(RwLock::new(HashMap::new())),
            models: ModelCatalog::new(),
            temp_counter: Arc::new(AtomicU64::new(1)),
            generations: Arc::new(AtomicU64::new(1)),
            durability: None,
            num_segments,
        })
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed)
    }

    /// Serializes a logged mutation's record while the caller holds the lock
    /// that orders the matching in-memory change; `None` on a non-durable
    /// database (or for temp tables, which callers filter out).
    fn enqueue(&self, record: &WalRecord) -> Option<wal::Ticket> {
        self.durability
            .as_ref()
            .map(|d| d.wal.append(&persist::encode_record(record)))
    }

    /// Blocks until the enqueued record's group-commit fsync completes — the
    /// commit point.  Called after all locks are released, so a committer
    /// waiting on the disk never blocks other tables' traffic.
    fn wait_durable(&self, ticket: Option<wal::Ticket>) -> Result<()> {
        match (&self.durability, ticket) {
            (Some(d), Some(t)) => d.wal.wait(t),
            _ => Ok(()),
        }
    }

    /// The commit gate, held for read across (locks + enqueue) of every
    /// logged mutation; [`Database::checkpoint`] takes it for write.
    fn commit_gate(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.durability.as_ref().map(|d| read_lock(&d.gate))
    }

    /// Default segment count for new tables.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// The database's model catalog: named, typed storage for trained models
    /// (single or per-group), shared by all clones of this handle exactly
    /// like the table catalog.
    pub fn models(&self) -> &ModelCatalog {
        &self.models
    }

    /// Creates an empty (regular) table.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.create_internal(name, schema, Distribution::RoundRobin, false, None)
    }

    /// Creates an empty table with an explicit distribution policy.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision or a
    /// distribution error.
    pub fn create_table_distributed(
        &self,
        name: &str,
        schema: Schema,
        distribution: Distribution,
    ) -> Result<()> {
        self.create_internal(name, schema, distribution, false, None)
    }

    /// Creates an empty table with an explicit rows-per-chunk capacity
    /// (default [`crate::chunk::CHUNK_CAPACITY`]).  Small capacities let
    /// tests and benchmarks exercise chunk-boundary behaviour — sealing,
    /// snapshot persistence, watermark advancement — with few rows; the
    /// capacity is logged and persisted, so recovery reproduces the same
    /// chunk layout.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision and
    /// [`EngineError::InvalidArgument`] for a zero capacity.
    pub fn create_table_with_chunk_capacity(
        &self,
        name: &str,
        schema: Schema,
        chunk_capacity: usize,
    ) -> Result<()> {
        self.create_internal(
            name,
            schema,
            Distribution::RoundRobin,
            false,
            Some(chunk_capacity),
        )
    }

    /// Creates an empty temp table (`CREATE TEMP TABLE`).  Temp tables behave
    /// exactly like regular tables but are dropped by
    /// [`Database::drop_temp_tables`], which method drivers call when an
    /// iteration completes.
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn create_temp_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.create_internal(name, schema, Distribution::RoundRobin, true, None)
    }

    /// Creates an empty temp table under `base` or, when that name is taken,
    /// `base_<n>` for a database-wide monotonic counter `n` — returning the
    /// name actually used.  Probe and create happen under one catalog write
    /// lock, so concurrent callers (e.g. parallel per-group iterative fits
    /// sharing an iteration-state base name) always receive distinct tables.
    ///
    /// The counter advances monotonically and is never reused, so a burst of
    /// k concurrent fits costs O(k) probes total — the earlier
    /// `base_1, base_2, ...` linear re-probe was O(k²) across many live
    /// per-group iteration tables and could collide semantically with a
    /// same-named regular table that happened to end in `_<i>`.
    ///
    /// # Errors
    /// Propagates table-construction errors.
    pub fn create_unique_temp_table(&self, base: &str, schema: Schema) -> Result<String> {
        let mut catalog = self.write();
        let name = if catalog.contains_key(base) {
            loop {
                let n = self.temp_counter.fetch_add(1, Ordering::Relaxed);
                let candidate = format!("{base}_{n}");
                if !catalog.contains_key(&candidate) {
                    break candidate;
                }
            }
        } else {
            base.to_owned()
        };
        let mut table =
            Table::with_distribution(schema, self.num_segments, Distribution::RoundRobin)?;
        table.set_generation(self.next_generation());
        catalog.insert(
            name.clone(),
            CatalogEntry {
                table: Arc::new(RwLock::new(table)),
                is_temp: true,
            },
        );
        Ok(name)
    }

    fn create_internal(
        &self,
        name: &str,
        schema: Schema,
        distribution: Distribution,
        is_temp: bool,
        chunk_capacity: Option<usize>,
    ) -> Result<()> {
        let ticket = {
            let _gate = self.commit_gate();
            let mut catalog = self.write();
            if catalog.contains_key(name) {
                return Err(EngineError::TableAlreadyExists {
                    name: name.to_owned(),
                });
            }
            let mut table =
                Table::with_distribution(schema.clone(), self.num_segments, distribution.clone())?;
            if let Some(capacity) = chunk_capacity {
                table = table.with_chunk_capacity(capacity)?;
            }
            table.set_generation(self.next_generation());
            let capacity = table.chunk_capacity();
            catalog.insert(
                name.to_owned(),
                CatalogEntry {
                    table: Arc::new(RwLock::new(table)),
                    is_temp,
                },
            );
            if is_temp {
                None
            } else {
                // Enqueued under the catalog write lock, so no same-name
                // drop/create can interleave between apply and log.
                self.enqueue(&WalRecord::CreateTable {
                    name: name.to_owned(),
                    schema,
                    distribution,
                    chunk_capacity: capacity as u64,
                })
            }
        };
        self.wait_durable(ticket)
    }

    /// Builds the wholesale-contents WAL record for `table` (used by
    /// [`Database::register_table`] and [`Database::replace_table`]): every
    /// row per segment in insertion order, so replay reproduces the exact
    /// chunk layout — segments always fill sequentially.
    fn put_table_record(name: &str, table: &Table) -> WalRecord {
        let segments: Vec<Vec<Vec<Value>>> = (0..table.num_segments())
            .map(|s| {
                table
                    .segment(s)
                    .iter()
                    .map(|row| row.values().to_vec())
                    .collect()
            })
            .collect();
        WalRecord::PutTable {
            name: name.to_owned(),
            schema: table.schema().clone(),
            distribution: table.distribution().clone(),
            chunk_capacity: table.chunk_capacity() as u64,
            next_round_robin: table.next_round_robin() as u64,
            segments,
        }
    }

    /// Registers an already-populated table under `name` (the programmatic
    /// equivalent of `CREATE TABLE ... AS SELECT`).
    ///
    /// # Errors
    /// Returns [`EngineError::TableAlreadyExists`] on a name collision.
    pub fn register_table(&self, name: &str, mut table: Table) -> Result<()> {
        let ticket = {
            let _gate = self.commit_gate();
            let mut catalog = self.write();
            if catalog.contains_key(name) {
                return Err(EngineError::TableAlreadyExists {
                    name: name.to_owned(),
                });
            }
            table.set_generation(self.next_generation());
            let record = self
                .durability
                .is_some()
                .then(|| Self::put_table_record(name, &table));
            catalog.insert(
                name.to_owned(),
                CatalogEntry {
                    table: Arc::new(RwLock::new(table)),
                    is_temp: false,
                },
            );
            record.as_ref().and_then(|r| self.enqueue(r))
        };
        self.wait_durable(ticket)
    }

    /// Returns a snapshot of the named table.
    ///
    /// The snapshot is taken under the table's read lock and is **cheap**:
    /// sealed chunk buffers are shared with the cataloged table by `Arc`
    /// (pointer identity, no copy); only segment/chunk bookkeeping is
    /// cloned.  Appends committed after this call are invisible to the
    /// snapshot, and the snapshot outlives a later `drop_table` — see the
    /// module-level *Snapshot isolation* notes.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn table(&self, name: &str) -> Result<Table> {
        let entry = self.entry(name)?;
        let guard = read_lock(&entry);
        Ok(guard.clone())
    }

    /// Whether the named table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Lists table names (sorted) together with their temp status.
    pub fn list_tables(&self) -> Vec<(String, bool)> {
        let mut names: Vec<(String, bool)> = self
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.is_temp))
            .collect();
        names.sort();
        names
    }

    /// Applies a mutation to the named table in place (insert rows, truncate,
    /// etc.).
    ///
    /// Only the named table's own write lock is held while `mutate` runs —
    /// reads and writes of *other* tables proceed concurrently.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name and
    /// propagates errors from the mutation closure.
    pub fn with_table_mut<T>(
        &self,
        name: &str,
        mutate: impl FnOnce(&mut Table) -> Result<T>,
    ) -> Result<T> {
        let entry = self.entry(name)?;
        let mut guard = write_lock(&entry);
        mutate(&mut guard)
    }

    /// Appends rows to the named table and advances every materialized
    /// aggregate registered on it (each absorbs exactly the newly appended
    /// rows via its chunk watermark — history is not rescanned).
    ///
    /// The whole batch is one WAL record: recovery surfaces either all of
    /// these rows or none of them, never a partial batch.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name and
    /// propagates insert errors (in which case nothing is logged).  When the
    /// insert commits but one or more views fail to absorb it, the rows
    /// **stay committed**, every failing view is marked for rebuild, and the
    /// error is [`EngineError::ViewAbsorbFailed`] naming them.
    pub fn append_rows(&self, name: &str, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let rows: Vec<Row> = rows.into_iter().collect();
        let ticket = {
            let _gate = self.commit_gate();
            // Take the table's write lock while still holding the catalog
            // read lock (the uniform gate → catalog → table order), so a
            // concurrent drop of this table cannot be logged between our
            // in-memory apply and our WAL enqueue.
            let catalog = self.read();
            let entry = catalog
                .get(name)
                .ok_or_else(|| EngineError::TableNotFound {
                    name: name.to_owned(),
                })?;
            let is_temp = entry.is_temp;
            let handle = Arc::clone(&entry.table);
            let mut table = write_lock(&handle);
            drop(catalog);
            // Validate the full batch up front: a WAL record must describe
            // rows that all applied, so nothing may fail after the first
            // insert.
            for row in &rows {
                table.schema().validate(row.values())?;
            }
            let record = (!is_temp && self.durability.is_some()).then(|| WalRecord::Append {
                table: name.to_owned(),
                rows: rows.iter().map(|r| r.values().to_vec()).collect(),
            });
            for row in rows {
                table.insert(row)?;
            }
            record.as_ref().and_then(|r| self.enqueue(r))
        };
        self.wait_durable(ticket)?;
        self.absorb_views_of(name)
    }

    /// Replaces the contents of the named table with `table` (the
    /// `CREATE TABLE AS SELECT` + `DROP TABLE` pattern the paper recommends
    /// over large `UPDATE`s in PostgreSQL, Section 4.3).  The table receives
    /// a fresh lifecycle generation, so views watching it rebuild instead of
    /// absorbing against watermarks that describe the old contents.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn replace_table(&self, name: &str, mut table: Table) -> Result<()> {
        let ticket = {
            let _gate = self.commit_gate();
            let catalog = self.read();
            let entry = catalog
                .get(name)
                .ok_or_else(|| EngineError::TableNotFound {
                    name: name.to_owned(),
                })?;
            let is_temp = entry.is_temp;
            let handle = Arc::clone(&entry.table);
            let mut guard = write_lock(&handle);
            drop(catalog);
            table.set_generation(self.next_generation());
            let record = (!is_temp && self.durability.is_some())
                .then(|| Self::put_table_record(name, &table));
            *guard = table;
            record.as_ref().and_then(|r| self.enqueue(r))
        };
        self.wait_durable(ticket)
    }

    /// Removes every row from the named table, keeping schema, distribution
    /// and chunk capacity (SQL `TRUNCATE`).  The table receives a fresh
    /// lifecycle generation, so views watching it rebuild from the now-empty
    /// contents instead of treating their watermarks as still valid.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        let ticket = {
            let _gate = self.commit_gate();
            let catalog = self.read();
            let entry = catalog
                .get(name)
                .ok_or_else(|| EngineError::TableNotFound {
                    name: name.to_owned(),
                })?;
            let is_temp = entry.is_temp;
            let handle = Arc::clone(&entry.table);
            let mut guard = write_lock(&handle);
            drop(catalog);
            guard.truncate();
            guard.set_generation(self.next_generation());
            if is_temp {
                None
            } else {
                self.enqueue(&WalRecord::Truncate {
                    table: name.to_owned(),
                })
            }
        };
        self.wait_durable(ticket)
    }

    /// Drops the named table.  Views watching it keep their state but fail
    /// with [`EngineError::TableNotFound`] on refresh; if a table of the same
    /// name is created later, its fresh generation forces those views to
    /// rebuild rather than absorb against stale watermarks.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let ticket = {
            let _gate = self.commit_gate();
            let mut catalog = self.write();
            let entry = catalog
                .remove(name)
                .ok_or_else(|| EngineError::TableNotFound {
                    name: name.to_owned(),
                })?;
            // Take the removed table's write lock under the catalog write
            // lock: an in-flight append enqueues its record before releasing
            // the table lock, so the drop record always follows it in the
            // WAL — log order matches apply order.
            let _table = write_lock(&entry.table);
            if entry.is_temp {
                None
            } else {
                self.enqueue(&WalRecord::DropTable {
                    name: name.to_owned(),
                })
            }
        };
        self.wait_durable(ticket)
    }

    /// Drops all temp tables, returning how many were removed.
    pub fn drop_temp_tables(&self) -> usize {
        let mut catalog = self.write();
        let before = catalog.len();
        catalog.retain(|_, e| !e.is_temp);
        before - catalog.len()
    }

    /// Registers a materialized aggregate under `view`, watching `source`,
    /// replacing any previous view of the same name (`CREATE OR REPLACE`
    /// semantics, matching [`ModelCatalog::register`]).  The state should
    /// already have absorbed (or be about to absorb) the source's current
    /// contents; [`Database::refresh_view`] catches up either way.
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] when `source` does not exist.
    pub fn register_view(
        &self,
        view: &str,
        source: &str,
        state: Box<dyn AnyMaterialized>,
    ) -> Result<()> {
        if !self.has_table(source) {
            return Err(EngineError::TableNotFound {
                name: source.to_owned(),
            });
        }
        write_lock(&self.views).insert(
            view.to_owned(),
            ViewEntry {
                source: source.to_owned(),
                state: Arc::new(Mutex::new(state)),
            },
        );
        Ok(())
    }

    /// Whether a materialized view of this name exists.
    pub fn has_view(&self, view: &str) -> bool {
        read_lock(&self.views).contains_key(view)
    }

    /// Drops the named materialized view, returning whether it existed.
    pub fn drop_view(&self, view: &str) -> bool {
        write_lock(&self.views).remove(view).is_some()
    }

    /// Catches the named view up to its source table's current contents
    /// (absorbing only rows past its watermark) and hands the up-to-date
    /// state to `with`.
    ///
    /// # Errors
    /// Returns [`EngineError::ModelNotFound`] for an unknown view,
    /// [`EngineError::TableNotFound`] when the source table was dropped, and
    /// propagates absorb errors.
    pub fn refresh_view<T>(
        &self,
        view: &str,
        with: impl FnOnce(&mut dyn AnyMaterialized) -> Result<T>,
    ) -> Result<T> {
        let (source, state) = {
            let views = read_lock(&self.views);
            let entry = views.get(view).ok_or_else(|| EngineError::ModelNotFound {
                name: view.to_owned(),
                group: None,
            })?;
            (entry.source.clone(), Arc::clone(&entry.state))
        };
        let snapshot = self.table(&source)?;
        let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
        guard.absorb(&snapshot)?;
        with(guard.as_mut())
    }

    /// Absorbs the current contents of `table` into every view registered on
    /// it (called by [`Database::append_rows`] after the insert commits).
    ///
    /// The insert is already committed when this runs, so one view's failure
    /// must not abort the others: every view gets its absorb attempt, each
    /// failing view is marked needing rebuild (its next absorb starts from
    /// scratch), and the collected failures come back as a single
    /// [`EngineError::ViewAbsorbFailed`].
    fn absorb_views_of(&self, table: &str) -> Result<()> {
        type SharedView = Arc<Mutex<Box<dyn AnyMaterialized>>>;
        let mut watching: Vec<(String, SharedView)> = read_lock(&self.views)
            .iter()
            .filter(|(_, e)| e.source == table)
            .map(|(name, e)| (name.clone(), Arc::clone(&e.state)))
            .collect();
        if watching.is_empty() {
            return Ok(());
        }
        watching.sort_by(|a, b| a.0.cmp(&b.0));
        let snapshot = match self.table(table) {
            Ok(s) => s,
            // The table vanished between the append and this absorb
            // (concurrent drop): views catch up — or rebuild — on their next
            // refresh against whatever table then exists.
            Err(EngineError::TableNotFound { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut failures = Vec::new();
        for (view, state) in watching {
            let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = guard.absorb(&snapshot) {
                guard.mark_needs_rebuild();
                failures.push((view, e.to_string()));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(EngineError::ViewAbsorbFailed {
                table: table.to_owned(),
                failures,
            })
        }
    }

    // -----------------------------------------------------------------------
    // Durability: open / recover / checkpoint
    // -----------------------------------------------------------------------

    /// Opens (or creates) a durable database rooted at `dir`.
    ///
    /// A fresh directory is initialized with an empty manifest — written
    /// *before* the WAL, so the segment count is always recoverable — and an
    /// empty log.  An existing directory is recovered first: the latest
    /// snapshot is loaded and the committed WAL tail replayed over it, so the
    /// returned handle reflects exactly the acknowledged commits (a torn tail
    /// beyond the committed prefix is truncated).  `num_segments` applies
    /// only to a fresh directory; reopening uses the persisted value.
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] on I/O failure, a corrupt manifest,
    /// or a WAL epoch that is neither the manifest's nor its successor, and
    /// [`EngineError::InvalidSegmentCount`] for `num_segments == 0` on a
    /// fresh directory.
    pub fn open(dir: impl AsRef<Path>, num_segments: usize) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::storage("create database directory", e))?;
        let manifest = persist::read_manifest(dir)?;
        let wal_file = persist::wal_path(dir);
        let wal_epoch = wal::read_epoch(&wal_file)?;

        let db_segments = manifest
            .as_ref()
            .map_or(num_segments, |m| m.num_segments as usize);
        let mut db = Self::new(db_segments)?;

        // Rebuild tables from the snapshot.
        let mut persist_tables = HashMap::new();
        let mut next_file_id = 1;
        if let Some(m) = &manifest {
            next_file_id = m.next_file_id;
            for t in &m.tables {
                let mut segments = Vec::with_capacity(t.segments.len());
                for (seg, ms) in t.segments.iter().enumerate() {
                    segments.push(persist::recover_segment(dir, t.file_id, seg, ms)?);
                }
                let mut table = Table::from_recovered(
                    t.schema.clone(),
                    segments,
                    t.distribution.clone(),
                    t.next_round_robin as usize,
                    t.chunk_capacity as usize,
                );
                table.set_generation(db.next_generation());
                persist_tables.insert(
                    t.name.clone(),
                    TablePersist {
                        file_id: t.file_id,
                        generation: table.generation(),
                        persisted: t.segments.iter().map(|s| s.persisted_chunks).collect(),
                    },
                );
                db.write().insert(
                    t.name.clone(),
                    CatalogEntry {
                        table: Arc::new(RwLock::new(table)),
                        is_temp: false,
                    },
                );
            }
        }

        // Decide the replay range from the (manifest, WAL-header) epoch pair
        // — see `crate::persist` for why exactly two epochs are acceptable —
        // then replay the committed tail and resume (or recreate) the log.
        let (records, wal) = match (&manifest, wal_epoch) {
            // Fresh directory: record the segment count durably before the
            // WAL exists.
            (None, None) => {
                persist::write_manifest(
                    dir,
                    &Manifest {
                        epoch: 0,
                        wal_offset: WAL_HEADER_LEN,
                        num_segments: db_segments as u64,
                        next_file_id: 1,
                        tables: Vec::new(),
                    },
                )?;
                (Vec::new(), Wal::create(&wal_file, 1)?)
            }
            // A log without a manifest: nothing was ever checkpointed (the
            // manifest this directory was initialized with is gone); replay
            // everything the log holds.
            (None, Some(epoch)) => {
                let scan = wal::scan(&wal_file, None)?;
                (scan.records, Wal::resume(&wal_file, epoch, scan.valid_len)?)
            }
            // Manifest but no usable log: the crash hit between manifest
            // install and WAL reset — or the header itself was corrupted, in
            // which case nothing in the file can be trusted.  Snapshot-only
            // recovery with a fresh log at the successor epoch.
            (Some(m), None) => (Vec::new(), Wal::create(&wal_file, m.epoch + 1)?),
            // Checkpoint manifest installed, WAL not yet reset: replay from
            // the recorded offset.
            (Some(m), Some(epoch)) if epoch == m.epoch => {
                let scan = wal::scan(&wal_file, Some(m.wal_offset))?;
                (scan.records, Wal::resume(&wal_file, epoch, scan.valid_len)?)
            }
            // Post-reset log: replay it in full.
            (Some(m), Some(epoch)) if epoch == m.epoch + 1 => {
                let scan = wal::scan(&wal_file, None)?;
                (scan.records, Wal::resume(&wal_file, epoch, scan.valid_len)?)
            }
            (Some(m), Some(epoch)) => {
                return Err(EngineError::Storage {
                    message: format!(
                        "wal epoch {epoch} matches neither manifest epoch {} nor its successor",
                        m.epoch
                    ),
                });
            }
        };
        for payload in &records {
            db.apply_recovered(persist::decode_record(payload)?)?;
        }

        db.durability = Some(Arc::new(Durability {
            dir: dir.to_path_buf(),
            wal,
            gate: RwLock::new(()),
            persist: Mutex::new(PersistState {
                next_file_id,
                tables: persist_tables,
            }),
        }));
        Ok(db)
    }

    /// Recovers an **existing** durable database from `dir`, refusing to
    /// create one: the directory must hold a manifest (every
    /// [`Database::open`] installs one before its first WAL write).
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] when no database exists at `dir`, and
    /// everything [`Database::open`] can return otherwise.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        if persist::read_manifest(dir)?.is_none() {
            return Err(EngineError::Storage {
                message: format!("no database at {}: missing manifest", dir.display()),
            });
        }
        Self::open(dir, 1)
    }

    /// Applies one replayed WAL record to in-memory state.  Recovery only:
    /// durability is not attached yet, so nothing is re-logged.  Mutations of
    /// tables a (corrupt or partially-replayed) log never created are
    /// skipped rather than failed — the committed prefix is what matters.
    fn apply_recovered(&self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable {
                name,
                schema,
                distribution,
                chunk_capacity,
            } => {
                let mut table = Table::with_distribution(schema, self.num_segments, distribution)?
                    .with_chunk_capacity(chunk_capacity as usize)?;
                table.set_generation(self.next_generation());
                self.write().insert(
                    name,
                    CatalogEntry {
                        table: Arc::new(RwLock::new(table)),
                        is_temp: false,
                    },
                );
            }
            WalRecord::DropTable { name } => {
                self.write().remove(&name);
            }
            WalRecord::Append { table, rows } => {
                if let Ok(handle) = self.entry(&table) {
                    let mut guard = write_lock(&handle);
                    for values in rows {
                        guard.insert(Row::new(values))?;
                    }
                }
            }
            WalRecord::Truncate { table } => {
                if let Ok(handle) = self.entry(&table) {
                    let mut guard = write_lock(&handle);
                    guard.truncate();
                    guard.set_generation(self.next_generation());
                }
            }
            WalRecord::PutTable {
                name,
                schema,
                distribution,
                chunk_capacity,
                next_round_robin,
                segments,
            } => {
                let mut table =
                    Table::with_distribution(schema, segments.len().max(1), distribution)?
                        .with_chunk_capacity(chunk_capacity as usize)?;
                for (seg, rows) in segments.into_iter().enumerate() {
                    for values in rows {
                        table.insert_into_segment(seg, Row::new(values))?;
                    }
                }
                table.set_next_round_robin(next_round_robin as usize);
                table.set_generation(self.next_generation());
                self.write().insert(
                    name,
                    CatalogEntry {
                        table: Arc::new(RwLock::new(table)),
                        is_temp: false,
                    },
                );
            }
        }
        Ok(())
    }

    /// Writes a checkpoint: flushes the WAL, appends every newly sealed
    /// chunk to its segment's snapshot file (each sealed chunk is written
    /// exactly once across the database's lifetime), installs a manifest
    /// describing the result, and resets the WAL to a fresh epoch.  Logged
    /// mutations are excluded for the duration via the commit gate; pure
    /// reads proceed.  Returns the number of chunks newly written.
    ///
    /// A chunk is treated as sealed only once a successor chunk exists: the
    /// last chunk of each segment — even a full one — stays inline in the
    /// manifest, because only a successor proves it immutable and the
    /// snapshot files are strictly append-only.
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] on a non-durable database or on I/O
    /// failure.
    pub fn checkpoint(&self) -> Result<usize> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| EngineError::Storage {
                message: "checkpoint on a non-durable database".to_owned(),
            })?;
        let _gate = write_lock(&d.gate);
        d.wal.flush_all()?;
        let epoch = d.wal.epoch();
        let wal_offset = d.wal.durable_len();

        // Snapshot every non-temp table under its read lock, sorted for a
        // deterministic manifest.  Snapshots are cheap: sealed chunks are
        // shared by `Arc`.
        let snapshots: Vec<(String, Table)> = {
            let catalog = self.read();
            let mut v: Vec<(String, Table)> = catalog
                .iter()
                .filter(|(_, e)| !e.is_temp)
                .map(|(name, e)| (name.clone(), read_lock(&e.table).clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };

        let mut state = d.persist.lock().unwrap_or_else(|e| e.into_inner());
        // Chunk files are deleted only *after* the new manifest is
        // installed: the old manifest may still reference them, and a crash
        // before install must recover from it.
        let mut obsolete: Vec<(u64, usize)> = Vec::new();
        let live: std::collections::HashSet<&str> =
            snapshots.iter().map(|(n, _)| n.as_str()).collect();
        let dead: Vec<String> = state
            .tables
            .keys()
            .filter(|k| !live.contains(k.as_str()))
            .cloned()
            .collect();
        for name in dead {
            if let Some(tp) = state.tables.remove(&name) {
                obsolete.push((tp.file_id, tp.persisted.len()));
            }
        }

        let mut written = 0;
        let mut manifest_tables = Vec::with_capacity(snapshots.len());
        for (name, table) in &snapshots {
            let generation = table.generation();
            let num_segs = table.num_segments();
            let fresh_file = match state.tables.get(name) {
                Some(tp) => tp.generation != generation || tp.persisted.len() != num_segs,
                None => true,
            };
            if fresh_file {
                // New table, or its contents were replaced/truncated since
                // the last checkpoint: the persisted prefix no longer
                // describes it, so start a fresh chunk file.
                if let Some(old) = state.tables.remove(name) {
                    obsolete.push((old.file_id, old.persisted.len()));
                }
                let file_id = state.next_file_id;
                state.next_file_id += 1;
                state.tables.insert(
                    name.clone(),
                    TablePersist {
                        file_id,
                        generation,
                        persisted: vec![0; num_segs],
                    },
                );
            }
            let tp = state.tables.get_mut(name).expect("entry just ensured");
            let mut seg_manifests = Vec::with_capacity(num_segs);
            for seg in 0..num_segs {
                let chunks = table.segment(seg).chunks();
                let sealed = chunks.len().saturating_sub(1);
                let already = tp.persisted[seg] as usize;
                if sealed > already {
                    persist::append_chunks(
                        &persist::chunk_path(&d.dir, tp.file_id, seg),
                        &chunks[already..sealed],
                    )?;
                    written += sealed - already;
                    tp.persisted[seg] = sealed as u64;
                }
                seg_manifests.push(ManifestSegment {
                    persisted_chunks: sealed as u64,
                    tail: chunks.last().map(|c| (**c).clone()),
                });
            }
            manifest_tables.push(ManifestTable {
                name: name.clone(),
                file_id: tp.file_id,
                schema: table.schema().clone(),
                distribution: table.distribution().clone(),
                chunk_capacity: table.chunk_capacity() as u64,
                next_round_robin: table.next_round_robin() as u64,
                segments: seg_manifests,
            });
        }

        persist::write_manifest(
            &d.dir,
            &Manifest {
                epoch,
                wal_offset,
                num_segments: self.num_segments as u64,
                next_file_id: state.next_file_id,
                tables: manifest_tables,
            },
        )?;
        for (file_id, num_segs) in obsolete {
            persist::delete_chunk_files(&d.dir, file_id, num_segs);
        }
        d.wal.reset(epoch + 1)?;
        Ok(written)
    }

    /// Whether this database is backed by a durable directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The backing directory of a durable database.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Bytes of write-ahead log durably on disk (header included); `None`
    /// when not durable.  Useful to tests and benchmarks that crash-inject
    /// at byte offsets or measure recovery time against WAL length.
    pub fn wal_durable_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.durable_len())
    }

    /// Enables or disables group commit (enabled by default).  Disabled,
    /// every committer pays its own fsync — the baseline the durability
    /// benchmark compares against.  No-op on a non-durable database.
    pub fn set_group_commit(&self, enabled: bool) {
        if let Some(d) = &self.durability {
            d.wal.set_group_commit(enabled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ])
    }

    #[test]
    fn create_insert_read() {
        let db = Database::new(4).unwrap();
        db.create_table("data", schema()).unwrap();
        assert!(db.has_table("data"));
        db.with_table_mut("data", |t| {
            t.insert(row![1i64, 2.0])?;
            t.insert(row![2i64, 3.0])
        })
        .unwrap();
        let t = db.table("data").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.num_segments(), 4);
        assert_eq!(db.num_segments(), 4);
    }

    #[test]
    fn duplicate_and_missing_names() {
        let db = Database::new(2).unwrap();
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("t", schema()),
            Err(EngineError::TableAlreadyExists { .. })
        ));
        assert!(matches!(
            db.table("missing"),
            Err(EngineError::TableNotFound { .. })
        ));
        assert!(db.drop_table("missing").is_err());
        assert!(db.with_table_mut("missing", |_| Ok(())).is_err());
        assert!(db
            .replace_table("missing", Table::new(schema(), 1).unwrap())
            .is_err());
        assert!(Database::new(0).is_err());
    }

    #[test]
    fn temp_tables_are_dropped_together() {
        let db = Database::new(2).unwrap();
        db.create_table("keep", schema()).unwrap();
        db.create_temp_table("iter_state_1", schema()).unwrap();
        db.create_temp_table("iter_state_2", schema()).unwrap();
        assert_eq!(db.list_tables().len(), 3);
        assert_eq!(db.drop_temp_tables(), 2);
        assert!(db.has_table("keep"));
        assert!(!db.has_table("iter_state_1"));
    }

    #[test]
    fn register_and_replace() {
        let db = Database::new(3).unwrap();
        let mut t = Table::new(schema(), 3).unwrap();
        t.insert(row![1i64, 1.0]).unwrap();
        db.register_table("snapshot", t.clone()).unwrap();
        assert!(db.register_table("snapshot", t).is_err());
        assert_eq!(db.table("snapshot").unwrap().row_count(), 1);

        let replacement = Table::new(schema(), 3).unwrap();
        db.replace_table("snapshot", replacement).unwrap();
        assert_eq!(db.table("snapshot").unwrap().row_count(), 0);
    }

    #[test]
    fn list_tables_sorted_with_temp_flag() {
        let db = Database::new(1).unwrap();
        db.create_table("zeta", schema()).unwrap();
        db.create_temp_table("alpha", schema()).unwrap();
        let listing = db.list_tables();
        assert_eq!(listing[0], ("alpha".to_owned(), true));
        assert_eq!(listing[1], ("zeta".to_owned(), false));
    }

    #[test]
    fn database_is_cheaply_cloneable_and_shared() {
        let db = Database::new(2).unwrap();
        db.create_table("shared", schema()).unwrap();
        let db2 = db.clone();
        db2.with_table_mut("shared", |t| t.insert(row![1i64, 1.0]))
            .unwrap();
        assert_eq!(db.table("shared").unwrap().row_count(), 1);
    }

    /// Snapshots share sealed chunk buffers with the cataloged table by
    /// pointer identity — no copy — while the open tail chunk is
    /// copy-on-write: appending after the snapshot un-shares only the tail.
    #[test]
    fn snapshot_shares_sealed_chunks_by_pointer() {
        let db = Database::new(1).unwrap();
        let mut t = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(4)
            .unwrap();
        for i in 0..10 {
            t.insert(row![i as i64, i as f64]).unwrap();
        }
        db.register_table("data", t).unwrap();

        let snap = db.table("data").unwrap();
        let live = db.table("data").unwrap();
        // 10 rows at capacity 4 → chunks of 4, 4, 2: two sealed + open tail.
        let a = snap.segment(0).chunks();
        let b = live.segment(0).chunks();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(Arc::ptr_eq(x, y), "snapshot must share chunk buffers");
        }

        // An append after the snapshot is invisible to it and un-shares
        // only the tail chunk.
        db.with_table_mut("data", |t| t.insert(row![99i64, 99.0]))
            .unwrap();
        assert_eq!(snap.row_count(), 10);
        let after = db.table("data").unwrap();
        let c = after.segment(0).chunks();
        assert!(Arc::ptr_eq(&a[0], &c[0]));
        assert!(Arc::ptr_eq(&a[1], &c[1]));
        assert!(
            !Arc::ptr_eq(&a[2], &c[2]),
            "tail chunk must be copy-on-write"
        );
        assert_eq!(a[2].len(), 2);
        assert_eq!(c[2].len(), 3);
    }

    /// A long-running mutation of table A must not block a snapshot read of
    /// unrelated table B (per-table locks, not a catalog-wide write lock).
    #[test]
    fn append_to_one_table_does_not_block_scans_of_another() {
        use std::sync::mpsc;
        use std::time::Duration;

        let db = Database::new(2).unwrap();
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.with_table_mut("b", |t| t.insert(row![1i64, 1.0]))
            .unwrap();

        // Holds table A's write lock until told to release.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let db_writer = db.clone();
        let writer = std::thread::spawn(move || {
            db_writer
                .with_table_mut("a", |t| {
                    entered_tx.send(()).unwrap();
                    release_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("released");
                    t.insert(row![2i64, 2.0])
                })
                .unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("writer entered closure");

        // With table A mid-append, a scan of table B must complete.
        let (scanned_tx, scanned_rx) = mpsc::channel();
        let db_reader = db.clone();
        let reader = std::thread::spawn(move || {
            let rows = db_reader.table("b").unwrap().row_count();
            scanned_tx.send(rows).unwrap();
        });
        let rows = scanned_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("scan of b must not wait on a's append");
        assert_eq!(rows, 1);
        reader.join().unwrap();

        release_tx.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(db.table("a").unwrap().row_count(), 1);
    }

    /// The unique-temp-table counter is monotonic: names never repeat, a
    /// same-named regular table is never shadowed, and concurrent callers
    /// (the shape of parallel per-group IRLS fits sharing a state base name)
    /// all receive distinct tables.
    #[test]
    fn unique_temp_tables_under_concurrency() {
        let db = Database::new(1).unwrap();
        db.create_table("iter_state", schema()).unwrap();

        let names: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let db = db.clone();
                    scope.spawn(move || {
                        (0..16)
                            .map(|_| db.create_unique_temp_table("iter_state", schema()).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut unique: std::collections::HashSet<&str> =
            names.iter().map(String::as_str).collect();
        assert_eq!(unique.len(), names.len(), "temp names must be distinct");
        unique.insert("iter_state");
        assert_eq!(unique.len(), names.len() + 1, "base name never reused");
        // Dropping the temps leaves the regular table untouched.
        assert_eq!(db.drop_temp_tables(), names.len());
        assert!(db.has_table("iter_state"));
    }

    use crate::aggregate::{Aggregate, CountAggregate, SumAggregate};
    use crate::chunk::RowChunk;
    use crate::executor::Executor;
    use crate::group::GroupKey;
    use crate::materialize::MaterializedAggregate;

    fn count_view(db: &Database) -> MaterializedAggregate<CountAggregate> {
        let _ = db;
        MaterializedAggregate::new(CountAggregate, &Executor::new())
    }

    fn finalize_count(db: &Database, view: &str) -> Result<u64> {
        db.refresh_view(view, |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<CountAggregate>>()
                .expect("count view")
                .finalize()
        })
    }

    fn sum_view() -> MaterializedAggregate<SumAggregate> {
        MaterializedAggregate::new(SumAggregate::new("v"), &Executor::new())
    }

    fn finalize_sum(db: &Database, view: &str) -> Result<f64> {
        db.refresh_view(view, |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<SumAggregate>>()
                .expect("sum view")
                .finalize()
        })
    }

    /// Dropping a table and recreating the same name with **at least as many
    /// chunks** used to make views fold the new table's suffix onto the old
    /// table's partial states: the watermark's chunk counts still "fit", so
    /// shrink detection alone cannot tell the incarnations apart (a count
    /// view would even return the right number by accident — the sum exposes
    /// the fold of new-suffix values onto old partial states).  The
    /// generation check must force a rebuild instead.
    #[test]
    fn view_rebuilds_after_drop_and_recreate_same_name() {
        let db = Database::new(1).unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (0..4).map(|i| row![i, i as f64]))
            .unwrap();
        db.register_view("v_sum", "events", Box::new(sum_view()))
            .unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 6.0);

        // Recreate under the same name with MORE rows (and thus ≥ chunks)
        // and different values.
        db.drop_table("events").unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (10..16).map(|i| row![i, i as f64]))
            .unwrap();
        assert_eq!(
            finalize_sum(&db, "v_sum").unwrap(),
            75.0,
            "view must rebuild against the new incarnation, not fold its \
             suffix onto the old table's partial sums"
        );
    }

    /// `replace_table` with equal or greater chunk counts is the same trap:
    /// the replacement's fresh generation must trigger a rebuild.
    #[test]
    fn view_rebuilds_after_replace_with_equal_or_more_chunks() {
        let db = Database::new(1).unwrap();
        db.create_table_with_chunk_capacity("events", schema(), 2)
            .unwrap();
        db.append_rows("events", (0..4).map(|i| row![i, i as f64]))
            .unwrap();
        db.register_view("v_sum", "events", Box::new(sum_view()))
            .unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 6.0);

        // Equal chunk layout (same row count), different contents: nothing
        // sits past the watermark, so a stale view would keep the old sum.
        let mut equal = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(2)
            .unwrap();
        for i in 100..104 {
            equal.insert(row![i, i as f64]).unwrap();
        }
        db.replace_table("events", equal).unwrap();
        assert_eq!(
            finalize_sum(&db, "v_sum").unwrap(),
            406.0,
            "equal-layout replacement must rebuild, not keep the stale sum"
        );

        // Greater chunk count.
        let mut bigger = Table::new(schema(), 1)
            .unwrap()
            .with_chunk_capacity(2)
            .unwrap();
        for i in 0..10 {
            bigger.insert(row![i, i as f64]).unwrap();
        }
        db.replace_table("events", bigger).unwrap();
        assert_eq!(finalize_sum(&db, "v_sum").unwrap(), 45.0);
    }

    /// `truncate_table` bumps the generation too.
    #[test]
    fn view_rebuilds_after_truncate_table() {
        let db = Database::new(2).unwrap();
        db.create_table("events", schema()).unwrap();
        db.append_rows("events", (0..5).map(|i| row![i as i64, i as f64]))
            .unwrap();
        db.register_view("n", "events", Box::new(count_view(&db)))
            .unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 5);
        db.truncate_table("events").unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 0);
        db.append_rows("events", (0..3).map(|i| row![i as i64, i as f64]))
            .unwrap();
        assert_eq!(finalize_count(&db, "n").unwrap(), 3);
    }

    /// A counting aggregate that refuses rows whose `v` equals the poison
    /// value — the deliberately failing view of the append-rows contract.
    #[derive(Clone)]
    struct PoisonAggregate;

    impl Aggregate for PoisonAggregate {
        type State = u64;
        type Output = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn transition(&self, state: &mut u64, row: &Row, schema: &Schema) -> Result<()> {
            let idx = schema.index_of("v")?;
            if row.get(idx) == &crate::value::Value::Double(13.0) {
                return Err(EngineError::invalid("poison row"));
            }
            *state += 1;
            Ok(())
        }

        fn transition_chunk(
            &self,
            state: &mut u64,
            chunk: &RowChunk,
            schema: &Schema,
        ) -> Result<()> {
            crate::aggregate::transition_chunk_by_rows(self, state, chunk, schema)
        }

        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }

        fn finalize(&self, state: u64) -> Result<u64> {
            Ok(state)
        }
    }

    /// When a view fails to absorb an append, the insert must stay
    /// committed, the *other* views must still absorb, the failing view must
    /// be marked for rebuild, and the typed error must name it.  The grouped
    /// input appends 300 distinct keys in one chunk, so the grouped view
    /// stages them in radix buckets and the poison row fails inside a bucket
    /// flush; once the poison row is replaced away, the rebuilt view must
    /// equal a from-scratch scan — no staged row survives the failed absorb.
    #[test]
    fn append_commits_despite_failing_view_and_names_it() {
        for grouped in [false, true] {
            let db = Database::new(1).unwrap();
            db.create_table("events", schema()).unwrap();
            let poison = MaterializedAggregate::new(PoisonAggregate, &Executor::new());
            let poison = if grouped {
                poison.with_group_columns(["id"])
            } else {
                poison
            };
            db.register_view("flaky", "events", Box::new(poison))
                .unwrap();
            db.register_view("solid", "events", Box::new(count_view(&db)))
                .unwrap();

            db.append_rows("events", [row![1i64, 1.0]]).unwrap();
            let appended: i64 = if grouped { 300 } else { 2 };
            let rows = |poisoned: bool| {
                (2..appended + 2).filter_map(move |id| match id {
                    2 if poisoned => Some(row![id, 13.0]),
                    2 => None,
                    _ => Some(row![id, id as f64 + 0.5]),
                })
            };
            let err = db.append_rows("events", rows(true)).unwrap_err();
            match &err {
                EngineError::ViewAbsorbFailed { table, failures } => {
                    assert_eq!(table, "events");
                    assert_eq!(failures.len(), 1);
                    assert_eq!(failures[0].0, "flaky");
                }
                other => panic!("expected ViewAbsorbFailed, got {other:?}"),
            }
            let total = 1 + appended as usize;
            // The insert committed despite the view failure...
            assert_eq!(db.table("events").unwrap().row_count(), total);
            // ...the healthy view absorbed the rows...
            assert_eq!(finalize_count(&db, "solid").unwrap(), total as u64);
            // ...and the failing view is flagged for rebuild.
            {
                let views = read_lock(&db.views);
                let guard = views["flaky"].state.lock().unwrap();
                let view = guard
                    .as_any()
                    .downcast_ref::<MaterializedAggregate<PoisonAggregate>>()
                    .expect("poison view");
                assert!(view.needs_rebuild());
            }
            // Refreshing it restarts from scratch and hits the poison row again.
            db.refresh_view("flaky", |_| Ok(())).unwrap_err();

            // Without the poison row the rebuild matches a from-scratch scan.
            let mut clean = Table::new(schema(), 1).unwrap();
            clean.insert(row![1i64, 1.0]).unwrap();
            clean.insert_all(rows(false)).unwrap();
            db.replace_table("events", clean).unwrap();
            let scratch = db.dataset("events").unwrap();
            let finalize = |state: &mut dyn AnyMaterialized| {
                let view = state
                    .as_any_mut()
                    .downcast_mut::<MaterializedAggregate<PoisonAggregate>>()
                    .expect("poison view");
                if grouped {
                    view.finalize_grouped()
                } else {
                    Ok(vec![(GroupKey::from_value(&Value::Null), view.finalize()?)])
                }
            };
            let expected = if grouped {
                scratch
                    .group_by(["id"])
                    .aggregate_per_group(&PoisonAggregate)
                    .unwrap()
            } else {
                let count = scratch.aggregate(&PoisonAggregate).unwrap();
                vec![(GroupKey::from_value(&Value::Null), count)]
            };
            assert_eq!(expected.len(), if grouped { total - 1 } else { 1 });
            assert_eq!(db.refresh_view("flaky", finalize).unwrap(), expected);
        }
    }
}

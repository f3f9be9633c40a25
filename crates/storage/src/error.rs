//! Error types shared by every layer of the storage manager.

use std::fmt;

use crate::types::{Key, TableId, TxnId};

/// Errors produced by the storage manager and surfaced to both execution
/// engines (conventional and DORA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested table does not exist in the catalog.
    UnknownTable(TableId),
    /// The requested table name does not exist in the catalog.
    UnknownTableName(String),
    /// The requested index does not exist.
    UnknownIndex(u32),
    /// A tuple did not match the table schema (arity or type mismatch).
    SchemaMismatch(String),
    /// A unique-key constraint (primary key or unique index) was violated.
    DuplicateKey(String),
    /// The requested record was not found.
    NotFound,
    /// The transaction was chosen as a deadlock victim by the centralized
    /// lock manager and must abort.
    Deadlock(TxnId),
    /// A lock request timed out while waiting in the centralized lock
    /// manager.
    LockTimeout(TxnId),
    /// The transaction was already terminated (committed or aborted).
    TxnNotActive(TxnId),
    /// The transaction was aborted by user or system request.
    Aborted(String),
    /// A validated (versioned) read could not produce a consistent
    /// snapshot within its retry budget: a record's last writer is still
    /// in flight (active, or aborted but not yet rolled back), or its
    /// version word kept moving. Carries the conflicting record so the
    /// DORA executor can park the reader on the key's owning partition.
    ReadUncommitted {
        /// Table of the conflicting record.
        table: TableId,
        /// Primary key of the conflicting record.
        key: Key,
        /// The in-flight transaction stamped on the record.
        writer: TxnId,
    },
    /// A page had no room for the record and the operation cannot proceed.
    PageFull,
    /// The buffer pool could not find an evictable frame: every frame
    /// stayed pinned for the whole of the pool's bounded wait (a pool
    /// smaller than the number of threads mid-page-access). Nothing was
    /// changed and pins are transient, so the transaction is safe to
    /// abort and retry.
    BufferPoolFull,
    /// A page-store I/O operation failed (read, write, or checkpoint
    /// fsync of the data file). The page's buffered copy is left intact
    /// and dirty, so the operation may be retried; recovery can always
    /// rebuild lost page writes from the log.
    PageIo(String),
    /// The write-ahead log or recovery subsystem found corrupt data.
    LogCorrupt(String),
    /// A transient log I/O failure: the failed step wrote nothing (e.g.
    /// creating the next segment file returned `ENOSPC`), so the log's
    /// on-disk state is unchanged and the commit may be retried once the
    /// condition clears.
    LogIo(String),
    /// The log hit an I/O failure after bytes may already have reached the
    /// file (a short/torn write mid-record, or a failed fsync over dirty
    /// pages the kernel may have dropped). The log is permanently
    /// poisoned: every subsequent `force` fails with this error rather
    /// than silently retrying over possibly-lost data. Read-only traffic
    /// is unaffected.
    LogPoisoned(String),
    /// The partition worker that owned part of the transaction's data
    /// died (panic, chaos kill) before the transaction could finish, or
    /// the supervisor reaped the transaction while rebuilding the dead
    /// worker's volatile state. The transaction's effects were rolled
    /// back and the partition is being respawned, so the request is
    /// safe — and expected — to retry. Distinct from a generic timeout so
    /// clients can account infrastructure aborts separately from
    /// workload-inherent conflicts.
    WorkerUnavailable(String),
    /// Catch-all for internal invariant violations.
    Internal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table id {t}"),
            StorageError::UnknownTableName(n) => write!(f, "unknown table '{n}'"),
            StorageError::UnknownIndex(i) => write!(f, "unknown index id {i}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            StorageError::NotFound => write!(f, "record not found"),
            StorageError::Deadlock(t) => write!(f, "transaction {t} chosen as deadlock victim"),
            StorageError::LockTimeout(t) => {
                write!(f, "transaction {t} timed out waiting for a lock")
            }
            StorageError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            StorageError::Aborted(m) => write!(f, "transaction aborted: {m}"),
            StorageError::ReadUncommitted { table, key, writer } => write!(
                f,
                "validated read of table {table} key {key:?} observed uncommitted \
                 state of transaction {writer}"
            ),
            StorageError::PageFull => write!(f, "page full"),
            StorageError::BufferPoolFull => {
                write!(f, "buffer pool full: every frame pinned (retryable)")
            }
            StorageError::PageIo(m) => write!(f, "page store I/O failure: {m}"),
            StorageError::LogCorrupt(m) => write!(f, "log corrupt: {m}"),
            StorageError::LogIo(m) => write!(f, "log I/O failure (retryable): {m}"),
            StorageError::LogPoisoned(m) => write!(f, "log poisoned by I/O failure: {m}"),
            StorageError::WorkerUnavailable(m) => {
                write!(f, "partition worker unavailable (retryable): {m}")
            }
            StorageError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias used across the workspace.
pub type StorageResult<T> = Result<T, StorageError>;

impl StorageError {
    /// Returns `true` when the error is one the execution engine should
    /// respond to by aborting and retrying the transaction (deadlock, lock
    /// timeout, a validated read blocked on an in-flight writer, a
    /// transient log I/O failure that wrote nothing, a partition worker
    /// that died mid-flight and is being respawned, or a buffer pool
    /// whose every frame stayed pinned), as opposed to
    /// a genuine application error, an application-requested abort, or a
    /// poisoned log (which no retry can fix).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            StorageError::Deadlock(_)
                | StorageError::LockTimeout(_)
                | StorageError::ReadUncommitted { .. }
                | StorageError::LogIo(_)
                | StorageError::WorkerUnavailable(_)
                | StorageError::BufferPoolFull
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = StorageError::Deadlock(7);
        assert!(e.to_string().contains("deadlock"));
        let e = StorageError::UnknownTableName("warehouse".into());
        assert!(e.to_string().contains("warehouse"));
    }

    #[test]
    fn retryable_classification() {
        assert!(StorageError::Deadlock(1).is_retryable());
        assert!(StorageError::LockTimeout(1).is_retryable());
        assert!(StorageError::ReadUncommitted {
            table: 1,
            key: vec![],
            writer: 2
        }
        .is_retryable());
        assert!(StorageError::LogIo("segment create: ENOSPC".into()).is_retryable());
        assert!(StorageError::WorkerUnavailable("partition 3 respawning".into()).is_retryable());
        assert!(StorageError::BufferPoolFull.is_retryable());
        assert!(!StorageError::LogPoisoned("fsync failed".into()).is_retryable());
        assert!(!StorageError::Aborted("x".into()).is_retryable());
        assert!(!StorageError::NotFound.is_retryable());
        assert!(!StorageError::PageFull.is_retryable());
    }
}

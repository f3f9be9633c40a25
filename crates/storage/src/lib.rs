//! # dora-storage
//!
//! A Shore-MT-like storage manager substrate for the DORA reproduction:
//! slotted pages, a buffer pool, heap files, B+-tree access methods, a
//! centralized hierarchical lock manager, a write-ahead log with recovery,
//! and a transaction manager, all behind the [`db::Database`] facade.
//!
//! Both execution engines of the workspace share this substrate, exactly as
//! the paper's conventional baseline and the DORA prototype share Shore-MT:
//!
//! * `dora-engine-conv` — the conventional thread-to-transaction engine,
//!   which acquires hierarchical locks through [`lock::LockManager`]
//!   (`LockingPolicy::Centralized`).
//! * `dora-core` — the data-oriented engine, which bypasses the centralized
//!   lock manager (`LockingPolicy::Bypass`) because isolation is enforced by
//!   per-partition local lock tables.
//!
//! ```
//! use dora_storage::db::{Database, LockingPolicy};
//! use dora_storage::schema::{ColumnDef, TableSchema};
//! use dora_storage::types::{DataType, Value};
//!
//! let db = Database::default();
//! let table = db
//!     .create_table(TableSchema::new(
//!         "kv",
//!         vec![
//!             ColumnDef::new("k", DataType::BigInt),
//!             ColumnDef::new("v", DataType::Varchar(32)),
//!         ],
//!         vec![0],
//!     ))
//!     .unwrap();
//! let txn = db.begin();
//! db.insert(txn, table, vec![Value::BigInt(1), Value::Varchar("one".into())],
//!           LockingPolicy::Centralized).unwrap();
//! let row = db.get(txn, table, &[Value::BigInt(1)], LockingPolicy::Centralized)
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(row[1], Value::Varchar("one".into()));
//! db.commit(txn).unwrap();
//! ```

#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod db;
pub mod error;
pub mod heap;
pub mod io;
pub mod lock;
mod normkey;
pub mod page;
pub mod recovery;
pub mod schema;
pub mod segment;
pub mod trace;
pub mod tuple;
pub mod txn;
pub mod types;
pub mod version;
pub mod wal;

pub use db::{Database, DatabaseConfig, LockingPolicy};
pub use error::{StorageError, StorageResult};
pub use schema::{Catalog, ColumnDef, TableSchema};
pub use types::{DataType, Key, RecordId, TableId, TxnId, Value};

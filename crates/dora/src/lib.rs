//! # dora-core
//!
//! The **data-oriented** (thread-to-data) execution engine of the paper:
//! instead of assigning each transaction to a thread that then touches
//! arbitrary data (the conventional model in `dora-engine-conv`), DORA
//! assigns each *thread* to a logical partition of the data and decomposes
//! every transaction into partition-local **actions** that are shipped to
//! the threads owning the data they touch.
//!
//! The crate is organized around the paper's vocabulary (see
//! `docs/architecture.md` for the full layered walkthrough):
//!
//! * [`routing`] — logical partitioning: one [`routing::RoutingRule`] per
//!   table maps routing-key ranges to owning worker threads; the
//!   [`routing::RoutingTable`] is the complete, cheaply mutable
//!   configuration.
//! * [`action`] — transaction decomposition: [`action::ActionSpec`]s carry
//!   a closure plus the routing keys it touches, and an
//!   [`action::FlowGraph`] strings phases of actions together with
//!   **rendezvous points** (RVPs) at every data dependency.
//! * [`local_lock`] — the per-partition [`local_lock::LocalLockTable`]:
//!   single-owner, latch-free lock state that replaces the centralized
//!   lock manager's critical sections.
//! * [`dispatcher`] — routes the actions of a phase to their partition
//!   queues and tracks RVP completion.
//! * [`mailbox`] — the lock-free per-partition intake: a bounded MPSC
//!   ring whose capacity *is* the fresh-lane admission bound, an
//!   unbounded priority lane for worker-to-worker messages (drained with
//!   one atomic swap), and yield-then-park waiting.
//! * [`oneshot`] — the lock-free reply cell `submit` hands its client.
//! * [`wait`] — the one wait primitive under both: a state word plus the
//!   waiter's thread handle; waiters poll, yield a bounded number of
//!   times, then park; wakers `unpark` only a waiter that sleeps.
//! * [`executor`] — the [`executor::DoraEngine`]: one worker thread per
//!   partition with a private mailbox, local lock table, and lock-keyed
//!   wait list (parked actions wake only when a key they wait on is
//!   released), executing under [`executor::DORA_POLICY`]
//!   (`LockingPolicy::Bypass`) because isolation is already enforced at
//!   the partition boundary. Later-phase actions ride the mailbox's
//!   priority lane; fresh intake is bounded with back-pressure on
//!   [`executor::DoraEngine::submit`], and each worker coalesces the
//!   cross-partition messages of a drain batch into one send per target.
//!
//! ```
//! use std::sync::Arc;
//! use dora_core::action::{ActionSpec, FlowGraph};
//! use dora_core::executor::{DoraEngine, DoraEngineConfig, DORA_POLICY};
//! use dora_core::routing::{RoutingRule, RoutingTable};
//! use dora_storage::db::Database;
//! use dora_storage::schema::{ColumnDef, TableSchema};
//! use dora_storage::types::{DataType, Value};
//!
//! let db = Arc::new(Database::default());
//! let table = db
//!     .create_table(TableSchema::new(
//!         "kv",
//!         vec![
//!             ColumnDef::new("k", DataType::BigInt),
//!             ColumnDef::new("v", DataType::BigInt),
//!         ],
//!         vec![0],
//!     ))
//!     .unwrap();
//! let mut routing = RoutingTable::new();
//! routing.set_rule(RoutingRule::uniform(table, 0, 0, 99, 2, 2));
//! let engine = DoraEngine::new(db, routing, DoraEngineConfig { workers: 2, ..Default::default() });
//!
//! let outcome = engine.execute(FlowGraph::new(
//!     "insert-one",
//!     vec![ActionSpec::write(table, 7, move |db, txn, _ctx| {
//!         db.insert(txn, table, vec![Value::BigInt(7), Value::BigInt(70)], DORA_POLICY)?;
//!         Ok(vec![])
//!     })],
//! ));
//! assert!(outcome.is_committed());
//! engine.shutdown();
//! ```

#![warn(missing_docs)]

pub mod action;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod dispatcher;
pub mod executor;
pub mod local_lock;
pub mod mailbox;
pub mod oneshot;
pub mod routing;
pub mod wait;
mod wait_list;

pub use action::{ActionSpec, FlowGraph};
pub use executor::{DoraEngine, DoraEngineConfig, DoraStatsSnapshot, TxnOutcome, DORA_POLICY};
pub use local_lock::{LocalLockStats, LocalLockTable, LockClass};
pub use mailbox::Mailbox;
pub use routing::{PartitionId, RoutingRule, RoutingTable};

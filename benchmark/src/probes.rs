//! Layer probes: single-threaded timed loops over each layer's public
//! functions, run on the loaded database once the client passes are over
//! and the engine is idle.
//!
//! Every probe reports the **median over batches of the mean
//! nanoseconds per call**. The conventional child runs the workload- and
//! storage-layer probes, the DORA child the DORA-layer ones; each runs
//! its own engine's serial probe. Probes that commit call-forwarding
//! changes book them in the caller's ledger.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use dora_core::dispatcher::route_phase;
use dora_core::local_lock::{LocalLockTable, LockClass};
use dora_core::mailbox::Mailbox;
use dora_core::oneshot;
use dora_storage::db::LockingPolicy;
use dora_storage::lock::{LockMode, LockTarget};
use dora_storage::segment::{SegmentWriter, WalConfig};
use dora_storage::types::Value;
use dora_storage::wal::{LogManager, LogPayload};
use dora_workloads::tatp::{flow_of, request_of, TatpOp, TatpWorkload};

use crate::engine::{Engine, WORKERS};
use crate::hist::median;
use crate::load::{MixKind, Tally};
use crate::report::Report;

/// How much probing a run does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches per probe (the median is taken over these).
    pub batches: usize,
    /// Calls per batch of a nanosecond-scale probe.
    pub calls: usize,
    /// Transactions per batch of the serial probe.
    pub serial_txns: usize,
}

/// Median over `effort.batches` of `batch(calls)`'s time per call, in
/// nanoseconds. `batch` times its own measured region, so set-up it
/// needs per batch stays outside.
fn per_call_ns(batches: usize, calls: usize, mut batch: impl FnMut(usize) -> Duration) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| batch(calls).as_nanos() as f64 / calls as f64)
        .collect();
    median(&samples)
}

fn timed(calls: usize, mut call: impl FnMut(usize)) -> Duration {
    let start = Instant::now();
    for i in 0..calls {
        call(i);
    }
    start.elapsed()
}

/// Keys scattered over the subscriber range, so a probe does not walk
/// one leaf or one page.
fn scattered_keys(subscribers: i64, n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % subscribers as u64) as i64
        })
        .collect()
}

/// `probe.serial.<engine>_txn_us`: the workload's operations run on this
/// thread with no engine underneath — action bodies plus storage.
pub fn serial<E: Engine>(
    engine: &E,
    mix: MixKind,
    wl: &TatpWorkload,
    effort: Effort,
    tally: &mut Tally,
) -> f64 {
    let mut stream = mix.stream(wl.subscribers, wl.seed ^ 0x5e71a1);
    let ns = per_call_ns(effort.batches, effort.serial_txns, |txns| {
        let ops: Vec<TatpOp> = (0..txns).map(|_| stream.next_op()).collect();
        let start = Instant::now();
        let replies: Vec<_> = ops.iter().map(|op| engine.run_serial(op)).collect();
        let elapsed = start.elapsed();
        for (op, reply) in ops.iter().zip(replies) {
            tally.book(op, reply);
        }
        elapsed
    });
    ns / 1e3
}

/// The DORA-layer probes.
pub fn dora_layers<E: Engine>(engine: &E, wl: &TatpWorkload, effort: Effort, out: &mut Report) {
    let Effort { batches, calls, .. } = effort;
    let tables = engine.tables();
    let keys = scattered_keys(wl.subscribers, calls, wl.seed);
    let routing = wl.routing(tables, WORKERS);

    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            black_box(routing.owner_of(tables.subscriber, black_box(keys[i])));
        })
    });
    out.layer("probe.dora.routing.owner_of_ns", ns, "ns");

    // A two-action phase, the widest first phase TATP has.
    let phase = flow_of(
        tables,
        &TatpOp::UpdateSubscriberData {
            s_id: keys[0],
            bit_1: true,
            data_a: 1,
            sf_type: 1,
        },
        None,
    )
    .first;
    let next_secondary = AtomicUsize::new(0);
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |_| {
            black_box(route_phase(&routing, WORKERS, &next_secondary, black_box(&phase)).ok());
        })
    });
    out.layer("probe.dora.dispatcher.route_phase_ns", ns, "ns");

    let mut locks = LocalLockTable::new();
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            let request = [(tables.subscriber, keys[i], LockClass::Write)];
            black_box(locks.try_acquire(7, &request));
            black_box(locks.release_all(7));
        })
    });
    out.layer("probe.dora.local_lock.acquire_release_ns", ns, "ns");

    let mailbox: Mailbox<u64> = Mailbox::new(1024);
    let far = Instant::now() + Duration::from_secs(3600);
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            mailbox.push_fresh(i as u64, far).ok();
            mailbox.drain_fresh_with(|m| {
                black_box(m);
            });
            mailbox.free_fresh_slot();
        })
    });
    out.layer("probe.dora.mailbox.push_drain_ns", ns, "ns");

    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            let (tx, rx) = oneshot::channel();
            tx.send(i).ok();
            black_box(rx.recv().ok());
        })
    });
    out.layer("probe.dora.oneshot.send_recv_ns", ns, "ns");
}

/// The workload- and storage-layer probes. `wal_dir` is where the
/// WAL probes put their private log when the workload's log is on disk.
pub fn storage_layers<E: Engine>(
    engine: &E,
    mix: MixKind,
    wl: &TatpWorkload,
    effort: Effort,
    wal_dir: Option<&Path>,
    out: &mut Report,
) {
    let Effort { batches, calls, .. } = effort;
    let db = engine.db();
    let tables = engine.tables();
    let keys = scattered_keys(wl.subscribers, calls, wl.seed);
    let key_of = |i: usize| [Value::BigInt(keys[i])];

    let mut stream = mix.stream(wl.subscribers, wl.seed ^ 0x9e0b);
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |_| {
            black_box(stream.next_op());
        })
    });
    out.layer("probe.workloads.next_op_ns", ns, "ns");

    let ops: Vec<TatpOp> = (0..calls).map(|_| stream.next_op()).collect();
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            black_box(flow_of(tables, &ops[i], None));
        })
    });
    out.layer("probe.workloads.flow_of_ns", ns, "ns");
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            black_box(request_of(tables, &ops[i], None));
        })
    });
    out.layer("probe.workloads.request_of_ns", ns, "ns");

    let tree = db
        .primary_tree(tables.subscriber)
        .expect("subscriber table has a primary index");
    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |i| {
            black_box(tree.get_first(&key_of(i)));
        })
    });
    out.layer("probe.storage.btree.get_ns", ns, "ns");

    let policy = LockingPolicy::Bypass;
    let ns = per_call_ns(batches, calls, |n| {
        let txn = db.begin();
        let elapsed = timed(n, |i| {
            black_box(db.get(txn, tables.subscriber, &key_of(i), policy).ok());
        });
        db.commit_policy(txn, policy).expect("commit probe reads");
        elapsed
    });
    out.layer("probe.storage.db.get_ns", ns, "ns");

    let ns = per_call_ns(batches, calls, |n| {
        let txn = db.begin();
        let elapsed = timed(n, |i| {
            let vlr = [(4, Value::BigInt(i as i64))];
            black_box(
                db.update(txn, tables.subscriber, &key_of(i), &vlr, policy)
                    .ok(),
            );
        });
        db.commit_policy(txn, policy).expect("commit probe updates");
        elapsed
    });
    out.layer("probe.storage.db.update_ns", ns, "ns");

    let ns = per_call_ns(batches, calls, |n| {
        timed(n, |_| {
            let txn = db.begin();
            db.commit_policy(txn, policy)
                .expect("commit empty probe txn");
        })
    });
    out.layer("probe.storage.db.begin_commit_ns", ns, "ns");

    let lock_mgr = db.lock_manager();
    let ns = per_call_ns(batches, calls, |n| {
        let txn = db.begin();
        let elapsed = timed(n, |i| {
            let target = LockTarget::Key(tables.subscriber, key_of(i).to_vec());
            lock_mgr.lock(txn, target, LockMode::S).ok();
            lock_mgr.unlock_all(txn);
        });
        db.commit(txn).expect("commit lock probe txn");
        elapsed
    });
    out.layer("probe.storage.lock.lock_unlock_ns", ns, "ns");

    wal(wal_dir, effort, out);
    buffer(engine, effort, out);

    // A checkpoint is milliseconds of work; three are enough for a median.
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            db.checkpoint().expect("probe checkpoint");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.layer("probe.storage.checkpoint_ms", median(&samples), "ms");
}

/// `LogManager::append` and `force` on a log of the probe's own — the
/// database's log must hold nothing but its transactions' records — on
/// disk when the workload's log is.
fn wal(dir: Option<&Path>, effort: Effort, out: &mut Report) {
    let log = LogManager::new();
    if let Some(dir) = dir {
        let cfg = WalConfig::std_fs(dir);
        std::fs::create_dir_all(dir).expect("create probe wal dir");
        log.install_writer(SegmentWriter::new(cfg, 0), 0)
            .expect("attach probe wal writer");
    }
    let record = || LogPayload::Update {
        table: 1,
        key: vec![Value::BigInt(12345)],
        before: vec![Value::BigInt(12345), Value::BigInt(1)],
        after: vec![Value::BigInt(12345), Value::BigInt(2)],
    };
    let ns = per_call_ns(effort.batches, effort.calls, |n| {
        let elapsed = timed(n, |_| {
            black_box(log.append(1, record()));
        });
        log.force(log.last_reserved_lsn()).expect("force probe log");
        elapsed
    });
    out.layer("probe.storage.wal.append_ns", ns, "ns");

    // One record per force: on disk, every call pays a write and an fsync.
    let ns = per_call_ns(effort.batches, 8, |n| {
        let mut forcing = Duration::ZERO;
        for _ in 0..n {
            let lsn = log.append(1, record());
            let start = Instant::now();
            log.force(lsn).expect("force probe log");
            forcing += start.elapsed();
        }
        forcing
    });
    out.layer("probe.storage.wal.force_ns", ns, "ns");
}

/// `HeapFile::get` — pin the page, copy the record out, unpin — split by
/// whether the page was resident. Hits re-read one record; misses come
/// from a strided walk over the records of all four tables, which needs
/// more pages than the pool has only on the larger-than-cache workload
/// (the figure is 0 where nothing missed).
fn buffer<E: Engine>(engine: &E, effort: Effort, out: &mut Report) {
    let db = engine.db();
    let t = engine.tables();
    let handles: Vec<_> = [
        t.subscriber,
        t.access_info,
        t.special_facility,
        t.call_forwarding,
    ]
    .into_iter()
    .map(|table| db.table_handle(table).expect("loaded table exists"))
    .collect();
    let rids: Vec<_> = handles
        .iter()
        .flat_map(|h| {
            h.primary
                .scan_all()
                .into_iter()
                .map(move |(_, rid)| (h, rid))
        })
        .collect();

    let (table, hot) = rids[0];
    let hit_ns = per_call_ns(effort.batches, effort.calls, |n| {
        timed(n, |_| {
            black_box(table.heap.get(hot).ok());
        })
    });
    out.layer("probe.storage.buffer.read_hit_ns", hit_ns, "ns");

    // A stride coprime to the record count visits records — and so pages —
    // in scattered order.
    let stride = 7_919;
    let before = db.buffer_stats();
    let elapsed = timed(effort.calls * 4, |i| {
        let (table, rid) = rids[i * stride % rids.len()];
        black_box(table.heap.get(rid).ok());
    });
    let after = db.buffer_stats();
    let misses = after.misses - before.misses;
    let hits = (after.hits - before.hits) as f64;
    let miss_ns = if misses == 0 {
        0.0
    } else {
        ((elapsed.as_nanos() as f64 - hits * hit_ns) / misses as f64).max(0.0)
    };
    out.layer("probe.storage.buffer.read_miss_ns", miss_ns, "ns");
}

//! Idle-burn guard: waiting must end in a real sleep.
//!
//! Both engines wait by the same policy — poll, a bounded number of
//! `yield_now` polls, then block (`dora_core::wait`, and the
//! `crossbeam-channel` stand-in's `recv`). The yield phase is what makes a
//! busy hand-off cheap; this test holds its other half: it is *bounded*.
//! Each engine runs one transaction, then sits for 300 ms with every kind
//! of waiter it has in the waiting state — an idle partition worker /
//! pool worker, and a client blocked on the reply of a transaction whose
//! body sleeps — and the process may use at most 60 ms of CPU meanwhile.
//! A waiter that kept yielding instead of sleeping would burn a core:
//! ~300 ms.
//!
//! One `#[test]` in this file on purpose: the measurement is the process's
//! CPU time, which a second test running in parallel would pollute.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_workloads::dora_core::action::{ActionSpec, FlowGraph};
use dora_workloads::dora_core::executor::{DoraEngine, DoraEngineConfig};
use dora_workloads::dora_core::routing::{RoutingRule, RoutingTable};
use dora_workloads::dora_engine_conv::{ConvEngine, ConvEngineConfig, TxnRequest};
use dora_workloads::dora_storage::db::Database;
use dora_workloads::dora_storage::schema::{ColumnDef, TableSchema};
use dora_workloads::dora_storage::types::DataType;

const IDLE: Duration = Duration::from_millis(300);
const CPU_BUDGET: Duration = Duration::from_millis(60);

/// User + system CPU time of this process so far (`/proc/self/stat`
/// fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name (field 2) may contain spaces: count from its `)`.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> u64 { fields.next().expect("stat field").parse().expect("ticks") };
    Duration::from_millis((ticks() + ticks()) * 10)
}

/// Runs `idle` — which must take about [`IDLE`] of wall time with every
/// thread waiting — and asserts what CPU the process used meanwhile.
fn assert_idle_is_asleep(engine: &str, idle: impl FnOnce()) {
    let cpu_before = process_cpu();
    let started = Instant::now();
    idle();
    let wall = started.elapsed();
    let cpu = process_cpu() - cpu_before;
    assert!(wall >= IDLE, "{engine}: idled only {wall:?}");
    assert!(
        cpu < CPU_BUDGET,
        "{engine}: {cpu:?} of CPU over {wall:?} of waiting — a waiter is polling, not sleeping"
    );
}

#[test]
fn idle_engines_sleep() {
    let db = Arc::new(Database::default());
    let table = db
        .create_table(TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", DataType::BigInt),
                ColumnDef::new("v", DataType::BigInt),
            ],
            vec![0],
        ))
        .expect("create table");

    // DORA: partition 0's worker sleeps inside the action body, partition
    // 1's worker waits on its mailbox, the client waits on the reply cell.
    let mut routing = RoutingTable::new();
    routing.set_rule(RoutingRule::uniform(table, 0, 0, 99, 2, 2));
    let dora = DoraEngine::new(
        db.clone(),
        routing,
        DoraEngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let nap = |name, time: Duration| {
        FlowGraph::new(
            name,
            vec![ActionSpec::read(table, 1, move |_db, _txn, _ctx| {
                std::thread::sleep(time);
                Ok(vec![])
            })],
        )
    };
    assert!(dora.execute(nap("warm", Duration::ZERO)).is_committed());
    assert_idle_is_asleep("dora", || {
        assert!(dora.execute(nap("nap", IDLE)).is_committed());
    });
    dora.shutdown();

    // Conventional: one pool worker sleeps inside the body, the other
    // waits on the shared queue, the client waits on the reply channel.
    let conv = ConvEngine::new(
        db,
        ConvEngineConfig {
            workers: 2,
            max_retries: 0,
        },
    );
    let nap = |name, time: Duration| {
        TxnRequest::new(name, move |_db, _txn, _ctx| {
            std::thread::sleep(time);
            Ok(())
        })
    };
    assert!(conv.execute(nap("warm", Duration::ZERO)).is_committed());
    assert_idle_is_asleep("conv", || {
        assert!(conv.execute(nap("nap", IDLE)).is_committed());
    });
    conv.shutdown();
}

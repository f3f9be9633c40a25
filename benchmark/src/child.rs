//! One engine's share of a run, executed in a process of its own:
//! set-up (twice over) → saturated pass → idle pass → on per-layer runs,
//! traced pass and probes → correctness audit.
//!
//! Every timing an end-to-end metric is made of is taken in slices with
//! the [yardstick](crate::yardstick) run around them, and reported at
//! nominal box speed: see README.md, "Noise".

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_storage::buffer::{BufferStatsSnapshot, FilePageStore};
use dora_storage::db::{Database, DatabaseConfig};
use dora_storage::io::{SimFs, StdFs};
use dora_storage::lock::LockStatsSnapshot;
use dora_storage::segment::WalConfig;
use dora_storage::txn::TxnStatsSnapshot;
use dora_storage::wal::{LogManager, LogStatsSnapshot};
use dora_workloads::tatp::{TatpTables, TatpWorkload};

use crate::engine::{Engine, EngineCounters, WORKERS};
use crate::hist::{iqr_pct, median};
use crate::load::{run_pass, Budget, MixKind, Pass, PassResult, Tally};
use crate::probes::{self, Effort};
use crate::proc;
use crate::report::Report;
use crate::trace::{self, traced_pass};

/// Generator threads of the saturated pass …
pub const GENERATORS: usize = 2;
/// … and the logical clients each multiplexes: 16 transactions in flight.
pub const SLOTS: usize = 8;
/// Length of a slice of a timed pass (a pass has at least ten) …
const SLICE: Duration = Duration::from_millis(100);
/// … and roughly what the yardstick burst beside it adds.
const BURST: Duration = Duration::from_millis(10);
/// Times a child sets the database and engine up; with two children a
/// run's `setup_s` rests on four set-ups.
const SETUPS: usize = 2;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Standard mix, everything in memory.
    Mix,
    /// All-write cross-partition `UpdateLocation`.
    Handoff,
    /// Standard mix over the segmented, synced WAL.
    Durable,
    /// Standard mix over a file-backed page store and a pool a quarter
    /// of the working set.
    Evict,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Mix,
        Workload::Handoff,
        Workload::Durable,
        Workload::Evict,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix => "tatp_mix",
            Workload::Handoff => "tatp_handoff",
            Workload::Durable => "tatp_durable",
            Workload::Evict => "tatp_evict",
        }
    }

    fn mix(self) -> MixKind {
        match self {
            Workload::Handoff => MixKind::Handoff,
            _ => MixKind::Standard,
        }
    }
}

/// What a child is told to do.
#[derive(Debug, Clone)]
pub struct ChildCfg {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the loader and every client stream.
    pub seed: u64,
    /// Measured seconds of the whole run; a child gets half.
    pub seconds: f64,
    /// Per-layer run (traced pass, probes, counters) instead of an
    /// end-to-end one.
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub smoke: bool,
    /// Buffer-pool frames (`tatp_evict`; sized by the parent).
    pub frames: usize,
    /// Directory for scratch files and the trace file.
    pub out_dir: PathBuf,
}

/// The database every workload loads.
fn tatp(smoke: bool, seed: u64) -> TatpWorkload {
    TatpWorkload {
        subscribers: if smoke { 2_000 } else { 20_000 },
        seed,
    }
}

struct Plan {
    warmup_ops: u64,
    saturated: Duration,
    idle: Duration,
    traced_txns: u32,
    effort: Effort,
}

impl Plan {
    fn of(cfg: &ChildCfg) -> Plan {
        let engine_secs = cfg.seconds / 2.0;
        // A per-layer run shortens the client passes to make room for
        // the traced pass and the probes inside the same run length.
        let share = if cfg.trace { 0.7 } else { 1.0 };
        Plan {
            warmup_ops: if cfg.smoke { 100 } else { 1_250 },
            saturated: Duration::from_secs_f64(engine_secs * 0.7 * share),
            idle: Duration::from_secs_f64(engine_secs * 0.3 * share),
            traced_txns: if cfg.smoke { 2_000 } else { 20_000 },
            effort: if cfg.smoke {
                Effort {
                    batches: 5,
                    calls: 200,
                    serial_txns: 50,
                }
            } else {
                Effort {
                    batches: 21,
                    calls: 2_000,
                    serial_txns: 200,
                }
            },
        }
    }
}

/// Removes a scratch directory when the set-up using it is dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded database with its engine running and warmed up.
struct Live<E: Engine> {
    engine: E,
    /// The durable workload's log directory and the "disk" under it.
    wal: Option<(WalConfig, SimFs)>,
    /// Call-forwarding rows right after the load.
    loaded_cf: usize,
    /// Everything run against this database, warm-up included.
    tally: Tally,
    /// Declared last: the files go after the engine and database.
    scratch: Scratch,
}

impl<E: Engine> Live<E> {
    fn set_up(cfg: &ChildCfg, plan: &Plan, wl: &TatpWorkload, attempt: usize) -> Live<E> {
        let scratch = Scratch(cfg.out_dir.join(format!(
            "scratch-{}-{}-{}-{attempt}",
            cfg.workload.name(),
            E::NAME,
            std::process::id()
        )));
        let _ = std::fs::remove_dir_all(&scratch.0);
        let mut wal = None;
        let db = match cfg.workload {
            Workload::Mix | Workload::Handoff => Database::default(),
            Workload::Durable => {
                let db = Database::default();
                // A simulated disk: it holds what was synced apart from
                // what was only written, so the audit can crash it — and
                // its syncs cost the same on every run, which this box's
                // real ones do not (README.md, "Workloads").
                let fs = SimFs::new();
                let wal_cfg = WalConfig::sim("/wal", fs.clone());
                // Attached before the load, so the load is logged and a
                // restart replays it like any other traffic.
                db.recover_and_attach_wal(wal_cfg.clone())
                    .expect("attach wal");
                wal = Some((wal_cfg, fs));
                db
            }
            Workload::Evict => {
                let store =
                    FilePageStore::open(&StdFs, &scratch.0.join("pages")).expect("open page file");
                Database::with_store(
                    DatabaseConfig {
                        buffer_frames: cfg.frames,
                        ..Default::default()
                    },
                    Arc::new(store),
                )
            }
        };
        let tables = wl.load(&db);
        let loaded_cf = TatpWorkload::counts(&db, tables).call_forwarding;
        let engine = E::start(Arc::new(db), wl, tables);
        let mut live = Live {
            engine,
            wal,
            loaded_cf,
            tally: Tally::default(),
            scratch,
        };
        // Warm-up is a fixed amount of work, not of time, so that it is
        // part of what `setup_s` measures.
        live.pass(wl, cfg, 0, GENERATORS, SLOTS, Budget::Ops(plan.warmup_ops));
        live
    }

    /// Runs a client pass and books its operations.
    fn pass(
        &mut self,
        wl: &TatpWorkload,
        cfg: &ChildCfg,
        pass_no: u64,
        threads: usize,
        slots: usize,
        budget: Budget,
    ) -> PassResult {
        let result = run_pass(
            &self.engine,
            Pass {
                threads,
                slots,
                budget,
                mix: cfg.workload.mix(),
                subscribers: wl.subscribers,
                seed: stream_seed(cfg.seed, pass_no),
                probe: cfg.trace,
            },
        );
        self.tally.absorb(result.tally.clone());
        result
    }
}

/// A timed pass of about `length`, yardstick bursts included.
fn timed(length: Duration) -> Budget {
    let slices = (length.as_secs_f64() / (SLICE + BURST).as_secs_f64()) as usize;
    Budget::Timed {
        slice: SLICE,
        slices: slices.max(10),
    }
}

/// Streams of different passes must not repeat each other.
fn stream_seed(seed: u64, pass_no: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pass_no << 32)
}

/// Public counters of every layer, read at a quiet point.
struct Counters {
    lock: LockStatsSnapshot,
    log: LogStatsSnapshot,
    buffer: BufferStatsSnapshot,
    txn: TxnStatsSnapshot,
    engine: EngineCounters,
    cpu: (f64, f64),
    invol_ctxsw: u64,
}

impl Counters {
    fn read<E: Engine>(engine: &E) -> Counters {
        let db = engine.db();
        Counters {
            lock: db.lock_stats(),
            log: db.log_stats(),
            buffer: db.buffer_stats(),
            txn: db.txn_stats(),
            engine: engine.counters(),
            cpu: proc::cpu_secs(),
            invol_ctxsw: proc::live_threads_invol_ctxsw(),
        }
    }
}

/// Runs one engine's share of the run and prints its report.
pub fn run<E: Engine>(cfg: &ChildCfg) {
    let plan = Plan::of(cfg);
    let wl = tatp(cfg.smoke, cfg.seed);
    let e = E::NAME;
    let mut report = Report::default();
    let mut discarded = Tally::default();
    let born = Instant::now();
    let progress = |what: &str| eprintln!("[{e} +{:.1}s] {what}", born.elapsed().as_secs_f64());

    // The last set-up's database and engine are the ones measured.
    let mut setup_secs = Vec::new();
    let mut live: Option<Live<E>> = None;
    for attempt in 0..SETUPS {
        if let Some(previous) = live.take() {
            discarded.absorb(previous.tally.clone());
        }
        let start = Instant::now();
        live = Some(Live::set_up(cfg, &plan, &wl, attempt));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    progress("set up");
    // Peak memory after a fixed amount of work (load + warm-up): it must
    // not grow because a faster engine logged more in a timed pass.
    report.layer(&format!("{e}.rss_mb"), proc::peak_rss_mb(), "MB");
    let rss_before_kb = proc::rss_kb();
    let cs_at_start = live.engine.db().lock_stats().critical_sections;

    let before = Counters::read(&live.engine);
    let saturated = live.pass(&wl, cfg, 1, GENERATORS, SLOTS, timed(plan.saturated));
    let after = Counters::read(&live.engine);
    progress("saturated pass done");
    note_series(e, "saturated", &saturated);
    // Set-up has no slices of its own: it is scaled by what the yardstick
    // said about the box in the pass that followed it within seconds.
    let slowdown = median(&saturated.slice_slowdown());
    report.sampled(
        "setup_s",
        median(&setup_secs) / slowdown,
        "s",
        SETUPS as u64,
    );
    let n = saturated.all.count();
    let tps = saturated.slice_tps_nominal();
    report.sampled(&format!("{e}.tps"), median(&tps), "1/s", n);
    let p50_us = median(&saturated.slice_quantile_us_nominal(0.5));
    report.sampled(&format!("{e}.p50_us"), p50_us, "us", n);

    let idle = live.pass(&wl, cfg, 2, 1, 1, timed(plan.idle));
    progress("idle pass done");
    note_series(e, "idle", &idle);
    let idle_p50_us = median(&idle.slice_quantile_us_nominal(0.5));
    report.sampled(
        &format!("{e}.idle_p50_us"),
        idle_p50_us,
        "us",
        idle.all.count(),
    );

    if cfg.trace {
        client_layers(e, &saturated, &idle, &tps, &mut report);
        let done = saturated.tally.attempted - saturated.tally.failed;
        counter_layers(e, &before, &after, &saturated, done, &mut report);
        let growth_kb = proc::rss_kb().saturating_sub(rss_before_kb) as f64;
        let finished = (saturated.tally.attempted + idle.tally.attempted).max(1) as f64;
        report.layer(
            &format!("{e}.proc.rss_growth_kb_per_ktxn"),
            growth_kb / finished * 1e3,
            "KB",
        );
        let idle_raw_p50_us = idle.all.quantile(0.5) / 1e3;
        traced_layers(cfg, &plan, &wl, &mut live, idle_raw_p50_us, &mut report);
        let log = live.engine.db().log();
        let bytes = wal_bytes_per_record(log, before.log.appended, after.log.appended);
        let appends = (after.log.appended - before.log.appended) as f64;
        report.layer(
            &format!("{e}.storage.wal.bytes_per_txn"),
            bytes * appends / done.max(1) as f64,
            "B",
        );
    }

    progress("measured; auditing");
    audit(cfg, &wl, live, cs_at_start, discarded, &mut report);
    progress("audited");
    print!("{}", report.to_lines());
}

/// The raw slice series behind a pass's figures, for whoever reads the
/// output: throughput as measured and the box's slowdown by the
/// yardstick, slice by slice.
fn note_series(e: &str, pass: &str, result: &PassResult) {
    let join = |values: Vec<f64>, digits: usize| {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
        cells.join(" ")
    };
    println!("# {e}.{pass}.slice_tps_raw {}", join(result.slice_tps(), 0));
    println!(
        "# {e}.{pass}.slice_slowdown {}",
        join(result.slice_slowdown(), 2)
    );
}

/// What only the clients can see, beyond the end-to-end figures: tails
/// (too unsteady on this box to gate), the read/write split, and the
/// as-measured figures beside the yardstick's verdict on the box.
fn client_layers(e: &str, sat: &PassResult, idle: &PassResult, tps: &[f64], out: &mut Report) {
    let us = |ns: f64| ns / 1e3;
    out.layer(
        &format!("{e}.client.p99_us"),
        median(&sat.slice_quantile_us_nominal(0.99)),
        "us",
    );
    out.layer(
        &format!("{e}.client.idle_p99_us"),
        median(&idle.slice_quantile_us_nominal(0.99)),
        "us",
    );
    out.layer(
        &format!("{e}.client.p999_raw_us"),
        us(sat.all.quantile(0.999)),
        "us",
    );
    out.layer(
        &format!("{e}.client.read_p50_raw_us"),
        us(sat.reads.quantile(0.5)),
        "us",
    );
    out.layer(
        &format!("{e}.client.write_p50_raw_us"),
        us(sat.writes.quantile(0.5)),
        "us",
    );
    out.layer(
        &format!("{e}.client.tps_raw"),
        median(&sat.slice_tps()),
        "1/s",
    );
    out.layer(
        &format!("{e}.client.idle_p50_raw_us"),
        us(idle.all.quantile(0.5)),
        "us",
    );
    out.layer(&format!("{e}.client.tps_iqr_pct"), iqr_pct(tps), "%");
    out.layer(
        &format!("{e}.box.slowdown"),
        median(&sat.slice_slowdown()),
        "ratio",
    );
    out.layer(
        &format!("{e}.box.idle_slowdown"),
        median(&idle.slice_slowdown()),
        "ratio",
    );
}

/// Window diffs of the public counters over the saturated pass, per
/// finished transaction.
fn counter_layers(
    e: &str,
    before: &Counters,
    after: &Counters,
    sat: &PassResult,
    done: u64,
    out: &mut Report,
) {
    let txns = done.max(1) as f64;
    let mut per_txn = |name: &str, delta: u64| {
        out.layer(&format!("{e}.{name}_per_txn"), delta as f64 / txns, "1/txn");
    };
    let (l0, l1) = (&before.lock, &after.lock);
    per_txn(
        "storage.lock.critical_sections",
        l1.critical_sections - l0.critical_sections,
    );
    per_txn("storage.lock.waits", l1.waits - l0.waits);
    let (w0, w1) = (&before.log, &after.log);
    per_txn("storage.wal.appends", w1.appended - w0.appended);
    per_txn(
        "storage.wal.group_commits",
        w1.group_commits - w0.group_commits,
    );
    per_txn("storage.wal.waits", w1.waits() - w0.waits());
    let (b0, b1) = (&before.buffer, &after.buffer);
    per_txn("storage.buffer.misses", b1.misses - b0.misses);
    per_txn("storage.buffer.evictions", b1.evictions - b0.evictions);
    per_txn(
        "storage.buffer.eviction_writes",
        b1.eviction_writes - b0.eviction_writes,
    );
    per_txn("storage.buffer.writebacks", b1.writebacks - b0.writebacks);
    per_txn(
        "storage.buffer.table_waits",
        b1.table_waits - b0.table_waits,
    );
    per_txn(
        "storage.buffer.latch_waits",
        b1.latch_waits - b0.latch_waits,
    );
    per_txn(
        "storage.txn.stripe_acquisitions",
        after.txn.stripe_acquisitions - before.txn.stripe_acquisitions,
    );
    let (e0, e1) = (&before.engine, &after.engine);
    per_txn(
        "engine.retries",
        e1.retries - e0.retries + sat.tally.retries,
    );
    per_txn(
        "proc.invol_ctxsw",
        after.invol_ctxsw.saturating_sub(before.invol_ctxsw) + sat.gen_invol_ctxsw,
    );
    if let (Some(d0), Some(d1)) = (&e0.dora, &e1.dora) {
        per_txn("executor.actions", d1.actions - d0.actions);
        per_txn("executor.deferrals", d1.deferrals - d0.deferrals);
        per_txn("wait_list.wakeups", d1.wakeups - d0.wakeups);
        per_txn("outbox.msgs", d1.outbox_msgs - d0.outbox_msgs);
        per_txn("outbox.pushes", d1.outbox_pushes - d0.outbox_pushes);
        per_txn("local_lock.acquired", d1.lock_acquired - d0.lock_acquired);
        per_txn(
            "local_lock.conflicts",
            d1.lock_conflicts - d0.lock_conflicts,
        );
        let executed: Vec<f64> = d1
            .executed
            .iter()
            .zip(&d0.executed)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let mean = executed.iter().sum::<f64>() / executed.len().max(1) as f64;
        let busiest = executed.iter().copied().fold(0.0, f64::max);
        let imbalance = if mean > 0.0 { busiest / mean } else { 0.0 };
        out.layer(
            &format!("{e}.executor.partition_imbalance"),
            imbalance,
            "ratio",
        );
        out.layer(
            &format!("{e}.mailbox.queue_peak"),
            sat.queue_peak as f64,
            "count",
        );
    }

    let touches = (b1.hits - b0.hits + b1.misses - b0.misses).max(1) as f64;
    out.layer(
        &format!("{e}.storage.buffer.hit_rate"),
        (b1.hits - b0.hits) as f64 / touches,
        "ratio",
    );
    // The clients load the engine during the slices only, not while the
    // yardstick runs between them.
    let window = sat.slice_len.as_secs_f64() * sat.slices.len() as f64;
    out.layer(
        &format!("{e}.engine.busy_frac"),
        (e1.busy_ns - e0.busy_ns) as f64 / 1e9 / (window * WORKERS as f64),
        "ratio",
    );
    let (user, sys) = (after.cpu.0 - before.cpu.0, after.cpu.1 - before.cpu.1);
    out.layer(
        &format!("{e}.proc.cpu_us_per_txn"),
        (user + sys) * 1e6 / txns,
        "us",
    );
    let sys_share = if user + sys > 0.0 {
        sys / (user + sys)
    } else {
        0.0
    };
    out.layer(&format!("{e}.proc.sys_cpu_share"), sys_share, "ratio");
}

/// The traced pass, the probes, and what follows from the two together.
fn traced_layers<E: Engine>(
    cfg: &ChildCfg,
    plan: &Plan,
    wl: &TatpWorkload,
    live: &mut Live<E>,
    idle_raw_p50_us: f64,
    out: &mut Report,
) {
    let e = E::NAME;
    let mix = cfg.workload.mix();
    let traced = traced_pass(
        &live.engine,
        mix,
        wl.subscribers,
        stream_seed(cfg.seed, 3),
        plan.traced_txns,
    );
    live.tally.absorb(traced.tally.clone());
    let path = cfg
        .out_dir
        .join(format!("{}.{e}.trace.json", cfg.workload.name()));
    let process = format!("{} {e} seed {}", cfg.workload.name(), cfg.seed);
    if let Err(err) = trace::write_chrome_trace(&path, &process, &traced.spans) {
        out.violation(format!("cannot write {}: {err}", path.display()));
    }

    let b = trace::breakdown(&traced.spans);
    for (kind, mean) in trace::KINDS.iter().zip(b.mean_ns).skip(1) {
        out.layer(&format!("trace.{e}.{kind}_ns"), mean, "ns");
    }
    out.layer(&format!("trace.{e}.self_ns"), b.self_ns, "ns");
    if b.closure_error() > 0.01 {
        out.violation(format!(
            "{e} trace: children + self differ from the root by {:.2} %",
            b.closure_error() * 100.0
        ));
    }
    let traced_p50_us = traced.latency.quantile(0.5) / 1e3;
    out.layer(
        &format!("trace.{e}.overhead_pct"),
        (traced_p50_us - idle_raw_p50_us) / idle_raw_p50_us * 100.0,
        "%",
    );

    let serial_us = probes::serial(&live.engine, mix, wl, plan.effort, &mut live.tally);
    out.layer(&format!("probe.serial.{e}_txn_us"), serial_us, "us");
    // What the hop through the engine costs on top of running the same
    // bodies inline: queueing, wake-ups, routing, the reply.
    out.layer(
        &format!("trace.{e}.engine_overhead_ns"),
        b.mean_ns[3] + b.mean_ns[4] - serial_us * 1e3,
        "ns",
    );
    if E::DORA {
        probes::dora_layers(&live.engine, wl, plan.effort, out);
    } else {
        let wal_dir = live.wal.as_ref().map(|_| live.scratch.0.join("probe-wal"));
        probes::storage_layers(&live.engine, mix, wl, plan.effort, wal_dir.as_deref(), out);
    }
}

/// Mean encoded size of the log records with LSNs in `(lo, hi]`,
/// estimated from at most the first 20 000 of them.
fn wal_bytes_per_record(log: &LogManager, lo: u64, hi: u64) -> f64 {
    let sample = LogManager::new();
    let mut n = 0u64;
    for record in log.records() {
        if record.lsn > lo && record.lsn <= hi && n < 20_000 {
            sample.append(record.txn, record.payload);
            n += 1;
        }
    }
    if n == 0 {
        return 0.0;
    }
    // `encode` prefixes the records with an eight-byte count.
    (sample.encode().len() - 8) as f64 / n as f64
}

/// Checks that what the engine left behind is what the clients were told.
fn audit<E: Engine>(
    cfg: &ChildCfg,
    wl: &TatpWorkload,
    live: Live<E>,
    cs_at_start: u64,
    mut totals: Tally,
    out: &mut Report,
) {
    let e = E::NAME;
    let expected_cf = live.loaded_cf as i64 + live.tally.cf_delta;
    totals.absorb(live.tally.clone());
    out.attempted = totals.attempted;
    out.failed = totals.failed;
    if let Some(reason) = &totals.first_failure {
        println!("# {e}: first failed operation: {reason}");
    }

    let db = live.engine.db().clone();
    if E::DORA {
        let entered = db.lock_stats().critical_sections - cs_at_start;
        if entered != 0 {
            out.violation(format!(
                "dora entered {entered} lock-manager critical sections; must be 0"
            ));
        }
    }
    check_tables(e, "live", &db, live.engine.tables(), expected_cf, out);

    let Live { engine, wal, .. } = live;
    drop(engine);
    drop(db);
    let mut recover_ms = 0.0;
    if let Some((wal_cfg, disk)) = wal {
        // Crash and restart: the disk forgets every byte that was written
        // but not synced (and keeps a torn prefix of it), then a fresh
        // database, schema only, recovers from the log directory. Every
        // acknowledged commit must be there.
        disk.crash(cfg.seed);
        let restarted = Database::default();
        let tables = wl.create_tables(&restarted);
        let start = Instant::now();
        match restarted.recover_and_attach_wal(wal_cfg) {
            Ok(_) => {
                recover_ms = start.elapsed().as_secs_f64() * 1e3;
                check_tables(e, "recovered", &restarted, tables, expected_cf, out);
            }
            Err(err) => out.violation(format!("{e}: recovery failed: {err}")),
        }
    }
    // Reported with the storage probes, by the child that runs them.
    if cfg.trace && !E::DORA {
        out.layer("probe.storage.recover_ms", recover_ms, "ms");
    }
}

fn check_tables(
    e: &str,
    which: &str,
    db: &Database,
    tables: TatpTables,
    expected_cf: i64,
    out: &mut Report,
) {
    if let Err(why) = TatpWorkload::check_integrity(db, tables) {
        out.violation(format!("{e} {which} database: {why}"));
    }
    let cf = TatpWorkload::counts(db, tables).call_forwarding as i64;
    if cf != expected_cf {
        out.violation(format!(
            "{e} {which} database: {cf} call-forwarding rows, committed ledger says {expected_cf}"
        ));
    }
}

/// Pages the loaded workload occupies, for sizing `tatp_evict`'s pool.
pub fn working_set_pages(smoke: bool, seed: u64) -> usize {
    let db = Database::default();
    tatp(smoke, seed).load(&db);
    db.allocated_pages() as usize
}

/// Where a run's scratch and trace files go: `benchmark/out` under the
/// directory the command was started in.
pub fn default_out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

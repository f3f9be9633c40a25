//! Buffer-pool residency sweep: TATP throughput as the pool shrinks
//! from "everything fits" to one-tenth of the working set.
//!
//! Three configurations per engine, keyed `resident=<pct>`:
//!
//! * `resident=100` — the in-memory page store every committed pre-v6
//!   baseline was recorded with (no store I/O at all).
//! * `resident=50` / `resident=10` — a file-backed page store with the
//!   pool capped at half / one-tenth of the loaded working set, so the
//!   uniform TATP mix runs through the miss → evict → background
//!   writeback path continuously.
//!
//! The interesting rows are the v6 buffer counters, not just tps: hit
//! rate and evictions show the pool actually churning, and
//! `buffer_table_waits` / `buffer_latch_waits` staying ~0 per
//! transaction is the decentralized design's claim under exactly the
//! load where a global page-table mutex would serialize every miss.
//! The workload's integrity checks still run (a pool that loses a page
//! update fails the bench loudly).
//!
//! Run with `cargo bench --bench buffer_pool`. Flags: `--quick` (CI
//! smoke), `--compare <path>`, `--out <path>`, `--subscribers <n>`,
//! `--total <n>`, `--repeats <n>`. Writes `BENCH_buffer_pool.json` at
//! the workspace root.

use dora_bench::driver::{
    run_tatp_best_of, BenchArgs, EngineKind, StorageKind, TatpMixKind, TatpRun,
};
use dora_bench::report::{workspace_root, BenchReport};
use dora_storage::db::Database;
use dora_workloads::tatp::TatpWorkload;

fn main() {
    let args = BenchArgs::parse(std::env::args().skip(1));
    let baseline = args.compare.as_deref().map(|p| {
        std::fs::read_to_string(p)
            .or_else(|_| std::fs::read_to_string(workspace_root().join(p)))
            .expect("read --compare report")
    });
    let workers = 4;
    let clients = 8;
    let subscribers = args
        .subscribers
        .unwrap_or(if args.quick { 1_000 } else { 10_000 });
    let total_per_scenario = args
        .total
        .unwrap_or(if args.quick { 16_000 } else { 48_000 });
    let repeats = args.repeats.unwrap_or(if args.quick { 1 } else { 3 });
    let wl = TatpWorkload {
        subscribers,
        seed: 42,
    };

    // Size the pool from the workload's *measured* footprint: load once
    // into a throwaway in-memory database and count allocated pages, so
    // `resident=50` means 50% of this exact working set regardless of
    // subscriber count or row-packing changes.
    let working_set = {
        let db = Database::default();
        wl.load(&db);
        db.allocated_pages()
    } as usize;
    eprintln!("working set: {working_set} pages");

    // The floor keeps tiny quick runs above the concurrency watermark:
    // in a pool smaller than the number of simultaneously pinned pages
    // misses wait for pins (and may retry on BufferPoolFull) instead of
    // measuring eviction.
    let frames_for = |pct: usize| (working_set * pct / 100).max(16);
    let residencies = [
        (100u64, StorageKind::InMemory),
        (
            50,
            StorageKind::Disk {
                frames: frames_for(50),
            },
        ),
        (
            10,
            StorageKind::Disk {
                frames: frames_for(10),
            },
        ),
    ];

    let mut runs = Vec::new();
    for (resident_pct, storage) in residencies {
        for engine in [EngineKind::Conventional, EngineKind::Dora] {
            let mut scenario = run_tatp_best_of(
                &wl,
                TatpRun {
                    engine,
                    workers,
                    clients,
                    per_client: total_per_scenario / clients,
                    // Uniform subscriber choice maximizes page spread —
                    // the worst case for a bounded pool, which is the
                    // point of the sweep.
                    mix: TatpMixKind::Skewed { theta: 0.0 },
                    balancer: false,
                    client_retries: 10,
                    storage,
                    kill: None,
                },
                repeats,
            );
            // The swept knob is residency, not the mix: rekey the row.
            scenario.scenario = format!("resident={resident_pct}");
            let touches = scenario.buffer_hits + scenario.buffer_misses;
            eprintln!(
                "  {:<13} resident={:<3} committed={:<6} tps={:<9.1} hit_rate={:.1}% \
                 evictions={} table_waits={}",
                scenario.engine,
                resident_pct,
                scenario.committed,
                scenario.throughput_tps(),
                if touches > 0 {
                    scenario.buffer_hits as f64 / touches as f64 * 100.0
                } else {
                    100.0
                },
                scenario.buffer_evictions,
                scenario.buffer_table_waits,
            );
            runs.push(scenario);
        }
    }

    let report = BenchReport {
        bench: "buffer_pool",
        workload: format!(
            "tatp uniform mix subscribers={subscribers} workers={workers} clients={clients} \
             total_per_scenario={total_per_scenario} working_set={working_set} pages, \
             residency sweep in-memory vs 50% vs 10%"
        ),
        physical_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        quick: args.quick,
        runs,
    };
    print!("{}", report.to_table());

    let out = args
        .out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("BENCH_buffer_pool.json"));
    report
        .write_json(&out, baseline.as_deref())
        .expect("write bench JSON");
    println!("wrote {}", out.display());
}

//! `gate --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on both engines — each in a fresh child process of
//! this same binary — prints every metric as `name value unit`, and ends
//! with one JSON line (see `../BENCHMARK.json`). Exits non-zero when a
//! correctness check fails or more than 0.1 % of the operations did.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use dora_gate_bench::child::{self, ChildCfg, Workload};
use dora_gate_bench::engine::{Conv, Dora};
use dora_gate_bench::proc;
use dora_gate_bench::report::{Metric, Report};

/// The end-to-end metrics, besides `setup_s`, as `<engine>.<name>`.
const END_TO_END: [&str; 4] = ["tps", "p50_us", "idle_p50_us", "rss_mb"];
const ENGINES: [&str; 2] = ["dora", "conv"];

/// Share of failed operations above which a run is incorrect.
const MAX_FAILED_SHARE: f64 = 0.001;

struct Args {
    cfg: ChildCfg,
    /// `Some(engine)`: this process is that engine's child.
    child: Option<String>,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gate --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--out-dir <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = ChildCfg {
        workload: Workload::Mix,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        frames: 0,
        out_dir: child::default_out_dir(),
    };
    let mut child = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("a workload"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => cfg.out_dir = PathBuf::from(&value),
            "--frames" => cfg.frames = value.parse().map_err(|_| bad("a whole number"))?,
            "--child" => child = Some(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    cfg.workload = workload.ok_or_else(usage)?;
    Ok(Args { cfg, child })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        None => parent(args.cfg),
        Some("dora") => {
            child::run::<Dora>(&args.cfg);
            ExitCode::SUCCESS
        }
        Some("conv") => {
            child::run::<Conv>(&args.cfg);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("--child: unknown engine {other:?}");
            ExitCode::from(2)
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `engine`'s share in a fresh process and folds its report into
/// `report`.
fn run_child(cfg: &ChildCfg, engine: &str, report: &mut Report) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", engine, "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--frames", &cfg.frames.to_string()])
        .arg("--out-dir")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end and collects its report.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {engine} child: {e}"))?;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(note) = report.absorb_line(line) {
            println!("{note}");
        }
    }
    if output.status.success() {
        Ok(())
    } else {
        Err(format!("the {engine} child ended with {}", output.status))
    }
}

fn parent(mut cfg: ChildCfg) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# workload {} seed {} seconds {} trace {} smoke {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# nproc {nproc}");
    println!("# rustc {}", tool_line("rustc", &["--version"]));
    println!("# git {}", tool_line("git", &["rev-parse", "HEAD"]));
    println!("# loadavg_before {}", proc::loadavg());
    if cfg.workload == Workload::Evict {
        let pages = child::working_set_pages(cfg.smoke, cfg.seed);
        // The floor keeps a smoke-sized pool above the pages the workers
        // and the writeback thread pin at once.
        cfg.frames = (pages / 4).max(16);
        println!("# working_set_pages {pages} buffer_frames {}", cfg.frames);
    }

    let mut report = Report::default();
    for engine in ENGINES {
        if let Err(message) = run_child(&cfg, engine, &mut report) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    println!("# loadavg_after {}", proc::loadavg());

    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    if failed_share > MAX_FAILED_SHARE {
        report.violation(format!(
            "{} of {} operations failed ({:.3} %, limit {} %)",
            report.failed,
            report.attempted,
            failed_share * 100.0,
            MAX_FAILED_SHARE * 100.0
        ));
    }
    let metrics = select_metrics(&report, cfg.trace);
    for m in &metrics {
        if !m.value.is_finite() {
            report.violation(format!("{} is not a finite number", m.name));
        }
    }
    for m in &metrics {
        match m.samples {
            0 => println!("{} {} {}", m.name, m.value, m.unit),
            n => println!("{} {} {} n={n}", m.name, m.value, m.unit),
        }
    }
    for v in &report.violations {
        println!("# VIOLATION {v}");
        eprintln!("violation: {v}");
    }
    let correct = report.violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics a run reports: the end-to-end ones of an untraced run, or
/// every per-layer one of a traced run. `setup_s` is the two children's
/// set-up times added up.
fn select_metrics(report: &Report, trace: bool) -> Vec<Metric> {
    let is_end_to_end = |name: &str| {
        name == "setup_s"
            || ENGINES.iter().any(|e| {
                name.strip_prefix(e)
                    .and_then(|rest| rest.strip_prefix('.'))
                    .is_some_and(|rest| END_TO_END.contains(&rest))
            })
    };
    let mut out: Vec<Metric> = Vec::new();
    for m in &report.metrics {
        if is_end_to_end(&m.name) == trace {
            continue;
        }
        let earlier_setup = out
            .iter_mut()
            .find(|have| m.name == "setup_s" && have.name == m.name);
        match earlier_setup {
            Some(setup) => {
                setup.value += m.value;
                setup.samples += m.samples;
            }
            None => out.push(m.clone()),
        }
    }
    if trace {
        if let (Some(dora), Some(conv)) = (report.get("dora.tps"), report.get("conv.tps")) {
            out.push(Metric {
                name: "ratio.dora_vs_conv_tps".into(),
                value: dora / conv,
                unit: "ratio".into(),
                samples: 0,
            });
        }
    }
    out
}

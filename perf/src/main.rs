//! `hts-perf`: the repository's benchmark.
//!
//! Drives a live in-process `hts_net::Cluster` (3 servers, paper-default
//! `Config`) through one pipelined `Session` with a closed-loop generator,
//! verifies every reply, and prints the end-to-end metrics of one
//! workload: the medians of ten trials, each run in a child process of
//! its own (a fresh cluster, allocator and peak RSS) for a tenth of the
//! run. With `--trace 1` it instead measures two in-process trials, one
//! untraced and one traced, replays the workload through each layer
//! alone, and prints the per-layer metrics and an attribution table.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload write_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is non-zero when any read or the durability check fails
//! verification.

mod layers;
mod live;
mod procfs;
mod stats;
mod trace;
mod verify;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use layers::{CodecReplay, CoreReplay, WalReplay};
use live::{Deltas, Window, H};
use stats::{median, percentile, ratio};
use trace::Tracer;
use workload::{Workload, SERVERS, WORKLOADS};

/// Whether the program's counters and histograms are compiled in.
pub(crate) const METRICS: bool = cfg!(feature = "metrics");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this untraced trial and report it in the line protocol
    /// (how a run starts its trial processes).
    trial: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trial) = (None, 1, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--trial" => {
                let k: usize = value.parse().map_err(|_| bad("not a whole number"))?;
                if k >= TRIALS {
                    return Err(bad("no such trial"));
                }
                trial = Some(k);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trial,
    })
}

/// One reported figure.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: String,
}

fn metric(name: &str, value: impl Into<Option<f64>>, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.into(),
        unit: unit.to_string(),
    }
}

fn json_number(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let value = m.value.map_or_else(|| "null".into(), |v| format!("{v:.4}"));
        println!("  {:<34} {:>14} {}", m.name, value, m.unit);
    }
}

fn ms(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1e6)
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

/// A registry-derived value: `None` when the registry is compiled out.
fn reg(v: f64) -> Option<f64> {
    METRICS.then_some(v)
}

/// The end-to-end figures of one measured window. Those named in
/// [`GATED`] exist on every workload and go into the result line; the
/// read figures exist only where the workload reads.
fn end_to_end(win: &Window) -> Vec<Metric> {
    let mut writes = win.write_lat_ns.clone();
    let mut reads = win.read_lat_ns.clone();
    writes.sort_unstable();
    reads.sort_unstable();
    let d = win.deltas.as_ref().expect("measured windows carry deltas");
    let ops = win.ops() as f64;
    vec![
        metric("ops_per_s", win.ops_per_s(), "1/s"),
        metric("write_p50_ms", ms(percentile(&writes, 0.50)), "ms"),
        metric("write_p99_ms", ms(percentile(&writes, 0.99)), "ms"),
        metric(
            "cpu_us_per_op",
            d.cpu_ns.map(|c| ratio(c as f64 / 1e3, ops)),
            "us",
        ),
        metric("read_p50_ms", ms(percentile(&reads, 0.50)), "ms"),
        metric("read_p99_ms", ms(percentile(&reads, 0.99)), "ms"),
        metric(
            "failed_op_ratio",
            ratio((win.failed + win.violations) as f64, win.attempted() as f64),
            "ratio",
        ),
    ]
}

/// Live figures of the traced window that the per-layer table and the
/// replays both need.
struct LiveRates {
    writes_per_op: f64,
    frames_per_batch: Option<f64>,
    batches_per_write: Option<f64>,
    records_per_group: Option<f64>,
}

fn live_rates(win: &Window) -> LiveRates {
    let d = win.deltas.as_ref().expect("measured windows carry deltas");
    let frames = d.hist(H::RingFrames);
    let group = d.hist(H::WalGroup);
    LiveRates {
        writes_per_op: ratio(win.writes as f64, win.ops() as f64),
        frames_per_batch: if METRICS { frames.mean() } else { None },
        batches_per_write: reg(ratio(frames.count() as f64, win.writes as f64)),
        records_per_group: if METRICS { group.mean() } else { None },
    }
}

struct Layers<'a> {
    workload: &'a Workload,
    untraced: &'a Window,
    traced: &'a Window,
    core: &'a CoreReplay,
    codec: &'a CodecReplay,
    wal: &'a WalReplay,
}

fn per_layer(l: &Layers<'_>, residual_us: f64) -> Vec<Metric> {
    let win = l.traced;
    let d: &Deltas = win.deltas.as_ref().expect("measured windows carry deltas");
    let rates = live_rates(win);
    let ops = win.ops() as f64;
    let writes = win.writes as f64;
    let h = |which| d.hist(which);
    let begins = (win.write_lat_ns.len() + win.read_lat_ns.len()) as f64;
    let user_bytes = writes * l.workload.value_size as f64;
    vec![
        metric(
            "session.begin_us",
            ratio(win.begin_ns as f64 / 1e3, begins),
            "us",
        ),
        metric(
            "session.wait_us",
            ratio(win.wait_ns as f64 / 1e3, begins),
            "us",
        ),
        metric(
            "session.retries_per_op",
            reg(ratio(d.retries as f64, ops)),
            "count",
        ),
        metric(
            "codec.client_req.encode_ns",
            l.codec.client_req.encode_ns,
            "ns",
        ),
        metric(
            "codec.client_req.decode_ns",
            l.codec.client_req.decode_ns,
            "ns",
        ),
        metric("codec.reply.encode_ns", l.codec.reply.encode_ns, "ns"),
        metric("codec.reply.decode_ns", l.codec.reply.decode_ns, "ns"),
        metric(
            "codec.ring_batch.encode_ns",
            l.codec.ring_batch.encode_ns,
            "ns",
        ),
        metric(
            "codec.ring_batch.decode_ns",
            l.codec.ring_batch.decode_ns,
            "ns",
        ),
        metric("codec.wire_bytes_per_op", l.codec.wire_bytes_per_op, "B"),
        metric("core.step_ns", l.core.step_ns, "ns"),
        metric("core.frames_per_write", l.core.frames_per_write(), "count"),
        metric(
            "core.write_total_p50_us",
            reg(us(h(H::WriteTotal).p50())),
            "us",
        ),
        metric(
            "core.write_prewrite_p50_us",
            reg(us(h(H::WritePrewrite).p50())),
            "us",
        ),
        metric(
            "core.write_commit_p50_us",
            reg(us(h(H::WriteCommit).p50())),
            "us",
        ),
        metric(
            "core.read_block_per_read",
            reg(ratio(h(H::ReadBlock).count() as f64, win.reads as f64)),
            "count",
        ),
        metric(
            "core.read_block_p99_us",
            reg(us(h(H::ReadBlock).p99())),
            "us",
        ),
        metric(
            "ring.frames_per_batch",
            reg(rates.frames_per_batch.unwrap_or(0.0)),
            "count",
        ),
        metric("ring.batches_per_write", rates.batches_per_write, "count"),
        metric(
            "ring.bytes_per_write",
            reg(ratio(h(H::RingBytes).sum() as f64, writes)),
            "B",
        ),
        metric("ring.write_p50_us", reg(us(h(H::RingWrite).p50())), "us"),
        metric(
            "reactor.wakeups_per_op",
            reg(ratio(d.wakeups as f64, ops)),
            "count",
        ),
        metric(
            "reactor.events_per_wake",
            reg(h(H::EventsPerWake).mean().unwrap_or(0.0)),
            "count",
        ),
        metric(
            "proc.ctx_switches_per_op",
            d.ctx.map(|c| ratio(c as f64, ops)),
            "count",
        ),
        metric("proc.threads", d.threads.map(|t| t as f64), "count"),
        metric(
            "wal.fsyncs_per_write",
            reg(ratio(h(H::WalFsync).count() as f64, writes)),
            "count",
        ),
        metric(
            "wal.records_per_group_commit",
            reg(rates.records_per_group.unwrap_or(0.0)),
            "count",
        ),
        metric("wal.fsync_p50_us", reg(us(h(H::WalFsync).p50())), "us"),
        metric("wal.append_p99_us", reg(us(h(H::WalAppend).p99())), "us"),
        metric(
            "wal.device_bytes_per_user_byte",
            d.io_write.map(|b| ratio(b as f64, user_bytes)),
            "ratio",
        ),
        metric("wal.append_batch_us", l.wal.append_batch_us, "us"),
        metric("wal.compact_ms", l.wal.compact_ms, "ms"),
        metric(
            "trace.overhead_pct",
            100.0
                * ratio(
                    l.untraced.ops_per_s() - l.traced.ops_per_s(),
                    l.untraced.ops_per_s(),
                ),
            "%",
        ),
        metric("attrib.residual_us", residual_us, "us"),
    ]
}

/// Prints each layer's cost × occurrences per op against the untraced
/// window's CPU per op; returns the unexplained residual (µs per op).
fn attribution(l: &Layers<'_>) -> f64 {
    let win = l.traced;
    let rates = live_rates(win);
    let begins = (win.write_lat_ns.len() + win.read_lat_ns.len()) as f64;
    let d = l
        .untraced
        .deltas
        .as_ref()
        .expect("measured windows carry deltas");
    let cpu_us = d
        .cpu_ns
        .map_or(0.0, |c| ratio(c as f64 / 1e3, l.untraced.ops() as f64));
    let codec_us = |c: layers::CodecCost| (c.encode_ns + c.decode_ns) / 1e3;
    let batches_per_op = rates.batches_per_write.unwrap_or(0.0) * rates.writes_per_op;
    let mut rows = vec![
        (
            "session.begin (wall)",
            ratio(win.begin_ns as f64 / 1e3, begins),
            1.0,
        ),
        (
            "codec.client_req enc+dec",
            codec_us(l.codec.client_req),
            1.0,
        ),
        ("codec.reply enc+dec", codec_us(l.codec.reply), 1.0),
        (
            "codec.ring_batch enc+dec",
            codec_us(l.codec.ring_batch),
            batches_per_op,
        ),
        ("core step", l.core.step_ns / 1e3, l.core.steps_per_op()),
    ];
    if l.workload.durable {
        let wal = l.wal;
        // Every server logs every write; one group commit covers `group`.
        rows.push((
            "wal group commit / records (wall)",
            wal.append_batch_us / wal.group as f64,
            f64::from(SERVERS) * rates.writes_per_op,
        ));
    }
    println!("attribution (µs per op; cost × occurrences against cpu_us_per_op {cpu_us:.3})");
    println!(
        "  {:<34} {:>12} {:>10} {:>10} {:>7}",
        "layer", "cost_us", "per_op", "us_per_op", "share"
    );
    let mut explained = 0.0;
    for (name, cost, per_op) in rows {
        let total = cost * per_op;
        explained += total;
        println!(
            "  {name:<34} {cost:>12.4} {per_op:>10.4} {total:>10.4} {:>6.1}%",
            100.0 * ratio(total, cpu_us)
        );
    }
    let residual = cpu_us - explained;
    println!(
        "  {:<34} {:>12} {:>10} {residual:>10.4} {:>6.1}%",
        "residual (unexplained)",
        "",
        "",
        100.0 * ratio(residual, cpu_us)
    );
    println!(
        "  context: {:.3} reactor wakeups/op, {:.3} ring batches/op",
        ratio(
            l.traced.deltas.as_ref().map_or(0.0, |d| d.wakeups as f64),
            win.ops() as f64
        ),
        batches_per_op
    );
    residual
}

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("hts-perf")
}

/// Independent trials of an untraced run, each in a fresh process (its own
/// cluster, allocator state and peak RSS); every end-to-end figure is the
/// median over them. A traced run makes two in-process trials instead:
/// one untraced, one traced.
const TRIALS: usize = 10;

/// The figures of the result line, in order.
const GATED: [&str; 6] = [
    "ops_per_s",
    "write_p50_ms",
    "write_p99_ms",
    "cpu_us_per_op",
    "setup_s",
    "peak_rss_mb",
];

/// What one trial reports to the run.
#[derive(Default)]
struct TrialReport {
    /// [`end_to_end`] of the measured window, then `setup_s` and
    /// `peak_rss_mb`.
    figures: Vec<Metric>,
    /// The restart phase's figures (durable workloads' last trial).
    restart: Vec<Metric>,
    correct: bool,
    attempted: u64,
    failed: u64,
    violations: u64,
    problem: Option<String>,
}

impl TrialReport {
    fn figure(&self, name: &str) -> Option<f64> {
        self.figures.iter().find(|m| m.name == name)?.value
    }

    /// The line protocol a trial process prints for its parent.
    fn lines(&self) -> String {
        let mut out = String::new();
        let value = |v: Option<f64>| v.map_or_else(|| "null".into(), |v| v.to_string());
        for (kind, list) in [("figure", &self.figures), ("restart", &self.restart)] {
            for m in list {
                let _ = writeln!(out, "{kind} {} {} {}", m.name, value(m.value), m.unit);
            }
        }
        if let Some(p) = &self.problem {
            let _ = writeln!(out, "problem {}", p.replace('\n', " "));
        }
        let _ = writeln!(
            out,
            "outcome {} {} {} {}",
            self.correct, self.attempted, self.failed, self.violations
        );
        out
    }

    /// Parses [`lines`](Self::lines) output.
    fn parse(text: &str) -> Result<TrialReport, String> {
        let mut report = TrialReport::default();
        let mut complete = false;
        for line in text.lines() {
            let bad = || format!("malformed trial line: {line}");
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "figure" | "restart" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [name, value, unit] = f[..] else {
                        return Err(bad());
                    };
                    let value = match value {
                        "null" => None,
                        v => Some(v.parse().map_err(|_| bad())?),
                    };
                    let list = if kind == "figure" {
                        &mut report.figures
                    } else {
                        &mut report.restart
                    };
                    list.push(metric(name, value, unit));
                }
                "problem" => report.problem = Some(rest.to_string()),
                "outcome" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [correct, attempted, failed, violations] = f[..] else {
                        return Err(bad());
                    };
                    report.correct = correct.parse().map_err(|_| bad())?;
                    report.attempted = attempted.parse().map_err(|_| bad())?;
                    report.failed = failed.parse().map_err(|_| bad())?;
                    report.violations = violations.parse().map_err(|_| bad())?;
                    complete = true;
                }
                _ => {}
            }
        }
        if complete {
            Ok(report)
        } else {
            Err("trial ended without an outcome line".into())
        }
    }
}

/// Runs trial `trial` of `trials` in this process: launch and prime a
/// cluster, warm up, measure a window of `seconds / trials`, drain, and
/// (the last trial of a durable workload) crash, restart and check.
fn run_trial(
    args: &Args,
    trial: usize,
    trials: usize,
    run_dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<(TrialReport, Window)> {
    let w = args.workload;
    let window = Duration::from_secs_f64(args.seconds / trials as f64);
    let mut live = live::set_up(
        w,
        args.seed,
        &run_dir.join(format!("trial-{trial}")),
        tracer,
    )?;
    let warm = live.driver.run_window(live::WARMUP, "live.warmup", tracer);
    let measured = live.driver.run_window(window, "live.window", tracer);
    let drained = live.driver.drain(tracer);
    let mut report = TrialReport::default();
    let mut durability_failed = 0;
    if w.durable && trial + 1 == trials {
        let r = live.crash_restart_check(tracer)?;
        report.attempted += r.checked;
        report.failed += r.failed;
        durability_failed = r.failed;
        report.restart = vec![
            metric("crash_splice_s", r.splice_s, "s"),
            metric("restart_s", r.restart_s, "s"),
            metric("durability_keys_checked", r.checked as f64, "count"),
            metric("durability_keys_failed", r.failed as f64, "count"),
        ];
    }
    for win in [&warm, &measured, &drained] {
        report.attempted += win.attempted();
        report.failed += win.failed + win.violations;
        report.violations += win.violations;
    }
    report.correct = report.violations == 0 && durability_failed == 0;
    report.problem = live.driver.first_problem.take();
    let setup_s = live.setup_s.iter().sum::<f64>() / live.setup_s.len() as f64;
    live.shut_down(tracer);
    report.figures = end_to_end(&measured);
    report.figures.push(metric("setup_s", setup_s, "s"));
    report.figures.push(metric(
        "peak_rss_mb",
        procfs::peak_rss_kb().map(|kb| kb as f64 / 1024.0),
        "MB",
    ));
    Ok((report, measured))
}

/// Runs trial `trial` in a child process of this executable.
fn spawn_trial(args: &Args, trial: usize) -> std::io::Result<TrialReport> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--trial", &trial.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(std::io::Error::other(format!(
            "trial {trial} failed ({})",
            output.status
        )));
    }
    TrialReport::parse(&String::from_utf8_lossy(&output.stdout)).map_err(std::io::Error::other)
}

/// The child side of [`spawn_trial`].
fn run_child(args: &Args, trial: usize) -> std::io::Result<bool> {
    let run_dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)?;
    let result = run_trial(args, trial, TRIALS, &run_dir, &mut Tracer::new(false));
    let _ = std::fs::remove_dir_all(&run_dir);
    let (report, _) = result?;
    print!("{}", report.lines());
    Ok(true)
}

fn run(args: &Args) -> std::io::Result<bool> {
    let w = args.workload;
    let out = out_dir();
    let run_dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)?;
    println!(
        "# host: nproc={} kernel={} wal_fs={} metrics={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        procfs::kernel(),
        procfs::fs_type(&run_dir),
        if METRICS { "on" } else { "off" },
    );
    let trials = if args.trace { 2 } else { TRIALS };
    println!(
        "# workload={} seed={} seconds={} trace={} trials={trials} servers={SERVERS} keys={} \
         value_bytes={} read_percent={} window={} durable={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.keys,
        w.value_size,
        w.read_percent,
        w.window,
        w.durable
    );
    println!("# config: {:?}", w.effective_config());

    let mut tracer = Tracer::new(args.trace);
    let mut reports = Vec::with_capacity(trials);
    let mut windows = Vec::with_capacity(trials);
    for trial in 0..trials {
        let report = if args.trace {
            let mut off = Tracer::new(false);
            let tr = if trial == 1 { &mut tracer } else { &mut off };
            let (report, window) = run_trial(args, trial, trials, &run_dir, tr)?;
            windows.push(window);
            report
        } else {
            spawn_trial(args, trial)?
        };
        println!(
            "# trial {trial}: {} attempted={} failed={} violations={}",
            report
                .figures
                .iter()
                .filter_map(|m| Some(format!("{}={:.4}", m.name, m.value?)))
                .collect::<Vec<_>>()
                .join(" "),
            report.attempted,
            report.failed,
            report.violations
        );
        reports.push(report);
    }
    let correct = reports.iter().all(|r| r.correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let violations: u64 = reports.iter().map(|r| r.violations).sum();

    // Medians over the untraced trials: every one, or the first of a
    // traced run.
    let untraced = if args.trace {
        &reports[..1]
    } else {
        &reports[..]
    };
    let mut e2e: Vec<Metric> = untraced[0]
        .figures
        .iter()
        .map(|m| {
            let mut values: Vec<f64> = untraced.iter().filter_map(|r| r.figure(&m.name)).collect();
            metric(&m.name, median(&mut values), &m.unit)
        })
        .collect();
    // Set-up time is the mean over every set-up of the run, not a median:
    // launch time has two modes (a server's first connect to its successor
    // either races the successor's bind and backs off 50 ms, or not), and
    // the median of a two-mode sample jumps between the modes.
    let setups: Vec<f64> = reports.iter().filter_map(|r| r.figure("setup_s")).collect();
    for m in e2e.iter_mut().filter(|m| m.name == "setup_s") {
        m.value = Some(setups.iter().sum::<f64>() / setups.len() as f64);
    }
    print_metrics(
        "end-to-end (median over untraced trials; setup_s: mean over all)",
        &e2e,
    );
    for r in &reports {
        if r.restart.is_empty() {
            continue;
        }
        print_metrics("restart", &r.restart);
        if r.restart
            .iter()
            .any(|m| m.name == "restart_s" && m.value.is_none())
        {
            println!(
                "# finding: restarted {} answered no read within {:?} (still resyncing); \
                 the durability check was answered by the survivors",
                live::VICTIM,
                live::RESTART_DEADLINE
            );
        }
    }
    println!("# whole run: attempted={attempted} failed={failed} violations={violations}");
    if let Some(p) = reports.iter().find_map(|r| r.problem.as_ref()) {
        println!("# first problem: {p}");
    }

    let metrics = if args.trace {
        let (untraced, traced) = (&windows[0], &windows[1]);
        let rates = live_rates(traced);
        let core = layers::core_replay(&w, args.seed, &mut tracer);
        let codec = layers::codec_replay(
            &w,
            args.seed,
            &core,
            rates.frames_per_batch.unwrap_or(1.0),
            &mut tracer,
        );
        let wal = layers::wal_replay(
            &w,
            args.seed,
            &run_dir.join("wal-replay"),
            rates.records_per_group.unwrap_or(1.0),
            &mut tracer,
        )?;
        let l = Layers {
            workload: &w,
            untraced,
            traced,
            core: &core,
            codec: &codec,
            wal: &wal,
        };
        print_metrics("end-to-end (traced trial)", &reports[1].figures);
        let residual = attribution(&l);
        let layer_metrics = per_layer(&l, residual);
        print_metrics("per-layer (traced trial and replays)", &layer_metrics);
        println!("spans (count, total ms, self ms):");
        for (name, t) in tracer.totals() {
            println!(
                "  {name:<24} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = out.join(format!("trace-{}.tsv", w.name));
        tracer.write_tsv(&path)?;
        println!("# spans written to {}", path.display());
        layer_metrics
    } else {
        GATED
            .iter()
            .filter_map(|name| e2e.iter().find(|m| m.name == *name))
            .map(|m| metric(&m.name, m.value, &m.unit))
            .collect()
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hts-perf: {e}");
            eprintln!(
                "usage: hts-perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.trial {
        Some(trial) => run_child(&args, trial),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hts-perf: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hts-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "write_small",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload.name, "write_small");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "write_small", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "write_small", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "write_small", "--seed"]).is_err());
        assert!(parse(&["--workload", "write_small", "--bogus", "1"]).is_err());
    }

    #[test]
    fn trial_reports_round_trip_through_the_line_protocol() {
        let report = TrialReport {
            figures: vec![
                metric("ops_per_s", 1234.5, "1/s"),
                metric("read_p50_ms", None, "ms"),
            ],
            restart: vec![metric("restart_s", 0.25, "s")],
            correct: false,
            attempted: 10,
            failed: 2,
            violations: 1,
            problem: Some("key 3: stale read".into()),
        };
        let back = TrialReport::parse(&report.lines()).expect("own output parses");
        assert_eq!(back.figure("ops_per_s"), Some(1234.5));
        assert_eq!(back.figure("read_p50_ms"), None);
        assert_eq!(back.figures[1].unit, "ms");
        assert_eq!(back.restart[0].value, Some(0.25));
        assert_eq!(
            (back.correct, back.attempted, back.failed, back.violations),
            (false, 10, 2, 1)
        );
        assert_eq!(back.problem.as_deref(), Some("key 3: stale read"));
        // A trial that died before reporting its outcome is an error.
        assert!(TrialReport::parse("figure ops_per_s 1 1/s\n").is_err());
        assert!(TrialReport::parse("figure ops_per_s x 1/s\noutcome true 1 0 0\n").is_err());
    }

    #[test]
    fn result_line_is_json_with_nulls_for_missing_values() {
        let line = result_json(
            true,
            10,
            0,
            &[metric("a", 1.5, "ms"), metric("b", None, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}

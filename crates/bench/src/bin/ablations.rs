//! Ablation of the one protocol deviation [`Config`] still offers:
//!
//! * **A2 — read fast path**: letting reads return when the stored tag
//!   already dominates all pending pre-writes cuts blocked-read latency
//!   under write contention (the paper always waits).
//!
//! A1 (value-carrying commits) and A3 (local-first and forward-first
//! scheduling instead of the `nb_msg` fairness rule) are retired: their
//! switches are gone, and EXPERIMENTS.md keeps their last measured tables.

use hts_bench::{run_ring, Params};
use hts_core::Config;
use hts_sim::Nanos;

fn main() {
    println!("# Ablation (n = 4, 64 KiB values)");
    println!();
    println!("## A2 — read fast path under write contention (2R+2W per server)");
    println!();
    println!("| variant | read Mbit/s | mean read latency (ms) |");
    println!("|---|---|---|");
    for (label, fast) in [("block on pending (paper)", false), ("fast path", true)] {
        let m = run_ring(&Params {
            n: 4,
            readers_per_server: 2,
            writers_per_server: 2,
            value_size: 64 * 1024,
            warmup: Nanos::from_millis(500),
            measure: Nanos::from_secs(2),
            config: Config {
                read_fast_path: fast,
                ..Config::default()
            },
            ..Params::default()
        });
        println!(
            "| {label} | {:.1} | {:.2} |",
            m.read_mbps, m.read_latency_ms
        );
    }
    println!();
    println!("expected: nearly identical — under write saturation a pending pre-write");
    println!("almost always outranks the stored tag, so the fast path rarely fires;");
    println!("this is evidence the paper's always-block rule costs little.");
}

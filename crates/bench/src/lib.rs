//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` prints the rows/series of one paper artifact
//! (the table below maps binaries to artifacts); the [`harness`] module
//! holds the shared machinery: simulated cluster builders for the ring
//! protocol and every baseline, warm-up/measure windowing, and throughput
//! (Mbit/s of client payload, as the paper reports) and latency
//! extraction.
//!
//! Quick orientation:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1` | Figure 1 — quorum vs local-read throughput (round model) |
//! | `fig3` | Figure 3 — all four throughput charts |
//! | `fig4` | Figure 4 — read/write latency vs servers |
//! | `analytical` | §4 — round-model latency & throughput claims |
//! | `compare_baselines` | ring vs ABD vs chain vs TOB |
//! | `ablations` | A2 fast-path reads (A1 and A3 are retired; EXPERIMENTS.md keeps their tables) |
//! | `recovery` | throughput timeline across server crashes |
//!
//! Reduced-size versions of the same runs are registered as Criterion
//! benches (`cargo bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod tcp;

pub use harness::{
    latency_ring, run_abd, run_chain, run_ring, run_ring_detailed, run_tob, Measurement, Params,
    Protocol,
};
pub use report::{
    histogram_latency_object, json_f64, json_string, json_string_array, latency_object,
    percentile_ms, write_report,
};
pub use tcp::{run_tcp, TcpMeasurement, TcpParams};

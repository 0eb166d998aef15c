//! `expt` — regenerate the experiment tables (E1–E19, see DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p megadc-bench --bin expt -- all
//! cargo run --release -p megadc-bench --bin expt -- e3 e4
//! cargo run --release -p megadc-bench --bin expt -- --quick all
//! cargo run --release -p megadc-bench --bin expt -- --events /tmp/e17.jsonl e17
//! cargo run --release -p megadc-bench --bin expt -- --metrics /tmp/metrics.prom e16 e17
//! cargo run --release -p megadc-bench --bin expt -- --json e16 e17
//! cargo run --release -p megadc-bench --bin expt -- --quick --bench BENCH_scale.json e19
//! ```
//!
//! `--events <path>` truncates `path`, then appends the flight-recorder
//! JSONL logs of every platform run the selected experiments perform
//! (currently E16/E17; other experiments ignore it). The log is
//! deterministic: rerunning the same command produces a byte-identical
//! file, which CI checks. Inspect it with `cargo run -p obs -- explain`.
//!
//! `--metrics <path>` (or the `MEGADC_METRICS` environment variable)
//! truncates `path`, then appends each platform run's metrics-registry
//! export in Prometheus-style text form (one `# run:` header per
//! platform; currently E16/E17). Like the event log it is deterministic
//! — byte-identical across same-seed reruns — which CI checks.
//!
//! `--json` prints one machine-readable summary line per experiment
//! (`{"experiment":...,"metrics":{...}}`, stable key order) instead of
//! the rendered table.
//!
//! `--bench <path>` is where E19 writes its `BENCH_scale.json` scale
//! trajectory (compare against a baseline with the `benchcmp` binary);
//! other experiments ignore it.
//!
//! After the selected experiments run, any observability self-health
//! counters they reported (flight-recorder ring evictions, JSONL sink
//! write failures) are summarized on stderr so silent event-log
//! degradation is visible at the end of the run.

#![forbid(unsafe_code)]

use megadc_bench::{run_experiment, EXPERIMENTS};
use std::path::PathBuf;

fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a path argument");
        std::process::exit(2);
    }
    let path = PathBuf::from(args.remove(i + 1));
    args.remove(i);
    Some(path)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let events = take_path_flag(&mut args, "--events");
    let metrics = take_path_flag(&mut args, "--metrics")
        .or_else(|| std::env::var("MEGADC_METRICS").ok().map(PathBuf::from));
    let bench = take_path_flag(&mut args, "--bench");
    if args.is_empty() {
        eprintln!(
            "usage: expt [--quick] [--json] [--events <path>] [--metrics <path>] \
             [--bench <path>] <{}..{} | all> ...",
            EXPERIMENTS[0],
            EXPERIMENTS[EXPERIMENTS.len() - 1]
        );
        std::process::exit(2);
    }
    // Truncate once up front; experiments then append, so one invocation
    // covering several experiments yields one concatenated log.
    for (path, what) in [(&events, "event log"), (&metrics, "metrics export")] {
        if let Some(path) = path {
            if let Err(e) = std::fs::File::create(path) {
                eprintln!("cannot create {what} {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let mut obs_ring_dropped = 0.0f64;
    let mut obs_sink_errors = 0.0f64;
    let mut obs_reporting = false;
    for id in ids {
        match run_experiment(
            &id,
            quick,
            events.as_deref(),
            metrics.as_deref(),
            bench.as_deref(),
        ) {
            Some(report) => {
                for (key, value) in &report.metrics {
                    match key.as_str() {
                        "obs_ring_dropped" => {
                            obs_ring_dropped += value;
                            obs_reporting = true;
                        }
                        "obs_sink_errors" => {
                            obs_sink_errors += value;
                            obs_reporting = true;
                        }
                        _ => {}
                    }
                }
                if json {
                    println!("{}", report.json_line());
                } else {
                    println!("{}", "=".repeat(78));
                    println!("{}", report.text);
                }
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}' (expected {}..{} or all)",
                    EXPERIMENTS[0],
                    EXPERIMENTS[EXPERIMENTS.len() - 1]
                );
                std::process::exit(2);
            }
        }
    }
    if obs_reporting {
        eprintln!(
            "obs health: ring_dropped={} sink_errors={}{}",
            obs_ring_dropped as u64,
            obs_sink_errors as u64,
            if obs_ring_dropped > 0.0 || obs_sink_errors > 0.0 {
                " — event logs are degraded (truncated ring or failed sink writes)"
            } else {
                ""
            }
        );
    }
}

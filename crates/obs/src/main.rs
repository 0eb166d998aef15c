//! `obs` — flight-recorder tooling.
//!
//! ```sh
//! # record a log, then reconstruct why the control plane acted on vip 0
//! cargo run -p bench --release --bin expt -- e17 --quick --events events.jsonl
//! cargo run -p obs -- explain --events events.jsonl --vip 0 --epoch 42
//! # ...or over a range of epochs
//! cargo run -p obs -- explain --events events.jsonl --vip 0 --epoch 40..60
//!
//! # render the run report: epoch timeline + phase heat + SLO summary
//! cargo run -p obs -- report --events events.jsonl
//! cargo run -p obs -- report --bench BENCH_scale.json
//! ```
//!
//! `explain` filters the (possibly multi-run) JSONL event log down to
//! one VIP / app / pod, prints the causal chain chronologically, and
//! cross-checks every global-manager event against its declared
//! footprint (`obs::footprint`). `report` renders the run-level view:
//! an epoch timeline with SLO scoring from the `EpochHealth` roll-ups,
//! per-phase activity heat, and (in `--bench` mode) the E19 per-phase
//! wall-time heat with critical-path attribution.

#![forbid(unsafe_code)]

use obs::explain::{explain, parse_epoch_range, parse_log, Query};
use obs::report::{bench_report, events_report};
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "usage: obs explain --events PATH [--vip ID] [--app ID] [--pod ID] \
                     [--epoch N | --epoch LO..HI] [--run SUBSTR]\n\
       obs report --events PATH [--run SUBSTR]\n\
       obs report --bench PATH";

fn parse_id<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<T>()
        .map_err(|e| format!("bad {flag} value {raw:?}: {e}"))
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run_explain<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<String, String> {
    let mut events_path: Option<String> = None;
    let mut query = Query::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--events" => {
                events_path = Some(
                    it.next()
                        .ok_or_else(|| "--events needs a path".to_string())?
                        .clone(),
                )
            }
            "--vip" => query.vip = Some(parse_id("--vip", it.next())?),
            "--app" => query.app = Some(parse_id("--app", it.next())?),
            "--pod" => query.pod = Some(parse_id("--pod", it.next())?),
            "--epoch" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--epoch needs a value (N or LO..HI)".to_string())?;
                query.epoch = Some(parse_epoch_range(raw)?);
            }
            "--run" => {
                query.run = Some(
                    it.next()
                        .ok_or_else(|| "--run needs a substring".to_string())?
                        .clone(),
                )
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let path = events_path.ok_or_else(|| format!("--events is required\n{USAGE}"))?;
    let log = parse_log(&read(&path)?)?;
    Ok(explain(&log, &query))
}

fn run_report<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<String, String> {
    let mut events_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut run_filter = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--events" => {
                events_path = Some(
                    it.next()
                        .ok_or_else(|| "--events needs a path".to_string())?
                        .clone(),
                )
            }
            "--bench" => {
                bench_path = Some(
                    it.next()
                        .ok_or_else(|| "--bench needs a path".to_string())?
                        .clone(),
                )
            }
            "--run" => {
                run_filter = it
                    .next()
                    .ok_or_else(|| "--run needs a substring".to_string())?
                    .clone()
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let mut out = String::new();
    if let Some(path) = &events_path {
        out.push_str(&events_report(&read(path)?, &run_filter)?);
    }
    if let Some(path) = &bench_path {
        out.push_str(&bench_report(&read(path)?)?);
    }
    if events_path.is_none() && bench_path.is_none() {
        return Err(format!("report needs --events and/or --bench\n{USAGE}"));
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("explain") => run_explain(it),
        Some("report") => run_report(it),
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

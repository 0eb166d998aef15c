//! `megabench`: host-time benchmark of the megadc epoch engine.
//!
//! ```text
//! megabench run --seed <u64> [--workload <name>] [--seconds <n>] [--trace <0|1>]
//! megabench compare <runsA.jsonl> <runsB.jsonl> [--bench <BENCHMARK.json>]
//! ```
//!
//! `run` drives `Platform` in a closed loop (one client, one engine
//! thread, each epoch issued when the previous step returns) for about
//! `--seconds` seconds, checks every timed epoch, and prints a header line
//! and then, as its last line, one JSON result with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Without
//! `--workload` it runs every workload in turn, each in a child process.
//! See README.md.

#![forbid(unsafe_code)]

mod compare;
mod engine;
mod layers;
mod workloads;

use engine::{mean, median, Run};
use obs::json::{write_f64, write_str};
use std::process::{Command, ExitCode};
use workloads::{Kind, Workload};

/// `--seconds` when not given (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 20;

/// Settings that make the binary measure a different program.
const FOREIGN_ENV: [&str; 3] = ["MEGADC_SHUFFLE", "MEGADC_THREADS", "MEGADC_METRICS"];

const USAGE: &str = "usage: megabench run --seed <u64> [--workload <name>] [--seconds <n>] [--trace <0|1>]\n       megabench compare <runsA.jsonl> <runsB.jsonl> [--bench <BENCHMARK.json>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    ExitCode::from(code)
}

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => out.seconds = number()?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.seed = seed.ok_or("--seed is required")?;
    Ok(out)
}

/// Refuse to measure a build or an environment that changes the program.
fn environment_guard() -> Result<(), String> {
    if let Some(var) = FOREIGN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it measures a different program, so unset it"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("built with debug assertions; build with --release".into());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> u8 {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("megabench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = environment_guard() {
        eprintln!("megabench: {e}");
        return 2;
    }
    match args.workload {
        Some(w) => run_one(&w, &args),
        None => run_all(&args),
    }
}

/// Run every workload in turn, each in its own child process, so each
/// one's peak RSS is its own.
fn run_all(args: &RunArgs) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("megabench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in workloads::ALL {
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("megabench: {} exited with {s}", w.name);
                code = 1;
            }
            Err(e) => {
                eprintln!("megabench: cannot start {}: {e}", w.name);
                code = 1;
            }
        }
    }
    code
}

fn run_one(w: &Workload, args: &RunArgs) -> u8 {
    let run = match engine::run(w, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("megabench: {}: {e}", w.name);
            return 1;
        }
    };
    for f in &run.failures {
        eprintln!("megabench: {f}");
    }
    let metrics = match &run.trace {
        Some(trace) => trace.metrics(median(&run.epoch_s)),
        None => match end_to_end(&run) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("megabench: {}: {e}", w.name);
                return 1;
            }
        },
    };
    println!("{}", header(w, args, &run));
    let correct = run.failed == 0;
    println!("{}", result(correct, &run, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// The end-to-end metrics of an untraced run, as `(name, value, unit)`.
fn end_to_end(run: &Run) -> Result<Vec<(String, f64, &'static str)>, String> {
    Ok(vec![
        ("epoch_s_p50".into(), median(&run.epoch_s), "s"),
        ("epoch_s_mean".into(), mean(&run.epoch_s), "s"),
        ("setup_s".into(), median(&run.setup_s), "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".into())
}

/// The run header: what ran, its sizes, and its digest.
fn header(w: &Workload, args: &RunArgs, run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_episode = match w.kind {
        Kind::Chaos => w.timed * w.size as u64,
        _ => w.timed,
    };
    let mut out = String::from("{\"megabench\":\"header\",\"workload\":");
    write_str(w.name, &mut out);
    out.push_str(",\"why\":");
    write_str(w.why, &mut out);
    let s = &run.sizes;
    for (key, value) in [
        ("seed", args.seed),
        ("trace", u64::from(args.trace)),
        ("seconds", args.seconds),
        ("nproc", nproc as u64),
        ("warmup_epochs", w.warmup),
        ("timed_epochs_per_episode", per_episode),
        (
            "builds_per_episode",
            if w.kind == Kind::Chaos { w.size } else { 1 } as u64,
        ),
        ("episodes", run.episodes as u64),
        ("apps", s.apps as u64),
        ("vips", s.vips as u64),
        ("rips", s.rips as u64),
        ("vms", s.vms as u64),
        ("pods", s.pods as u64),
    ] {
        out.push_str(&format!(",\"{key}\":{value}"));
    }
    out.push_str(",\"served_fraction\":");
    write_f64(run.served_fraction, &mut out);
    out.push_str(&format!(",\"sim_digest\":\"{:016x}\"", run.digest));
    if let Some(trace) = &run.trace {
        out.push_str(",\"calls\":{");
        for (i, (name, calls)) in trace.calls().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(name, &mut out);
            out.push_str(&format!(":{calls}"));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The result line, printed last on standard output.
fn result(correct: bool, run: &Run, metrics: &[(String, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(name, &mut out);
        out.push_str(":{\"value\":");
        write_f64(*value, &mut out);
        out.push_str(",\"unit\":");
        write_str(unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Json;

    fn bench() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(bench: &Json, key: &str) -> Vec<String> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn emitted_end_to_end() -> Vec<String> {
        end_to_end(&Run::default())
            .expect("metrics")
            .into_iter()
            .map(|m| m.0)
            .collect()
    }

    fn emitted_per_layer() -> Vec<String> {
        layers::LayerTrace::new(0)
            .metrics(0.0)
            .into_iter()
            .map(|m| m.0)
            .collect()
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for name in emitted_end_to_end().into_iter().chain(emitted_per_layer()) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
        }
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let bench = bench();
        assert_eq!(declared(&bench, "end_to_end"), emitted_end_to_end());
        assert_eq!(declared(&bench, "per_layer"), emitted_per_layer());
        let names: Vec<String> = workloads::ALL.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(declared(&bench, "workloads"), names);
        for (w, decl) in workloads::ALL.iter().zip(
            bench
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads"),
        ) {
            assert_eq!(
                decl.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn result_line_parses() {
        let run = Run::default();
        let line = result(true, &run, &end_to_end(&run).expect("metrics"));
        let doc = obs::json::parse(&line).expect("result parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn run_args_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_run_args(&args(
            "--workload chaos-small --seed 4 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 3, true));
        assert!(parse_run_args(&args("--seconds 3")).is_err());
        assert!(parse_run_args(&args("--seed 1 --trace 2")).is_err());
        assert!(parse_run_args(&args("--seed 1 --workload nope")).is_err());
        assert!(parse_run_args(&args("--seed")).is_err());
    }
}

//! `benchcmp` — compare a baseline `BENCH_scale.json` (E19 output) with
//! one or more candidate runs and fail on wall-time regressions beyond a
//! tolerance band.
//!
//! ```sh
//! cargo run --release -p megadc-bench --bin benchcmp -- \
//!     BENCH_scale.json /tmp/B1.json /tmp/B2.json /tmp/B3.json --tolerance 0.15
//! ```
//!
//! With several candidates, each measurement gates on its median across
//! them, so one run slowed by host noise cannot fail the gate; the
//! `served_final` and `pod_rounds_solved` checks below apply to every
//! candidate file.
//!
//! For every tier present in *both* documents and every key in both
//! `wall_per_epoch_s` maps (`t1`), the candidate must satisfy
//! `candidate <= baseline * (1 + tolerance)` (default 0.15, i.e. a >15%
//! per-epoch wall-time regression fails). The optional `build_s`,
//! demand and per-phase columns gate at twice that band (see
//! `megadc_bench::benchcmp`). Keys present on only one side
//! are *named* in the output and excluded from the verdict — a baseline
//! regenerated at `--quick` (30k tier only) still gates a full
//! candidate run — and zero overlap is a hard error spelling out both
//! key sets, so a renamed tier or key can never pass vacuously.
//! Malformed documents (missing `tiers`, unlabeled tiers, empty or
//! non-numeric wall maps) are errors too, never panics or silent
//! skips; the comparison itself lives in `megadc_bench::benchcmp`.
//! A tier whose `served_final` differs from the baseline's bits is an
//! error too: a speed-up may not change model output. So is a tier
//! whose `pod_rounds_solved` rose: that count is deterministic, so this
//! part of the gate cannot trip on host noise.
//! Exit code 0 = within tolerance, 1 = regression, 2 = usage/parse/
//! schema error, changed `served_final` or risen `pod_rounds_solved`.
//!
//! Wall-clock measurements are inherently noisy; the tolerance band is
//! the contract. Improvements are never failures — ratcheting the
//! baseline *down* is done by committing a fresh `BENCH_scale.json`.

#![forbid(unsafe_code)]

use megadc_bench::benchcmp;
use obs::json::Json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: benchcmp <baseline.json> <candidate.json>... [--tolerance <frac>]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.15f64;
    if let Some(i) = args.iter().position(|a| a == "--tolerance") {
        if i + 1 >= args.len() {
            return usage();
        }
        match args.remove(i + 1).parse::<f64>() {
            Ok(t) if t >= 0.0 => tolerance = t,
            _ => return usage(),
        }
        args.remove(i);
    }
    let [baseline_path, candidate_paths @ ..] = &args[..] else {
        return usage();
    };
    if candidate_paths.is_empty() {
        return usage();
    }
    let docs: Result<Vec<Json>, String> = std::iter::once(baseline_path)
        .chain(candidate_paths)
        .map(|path| load(path))
        .collect();
    let report =
        match docs.and_then(|docs| benchcmp::compare_median(&docs[0], &docs[1..], tolerance)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchcmp: {e}");
                return ExitCode::from(2);
            }
        };
    print!("{}", report.render());
    if report.regressions() > 0 {
        eprintln!(
            "benchcmp: {}/{} measurements regressed beyond tolerance",
            report.regressions(),
            report.compared()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "benchcmp: all {} measurements within tolerance",
        report.compared()
    );
    ExitCode::SUCCESS
}

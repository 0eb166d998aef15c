//! `megabench compare <runsA.jsonl> <runsB.jsonl> [--bench <BENCHMARK.json>]`
//!
//! Each file holds the standard output of any number of `megabench run`
//! invocations (header and result lines). For every (workload, metric)
//! it prints each side's median, quartiles and spread (quartile distance
//! over median) across runs, and flags a metric whose median on side B is
//! worse than on side A by more than its bound in BENCHMARK.json. It also
//! flags a `sim_digest` that differs between runs of one (workload, seed),
//! on either side or across them, and any run that was not correct. Exits
//! 1 when anything is flagged.

use crate::engine::median;
use obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// How a metric is judged, from BENCHMARK.json.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// One side's runs.
#[derive(Default)]
struct Side {
    /// (workload, metric) → value of each run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed) → digests seen.
    digests: BTreeMap<(String, u64), BTreeSet<String>>,
    /// Runs that reported `correct: false` or failures.
    incorrect: Vec<String>,
}

pub fn cmd(args: &[String]) -> u8 {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(p) => bench_path = p.clone(),
                None => return usage("--bench needs a path"),
            },
            _ => files.push(a.clone()),
        }
    }
    if files.len() != 2 {
        return usage("expected two run files");
    }
    let loaded = load_rules(&bench_path).and_then(|rules| {
        let a = load_side(&files[0])?;
        let b = load_side(&files[1])?;
        Ok((rules, a, b))
    });
    match loaded {
        Ok((rules, a, b)) => {
            let (report, flagged) = compare(&rules, &a, &b);
            print!("{report}");
            u8::from(flagged)
        }
        Err(e) => {
            eprintln!("megabench compare: {e}");
            2
        }
    }
}

fn usage(msg: &str) -> u8 {
    eprintln!("megabench compare: {msg}\n{}", crate::USAGE);
    2
}

fn load_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: {key} entry without a name"))?;
            rules.insert(
                name.to_string(),
                Rule {
                    lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

fn load_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_side(&text)
}

fn parse_side(text: &str) -> Result<Side, String> {
    let mut side = Side::default();
    let mut current: Option<(String, u64)> = None;
    for line in text.lines() {
        let Ok(doc) = obs::json::parse(line) else {
            continue;
        };
        if doc.get("megabench").and_then(Json::as_str) == Some("header") {
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
            if let Some(d) = doc.get("sim_digest").and_then(Json::as_str) {
                side.digests
                    .entry((workload.clone(), seed))
                    .or_default()
                    .insert(d.to_string());
            }
            current = Some((workload, seed));
        } else if let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) {
            let (workload, seed) = current.take().ok_or("result line without a header line")?;
            let correct = doc.get("correct") == Some(&Json::Bool(true));
            if !correct || doc.get("failed").and_then(Json::as_u64) != Some(0) {
                side.incorrect.push(format!("{workload} seed {seed}"));
            }
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    side.values
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
/// "exclusive" method); all three equal the value for a single run.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    q
}

fn describe(v: &[f64]) -> String {
    let [q1, _, q3] = quartiles(v);
    let med = median(v);
    let spread = if med.abs() > 0.0 {
        (q3 - q1) / med.abs()
    } else {
        0.0
    };
    format!(
        "{med:.6e} [{q1:.6e}, {q3:.6e}] n={} spread={:.2}%",
        v.len(),
        spread * 100.0
    )
}

/// The comparison report, and whether anything was flagged.
fn compare(rules: &BTreeMap<String, Rule>, a: &Side, b: &Side) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    let keys: BTreeSet<_> = a.values.keys().chain(b.values.keys()).collect();
    for key @ (workload, metric) in keys {
        let (va, vb) = (a.values.get(key), b.values.get(key));
        out.push_str(&format!("{workload} {metric}\n"));
        for (label, v) in [("A", va), ("B", vb)] {
            if let Some(v) = v {
                out.push_str(&format!("  {label}: {}\n", describe(v)));
            }
        }
        let (Some(va), Some(vb)) = (va, vb) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if ma.abs() > 0.0 {
            (mb - ma) / ma.abs()
        } else {
            0.0
        };
        let rule = rules.get(metric);
        let worse = match rule {
            Some(r) if r.lower_is_better => change,
            Some(_) => -change,
            None => 0.0,
        };
        let verdict = match rule.and_then(|r| r.bound) {
            Some(bound) if worse > bound => {
                flagged = true;
                format!(
                    "REGRESSION: worse by {:.2}% > bound {:.2}%",
                    worse * 100.0,
                    bound * 100.0
                )
            }
            Some(bound) => format!("ok within bound {:.2}%", bound * 100.0),
            None => "no bound".to_string(),
        };
        out.push_str(&format!("  B vs A: {:+.2}%  {verdict}\n", change * 100.0));
    }
    let mut digests: BTreeMap<&(String, u64), BTreeSet<&String>> = BTreeMap::new();
    for (key, ds) in a.digests.iter().chain(&b.digests) {
        digests.entry(key).or_default().extend(ds);
    }
    for ((workload, seed), ds) in digests {
        if ds.len() > 1 {
            flagged = true;
            let list: Vec<&str> = ds.iter().map(|d| d.as_str()).collect();
            out.push_str(&format!(
                "DIGEST MISMATCH: {workload} seed {seed}: {}\n",
                list.join(" ")
            ));
        }
    }
    for (label, side) in [("A", a), ("B", b)] {
        for run in &side.incorrect {
            flagged = true;
            out.push_str(&format!("INCORRECT RUN on side {label}: {run}\n"));
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    fn side(runs: &[(&str, f64)]) -> Side {
        let mut text = String::new();
        for (digest, v) in runs {
            text.push_str(&format!(
                "{{\"megabench\":\"header\",\"workload\":\"w\",\"seed\":1,\"sim_digest\":\"{digest}\"}}\n\
                 {{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"epoch_s_p50\":{{\"value\":{v},\"unit\":\"s\"}}}}}}\n"
            ));
        }
        parse_side(&text).expect("parses")
    }

    #[test]
    fn flags_regressions_and_digest_mismatches() {
        let mut rules = BTreeMap::new();
        rules.insert(
            "epoch_s_p50".to_string(),
            Rule {
                lower_is_better: true,
                bound: Some(0.1),
            },
        );
        let a = side(&[("d1", 1.0), ("d1", 1.02)]);
        let (_, flagged) = compare(&rules, &a, &side(&[("d1", 1.05)]));
        assert!(!flagged);
        let (report, flagged) = compare(&rules, &a, &side(&[("d1", 1.3)]));
        assert!(flagged && report.contains("REGRESSION"), "{report}");
        let (report, flagged) = compare(&rules, &a, &side(&[("d2", 1.0)]));
        assert!(flagged && report.contains("DIGEST MISMATCH"), "{report}");
    }
}

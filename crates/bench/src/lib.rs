//! # megadc-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md's index (E1–E19). Each
//! experiment regenerates the corresponding table from the paper's
//! analysis (or from the evaluation the paper promises as ongoing work)
//! and returns it as rendered text; the `expt` binary prints it.
//!
//! Run everything:
//!
//! ```sh
//! cargo run --release -p megadc-bench --bin expt -- all
//! ```
//!
//! or a single experiment (`e1` … `e19`). Pass `--quick` for smaller
//! sweeps (used in CI).

#![forbid(unsafe_code)]

pub mod benchcmp;
pub mod experiments;
#[cfg(test)]
mod propagate_reference;

pub use experiments::run_experiment;

/// One experiment's rendered table plus its machine-readable summary.
///
/// `metrics` keeps insertion order, and [`Report::json_line`] serializes
/// it in exactly that order — rerunning the same experiment produces a
/// byte-identical line, so JSONL outputs diff cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id (`"e1"` … `"e19"`).
    pub id: String,
    /// The rendered human-readable report.
    pub text: String,
    /// Named summary metrics in stable order.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// A report with no machine-readable metrics (text only).
    pub fn text_only(id: &str, text: String) -> Self {
        Report {
            id: id.to_string(),
            text,
            metrics: Vec::new(),
        }
    }

    /// Append one named metric (builder-style).
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// One JSON line: `{"experiment":"e17","metrics":{...}}` with keys in
    /// insertion order (non-finite values serialize as `null`).
    pub fn json_line(&self) -> String {
        let mut out = String::from("{\"experiment\":");
        obs::json::write_str(&self.id, &mut out);
        out.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            obs::json::write_str(k, &mut out);
            out.push(':');
            obs::json::write_f64(*v, &mut out);
        }
        out.push_str("}}");
        out
    }
}

/// The experiment ids, in order.
pub const EXPERIMENTS: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19",
];

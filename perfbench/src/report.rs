//! The metric registry and the one-line JSON result.
//!
//! Every workload emits every metric of its mode: the end-to-end set when
//! run untraced, the per-layer set when traced. A per-layer metric whose
//! layer does no work on a workload reads 0 there (for example the serve
//! counters on a batch workload); the end-to-end metrics are defined for
//! every workload and are never 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Kept in step with `BENCHMARK.json`
/// by the smoke test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("max_rate", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_s", "s"),
    ("graph.parse_mb_per_s", "MB/s"),
    ("graph.csr_s", "s"),
    ("graph.csc_s", "s"),
    ("vsparse.build_s", "s"),
    ("vsparse.packing_eff", "ratio"),
    ("vsparse.edge_bytes", "bytes"),
    ("engine.supersteps", "count"),
    ("engine.pull_steps", "count"),
    ("engine.push_steps", "count"),
    ("engine.compacted_steps", "count"),
    ("engine.edge_s", "s"),
    ("engine.work_s", "s"),
    ("engine.vertex_s", "s"),
    ("engine.other_s", "s"),
    ("engine.vectors", "count"),
    ("engine.direct_stores", "count"),
    ("engine.merge_entries", "count"),
    ("engine.push_updates", "count"),
    ("engine.spa_entries", "count"),
    ("engine.bytes_per_edge", "bytes"),
    ("engine.medges_per_s", "Medges/s"),
    ("engine.roof_frac", "ratio"),
    ("sched.merge_s", "s"),
    ("sched.idle_s", "s"),
    ("sched.idle_frac", "ratio"),
    ("sched.scaling_eff", "ratio"),
    ("serve.exec_ms.bfs", "ms"),
    ("serve.exec_ms.reach64", "ms"),
    ("serve.exec_ms.update", "ms"),
    ("serve.packed_frac", "ratio"),
    ("serve.queue_depth.max", "count"),
    ("serve.submit_us.p50", "us"),
    ("serve.merges", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.update_lat_ms.p50", "ms"),
    ("serve.max_qps", "1/s"),
    ("serve.lat_p50_ms.low", "ms"),
    ("serve.lat_p90_ms.low", "ms"),
    ("serve.lat_p50_ms.high", "ms"),
    ("serve.lat_p90_ms.high", "ms"),
    ("host.stream_gb_s.t1", "GB/s"),
    ("host.stream_gb_s.t2", "GB/s"),
    ("trace.overhead", "ratio"),
    ("loadgen.late_ms.max", "ms"),
    ("loadgen.sent", "count"),
    ("fail_frac", "ratio"),
];

/// The metric set a run of the given mode must emit.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: analytics jobs, or requests sent at the named
    /// rates.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, an error, a shed or an
    /// expired request.
    pub failed: u64,
    /// Wrong answers anywhere in the run (ladder rungs included).
    pub wrong: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`, which must be registered in one of the sets.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Counts one checked operation: `correct == false` is a wrong answer,
    /// and so also a failed operation.
    pub fn count(&mut self, correct: bool) {
        self.attempted += 1;
        if !correct {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line for `trace` mode, or names the first metric
    /// of the mode that is missing or not a finite number.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in registry(trace).iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{v}` prints a finite f64 with all its digits and never in
            // exponent form, so it is always a valid JSON number.
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Nearest-rank quantile of `samples` (`q` in 0..=1); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    grazelle_bench::report::median(&mut samples.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn missing_metric_refuses_to_render() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("setup_s", 1.5);
        assert!(r.to_json(false).unwrap_err().contains("peak_heap_mb"));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

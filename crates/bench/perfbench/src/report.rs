//! Metric names, units, and the result line.
//!
//! The end-to-end and per-layer tables here are the benchmark's
//! contract: every run prints exactly one of them as the `metrics`
//! object of its last line, in table order, and `BENCHMARK.json` lists
//! the same names and units.

use std::collections::BTreeMap;

use crate::profile::{Frame, Profiler};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Values are per
/// timed repetition; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.events", "count"),
    ("sim.deliveries", "count"),
    ("sim.timer_fires", "count"),
    ("sim.run_until_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("net.frames", "count"),
    ("net.frame_bytes", "B"),
    ("net.udp_parse_ns", "ns"),
    ("net.switch_self_s", "s"),
    ("kvs.client_self_s", "s"),
    ("kvs.lake_self_s", "s"),
    ("kvs.memcached_self_s", "s"),
    ("kvs.decode_ns", "ns"),
    ("kvs.lake_hw_frac", "ratio"),
    ("kvs.drops", "count"),
    ("dns.client_self_s", "s"),
    ("dns.emu_self_s", "s"),
    ("dns.nsd_self_s", "s"),
    ("dns.decode_ns", "ns"),
    ("dns.emu_hw_frac", "ratio"),
    ("dns.drops", "count"),
    ("paxos.client_self_s", "s"),
    ("paxos.node_self_s", "s"),
    ("paxos.msg_decode_ns", "ns"),
    ("paxos.retries", "count"),
    ("paxos.cluster_s", "s"),
    ("paxos.compact_s", "s"),
    ("paxos.votes_per_commit", "ratio"),
    ("paxos.dropped", "count"),
    ("paxos.duplicated", "count"),
    ("paxos.max_ballot", "count"),
    ("ondemand.sample_s", "s"),
    ("ondemand.sample_p50_us", "us"),
    ("ondemand.sample_p99_us", "us"),
    ("ondemand.apply_s", "s"),
    ("ondemand.dirty_enqueued", "count"),
    ("ondemand.pods_solved", "count"),
    ("ondemand.coordinator_runs", "count"),
    ("ondemand.candidates_scored", "count"),
    ("ondemand.shifts", "count"),
    ("stats.probe_s", "s"),
    ("stats.hist_records", "count"),
    ("stats.timeline_rows", "count"),
    ("bench.gen_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("trace.redecode_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reps", "count"),
];

/// The per-layer seconds metric a frame's self time is reported under.
/// These metrics partition the traced wall time: together with
/// `bench.unattributed_s` they add up to `bench.traced_wall_s`.
pub fn self_time_metric(frame: Frame) -> Option<&'static str> {
    Some(match frame {
        Frame::Rep | Frame::Check => return None,
        Frame::Gen => "bench.gen_s",
        Frame::RunUntil => "sim.self_s",
        Frame::Switch => "net.switch_self_s",
        Frame::KvsClient => "kvs.client_self_s",
        Frame::Lake => "kvs.lake_self_s",
        Frame::Memcached => "kvs.memcached_self_s",
        Frame::DnsClient => "dns.client_self_s",
        Frame::Emu => "dns.emu_self_s",
        Frame::Nsd => "dns.nsd_self_s",
        Frame::PaxosClient => "paxos.client_self_s",
        Frame::PaxosNode => "paxos.node_self_s",
        Frame::UdpParse | Frame::KvsDecode | Frame::DnsDecode | Frame::PaxosDecode => {
            "trace.redecode_s"
        }
        Frame::Probe => "stats.probe_s",
        Frame::Sample => "ondemand.sample_s",
        Frame::Apply => "ondemand.apply_s",
        Frame::Cluster => "paxos.cluster_s",
        Frame::Compact => "paxos.compact_s",
    })
}

/// The `q`-quantile of `values` (nearest rank; 0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Keeps the first repetition's outcome (so later ones need not be
/// stored) and returns whether `outcome` equals it.
pub fn matches_first<T: PartialEq>(first: &mut Option<T>, outcome: T) -> bool {
    match first {
        Some(f) => *f == outcome,
        None => {
            *first = Some(outcome);
            true
        }
    }
}

/// `"min … max"` of `values`, for figure notes.
pub fn range(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("range {} … {}", fmt_num(lo), fmt_num(hi))
}

/// The quantile of a run's samples that its time figures report.
///
/// The host is a few cores of a shared machine whose speed drifts
/// between fast and slow phases lasting seconds: the same repetition
/// took 0.55 s in one phase and 0.87 s in another. A run's median
/// follows the share of it that fell in slow phases; a low quantile of
/// short samples spread over the whole run follows the time the work
/// takes when the host is not contended, which is what a change to the
/// program moves.
pub const FAST_Q: f64 = 0.1;

/// Host seconds of every timed repetition of a run, lap by lap: a lap
/// is a fixed piece of the workload (a block of ticks, a fault phase)
/// that does the same work in every repetition.
#[derive(Clone, Debug, Default)]
pub struct Laps {
    by_lap: Vec<Vec<f64>>,
}

impl Laps {
    /// Adds one repetition's laps.
    pub fn push(&mut self, laps: &[f64]) {
        if self.by_lap.is_empty() {
            self.by_lap = vec![Vec::new(); laps.len()];
        }
        assert_eq!(
            laps.len(),
            self.by_lap.len(),
            "every repetition has the same laps"
        );
        for (all, &s) in self.by_lap.iter_mut().zip(laps) {
            all.push(s);
        }
    }

    /// Repetitions added.
    pub fn reps(&self) -> usize {
        self.by_lap.first().map_or(0, Vec::len)
    }

    /// Laps per repetition.
    pub fn laps(&self) -> usize {
        self.by_lap.len()
    }

    /// Each repetition's total seconds.
    pub fn totals(&self) -> Vec<f64> {
        (0..self.reps())
            .map(|r| self.by_lap.iter().map(|lap| lap[r]).sum())
            .collect()
    }

    /// Seconds of one repetition at the host's fast speed: the sum over
    /// laps of each lap's [`FAST_Q`] quantile over the repetitions.
    pub fn fast_s(&self) -> f64 {
        self.by_lap.iter().map(|lap| quantile(lap, FAST_Q)).sum()
    }

    /// How [`Laps::fast_s`] was taken and scaled by `scale`, with the
    /// unscaled and the median repetition for comparison, for figure
    /// notes.
    pub fn note(&self, scale: f64, what: &str) -> String {
        let totals = self.totals();
        let laps = match self.laps() {
            1 => String::new(),
            n => format!("sum over {n} laps of "),
        };
        format!(
            "{laps}p{:.0} over {} runs of {what}, scaled by {}; unscaled {} s, median run {} s, {}",
            FAST_Q * 100.0,
            self.reps(),
            fmt_num(scale),
            fmt_num(self.fast_s()),
            fmt_num(median(&totals)),
            range(&totals)
        )
    }
}

/// Per-layer values of a traced run: the timing part, from the
/// profile, divided by the number of traced repetitions. Counters the
/// workload knows are added by the caller.
pub fn layer_timings(p: &Profiler, reps: usize) -> BTreeMap<&'static str, f64> {
    let per_rep = |ns: u64| ns as f64 / 1e9 / reps.max(1) as f64;
    let mut m = BTreeMap::new();
    for f in Frame::ALL {
        if let Some(name) = self_time_metric(f) {
            *m.entry(name).or_insert(0.0) += per_rep(p.self_ns(f));
        }
    }
    let per_call = |f: Frame| {
        let calls = p.calls(f);
        if calls == 0 {
            0.0
        } else {
            p.total_ns(f) as f64 / calls as f64
        }
    };
    m.insert("sim.run_until_s", per_rep(p.total_ns(Frame::RunUntil)));
    m.insert("net.udp_parse_ns", per_call(Frame::UdpParse));
    m.insert("kvs.decode_ns", per_call(Frame::KvsDecode));
    m.insert("dns.decode_ns", per_call(Frame::DnsDecode));
    m.insert("paxos.msg_decode_ns", per_call(Frame::PaxosDecode));
    let samples_us: Vec<f64> = p.sample_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    m.insert("ondemand.sample_p50_us", quantile(&samples_us, 0.5));
    m.insert("ondemand.sample_p99_us", quantile(&samples_us, 0.99));
    m.insert("bench.traced_wall_s", per_rep(p.traced_wall_ns()));
    m.insert("bench.unattributed_s", per_rep(p.unattributed_ns()));
    let c = p.counters;
    let reps_f = reps.max(1) as f64;
    m.insert("sim.deliveries", c.deliveries as f64 / reps_f);
    m.insert("sim.timer_fires", c.timer_fires as f64 / reps_f);
    m.insert("net.frames", c.deliveries as f64 / reps_f);
    m.insert("net.frame_bytes", c.frame_bytes as f64 / reps_f);
    m.insert("trace.reps", reps as f64);
    m
}

/// One human-readable figure printed before the result line.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Optional qualifier (sample counts, definitions).
    pub note: String,
}

impl Figure {
    /// A figure without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Figure {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The printed line: `name value unit [note]`.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<28} {:>18} {}",
            self.name,
            fmt_num(self.value),
            self.unit
        );
        if !self.note.is_empty() {
            s.push_str("  (");
            s.push_str(&self.note);
            s.push(')');
        }
        s
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Operations that failed over the timed repetitions.
    pub failed: u64,
    /// Correctness checks that did not hold (empty when correct).
    pub failures: Vec<String>,
    /// The workload's end-to-end figures by name, printed before the
    /// result line.
    pub figures: Vec<Figure>,
    /// Values of the result-line metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a check: adds `what` to the failures unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Formats a value with all the digits it was measured with (the
/// shortest decimal that reads back as the same `f64`).
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `table` (missing ones read 0).
pub fn result_json(out: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert_eq!(END_TO_END[0], ("setup_s", "s"));
    }

    #[test]
    fn every_self_time_metric_is_a_per_layer_seconds_metric() {
        for f in Frame::ALL {
            if let Some(name) = self_time_metric(f) {
                let unit = PER_LAYER.iter().find(|(n, _)| *n == name).map(|e| e.1);
                assert_eq!(unit, Some("s"), "{:?} -> {name}", f);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text = include_str!("../../../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.metrics.insert("wall_s", 1.25);
        let line = result_json(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
        out.check(false, "broken");
        assert!(result_json(&out, &END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn fast_time_sums_each_laps_low_quantile() {
        let mut laps = Laps::default();
        // Ten repetitions of two laps, each lap fast in a different
        // repetition.
        for r in 0..10 {
            let a = if r == 3 { 1.0 } else { 2.0 + r as f64 };
            let b = if r == 7 { 10.0 } else { 20.0 + r as f64 };
            laps.push(&[a, b]);
        }
        assert_eq!((laps.reps(), laps.laps()), (10, 2));
        assert_eq!(laps.totals()[0], 22.0);
        // Nearest rank 0.1 * 9 = 0.9 -> the second smallest of each lap.
        assert_eq!(laps.fast_s(), 2.0 + 20.0);
        assert!(laps.fast_s() < median(&laps.totals()));
    }

    #[test]
    #[should_panic(expected = "the same laps")]
    fn repetitions_with_different_laps_are_a_bug() {
        let mut laps = Laps::default();
        laps.push(&[1.0, 2.0]);
        laps.push(&[1.0]);
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn per_layer_timings_partition_the_traced_wall() {
        let mut p = Profiler::new();
        p.enter_at(Frame::Rep, 0);
        p.enter_at(Frame::RunUntil, 0);
        p.enter_at(Frame::Switch, 100);
        p.exit_at(Frame::Switch, 300);
        p.enter_at(Frame::UdpParse, 300);
        p.exit_at(Frame::UdpParse, 340);
        p.exit_at(Frame::RunUntil, 1_000);
        p.enter_at(Frame::Sample, 1_000);
        p.exit_at(Frame::Sample, 1_500);
        p.exit_at(Frame::Rep, 2_000);
        let m = layer_timings(&p, 2);
        let partition: f64 = PER_LAYER
            .iter()
            .filter(|(n, _)| Frame::ALL.iter().any(|&f| self_time_metric(f) == Some(*n)))
            .map(|(n, _)| m.get(n).copied().unwrap_or(0.0))
            .sum();
        let wall = m["bench.traced_wall_s"];
        assert!((wall - 1e-6).abs() < 1e-15, "per-rep wall {wall}");
        assert!(m["bench.unattributed_s"] >= 0.0);
        assert!((partition + m["bench.unattributed_s"] - wall).abs() < 1e-15);
        assert!((m["sim.self_s"] - (1_000.0 - 200.0 - 40.0) / 2e9).abs() < 1e-15);
        assert_eq!(m["net.udp_parse_ns"], 40.0);
    }
}

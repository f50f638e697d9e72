//! The repository's benchmark: three workloads of the simulator run
//! from one single-threaded process, each printing its end-to-end
//! metrics (`--trace 0`) or its per-layer breakdown (`--trace 1`) and
//! checking that the program's outputs are correct.
//!
//! Wall-clock reads live only here and in the program's bench crate,
//! the paths the determinism lint exempts; nothing inside the program
//! is instrumented.

pub mod consensus;
pub mod fleet;
pub mod host;
pub mod multi_tor;
pub mod profile;
pub mod reference;
pub mod report;
pub mod traced;

use std::fs;
use std::io::{BufWriter, Write};
use std::time::Instant;

use profile::Profiler;

/// Timed blocks of set-up builds after each timed repetition, so the
/// blocks sample the host over the whole run like the laps do.
pub const SETUP_BLOCKS_PER_REP: usize = 3;
/// Least host seconds a block of builds lasts: one build (0.02–1 ms) is
/// too short to time steadily.
pub const SETUP_BLOCK_S: f64 = 0.005;
/// Runs of the [`reference`] kernel timed after each timed repetition.
pub const REF_RUNS_PER_REP: usize = 5;
/// Seconds one run of the [`reference`] kernel takes at the reference
/// speed: its 10th percentile on the 2-vCPU Xeon host the bounds were
/// set on, in a fast phase, rounded. Time figures are host seconds
/// scaled by this over the run's own reference time, so they read as
/// seconds at that speed.
pub const REF_S: f64 = 0.007;
/// Fewest timed repetitions per run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;
/// Where traced runs write their spans, relative to the working
/// directory.
pub const TRACE_DIR: &str = "perfbench-trace";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["multi_tor", "fleet_1000", "consensus_chaos"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => parsed.workload = value,
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                        return Err(bad(&"must be a positive number"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                parsed.workload
            ));
        }
        Ok(parsed)
    }
}

/// Host samples taken between the timed repetitions of a run: set-up
/// blocks and runs of the [`reference`] kernel.
#[derive(Clone, Debug, Default)]
pub struct Between {
    /// Seconds per build, one entry per set-up block.
    pub setups: Vec<f64>,
    /// Seconds per run of the reference kernel.
    pub refs: Vec<f64>,
}

impl Between {
    /// Times [`SETUP_BLOCKS_PER_REP`] blocks of build-and-drop cycles,
    /// each lasting at least [`SETUP_BLOCK_S`], then
    /// [`REF_RUNS_PER_REP`] runs of the reference kernel.
    pub fn sample<T>(&mut self, mut build: impl FnMut() -> T) {
        for _ in 0..SETUP_BLOCKS_PER_REP {
            let t = Instant::now();
            let mut builds = 0u32;
            while builds == 0 || t.elapsed().as_secs_f64() < SETUP_BLOCK_S {
                std::hint::black_box(build());
                builds += 1;
            }
            self.setups
                .push(t.elapsed().as_secs_f64() / f64::from(builds));
        }
        for _ in 0..REF_RUNS_PER_REP {
            let t = Instant::now();
            std::hint::black_box(reference::run());
            self.refs.push(t.elapsed().as_secs_f64());
        }
    }

    /// The run's reference time: the [`report::FAST_Q`] quantile of its
    /// runs of the reference kernel.
    pub fn reference_s(&self) -> f64 {
        report::quantile(&self.refs, report::FAST_Q)
    }

    /// The factor from this run's host seconds to seconds at the
    /// reference speed.
    pub fn scale(&self) -> f64 {
        REF_S / self.reference_s()
    }

    /// Seconds per build at the reference speed: the
    /// [`report::FAST_Q`] quantile of the set-up blocks, scaled.
    pub fn setup_s(&self) -> f64 {
        report::quantile(&self.setups, report::FAST_Q) * self.scale()
    }

    /// The figures every workload prints for these samples.
    pub fn figures(&self) -> [report::Figure; 2] {
        let q = report::FAST_Q * 100.0;
        [
            report::Figure::new("setup_s", self.setup_s(), "s").note(format!(
                "per build, scaled: p{q:.0} of {} blocks of at least {} ms of build-and-drop \
                 cycles spread over the run; unscaled {} s",
                self.setups.len(),
                SETUP_BLOCK_S * 1e3,
                report::fmt_num(report::quantile(&self.setups, report::FAST_Q))
            )),
            report::Figure::new("reference_s", self.reference_s(), "s").note(format!(
                "host s of one run of the reference kernel, p{q:.0} of {}; time figures \
                 are scaled by {REF_S} s over this",
                self.refs.len()
            )),
        ]
    }
}

/// Runs the selected workload.
pub fn run(args: &Args) -> report::Outcome {
    match args.workload.as_str() {
        "multi_tor" => multi_tor::run(args),
        "fleet_1000" => fleet::run(args),
        "consensus_chaos" => consensus::run(args),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Writes a traced run's recorded spans to
/// `perfbench-trace/<workload>-seed<seed>.csv`; a write failure is
/// reported, not fatal (the spans are diagnostics, not results).
pub fn write_spans(args: &Args, p: &Profiler) {
    let path = format!("{TRACE_DIR}/{}-seed{}.csv", args.workload, args.seed);
    let written = fs::create_dir_all(TRACE_DIR)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            p.write_spans(&mut w)?;
            w.flush()
        });
    match written {
        Ok(()) => println!("# spans: {} written to {path}", p.spans.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_1000 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet_1000".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_values() {
        assert!(args("--workload heavy --seed 1").is_err());
        assert!(args("--workload multi_tor --trace 2").is_err());
        assert!(args("--workload multi_tor --seconds -1").is_err());
        assert!(args("--workload multi_tor --seed").is_err());
    }
}

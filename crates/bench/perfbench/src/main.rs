//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host tag, the workload's figures, any failed checks, and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` lists. Exits non-zero when
//! a correctness check fails.

use std::process::ExitCode;

use inc_perfbench::report::{result_json, END_TO_END, PER_LAYER};
use inc_perfbench::{host, run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", host::tag());
    println!(
        "# workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = run(&args);
    for f in &out.figures {
        println!("{}", f.line());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        println!("# per-layer, per repetition:");
        for (name, unit) in table {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            println!(
                "{name:<28} {:>18} {unit}",
                inc_perfbench::report::fmt_num(v)
            );
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", result_json(&out, table));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

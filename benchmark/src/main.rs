//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --smoke
//! benchmark --compare A.json B.json [--contract BENCHMARK.json]
//! ```
//!
//! The last line a run prints on standard output is the one-line result
//! object; the table for people goes to standard error.

use benchmark::report::Outcome;
use benchmark::workload::{spec_named, Spec, SPECS};
use benchmark::{compare, timed, traced};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Windows of a timed run; `--seconds` is divided among them.
const WINDOWS: usize = 10;
/// Requests of a traced run: fixed, so that class counts repeat exactly.
const TRACED_REQUESTS: usize = 20_000;

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --smoke
       benchmark --compare A.json B.json [--contract BENCHMARK.json]
workloads: front_hot lib_hot lib_coop_tcp lib_churn_rw";

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    contract: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
        contract: "BENCHMARK.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(spec_named(&name).ok_or(format!("no workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--contract" => args.contract = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(spec: Spec, args: &Args, process_start: Instant) -> Outcome {
    match (args.trace, args.smoke) {
        (false, false) => timed::run(
            spec,
            args.seed,
            timed::Plan {
                windows: WINDOWS,
                window: Duration::from_secs_f64(args.seconds / WINDOWS as f64),
                max_setups: 15,
            },
            process_start,
        ),
        (false, true) => timed::run(
            spec,
            args.seed,
            timed::Plan {
                windows: 1,
                window: Duration::from_millis(500),
                max_setups: 1,
            },
            Instant::now(),
        ),
        (true, false) => traced::run(
            spec,
            args.seed,
            traced::Plan {
                requests: TRACED_REQUESTS,
                window: Duration::from_secs(1),
            },
        ),
        (true, true) => traced::run(
            spec,
            args.seed,
            traced::Plan {
                requests: 2_000,
                window: Duration::from_millis(50),
            },
        ),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &args.compare {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let compared = read(&args.contract)
            .and_then(|c| Ok((c, read(a)?, read(b)?)))
            .and_then(|(c, a, b)| compare::compare(&c, &a, &b));
        return match compared {
            Ok((table, bad)) => {
                print!("{table}");
                ExitCode::from(u8::from(bad))
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    if args.smoke {
        // Every workload, timed and traced, short: a check that the whole
        // benchmark still runs and verifies, not a measurement.
        let mut ok = true;
        for spec in SPECS {
            for trace in [false, true] {
                args.trace = trace;
                let outcome = run_one(spec, &args, process_start);
                eprint!("{}", outcome.human());
                println!("{}", outcome.contract_line());
                ok &= outcome.correct();
            }
        }
        eprintln!("smoke: {:.1} s", process_start.elapsed().as_secs_f64());
        return ExitCode::from(u8::from(!ok));
    }

    let Some(spec) = args.workload else {
        eprintln!("benchmark: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = run_one(spec, &args, process_start);
    eprint!("{}", outcome.human());
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, outcome.full_json() + "\n") {
            eprintln!("benchmark: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.contract_line());
    ExitCode::from(u8::from(!outcome.correct()))
}

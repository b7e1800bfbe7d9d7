//! End-to-end and per-layer benchmark of the Section-7 RSM and the
//! one-shot agreement protocols, over `TcpRuntime` and the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp-rsm-n4 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats fresh deployments of the workload (inputs drawn from
//! `--seed`) until `--seconds` would be exceeded, checks every
//! deployment, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` deployments
//! alternate between plain and traced, the metrics are the per-layer
//! ones read from the traced deployments, and the difference between
//! the two halves is reported as the tracing overhead. Handler and op
//! spans of a traced run are written to
//! `$CARGO_TARGET_DIR/perfbench-trace/` (default `perfbench/target`).

mod deploy;
mod measure;
mod probe;
mod report;
mod rsmwire;
mod workloads;

use measure::Rng;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Runtime, Workload};

/// Fewest deployments a run makes (set-up time is their median).
const MIN_DEPLOYMENTS: usize = 4;

/// Traced deployments that also measure an idle window.
const IDLE_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        name,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tcp-rsm-n4|sim-rsm-n7|tcp-wts-n16|tcp-sbs-n10> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    measure::now_ns();
    let mut rng = Rng(args.seed);
    let start = Instant::now();
    let mut runs = Vec::new();
    // Whole deployments until the next one would overrun the window.
    loop {
        let k = runs.len();
        let traced = args.trace && k % 2 == 1;
        let idle = traced && k / 2 < IDLE_SAMPLES;
        let d = args
            .workload
            .deploy(&mut rng, traced, args.workload.runtime(idle));
        if let Some(v) = &d.inspect.violation {
            eprintln!("perfbench: deployment {k}: correctness violation: {v}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                d.attempted,
                d.attempted - d.ops.len() as u64
            );
            return ExitCode::FAILURE;
        }
        if d.stalled {
            eprintln!(
                "perfbench: deployment {k} stalled: {} of {} ops unfinished",
                d.attempted - d.ops.len() as u64,
                d.attempted
            );
        }
        runs.push(d);
        let spent = start.elapsed().as_secs_f64();
        let per = spent / runs.len() as f64;
        if runs.len() >= MIN_DEPLOYMENTS && spent + per > args.seconds {
            break;
        }
    }
    // A traced run of a TCP workload ends with one deployment of the same
    // shape on the simulator: the engine's cost, and the counts the
    // protocol alone produces under a seeded schedule.
    if args.trace && args.workload.tcp() {
        runs.push(args.workload.deploy(&mut rng, true, Runtime::Sim));
    }
    let out = report::Report::new(args.workload, &runs);
    if args.trace {
        let crypto = report::crypto_units(args.workload.nf().0);
        out.print_traced(&crypto);
        if let Err(e) = out.write_spans(&runs, &args.name, args.seed) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        println!("{}", out.json(&out.per_layer(&crypto)));
    } else {
        out.print_e2e();
        println!("{}", out.json(&out.e2e_all()));
    }
    ExitCode::SUCCESS
}

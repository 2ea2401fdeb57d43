//! `maybms-benchmark`: the repo's one scoreboard.
//!
//! `run --workload W --seed N --seconds S --trace 0|1` measures one
//! workload in this process and prints its result as the last line of
//! standard output. `run` without `--workload` runs every workload, each
//! pass in a child process of its own (so the resident-set high-water
//! mark and the counters of `maybms_obs::global()` belong to one
//! workload), and prints `one_world_ratio`. `--list` prints the workload
//! and metric names. See `README.md` beside this crate.

mod client;
mod data;
mod layers;
mod report;
mod run;
mod workload;

use std::process::{Command, ExitCode};

use report::{metric_in, num, Better, MetricDef, END_TO_END, PER_LAYER};
use workload::WORKLOADS;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: maybms-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n       \
         maybms-benchmark --list"
    );
    ExitCode::from(2)
}

fn parse_args(rest: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => args.trace = Some(value.parse::<u8>().ok().filter(|t| *t <= 1)? == 1),
            _ => return None,
        }
    }
    Some(args)
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!(
            "  {:<18} {} client(s) x {} connection(s)  {}",
            w.name, w.clients, w.conns, w.why
        );
    }
    let show = |title: &str, defs: &[MetricDef]| {
        println!("{title}:");
        for d in defs {
            let better = if d.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let bound = if d.bound > 0.0 {
                format!("  bound {}", num(d.bound))
            } else {
                String::new()
            };
            println!("  {:<32} {:<6} {better} is better{bound}", d.name, d.unit);
        }
    };
    show("end_to_end", END_TO_END);
    show("per_layer", PER_LAYER);
}

/// Runs one pass of one workload in a child process, echoing its output.
/// Returns its result line when it exited with success.
fn child(workload: &str, args: &Args, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout
        .trim_end()
        .lines()
        .last()
        .unwrap_or_default()
        .to_string();
    for line in stdout.trim_end().lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    out.status.success().then_some(last)
}

/// Every workload, both passes unless `--trace` picks one.
fn scoreboard(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut p50 = std::collections::HashMap::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            match child(w.name, args, trace) {
                Some(line) => {
                    if let Some(v) = metric_in(&line, "p50_us") {
                        p50.insert(w.name, v);
                    }
                }
                None => {
                    eprintln!("{}: pass with --trace {} failed", w.name, trace as u8);
                    ok = false;
                }
            }
        }
    }
    if let (Some(noisy), Some(one)) = (p50.get("census_queries"), p50.get("one_world_queries")) {
        println!(
            "one_world_ratio {} (p50_us census_queries {} / one_world_queries {})",
            num(noisy / one),
            num(*noisy),
            num(*one)
        );
    }
    println!("records and traces: {}", report::out_dir().display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(args) = parse_args(&argv[1..]) else {
                return usage();
            };
            let Some(name) = &args.workload else {
                return scoreboard(&args);
            };
            let Some(spec) = workload::find(name) else {
                eprintln!("unknown workload {name}; see --list");
                return ExitCode::from(2);
            };
            let correct = if args.trace == Some(true) {
                run::per_layer(spec, args.seed, args.seconds)
            } else {
                run::end_to_end(spec, args.seed, args.seconds)
            };
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

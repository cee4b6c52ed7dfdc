//! One repetition of one benchmark workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --out <dir> [--trace]
//! ```
//!
//! `perfbench/run.py` spawns this binary several times per run. Each
//! process is one repetition: it makes passes over the workload's units
//! (see `workloads`) through the library's public API until `--seconds`
//! have passed, checks every output against known answers and prints
//! one JSON line: the instant of the first library call (the parent
//! measures set-up time from its spawn instant to it), each pass's wall
//! time, CPU time and core speed (see `probe`), the work units
//! attempted and failed, and every check. The parent measures peak
//! memory from the child's resource usage.
//!
//! With `--trace` the repetition makes exactly one pass, its spans stream to
//! `<out>/<workload>.trace.jsonl` in the CLI's `--trace` event format,
//! so `lp-sram-suite profile` folds the file, and the line gains the
//! per-layer metrics (see `layers`).
//!
//! Exit codes: 0 when every check passed, 1 when a check failed or the
//! workload returned an error, 2 on a usage error.

mod layers;
mod probe;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use obs::Json;
use workloads::{Check, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: PathBuf,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut out, mut trace) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed `{value}`: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| {
                            format!("--seconds expects a non-negative number, got `{value}`")
                        })?,
                );
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out: out.ok_or("--out is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let trace_path = args.out.join(format!("{name}.trace.jsonl"));
    if args.trace {
        if let Err(e) = obs::install_jsonl(&trace_path) {
            eprintln!("perfbench: cannot open {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
        // Armed exactly as the CLI's `--trace` arms it.
        obs::flight_enable(obs::DEFAULT_CAPACITY);
    }
    let mut units = args.workload.units(args.seed, &args.out);
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let mut rep = match workloads::run(args.workload, &mut units, seconds) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = vec![
        ("workload".to_string(), Json::Str(name.to_string())),
        (
            "seed_used".to_string(),
            Json::Bool(args.workload.uses_seed()),
        ),
        (
            "first_call_unix_ns".to_string(),
            Json::Str(rep.first_call_unix_ns.to_string()),
        ),
        (
            "passes".to_string(),
            Json::Arr(
                rep.passes
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("wall_s".to_string(), Json::Num(p.wall_s)),
                            ("cpu_s".to_string(), Json::Num(p.cpu_s)),
                            ("speed".to_string(), Json::Num(p.speed)),
                            ("probes".to_string(), Json::Num(p.probes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attempted".to_string(), Json::Num(rep.attempted as f64)),
        ("failed".to_string(), Json::Num(rep.failed as f64)),
    ];
    if args.trace {
        obs::close_sink();
        match layers::measure(args.workload, args.seed, &trace_path) {
            Ok((metrics, coverage)) => {
                rep.checks.push(coverage);
                let metrics = metrics
                    .into_iter()
                    .map(|(metric, value)| (metric.to_string(), Json::Num(value)));
                fields.push(("layer".to_string(), Json::obj(metrics)));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: per-layer metrics: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let passed = rep.checks.iter().all(|c| c.ok);
    fields.push((
        "checks".to_string(),
        Json::Arr(rep.checks.iter().map(Check::to_json).collect()),
    ));
    println!("{}", Json::obj(fields).to_compact());
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

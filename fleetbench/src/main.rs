//! XLF fleet benchmark: runs one workload through the public fleet API
//! (`FleetSpec` → `run_fleet`) and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload canonical --seed 4058914841 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: repeated `run_fleet`
//! calls on every hardware thread for `--seconds`, reporting medians.
//! `--trace 1` runs the same homes once more on one thread with every
//! layer timed from outside (see `trace.rs`) and reports the per-layer
//! metrics. Both check the fleet's outputs on every run; the last
//! stdout line is the result, the line before it the provenance.

mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use stats::Summary;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Violation, Workload};
use xlf_fleet::{run_fleet, FleetMetrics, FleetSpec};

/// The default workload seed: the canonical `exp_fleet` master seed.
const DEFAULT_SEED: u64 = 0xF1EE_2019;
/// Set-ups timed before each fleet run; `setup_s` is the median of all
/// of them, so it samples the host across the whole run like the fleet
/// timings do.
const SETUPS_PER_REPEAT: usize = 5;
/// Timed fleet runs per untraced run at the least, however long they
/// take.
const MIN_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Canonical,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// What one run measured and checked.
struct Outcome {
    values: Vec<(&'static str, f64)>,
    /// Repeat samples behind the reported medians.
    summaries: Vec<(&'static str, Summary, Vec<f64>)>,
    attempted: u64,
    violations: Vec<Violation>,
    workers_effective: u64,
    repeats: usize,
}

/// Builds the spec and stamps the fleet `n` times, appending each
/// set-up's seconds to `samples`; returns the last set-up.
fn set_up(
    args: &Args,
    workers: usize,
    n: usize,
    samples: &mut Vec<f64>,
) -> (FleetSpec, Vec<xlf_fleet::HomeSpec>) {
    let mut built = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let spec = args.workload.spec(args.seed, workers);
        let stamps = spec.stamp();
        samples.push(t0.elapsed().as_secs_f64());
        built = Some((spec, stamps));
    }
    built.expect("at least one set-up")
}

/// The untraced run: `run_fleet` repeated until `--seconds` is spent,
/// each report checked and required to repeat byte for byte.
fn end_to_end(args: &Args) -> Outcome {
    let workers = host::nproc();
    let mut setup_samples = Vec::new();
    let (spec, stamps) = set_up(args, workers, SETUPS_PER_REPEAT, &mut setup_samples);
    let homes = stamps.len();
    let mut violations = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<(String, workloads::Outcomes)> = None;
    let mut workers_effective = 0;
    let mut repeats = 0;
    let mut timed_since = Instant::now();
    // Repeat 0 warms the allocator and caches: it is checked like every
    // other repeat but not timed.
    loop {
        if repeats > 0 {
            set_up(args, workers, SETUPS_PER_REPEAT, &mut setup_samples);
        }
        let metrics = FleetMetrics::new();
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let result = run_fleet(&spec, &metrics);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::process_cpu_s() - cpu0;
        workers_effective = workers_effective.max(metrics.workers_effective.get());
        match result {
            Err(e) => violations.push(Violation {
                what: format!("run_fleet failed: {e}"),
                homes,
            }),
            Ok(report) => {
                if repeats > 0 {
                    walls.push(wall);
                    cpus.push(cpu);
                }
                let json = report.to_json();
                let (outcomes, found) =
                    workloads::check(args.workload, &spec, &stamps, &report, &json);
                violations.extend(found);
                match &first {
                    None => first = Some((json, outcomes)),
                    Some((bytes, _)) if *bytes != json => violations.push(Violation {
                        what: format!("repeat {repeats} report bytes differ from the first"),
                        homes,
                    }),
                    Some(_) => {}
                }
            }
        }
        if repeats == 0 {
            timed_since = Instant::now();
        }
        repeats += 1;
        let timed = repeats - 1;
        let elapsed = timed_since.elapsed().as_secs_f64();
        if timed >= MIN_REPEATS && elapsed + elapsed / timed as f64 > args.seconds {
            break;
        }
    }

    let homes_per_s: Vec<f64> = walls.iter().map(|w| homes as f64 / w).collect();
    let cpu_ms: Vec<f64> = cpus.iter().map(|c| c * 1e3 / homes as f64).collect();
    let mut summaries = Vec::new();
    for (name, samples) in [
        ("setup_s", setup_samples),
        ("homes_per_s", homes_per_s),
        ("cpu_ms_per_home", cpu_ms),
    ] {
        if let Some(s) = Summary::of(&samples) {
            summaries.push((name, s, samples));
        }
    }
    let mut values: Vec<(&'static str, f64)> =
        summaries.iter().map(|(n, s, _)| (*n, s.median)).collect();
    values.extend(host::peak_rss_mb().map(|mb| ("peak_rss_mb", mb)));
    if let Some((_, o)) = first {
        values.extend([
            ("homes_ok_share", o.homes_ok_share),
            ("deviant_recall", o.deviant_recall),
            ("benign_pass_share", o.benign_pass_share),
            ("detect_s_mean", o.detect_s_mean),
            ("ota_safe_share", o.ota_safe_share),
            ("rogue_denied_share", o.rogue_denied_share),
        ]);
    }
    Outcome {
        values,
        summaries,
        attempted: (homes * repeats) as u64,
        violations,
        workers_effective,
        repeats,
    }
}

/// The traced run: per-layer metrics, with the traced report checked
/// against the untraced one and against the workload's guarantees.
fn traced(args: &Args) -> Outcome {
    let traced = trace::run(args.workload, &args.workload.spec(args.seed, 1));
    Outcome {
        values: traced.values,
        summaries: Vec::new(),
        attempted: traced.homes,
        violations: traced.violations,
        workers_effective: 1,
        repeats: 1,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let summaries: Vec<String> = outcome
        .summaries
        .iter()
        .map(|(name, s, samples)| {
            let samples: Vec<String> = samples.iter().map(f64::to_string).collect();
            format!(
                "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
                 \"samples\": [{}]}}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                samples.join(", ")
            )
        })
        .collect();
    let violations: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| json_str(&v.what))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"homes\": {}, \"repeats\": {}, \"nproc\": {}, \"workers_effective\": {}, \
         \"cpu_model\": {}, \"git_commit\": {}}}, \"summaries\": {{{}}}, \
         \"violations\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        args.workload.homes(),
        outcome.repeats,
        host::nproc(),
        outcome.workers_effective,
        json_str(&host::cpu_model()),
        json_str(&host::git_commit(Path::new("."))),
        summaries.join(", "),
        violations.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (outcome, table) = if args.trace {
        (traced(&args), metrics::PER_LAYER)
    } else {
        (end_to_end(&args), metrics::END_TO_END)
    };
    for v in &outcome.violations {
        eprintln!("fleetbench: check failed: {} ({} homes)", v.what, v.homes);
    }
    let failed = outcome
        .violations
        .iter()
        .map(|v| v.homes as u64)
        .sum::<u64>()
        .min(outcome.attempted);
    println!("{}", provenance(&args, &outcome));
    match metrics::result_line(
        table,
        &outcome.values,
        outcome.violations.is_empty(),
        outcome.attempted,
        failed,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn a_full_command_line_parses() {
        let a = parse(&[
            "--workload",
            "fleet-ops",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::FleetOps);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse(&["--workload", "canonical"]).expect("valid");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "canonical", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "canonical", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "canonical", "--seed"]).is_err());
        assert!(parse(&["--workload", "canonical", "--bogus", "1"]).is_err());
    }
}

//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stark-serve|plonk-apps|chip-dse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up three times, measures it for
//! `--seconds` and prints the end-to-end metrics. `--trace 1` is the
//! traced run: it measures the host unit costs, then every workload with
//! the benchmark's spans on (the selected one for `--seconds`, half of it
//! untraced to give the tracing overhead; the others for a quarter of
//! it), and prints the per-layer metrics. The last line of standard
//! output is the JSON result either way; earlier lines are a readable
//! report.

mod chip_dse;
mod cpu;
mod host;
mod metrics;
mod plonk_apps;
mod spans;
mod stark_serve;
mod stats;
mod units;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use unizk_testkit::{Json, TestRng};

use crate::chip_dse::ChipDse;
use crate::cpu::UnitCosts;
use crate::metrics::{Metrics, Pass, WORKLOADS};
use crate::plonk_apps::PlonkApps;
use crate::spans::Recorder;
use crate::stark_serve::StarkServe;
use crate::stats::{median, peak_rss_mib};

const USAGE: &str =
    "usage: perfbench --workload <stark-serve|plonk-apps|chip-dse> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|&&w| w == value);
                workload = Some(*known.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload after set-up.
enum Prepared {
    Serve(StarkServe),
    Plonk(PlonkApps),
    Chip(Box<ChipDse>),
}

impl Prepared {
    fn setup(workload: &str, seed: u64) -> Result<Self, String> {
        Ok(match workload {
            "stark-serve" => Prepared::Serve(StarkServe::setup(seed)?),
            "plonk-apps" => Prepared::Plonk(PlonkApps::setup(seed)?),
            _ => Prepared::Chip(Box::new(ChipDse::setup(seed)?)),
        })
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder, units: Option<UnitCosts>) -> Pass {
        match self {
            Prepared::Serve(w) => w.measure(seconds, rec, units),
            Prepared::Plonk(w) => w.measure(seconds, rec, units),
            Prepared::Chip(w) => w.measure(seconds, rec),
        }
    }
}

/// The untraced run: set up `SETUP_REPEATS` times (the first timed from
/// process start), measure, and report the end-to-end metrics.
fn untraced(args: &Args, process_start: Instant) -> Result<(Metrics, u64, u64), String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for i in 0..SETUP_REPEATS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(prepared.take()); // release the previous set-up before the next
        prepared = Some(Prepared::setup(args.workload, args.seed)?);
        let setup_s = start.elapsed().as_secs_f64();
        println!("unadjusted setup_s {setup_s:.4}");
        // At the reference host speed, sampled right after (see `host`).
        setups.push(setup_s * host::factor_now());
    }
    let mut prepared = prepared.expect("at least one set-up");
    let pass = prepared.measure(args.seconds, &mut Recorder::new(false), None);
    let mut metrics = pass.metrics;
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", peak_rss_mib());
    Ok((metrics, pass.attempted, pass.failed))
}

/// Host unit costs on the main thread, with the prover's helpers serial.
fn unit_costs(seed: u64, layers: &mut Metrics) -> UnitCosts {
    unizk_field::set_parallelism(1);
    let mut rng = TestRng::from_seed_and_stream(seed, 5);
    let mut grind = units::GrindCalibration::default();
    grind.sample(&mut rng, 1, Duration::from_millis(200));
    let costs = UnitCosts {
        perm_ns: units::perm_ns(&mut rng),
        butterfly_ns: units::ntt_butterfly_ns(&mut rng, 12),
    };
    layers.set("unit.field.mul_ns", units::field_mul_ns(&mut rng));
    layers.set("unit.hash.perm_ns", costs.perm_ns);
    layers.set("unit.merkle.leaf_ns", units::merkle_leaf_ns(&mut rng));
    layers.set("unit.merkle.node_ns", units::merkle_node_ns(&mut rng));
    layers.set("unit.ntt.butterfly_ns", costs.butterfly_ns);
    layers.set("unit.fri.grind_attempt_ns", grind.ns_per_attempt());
    layers.set(
        "unit.challenger.duplex_ns",
        units::challenger_duplex_ns(&mut rng),
    );
    costs
}

/// The traced run: unit costs, then every workload with spans on.
fn traced(args: &Args) -> Result<(Metrics, u64, u64, Recorder), String> {
    let mut layers = Metrics::default();
    let units = unit_costs(args.seed, &mut layers);
    let mut rec = Recorder::new(true);
    let (mut attempted, mut failed) = (0, 0);
    for workload in WORKLOADS {
        let mut prepared = Prepared::setup(workload, args.seed)?;
        rec.enter(workload, None);
        let pass = if workload == args.workload {
            let half = args.seconds / 2.0;
            let plain = prepared.measure(half, &mut Recorder::new(false), None);
            let pass = prepared.measure(half, &mut rec, Some(units));
            let op = |p: &Pass| p.metrics.get("op_ms_p50").expect("every pass reports it");
            layers.set("trace.overhead_ratio", op(&pass) / op(&plain) - 1.0);
            attempted += plain.attempted;
            failed += plain.failed;
            pass
        } else {
            prepared.measure(args.seconds / 4.0, &mut rec, Some(units))
        };
        rec.exit();
        attempted += pass.attempted;
        failed += pass.failed;
        layers.extend_prefixed(workload, pass.layers);
    }
    Ok((layers, attempted, failed, rec))
}

/// Where the traced run writes its span records: the build directory, so
/// nothing lands among the sources.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench-traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed))
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let (metrics, catalogue, attempted, failed) = if args.trace {
        let (layers, attempted, failed, rec) = traced(args)?;
        let path = trace_path(args);
        let doc = Json::obj([
            ("workload", Json::str(args.workload)),
            ("seed", Json::from(args.seed)),
            ("spans", rec.to_json()),
        ]);
        std::fs::create_dir_all(path.parent().expect("trace file has a directory"))
            .and_then(|()| std::fs::write(&path, doc.to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans: {} records in {}",
            rec.records().len(),
            path.display()
        );
        (layers, metrics::per_layer(), attempted, failed)
    } else {
        let (metrics, attempted, failed) = untraced(args, process_start)?;
        (metrics, metrics::end_to_end(), attempted, failed)
    };
    let json = metrics.to_json(&catalogue)?;
    for (name, unit) in &catalogue {
        let value = metrics.get(name).expect("to_json checked every entry");
        println!("{name:<48} {value:>16.4} {unit}");
    }
    println!(
        "{:<48} {:>16.4} ratio ({failed} of {attempted} operations failed)",
        "ops_failed_ratio",
        failed as f64 / attempted as f64
    );
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", json),
    ]);
    Ok(result.to_string())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
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
    fn arguments_are_checked() {
        let a = parse(&[
            "--workload",
            "chip-dse",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("chip-dse", 3, 10.0, true)
        );
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "chip-dse", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "chip-dse", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "chip-dse", "--seed", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "chip-dse",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}

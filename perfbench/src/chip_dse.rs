//! `chip-dse`: the modeled chip with no CPU proving — the six Table 3
//! apps simulated at full scale on the default chip, a seeded fleet
//! stream, and a seeded full-scale design-space sweep run once unpruned
//! and once pruned.

use std::time::Instant;

use unizk_core::analyze::{cost_envelope, CostEnvelope};
use unizk_core::compiler::compile_plonky2;
use unizk_core::{ChipConfig, Graph, KernelClassTag, SimReport, Simulator};
use unizk_explore::{run_sweep, SweepOptions, SweepResult, SweepSpec};
use unizk_fleet::{FleetConfig, FleetReport, FleetSim, ShardPlan, StreamSpec};
use unizk_testkit::{trace, TestRng};
use unizk_workloads::{App, Scale};

use crate::host::HostSpeed;
use crate::metrics::{Metrics, Pass};
use crate::spans::Recorder;
use crate::stats::median;

/// The app the fleet stream shards, its shard count, and the fleet size.
const FLEET_APP: App = App::Ecdsa;
const FLEET_SHARDS: usize = 4;
const FLEET_CHIPS: usize = 4;
/// Jobs in the fleet stream and jobs per arrival burst.
const FLEET_JOBS: usize = 32;
const FLEET_BATCH: usize = 4;
/// Sweep workers.
const SWEEP_JOBS: usize = 2;

const CLASSES: [(KernelClassTag, &str); 4] = [
    (KernelClassTag::Ntt, "ntt"),
    (KernelClassTag::Hash, "hash"),
    (KernelClassTag::Poly, "poly"),
    (KernelClassTag::Transpose, "transpose"),
];

/// Shuffles `items` with `rng` (Fisher–Yates).
fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded sweep: every chip axis and the six full-scale apps, with
/// the order of every axis drawn from the seed. The grid is the same for
/// every seed; its enumeration order is not.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let mut rng = TestRng::from_seed_and_stream(seed, 3);
    let mut vsas = vec![16, 32, 64];
    let mut scratchpad = vec![4, 8, 16];
    let mut transpose = vec![16, 64];
    let mut bandwidth = vec![(1, 2), (1, 1)];
    let mut apps = App::ALL.to_vec();
    shuffle(&mut vsas, &mut rng);
    shuffle(&mut scratchpad, &mut rng);
    shuffle(&mut transpose, &mut rng);
    shuffle(&mut bandwidth, &mut rng);
    shuffle(&mut apps, &mut rng);
    let mut spec = SweepSpec::new(format!("perfbench-{seed}"))
        .num_vsas(vsas)
        .scratchpad_mb(scratchpad)
        .transpose_b(transpose)
        .bandwidth_scales(bandwidth);
    for app in apps {
        spec = spec.workload(app, Scale::Full);
    }
    spec
}

/// The seeded fleet stream, with bursts offered at about the fleet's
/// service rate for `per_job_cycles` of work per job.
pub fn stream(seed: u64, per_job_cycles: u64) -> StreamSpec {
    StreamSpec {
        jobs: FLEET_JOBS,
        batch: FLEET_BATCH,
        interarrival_cycles: per_job_cycles * FLEET_BATCH as u64 / FLEET_CHIPS as u64,
        seed,
    }
}

/// Pareto-optimal design points of a sweep, by cache key, sorted.
fn frontier_keys(result: &SweepResult) -> Vec<String> {
    let mut keys: Vec<String> = result
        .pareto
        .iter()
        .map(|&i| result.points[i].key.clone())
        .collect();
    keys.sort();
    keys
}

/// Whether every class's simulated cycles, and the total, lie inside the
/// static cost envelope.
fn inside_envelope(report: &SimReport, env: &CostEnvelope) -> bool {
    CLASSES.iter().all(|&(tag, _)| {
        let (c, e) = (report.class(tag).cycles, env.class(tag));
        e.cycles_lower <= c && c <= e.cycles_upper
    }) && env.total_lower() <= report.total_cycles
        && report.total_cycles <= env.total_upper()
}

/// Whether two simulations of one graph agree exactly.
fn same_report(a: &SimReport, b: &SimReport) -> bool {
    a.total_cycles == b.total_cycles
        && a.read_requests == b.read_requests
        && a.write_requests == b.write_requests
        && CLASSES.iter().all(|&(tag, _)| a.class(tag) == b.class(tag))
}

/// Simulates `graph` on `chip` and checks the result against its static
/// cost envelope and a second simulator instance.
///
/// # Errors
///
/// Names the check that failed.
pub fn simulate_checked(graph: &Graph, chip: &ChipConfig) -> Result<SimReport, String> {
    let report = Simulator::new(chip.clone()).run(graph);
    if !inside_envelope(&report, &cost_envelope(graph, chip)) {
        return Err("simulation left its static cost envelope".into());
    }
    if !same_report(&report, &Simulator::new(chip.clone()).run(graph)) {
        return Err("two simulator instances disagree".into());
    }
    Ok(report)
}

/// A prepared `chip-dse` workload.
pub struct ChipDse {
    seed: u64,
    spec: SweepSpec,
    plan: ShardPlan,
    stream: StreamSpec,
    chip: ChipConfig,
    /// Total cycles of each app on the default chip, from set-up.
    reference_cycles: Vec<u64>,
    /// The fleet stream's makespan, from set-up.
    reference_makespan: u64,
}

/// Per-round observations of one app's simulation.
struct AppRun {
    compile_ns: f64,
    sim_ns: f64,
    envelope_ns: f64,
    nodes: usize,
    report: SimReport,
    slack: f64,
}

impl ChipDse {
    /// Set-up: the seeded sweep spec and fleet stream, and one warm-up
    /// simulation of every app and of the fleet stream, whose cycles later
    /// rounds must reproduce.
    ///
    /// # Errors
    ///
    /// Returns a message if a warm-up simulation fails its checks.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let chip = ChipConfig::default_chip();
        let reference_cycles = App::ALL
            .iter()
            .map(|app| {
                let graph = compile_plonky2(&app.plonky2_instance(Scale::Full));
                simulate_checked(&graph, &chip)
                    .map(|r| r.total_cycles)
                    .map_err(|e| format!("{}: {e}", app.id()))
            })
            .collect::<Result<_, _>>()?;
        let plan = ShardPlan::new(FLEET_APP.plonky2_instance(Scale::Full), FLEET_SHARDS)
            .expect("full-scale ECDSA splits into four shards");
        let sim = Simulator::new(chip.clone());
        let shard = sim.run(plan.shard_graph()).total_cycles;
        let agg = plan
            .aggregation_graph()
            .map_or(0, |g| sim.run(g).total_cycles);
        let stream = stream(seed, FLEET_SHARDS as u64 * shard + agg);
        let reference_makespan = FleetSim::new(FleetConfig::with_chips(FLEET_CHIPS))
            .run(&plan, &stream)
            .makespan_cycles;
        Ok(Self {
            seed,
            spec: sweep_spec(seed),
            plan,
            stream,
            chip,
            reference_cycles,
            reference_makespan,
        })
    }

    /// Compiles and simulates one app, then checks the result: it lies
    /// inside its static cost envelope and a second simulator instance
    /// reproduces it exactly.
    fn run_app(&self, app: App, rec: &mut Recorder, job: u64) -> Option<(AppRun, f64)> {
        let instance = app.plonky2_instance(Scale::Full);
        let (graph, compile_ns) =
            rec.time("core.compile", Some(job), || compile_plonky2(&instance));
        let simulate = || Simulator::new(self.chip.clone()).run(&graph);
        let (report, sim_ns) = rec.time("core.sim", Some(job), simulate);
        let (env, envelope_ns) = rec.time("analyze.envelope", Some(job), || {
            cost_envelope(&graph, &self.chip)
        });
        let (again, again_ns) = rec.time("core.sim_again", Some(job), simulate);
        let check_ns = envelope_ns + again_ns;

        let inside = inside_envelope(&report, &env);
        let agrees = same_report(&report, &again);
        let index = App::ALL
            .iter()
            .position(|&a| a == app)
            .expect("a Table 3 app");
        if !(inside && agrees && report.total_cycles == self.reference_cycles[index]) {
            eprintln!("chip-dse: {} simulation failed a check", app.id());
            return None;
        }
        let slack = (env.total_upper() - env.total_lower()) as f64 / report.total_cycles as f64;
        Some((
            AppRun {
                compile_ns,
                sim_ns,
                envelope_ns,
                nodes: graph.len(),
                report,
                slack,
            },
            check_ns,
        ))
    }

    /// Runs whole rounds (six apps, the fleet stream, both sweeps) until
    /// `seconds` have passed, at least one round, checking every output.
    pub fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Pass {
        let traced = rec.enabled();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut suite_ns, mut check_ns) = (Vec::new(), Vec::new());
        let mut apps: Vec<(App, AppRun)> = Vec::new();
        let mut fleet: Option<(FleetReport, f64)> = None;
        let (mut plain_ns, mut pruned_ns) = (Vec::new(), Vec::new());
        let (mut answered, mut pruned_points, mut sweep_ns) = (0usize, 0usize, 0.0);
        let mut point_ns = (0u64, 0u64);

        let mut host = HostSpeed::start();
        let start = Instant::now();
        for round in 0u64.. {
            if round > 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let mut order = App::ALL.to_vec();
            shuffle(
                &mut order,
                &mut TestRng::from_seed_and_stream(self.seed, 1 << 32 | round),
            );
            let (mut suite, mut checks) = (0.0, 0.0);
            for app in order {
                attempted += 1;
                match self.run_app(app, rec, round) {
                    Some((run, check)) => {
                        suite += run.compile_ns + run.sim_ns;
                        checks += check;
                        apps.push((app, run));
                    }
                    None => failed += 1,
                }
            }

            attempted += 1;
            let (report, fleet_ns) = rec.time("fleet.run", Some(round), || {
                FleetSim::new(FleetConfig::with_chips(FLEET_CHIPS)).run(&self.plan, &self.stream)
            });
            if report.jobs != FLEET_JOBS || report.makespan_cycles != self.reference_makespan {
                eprintln!("chip-dse: fleet stream did not reproduce its set-up run");
                failed += 1;
            }
            fleet = Some((report, fleet_ns));

            attempted += 1;
            if traced {
                trace::reset();
            }
            let sweep = |prune| SweepOptions {
                jobs: SWEEP_JOBS,
                cache_dir: None,
                fresh: false,
                prune,
            };
            let (plain, ns) = rec.time("explore.sweep.plain", Some(round), || {
                run_sweep(&self.spec, &sweep(false))
            });
            plain_ns.push(ns);
            let (pruned, ns) = rec.time("explore.sweep.pruned", Some(round), || {
                run_sweep(&self.spec, &sweep(true))
            });
            pruned_ns.push(ns);
            if traced {
                let snap = trace::snapshot();
                let mut totals = (0, 0);
                snap.walk(&mut |_, n| {
                    if n.name == "explore.point" {
                        totals.0 += n.ns;
                        totals.1 += n.count;
                    }
                });
                point_ns = (point_ns.0 + totals.0, point_ns.1 + totals.1);
            }
            // The round's host times at the reference speed (see `host`).
            let host_factor = host.factor();
            println!(
                "unadjusted round {round}: op_ms {:.4} check_ms {:.4} sweeps_s {:.4} (host factor {host_factor:.4})",
                suite / 1e6,
                checks / 1e6,
                (plain_ns[plain_ns.len() - 1] + pruned_ns[pruned_ns.len() - 1]) / 1e9
            );
            suite_ns.push(suite * host_factor);
            check_ns.push(checks * host_factor);
            match (plain, pruned) {
                (Ok(plain), Ok(pruned)) if frontier_keys(&plain) == frontier_keys(&pruned) => {
                    answered += plain.points.len() + pruned.points.len() + pruned.pruned.len();
                    pruned_points += pruned.pruned.len();
                    sweep_ns += (plain_ns[plain_ns.len() - 1] + pruned_ns[pruned_ns.len() - 1])
                        * host_factor;
                }
                _ => {
                    eprintln!("chip-dse: sweep failed or frontiers differ");
                    failed += 1;
                }
            }
        }

        let mut metrics = Metrics::default();
        metrics.set("op_ms_p50", median(&suite_ns) / 1e6);
        metrics.set("check_ms_p50", median(&check_ns) / 1e6);
        metrics.set("ops_per_s", answered as f64 / (sweep_ns / 1e9));
        let total_cycles: u64 = self.reference_cycles.iter().sum();
        metrics.set("sim_mcycles", total_cycles as f64 / 1e6);

        let mut layers = Metrics::default();
        if traced {
            self.fill_layers(&mut layers, &apps);
            let (report, ns) = fleet.expect("at least one round");
            layers.set("fleet.run_ms", ns / 1e6);
            let busy: f64 = report.utilization().iter().sum();
            layers.set("fleet.chip_busy_ratio", busy / report.chips as f64);
            layers.set("fleet.queue_peak", report.queue_peak as f64);
            layers.set(
                "fleet.makespan_mcycles",
                report.makespan_cycles as f64 / 1e6,
            );
            layers.set("explore.sweep_s.plain", median(&plain_ns) / 1e9);
            layers.set("explore.sweep_s.pruned", median(&pruned_ns) / 1e9);
            layers.set(
                "explore.points_pruned_ratio",
                pruned_points as f64 / (answered as f64 / 2.0),
            );
            layers.set(
                "explore.point_ms_mean",
                point_ns.0 as f64 / 1e6 / point_ns.1 as f64,
            );
        }
        Pass {
            metrics,
            layers,
            attempted,
            failed,
        }
    }

    fn fill_layers(&self, layers: &mut Metrics, apps: &[(App, AppRun)]) {
        let n = apps.len() as f64;
        let sum = |f: &dyn Fn(&AppRun) -> f64| apps.iter().map(|(_, r)| f(r)).sum::<f64>();
        layers.set("core.compile_ms", sum(&|r| r.compile_ns) / 1e6 / n);
        layers.set("core.sim_ms", sum(&|r| r.sim_ns) / 1e6 / n);
        layers.set(
            "core.sim_ns_per_node",
            sum(&|r| r.sim_ns) / sum(&|r| r.nodes as f64),
        );
        layers.set("analyze.envelope_ms", sum(&|r| r.envelope_ns) / 1e6 / n);
        layers.set("analyze.envelope_slack", sum(&|r| r.slack) / n);

        // One simulation of each app (they repeat exactly across rounds).
        let mut once: Vec<&(App, AppRun)> = Vec::new();
        for entry in apps {
            if !once.iter().any(|(a, _)| *a == entry.0) {
                once.push(entry);
            }
        }
        for (tag, name) in CLASSES {
            let cycles: u64 = once.iter().map(|(_, r)| r.report.class(tag).cycles).sum();
            layers.set(format!("sim.class.{name}.mcycles"), cycles as f64 / 1e6);
            if tag != KernelClassTag::Transpose {
                let busy: u64 = once
                    .iter()
                    .map(|(_, r)| r.report.class(tag).vsa_busy_cycles)
                    .sum();
                let vsas = self.chip.num_vsas as f64;
                layers.set(
                    format!("sim.vsa_util.{name}"),
                    busy as f64 / (cycles as f64 * vsas),
                );
            }
        }
        for (app, run) in &once {
            let seconds = run.report.seconds(&self.chip);
            layers.set(
                format!("sim.paper_ratio.{}", app.id()),
                seconds / app.paper().unizk_s,
            );
        }
        let requests =
            |f: fn(&SimReport) -> u64| once.iter().map(|(_, r)| f(&r.report)).sum::<u64>() as f64;
        layers.set("dram.read_requests", requests(|r| r.read_requests));
        layers.set("dram.write_requests", requests(|r| r.write_requests));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_and_stream_follow_the_seed() {
        let points = |seed| -> Vec<String> {
            sweep_spec(seed)
                .enumerate()
                .unwrap()
                .iter()
                .map(|p| p.key_hex())
                .collect()
        };
        assert_eq!(points(4), points(4));
        assert_ne!(points(4), points(5), "seeded order never changes");
        let mut a = points(4);
        let mut b = points(5);
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed sweeps the same grid");
        assert_eq!(stream(4, 1000).arrivals(), stream(4, 1000).arrivals());
        assert_ne!(stream(4, 1000).arrivals(), stream(5, 1000).arrivals());
    }
}

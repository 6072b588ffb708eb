//! The explore-swarm workload: an in-process `ExploreSession` of the
//! anonymous §1.3 protocol on `cycle:14@0,7` (sim engine), a fixed DFS
//! and swarm budget, then the ddmin shrink of every counterexample kept.
//!
//! The instance is unsolvable (gcd 2), so the gcd oracle says no
//! schedule may elect a unique leader; the anonymous protocol
//! double-elects instead, and those double elections are the expected
//! counterexamples.

use std::sync::Mutex;
use std::time::Instant;

use qelect_agentsim::explore::{ExploreConfig, ExploreReport, ExploreSession};
use qelect_agentsim::registry::{ExploreSpec, ProtocolEntry};
use qelect_agentsim::{Engine, RunConfig};
use qelect_bench::spec::InstanceSpec;
use qelect_graph::Bicolored;

use crate::gen::Rng;
use crate::report::{median_of, percentile, ratio, Outcome};
use crate::trace::{durations, Tracer};
use crate::{Ctx, ROUNDS};

pub const INSTANCE: &str = "cycle:14@0,7";
pub const PROTOCOL: &str = "anonymous";
const PREEMPTION_BOUND: usize = 8;
/// DFS budget of each session.
const DFS_SCHEDULES: usize = 2_000;
/// Swarm schedules per `--seconds`: each run is a fixed amount of work,
/// sized to take about `--seconds` on a 2-core box.
const SWARM_PER_SECOND: usize = 100_000;
/// Counterexamples kept (and shrunk) per session.
const COUNTEREXAMPLES: usize = 16;
const WORKERS: usize = 2;
/// Session builds per batch. A batch runs before each session and after
/// the last, so the builds are spread over the run; `setup_s` is the
/// median of all of them.
const SETUP_BUILDS: usize = 401;

/// The session seed: it fixes the instance's port numberings and so
/// the length of every run; 14 is the seed of `BENCH_explore.json`.
const SESSION_SEED: u64 = 14;

/// The swarm seed of one round of a workload seed.
pub fn swarm_seed(seed: u64, round: usize) -> u64 {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(|| rng.next())
        .nth(round)
        .expect("the stream is endless")
}

fn entry() -> &'static ProtocolEntry {
    qelect::registry::resolve(PROTOCOL).expect("the anonymous protocol is registered")
}

fn instance() -> Bicolored {
    InstanceSpec::parse(INSTANCE)
        .and_then(|s| s.bicolored())
        .expect("the explore instance is valid")
}

fn run_config() -> RunConfig {
    RunConfig::new(SESSION_SEED).engine(Engine::Sim)
}

fn explore_config(seed: u64, round: usize, swarm: usize, workers: usize) -> ExploreConfig {
    ExploreConfig {
        preemption_bound: PREEMPTION_BOUND,
        max_schedules: DFS_SCHEDULES,
        swarm_runs: swarm,
        swarm_seed: swarm_seed(seed, round),
        workers,
        max_counterexamples: COUNTEREXAMPLES,
    }
}

/// The traced session's per-run observations.
struct Probe {
    tracer: Tracer,
    /// `(moves, accesses, steps)` summed over runs.
    work: Mutex<[u64; 3]>,
}

/// The registry's session for the protocol (as `ExploreSession::from_spec`
/// builds it), with its driver wrapped in one span per run. The
/// exploration itself (DFS, swarm, coverage, shrink) is the program's.
fn traced_session<'a>(bc: &'a Bicolored, probe: &'a Probe) -> ExploreSession<'a> {
    let spec: &'static ExploreSpec = entry()
        .explore
        .expect("the anonymous protocol is explorable");
    ExploreSession::with_driver(
        run_config().to_gated(),
        Engine::Sim,
        spec.violation_expected,
        move |cfg, engine, sched| {
            let report = probe
                .tracer
                .span("engine.run", || (spec.run)(bc, cfg, engine, sched));
            if let Ok(rep) = &report {
                let mut w = probe.work.lock().expect("a schedule run panicked");
                w[0] += rep.metrics.total_moves();
                w[1] += rep.metrics.total_accesses();
                w[2] += rep.metrics.steps;
            }
            report
        },
        move |rep| (spec.property)(bc, rep),
    )
}

fn session(bc: &Bicolored) -> Result<ExploreSession<'_>, String> {
    ExploreSession::from_entry(entry(), bc, &run_config())
}

/// One session's exploration and shrink.
struct Session {
    report: ExploreReport,
    explore_s: f64,
    shrink_s: f64,
    /// Length of every shrunk counterexample, in ticks.
    shrunk: Vec<usize>,
}

/// Explore, then shrink every counterexample and replay the shrunk
/// schedule, which must still double-elect.
fn explore_and_shrink(
    session: &ExploreSession<'_>,
    cfg: &ExploreConfig,
    out: &mut Outcome,
) -> Session {
    let t = Instant::now();
    let report = session.explore(cfg);
    let explore_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut shrunk = Vec::new();
    for ce in &report.counterexamples {
        let witness = session.shrink(ce);
        if witness.len() > ce.schedule.len() || session.check(&session.rerecord(&witness)).is_ok() {
            out.failed += 1;
            out.fail(format!(
                "a shrunk counterexample ({} ticks) no longer double-elects",
                witness.len()
            ));
        }
        shrunk.push(witness.len());
    }
    let shrink_s = t.elapsed().as_secs_f64();
    check_double_elections(&report, out);
    Session {
        report,
        explore_s,
        shrink_s,
        shrunk,
    }
}

/// The oracle gate: the instance is unsolvable and symmetric, so every
/// schedule must end in the expected double election (none may elect a
/// unique leader), and the session must keep a counterexample.
fn check_double_elections(report: &ExploreReport, out: &mut Outcome) {
    let missed = report.schedules_explored - report.violations;
    out.attempted += report.schedules_explored as u64;
    out.failed += missed as u64;
    if missed > 0 || report.counterexamples.is_empty() {
        out.fail(format!(
            "{missed} of {} schedules did not double-elect; {} counterexamples kept",
            report.schedules_explored,
            report.counterexamples.len()
        ));
    }
}

/// Build the session as `qelectctl explore` does, `builds` times;
/// returns the build times (s) and the spec-parse times (µs).
fn setup_times(builds: usize) -> (Vec<f64>, Vec<f64>) {
    let cfg = run_config();
    let mut setup = Vec::with_capacity(builds);
    let mut parse = Vec::with_capacity(builds);
    for _ in 0..builds {
        let t = Instant::now();
        let bc = instance();
        parse.push(t.elapsed().as_nanos() as f64 / 1e3);
        let session = ExploreSession::from_entry(entry(), &bc, &cfg).expect("explorable on sim");
        setup.push(t.elapsed().as_secs_f64());
        drop(session);
    }
    (setup, parse)
}

fn record_env(ctx: &Ctx, swarm: usize, out: &mut Outcome) {
    out.env_str("instance", INSTANCE);
    out.env_str("protocol", PROTOCOL);
    out.env_str("engine", "sim");
    out.env_num("preemption_bound", PREEMPTION_BOUND);
    out.env_num("dfs_budget", DFS_SCHEDULES);
    out.env_num("swarm_budget", swarm);
    out.env_num("session_seed", SESSION_SEED);
    out.env_num("swarm_seed", swarm_seed(ctx.seed, 0));
}

/// The untraced run: [`ROUNDS`] sessions built as `qelectctl explore`
/// builds them, each on its own swarm seed. Every end-to-end metric is
/// the median of its per-session values; the latencies are session
/// wall times (explore and shrink), so `latency_p99_ms` is the slowest
/// of the sessions.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let swarm = ctx.seconds as usize * SWARM_PER_SECOND / ROUNDS;
    record_env(ctx, swarm, out);
    out.env_num("workers", WORKERS);
    out.env_num("rounds", ROUNDS);
    let bc = instance();
    let mut setup = Vec::new();
    let mut per_round: [Vec<f64>; 4] = Default::default();
    let mut shrunk = Vec::new();
    for round in 0..ROUNDS {
        setup.extend(setup_times(SETUP_BUILDS).0);
        let cfg = explore_config(ctx.seed, round, swarm, WORKERS);
        let s = explore_and_shrink(&session(&bc)?, &cfg, out);
        let schedules = s.report.schedules_explored as f64;
        let wall_s = s.explore_s + s.shrink_s;
        per_round[0].push(schedules / wall_s);
        per_round[1].push(wall_s * 1e3);
        per_round[3].push(schedules / s.explore_s);
        shrunk.extend(s.shrunk);
    }
    setup.extend(setup_times(SETUP_BUILDS).0);
    per_round[2] = per_round[1].clone();
    per_round[2].sort_by(f64::total_cmp);
    let p99 = percentile(&per_round[2], 0.99);
    out.env_str("shrunk_ticks", &format!("{shrunk:?}"));
    let names = [
        "elections_per_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "schedules_per_s",
    ];
    for (i, (name, values)) in names.iter().zip(&per_round).enumerate() {
        let value = if i == 2 { p99 } else { median_of(values) };
        out.env_str(&format!("rounds.{name}"), &format!("{values:.6?}"));
        out.metric(name, value);
    }
    out.metric("setup_s", median_of(&setup));
    out.metric(
        "peak_rss_mb",
        crate::daemon::peak_rss_mb("/proc/self/status")?,
    );
    Ok(())
}

/// The traced run, on a quarter of the budget: 1-worker sessions,
/// untraced and traced in turn (A B A B), then an untraced 2-worker one.
pub fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let swarm = ctx.seconds as usize * SWARM_PER_SECOND / 4;
    record_env(ctx, swarm, out);
    let (_, parse_us) = setup_times(SETUP_BUILDS);
    let bc = instance();
    let cfg1 = explore_config(ctx.seed, 0, swarm, 1);

    // A discarded tenth-size session, so no measured session pays the
    // process's first-touch costs.
    session(&bc)?.explore(&explore_config(ctx.seed, 1, swarm / 10, 1));
    let a = explore_and_shrink(&session(&bc)?, &cfg1, out);
    let schedules = a.report.schedules_explored as f64;
    let sps_1w = schedules / a.explore_s;

    // Alternating, so a drift in the machine's speed does not read as
    // tracing overhead; the spans kept are the last traced session's.
    let mut untraced_s = a.explore_s;
    let mut traced_s = Vec::new();
    let mut probe = None;
    for pass in 0..3 {
        let traced = pass != 1;
        let p = Probe {
            tracer: Tracer::new(true),
            work: Mutex::new([0; 3]),
        };
        let t = Instant::now();
        let report = if traced {
            traced_session(&bc, &p).explore(&cfg1)
        } else {
            session(&bc)?.explore(&cfg1)
        };
        let secs = t.elapsed().as_secs_f64();
        check_double_elections(&report, out);
        if report.covered != a.report.covered {
            out.fail("the explored set depends on tracing".into());
        }
        if traced {
            traced_s.push(secs);
            probe = Some(p);
        } else {
            untraced_s += secs;
        }
    }
    let probe = probe.expect("the last pass is traced");
    let tracer = &probe.tracer;

    let t = Instant::now();
    let wide = session(&bc)?.explore(&explore_config(ctx.seed, 0, swarm, 2));
    let sps_2w = wide.schedules_explored as f64 / t.elapsed().as_secs_f64();
    check_double_elections(&wide, out);
    if wide.covered != a.report.covered {
        out.fail("the explored set depends on the worker count".into());
    }

    let spans = tracer.spans();
    let spans_file = ctx.scratch.join(format!("{}.spans.jsonl", ctx.workload));
    tracer
        .write(&spans_file)
        .map_err(|e| format!("{spans_file:?}: {e}"))?;
    out.env_str("spans_file", &spans_file.to_string_lossy());
    out.env_num("spans", spans.len());

    let run_us = durations(&spans, "engine.run");
    let runs = run_us.len() as f64;
    let work = *probe.work.lock().expect("a schedule run panicked");
    let traced_rate = 2.0 * schedules / traced_s.iter().sum::<f64>();
    let mut put = |name: &str, value: f64| out.metric(name, value);
    put("spec.parse_us", median_of(&parse_us));
    put("engine.run_us", median_of(&run_us));
    put("engine.moves", ratio(work[0] as f64, runs));
    put("engine.accesses", ratio(work[1] as f64, runs));
    put("engine.steps", ratio(work[2] as f64, runs));
    put("explore.schedule_us", 1e6 / sps_1w);
    put(
        "explore.unique_frac",
        ratio(a.report.coverage.unique as f64, schedules),
    );
    put("explore.scaling_2w", sps_2w / sps_1w);
    put("explore.shrink_ms", a.shrink_s * 1e3);
    put(
        "trace.coverage",
        run_us.iter().sum::<f64>() / (traced_s[1] * 1e6),
    );
    put(
        "trace.overhead",
        traced_rate / (2.0 * schedules / untraced_s),
    );
    Ok(())
}

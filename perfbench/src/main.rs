//! `qelect-perfbench` — the repository benchmark.
//!
//! ```text
//! qelect-perfbench --qelectctl PATH --scratch DIR
//!     --workload serve-warm|serve-fresh|explore-swarm
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric (0 for a layer the workload does not exercise), as
//! `BENCHMARK.json` in the working directory declares them.
//! The last line of standard output is the result object; the full
//! record (environment, operation counts, errors) goes to
//! `DIR/results/`. Exit code 0 only when every output was correct.
//! `run.sh` builds the program and passes the paths; see README.md.

mod daemon;
mod explore;
mod gen;
mod http;
mod report;
mod serve;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;

use qelect_agentsim::json;
use report::Outcome;

/// Where the metric names and units are declared; the benchmark runs
/// from the root of the checkout.
const CONTRACT: &str = "BENCHMARK.json";

/// Measured rounds per untraced run; each end-to-end metric is the
/// median of its per-round values, so a burst of interference from
/// outside the benchmark moves one round, not the result.
pub const ROUNDS: usize = 5;

const WORKLOADS: [&str; 3] = ["serve-warm", "serve-fresh", "explore-swarm"];

/// One run's settings.
pub struct Ctx {
    pub qelectctl: PathBuf,
    /// Scratch directory for store logs, spans and result records.
    pub scratch: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let need = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        need(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Ctx {
        qelectctl: PathBuf::from(need("--qelectctl")?),
        scratch: PathBuf::from(need("--scratch")?),
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The `(name, unit)` pairs of the metrics a run reports: the
/// `per_layer` list of the contract for a traced run, else `end_to_end`.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(CONTRACT).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .as_object()
        .and_then(|o| json::get(o, key))
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("{CONTRACT} has no {key:?} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.as_object()
                    .and_then(|o| json::get(o, k))
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{CONTRACT}: a {key} metric lacks {k:?}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The commit, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if ctx.workload == "explore-swarm" {
        return match ctx.trace {
            true => explore::run_traced(ctx, out),
            false => explore::run(ctx, out),
        };
    }
    let kind = if ctx.workload == "serve-warm" {
        serve::Kind::Warm
    } else {
        serve::Kind::Fresh
    };
    let n = ctx.seconds as usize * kind.requests_per_second();
    let inputs = match kind {
        serve::Kind::Warm => gen::serve_warm(ctx.seed, n),
        serve::Kind::Fresh => gen::serve_fresh(ctx.seed, n),
    };
    out.env_str("daemon_flags", &daemon::FLAGS.join(" "));
    if kind == serve::Kind::Fresh {
        out.env_str("daemon_store", "empty log per launch");
    }
    match ctx.trace {
        true => serve::run_traced(ctx, kind, &inputs, out),
        false => serve::run(ctx, kind, &inputs, out),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("qelect-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(ctx.scratch.join("results")) {
        eprintln!("qelect-perfbench: {:?}: {e}", ctx.scratch);
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    out.env_str("workload", &ctx.workload);
    out.env_num("seed", ctx.seed);
    out.env_num("seconds", ctx.seconds);
    out.env_num("trace", ctx.trace as u8);
    out.env_num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    out.env_str("commit", &commit());
    let declared = declared_metrics(ctx.trace).and_then(|declared| {
        run(&ctx, &mut out)?;
        Ok(declared)
    });
    let declared = match declared {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("qelect-perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    // Every end-to-end metric is measured on every workload; a layer the
    // workload does not run reads 0.
    let missing: Vec<&str> = declared
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| !out.values.contains_key(*name))
        .collect();
    if ctx.trace {
        out.env_str("unexercised_layers", &missing.join(" "));
    } else if !missing.is_empty() {
        eprintln!(
            "qelect-perfbench: {}: no value for {missing:?}",
            ctx.workload
        );
        std::process::exit(1);
    }
    out.env_num("attempted", out.attempted);
    out.env_num("failed", out.failed);

    println!(
        "# qelect-perfbench {} seed {} trace {}",
        ctx.workload, ctx.seed, ctx.trace as u8
    );
    for (name, unit) in &declared {
        println!("{name:<30} {:>14.4} {unit}", out.value(name));
    }
    for e in &out.errors {
        println!("# error: {e}");
    }
    let record = ctx.scratch.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload, ctx.seed, ctx.trace as u8
    ));
    if let Err(e) = std::fs::write(&record, out.record_json(&declared)) {
        eprintln!("qelect-perfbench: {record:?}: {e}");
    }
    println!("# record: {}", record.display());
    println!("{}", out.result_json(&declared));
    if !out.correct() {
        std::process::exit(1);
    }
}

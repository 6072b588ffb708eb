//! The two serve workloads: a closed loop of 2 keep-alive connections
//! against `qelectctl serve`, every response checked against the gcd
//! oracle, plus the traced in-process replay of the same inputs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qelect::service::PreparedElection;
use qelect_agentsim::json::{envelope, escape, get, Value};
use qelect_agentsim::registry::ProtocolEntry;
use qelect_agentsim::sched::Policy;
use qelect_agentsim::{Engine, RunConfig};
use qelect_bench::spec::InstanceSpec;
use qelect_bench::store::Store;
use qelect_graph::cache::{self as gcache, CanonSession};
use qelect_graph::ColoredDigraph;

use crate::daemon::Daemon;
use crate::gen::{Inputs, Item};
use crate::http::Client;
use crate::report::{mean, median_of, percentile, ratio, Outcome};
use crate::trace::{durations, Span, Tracer};
use crate::{Ctx, ROUNDS};

/// Connections (and generator threads) of the closed loop: nproc on
/// the 2-core reference box.
pub const CONNECTIONS: usize = 2;
/// Set-up-only daemon launches before each round; `setup_s` is the
/// median over these and the measured daemon's own launch.
const EXTRA_LAUNCHES: usize = 2;

/// `GET /healthz` round trips timed by the traced run.
const HEALTHZ_PROBES: usize = 2000;
/// Failure messages kept per run (every failure is still counted).
const MAX_MESSAGES: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Fresh,
}

impl Kind {
    /// Measured requests per `--seconds`: each run is a fixed amount of
    /// work, sized to take about `--seconds` on a 2-core box.
    pub fn requests_per_second(self) -> usize {
        match self {
            Kind::Warm => 4500,
            Kind::Fresh => 340,
        }
    }
}

fn request_body(item: &Item) -> String {
    format!(
        "{{\"schema\": {}, \"spec\": {}, \"engine\": \"sim\", \"policy\": \"random\", \"seed\": {}}}",
        escape(envelope::REQUEST),
        escape(&item.spec),
        item.seed
    )
}

/// One answered request: status, body, and round trip (send to full
/// response read).
struct Reply {
    code: u16,
    body: String,
    rtt_us: f64,
}

/// Timings a checked response carries.
struct Served {
    queue_us: f64,
    run_us: f64,
}

/// Check one response against the gcd verdict computed at set-up.
/// `Err` describes a failed request or a wrong answer.
fn check(item: &Item, reply: &Result<Reply, String>) -> Result<Served, String> {
    let reply = reply.as_ref().map_err(|e| format!("{}: {e}", item.spec))?;
    if reply.code != 200 {
        return Err(format!("{}: status {}", item.spec, reply.code));
    }
    let wrong = |what: &str| format!("{} seed {}: {what}", item.spec, item.seed);
    let obj = envelope::check_document(&reply.body, envelope::RESPONSE).map_err(|e| wrong(&e))?;
    let num = |key: &str| get(&obj, key).and_then(Value::as_num);
    let expected = if item.solvable {
        "elected"
    } else {
        "unsolvable"
    };
    let outcome = get(&obj, "outcome").and_then(Value::as_str);
    if outcome != Some(expected) {
        return Err(wrong(&format!(
            "outcome {outcome:?}, gcd oracle says {expected}"
        )));
    }
    if get(&obj, "spec").and_then(Value::as_str) != Some(item.spec.as_str())
        || get(&obj, "solvable").and_then(Value::as_bool) != Some(item.solvable)
        || num("gcd") != Some(item.gcd as f64)
        || num("seed") != Some(item.seed as f64)
    {
        return Err(wrong("response echoes another instance or verdict"));
    }
    if item.solvable && num("leader").is_none() {
        return Err(wrong("elected without a leader"));
    }
    if get(&obj, "coalesced").and_then(Value::as_bool) != Some(false) {
        return Err(wrong("coalesced onto another request"));
    }
    Ok(Served {
        queue_us: num("queue_us").unwrap_or(0.0),
        run_us: num("run_us").unwrap_or(0.0),
    })
}

/// Send `items` over [`CONNECTIONS`] closed-loop connections; replies
/// come back in item order, with the wall time of the whole loop.
fn closed_loop(addr: std::net::SocketAddr, items: &[Item]) -> (Vec<Result<Reply, String>>, f64) {
    let bodies: Vec<String> = items.iter().map(request_body).collect();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut replies: Vec<(usize, Result<Reply, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            break;
                        }
                        let t = Instant::now();
                        let reply = match &mut client {
                            Ok(c) => c.request("POST", "/v1/elect", &bodies[i]),
                            Err(e) => Err(e.clone()),
                        };
                        let rtt_us = t.elapsed().as_nanos() as f64 / 1e3;
                        out.push((i, reply.map(|(code, body)| Reply { code, body, rtt_us })));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    replies.sort_by_key(|(i, _)| *i);
    (replies.into_iter().map(|(_, r)| r).collect(), wall)
}

/// The `/metrics` counters the benchmark reads, as deltas.
#[derive(Default, Clone, Copy)]
struct Counters {
    completed: f64,
    coalesced: f64,
    rejected: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    store_records: f64,
}

impl Counters {
    fn read(addr: std::net::SocketAddr) -> Result<Counters, String> {
        let (code, body) = Client::connect(addr)?.request("GET", "/metrics", "")?;
        if code != 200 {
            return Err(format!("/metrics answered {code}"));
        }
        let obj = envelope::check_document(&body, envelope::RESPONSE)?;
        let num =
            |o: &[(String, Value)], key: &str| get(o, key).and_then(Value::as_num).unwrap_or(0.0);
        let cache = get(&obj, "cache").and_then(Value::as_object).unwrap_or(&[]);
        let store = get(&obj, "store").and_then(Value::as_object).unwrap_or(&[]);
        Ok(Counters {
            completed: num(&obj, "completed"),
            coalesced: num(&obj, "coalesced"),
            rejected: num(&obj, "rejected_queue_full") + num(&obj, "rejected_draining"),
            hits: num(cache, "hits"),
            misses: num(cache, "misses"),
            evictions: num(cache, "evictions"),
            store_records: num(store, "written_canon") + num(store, "written_specs"),
        })
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            coalesced: self.coalesced - before.coalesced,
            rejected: self.rejected - before.rejected,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            store_records: self.store_records - before.store_records,
        }
    }
}

/// Launch a daemon (on an empty store log for serve-fresh) and send the
/// warm-up pass; returns the daemon and the set-up seconds. `extra`
/// numbers the set-up-only daemons, which need store logs of their own.
fn launch(
    ctx: &Ctx,
    kind: Kind,
    inputs: &Inputs,
    extra: Option<usize>,
    out: &mut Outcome,
) -> Result<(Daemon, f64), String> {
    let store = store_path(ctx, kind, extra);
    if let Some(path) = &store {
        let _ = std::fs::remove_file(path);
    }
    let started = Instant::now();
    let daemon = Daemon::start(&ctx.qelectctl, store.as_deref())?;
    let mut client = Client::connect(daemon.addr)?;
    for item in &inputs.warmup {
        let t = Instant::now();
        let reply = client
            .request("POST", "/v1/elect", &request_body(item))
            .map(|(code, body)| Reply {
                code,
                body,
                rtt_us: t.elapsed().as_nanos() as f64 / 1e3,
            });
        if let Err(msg) = check(item, &reply) {
            out.fail(format!("warm-up: {msg}"));
        }
    }
    drop(client);
    let secs = started.elapsed().as_secs_f64();
    if let (Some(path), Some(_)) = (&store, extra) {
        let _ = std::fs::remove_file(path);
    }
    Ok((daemon, secs))
}

fn store_path(ctx: &Ctx, kind: Kind, extra: Option<usize>) -> Option<PathBuf> {
    let tag = extra.map_or(String::new(), |k| format!("-extra{k}"));
    (kind == Kind::Fresh).then(|| {
        ctx.scratch
            .join(format!("fresh-{}{tag}.store", std::process::id()))
    })
}

/// One measured round: a slice of the requests sent in closed loop.
struct Round {
    requests: std::ops::Range<usize>,
    wall_s: f64,
    /// Elections the daemon completed during the round (`/metrics`).
    completed: f64,
}

/// The daemon-side measurement both runs share: set-up, the closed
/// loop in [`ROUNDS`] rounds, and the `/metrics` deltas around them.
struct DaemonRun {
    replies: Vec<Result<Reply, String>>,
    rounds: Vec<Round>,
    setup_s: Vec<f64>,
    delta: Counters,
    peak_rss_mb: f64,
    healthz_us: Vec<f64>,
}

fn serve_phase(
    ctx: &Ctx,
    kind: Kind,
    inputs: &Inputs,
    extra_launches: usize,
    probe_healthz: bool,
    out: &mut Outcome,
) -> Result<DaemonRun, String> {
    let (daemon, secs) = launch(ctx, kind, inputs, None, out)?;
    let mut setup_s = vec![secs];
    let before = Counters::read(daemon.addr)?;
    let mut last = before;
    let mut replies = Vec::with_capacity(inputs.requests.len());
    let mut rounds = Vec::with_capacity(ROUNDS);
    for slice in inputs
        .requests
        .chunks(inputs.requests.len().div_ceil(ROUNDS).max(1))
    {
        // More set-up samples, spread over the run; each extra daemon
        // is gone before the round starts.
        for k in 0..extra_launches {
            let (mut extra, secs) = launch(ctx, kind, inputs, Some(k), out)?;
            setup_s.push(secs);
            extra.kill();
        }
        let (round, wall_s) = closed_loop(daemon.addr, slice);
        let now = Counters::read(daemon.addr)?;
        rounds.push(Round {
            requests: replies.len()..replies.len() + slice.len(),
            wall_s,
            completed: now.completed - last.completed,
        });
        replies.extend(round);
        last = now;
    }
    let delta = last.since(&before);
    let mut healthz_us = Vec::new();
    if probe_healthz {
        let mut client = Client::connect(daemon.addr)?;
        for _ in 0..HEALTHZ_PROBES {
            let t = Instant::now();
            let (code, _) = client.request("GET", "/healthz", "")?;
            healthz_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            if code != 200 {
                return Err(format!("/healthz answered {code}"));
            }
        }
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    if let Some(path) = store_path(ctx, kind, None) {
        let _ = std::fs::remove_file(path);
    }
    if delta.coalesced != 0.0 || delta.rejected != 0.0 {
        out.fail(format!(
            "{} coalesced and {} rejected requests: the workload is not measuring what it claims to",
            delta.coalesced, delta.rejected
        ));
    }
    Ok(DaemonRun {
        replies,
        rounds,
        setup_s,
        delta,
        peak_rss_mb,
        healthz_us,
    })
}

/// Check every reply against its request's verdict: the round trip and
/// response timings of each correct reply, `None` for a failure.
fn check_all(
    inputs: &Inputs,
    replies: &[Result<Reply, String>],
    out: &mut Outcome,
) -> Vec<Option<(f64, Served)>> {
    out.attempted += replies.len() as u64;
    inputs
        .requests
        .iter()
        .zip(replies)
        .map(|(item, reply)| match check(item, reply) {
            Ok(served) => Some((reply.as_ref().map_or(0.0, |r| r.rtt_us), served)),
            Err(msg) => {
                out.failed += 1;
                if out.errors.len() < MAX_MESSAGES {
                    out.fail(msg);
                }
                None
            }
        })
        .collect()
}

fn record_env(inputs: &Inputs, out: &mut Outcome) {
    out.env_num("warmup_requests", inputs.warmup.len());
    out.env_num("requests", inputs.requests.len());
    out.env_num("isomorphic_repeats", inputs.isomorphic_repeats);
    out.env_num("connections", CONNECTIONS);
    out.env_num("rounds", ROUNDS);
    out.env_str(
        "loop",
        "closed: each connection sends its next request after the previous reply",
    );
}

/// The untraced run: every end-to-end metric, each the median of its
/// per-round values.
pub fn run(ctx: &Ctx, kind: Kind, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    record_env(inputs, out);
    let s = serve_phase(ctx, kind, inputs, EXTRA_LAUNCHES, false, out)?;
    let checked = check_all(inputs, &s.replies, out);
    let mut per_round: [Vec<f64>; 4] = Default::default();
    for round in &s.rounds {
        let mut rtt: Vec<f64> = checked[round.requests.clone()]
            .iter()
            .flatten()
            .map(|(rtt, _)| *rtt)
            .collect();
        rtt.sort_by(f64::total_cmp);
        per_round[0].push(rtt.len() as f64 / round.wall_s);
        per_round[1].push(percentile(&rtt, 0.50) / 1e3);
        per_round[2].push(percentile(&rtt, 0.99) / 1e3);
        per_round[3].push(round.completed / round.wall_s);
    }
    let names = [
        "elections_per_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "schedules_per_s",
    ];
    for (name, values) in names.iter().zip(&per_round) {
        out.env_str(&format!("rounds.{name}"), &format!("{values:.4?}"));
        out.metric(name, median_of(values));
    }
    out.env_str("setup_s.launches", &format!("{:.6?}", s.setup_s));
    out.metric("setup_s", median_of(&s.setup_s));
    out.metric("peak_rss_mb", s.peak_rss_mb);
    Ok(())
}

/// Engine counts summed over the replayed elections.
#[derive(Default)]
struct EngineCounts {
    elections: f64,
    moves: f64,
    accesses: f64,
    steps: f64,
    phases: HashMap<String, (f64, f64)>,
}

/// The daemon's per-request calls, made in its order from outside.
struct Replay {
    tracer: Arc<Tracer>,
    entry: &'static ProtocolEntry,
    session: CanonSession,
    instances: HashMap<String, Arc<PreparedElection>>,
    store: Option<Arc<Store>>,
    counts: EngineCounts,
}

impl Replay {
    /// Start from an empty process cache, as a freshly launched daemon
    /// does (and, for serve-fresh, on an empty store log).
    fn new(tracer: Arc<Tracer>, store: Option<&Path>) -> Result<Replay, String> {
        gcache::global().clear();
        let store = match store {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let (store, _) = Store::open(path).map_err(|e| format!("store {path:?}: {e}"))?;
                let store = Arc::new(store);
                let (s, t) = (Arc::clone(&store), Arc::clone(&tracer));
                gcache::global().set_canon_observer(Some(Arc::new(
                    move |key: &[u64], res: &qelect_graph::canon::CanonResult| {
                        let _ = t.span("store.append", || s.record_canon(key, res));
                    },
                )));
                Some(store)
            }
            None => None,
        };
        Ok(Replay {
            tracer,
            entry: qelect::registry::default_entry(),
            session: CanonSession::new(),
            instances: HashMap::new(),
            store,
            counts: EngineCounts::default(),
        })
    }

    /// One election, as `qelectd` handles `POST /v1/elect`.
    fn elect(&mut self, req: u32, item: &Item, body: &str) -> Result<(), String> {
        let t = Arc::clone(&self.tracer);
        t.set_request(req);
        let obj = t.span("json.parse", || {
            envelope::check_document(body, envelope::REQUEST)
        })?;
        let text = get(&obj, "spec").and_then(Value::as_str).ok_or("no spec")?;
        let (spec, bc) = t
            .span("spec.parse", || {
                let spec = InstanceSpec::parse(text)?;
                let bc = spec.bicolored()?;
                Ok::<_, qelect_bench::spec::SpecError>((spec, bc))
            })
            .map_err(|e| e.to_string())?;
        let key = spec.key();
        let prepared = match self.instances.get(&key) {
            Some(p) => Arc::clone(p),
            None => {
                let session = &mut self.session;
                t.span("canon.instance", || {
                    gcache::canonicalize_cached_with(session, &ColoredDigraph::from_bicolored(&bc))
                });
                let p = Arc::new(t.span("prepare", || PreparedElection::new(bc)));
                if let Some(store) = &self.store {
                    let _ = t.span("store.append", || store.record_spec(&key));
                }
                self.instances.insert(key, Arc::clone(&p));
                p
            }
        };
        let cfg = RunConfig::new(item.seed)
            .engine(Engine::Sim)
            .policy(Policy::Random);
        let run = t
            .span("engine.run", || self.entry.run(prepared.instance(), &cfg))
            .map_err(|e| format!("{}: run failed: {e}", item.spec))?;
        let agrees = prepared.solvable() == item.solvable
            && prepared.gcd() == item.gcd
            && prepared.agrees(&run);
        if !agrees {
            return Err(format!(
                "{} seed {}: replay disagrees with the gcd oracle",
                item.spec, item.seed
            ));
        }
        let m = &run.report.metrics;
        let c = &mut self.counts;
        c.elections += 1.0;
        c.moves += m.total_moves() as f64;
        c.accesses += m.total_accesses() as f64;
        c.steps += m.steps as f64;
        for row in m.phase_breakdown() {
            let e = c.phases.entry(row.phase).or_default();
            e.0 += row.moves as f64;
            e.1 += row.accesses as f64;
        }
        Ok(())
    }

    /// Warm-up pass, then the measured requests; returns the measured
    /// elections per second.
    fn run(&mut self, inputs: &Inputs, out: &mut Outcome) -> f64 {
        let bodies: Vec<String> = inputs.requests.iter().map(request_body).collect();
        for (i, item) in inputs.warmup.iter().enumerate() {
            if let Err(e) = self.elect(i as u32, item, &request_body(item)) {
                out.fail(e);
            }
        }
        self.counts = EngineCounts::default();
        let base = inputs.warmup.len() as u32;
        let started = Instant::now();
        for (i, (item, body)) in inputs.requests.iter().zip(&bodies).enumerate() {
            out.attempted += 1;
            if let Err(e) = self.elect(base + i as u32, item, body) {
                out.failed += 1;
                out.fail(e);
            }
        }
        inputs.requests.len() as f64 / started.elapsed().as_secs_f64()
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        if self.store.is_some() {
            gcache::global().set_canon_observer(None);
        }
    }
}

/// The traced run: the closed loop once more for the `bench::serve`
/// and cache metrics, then the in-process replay, untraced and traced in
/// turn, for the per-call layer metrics and the tracing overhead.
pub fn run_traced(ctx: &Ctx, kind: Kind, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    record_env(inputs, out);
    let s = serve_phase(ctx, kind, inputs, 0, true, out)?;
    let ok: Vec<(f64, Served)> = check_all(inputs, &s.replies, out)
        .into_iter()
        .flatten()
        .collect();
    let field = |f: fn(&(f64, Served)) -> f64| -> Vec<f64> {
        let mut v: Vec<f64> = ok.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let queue = field(|(_, s)| s.queue_us);
    let run_us = field(|(_, s)| s.run_us);
    let overhead = field(|(rtt, s)| rtt - s.queue_us - s.run_us);
    let rtt_mean = mean(&field(|(rtt, _)| *rtt));
    let elections = s.delta.completed.max(1.0);

    let store = store_path(ctx, kind, None);
    // The replays take the first quarter of the requests, which keeps
    // the traced run short. A discarded pass comes first, so no
    // measured pass pays the process's first-touch costs.
    let head = Inputs {
        requests: inputs.requests[..inputs.requests.len() / 4].to_vec(),
        ..inputs.clone()
    };
    Replay::new(Arc::new(Tracer::new(false)), store.as_deref())?
        .run(&head, &mut Outcome::default());
    // Untraced and traced replays alternate, twice each, so a drift in
    // the machine's speed does not read as tracing overhead.
    let mut rates: [Vec<f64>; 2] = Default::default();
    let mut counts = EngineCounts::default();
    let mut tracer = Arc::new(Tracer::new(true));
    for pass in 0..4 {
        let traced = pass % 2 == 1;
        let t = Arc::new(Tracer::new(traced));
        let mut replay = Replay::new(Arc::clone(&t), store.as_deref())?;
        rates[traced as usize].push(replay.run(&head, out));
        if traced {
            tracer = t;
        } else {
            counts = std::mem::take(&mut replay.counts);
        }
    }
    if let Some(path) = &store {
        let _ = std::fs::remove_file(path);
    }
    let spans = tracer.spans();
    let spans_file = ctx.scratch.join(format!("{}.spans.jsonl", ctx.workload));
    tracer
        .write(&spans_file)
        .map_err(|e| format!("{spans_file:?}: {e}"))?;
    out.env_str("spans_file", &spans_file.to_string_lossy());
    out.env_num("spans", spans.len());

    let per = |v: f64| ratio(v, counts.elections);
    let mut put = |name: &str, value: f64| out.metric(name, value);
    put("serve.healthz_us.p50", median_of(&s.healthz_us));
    put("serve.queue_us.p50", percentile(&queue, 0.50));
    put("serve.queue_us.p99", percentile(&queue, 0.99));
    put("serve.run_us.p50", percentile(&run_us, 0.50));
    put("serve.overhead_us.p50", percentile(&overhead, 0.50));
    put("serve.coalesced", s.delta.coalesced);
    put("serve.rejected", s.delta.rejected);
    put("canon.hits_per_election", s.delta.hits / elections);
    put("canon.misses_per_election", s.delta.misses / elections);
    put(
        "canon.evictions_per_election",
        s.delta.evictions / elections,
    );
    put(
        "canon.hit_rate",
        ratio(s.delta.hits, s.delta.hits + s.delta.misses),
    );
    put(
        "store.records_per_election",
        s.delta.store_records / elections,
    );
    for (name, layer) in [
        ("json.parse_us", "json.parse"),
        ("spec.parse_us", "spec.parse"),
        ("canon.instance_us", "canon.instance"),
        ("prepare.us", "prepare"),
        ("engine.run_us", "engine.run"),
        ("store.append_us", "store.append"),
    ] {
        put(name, median_of(&durations(&spans, layer)));
    }
    put("engine.moves", per(counts.moves));
    put("engine.accesses", per(counts.accesses));
    put("engine.steps", per(counts.steps));
    for (phase, (moves, accesses)) in &counts.phases {
        put(&format!("phase.{phase}.moves"), per(*moves));
        put(&format!("phase.{phase}.accesses"), per(*accesses));
    }
    put(
        "trace.coverage",
        ratio(
            mean_top_level_us(&spans, inputs.warmup.len() as u32),
            rtt_mean,
        ),
    );
    put("trace.overhead", ratio(mean(&rates[1]), mean(&rates[0])));
    out.env_str(
        "replay_elections_per_s",
        &format!("untraced {:.1?}, traced {:.1?}", rates[0], rates[1]),
    );
    Ok(())
}

/// Mean over measured requests of the time their top-level spans cover.
fn mean_top_level_us(spans: &[Span], first_measured: u32) -> f64 {
    let mut per_req: HashMap<u32, f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent == 0 && s.req >= first_measured)
    {
        *per_req.entry(s.req).or_default() += s.us();
    }
    mean(&per_req.into_values().collect::<Vec<_>>())
}

//! The deterministic, scheduler-gated execution engine.
//!
//! Agents run as real OS threads, but every primitive operation (move,
//! whiteboard access, wait) passes through a gate: the agent announces
//! the operation and blocks until the scheduler grants it. The scheduler
//! only proceeds once *every* live agent is parked at a gate, so exactly
//! one agent is active at any instant and the whole run is a
//! deterministic function of `(instance, protocol, policy, seed)` —
//! which is what lets the experiment suite treat the scheduler as the
//! paper's asynchrony adversary and replay counterexamples.
//!
//! The engine detects **deadlocks** (all live agents waiting on unchanged
//! whiteboards) and enforces a **step budget** (the livelock detector
//! used by the impossibility demonstrations), interrupting every agent
//! with an explicit [`Interrupt`].

use crate::color::{Color, ColorRegistry};
use crate::ctx::{AgentOutcome, Interrupt, LocalPort, MobileCtx};
use crate::fault::{FaultAction, FaultClock, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{AgentMetrics, Checkpoint, Metrics, SpanTracker};
use crate::run::RunError;
use crate::sched::{Policy, Scheduler};
use crate::sign::{Sign, SignKind};
use crate::trace::{sign_kind_code, PrimOp, Trace, TraceEvent};
use crate::whiteboard::Whiteboard;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use qelect_graph::{Bicolored, Graph, Port};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Configuration of a gated run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Master seed: colors, port scrambles, and the random policy derive
    /// from it.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: Policy,
    /// Global step budget (scheduler grants). Exhaustion interrupts all
    /// agents with [`Interrupt::StepLimit`].
    pub max_steps: u64,
    /// Whether each agent sees its own scrambled local port numbering
    /// (the qualitative model's "private encodings"; disable only for
    /// debugging).
    pub scramble_ports: bool,
    /// Record the grant sequence (which agent ran at each scheduler
    /// step) into [`RunReport::trace`], plus the per-primitive event log
    /// into [`RunReport::events`] — the replayable witness of a
    /// deterministic execution.
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            policy: Policy::Random,
            max_steps: 5_000_000,
            scramble_ports: true,
            record_trace: false,
        }
    }
}

/// Result of a gated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Terminal state per agent (indexed like the home-base list).
    pub outcomes: Vec<AgentOutcome>,
    /// Index of the (unique) leader, if exactly one agent won.
    pub leader: Option<usize>,
    /// Colors the agents carried (for validating announcements).
    pub colors: Vec<Color>,
    /// Metrics.
    pub metrics: Metrics,
    /// The interrupt that ended the run, if any.
    pub interrupted: Option<Interrupt>,
    /// The scheduler policy name.
    pub policy: &'static str,
    /// The grant sequence (agent index per scheduler step), recorded
    /// only when [`RunConfig::record_trace`] is set. Two runs with the
    /// same `(instance, protocol, policy, seed)` produce identical
    /// traces — the engine's determinism contract.
    pub trace: Vec<usize>,
    /// Per-primitive event log (what each grant was spent on), recorded
    /// only when [`RunConfig::record_trace`] is set.
    pub events: Vec<TraceEvent>,
}

impl RunReport {
    /// Whether the run elected exactly one leader and every other agent
    /// was defeated.
    pub fn clean_election(&self) -> bool {
        let leaders = self
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        leaders == 1
            && self
                .outcomes
                .iter()
                .all(|o| matches!(o, AgentOutcome::Leader | AgentOutcome::Defeated))
    }

    /// Whether every agent unanimously reported the instance unsolvable.
    pub fn unanimous_unsolvable(&self) -> bool {
        self.outcomes.iter().all(|o| *o == AgentOutcome::Unsolvable)
    }

    /// Everything two runs of the same configuration must share — on
    /// one engine across replays, or across gated and sim — formatted
    /// for `assert_eq!` diffs: outcomes, leader, interrupt, schedule,
    /// events, raw counters, checkpoints, fault activity and every
    /// closed span's exclusive cost. Cache counters are excluded: they
    /// are process-global memo traffic, not run behavior.
    pub fn fingerprint(&self) -> String {
        let m = &self.metrics;
        let spans: Vec<String> = m
            .spans
            .iter()
            .map(|s| {
                let (mv, a, w) = s.exclusive();
                format!("{}:{}:{mv}:{a}:{w}", s.agent, s.name)
            })
            .collect();
        format!(
            "outcomes={:?}\nleader={:?}\ninterrupted={:?}\ntrace={:?}\nevents={:?}\n\
             per_agent={:?}\nsteps={}\npreemptions={}\ncheckpoints={:?}\nfaults={:?}\nspans={}",
            self.outcomes,
            self.leader,
            self.interrupted,
            self.trace,
            self.events,
            m.per_agent,
            m.steps,
            m.preemptions,
            m.checkpoints,
            m.faults,
            spans.join(","),
        )
    }

    /// Package the recorded schedule and events as a [`Trace`] (the run
    /// must have been made with [`RunConfig::record_trace`] set for the
    /// trace to be non-trivial).
    pub fn to_trace(&self, bc: &Bicolored, seed: u64, label: &str) -> Trace {
        Trace {
            label: label.to_string(),
            seed,
            policy: self.policy.to_string(),
            agents: self.outcomes.len(),
            nodes: bc.n(),
            schedule: self.trace.clone(),
            events: self.events.clone(),
        }
    }
}

struct Shared {
    graph: Graph,
    boards: Vec<Mutex<Whiteboard>>,
    metrics: Vec<AgentMetrics>,
    trackers: Vec<SpanTracker>,
    checkpoints: Mutex<Vec<Checkpoint>>,
    port_seed: u64,
    scramble_ports: bool,
    /// Event log, appended by whichever agent holds the grant. Only one
    /// agent runs at a time, so the order is the deterministic grant
    /// order; the mutex only covers the cross-thread handoff.
    events: Mutex<Vec<TraceEvent>>,
    record_events: bool,
    /// Fault-injection accumulators (all zero on crash-free runs).
    fault_stats: FaultStats,
    /// Whether the run's plan contains crash events (what
    /// [`MobileCtx::crash_faults_armed`] reports to protocols).
    faults_armed: bool,
    /// Panic payloads caught at the agent-program boundary, surfaced as
    /// [`RunError::AgentPanicked`] once the run winds down.
    panics: Mutex<Vec<(usize, String)>>,
}

impl Shared {
    /// The agent-specific local-port → symbol mapping at a node.
    fn port_map(&self, agent: usize, node: usize) -> Vec<Port> {
        let syms: Vec<Port> = self.graph.ports_at(node);
        if self.scramble_ports {
            crate::shuffle::scrambled_ports(self.port_seed, agent, node, syms)
        } else {
            syms
        }
    }
}

enum Msg {
    /// Agent requests to perform one primitive.
    Op { agent: usize },
    /// Agent waits for the board at `node` to move past `seen`.
    Wait {
        agent: usize,
        node: usize,
        seen: Option<u64>,
    },
    /// Agent finished.
    Finished { agent: usize, outcome: AgentOutcome },
}

enum Grant {
    /// Proceed; carries the grant's tick number for event records.
    Go(u64),
    Abort(Interrupt),
}

/// How many `try_recv` + `yield_now` rounds [`recv_spin`] attempts
/// before falling back to a blocking `recv`.
///
/// Tuning rationale: the counterpart of a grant handoff is almost always
/// already runnable, so the message usually lands within a few yields —
/// small bounds (≤8) still eat occasional futex parks under scheduler
/// jitter, while large bounds (≥512) burn CPU whenever an agent is
/// legitimately ungranted for a while (r-agent runs grant one agent per
/// step, so r−1 spinners idle per step). 64 yields is microseconds of
/// spin — comfortably above handoff latency, far below the cost of the
/// sleep/wake cycle it avoids. Exposed (crate-internal) so the
/// spin-then-block contract is testable.
pub(crate) const RECV_SPIN_BOUND: usize = 64;

/// Receive with a bounded yield-spin before parking.
///
/// Every scheduler grant is a pair of cross-thread handoffs
/// (agent → scheduler → agent) whose counterpart is almost always
/// already runnable, so the futex sleep/wake of a parked `recv` is pure
/// latency — the dominant per-step cost of the engine on oversubscribed
/// or single-core hosts. A few `yield_now` attempts hand the core
/// straight to the counterpart instead; the blocking `recv` remains the
/// fallback, so agents that stay ungranted for long still park.
fn recv_spin<T>(rx: &Receiver<T>) -> Result<T, crossbeam::channel::RecvError> {
    for _ in 0..RECV_SPIN_BOUND {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(_) => std::thread::yield_now(),
        }
    }
    rx.recv()
}

/// Best-effort extraction of a caught panic's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The concrete [`MobileCtx`] of the gated engine.
pub struct GatedCtx {
    shared: Arc<Shared>,
    id: usize,
    color: Color,
    node: usize,
    home: usize,
    entry: Option<LocalPort>,
    req_tx: Sender<Msg>,
    grant_rx: Receiver<Grant>,
    faults: FaultClock,
    recovery: RecoveryPolicy,
}

impl GatedCtx {
    /// Park at the gate; on grant, returns the tick number.
    fn gate_op(&mut self) -> Result<u64, Interrupt> {
        self.req_tx
            .send(Msg::Op { agent: self.id })
            .map_err(|_| Interrupt::Cancelled)?;
        match recv_spin(&self.grant_rx) {
            Ok(Grant::Go(tick)) => Ok(tick),
            Ok(Grant::Abort(i)) => Err(i),
            Err(_) => Err(Interrupt::Cancelled),
        }
    }

    fn count_access(&self) {
        self.shared.metrics[self.id]
            .accesses
            .fetch_add(1, Ordering::Relaxed);
    }

    fn record(&self, tick: u64, op: PrimOp) {
        if self.shared.record_events {
            self.shared.events.lock().push(TraceEvent {
                tick,
                agent: self.id,
                op,
            });
        }
    }

    /// The whiteboard-access boundary hook: advance this agent's
    /// operation counter and apply any fault due here. Runs *before* the
    /// gate request, so a crash loses the pending operation without
    /// consuming a scheduler grant; delays consume extra grants (visible
    /// stall ticks in the recorded trace).
    fn fault_gate(&mut self) -> Result<(), Interrupt> {
        self.faults.advance();
        while let Some(action) = self.faults.take_due() {
            match action {
                FaultAction::Delay { ticks } => {
                    self.shared
                        .fault_stats
                        .delay_ticks
                        .fetch_add(ticks, Ordering::Relaxed);
                    for _ in 0..ticks {
                        let tick = self.gate_op()?;
                        self.record(
                            tick,
                            PrimOp::Wait {
                                node: self.node,
                                woke: false,
                            },
                        );
                    }
                }
                FaultAction::Crash { restart_after } => {
                    self.faults.note_crash(restart_after);
                    self.shared
                        .fault_stats
                        .crashes
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .fault_stats
                        .lost_ops
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(Interrupt::Crashed);
                }
            }
        }
        Ok(())
    }

    /// Prepare the context for a post-crash restart: seal the spans the
    /// crash tore through, reset volatile state to the home-base, bump
    /// the incarnation, and stall for the crash's `restart_after` plus
    /// the recovery policy's bounded exponential backoff (the ticks
    /// model re-acquiring board access after coming back up). Fails with
    /// [`Interrupt::Crashed`] when the restart budget is exhausted —
    /// the agent then terminates crashed.
    fn begin_restart(&mut self) -> Result<(), Interrupt> {
        let incarnation = self.faults.incarnation() + 1;
        if incarnation > self.recovery.max_restarts {
            self.shared
                .fault_stats
                .aborted
                .fetch_add(1, Ordering::Relaxed);
            return Err(Interrupt::Crashed);
        }
        self.shared.trackers[self.id].force_close_all(
            self.shared.metrics[self.id].snapshot(),
            Some(qelect_graph::cache::global().stats()),
        );
        self.faults.restart();
        self.shared
            .fault_stats
            .restarts
            .fetch_add(1, Ordering::Relaxed);
        self.node = self.home;
        self.entry = None;
        let stall = self.faults.take_restart_stall() + self.recovery.backoff(incarnation);
        self.shared
            .fault_stats
            .backoff_ticks
            .fetch_add(stall, Ordering::Relaxed);
        for _ in 0..stall {
            let tick = self.gate_op()?;
            self.record(
                tick,
                PrimOp::Wait {
                    node: self.node,
                    woke: false,
                },
            );
        }
        Ok(())
    }
}

impl MobileCtx for GatedCtx {
    fn color(&self) -> Color {
        self.color
    }

    fn degree(&mut self) -> usize {
        self.shared.graph.degree(self.node)
    }

    fn entry(&self) -> Option<LocalPort> {
        self.entry
    }

    fn read_board(&mut self) -> Result<Vec<Sign>, Interrupt> {
        self.fault_gate()?;
        let tick = self.gate_op()?;
        self.count_access();
        let board = self.shared.boards[self.node].lock();
        self.record(tick, PrimOp::Read { node: self.node });
        Ok(board.signs().to_vec())
    }

    fn with_board<R>(&mut self, f: impl FnOnce(&mut Whiteboard) -> R) -> Result<R, Interrupt> {
        self.fault_gate()?;
        let tick = self.gate_op()?;
        self.count_access();
        let mut board = self.shared.boards[self.node].lock();
        let before = board.signs().len();
        let result = f(&mut board);
        if self.shared.record_events {
            // Signs appended during the access (erasures shorten the
            // board instead; they leave `posted` empty).
            let posted: Vec<u32> = board
                .signs()
                .get(before..)
                .unwrap_or(&[])
                .iter()
                .map(|s| sign_kind_code(s.kind))
                .collect();
            self.record(
                tick,
                PrimOp::Write {
                    node: self.node,
                    posted,
                },
            );
        }
        Ok(result)
    }

    fn move_via(&mut self, port: LocalPort) -> Result<(), Interrupt> {
        self.fault_gate()?;
        let tick = self.gate_op()?;
        let from = self.node;
        let map = self.shared.port_map(self.id, self.node);
        let sym = *map
            .get(port.0 as usize)
            .unwrap_or_else(|| panic!("agent {} used invalid local port {port}", self.id));
        let (dest, entry_sym) = self
            .shared
            .graph
            .move_along(self.node, sym)
            .expect("port map is consistent with the graph");
        // Translate the arrival symbol into the agent's local numbering
        // at the destination.
        let dest_map = self.shared.port_map(self.id, dest);
        let entry_local = dest_map
            .iter()
            .position(|&p| p == entry_sym)
            .expect("entry symbol present at destination");
        self.node = dest;
        self.entry = Some(LocalPort(entry_local as u32));
        self.shared.metrics[self.id]
            .moves
            .fetch_add(1, Ordering::Relaxed);
        self.record(tick, PrimOp::Move { from, to: dest });
        Ok(())
    }

    fn wait_until(&mut self, pred: impl Fn(&Whiteboard) -> bool) -> Result<(), Interrupt> {
        // One boundary per wait *entry*: the re-check cadence below is
        // engine-dependent, so counting it would break the cross-engine
        // addressability of fault plans.
        self.fault_gate()?;
        let mut seen: Option<u64> = None;
        loop {
            self.req_tx
                .send(Msg::Wait {
                    agent: self.id,
                    node: self.node,
                    seen,
                })
                .map_err(|_| Interrupt::Cancelled)?;
            match recv_spin(&self.grant_rx) {
                Ok(Grant::Go(tick)) => {
                    self.count_access();
                    let board = self.shared.boards[self.node].lock();
                    let woke = pred(&board);
                    self.record(
                        tick,
                        PrimOp::Wait {
                            node: self.node,
                            woke,
                        },
                    );
                    if woke {
                        self.shared.metrics[self.id]
                            .waits
                            .fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    seen = Some(board.version());
                }
                Ok(Grant::Abort(i)) => return Err(i),
                Err(_) => return Err(Interrupt::Cancelled),
            }
        }
    }

    fn checkpoint(&mut self, label: &str) {
        let (moves, accesses, _) = self.shared.metrics[self.id].snapshot();
        self.shared.checkpoints.lock().push(Checkpoint {
            label: label.to_string(),
            agent: self.id,
            moves,
            accesses,
        });
    }

    fn span_open(&mut self, name: &str) {
        self.shared.trackers[self.id].open(
            name,
            self.shared.metrics[self.id].snapshot(),
            Some(qelect_graph::cache::global().stats()),
        );
    }

    fn span_close(&mut self, name: &str) {
        self.shared.trackers[self.id].close(
            name,
            self.shared.metrics[self.id].snapshot(),
            Some(qelect_graph::cache::global().stats()),
        );
    }

    fn incarnation(&self) -> u64 {
        self.faults.incarnation()
    }

    fn crash_faults_armed(&self) -> bool {
        self.shared.faults_armed
    }
}

/// A boxed agent program for the gated engine. `FnMut` (not `FnOnce`)
/// so the engine can re-invoke the program after a crash-restart; a
/// plain closure or fn item qualifies unchanged.
pub type GatedAgent = Box<dyn FnMut(&mut GatedCtx) -> Result<AgentOutcome, Interrupt> + Send>;

/// Run with the paper's wake-up semantics: only the agents listed in
/// `awake` start spontaneously; every other agent sleeps at its
/// home-base until some other agent writes on its whiteboard ("during
/// its traversal, if an agent meets a sleeping agent, then it wakes up
/// this agent" — a MAP-DRAWING `Visited` mark does exactly that).
///
/// `awake` must be non-empty (someone has to start).
pub fn run_gated_staggered(
    bc: &Bicolored,
    cfg: RunConfig,
    agents: Vec<GatedAgent>,
    awake: &[usize],
) -> RunReport {
    assert!(
        !awake.is_empty(),
        "at least one agent must wake spontaneously"
    );
    let awake: Vec<usize> = awake.to_vec();
    let wrapped: Vec<GatedAgent> = agents
        .into_iter()
        .enumerate()
        .map(|(i, mut program)| -> GatedAgent {
            if awake.contains(&i) {
                program
            } else {
                Box::new(move |ctx: &mut GatedCtx| {
                    // Sleep until anything beyond the pre-placed signs
                    // appears on my home whiteboard.
                    ctx.wait_until(|wb| wb.signs().iter().any(|s| s.kind != SignKind::HomeBase))?;
                    program(ctx)
                })
            }
        })
        .collect();
    run_gated_faulty(bc, cfg, &FaultPlan::none(), wrapped).expect("gated run failed")
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum St {
    /// Thinking (not at a gate yet).
    Running,
    /// Parked at an op gate.
    ReadyOp,
    /// Parked waiting for a board change.
    Waiting { node: usize, seen: Option<u64> },
    /// Finished.
    Done,
}

/// Run a gated election under a fault plan with a policy-built
/// scheduler. One agent per home-base (agent `i` starts at the `i`-th
/// home-base in sorted order, carrying a fresh color); home-bases are
/// pre-marked with a [`SignKind::HomeBase`] sign of the resident's
/// color, as the model prescribes.
pub fn run_gated_faulty(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    agents: Vec<GatedAgent>,
) -> Result<RunReport, RunError> {
    let mut scheduler = cfg.policy.build(cfg.seed);
    try_run_gated_with(bc, cfg, faults, agents, scheduler.as_mut())
}

/// The full-featured gated entry point: caller-supplied scheduler,
/// fault plan, typed errors. Protocol-level interrupts (deadlock, step
/// budget, exhausted restart budgets) are *not* errors — they come back
/// inside the report; `Err` means the run itself lost integrity (an
/// agent panicked or an engine channel died).
pub fn try_run_gated_with(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    agents: Vec<GatedAgent>,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    let cache_before = qelect_graph::cache::global().stats();
    let r = agents.len();
    assert_eq!(
        r,
        bc.r(),
        "one agent program per home-base ({} programs, {} home-bases)",
        r,
        bc.r()
    );
    let mut registry = ColorRegistry::new(cfg.seed);
    let colors = registry.fresh_many(r);

    let shared = Arc::new(Shared {
        graph: bc.graph().clone(),
        boards: (0..bc.n()).map(|_| Mutex::new(Whiteboard::new())).collect(),
        metrics: (0..r).map(|_| AgentMetrics::default()).collect(),
        trackers: (0..r).map(SpanTracker::new).collect(),
        checkpoints: Mutex::new(Vec::new()),
        port_seed: cfg.seed.wrapping_add(0x9047_5EED),
        scramble_ports: cfg.scramble_ports,
        events: Mutex::new(Vec::new()),
        record_events: cfg.record_trace,
        fault_stats: FaultStats::default(),
        faults_armed: faults.has_crashes(),
        panics: Mutex::new(Vec::new()),
    });
    // Pre-mark home-bases.
    for (i, &hb) in bc.homebases().iter().enumerate() {
        shared.boards[hb]
            .lock()
            .post(Sign::tag(colors[i], SignKind::HomeBase));
    }

    let (req_tx, req_rx) = unbounded::<Msg>();
    let mut grant_txs: Vec<Sender<Grant>> = Vec::with_capacity(r);
    let mut outcomes: Vec<AgentOutcome> = vec![AgentOutcome::Interrupted(Interrupt::Cancelled); r];
    let mut steps: u64 = 0;
    let mut preemptions: u64 = 0;
    let mut interrupted: Option<Interrupt> = None;
    let mut run_error: Option<RunError> = None;
    let mut trace: Vec<usize> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(r);
        for (i, mut program) in agents.into_iter().enumerate() {
            let (gtx, grx) = unbounded::<Grant>();
            grant_txs.push(gtx);
            let mut ctx = GatedCtx {
                shared: Arc::clone(&shared),
                id: i,
                color: colors[i],
                node: bc.homebases()[i],
                home: bc.homebases()[i],
                entry: None,
                req_tx: req_tx.clone(),
                grant_rx: grx,
                faults: FaultClock::new(faults, i),
                recovery: faults.recovery,
            };
            let tx = req_tx.clone();
            handles.push(scope.spawn(move || {
                // Invoke-and-restart loop: a crash restarts the program
                // from scratch (bounded by the recovery policy); a panic
                // is caught so the scheduler always hears Finished and
                // the run surfaces a typed error instead of hanging.
                let outcome = loop {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| program(&mut ctx))) {
                        Ok(Ok(o)) => break o,
                        Ok(Err(Interrupt::Crashed)) => match ctx.begin_restart() {
                            Ok(()) => continue,
                            Err(int) => break AgentOutcome::Interrupted(int),
                        },
                        Ok(Err(int)) => break AgentOutcome::Interrupted(int),
                        Err(payload) => {
                            ctx.shared
                                .panics
                                .lock()
                                .push((ctx.id, panic_message(payload.as_ref())));
                            break AgentOutcome::Interrupted(Interrupt::Cancelled);
                        }
                    }
                };
                // Seal spans an interrupt (or a sloppy protocol) left
                // open, so their work still reaches the breakdown.
                ctx.shared.trackers[ctx.id].force_close_all(
                    ctx.shared.metrics[ctx.id].snapshot(),
                    Some(qelect_graph::cache::global().stats()),
                );
                let _ = tx.send(Msg::Finished {
                    agent: ctx.id,
                    outcome,
                });
            }));
        }
        drop(req_tx);

        // ---- scheduler loop ----
        let mut st: Vec<St> = vec![St::Running; r];
        let mut live = r;
        let mut aborting: Option<Interrupt> = None;
        let mut last_pick: Option<usize> = None;

        let apply =
            |msg: Msg, st: &mut Vec<St>, outcomes: &mut Vec<AgentOutcome>, live: &mut usize| {
                match msg {
                    Msg::Op { agent } => st[agent] = St::ReadyOp,
                    Msg::Wait { agent, node, seen } => st[agent] = St::Waiting { node, seen },
                    Msg::Finished { agent, outcome } => {
                        st[agent] = St::Done;
                        outcomes[agent] = outcome;
                        *live -= 1;
                    }
                }
            };

        'sched: while live > 0 {
            // Ensure every live agent is parked (or done).
            while st.contains(&St::Running) {
                match recv_spin(&req_rx) {
                    Ok(msg) => apply(msg, &mut st, &mut outcomes, &mut live),
                    Err(_) => {
                        // A live agent's thread died without reporting —
                        // unreachable given the panic guard, but typed.
                        run_error = Some(RunError::ChannelDisconnected {
                            stage: "awaiting agent park",
                        });
                        break 'sched;
                    }
                }
            }
            if live == 0 {
                break;
            }

            // If we are aborting, answer every parked agent with Abort.
            if let Some(reason) = &aborting {
                for (i, s) in st.iter_mut().enumerate() {
                    match s {
                        St::ReadyOp | St::Waiting { .. } => {
                            *s = St::Running;
                            let _ = grant_txs[i].send(Grant::Abort(reason.clone()));
                        }
                        _ => {}
                    }
                }
                continue;
            }

            // Ready set: ops, plus waits whose board has changed.
            let ready: Vec<usize> = (0..r)
                .filter(|&i| match &st[i] {
                    St::ReadyOp => true,
                    St::Waiting { node, seen } => match seen {
                        None => true,
                        Some(v) => shared.boards[*node].lock().version() > *v,
                    },
                    _ => false,
                })
                .collect();

            if ready.is_empty() {
                // All live agents are waiting on unchanged boards.
                aborting = Some(Interrupt::Deadlock);
                interrupted = Some(Interrupt::Deadlock);
                continue;
            }

            steps += 1;
            if steps > cfg.max_steps {
                aborting = Some(Interrupt::StepLimit);
                interrupted = Some(Interrupt::StepLimit);
                continue;
            }

            let pick = scheduler.pick(&ready, steps);
            debug_assert!(ready.contains(&pick), "scheduler must pick a ready agent");
            if let Some(prev) = last_pick {
                // A switch away from a still-ready agent is a
                // preemption — the quantity context-bounded exploration
                // budgets. A switch forced by `prev` blocking is not.
                if prev != pick && ready.contains(&prev) {
                    preemptions += 1;
                }
            }
            last_pick = Some(pick);
            if cfg.record_trace {
                trace.push(pick);
            }
            st[pick] = St::Running;
            if grant_txs[pick].send(Grant::Go(steps)).is_err() {
                run_error = Some(RunError::ChannelDisconnected {
                    stage: "granting a parked agent",
                });
                break 'sched;
            }
            // Block until the granted agent parks again or finishes —
            // everyone else is already parked, so the next message is its.
            match recv_spin(&req_rx) {
                Ok(msg) => apply(msg, &mut st, &mut outcomes, &mut live),
                Err(_) => {
                    run_error = Some(RunError::ChannelDisconnected {
                        stage: "awaiting granted agent's report",
                    });
                    break 'sched;
                }
            }
        }

        // Breaking out with agents still parked drops their grant
        // channels, which aborts them with Cancelled; their Finished
        // messages land in a closed channel harmlessly.
        grant_txs.clear();
        for h in handles {
            if h.join().is_err() && run_error.is_none() {
                run_error = Some(RunError::ChannelDisconnected {
                    stage: "joining agent threads",
                });
            }
        }
    });

    let leader = {
        let leaders: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == AgentOutcome::Leader)
            .map(|(i, _)| i)
            .collect();
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    };

    if let Some((agent, message)) = shared.panics.lock().first().cloned() {
        return Err(RunError::AgentPanicked { agent, message });
    }
    if let Some(e) = run_error {
        return Err(e);
    }

    let metrics = Metrics {
        per_agent: shared.metrics.iter().map(|m| m.snapshot()).collect(),
        checkpoints: shared.checkpoints.lock().clone(),
        steps,
        preemptions,
        canon_cache: Some(cache_before.delta(&qelect_graph::cache::global().stats())),
        spans: shared.trackers.iter().flat_map(|t| t.take()).collect(),
        faults: shared.fault_stats.snapshot(),
    };

    let events = std::mem::take(&mut *shared.events.lock());
    Ok(RunReport {
        outcomes,
        leader,
        colors,
        metrics,
        interrupted,
        policy: scheduler.name(),
        trace,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn instance(n: usize, hbs: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), hbs).unwrap()
    }

    /// Crash-free run through the non-deprecated typed entry (shadows
    /// the legacy `run_gated` shim for every test below).
    fn run_gated(bc: &Bicolored, cfg: RunConfig, agents: Vec<GatedAgent>) -> RunReport {
        run_gated_faulty(bc, cfg, &FaultPlan::none(), agents).expect("gated run failed")
    }

    #[test]
    fn single_agent_trivial_protocol() {
        let bc = instance(5, &[2]);
        let report = run_gated(
            &bc,
            RunConfig::default(),
            vec![Box::new(|_ctx: &mut GatedCtx| Ok(AgentOutcome::Leader))],
        );
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.leader, Some(0));
        assert!(report.clean_election());
    }

    #[test]
    fn homebase_signs_are_premarked() {
        let bc = instance(5, &[0, 2]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                let board = ctx.read_board()?;
                let mine = board
                    .iter()
                    .any(|s| s.kind == SignKind::HomeBase && s.color == ctx.color());
                Ok(if mine {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            })
        };
        let report = run_gated(&bc, RunConfig::default(), vec![mk(), mk()]);
        // Both see their own home-base sign → both claim Leader.
        assert_eq!(
            report.outcomes,
            vec![AgentOutcome::Leader, AgentOutcome::Leader]
        );
        assert_eq!(report.leader, None, "two leaders is not a clean election");
    }

    #[test]
    fn moves_are_counted_and_entry_ports_work() {
        let bc = instance(6, &[0]);
        let report = run_gated(
            &bc,
            RunConfig::default(),
            vec![Box::new(|ctx: &mut GatedCtx| {
                assert_eq!(ctx.entry(), None);
                assert_eq!(ctx.degree(), 2);
                // Walk through local port 0 and immediately return through
                // the entry port: we must be back at the home-base (its
                // HomeBase sign of our color proves it).
                ctx.move_via(LocalPort(0))?;
                let back = ctx.entry().expect("entry set after move");
                ctx.move_via(back)?;
                let board = ctx.read_board()?;
                let home = board
                    .iter()
                    .any(|s| s.kind == SignKind::HomeBase && s.color == ctx.color());
                Ok(if home {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            })],
        );
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.total_moves(), 2);
        assert_eq!(report.metrics.total_accesses(), 1);
    }

    #[test]
    fn with_board_is_atomic_arbitration() {
        // Two agents race to write the first Custom(1) sign at their own
        // home-base... they need a common node: use K2's two ends — walk
        // to the neighbor for one of them. Simpler: both walk to node 1
        // of a path? Use cycle of 3, agents at 0 and 1, both write at
        // their current node after moving to a common neighbor is fiddly;
        // instead both agents race on their OWN boards — no race. The
        // real arbitration test: both move to the shared neighbor 2 on
        // C3? On C3 agents at 0 and 1 share neighbor 2.
        let bc = instance(3, &[0, 1]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                // Walk around the cycle (never back through the entry
                // port) to the node that has no HomeBase sign: node 2.
                for _ in 0..3 {
                    let board = ctx.read_board()?;
                    if !board.iter().any(|s| s.kind == SignKind::HomeBase) {
                        break;
                    }
                    let entry = ctx.entry();
                    let fwd = ctx
                        .ports()
                        .into_iter()
                        .find(|&p| Some(p) != entry)
                        .expect("degree 2");
                    ctx.move_via(fwd)?;
                }
                let won = ctx.with_board(|wb| {
                    if wb.find_kind(SignKind::Custom(1)).is_none() {
                        wb.post(Sign::tag(Color::from_nonce(0), SignKind::Custom(1)));
                        true
                    } else {
                        false
                    }
                })?;
                Ok(if won {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            })
        };
        for seed in 0..5 {
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            let report = run_gated(&bc, cfg, vec![mk(), mk()]);
            // Whatever the schedule, exactly one agent wins... if both
            // reached node 2. An agent circling C3 may need up to 3 hops;
            // the loop above guarantees arrival. So: exactly one Leader.
            assert!(
                report.clean_election(),
                "seed {seed}: {:?}",
                report.outcomes
            );
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let bc = instance(4, &[0, 2]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                // Wait for a sign that nobody will ever write.
                ctx.wait_until(|wb| wb.find_kind(SignKind::Leader).is_some())?;
                Ok(AgentOutcome::Leader)
            })
        };
        let report = run_gated(&bc, RunConfig::default(), vec![mk(), mk()]);
        assert_eq!(report.interrupted, Some(Interrupt::Deadlock));
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == AgentOutcome::Interrupted(Interrupt::Deadlock)));
    }

    #[test]
    fn step_limit_interrupts_livelock() {
        let bc = instance(4, &[0]);
        let report = run_gated(
            &bc,
            RunConfig {
                max_steps: 100,
                ..RunConfig::default()
            },
            vec![Box::new(|ctx: &mut GatedCtx| loop {
                ctx.move_via(LocalPort(0))?;
            })],
        );
        assert_eq!(report.interrupted, Some(Interrupt::StepLimit));
    }

    #[test]
    fn wait_wakes_on_board_change() {
        let bc = instance(3, &[0, 1]);
        let waiter: GatedAgent = Box::new(|ctx: &mut GatedCtx| {
            ctx.wait_until(|wb| wb.find_kind(SignKind::Custom(7)).is_some())?;
            Ok(AgentOutcome::Defeated)
        });
        let walker: GatedAgent = Box::new(|ctx: &mut GatedCtx| {
            // Walk around the cycle until finding the other agent's
            // home-base (a HomeBase sign of a different color), then post
            // Custom(7).
            loop {
                let board = ctx.read_board()?;
                let other_home = board
                    .iter()
                    .any(|s| s.kind == SignKind::HomeBase && s.color != ctx.color());
                if other_home {
                    ctx.with_board(|wb| {
                        wb.post(Sign::tag(Color::from_nonce(1), SignKind::Custom(7)))
                    })?;
                    return Ok(AgentOutcome::Leader);
                }
                let entry = ctx.entry();
                let fwd = ctx
                    .ports()
                    .into_iter()
                    .find(|&p| Some(p) != entry)
                    .expect("degree 2");
                ctx.move_via(fwd)?;
            }
        });
        // Agent 0 (at node 0) waits; agent 1 (at node 1) walks & posts.
        let report = run_gated(&bc, RunConfig::default(), vec![waiter, walker]);
        assert!(report.clean_election());
        assert!(report.metrics.total_waits() >= 1);
    }

    #[test]
    fn deterministic_given_seed_and_policy() {
        let bc = instance(6, &[0, 3]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                for _ in 0..10 {
                    ctx.move_via(LocalPort(0))?;
                    ctx.with_board(|wb| {
                        let c = Color::from_nonce(0);
                        wb.post(Sign::tag(c, SignKind::Visited));
                    })?;
                }
                Ok(AgentOutcome::Defeated)
            })
        };
        let run = |seed| {
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            let rep = run_gated(&bc, cfg, vec![mk(), mk()]);
            (rep.metrics.per_agent.clone(), rep.metrics.steps)
        };
        assert_eq!(run(11), run(11));
        // Different seeds may differ in step interleaving but totals of
        // this fixed-work protocol are stable:
        let (a, _) = run(11);
        let (b, _) = run(12);
        assert_eq!(a, b);
    }

    #[test]
    fn scrambled_ports_differ_between_agents_but_are_stable() {
        let bc = instance(6, &[0, 3]);
        let shared = Shared {
            graph: bc.graph().clone(),
            boards: Vec::new(),
            metrics: Vec::new(),
            trackers: Vec::new(),
            checkpoints: Mutex::new(Vec::new()),
            port_seed: 99,
            scramble_ports: true,
            events: Mutex::new(Vec::new()),
            record_events: false,
            fault_stats: FaultStats::default(),
            faults_armed: false,
            panics: Mutex::new(Vec::new()),
        };
        let m0 = shared.port_map(0, 2);
        let m0_again = shared.port_map(0, 2);
        assert_eq!(m0, m0_again, "stable per (agent, node)");
        // Across many nodes, the two agents' scrambles must differ
        // somewhere (overwhelmingly likely with 6 binary choices).
        let differs = (0..6).any(|v| shared.port_map(0, v) != shared.port_map(1, v));
        assert!(differs);
    }

    #[test]
    fn trace_is_deterministic_and_replayable() {
        let bc = instance(6, &[0, 3]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                for _ in 0..12 {
                    ctx.move_via(LocalPort(0))?;
                    ctx.with_board(|wb| {
                        wb.post(Sign::tag(Color::from_nonce(0), SignKind::Visited))
                    })?;
                }
                Ok(AgentOutcome::Defeated)
            })
        };
        let run = |seed| {
            let cfg = RunConfig {
                seed,
                record_trace: true,
                ..RunConfig::default()
            };
            run_gated(&bc, cfg, vec![mk(), mk()]).trace
        };
        let t1 = run(5);
        let t2 = run(5);
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed ⇒ identical grant sequence");
        let t3 = run(6);
        assert_ne!(t1, t3, "different seed ⇒ different interleaving (whp)");
        // Tracing off ⇒ empty trace.
        let cfg = RunConfig {
            seed: 5,
            ..RunConfig::default()
        };
        assert!(run_gated(&bc, cfg, vec![mk(), mk()]).trace.is_empty());
    }

    #[test]
    fn crash_restarts_at_home_with_volatile_state_lost() {
        use crate::fault::{FaultEvent, RecoveryPolicy};
        let bc = instance(6, &[0]);
        // The program walks two hops, then posts a Visited sign wherever
        // it stands. A crash at op 2 (the second move) loses that move;
        // the restart re-runs from the home-base with entry() cleared.
        let incarnations = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&incarnations);
        let program: GatedAgent = Box::new(move |ctx: &mut GatedCtx| {
            seen.lock().push((ctx.incarnation(), ctx.entry()));
            ctx.move_via(LocalPort(0))?;
            ctx.move_via(LocalPort(0))?;
            ctx.with_board(|wb| wb.post(Sign::tag(Color::from_nonce(7), SignKind::Visited)))?;
            Ok(AgentOutcome::Leader)
        });
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 2,
                action: FaultAction::Crash { restart_after: 1 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let report = run_gated_faulty(&bc, RunConfig::default(), &plan, vec![program]).unwrap();
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.faults.crashes, 1);
        assert_eq!(report.metrics.faults.restarts, 1);
        assert!(report.metrics.faults.backoff_ticks >= 1);
        let seen = incarnations.lock().clone();
        assert_eq!(
            seen,
            vec![(0, None), (1, None)],
            "restart re-enters the program at home (entry cleared) with a bumped incarnation"
        );
        // The lost move means the restart walks the full two hops again:
        // 1 (pre-crash) + 2 (restart) = 3 moves.
        assert_eq!(report.metrics.total_moves(), 3);
    }

    #[test]
    fn exhausted_restart_budget_terminates_crashed() {
        use crate::fault::{FaultEvent, RecoveryPolicy};
        let bc = instance(4, &[0, 2]);
        // Agent 0 crashes at its first op in every incarnation: two
        // events, budget one restart.
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    agent: 0,
                    at_op: 1,
                    action: FaultAction::Crash { restart_after: 0 },
                },
                FaultEvent {
                    agent: 0,
                    at_op: 2,
                    action: FaultAction::Crash { restart_after: 0 },
                },
            ],
            recovery: RecoveryPolicy {
                max_restarts: 1,
                ..RecoveryPolicy::default()
            },
        };
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                ctx.read_board()?;
                ctx.read_board()?;
                Ok(AgentOutcome::Defeated)
            })
        };
        let report = run_gated_faulty(&bc, RunConfig::default(), &plan, vec![mk(), mk()]).unwrap();
        assert_eq!(
            report.outcomes[0],
            AgentOutcome::Interrupted(Interrupt::Crashed),
            "budget exhausted ⇒ the agent stays down"
        );
        assert_eq!(report.outcomes[1], AgentOutcome::Defeated);
        assert_eq!(report.metrics.faults.aborted, 1);
    }

    #[test]
    fn delays_stall_but_do_not_change_outcomes() {
        use crate::fault::{FaultEvent, RecoveryPolicy};
        let bc = instance(5, &[0, 2]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                for _ in 0..3 {
                    ctx.move_via(LocalPort(0))?;
                }
                Ok(AgentOutcome::Defeated)
            })
        };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 1,
                at_op: 2,
                action: FaultAction::Delay { ticks: 5 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let faulty = run_gated_faulty(&bc, RunConfig::default(), &plan, vec![mk(), mk()]).unwrap();
        let clean = run_gated(&bc, RunConfig::default(), vec![mk(), mk()]);
        assert_eq!(faulty.outcomes, clean.outcomes);
        assert_eq!(faulty.metrics.total_moves(), clean.metrics.total_moves());
        assert_eq!(faulty.metrics.faults.delay_ticks, 5);
        assert_eq!(faulty.metrics.steps, clean.metrics.steps + 5);
    }

    #[test]
    fn identical_fault_plans_replay_bit_for_bit() {
        use crate::fault::{FaultEvent, RecoveryPolicy};
        use crate::sched::ReplayScheduler;
        let bc = instance(6, &[0, 3]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                for _ in 0..6 {
                    ctx.move_via(LocalPort(0))?;
                    ctx.with_board(|wb| {
                        wb.post(Sign::tag(Color::from_nonce(0), SignKind::Visited))
                    })?;
                }
                Ok(AgentOutcome::Defeated)
            })
        };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 4,
                action: FaultAction::Crash { restart_after: 2 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let cfg = RunConfig {
            seed: 21,
            record_trace: true,
            ..RunConfig::default()
        };
        let first = run_gated_faulty(&bc, cfg, &plan, vec![mk(), mk()]).unwrap();
        assert_eq!(first.metrics.faults.crashes, 1);
        let mut replay = ReplayScheduler::strict(first.trace.clone());
        let second = try_run_gated_with(&bc, cfg, &plan, vec![mk(), mk()], &mut replay).unwrap();
        assert_eq!(second.outcomes, first.outcomes);
        assert_eq!(second.trace, first.trace);
        assert_eq!(second.events, first.events);
        assert_eq!(second.metrics.per_agent, first.metrics.per_agent);
        assert_eq!(second.metrics.faults, first.metrics.faults);
    }

    #[test]
    fn recv_spin_drains_ready_messages_and_blocks_for_late_ones() {
        // The spin phase: a message already in the channel is returned
        // without ever reaching the blocking recv (observable as: works
        // even when the sender is gone, which a blocking recv would
        // report as disconnection only after the buffered value drains).
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        drop(tx);
        assert_eq!(recv_spin(&rx), Ok(7));
        assert_eq!(recv_spin(&rx), Ok(8));
        assert!(
            recv_spin(&rx).is_err(),
            "a closed empty channel must surface RecvError, not spin forever"
        );

        // The block phase: a message that arrives only *after* the spin
        // bound is exhausted must still be delivered — the sender sleeps
        // well past any plausible yield-spin duration, so the receiver
        // has fallen back to the blocking recv by the time it lands.
        let (tx, rx) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            tx.send(42).unwrap();
        });
        assert_eq!(recv_spin(&rx), Ok(42), "spin-then-block handoff lost");
        sender.join().unwrap();
        // Pin the tuning constant: changing it is a deliberate act (see
        // RECV_SPIN_BOUND's rationale), not a drive-by.
        assert_eq!(RECV_SPIN_BOUND, 64);
    }

    #[test]
    fn lockstep_policy_runs() {
        let bc = instance(4, &[0, 2]);
        let mk = || -> GatedAgent {
            Box::new(|ctx: &mut GatedCtx| {
                for _ in 0..4 {
                    ctx.move_via(LocalPort(0))?;
                }
                Ok(AgentOutcome::Defeated)
            })
        };
        let cfg = RunConfig {
            policy: Policy::Lockstep,
            ..RunConfig::default()
        };
        let report = run_gated(&bc, cfg, vec![mk(), mk()]);
        assert_eq!(report.metrics.total_moves(), 8);
        assert!(report.interrupted.is_none());
    }
}

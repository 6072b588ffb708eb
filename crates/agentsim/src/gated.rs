//! The deterministic, scheduler-gated execution engine — the
//! differential oracle the sim engine ([`crate::sim`]) is pinned to.
//!
//! Agents run as real OS threads, but every primitive operation (move,
//! whiteboard access, wait) passes through a gate: the agent announces
//! the operation and blocks until the scheduler grants it. The agent's
//! [`Protocol::run_async`] body is the same one sim polls; here every
//! [`MobileCtxAsync`] primitive blocks inside the poll, so the agent's
//! future completes in a single poll on its own thread. The scheduler
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
use crate::ctx::{AgentOutcome, Interrupt, LocalPort, MobileCtxAsync};
use crate::fault::{FaultAction, FaultClock, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{AgentMetrics, Checkpoint, Metrics, SpanTracker};
use crate::run::{Protocol, RunError};
use crate::sched::{Policy, Scheduler};
use crate::sign::{Sign, SignKind};
use crate::trace::{sign_kind_code, PrimOp, Trace, TraceEvent};
use crate::whiteboard::Whiteboard;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use qelect_graph::{Bicolored, Graph, Port};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

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
    /// [`MobileCtxAsync::crash_faults_armed`] reports to protocols).
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

/// Complete an agent's future in one poll.
///
/// Every [`GatedCtx`] primitive blocks inside the poll until its grant
/// arrives, so a protocol body run on this engine never suspends.
/// Panics if the future returns `Pending` — which can only happen if
/// protocol code awaits something other than its own [`MobileCtxAsync`]
/// primitives; the agent's panic guard turns that into
/// [`RunError::AgentPanicked`].
fn poll_now<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "poll_now: protocol future suspended under the gated engine \
             (awaited a foreign future?)"
        ),
    }
}

/// The concrete [`MobileCtxAsync`] of the gated engine: each primitive
/// blocks on this agent's grant channel.
struct GatedCtx {
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

impl MobileCtxAsync for GatedCtx {
    fn color(&self) -> Color {
        self.color
    }

    fn degree(&mut self) -> usize {
        self.shared.graph.degree(self.node)
    }

    fn entry(&self) -> Option<LocalPort> {
        self.entry
    }

    async fn read_board(&mut self) -> Result<Vec<Sign>, Interrupt> {
        self.fault_gate()?;
        let tick = self.gate_op()?;
        self.count_access();
        let board = self.shared.boards[self.node].lock();
        self.record(tick, PrimOp::Read { node: self.node });
        Ok(board.signs().to_vec())
    }

    async fn with_board<R>(
        &mut self,
        f: impl FnOnce(&mut Whiteboard) -> R,
    ) -> Result<R, Interrupt> {
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

    async fn move_via(&mut self, port: LocalPort) -> Result<(), Interrupt> {
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

    async fn wait_until(&mut self, pred: impl Fn(&Whiteboard) -> bool) -> Result<(), Interrupt> {
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

/// The gated engine entry point: caller-supplied scheduler, fault plan,
/// typed errors — the same signature and contract as
/// [`crate::sim::try_run_sim_with`]. Protocol-level interrupts
/// (deadlock, step budget, exhausted restart budgets) are *not* errors —
/// they come back inside the report; `Err` means the run itself lost
/// integrity (an agent panicked or an engine channel died).
///
/// One agent per home-base: agent `i` starts at the `i`-th home-base in
/// sorted order, carrying a fresh color, and runs
/// `protocol.for_agent(i)` on its own thread. Home-bases are pre-marked
/// with a [`SignKind::HomeBase`] sign of the resident's color, as the
/// model prescribes.
pub(crate) fn try_run_gated_with<P: Protocol + Clone + Send>(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    protocol: &P,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    let cache_before = qelect_graph::cache::global().stats();
    let r = bc.r();
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
        for (i, &color) in colors.iter().enumerate() {
            let program = protocol.for_agent(i);
            let (gtx, grx) = unbounded::<Grant>();
            grant_txs.push(gtx);
            let mut ctx = GatedCtx {
                shared: Arc::clone(&shared),
                id: i,
                color,
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
                    let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        poll_now(program.run_async(&mut ctx))
                    }));
                    match attempt {
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
pub(crate) mod tests {
    //! The engine-conformance table. Each row is a small [`Protocol`]
    //! run through [`crate::run::run`] on both engines by [`conform`],
    //! which asserts that sim reproduces the gated oracle's
    //! [`RunReport::fingerprint`]; the row then checks its own property
    //! on the report. The rows named `*_on` take the engine: the gated
    //! test here runs one on the oracle alone, and its namesake in
    //! `sim::tests` runs it on sim through [`check`], against the
    //! oracle. The other modules' engine tests borrow its fixtures.

    use super::*;
    use crate::fault::FaultEvent;
    use crate::run::{run, Engine, RunConfig as UnifiedConfig};
    use crate::trace::PrimOp;
    use qelect_graph::families;

    pub(crate) fn instance(n: usize, hbs: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), hbs).unwrap()
    }

    /// A config with trace and event recording on, so the fingerprint
    /// comparison covers the full grant sequence.
    pub(crate) fn traced(seed: u64) -> UnifiedConfig {
        UnifiedConfig::new(seed).record_trace(true)
    }

    /// Run `protocol` on `engine` under `cfg` and return its report.
    /// A sim run is also checked against the gated oracle: the two
    /// reports' fingerprints must agree.
    pub(crate) fn check<P>(
        engine: Engine,
        bc: &Bicolored,
        cfg: &UnifiedConfig,
        protocol: &P,
    ) -> RunReport
    where
        P: Protocol + Clone + Send + 'static,
    {
        let on = |engine: Engine| {
            run(bc, &cfg.clone().engine(engine), protocol)
                .unwrap_or_else(|e| panic!("{} run failed: {e}", engine.name()))
                .report
        };
        let report = on(engine);
        if engine == Engine::Sim {
            assert_eq!(
                on(Engine::Gated).fingerprint(),
                report.fingerprint(),
                "sim diverged from the gated oracle"
            );
        }
        report
    }

    /// Run `protocol` on both engines under `cfg`, assert the reports
    /// agree, and return one of them.
    pub(crate) fn conform<P>(bc: &Bicolored, cfg: &UnifiedConfig, protocol: &P) -> RunReport
    where
        P: Protocol + Clone + Send + 'static,
    {
        check(Engine::Sim, bc, cfg, protocol)
    }

    /// Claim leadership iff my own HomeBase sign is on my board.
    #[derive(Clone)]
    struct ClaimHome;
    impl Protocol for ClaimHome {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            let me = ctx.color();
            let board = ctx.read_board().await?;
            let mine = board
                .iter()
                .any(|s| s.kind == SignKind::HomeBase && s.color == me);
            Ok(if mine {
                AgentOutcome::Leader
            } else {
                AgentOutcome::Defeated
            })
        }
    }

    /// Walk `hops` times through local port 0, posting a Visited sign
    /// after each move.
    #[derive(Clone)]
    pub(crate) struct Walker {
        pub(crate) hops: usize,
    }
    impl Protocol for Walker {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            for _ in 0..self.hops {
                ctx.move_via(LocalPort(0)).await?;
                ctx.with_board(|wb| wb.post(Sign::tag(Color::from_nonce(0), SignKind::Visited)))
                    .await?;
            }
            Ok(AgentOutcome::Defeated)
        }
    }

    /// Walk forward (never back through the entry port) to the first
    /// node without a HomeBase sign.
    async fn walk_to_free_node<C: MobileCtxAsync>(ctx: &mut C) -> Result<(), Interrupt> {
        loop {
            let board = ctx.read_board().await?;
            if !board.iter().any(|s| s.kind == SignKind::HomeBase) {
                return Ok(());
            }
            let entry = ctx.entry();
            let fwd = ctx
                .ports()
                .into_iter()
                .find(|&p| Some(p) != entry)
                .expect("degree 2");
            ctx.move_via(fwd).await?;
        }
    }

    /// Post `kind` unless it is already there; whether this agent won.
    async fn claim<C: MobileCtxAsync>(ctx: &mut C, kind: SignKind) -> Result<bool, Interrupt> {
        let me = ctx.color();
        ctx.with_board(move |wb| {
            let free = wb.find_kind(kind).is_none();
            if free {
                wb.post(Sign::tag(me, kind));
            }
            free
        })
        .await
    }

    /// Walk to the first free node and race to post the first
    /// `Custom(1)` sign there; the poster wins. On C3 with agents at 0
    /// and 1 both reach node 2, and every schedule has one winner.
    #[derive(Clone)]
    pub(crate) struct Race;
    impl Protocol for Race {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            walk_to_free_node(ctx).await?;
            Ok(if claim(ctx, SignKind::Custom(1)).await? {
                AgentOutcome::Leader
            } else {
                AgentOutcome::Defeated
            })
        }
    }

    #[test]
    fn single_agent_trivial_protocol() {
        single_agent_trivial_protocol_on(Engine::Gated);
    }

    pub(crate) fn single_agent_trivial_protocol_on(engine: Engine) {
        let bc = instance(5, &[2]);
        let report = check(engine, &bc, &traced(0), &ClaimHome);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.leader, Some(0));
        assert!(report.clean_election());
    }

    #[test]
    fn homebase_signs_are_premarked() {
        homebase_signs_are_premarked_on(Engine::Gated);
    }

    pub(crate) fn homebase_signs_are_premarked_on(engine: Engine) {
        let bc = instance(5, &[0, 2]);
        let report = check(engine, &bc, &traced(0), &ClaimHome);
        // Both see their own home-base sign → both claim Leader.
        assert_eq!(
            report.outcomes,
            vec![AgentOutcome::Leader, AgentOutcome::Leader]
        );
        assert_eq!(report.leader, None, "two leaders is not a clean election");
    }

    #[test]
    fn moves_are_counted_and_entry_ports_work() {
        // Walk through local port 0 and immediately return through the
        // entry port: we must be back at the home-base (its HomeBase
        // sign of our color proves it).
        #[derive(Clone)]
        struct OutAndBack;
        impl Protocol for OutAndBack {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                assert_eq!(ctx.entry(), None);
                assert_eq!(ctx.degree(), 2);
                ctx.move_via(LocalPort(0)).await?;
                let back = ctx.entry().expect("entry set after move");
                ctx.move_via(back).await?;
                ClaimHome.run_async(ctx).await
            }
        }
        let bc = instance(6, &[0]);
        let report = conform(&bc, &traced(0), &OutAndBack);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.total_moves(), 2);
        assert_eq!(report.metrics.total_accesses(), 1);
    }

    #[test]
    fn with_board_is_atomic_arbitration() {
        // On C3 with agents at 0 and 1, both walk to the shared free
        // node 2 and race to post the first Custom(1) sign there.
        let bc = instance(3, &[0, 1]);
        for seed in 0..5 {
            let report = conform(&bc, &traced(seed), &Race);
            // Whatever the schedule, exactly one agent wins.
            assert!(
                report.clean_election(),
                "seed {seed}: {:?}",
                report.outcomes
            );
        }
    }

    #[test]
    fn deadlock_is_detected() {
        deadlock_is_detected_on(Engine::Gated);
    }

    pub(crate) fn deadlock_is_detected_on(engine: Engine) {
        // Wait for a sign that nobody will ever write.
        #[derive(Clone)]
        struct Godot;
        impl Protocol for Godot {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.wait_until(|wb| wb.find_kind(SignKind::Leader).is_some())
                    .await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(4, &[0, 2]);
        let report = check(engine, &bc, &traced(0), &Godot);
        assert_eq!(report.interrupted, Some(Interrupt::Deadlock));
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == AgentOutcome::Interrupted(Interrupt::Deadlock)));
    }

    #[test]
    fn step_limit_interrupts_livelock() {
        step_limit_interrupts_livelock_on(Engine::Gated);
    }

    pub(crate) fn step_limit_interrupts_livelock_on(engine: Engine) {
        #[derive(Clone)]
        struct Forever;
        impl Protocol for Forever {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                loop {
                    ctx.move_via(LocalPort(0)).await?;
                }
            }
        }
        let bc = instance(4, &[0]);
        let report = check(engine, &bc, &traced(0).max_steps(100), &Forever);
        assert_eq!(report.interrupted, Some(Interrupt::StepLimit));
    }

    #[test]
    fn wait_wakes_on_board_change() {
        wait_wakes_on_board_change_on(Engine::Gated);
    }

    pub(crate) fn wait_wakes_on_board_change_on(engine: Engine) {
        // Both agents walk to the unmarked shared node of C3; whiteboard
        // arbitration there picks a winner. The loser parks in
        // wait_until; the winner wanders a hop and comes back to post
        // the wake sign — a genuine park-then-wake.
        #[derive(Clone)]
        struct WaitOrWake;
        impl Protocol for WaitOrWake {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                walk_to_free_node(ctx).await?;
                if claim(ctx, SignKind::Custom(9)).await? {
                    let out = ctx.entry().expect("arrived through a port");
                    ctx.move_via(out).await?;
                    let back = ctx.entry().expect("entry set after move");
                    ctx.move_via(back).await?;
                    claim(ctx, SignKind::Custom(7)).await?;
                    Ok(AgentOutcome::Leader)
                } else {
                    ctx.wait_until(|wb| wb.find_kind(SignKind::Custom(7)).is_some())
                        .await?;
                    Ok(AgentOutcome::Defeated)
                }
            }
        }
        let bc = instance(3, &[0, 1]);
        for seed in 0..5 {
            let report = check(engine, &bc, &traced(seed), &WaitOrWake);
            assert!(
                report.clean_election(),
                "seed {seed}: {:?}",
                report.outcomes
            );
            assert!(report.metrics.total_waits() >= 1);
        }
    }

    #[test]
    fn deterministic_given_seed_and_policy() {
        deterministic_given_seed_and_policy_on(Engine::Gated);
    }

    pub(crate) fn deterministic_given_seed_and_policy_on(engine: Engine) {
        let bc = instance(6, &[0, 3]);
        let walker = Walker { hops: 10 };
        let first = check(engine, &bc, &traced(11), &walker);
        assert_eq!(
            first.fingerprint(),
            check(engine, &bc, &traced(11), &walker).fingerprint()
        );
        // Different seeds may differ in step interleaving but totals of
        // this fixed-work protocol are stable.
        let other = check(engine, &bc, &traced(12), &walker);
        assert_eq!(first.metrics.per_agent, other.metrics.per_agent);
    }

    #[test]
    fn scrambled_ports_differ_between_agents_but_are_stable() {
        // Out through local port 0, back through the entry port, out
        // through local port 0 again.
        #[derive(Clone)]
        struct OutBackOut;
        impl Protocol for OutBackOut {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.move_via(LocalPort(0)).await?;
                let back = ctx.entry().expect("entry set after move");
                ctx.move_via(back).await?;
                ctx.move_via(LocalPort(0)).await?;
                Ok(AgentOutcome::Defeated)
            }
        }
        let bc = instance(6, &[0, 3]);
        // The direction (+1 or −1 around the ring) of each agent's first
        // hop, per seed.
        let directions = |scramble: bool| -> Vec<(usize, usize)> {
            (0..16)
                .map(|seed| {
                    let cfg = traced(seed).scramble_ports(scramble);
                    let report = conform(&bc, &cfg, &OutBackOut);
                    let dir = |agent: usize| {
                        let hops: Vec<(usize, usize)> = report
                            .events
                            .iter()
                            .filter(|e| e.agent == agent)
                            .filter_map(|e| match e.op {
                                PrimOp::Move { from, to } => Some((from, to)),
                                _ => None,
                            })
                            .collect();
                        assert_eq!(hops.len(), 3);
                        assert_eq!(hops[1].1, hops[0].0, "the entry port leads back");
                        assert_eq!(hops[2], hops[0], "local port 0 is stable per node");
                        (hops[0].1 + 6 - hops[0].0) % 6
                    };
                    (dir(0), dir(1))
                })
                .collect()
        };
        let plain = directions(false);
        assert!(
            plain.iter().all(|d| *d == plain[0]),
            "unscrambled numberings ignore the seed"
        );
        // Scrambled, each agent's numbering follows the seed on its own:
        // across seeds the two first hops both agree and disagree in
        // direction (unscrambled, they always disagree on this ring).
        let scrambled = directions(true);
        assert!(scrambled.iter().any(|(a, b)| a == b));
        assert!(scrambled.iter().any(|(a, b)| a != b));
    }

    #[test]
    fn trace_is_deterministic_and_replayable() {
        let bc = instance(6, &[0, 3]);
        let walker = Walker { hops: 12 };
        let t1 = conform(&bc, &traced(5), &walker).trace;
        assert!(!t1.is_empty());
        assert_eq!(
            t1,
            conform(&bc, &traced(5), &walker).trace,
            "same seed ⇒ identical grant sequence"
        );
        assert_ne!(
            t1,
            conform(&bc, &traced(6), &walker).trace,
            "different seed ⇒ different interleaving (whp)"
        );
        let untraced = conform(&bc, &UnifiedConfig::new(5), &walker);
        assert!(untraced.trace.is_empty(), "tracing off ⇒ empty trace");
        // A strict replay of the recording (under a different seed's
        // policy, which replay overrides) reproduces it on both engines.
        let replayed = conform(&bc, &traced(5).replay(t1.clone(), true), &walker);
        assert_eq!(replayed.trace, t1);
    }

    #[test]
    fn crash_restarts_at_home_with_volatile_state_lost() {
        crash_restarts_at_home_with_volatile_state_lost_on(Engine::Gated);
    }

    pub(crate) fn crash_restarts_at_home_with_volatile_state_lost_on(engine: Engine) {
        // The program walks two hops, then posts a Visited sign wherever
        // it stands. A crash at op 2 (the second move) loses that move;
        // the restart re-runs from the home-base with entry() cleared.
        /// `(incarnation, entry port)` at every invocation.
        type Invocations = Arc<Mutex<Vec<(u64, Option<LocalPort>)>>>;
        #[derive(Clone, Default)]
        struct TwoHopsThenPost {
            seen: Invocations,
        }
        impl Protocol for TwoHopsThenPost {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                self.seen.lock().push((ctx.incarnation(), ctx.entry()));
                ctx.move_via(LocalPort(0)).await?;
                ctx.move_via(LocalPort(0)).await?;
                ctx.with_board(|wb| wb.post(Sign::tag(Color::from_nonce(7), SignKind::Visited)))
                    .await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(6, &[0]);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 2,
                action: FaultAction::Crash { restart_after: 1 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let cfg = traced(0).faults(plan);
        // Each run gets a fresh protocol, so `seen` holds one run's
        // invocations; `check` cannot be used because its oracle run
        // would share them.
        let run_on = |engine: Engine| {
            let protocol = TwoHopsThenPost::default();
            let report = run(&bc, &cfg.clone().engine(engine), &protocol)
                .unwrap()
                .report;
            assert_eq!(
                *protocol.seen.lock(),
                vec![(0, None), (1, None)],
                "restart re-enters the program at home (entry cleared) with a bumped incarnation"
            );
            report
        };
        let report = run_on(engine);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.faults.crashes, 1);
        assert_eq!(report.metrics.faults.restarts, 1);
        assert!(report.metrics.faults.backoff_ticks >= 1);
        // The lost move means the restart walks the full two hops
        // again: 1 (pre-crash) + 2 (restart) = 3 moves.
        assert_eq!(report.metrics.total_moves(), 3);
        if engine == Engine::Sim {
            assert_eq!(report.fingerprint(), run_on(Engine::Gated).fingerprint());
        }
    }

    #[test]
    fn exhausted_restart_budget_terminates_crashed() {
        #[derive(Clone)]
        struct ReadTwice;
        impl Protocol for ReadTwice {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.read_board().await?;
                ctx.read_board().await?;
                Ok(AgentOutcome::Defeated)
            }
        }
        let bc = instance(4, &[0, 2]);
        // Agent 0 crashes at its first op in every incarnation: two
        // events, budget one restart.
        let crash = |at_op| FaultEvent {
            agent: 0,
            at_op,
            action: FaultAction::Crash { restart_after: 0 },
        };
        let plan = FaultPlan {
            events: vec![crash(1), crash(2)],
            recovery: RecoveryPolicy {
                max_restarts: 1,
                ..RecoveryPolicy::default()
            },
        };
        let report = conform(&bc, &traced(0).faults(plan), &ReadTwice);
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
        let bc = instance(5, &[0, 2]);
        let walker = Walker { hops: 3 };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 1,
                at_op: 2,
                action: FaultAction::Delay { ticks: 5 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let faulty = conform(&bc, &traced(0).faults(plan), &walker);
        let clean = conform(&bc, &traced(0), &walker);
        assert_eq!(faulty.outcomes, clean.outcomes);
        assert_eq!(faulty.metrics.total_moves(), clean.metrics.total_moves());
        assert_eq!(faulty.metrics.faults.delay_ticks, 5);
        assert_eq!(faulty.metrics.steps, clean.metrics.steps + 5);
    }

    #[test]
    fn identical_fault_plans_replay_bit_for_bit() {
        let bc = instance(6, &[0, 3]);
        let walker = Walker { hops: 6 };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 4,
                action: FaultAction::Crash { restart_after: 2 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let cfg = traced(21).faults(plan);
        let first = conform(&bc, &cfg, &walker);
        assert_eq!(first.metrics.faults.crashes, 1);
        let second = conform(&bc, &cfg.replay(first.trace.clone(), true), &walker);
        assert_eq!(second.fingerprint(), first.fingerprint());
    }

    #[test]
    fn lockstep_policy_runs() {
        let bc = instance(4, &[0, 2]);
        let cfg = traced(0).policy(Policy::Lockstep);
        let report = conform(&bc, &cfg, &Walker { hops: 4 });
        assert_eq!(report.metrics.total_moves(), 8);
        assert!(report.interrupted.is_none());
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
    fn poll_now_completes_ready_futures() {
        assert_eq!(poll_now(async { 41 + 1 }), 42);
    }

    #[test]
    #[should_panic(expected = "suspended under the gated engine")]
    fn poll_now_rejects_suspension() {
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: std::pin::Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
                Poll::Pending
            }
        }
        poll_now(Never);
    }
}

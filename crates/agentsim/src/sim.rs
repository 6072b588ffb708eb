//! The single-threaded discrete-event simulation engine.
//!
//! [`crate::gated`] runs one OS thread per agent and pays two
//! cross-thread handoffs per scheduler grant, which caps instances at a
//! few hundred agents and makes every grant cost microseconds. This
//! engine executes the *same* protocols — written once against
//! [`MobileCtxAsync`] — on **one** thread, as event-driven state
//! machines over virtual time: the compiler's `async` transform turns
//! each blocking-style agent body into a resumable state machine, and
//! every primitive (whiteboard op, gate wait, fault stall) becomes an
//! entry the scheduler grants in the same order a gated run would.
//!
//! # Event model
//!
//! Each agent is a future parked at a `Gate`. A gate announcement is
//! the sim's event: it records *what* the agent wants (`Op`, or
//! `Wait { node, seen }`) in the agent's `Slot`. The scheduler loop is
//! statement-for-statement the gated loop: collect the ready set (ops,
//! plus waits whose board version moved), pick one agent, grant it the
//! tick, and poll its future — which runs the agent synchronously up to
//! its next announcement. Virtual time is the grant counter, exactly as
//! in the gated engine, so:
//!
//! * **fault plans address identically** — [`crate::fault`] counts
//!   whiteboard-access boundaries, which this engine crosses in the same
//!   order at the same operation indices;
//! * **traces are byte-identical** — the grant sequence and the
//!   per-primitive event log (`qelect-trace/1`) match the gated engine's
//!   for the same `(instance, protocol, policy, seed, plan)`, which is
//!   what lets [`crate::sched::ReplayScheduler`] replay a gated
//!   recording under sim and vice versa.
//!
//! # Why polling in index order is equivalent to gated's park-all
//!
//! Between grants the gated engine lets *all* unparked threads run
//! concurrently until each parks — but the only code that runs there is
//! (a) the pre-first-gate prefix of each agent and (b) post-abort
//! unwinding, and both only touch per-agent state (spans, outcome) or
//! commute (panic capture); every ordered effect on shared state
//! (boards, events, checkpoints) happens strictly *after* a grant, while
//! exactly one agent is active. Polling the parked-out set in index
//! order therefore produces the same shared-state sequence. See
//! DESIGN.md §12 for the full argument.

use crate::color::{Color, ColorRegistry};
use crate::ctx::{AgentOutcome, Interrupt, LocalPort};
use crate::fault::{FaultAction, FaultClock, FaultPlan, FaultStats, RecoveryPolicy};
use crate::gated::{panic_message, RunConfig, RunReport};
use crate::metrics::{AgentMetrics, Checkpoint, Metrics, SpanTracker};
use crate::run::{Protocol, RunError};
use crate::sched::Scheduler;
use crate::sign::{Sign, SignKind};
use crate::trace::{sign_kind_code, PrimOp, TraceEvent};
use crate::whiteboard::Whiteboard;
use crate::MobileCtxAsync;
use qelect_graph::{Bicolored, Graph, Port};
use std::cell::RefCell;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll, Waker};

/// Where a parked agent is parked.
#[derive(Clone, Copy)]
enum Park {
    /// At an op gate.
    Op,
    /// Waiting for the board at `node` to move past `seen`.
    Wait { node: usize, seen: Option<u64> },
}

/// An agent's scheduling state, mirroring the gated engine's `St`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SlotState {
    /// Thinking (pollable; not at a gate yet).
    Running,
    /// Parked at an op gate.
    ReadyOp,
    /// Parked waiting for a board change.
    Waiting { node: usize, seen: Option<u64> },
    /// Finished.
    Done,
}

/// Per-agent mailbox between the scheduler loop and the agent's gate.
struct Slot {
    state: SlotState,
    /// A granted tick, consumed by the gate's next poll.
    grant: Option<u64>,
    /// An abort verdict, consumed by the gate's next poll.
    abort: Option<Interrupt>,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            state: SlotState::Running,
            grant: None,
            abort: None,
        }
    }
}

/// The world shared by the scheduler loop and every agent state machine.
/// Field-for-field the sim twin of the gated engine's `Shared`, minus
/// the locks: everything runs on one thread, so a `RefCell` replaces the
/// mutexes and plain `Vec`s replace the channel plumbing.
struct SimCore {
    graph: Graph,
    boards: Vec<Whiteboard>,
    metrics: Vec<AgentMetrics>,
    trackers: Vec<SpanTracker>,
    checkpoints: Vec<Checkpoint>,
    events: Vec<TraceEvent>,
    record_events: bool,
    port_seed: u64,
    scramble_ports: bool,
    fault_stats: FaultStats,
    faults_armed: bool,
    panics: Vec<(usize, String)>,
    slots: Vec<Slot>,
}

impl SimCore {
    /// The agent-specific local-port → symbol mapping at a node
    /// (identical to the gated engine's, seeded identically).
    fn port_map(&self, agent: usize, node: usize) -> Vec<Port> {
        let syms: Vec<Port> = self.graph.ports_at(node);
        if self.scramble_ports {
            crate::shuffle::scrambled_ports(self.port_seed, agent, node, syms)
        } else {
            syms
        }
    }
}

/// A parked primitive: announces the park on first poll, then resolves
/// when the scheduler deposits a grant (or an abort) in the slot.
struct Gate {
    core: Rc<RefCell<SimCore>>,
    agent: usize,
    park: Park,
    announced: bool,
}

impl Future for Gate {
    type Output = Result<u64, Interrupt>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut core = this.core.borrow_mut();
        let slot = &mut core.slots[this.agent];
        if let Some(int) = slot.abort.take() {
            return Poll::Ready(Err(int));
        }
        if let Some(tick) = slot.grant.take() {
            return Poll::Ready(Ok(tick));
        }
        if !this.announced {
            this.announced = true;
            slot.state = match this.park {
                Park::Op => SlotState::ReadyOp,
                Park::Wait { node, seen } => SlotState::Waiting { node, seen },
            };
        }
        Poll::Pending
    }
}

/// Poll-level panic guard: the sim twin of the gated engine's
/// `catch_unwind` around the agent program. A panic anywhere in the
/// agent's current segment surfaces as `Err(message)` instead of
/// unwinding through the scheduler loop. Boxing the inner future keeps
/// this type `Unpin` without unsafe projection.
struct CatchPanic<F: Future> {
    inner: Pin<Box<F>>,
}

impl<F: Future> CatchPanic<F> {
    fn new(fut: F) -> Self {
        CatchPanic {
            inner: Box::pin(fut),
        }
    }
}

impl<F: Future> Future for CatchPanic<F> {
    type Output = Result<F::Output, String>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match std::panic::catch_unwind(AssertUnwindSafe(|| this.inner.as_mut().poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(panic_message(payload.as_ref()))),
        }
    }
}

/// The concrete [`MobileCtxAsync`] of the sim engine. Where the gated
/// engine's context blocks on a grant channel, this parks its state
/// machine at a `Gate`; everything else — fault boundaries, metric
/// counting, event recording, port scrambling — is the same code path
/// in the same order, which is what the differential suite pins.
struct SimCtx {
    core: Rc<RefCell<SimCore>>,
    id: usize,
    color: Color,
    node: usize,
    home: usize,
    entry: Option<LocalPort>,
    faults: FaultClock,
    recovery: RecoveryPolicy,
}

impl SimCtx {
    fn gate(&self, park: Park) -> Gate {
        Gate {
            core: Rc::clone(&self.core),
            agent: self.id,
            park,
            announced: false,
        }
    }

    /// Park at an op gate; on grant, returns the tick number.
    async fn gate_op(&mut self) -> Result<u64, Interrupt> {
        self.gate(Park::Op).await
    }

    fn count_access(&self) {
        self.core.borrow().metrics[self.id]
            .accesses
            .fetch_add(1, Ordering::Relaxed);
    }

    fn record(&self, tick: u64, op: PrimOp) {
        let mut core = self.core.borrow_mut();
        if core.record_events {
            let agent = self.id;
            core.events.push(TraceEvent { tick, agent, op });
        }
    }

    /// The whiteboard-access boundary hook (see
    /// `GatedCtx::fault_gate`): same counter, same crash/delay
    /// accounting, so a plan addresses the same op indices on both
    /// engines.
    async fn fault_gate(&mut self) -> Result<(), Interrupt> {
        self.faults.advance();
        while let Some(action) = self.faults.take_due() {
            match action {
                FaultAction::Delay { ticks } => {
                    self.core
                        .borrow()
                        .fault_stats
                        .delay_ticks
                        .fetch_add(ticks, Ordering::Relaxed);
                    for _ in 0..ticks {
                        let tick = self.gate_op().await?;
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
                    let core = self.core.borrow();
                    core.fault_stats.crashes.fetch_add(1, Ordering::Relaxed);
                    core.fault_stats.lost_ops.fetch_add(1, Ordering::Relaxed);
                    return Err(Interrupt::Crashed);
                }
            }
        }
        Ok(())
    }

    /// Post-crash restart (see `GatedCtx::begin_restart`): seal torn
    /// spans, reset volatile state to the home-base, bump the
    /// incarnation, stall for `restart_after` + bounded backoff.
    async fn begin_restart(&mut self) -> Result<(), Interrupt> {
        let incarnation = self.faults.incarnation() + 1;
        if incarnation > self.recovery.max_restarts {
            self.core
                .borrow()
                .fault_stats
                .aborted
                .fetch_add(1, Ordering::Relaxed);
            return Err(Interrupt::Crashed);
        }
        {
            let core = self.core.borrow();
            core.trackers[self.id].force_close_all(
                core.metrics[self.id].snapshot(),
                Some(qelect_graph::cache::global().stats()),
            );
        }
        self.faults.restart();
        self.core
            .borrow()
            .fault_stats
            .restarts
            .fetch_add(1, Ordering::Relaxed);
        self.node = self.home;
        self.entry = None;
        let stall = self.faults.take_restart_stall() + self.recovery.backoff(incarnation);
        self.core
            .borrow()
            .fault_stats
            .backoff_ticks
            .fetch_add(stall, Ordering::Relaxed);
        for _ in 0..stall {
            let tick = self.gate_op().await?;
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

impl MobileCtxAsync for SimCtx {
    fn color(&self) -> Color {
        self.color
    }

    fn degree(&mut self) -> usize {
        self.core.borrow().graph.degree(self.node)
    }

    fn entry(&self) -> Option<LocalPort> {
        self.entry
    }

    async fn read_board(&mut self) -> Result<Vec<Sign>, Interrupt> {
        self.fault_gate().await?;
        let tick = self.gate_op().await?;
        self.count_access();
        let signs = self.core.borrow().boards[self.node].signs().to_vec();
        self.record(tick, PrimOp::Read { node: self.node });
        Ok(signs)
    }

    async fn with_board<R>(
        &mut self,
        f: impl FnOnce(&mut Whiteboard) -> R,
    ) -> Result<R, Interrupt> {
        self.fault_gate().await?;
        let tick = self.gate_op().await?;
        self.count_access();
        let (result, posted) = {
            let mut core = self.core.borrow_mut();
            let record = core.record_events;
            let board = &mut core.boards[self.node];
            let before = board.signs().len();
            let result = f(board);
            // Signs appended during the access (erasures shorten the
            // board instead; they leave `posted` empty).
            let posted: Option<Vec<u32>> = record.then(|| {
                board
                    .signs()
                    .get(before..)
                    .unwrap_or(&[])
                    .iter()
                    .map(|s| sign_kind_code(s.kind))
                    .collect()
            });
            (result, posted)
        };
        if let Some(posted) = posted {
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
        self.fault_gate().await?;
        let tick = self.gate_op().await?;
        let from = self.node;
        let (dest, entry_local) = {
            let core = self.core.borrow();
            let map = core.port_map(self.id, self.node);
            let sym = *map
                .get(port.0 as usize)
                .unwrap_or_else(|| panic!("agent {} used invalid local port {port}", self.id));
            let (dest, entry_sym) = core
                .graph
                .move_along(self.node, sym)
                .expect("port map is consistent with the graph");
            // Translate the arrival symbol into the agent's local
            // numbering at the destination.
            let dest_map = core.port_map(self.id, dest);
            let entry_local = dest_map
                .iter()
                .position(|&p| p == entry_sym)
                .expect("entry symbol present at destination");
            core.metrics[self.id].moves.fetch_add(1, Ordering::Relaxed);
            (dest, entry_local)
        };
        self.node = dest;
        self.entry = Some(LocalPort(entry_local as u32));
        self.record(tick, PrimOp::Move { from, to: dest });
        Ok(())
    }

    async fn wait_until(&mut self, pred: impl Fn(&Whiteboard) -> bool) -> Result<(), Interrupt> {
        // One boundary per wait *entry*, as in the gated engine: the
        // re-check cadence is engine-internal and must not consume op
        // indices, or fault plans would address differently.
        self.fault_gate().await?;
        let mut seen: Option<u64> = None;
        loop {
            let tick = self
                .gate(Park::Wait {
                    node: self.node,
                    seen,
                })
                .await?;
            self.count_access();
            let (woke, version) = {
                let core = self.core.borrow();
                let board = &core.boards[self.node];
                (pred(board), board.version())
            };
            self.record(
                tick,
                PrimOp::Wait {
                    node: self.node,
                    woke,
                },
            );
            if woke {
                self.core.borrow().metrics[self.id]
                    .waits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            seen = Some(version);
        }
    }

    fn checkpoint(&mut self, label: &str) {
        let mut core = self.core.borrow_mut();
        let (moves, accesses, _) = core.metrics[self.id].snapshot();
        core.checkpoints.push(Checkpoint {
            label: label.to_string(),
            agent: self.id,
            moves,
            accesses,
        });
    }

    fn span_open(&mut self, name: &str) {
        let core = self.core.borrow();
        core.trackers[self.id].open(
            name,
            core.metrics[self.id].snapshot(),
            Some(qelect_graph::cache::global().stats()),
        );
    }

    fn span_close(&mut self, name: &str) {
        let core = self.core.borrow();
        core.trackers[self.id].close(
            name,
            core.metrics[self.id].snapshot(),
            Some(qelect_graph::cache::global().stats()),
        );
    }

    fn incarnation(&self) -> u64 {
        self.faults.incarnation()
    }

    fn crash_faults_armed(&self) -> bool {
        self.core.borrow().faults_armed
    }
}

/// The sim engine entry point: caller-supplied scheduler, fault plan,
/// typed errors — the same signature and contract as
/// [`crate::gated::try_run_gated_with`]: protocol-level interrupts come
/// back inside the report, `Err` means the run lost integrity (an agent
/// panicked, or an agent suspended on something that is not a sim
/// gate).
///
/// Agent `i` starts at the `i`-th home-base with a fresh color and runs
/// `protocol.for_agent(i)`, as on the gated engine.
pub(crate) fn try_run_sim_with<P: Protocol + Clone>(
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

    let core = Rc::new(RefCell::new(SimCore {
        graph: bc.graph().clone(),
        boards: (0..bc.n()).map(|_| Whiteboard::new()).collect(),
        metrics: (0..r).map(|_| AgentMetrics::default()).collect(),
        trackers: (0..r).map(SpanTracker::new).collect(),
        checkpoints: Vec::new(),
        events: Vec::new(),
        record_events: cfg.record_trace,
        port_seed: cfg.seed.wrapping_add(0x9047_5EED),
        scramble_ports: cfg.scramble_ports,
        fault_stats: FaultStats::default(),
        faults_armed: faults.has_crashes(),
        panics: Vec::new(),
        slots: (0..r).map(|_| Slot::default()).collect(),
    }));
    // Pre-mark home-bases.
    {
        let mut c = core.borrow_mut();
        for (i, &hb) in bc.homebases().iter().enumerate() {
            c.boards[hb].post(Sign::tag(colors[i], SignKind::HomeBase));
        }
    }

    // One state machine per agent. The wrapper mirrors the gated
    // engine's thread body: invoke-and-restart loop, poll-level panic
    // guard, and a final force-close of torn spans.
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = AgentOutcome> + '_>>>> =
        Vec::with_capacity(r);
    for (i, &color) in colors.iter().enumerate() {
        let mut ctx = SimCtx {
            core: Rc::clone(&core),
            id: i,
            color,
            node: bc.homebases()[i],
            home: bc.homebases()[i],
            entry: None,
            faults: FaultClock::new(faults, i),
            recovery: faults.recovery,
        };
        let p = protocol.for_agent(i);
        tasks.push(Some(Box::pin(async move {
            let outcome = loop {
                let attempt = CatchPanic::new(p.run_async(&mut ctx)).await;
                match attempt {
                    Ok(Ok(o)) => break o,
                    Ok(Err(Interrupt::Crashed)) => match ctx.begin_restart().await {
                        Ok(()) => continue,
                        Err(int) => break AgentOutcome::Interrupted(int),
                    },
                    Ok(Err(int)) => break AgentOutcome::Interrupted(int),
                    Err(message) => {
                        ctx.core.borrow_mut().panics.push((ctx.id, message));
                        break AgentOutcome::Interrupted(Interrupt::Cancelled);
                    }
                }
            };
            // Seal spans an interrupt (or a sloppy protocol) left open.
            {
                let c = ctx.core.borrow();
                c.trackers[ctx.id].force_close_all(
                    c.metrics[ctx.id].snapshot(),
                    Some(qelect_graph::cache::global().stats()),
                );
            }
            outcome
        })));
    }

    let mut cx = Context::from_waker(Waker::noop());
    let mut outcomes: Vec<AgentOutcome> = vec![AgentOutcome::Interrupted(Interrupt::Cancelled); r];
    let mut steps: u64 = 0;
    let mut preemptions: u64 = 0;
    let mut interrupted: Option<Interrupt> = None;
    let mut run_error: Option<RunError> = None;
    let mut trace: Vec<usize> = Vec::new();

    // ---- scheduler loop (statement-for-statement the gated loop) ----
    let mut live = r;
    let mut aborting: Option<Interrupt> = None;
    let mut last_pick: Option<usize> = None;

    'sched: while live > 0 {
        // Ensure every live agent is parked (or done): poll the
        // thinking agents in index order — each poll runs that agent's
        // current segment synchronously to its next gate.
        for i in 0..r {
            if core.borrow().slots[i].state != SlotState::Running {
                continue;
            }
            let task = tasks[i].as_mut().expect("running agent has a live task");
            match task.as_mut().poll(&mut cx) {
                Poll::Ready(outcome) => {
                    tasks[i] = None;
                    core.borrow_mut().slots[i].state = SlotState::Done;
                    outcomes[i] = outcome;
                    live -= 1;
                }
                Poll::Pending => {
                    if core.borrow().slots[i].state == SlotState::Running {
                        // Pending without a park announcement: the agent
                        // awaited something that is not a sim gate.
                        run_error = Some(RunError::ChannelDisconnected {
                            stage: "awaiting agent park",
                        });
                        break 'sched;
                    }
                }
            }
        }
        if live == 0 {
            break;
        }

        // If we are aborting, answer every parked agent with Abort.
        if let Some(reason) = &aborting {
            let mut c = core.borrow_mut();
            for slot in c.slots.iter_mut() {
                match slot.state {
                    SlotState::ReadyOp | SlotState::Waiting { .. } => {
                        slot.state = SlotState::Running;
                        slot.abort = Some(reason.clone());
                    }
                    _ => {}
                }
            }
            continue;
        }

        // Ready set: ops, plus waits whose board has changed.
        let ready: Vec<usize> = {
            let c = core.borrow();
            (0..r)
                .filter(|&i| match &c.slots[i].state {
                    SlotState::ReadyOp => true,
                    SlotState::Waiting { node, seen } => match seen {
                        None => true,
                        Some(v) => c.boards[*node].version() > *v,
                    },
                    _ => false,
                })
                .collect()
        };

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
            // Same preemption accounting as gated: a switch away from a
            // still-ready agent counts, a forced switch does not.
            if prev != pick && ready.contains(&prev) {
                preemptions += 1;
            }
        }
        last_pick = Some(pick);
        if cfg.record_trace {
            trace.push(pick);
        }
        {
            let mut c = core.borrow_mut();
            c.slots[pick].state = SlotState::Running;
            c.slots[pick].grant = Some(steps);
        }
        // The loop head polls the (sole) Running agent, which consumes
        // the grant and runs to its next park — the sim analogue of
        // "block until the granted agent parks again or finishes".
    }

    // Breaking out with agents still parked leaves their futures
    // unresolved; dropping the tasks cancels them, matching the gated
    // engine's dropped grant channels. (Both break paths return Err
    // below, so the cancelled agents' reports are never observed.)
    drop(tasks);

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

    if let Some((agent, message)) = core.borrow().panics.first().cloned() {
        return Err(RunError::AgentPanicked { agent, message });
    }
    if let Some(e) = run_error {
        return Err(e);
    }

    let mut c = core.borrow_mut();
    let metrics = Metrics {
        per_agent: c.metrics.iter().map(|m| m.snapshot()).collect(),
        checkpoints: c.checkpoints.clone(),
        steps,
        preemptions,
        canon_cache: Some(cache_before.delta(&qelect_graph::cache::global().stats())),
        spans: c.trackers.iter().flat_map(|t| t.take()).collect(),
        faults: c.fault_stats.snapshot(),
    };
    let events = std::mem::take(&mut c.events);
    drop(c);

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
    // The behaviours both engines share are pinned by the conformance
    // table in `gated.rs`, which runs every row on gated and sim. The
    // rows below are its `*_on` rows run on sim, each checked against
    // the gated oracle.
    use crate::gated::tests::{self as table, conform, instance, traced, Walker};
    use crate::run::Engine;

    #[test]
    fn single_agent_trivial_protocol() {
        table::single_agent_trivial_protocol_on(Engine::Sim);
    }

    #[test]
    fn homebase_signs_are_premarked() {
        table::homebase_signs_are_premarked_on(Engine::Sim);
    }

    #[test]
    fn deadlock_is_detected() {
        table::deadlock_is_detected_on(Engine::Sim);
    }

    #[test]
    fn step_limit_interrupts_livelock() {
        table::step_limit_interrupts_livelock_on(Engine::Sim);
    }

    #[test]
    fn wait_wakes_on_board_change() {
        table::wait_wakes_on_board_change_on(Engine::Sim);
    }

    #[test]
    fn deterministic_given_seed_and_policy() {
        table::deterministic_given_seed_and_policy_on(Engine::Sim);
    }

    #[test]
    fn crash_restarts_at_home_with_volatile_state_lost() {
        table::crash_restarts_at_home_with_volatile_state_lost_on(Engine::Sim);
    }

    #[test]
    fn sim_matches_gated_byte_for_byte_on_a_fixed_walk() {
        // The in-crate differential smoke (the full proptest suite lives
        // in the workspace tests): `conform` asserts that the two
        // engines' fingerprints (outcomes, traces, events, metrics)
        // agree.
        let bc = instance(6, &[0, 3]);
        for seed in [0u64, 5, 21] {
            conform(&bc, &traced(seed), &Walker { hops: 12 });
        }
    }
}

//! The replayer: re-execute a recorded reference stream against any
//! placement policy.
//!
//! Replay reconstructs the capture machine (same node count, frame depth,
//! page size, zone layout), boots a kernel with the requested
//! [`PolicyKind`], and executes the recorded op list *in exactly the
//! recorded global order*. The protocol constrains how: a shootdown
//! initiator blocks (in host time) until every target that has the space
//! active acks, and a processor waiting for its next op is such a target.
//! There are two engines, bit-identical in every observable:
//!
//! - [`replay`] is the reference. It drives real per-processor threads
//!   through a shared cursor; each thread executes its own ops and spins,
//!   servicing shootdown IPIs, while it is another processor's turn.
//! - [`replay_par`] runs the whole order on the calling thread. Every
//!   attached processor but the running one is *parked* in the kernel
//!   ([`Kernel::park`]): it stays active, so shootdowns still interrupt
//!   and await it, and the initiator acks it in place. No op pays a
//!   cross-core handoff.
//!
//! Each op's post-execution virtual time is kept in a side array so
//! that [`Op::AdvanceDep`] release edges can read the *replayed* producer
//! time — under a slow policy the consumer inherits the slow release
//! time, exactly as the application's synchronization would behave.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use numa_machine::{MachineConfig, Mem, Topology};
use platinum::{Kernel, PolicyKind, PtableConfig, StatsSnapshot, UserCtx};
use platinum_runtime::measure::{RunStats, WorkerStats};
use platinum_runtime::sim::{Sim, SimBuilder};

use crate::format::{Op, Phase, RefTrace};

/// One replayed phase: the label it was recorded under plus the replay's
/// per-worker clocks and access counters.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// The phase label from the trace.
    pub label: String,
    /// Replay statistics, same shape as a live run's.
    pub stats: RunStats,
}

impl PhaseOutcome {
    /// The phase's execution time: maximum final virtual time.
    pub fn elapsed_ns(&self) -> u64 {
        self.stats.elapsed_ns()
    }
}

/// The outcome of replaying a whole trace under one policy.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The policy the trace was replayed against.
    pub policy: PolicyKind,
    /// Per-phase outcomes, in trace order.
    pub phases: Vec<PhaseOutcome>,
    /// Kernel protocol counters accumulated across all phases.
    pub kernel: StatsSnapshot,
}

impl ReplayOutcome {
    /// The last phase's execution time — the measured region by harness
    /// convention. Zero for an empty trace.
    pub fn measured_elapsed_ns(&self) -> u64 {
        self.phases.last().map(|p| p.elapsed_ns()).unwrap_or(0)
    }

    /// Fraction of charged references served by remote memory, summed
    /// over the last (measured) phase's workers.
    pub fn measured_remote_ratio(&self) -> f64 {
        let Some(last) = self.phases.last() else {
            return 0.0;
        };
        let c = last.stats.merged_counters();
        let remote = c.remote_reads + c.remote_writes + c.remote_atomics;
        let total = c.total_refs();
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

/// Boots a replay machine matching the capture machine.
fn boot(
    trace: &RefTrace,
    kind: PolicyKind,
    topo: Option<&Topology>,
    ptable: Option<PtableConfig>,
) -> Sim {
    let mut mc = MachineConfig::with_nodes(trace.nodes);
    mc.frames_per_node = trace.frames_per_node;
    mc.page_shift = trace.page_shift;
    mc.skew_window_ns = None;
    let mut b = SimBuilder::nodes(trace.nodes)
        .machine_config(mc)
        .policy_kind(kind);
    if let Some(t) = topo {
        b = b.topology(t.clone());
    }
    if let Some(p) = ptable {
        b = b.ptable(p);
    }
    let sim = b.build();
    for &pages in &trace.zones {
        sim.alloc_zone(pages as usize);
    }
    sim
}

/// Replays `trace` against `kind` and returns the outcome. The replay is
/// deterministic: same trace + same policy → identical virtual times and
/// counters, and a PLATINUM replay of a fresh capture reproduces the
/// capture run bit for bit.
pub fn replay(trace: &RefTrace, kind: PolicyKind) -> ReplayOutcome {
    replay_with(trace, kind, None)
}

/// [`replay`] on an explicit machine description, which must match the
/// capture machine's (the trace does not record it): the bit-identity
/// guarantee holds per-topology, not across them.
pub fn replay_with(trace: &RefTrace, kind: PolicyKind, topo: Option<&Topology>) -> ReplayOutcome {
    replay_cfg(trace, kind, topo, None)
}

/// [`replay_with`], additionally booting the replay kernel with an
/// explicit page-table fabric configuration. The trace format does not
/// record the ptable config; for bit-identity against the capture run,
/// pass the same config the capture machine used (`None` means the
/// centralized default, matching [`replay`]). Any config yields a
/// deterministic replay — same trace + policy + config → identical
/// virtual times — because walk charging and replica population happen
/// at gate-ordered points.
pub fn replay_cfg(
    trace: &RefTrace,
    kind: PolicyKind,
    topo: Option<&Topology>,
    ptable: Option<PtableConfig>,
) -> ReplayOutcome {
    let sim = boot(trace, kind, topo, ptable);
    let phases = trace
        .phases
        .iter()
        .map(|ph| replay_phase(&sim, ph))
        .collect();
    ReplayOutcome {
        policy: kind,
        phases,
        kernel: sim.kernel.stats().snapshot(),
    }
}

/// Like [`replay`], but executes the op stream on the calling thread, with
/// no worker threads and no cursor.
///
/// The recorded global order is load-bearing — it *is* the interleaving
/// the capture gate picked, and the protocol state (page rights, freezes,
/// bus buckets) evolves along it — so a replay may never reorder ops
/// across processors. [`replay`] honors it with one cross-core handoff
/// per op, which dominates its host time because the capture gate
/// alternates processors on almost every op. This engine instead walks
/// the list in order and, when the processor changes, parks the running
/// context in the kernel and unparks the next one. A parked processor
/// keeps its space active, so a shootdown interrupts and awaits it as
/// before; the initiator runs its ack in place, charged to the parked
/// processor's own clock.
///
/// The outcome is bit-identical to [`replay`]: same virtual times, same
/// counters, same kernel statistics (the tests and the `policy_matrix`
/// self-check assert it).
pub fn replay_par(trace: &RefTrace, kind: PolicyKind) -> ReplayOutcome {
    replay_par_with(trace, kind, None)
}

/// [`replay_par`] on an explicit machine description (see
/// [`replay_with`]).
pub fn replay_par_with(
    trace: &RefTrace,
    kind: PolicyKind,
    topo: Option<&Topology>,
) -> ReplayOutcome {
    replay_par_cfg(trace, kind, topo, None)
}

/// [`replay_par_with`] with an explicit page-table fabric configuration
/// (see [`replay_cfg`]).
pub fn replay_par_cfg(
    trace: &RefTrace,
    kind: PolicyKind,
    topo: Option<&Topology>,
    ptable: Option<PtableConfig>,
) -> ReplayOutcome {
    let sim = boot(trace, kind, topo, ptable);
    let phases = trace
        .phases
        .iter()
        .map(|ph| replay_phase_par(&sim, ph))
        .collect();
    ReplayOutcome {
        policy: kind,
        phases,
        kernel: sim.kernel.stats().snapshot(),
    }
}

/// Replays `trace` under each policy in `kinds` concurrently — one
/// independent replay machine per host thread — and returns the outcomes
/// in `kinds` order. Policies are mutually independent, so a policy
/// tournament scales with host cores; each individual replay runs
/// [`replay_par`] on its own thread and is bit-identical to [`replay`].
pub fn replay_many(trace: &RefTrace, kinds: &[PolicyKind]) -> Vec<ReplayOutcome> {
    replay_many_with(trace, kinds, None)
}

/// [`replay_many`] on an explicit machine description (see
/// [`replay_with`]).
pub fn replay_many_with(
    trace: &RefTrace,
    kinds: &[PolicyKind],
    topo: Option<&Topology>,
) -> Vec<ReplayOutcome> {
    let mut out: Vec<Option<ReplayOutcome>> = Vec::new();
    out.resize_with(kinds.len(), || None);
    std::thread::scope(|s| {
        for (&kind, slot) in kinds.iter().zip(out.iter_mut()) {
            s.spawn(move || {
                *slot = Some(replay_par_with(trace, kind, topo));
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("replay thread completed"))
        .collect()
}

/// Unparks every processor slot of a replay kernel when dropped. A parked
/// context holds an `Arc` to its kernel, so without this a replay that
/// unwinds mid-phase would leak the kernel and leave its processors
/// occupied.
struct UnparkAll<'a>(&'a Kernel);

impl Drop for UnparkAll<'_> {
    fn drop(&mut self) {
        for p in 0..self.0.machine().nprocs() {
            drop(self.0.unpark(p));
        }
    }
}

/// Replays one phase on the calling thread, in the recorded order. The
/// running processor's context is held here; every other attached
/// processor is parked in the kernel, where each shootdown that awaits it
/// acknowledges it in place, exactly as its spinning worker would in
/// [`replay`].
fn replay_phase_par(sim: &Sim, ph: &Phase) -> PhaseOutcome {
    let kernel = &*sim.kernel;
    let _unpark = UnparkAll(kernel);
    let mut post = vec![0u64; ph.ops.len()];
    let mut workers: Vec<Option<WorkerStats>> = vec![None; ph.workers];
    let mut block_buf: Vec<u32> = Vec::new();
    let mut running: Option<UserCtx> = None;
    let mut running_proc = usize::MAX;
    for (i, r) in ph.ops.iter().enumerate() {
        let p = r.proc as usize;
        if p != running_proc {
            if let Some(c) = running.take() {
                kernel.park(c);
            }
            running = kernel.unpark(p);
            running_proc = p;
        }
        match r.op {
            Op::Attach => {
                running = Some(sim.attach(p).expect("replay claims a free processor"));
            }
            Op::Detach => {
                let mut c = running.take().expect("Detach follows Attach");
                c.service_ipis();
                workers[p] = Some(WorkerStats {
                    proc: p,
                    vtime_ns: c.vtime(),
                    counters: c.counters(),
                });
                post[i] = c.vtime();
                continue;
            }
            op => {
                let c = running.as_mut().expect("ops follow Attach");
                exec(c, op, |seq| post[seq], &mut block_buf);
            }
        }
        post[i] = running.as_ref().map(|c| c.vtime()).unwrap_or(0);
    }
    PhaseOutcome {
        label: ph.label.clone(),
        stats: RunStats {
            workers: workers
                .into_iter()
                .map(|w| w.expect("replay worker reached its Detach op"))
                .collect(),
        },
    }
}

fn replay_phase(sim: &Sim, ph: &Phase) -> PhaseOutcome {
    let cursor = AtomicUsize::new(0);
    let post: Vec<AtomicU64> = (0..ph.ops.len()).map(|_| AtomicU64::new(0)).collect();
    let mut out: Vec<Option<WorkerStats>> = Vec::new();
    out.resize_with(ph.workers, || None);
    std::thread::scope(|s| {
        let cursor = &cursor;
        let post = &post;
        for (p, slot) in out.iter_mut().enumerate() {
            s.spawn(move || {
                *slot = replay_worker(sim, ph, p, cursor, post);
            });
        }
    });
    let workers: Vec<WorkerStats> = out
        .into_iter()
        .map(|w| w.expect("replay worker reached its Detach op"))
        .collect();
    PhaseOutcome {
        label: ph.label.clone(),
        stats: RunStats { workers },
    }
}

/// Drives processor `p` through its share of the phase's op list.
/// Returns once the worker's `Detach` op has executed.
fn replay_worker(
    sim: &Sim,
    ph: &Phase,
    p: usize,
    cursor: &AtomicUsize,
    post: &[AtomicU64],
) -> Option<WorkerStats> {
    let ops = &ph.ops;
    let mut ctx: Option<UserCtx> = None;
    let mut stats = None;
    let mut block_buf: Vec<u32> = Vec::new();
    loop {
        // Wait for the cursor to reach one of our ops, acking shootdowns
        // (we may be a target of the current op's initiator) meanwhile.
        let i = {
            let mut spins = 0u32;
            loop {
                let i = cursor.load(Ordering::Acquire);
                if i >= ops.len() {
                    // Defensive: a malformed trace may omit our Detach.
                    return stats;
                }
                if ops[i].proc as usize == p {
                    break i;
                }
                if let Some(c) = ctx.as_mut() {
                    c.service_ipis();
                }
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
        };
        match ops[i].op {
            Op::Attach => {
                ctx = Some(
                    sim.attach(p)
                        .expect("replay worker claims a free processor"),
                );
            }
            Op::Detach => {
                let mut c = ctx.take().expect("Detach follows Attach");
                c.service_ipis();
                stats = Some(WorkerStats {
                    proc: p,
                    vtime_ns: c.vtime(),
                    counters: c.counters(),
                });
                post[i].store(c.vtime(), Ordering::Relaxed);
                drop(c);
                cursor.store(i + 1, Ordering::Release);
                return stats;
            }
            op => {
                let c = ctx.as_mut().expect("ops follow Attach");
                exec(
                    c,
                    op,
                    |seq| post[seq].load(Ordering::Acquire),
                    &mut block_buf,
                );
            }
        }
        let v = ctx.as_ref().map(|c| c.vtime()).unwrap_or(0);
        post[i].store(v, Ordering::Relaxed);
        cursor.store(i + 1, Ordering::Release);
    }
}

/// Executes one recorded op against the replay kernel. Values were not
/// recorded (the protocol's behaviour and charges are value-independent),
/// so writes store zero and atomics add zero; block ops borrow the
/// worker's reusable scratch buffer instead of allocating per op.
/// `post_time(seq)` is op `seq`'s replayed post-execution virtual time.
fn exec(ctx: &mut UserCtx, op: Op, post_time: impl Fn(usize) -> u64, block_buf: &mut Vec<u32>) {
    match op {
        Op::Read { va } => {
            ctx.read(va);
        }
        Op::Write { va } => ctx.write(va, 0),
        Op::ReadSpin { va } => {
            ctx.read_spin(va);
        }
        Op::Atomic { va } => {
            ctx.fetch_add(va, 0);
        }
        Op::ReadBlock { va, words } => {
            block_buf.clear();
            block_buf.resize(words as usize, 0);
            ctx.read_block(va, block_buf);
        }
        Op::WriteBlock { va, words } => {
            block_buf.clear();
            block_buf.resize(words as usize, 0);
            ctx.write_block(va, block_buf);
        }
        Op::Compute { ns } => ctx.compute(ns),
        Op::AdvanceDep { seq } => ctx.advance_to(post_time(seq as usize)),
        Op::AdvanceAbs { t } => ctx.advance_to(t),
        Op::SetVtime { t } => ctx.set_vtime(t),
        Op::Poll => ctx.poll(),
        Op::BeginWait => ctx.begin_wait(),
        Op::EndWait => ctx.end_wait(),
        Op::TraceLock { va, acquire } => ctx.trace_lock(va, acquire),
        Op::Attach | Op::Detach => unreachable!("handled by the worker loop"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Capture;
    use platinum::PtablePlacement;
    use platinum_runtime::sync::{Barrier, SpinLock};

    /// A small hand-written workload exercising every op kind the
    /// recorder emits: private sweeps, a contended lock + shared counter
    /// (spin reads, atomics, advance_to release edges), a barrier, block
    /// transfers, and compute charges.
    fn capture_mini(nodes: usize) -> (crate::RefTrace, RunStats, StatsSnapshot) {
        let mut cap = Capture::new(nodes);
        let sync = cap.alloc_zone(1);
        let data = cap.alloc_zone(4);
        let lock_va = sync.base();
        let barrier_count_va = sync.base() + 32;
        let barrier_gen_va = sync.base() + 36;
        let counter_va = sync.base() + 64;
        let base = data.base();
        let n = nodes;
        let (_r, live) = cap.run_phase("mini", n, move |i, ctx| {
            let lock = SpinLock::new(lock_va);
            let barrier = Barrier::new(barrier_count_va, barrier_gen_va, n as u32);
            // Private sweep: first-touch placement, charged reads/writes.
            for k in 0..64u64 {
                ctx.write(base + (i as u64) * 1024 + 4 * k, (k as u32) * 3 + 1);
                ctx.read(base + (i as u64) * 1024 + 4 * k);
            }
            ctx.compute(5_000);
            barrier.wait(ctx);
            // Contended critical section: the lock word freezes, spin
            // reads and release edges land in the trace.
            for _ in 0..16 {
                lock.acquire(ctx);
                let v = ctx.fetch_add(counter_va, 1);
                ctx.write(base + 4096 + 4 * u64::from(v % 32), v);
                lock.release(ctx);
                ctx.compute(1_000);
            }
            barrier.wait(ctx);
            // Block transfer from a shared region.
            let mut buf = vec![0u32; 128];
            ctx.read_block(base + 4096, &mut buf);
            ctx.write_block(base + 8192 + (i as u64) * 512, &buf);
            ctx.fetch_add(counter_va, 0)
        });
        let stats = cap.stats_snapshot();
        (cap.finish(), live, stats)
    }

    #[test]
    fn same_policy_replay_is_bit_identical() {
        let (trace, live, live_kernel) = capture_mini(3);
        assert!(trace.total_ops() > 0);
        let out = replay(&trace, PolicyKind::Platinum);
        assert_eq!(out.phases.len(), 1);
        let replayed = &out.phases[0].stats;
        for (a, b) in live.workers.iter().zip(&replayed.workers) {
            assert_eq!(a.proc, b.proc);
            assert_eq!(a.vtime_ns, b.vtime_ns, "proc {} vtime drifted", a.proc);
            assert_eq!(a.counters, b.counters, "proc {} counters drifted", a.proc);
        }
        assert_eq!(
            trace.phases[0].final_vtimes,
            replayed
                .workers
                .iter()
                .map(|w| w.vtime_ns)
                .collect::<Vec<_>>()
        );
        assert_eq!(out.kernel, live_kernel, "kernel protocol counters drifted");
    }

    fn assert_same_outcome(a: &ReplayOutcome, b: &ReplayOutcome) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.phases.len(), b.phases.len());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.label, pb.label);
            for (wa, wb) in pa.stats.workers.iter().zip(&pb.stats.workers) {
                assert_eq!(wa.proc, wb.proc);
                assert_eq!(wa.vtime_ns, wb.vtime_ns, "proc {} vtime drifted", wa.proc);
                assert_eq!(
                    wa.counters, wb.counters,
                    "proc {} counters drifted",
                    wa.proc
                );
            }
        }
        assert_eq!(a.kernel, b.kernel, "kernel protocol counters drifted");
    }

    #[test]
    fn parallel_replay_is_bit_identical_to_serial_and_live() {
        let (trace, live, live_kernel) = capture_mini(3);
        let par = replay_par(&trace, PolicyKind::Platinum);
        for (a, b) in live.workers.iter().zip(&par.phases[0].stats.workers) {
            assert_eq!(a.vtime_ns, b.vtime_ns, "proc {} vtime drifted", a.proc);
            assert_eq!(a.counters, b.counters, "proc {} counters drifted", a.proc);
        }
        assert_eq!(par.kernel, live_kernel);
        // Every Fig. 1 policy: parking and in-place acks must reproduce
        // the threaded engine whatever the protocol does with the pages.
        for kind in PolicyKind::FIG1_SET {
            assert_same_outcome(&replay_par(&trace, kind), &replay(&trace, kind));
        }
    }

    #[test]
    fn parallel_replay_matches_serial_with_replicated_page_tables() {
        let (trace, _, _) = capture_mini(3);
        let cfg = Some(PtableConfig::with_placement(
            PtablePlacement::ReplicatedOnFault,
        ));
        for kind in PolicyKind::FIG1_SET {
            assert_same_outcome(
                &replay_par_cfg(&trace, kind, None, cfg),
                &replay_cfg(&trace, kind, None, cfg),
            );
        }
    }

    #[test]
    fn unpark_guard_frees_every_processor() {
        let (trace, _, _) = capture_mini(2);
        let sim = boot(&trace, PolicyKind::Platinum, None, None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _unpark = UnparkAll(&sim.kernel);
            for p in 0..2 {
                sim.kernel.park(sim.attach(p).unwrap());
            }
            panic!("replay failed mid-phase");
        }));
        assert!(unwound.is_err());
        // No parked context still holds the kernel, and both processors
        // can be attached again.
        assert_eq!(std::sync::Arc::strong_count(&sim.kernel), 1);
        for p in 0..2 {
            assert!(sim.kernel.unpark(p).is_none());
            assert!(sim.attach(p).is_ok(), "processor {p} still occupied");
        }
    }

    #[test]
    fn replay_many_matches_individual_replays() {
        let (trace, _, _) = capture_mini(2);
        let kinds = [
            PolicyKind::Platinum,
            PolicyKind::LocalFirstTouch,
            PolicyKind::RemoteAlways,
        ];
        let many = replay_many(&trace, &kinds);
        assert_eq!(many.len(), kinds.len());
        for (kind, out) in kinds.iter().zip(&many) {
            assert_same_outcome(out, &replay(&trace, *kind));
        }
    }

    #[test]
    fn replay_survives_serialization_round_trip() {
        let (trace, live, _) = capture_mini(2);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = crate::RefTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(trace, back);
        let out = replay(&back, PolicyKind::Platinum);
        assert_eq!(out.phases[0].stats.elapsed_ns(), live.elapsed_ns());
    }

    #[test]
    fn other_policies_replay_to_completion() {
        let (trace, live, _) = capture_mini(2);
        for kind in [
            PolicyKind::MigrateOnly,
            PolicyKind::ReplicateOnly,
            PolicyKind::LocalFirstTouch,
            PolicyKind::RemoteAlways,
        ] {
            let out = replay(&trace, kind);
            assert!(out.measured_elapsed_ns() > 0, "{kind:?} produced no time");
            // Same reference stream: the modelled computation comes from
            // the trace alone, so it is policy-invariant (reference
            // counters are not — fault-path page copies charge refs too).
            let c = out.phases[0].stats.merged_counters();
            let l = live.merged_counters();
            assert_eq!(c.compute_ns, l.compute_ns, "{kind:?} lost compute ops");
        }
        // Elapsed time can legitimately go either way on this
        // lock-dominated workload (the §4.2 anecdote: freezing the lock
        // page hurts PLATINUM), but off-node static placement must serve
        // a larger share of references remotely than the coherent policy.
        let remote = replay(&trace, PolicyKind::RemoteAlways);
        let plat = replay(&trace, PolicyKind::Platinum);
        assert!(
            remote.measured_remote_ratio() > plat.measured_remote_ratio(),
            "remote-always was not more remote: {} <= {}",
            remote.measured_remote_ratio(),
            plat.measured_remote_ratio()
        );
    }
}

//! The four workloads. Each rep boots a fresh simulation (set-up), runs
//! the measured phase once, and verifies the program's output outside
//! the timed region. A traced rep runs the same phase through the
//! instruments of [`crate::spans`] and fills in the per-layer metrics.
//!
//! Sizes, and why each workload is here, are documented in the
//! benchmark's README.

use std::collections::BTreeMap;
use std::time::Instant;

use numa_machine::{AccessCounters, MachineConfig, Mem};
use platinum::{PlatinumPolicy, PolicyKind, Rights, StatsSnapshot, UserCtx};
use platinum_apps::capture::record_gauss;
use platinum_apps::gauss::{self, GaussConfig, GaussLayout};
use platinum_reftrace::{replay_par, Op, RefTrace};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_runtime::sync::EventCount;
use platinum_server::{run_open_loop, KvConfig, KvTable, Request, TrafficConfig};

use crate::spans::{Calls, KvProbe, Span, TracedMem, PHASE_ID};
use crate::sys::cpu_seconds;

/// What one rep measured.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Simulated operations completed in the measured phase.
    pub ops: u64,
    /// Virtual elapsed time of the measured phase.
    pub vtime_ns: u64,
    /// Median and p99.9 virtual latency.
    pub lat_ns: (u64, u64),
    /// Kernel counters of the measured phase.
    pub stats: StatsSnapshot,
    /// Further virtual times the determinism report tracks.
    pub vtimes: Vec<(&'static str, u64)>,
    /// Why verification failed, if it did.
    pub failure: Option<String>,
    /// Per-layer metrics, traced reps only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans to write out, traced reps only.
    pub spans: Vec<Span>,
}

impl Rep {
    fn new(setup_s: f64, wall_s: f64, cpu_s: f64) -> Self {
        Rep {
            setup_s,
            wall_s,
            cpu_s,
            ops: 0,
            vtime_ns: 0,
            lat_ns: (0, 0),
            stats: StatsSnapshot::default(),
            vtimes: Vec::new(),
            failure: None,
            layers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failure.is_none() {
            self.failure = Some(what());
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.layers.insert(name, v);
    }
}

/// The `q`-quantile (nearest rank) of `v`, which it sorts.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    v.sort_unstable();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host time of one measured phase.
struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    fn start() -> Self {
        Clock {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// Wall and CPU seconds since `start`.
    fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// Per-layer metrics every traced workload reports the same way: the
/// kernel's protocol counters, the machine's access counters where the
/// benchmark can read them, and the memory-call timings.
fn common_layers(
    rep: &mut Rep,
    refs: u64,
    c: Option<&AccessCounters>,
    s: &StatsSnapshot,
    calls: Option<&Calls>,
) {
    rep.set("machine.refs", refs as f64);
    if let Some(c) = c {
        rep.set("machine.remote_refs", c.remote_refs() as f64);
        rep.set("machine.remote_frac", ratio(c.remote_refs(), refs));
        rep.set("machine.atc_hits", c.atc_hits as f64);
        rep.set("machine.atc_misses", c.atc_misses as f64);
        rep.set(
            "machine.atc_hit_frac",
            ratio(c.atc_hits, c.atc_hits + c.atc_misses),
        );
        rep.set("machine.queue_delay_vs", secs(c.queue_delay_ns));
        rep.set("machine.block_words", c.block_words as f64);
    }
    for (name, v) in [
        ("core.faults", s.faults),
        ("core.replications", s.replications),
        ("core.migrations", s.migrations),
        ("core.remote_maps", s.remote_maps),
        ("core.freezes", s.freezes),
        ("core.thaws", s.thaws),
        ("core.invalidations", s.invalidations),
        ("core.shootdowns", s.shootdowns),
        ("core.ipis_sent", s.ipis_sent),
        ("core.defrost_runs", s.defrost_runs),
        ("core.reclaims", s.reclaims),
    ] {
        rep.set(name, v as f64);
    }
    rep.set("core.ipis_per_shootdown", ratio(s.ipis_sent, s.shootdowns));
    rep.set("core.refs_per_fault", ratio(refs, s.faults));
    if let Some(calls) = calls {
        rep.set("machine.fast_calls", calls.fast.count() as f64);
        rep.set("machine.fast_call_ns_p50", calls.fast.p50() as f64);
        rep.set("machine.fast_call_ns_p99", calls.fast.p99() as f64);
        rep.set("machine.fast_self_s", secs(calls.fast.sum()));
        rep.set("core.slow_calls", calls.slow.count() as f64);
        rep.set("core.slow_call_ns_p50", calls.slow.p50() as f64);
        rep.set("core.slow_call_ns_p99", calls.slow.p99() as f64);
        rep.set("core.slow_self_s", secs(calls.slow.sum()));
    }
}

/// The host-profiler buckets (inclusive and nested) and the fabric's
/// walk tallies of a kernel the benchmark booted itself.
fn kernel_layers(rep: &mut Rep, sim: &Sim, walks0: &platinum::WalkSnapshot) {
    let p = sim.kernel.host_prof().snapshot();
    rep.set("core.prof.fault_s", secs(p.fault_ns));
    rep.set("core.prof.shootdown_s", secs(p.shootdown_ns));
    rep.set("core.prof.transfer_s", secs(p.transfer_ns));
    rep.set("core.prof.directory_s", secs(p.directory_ns));
    rep.set("core.prof.walk_s", secs(p.walk_ns));
    let w = sim.kernel.walk_snapshot();
    let walk_ns = w.walk_ns - walks0.walk_ns;
    let local_ns = w.local_walk_ns - walks0.local_walk_ns;
    rep.set("ptable.walks", (w.walks - walks0.walks) as f64);
    rep.set("ptable.walk_vs", secs(walk_ns));
    rep.set("ptable.walk_local_vs", secs(local_ns));
    rep.set("ptable.walk_local_frac", ratio(local_ns, walk_ns));
}

/// Closes the self-time table: `basis` is the measured phase's host
/// time, and whatever no layer claimed is `other`.
fn close_shares(rep: &mut Rep, wall_s: f64, basis_s: f64) {
    let claimed: f64 = [
        "machine.fast_self_s",
        "core.slow_self_s",
        "runtime.handoff_self_s",
        "runtime.wait_self_s",
        "server.self_s",
        "reftrace.self_s",
    ]
    .iter()
    .map(|k| rep.layers.get(k).copied().unwrap_or(0.0))
    .sum();
    rep.set("phase.wall_s", wall_s);
    rep.set("phase.basis_s", basis_s);
    rep.set("other.self_s", basis_s - claimed);
}

// ---------------------------------------------------------------- gauss

const GAUSS_N: usize = 800;
const GAUSS_PROCS: usize = 2;

pub struct Gauss {
    cfg: GaussConfig,
    reference: u64,
}

impl Gauss {
    pub fn new(seed: u64) -> Self {
        let cfg = GaussConfig {
            seed,
            ..GaussConfig::with_n(GAUSS_N)
        };
        let reference = gauss::reference_checksum(&cfg);
        Gauss { cfg, reference }
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let (cfg, p) = (&self.cfg, GAUSS_PROCS);
        let t0 = Instant::now();
        let sim = SimBuilder::nodes(p).policy(PolicyKind::Platinum).build();
        let boot_s = t0.elapsed().as_secs_f64();
        let page_words = sim.machine.cfg().words_per_page();
        let mut data = sim.alloc_zone(GaussLayout::zone_pages(cfg.n, page_words));
        let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);
        let mut sync = sim.alloc_zone(1);
        let ec = EventCount::new(sync.alloc_words(1));
        sim.run(p, |tid, ctx| gauss::init_owned_rows(ctx, &lay, cfg, tid, p));
        let setup_s = t0.elapsed().as_secs_f64();

        let stats0 = sim.kernel.stats().snapshot();
        let walks0 = sim.kernel.walk_snapshot();
        if traced {
            sim.kernel.host_prof().enable();
        }
        let clock = Clock::start();
        let (outs, run) = sim.run(p, |tid, ctx| {
            if !traced {
                gauss::run_shared(ctx, &lay, cfg, &ec, tid, p);
                return None;
            }
            let start = Instant::now();
            let mut calls = Calls::default();
            let faults = |c: &UserCtx| c.counters().faults;
            gauss::run_shared(
                &mut TracedMem::new(ctx, faults, &mut calls),
                &lay,
                cfg,
                &ec,
                tid,
                p,
            );
            Some((calls, start, Instant::now()))
        });
        let (wall_s, cpu_s) = clock.stop();
        sim.kernel.host_prof().disable();

        let mut rep = Rep::new(setup_s, wall_s, cpu_s);
        let counters = run.merged_counters();
        rep.ops = counters.total_refs();
        rep.vtime_ns = run.elapsed_ns();
        let mut done: Vec<u64> = run.workers.iter().map(|w| w.vtime_ns).collect();
        rep.lat_ns = (quantile(&mut done, 0.5), quantile(&mut done, 0.999));
        rep.stats = sim.kernel.stats().snapshot().delta(&stats0);
        let (sums, _) = sim.run(1, |_, ctx| gauss::checksum(ctx, &lay));
        rep.check(sums[0] == self.reference, || {
            format!("checksum {:#x} != reference {:#x}", sums[0], self.reference)
        });

        if traced {
            let epoch = clock.wall;
            let mut calls = Calls::default();
            rep.spans.push(Span::phase("gauss.phase", wall_s));
            for (tid, out) in outs.into_iter().enumerate() {
                let (c, start, end) = out.expect("traced workers report");
                calls.merge(&c);
                let id = PHASE_ID - 1 - tid as u64;
                rep.spans
                    .push(Span::child("gauss.worker", id, epoch, start, end));
            }
            let stats = rep.stats;
            common_layers(
                &mut rep,
                counters.total_refs(),
                Some(&counters),
                &stats,
                Some(&calls),
            );
            kernel_layers(&mut rep, &sim, &walks0);
            rep.set("runtime.boot_s", boot_s);
            rep.set("runtime.wait_self_s", secs(calls.wait_self_ns));
            close_shares(&mut rep, wall_s, p as f64 * wall_s);
        }
        rep
    }
}

// ------------------------------------------------------------------- kv

const KV_PROCS: usize = 2;

pub struct Kv {
    traffic: TrafficConfig,
    schedule: Vec<Request>,
}

impl Kv {
    pub fn new(seed: u64) -> Self {
        let traffic = TrafficConfig {
            seed,
            keys: 1 << 16,
            requests_per_proc: 1 << 16,
            theta: 0.99,
            write_pct: 10,
            mean_interarrival_ns: 4_000_000,
            ..TrafficConfig::default()
        };
        let schedule = traffic.schedule(KV_PROCS);
        Kv { traffic, schedule }
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let p = KV_PROCS;
        let t0 = Instant::now();
        let mut mcfg = MachineConfig::with_nodes(p);
        mcfg.frames_per_node = 4096;
        mcfg.skew_window_ns = None;
        let sim = SimBuilder::nodes(p).machine_config(mcfg).build();
        let boot_s = t0.elapsed().as_secs_f64();
        let kcfg = KvConfig::for_keys(self.traffic.keys, 16);
        let page_words = sim.machine.cfg().words_per_page();
        let mut data = sim.alloc_zone(kcfg.table_pages(page_words));
        let mut locks = sim.alloc_zone(kcfg.lock_pages());
        let kv = KvTable::layout(kcfg, &mut data, &mut locks);
        let setup_s = t0.elapsed().as_secs_f64();

        let walks0 = sim.kernel.walk_snapshot();
        if traced {
            sim.kernel.host_prof().enable();
        }
        let clock = Clock::start();
        let probe = KvProbe::new(&kv, &sim.kernel, p, traced, clock.wall);
        let report = run_open_loop(&sim, &probe, p, &self.schedule);
        let (wall_s, cpu_s) = clock.stop();
        sim.kernel.host_prof().disable();

        let mut rep = Rep::new(setup_s, wall_s, cpu_s);
        rep.ops = report.requests;
        rep.vtime_ns = report.elapsed_ns;
        let logs = probe.into_logs();
        let mut lat: Vec<u64> = logs
            .iter()
            .flat_map(|l| l.latency.iter().copied())
            .collect();
        rep.lat_ns = (quantile(&mut lat, 0.5), quantile(&mut lat, 0.999));
        rep.stats = report.protocol;
        rep.check(report.requests == self.schedule.len() as u64, || {
            format!(
                "{} of {} requests completed",
                report.requests,
                self.schedule.len()
            )
        });
        match sim.spawn(0, |ctx| kv.verify(ctx)) {
            Ok(Ok(audit)) => rep.check(audit.occupied == self.traffic.keys, || {
                format!(
                    "audit found {} of {} keys",
                    audit.occupied, self.traffic.keys
                )
            }),
            Ok(Err(e)) => rep.check(false, || format!("audit read failed: {e}")),
            Err(e) => rep.check(false, || format!("audit could not attach: {e}")),
        }

        if traced {
            let mut calls = Calls::default();
            let mut exec = platinum_server::Histogram::new();
            let mut turns = Vec::new();
            for log in logs {
                calls.merge(&log.calls);
                exec.merge(&log.exec);
                turns.extend(log.turns);
            }
            // Turns run one at a time; the gaps between them are the
            // handoff from one runner to the next.
            turns.sort_by_key(|s| s.start_ns);
            let handoff_ns: u64 = turns
                .windows(2)
                .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns))
                .sum();
            let turn_ns: u64 = turns.iter().map(Span::ns).sum();
            // `run_open_loop` keeps its contexts, so their access counters are
            // out of reach: refs are the words the turns asked for.
            common_layers(&mut rep, calls.refs, None, &report.protocol, Some(&calls));
            kernel_layers(&mut rep, &sim, &walks0);
            rep.set("runtime.boot_s", boot_s);
            rep.set("runtime.turns", turns.len() as f64);
            rep.set("runtime.handoff_self_s", secs(handoff_ns));
            rep.set("server.requests", report.requests as f64);
            rep.set("server.retries", report.retries as f64);
            rep.set("server.retry_frac", ratio(report.retries, report.requests));
            rep.set("server.exec_ns_p50", exec.p50() as f64);
            rep.set("server.exec_ns_p999", exec.p999() as f64);
            rep.set(
                "server.self_s",
                secs(turn_ns.saturating_sub(calls.fast.sum() + calls.slow.sum())),
            );
            rep.set(
                "server.read_lat_p99_us",
                report.read_latency.p99() as f64 / 1e3,
            );
            rep.set(
                "server.write_lat_p99_us",
                report.write_latency.p99() as f64 / 1e3,
            );
            rep.spans.push(Span::phase("kv.phase", wall_s));
            rep.spans.extend(turns);
            close_shares(&mut rep, wall_s, wall_s);
        }
        rep
    }
}

// ---------------------------------------------------------- fault_heavy

const FH_PROCS: usize = 16;
const FH_WRITES: u64 = 400_000;

/// No inputs: the round-robin write pattern has no randomness, so the
/// seed changes nothing.
pub struct FaultHeavy;

impl FaultHeavy {
    pub fn rep(&self, traced: bool) -> Rep {
        let p = FH_PROCS;
        let t0 = Instant::now();
        let sim = SimBuilder::nodes(p)
            .machine_config(MachineConfig {
                nodes: p,
                frames_per_node: 256,
                skew_window_ns: None,
                ..MachineConfig::default()
            })
            .policy_box(Box::new(PlatinumPolicy {
                // Never freeze: every write stays on the full migrate path.
                t1_ns: 0,
                ..PlatinumPolicy::paper_default()
            }))
            .build();
        let boot_s = t0.elapsed().as_secs_f64();
        let object = sim.kernel.create_object(1);
        let va = sim
            .space
            .map_anywhere(object, Rights::RW)
            .expect("fresh mapping cannot conflict");
        let mut ctxs: Vec<UserCtx> = (0..p)
            .map(|i| sim.attach(i).expect("processor free"))
            .collect();
        // Only the current writer runs; the rest sit suspended so no
        // shootdown waits on an undriven context.
        for c in ctxs.iter_mut().skip(1) {
            c.suspend();
        }
        let mut lat = Vec::with_capacity(FH_WRITES as usize);
        let refs0: u64 = ctxs.iter().map(|c| c.counters().total_refs()).sum();
        let setup_s = t0.elapsed().as_secs_f64();

        let stats0 = sim.kernel.stats().snapshot();
        let walks0 = sim.kernel.walk_snapshot();
        let mut calls = Calls::default();
        let mut switch_ns = 0u64;
        if traced {
            sim.kernel.host_prof().enable();
        }
        let clock = Clock::start();
        for k in 0..FH_WRITES {
            let i = k as usize % p;
            let v0 = ctxs[i].vtime();
            if traced {
                let faults = |c: &UserCtx| c.counters().faults;
                TracedMem::new(&mut ctxs[i], faults, &mut calls).write(va, k as u32);
            } else {
                ctxs[i].write(va, k as u32);
            }
            lat.push(ctxs[i].vtime() - v0);
            if traced {
                let s = Instant::now();
                ctxs[(i + 1) % p].resume();
                ctxs[i].suspend();
                switch_ns += s.elapsed().as_nanos() as u64;
            } else {
                ctxs[(i + 1) % p].resume();
                ctxs[i].suspend();
            }
        }
        let (wall_s, cpu_s) = clock.stop();
        sim.kernel.host_prof().disable();

        let mut rep = Rep::new(setup_s, wall_s, cpu_s);
        let mut counters = AccessCounters::default();
        for c in &ctxs {
            counters.merge(&c.counters());
        }
        rep.ops = counters.total_refs() - refs0;
        rep.vtime_ns = ctxs.iter().map(|c| c.vtime()).max().unwrap_or(0);
        rep.lat_ns = (quantile(&mut lat, 0.5), quantile(&mut lat, 0.999));
        rep.stats = sim.kernel.stats().snapshot().delta(&stats0);
        let last = FH_WRITES as u32 - 1;
        let seen = ctxs[FH_WRITES as usize % p].read(va);
        rep.check(seen == last, || {
            format!("final word {seen} != last write {last}")
        });

        if traced {
            let stats = rep.stats;
            common_layers(
                &mut rep,
                counters.total_refs(),
                Some(&counters),
                &stats,
                Some(&calls),
            );
            kernel_layers(&mut rep, &sim, &walks0);
            // Suspend and resume are kernel work: resume applies the
            // mapping changes deferred while the context slept.
            let slow = rep.layers["core.slow_self_s"] + secs(switch_ns);
            rep.set("core.slow_self_s", slow);
            rep.set("runtime.boot_s", boot_s);
            rep.spans.push(Span::phase("fault_heavy.phase", wall_s));
            close_shares(&mut rep, wall_s, wall_s);
        }
        rep
    }
}

// -------------------------------------------------------- policy_replay

const REPLAY_N: usize = 256;
const REPLAY_PROCS: usize = 2;

/// Short policy names for the determinism report, and the per-policy
/// metrics, all in `PolicyKind::FIG1_SET` order.
const POLICY_NAMES: [&str; 5] = [
    "platinum",
    "migrate_only",
    "replicate_only",
    "local_first_touch",
    "remote_always",
];
const REPLAY_S: [&str; 5] = [
    "reftrace.replay_s.platinum",
    "reftrace.replay_s.migrate_only",
    "reftrace.replay_s.replicate_only",
    "reftrace.replay_s.local_first_touch",
    "reftrace.replay_s.remote_always",
];
const REPLAY_VS: [&str; 5] = [
    "reftrace.replay_vs.platinum",
    "reftrace.replay_vs.migrate_only",
    "reftrace.replay_vs.replicate_only",
    "reftrace.replay_vs.local_first_touch",
    "reftrace.replay_vs.remote_always",
];

pub struct PolicyReplay {
    cfg: GaussConfig,
    reference: u64,
}

/// Run handoffs the parallel replay makes over `trace`: one per maximal
/// run of same-processor ops, a `Detach` always ending its run.
fn replay_turns(trace: &RefTrace) -> u64 {
    trace
        .phases
        .iter()
        .map(|ph| {
            let ops = &ph.ops;
            (0..ops.len())
                .filter(|&i| {
                    i + 1 == ops.len()
                        || ops[i + 1].proc != ops[i].proc
                        || matches!(ops[i].op, Op::Detach)
                })
                .count() as u64
        })
        .sum()
}

impl PolicyReplay {
    pub fn new(seed: u64) -> Self {
        let cfg = GaussConfig {
            seed,
            ..GaussConfig::with_n(REPLAY_N)
        };
        let reference = gauss::reference_checksum(&cfg);
        PolicyReplay { cfg, reference }
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let t0 = Instant::now();
        let captured = record_gauss(REPLAY_PROCS, REPLAY_PROCS, &self.cfg, None);
        let setup_s = t0.elapsed().as_secs_f64();

        let clock = Clock::start();
        let mut outs = Vec::with_capacity(PolicyKind::FIG1_SET.len());
        let mut spans = Vec::new();
        for (i, kind) in PolicyKind::FIG1_SET.into_iter().enumerate() {
            let start = Instant::now();
            outs.push(replay_par(&captured.trace, kind));
            if traced {
                let end = Instant::now();
                let id = PHASE_ID - 1 - i as u64;
                spans.push(Span::child(
                    "reftrace.replay_par",
                    id,
                    clock.wall,
                    start,
                    end,
                ));
            }
        }
        let (wall_s, cpu_s) = clock.stop();

        let mut rep = Rep::new(setup_s, wall_s, cpu_s);
        let trace_ops = captured.trace.total_ops() as u64;
        rep.ops = trace_ops * outs.len() as u64;
        let plat = &outs[0];
        let last = plat.phases.last().expect("trace has a measured phase");
        rep.vtime_ns = plat.measured_elapsed_ns();
        let mut done: Vec<u64> = last.stats.workers.iter().map(|w| w.vtime_ns).collect();
        rep.lat_ns = (quantile(&mut done, 0.5), quantile(&mut done, 0.999));
        rep.stats = plat.kernel;
        rep.vtimes
            .push(("capture_vtime_ns", captured.live.elapsed_ns));
        for (name, out) in POLICY_NAMES.iter().zip(&outs) {
            rep.vtimes.push((name, out.measured_elapsed_ns()));
        }
        rep.check(captured.live.checksum == self.reference, || {
            format!(
                "capture checksum {:#x} != reference {:#x}",
                captured.live.checksum, self.reference
            )
        });
        let identical = last
            .stats
            .workers
            .iter()
            .zip(&captured.live.run.workers)
            .all(|(r, l)| r.vtime_ns == l.vtime_ns && r.counters == l.counters)
            && plat.kernel == captured.live.kernel_stats;
        let replay_ns = rep.vtime_ns;
        rep.check(identical, || {
            format!(
                "PLATINUM replay diverged from its capture ({replay_ns} vs {} ns)",
                captured.live.elapsed_ns
            )
        });

        if traced {
            let mut counters = AccessCounters::default();
            let mut stats = StatsSnapshot::default();
            for out in &outs {
                for ph in &out.phases {
                    counters.merge(&ph.stats.merged_counters());
                }
                stats = add_stats(&stats, &out.kernel);
            }
            common_layers(
                &mut rep,
                counters.total_refs(),
                Some(&counters),
                &stats,
                None,
            );
            rep.set("reftrace.capture_s", setup_s);
            rep.set("reftrace.ops", rep.ops as f64);
            rep.set(
                "runtime.turns",
                (replay_turns(&captured.trace) * outs.len() as u64) as f64,
            );
            let mut replay_s = 0.0;
            for (i, (out, span)) in outs.iter().zip(&spans).enumerate() {
                replay_s += secs(span.ns());
                rep.set(REPLAY_S[i], secs(span.ns()));
                rep.set(REPLAY_VS[i], secs(out.measured_elapsed_ns()));
            }
            rep.set("reftrace.self_s", replay_s);
            rep.spans.push(Span::phase("policy_replay.phase", wall_s));
            rep.spans.extend(spans);
            close_shares(&mut rep, wall_s, wall_s);
        }
        rep
    }
}

fn add_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    let mut out = *a;
    for (o, (_, v)) in stats_fields_mut(&mut out).into_iter().zip(stats_fields(b)) {
        *o += v;
    }
    out
}

macro_rules! stats_fields {
    ($s:expr, $($f:ident),*) => { [$((stringify!($f), $s.$f)),*] };
}
macro_rules! stats_fields_mut {
    ($s:expr, $($f:ident),*) => { [$(&mut $s.$f),*] };
}

/// Every `StatsSnapshot` counter by name.
pub fn stats_fields(s: &StatsSnapshot) -> [(&'static str, u64); 23] {
    stats_fields!(
        s,
        faults,
        vm_faults,
        replications,
        migrations,
        remote_maps,
        freezes,
        thaws,
        invalidations,
        shootdowns,
        ipis_sent,
        frames_freed,
        defrost_runs,
        reclaims,
        mem_errors,
        shootdown_timeouts,
        transfer_faults,
        alloc_faults,
        fault_recoveries,
        server_requests,
        pt_walks,
        pt_populates,
        pt_invals,
        pt_inval_drops
    )
}

fn stats_fields_mut(s: &mut StatsSnapshot) -> [&mut u64; 23] {
    stats_fields_mut!(
        s,
        faults,
        vm_faults,
        replications,
        migrations,
        remote_maps,
        freezes,
        thaws,
        invalidations,
        shootdowns,
        ipis_sent,
        frames_freed,
        defrost_runs,
        reclaims,
        mem_errors,
        shootdown_timeouts,
        transfer_faults,
        alloc_faults,
        fault_recoveries,
        server_requests,
        pt_walks,
        pt_populates,
        pt_invals,
        pt_inval_drops
    )
}

//! The traced run's instruments, all outside the program: a [`Mem`]
//! wrapper that times every memory call and sorts it into the machine
//! fast path or the kernel slow path, a [`Workload`] wrapper that records
//! each KV request's virtual latency and, traced, spans each KV turn, and
//! the span records written out at exit.
//!
//! Per-call timings go into histograms, never into spans: gauss alone
//! makes about a million block calls per run.

use std::sync::Mutex;
use std::time::Instant;

use numa_machine::{Mem, Va};
use platinum::trace::EventKind;
use platinum::Kernel;
use platinum_server::{Histogram, Request, ServerMem, Workload};

/// Host-time tally of the memory calls made through one [`TracedMem`].
#[derive(Clone, Debug, Default)]
pub struct Calls {
    /// Host ns of each call that took no fault (machine fast path).
    pub fast: Histogram,
    /// Host ns of each call that faulted (kernel slow path).
    pub slow: Histogram,
    /// Host ns inside synchronization waits (`begin_wait`..`end_wait`),
    /// less the memory calls made while waiting.
    pub wait_self_ns: u64,
    /// Words the calls asked to reference (spin reads are uncharged and
    /// not counted).
    pub refs: u64,
}

impl Calls {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &Calls) {
        self.fast.merge(&other.fast);
        self.slow.merge(&other.slow);
        self.wait_self_ns += other.wait_self_ns;
        self.refs += other.refs;
    }

    fn call_ns(&self) -> u64 {
        self.fast.sum() + self.slow.sum()
    }
}

/// Span id of a rep's measured phase, the root of its spans. Children
/// other than requests count down from it; request spans use
/// `Request::serial`, so ids from 0 up are taken.
pub const PHASE_ID: u64 = u64::MAX;

/// One recorded span: host nanoseconds since the measured phase began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The measured phase itself, `wall_s` long.
    pub fn phase(name: &'static str, wall_s: f64) -> Self {
        Span {
            name,
            id: PHASE_ID,
            parent: None,
            start_ns: 0,
            end_ns: (wall_s * 1e9) as u64,
        }
    }

    /// A child of the measured phase, which began at `epoch`.
    pub fn child(
        name: &'static str,
        id: u64,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Self {
        Span {
            name,
            id,
            parent: Some(PHASE_ID),
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
        }
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times every memory call of the wrapped context. `faults` reads a
/// fault counter that moves exactly when the wrapped context faults, so
/// a call is fast when the counter reads the same after it as before
/// it. The wrapper must see every access the context makes while it
/// lives: it reads the counter once per call, after the call.
pub struct TracedMem<'a, M, F> {
    inner: &'a mut M,
    faults: F,
    last_faults: u64,
    calls: &'a mut Calls,
    wait_start: Option<(Instant, u64)>,
}

impl<'a, M: Mem, F: Fn(&M) -> u64> TracedMem<'a, M, F> {
    pub fn new(inner: &'a mut M, faults: F, calls: &'a mut Calls) -> Self {
        TracedMem {
            last_faults: faults(inner),
            inner,
            faults,
            calls,
            wait_start: None,
        }
    }

    #[inline]
    fn timed<T>(&mut self, refs: usize, op: impl FnOnce(&mut M) -> T) -> T {
        self.calls.refs += refs as u64;
        let t0 = Instant::now();
        let out = op(self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let faults = (self.faults)(self.inner);
        if faults == self.last_faults {
            self.calls.fast.record(ns);
        } else {
            self.calls.slow.record(ns);
            self.last_faults = faults;
        }
        out
    }
}

impl<M: Mem, F: Fn(&M) -> u64> Mem for TracedMem<'_, M, F> {
    fn proc_id(&self) -> usize {
        self.inner.proc_id()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn vtime(&self) -> u64 {
        self.inner.vtime()
    }
    fn advance_to(&mut self, t: u64) {
        self.inner.advance_to(t)
    }
    fn set_vtime(&mut self, t: u64) {
        self.inner.set_vtime(t)
    }
    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns)
    }
    fn read(&mut self, va: Va) -> u32 {
        self.timed(1, |m| m.read(va))
    }
    fn write(&mut self, va: Va, val: u32) {
        self.timed(1, |m| m.write(va, val))
    }
    fn read_spin(&mut self, va: Va) -> u32 {
        self.timed(0, |m| m.read_spin(va))
    }
    fn fetch_add(&mut self, va: Va, delta: u32) -> u32 {
        self.timed(1, |m| m.fetch_add(va, delta))
    }
    fn compare_exchange(&mut self, va: Va, current: u32, new: u32) -> Result<u32, u32> {
        self.timed(1, |m| m.compare_exchange(va, current, new))
    }
    fn swap(&mut self, va: Va, val: u32) -> u32 {
        self.timed(1, |m| m.swap(va, val))
    }
    fn poll(&mut self) {
        self.timed(0, |m| m.poll())
    }
    fn begin_wait(&mut self) {
        self.inner.begin_wait();
        self.wait_start = Some((Instant::now(), self.calls.call_ns()));
    }
    fn end_wait(&mut self) {
        if let Some((t0, calls_at_start)) = self.wait_start.take() {
            let span = t0.elapsed().as_nanos() as u64;
            let inner_calls = self.calls.call_ns() - calls_at_start;
            self.calls.wait_self_ns += span.saturating_sub(inner_calls);
        }
        self.inner.end_wait();
    }
    fn trace_lock(&mut self, va: Va, acquire: bool) {
        self.inner.trace_lock(va, acquire)
    }
    fn read_block(&mut self, va: Va, dst: &mut [u32]) {
        self.timed(dst.len(), |m| m.read_block(va, dst))
    }
    fn write_block(&mut self, va: Va, src: &[u32]) {
        self.timed(src.len(), |m| m.write_block(va, src))
    }
}

impl<M: ServerMem, F: Fn(&M) -> u64> ServerMem for TracedMem<'_, M, F> {
    fn try_load(&mut self, va: Va) -> platinum::Result<u32> {
        self.timed(1, |m| m.try_load(va))
    }
    fn try_store(&mut self, va: Va, val: u32) -> platinum::Result<()> {
        self.timed(1, |m| m.try_store(va, val))
    }
}

/// One `run_open_loop` worker's share of a KV run.
#[derive(Default)]
pub struct TurnLog {
    /// Virtual latency of each request: completion minus arrival.
    pub latency: Vec<u64>,
    pub calls: Calls,
    /// Host ns per `Workload::execute` call.
    pub exec: Histogram,
    /// Populate and request turns, in the order this worker ran them.
    pub turns: Vec<Span>,
}

/// Wraps the KV workload to record each request's exact virtual
/// latency (`run_open_loop`'s own histogram rounds to 12.5% buckets) and,
/// when `traced`, to span each populate and request turn and time the
/// memory calls inside it.
///
/// `run_open_loop` runs one turn at a time, so the kernel-wide
/// fault count moves during a turn only if that turn faulted: it stands
/// in for the per-context counters the generic `ServerMem` hides.
pub struct KvProbe<'a, W> {
    inner: &'a W,
    kernel: &'a Kernel,
    traced: bool,
    epoch: Instant,
    logs: Vec<Mutex<TurnLog>>,
}

impl<'a, W: Workload> KvProbe<'a, W> {
    pub fn new(
        inner: &'a W,
        kernel: &'a Kernel,
        procs: usize,
        traced: bool,
        epoch: Instant,
    ) -> Self {
        KvProbe {
            inner,
            kernel,
            traced,
            epoch,
            logs: (0..procs).map(|_| Mutex::new(TurnLog::default())).collect(),
        }
    }

    pub fn into_logs(self) -> Vec<TurnLog> {
        self.logs
            .into_iter()
            .map(|l| l.into_inner().expect("no worker panicked holding its log"))
            .collect()
    }

    fn log<M: ServerMem>(&self, m: &M) -> std::sync::MutexGuard<'_, TurnLog> {
        self.logs[m.proc_id()]
            .lock()
            .expect("no worker panicked holding its log")
    }

    fn traced_turn<M: ServerMem, T>(
        &self,
        m: &mut M,
        log: &mut TurnLog,
        name: &'static str,
        id: u64,
        op: impl FnOnce(&mut TracedMem<'_, M, &dyn Fn(&M) -> u64>) -> T,
    ) -> T {
        let faults: &dyn Fn(&M) -> u64 = &|_| self.kernel.stats().count(EventKind::FaultBegin);
        let start = Instant::now();
        let out = op(&mut TracedMem::new(m, faults, &mut log.calls));
        let span = Span::child(name, id, self.epoch, start, Instant::now());
        if name == "kv.request" {
            log.exec.record(span.ns());
        }
        log.turns.push(span);
        out
    }
}

impl<W: Workload> Workload for KvProbe<'_, W> {
    fn populate<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()> {
        if !self.traced {
            return self.inner.populate(m, worker, workers);
        }
        let mut log = self.log(m);
        self.traced_turn(m, &mut log, "kv.populate", worker as u64, |tm| {
            self.inner.populate(tm, worker, workers)
        })
    }

    fn execute<M: ServerMem>(&self, m: &mut M, req: &Request) -> platinum::Result<()> {
        let mut log = self.log(m);
        let out = if self.traced {
            self.traced_turn(m, &mut log, "kv.request", req.serial, |tm| {
                self.inner.execute(tm, req)
            })
        } else {
            self.inner.execute(m, req)
        };
        if out.is_ok() {
            log.latency.push(m.vtime() - req.arrival_ns);
        }
        out
    }

    fn class(&self, req: &Request) -> u8 {
        self.inner.class(req)
    }

    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn shard_of(&self, key: u64) -> usize {
        self.inner.shard_of(key)
    }
}

/// Writes spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

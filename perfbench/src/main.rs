//! End-to-end and per-layer benchmark of the PLATINUM reproduction.
//!
//! ```text
//! perfbench --workload gauss|kv|fault_heavy|policy_replay
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench report [--seed N] [--seconds S]
//! ```
//!
//! A run repeats the workload (set-up, measured phase, verification)
//! until `--seconds` are spent and prints the medians over its reps. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! alternates untraced and traced reps, so its tracing overhead is
//! measured in the same minute as the traced numbers. `report` runs
//! every workload traced and prints, for each, the end-to-end metrics
//! of its untraced reps, the determinism line and the per-layer tables.

mod spans;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{stats_fields, FaultHeavy, Gauss, Kv, PolicyReplay, Rep};

/// The seed a run uses unless told otherwise, and the second seed
/// claims are confirmed on.
const DEFAULT_SEED: u64 = 1;
const CONFIRM_SEED: u64 = 2;

const WORKLOADS: [&str; 4] = ["gauss", "kv", "fault_heavy", "policy_replay"];

/// End-to-end metrics (`--trace 0`), with units. Virtual (simulated)
/// times carry `virt_` units: they are what the modelled machine would
/// take, not host time.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("vtime_s", "virt_s"),
    ("lat_p50_us", "virt_us"),
    ("lat_p999_us", "virt_us"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric a workload has
/// no use for reads 0.
const PER_LAYER: [(&str, &str); 70] = [
    ("machine.refs", "count"),
    ("machine.remote_refs", "count"),
    ("machine.remote_frac", "frac"),
    ("machine.atc_hits", "count"),
    ("machine.atc_misses", "count"),
    ("machine.atc_hit_frac", "frac"),
    ("machine.queue_delay_vs", "virt_s"),
    ("machine.block_words", "count"),
    ("machine.fast_calls", "count"),
    ("machine.fast_call_ns_p50", "ns"),
    ("machine.fast_call_ns_p99", "ns"),
    ("machine.fast_self_s", "s"),
    ("core.faults", "count"),
    ("core.replications", "count"),
    ("core.migrations", "count"),
    ("core.remote_maps", "count"),
    ("core.freezes", "count"),
    ("core.thaws", "count"),
    ("core.invalidations", "count"),
    ("core.shootdowns", "count"),
    ("core.ipis_sent", "count"),
    ("core.defrost_runs", "count"),
    ("core.reclaims", "count"),
    ("core.slow_calls", "count"),
    ("core.slow_call_ns_p50", "ns"),
    ("core.slow_call_ns_p99", "ns"),
    ("core.slow_self_s", "s"),
    ("core.prof.fault_s", "s"),
    ("core.prof.shootdown_s", "s"),
    ("core.prof.transfer_s", "s"),
    ("core.prof.directory_s", "s"),
    ("core.prof.walk_s", "s"),
    ("core.ipis_per_shootdown", "ratio"),
    ("core.refs_per_fault", "ratio"),
    ("ptable.walks", "count"),
    ("ptable.walk_vs", "virt_s"),
    ("ptable.walk_local_vs", "virt_s"),
    ("ptable.walk_local_frac", "frac"),
    ("runtime.boot_s", "s"),
    ("runtime.turns", "count"),
    ("runtime.handoff_self_s", "s"),
    ("runtime.wait_self_s", "s"),
    ("server.requests", "count"),
    ("server.retries", "count"),
    ("server.retry_frac", "frac"),
    ("server.exec_ns_p50", "ns"),
    ("server.exec_ns_p999", "ns"),
    ("server.self_s", "s"),
    ("server.read_lat_p99_us", "virt_us"),
    ("server.write_lat_p99_us", "virt_us"),
    ("reftrace.capture_s", "s"),
    ("reftrace.ops", "count"),
    ("reftrace.self_s", "s"),
    ("reftrace.replay_s.platinum", "s"),
    ("reftrace.replay_s.migrate_only", "s"),
    ("reftrace.replay_s.replicate_only", "s"),
    ("reftrace.replay_s.local_first_touch", "s"),
    ("reftrace.replay_s.remote_always", "s"),
    ("reftrace.replay_vs.platinum", "virt_s"),
    ("reftrace.replay_vs.migrate_only", "virt_s"),
    ("reftrace.replay_vs.replicate_only", "virt_s"),
    ("reftrace.replay_vs.local_first_touch", "virt_s"),
    ("reftrace.replay_vs.remote_always", "virt_s"),
    ("other.self_s", "s"),
    ("phase.wall_s", "s"),
    ("phase.basis_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.diverged_fields", "count"),
];

enum Bench {
    Gauss(Gauss),
    Kv(Kv),
    FaultHeavy(FaultHeavy),
    PolicyReplay(PolicyReplay),
}

impl Bench {
    /// Makes the workload's inputs from `seed` (not timed).
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "gauss" => Bench::Gauss(Gauss::new(seed)),
            "kv" => Bench::Kv(Kv::new(seed)),
            "fault_heavy" => Bench::FaultHeavy(FaultHeavy),
            "policy_replay" => Bench::PolicyReplay(PolicyReplay::new(seed)),
            _ => return None,
        })
    }

    fn rep(&self, traced: bool) -> Rep {
        match self {
            Bench::Gauss(w) => w.rep(traced),
            Bench::Kv(w) => w.rep(traced),
            Bench::FaultHeavy(w) => w.rep(traced),
            Bench::PolicyReplay(w) => w.rep(traced),
        }
    }
}

struct Args {
    report: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        report: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "report" {
            args.report = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    if !args.report && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Every rep of one run.
struct Outcome {
    workload: String,
    seed: u64,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// Reps that panicked before they could report.
    panicked: u64,
    /// Peak resident memory once the first rep finished, MiB.
    first_rep_rss_mb: f64,
}

impl Outcome {
    /// Every rep, untraced ones first, each with whether it was traced.
    fn tagged_reps(&self) -> impl Iterator<Item = (&Rep, bool)> {
        let untraced = self.untraced.iter().map(|r| (r, false));
        untraced.chain(self.traced.iter().map(|r| (r, true)))
    }

    fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.tagged_reps().map(|(r, _)| r)
    }

    /// Operations attempted and failed. A rep that failed verification
    /// fails every one of its operations; a rep that panicked counts
    /// the operations of a typical rep.
    fn attempted_failed(&self) -> (u64, u64) {
        let typical = median(self.reps().map(|r| r.ops as f64).collect()).max(1.0) as u64;
        let mut attempted = self.panicked * typical;
        let mut failed = attempted;
        for r in self.reps() {
            attempted += r.ops;
            if r.failure.is_some() {
                failed += r.ops;
            }
        }
        (attempted.max(1), failed)
    }
}

/// Repeats reps of `name` until `seconds` are spent: at least three
/// untraced reps, or with `trace` at least two of each kind, alternating.
fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let bench = Bench::new(name, seed)?;
    let mut out = Outcome {
        workload: name.to_string(),
        seed,
        untraced: Vec::new(),
        traced: Vec::new(),
        panicked: 0,
        first_rep_rss_mb: 0.0,
    };
    let min_reps = if trace { 4 } else { 3 };
    let start = Instant::now();
    for i in 1.. {
        let traced = trace && i % 2 == 0;
        match catch_unwind(AssertUnwindSafe(|| bench.rep(traced))) {
            Ok(rep) if traced => out.traced.push(rep),
            Ok(rep) => out.untraced.push(rep),
            Err(_) => out.panicked += 1,
        }
        if i == 1 {
            out.first_rep_rss_mb = sys::peak_rss_mb();
        }
        let spent = start.elapsed().as_secs_f64();
        if i >= min_reps && spent + spent / i as f64 > seconds {
            break;
        }
    }
    Some(out)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ops_per_s(r: &Rep) -> f64 {
    r.ops as f64 / r.wall_s
}

fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let reps = &o.untraced;
    let med = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    let (attempted, failed) = o.attempted_failed();
    BTreeMap::from([
        ("setup_s", med(&|r| r.setup_s)),
        ("ops_per_s", med(&ops_per_s)),
        ("cpu_s", med(&|r| r.cpu_s)),
        ("vtime_s", med(&|r| r.vtime_ns as f64 * 1e-9)),
        ("lat_p50_us", med(&|r| r.lat_ns.0 as f64 * 1e-3)),
        ("lat_p999_us", med(&|r| r.lat_ns.1 as f64 * 1e-3)),
        ("peak_rss_mb", o.first_rep_rss_mb),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64),
    ])
}

/// The traced rep with the median throughput: its metrics are reported
/// together, so its self times still sum to its phase.
fn median_traced(o: &Outcome) -> Option<&Rep> {
    let mut by_speed: Vec<&Rep> = o.traced.iter().collect();
    by_speed.sort_by(|a, b| ops_per_s(a).total_cmp(&ops_per_s(b)));
    by_speed.get(by_speed.len().saturating_sub(1) / 2).copied()
}

/// The vtime and every kernel counter of a rep, by name.
fn fingerprint(r: &Rep) -> Vec<(&'static str, u64)> {
    let mut f = vec![("vtime_ns", r.vtime_ns)];
    f.extend(stats_fields(&r.stats));
    f.extend(r.vtimes.iter().copied());
    f
}

fn per_layer(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    if let Some(rep) = median_traced(o) {
        m.extend(rep.layers.iter().map(|(&k, &v)| (k, v)));
    }
    let untraced = median(o.untraced.iter().map(ops_per_s).collect());
    let traced = median(o.traced.iter().map(ops_per_s).collect());
    m.insert("trace.untraced_ops_per_s", untraced);
    m.insert("trace.traced_ops_per_s", traced);
    if traced > 0.0 {
        m.insert("trace.overhead_frac", untraced / traced - 1.0);
    }
    if let (Some(a), Some(b)) = (o.untraced.first(), o.traced.first()) {
        let diverged = fingerprint(a)
            .iter()
            .zip(fingerprint(b))
            .filter(|(x, y)| x.1 != y.1)
            .count();
        m.insert("trace.diverged_fields", diverged as f64);
    }
    m
}

fn print_reps(o: &Outcome) {
    println!(
        "{} seed {}: {} untraced + {} traced reps, {} panicked",
        o.workload,
        o.seed,
        o.untraced.len(),
        o.traced.len(),
        o.panicked
    );
    println!(
        "  {:>4} {:>6} {:>9} {:>8} {:>8} {:>12} {:>14}  verified",
        "rep", "traced", "setup_s", "wall_s", "cpu_s", "ops", "vtime_ns"
    );
    for (i, (r, traced)) in o.tagged_reps().enumerate() {
        println!(
            "  {:>4} {:>6} {:>9.4} {:>8.4} {:>8.4} {:>12} {:>14}  {}",
            i,
            traced,
            r.setup_s,
            r.wall_s,
            r.cpu_s,
            r.ops,
            r.vtime_ns,
            r.failure.as_deref().unwrap_or("ok")
        );
    }
}

/// The end-to-end metrics by name and unit, from the untraced reps, and
/// the verification outcome.
fn print_end_to_end(o: &Outcome) {
    let m = end_to_end(o);
    println!(
        "end-to-end: {} seed {} (median of {} untraced reps)",
        o.workload,
        o.seed,
        o.untraced.len()
    );
    for (name, unit) in END_TO_END {
        println!("  {name:<12} {:>18.6} {unit}", m[name]);
    }
    let (attempted, failed) = o.attempted_failed();
    println!(
        "  verification: {failed} of {attempted} operations failed (fail_frac {})",
        failed as f64 / attempted as f64
    );
}

/// Names every field that differs between reps of this (same-seed) run.
fn print_determinism(o: &Outcome) {
    let prints: Vec<_> = o.reps().map(fingerprint).collect();
    let Some(first) = prints.first() else {
        return;
    };
    let mut differing = Vec::new();
    for (i, &(name, _)) in first.iter().enumerate() {
        let vals = prints.iter().map(|p| p[i].1);
        let (lo, hi) = vals.fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        if lo != hi {
            differing.push(format!("{name} {lo}..{hi}"));
        }
    }
    if differing.is_empty() {
        println!(
            "determinism: all {} recorded fields (vtime, kernel counters) identical over {} reps",
            first.len(),
            prints.len()
        );
    } else {
        println!(
            "determinism: differs over {} reps of seed {}: {}",
            prints.len(),
            o.seed,
            differing.join(", ")
        );
    }
}

/// The per-layer table: self time per layer with `other` closing the
/// phase, each ratio with its base, and the tracing overhead.
fn print_layer_report(o: &Outcome) {
    let m = per_layer(o);
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let basis = g("phase.basis_s");
    println!(
        "per-layer report: {} seed {} (median of {} traced reps)",
        o.workload,
        o.seed,
        o.traced.len()
    );
    let what = if basis > g("phase.wall_s") {
        "worker-thread seconds: workers x wall"
    } else {
        "wall seconds: the phase runs one turn at a time"
    };
    println!("  self time, shares of {what}");
    for (layer, key) in [
        ("machine  fast-path memory calls", "machine.fast_self_s"),
        ("core     faulted memory calls", "core.slow_self_s"),
        ("runtime  turn handoffs", "runtime.handoff_self_s"),
        ("runtime  synchronization waits", "runtime.wait_self_s"),
        ("server   request code outside calls", "server.self_s"),
        ("reftrace replay_par calls", "reftrace.self_s"),
        ("other    untimed remainder", "other.self_s"),
    ] {
        let v = g(key);
        let share = if basis > 0.0 { 100.0 * v / basis } else { 0.0 };
        println!("    {layer:<40} {v:>10.4} s {share:>6.1}%");
    }
    println!("    {:<40} {basis:>10.4} s  100.0%", "phase basis");
    println!("  ratios (value = numerator / base):");
    let lookups = g("machine.atc_hits") + g("machine.atc_misses");
    for (name, num, den, base) in [
        (
            "machine.remote_frac",
            "machine.remote_refs",
            "machine.refs",
            g("machine.refs"),
        ),
        (
            "machine.atc_hit_frac",
            "machine.atc_hits",
            "atc lookups",
            lookups,
        ),
        (
            "core.refs_per_fault",
            "machine.refs",
            "core.faults",
            g("core.faults"),
        ),
        (
            "core.ipis_per_shootdown",
            "core.ipis_sent",
            "core.shootdowns",
            g("core.shootdowns"),
        ),
        (
            "server.retry_frac",
            "server.retries",
            "server.requests",
            g("server.requests"),
        ),
        (
            "ptable.walk_local_frac",
            "ptable.walk_local_vs",
            "ptable.walk_vs",
            g("ptable.walk_vs"),
        ),
    ] {
        println!(
            "    {name:<26} {:>12.6} = {} {} / {den} {}",
            g(name),
            num,
            g(num),
            base
        );
    }
    if g("reftrace.self_s") > 0.0 {
        let per: Vec<String> = PER_LAYER
            .iter()
            .filter_map(|&(k, _)| k.strip_prefix("reftrace.replay_s."))
            .map(|p| {
                let (host, virt) = (
                    g(&format!("reftrace.replay_s.{p}")),
                    g(&format!("reftrace.replay_vs.{p}")),
                );
                format!("{p} {host:.4} s ({virt:.3} virt_s)")
            })
            .collect();
        println!("  replay_par per policy: {}", per.join(", "));
    }
    println!(
        "  host profiler, inclusive and nested (never sum): fault {:.4} s, shootdown {:.4} s, \
         transfer {:.4} s, directory {:.4} s, walk {:.4} s",
        g("core.prof.fault_s"),
        g("core.prof.shootdown_s"),
        g("core.prof.transfer_s"),
        g("core.prof.directory_s"),
        g("core.prof.walk_s")
    );
    println!(
        "  tracing overhead {:.4} = untraced {:.1} ops/s / traced {:.1} ops/s - 1; \
         {} vtime/counter fields differ between the first traced and untraced rep",
        g("trace.overhead_frac"),
        g("trace.untraced_ops_per_s"),
        g("trace.traced_ops_per_s"),
        g("trace.diverged_fields")
    );
}

fn write_spans(o: &Outcome) {
    let Some(rep) = median_traced(o) else {
        return;
    };
    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", o.workload, o.seed));
    match spans::write_spans(&path, &rep.spans) {
        Ok(()) => println!("spans of the median traced rep: {}", path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

/// Records every rep's host times, vtime and kernel counters, one JSON
/// object per line, for the determinism report's raw data.
fn write_reps(o: &Outcome, trace: bool) {
    use std::fmt::Write;
    let mut text = String::new();
    for (r, traced) in o.tagged_reps() {
        let fields: Vec<String> = fingerprint(r)
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(
            text,
            "{{\"traced\":{traced},\"setup_s\":{:?},\"wall_s\":{:?},\"cpu_s\":{:?},\"ops\":{},\"verified\":{},{}}}",
            r.setup_s,
            r.wall_s,
            r.cpu_s,
            r.ops,
            r.failure.is_none(),
            fields.join(",")
        );
    }
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!(
        "reps-{}-seed{}-trace{}.jsonl",
        o.workload, o.seed, trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("writing {}: {e}", path.display());
    }
}

fn result_json(
    o: &Outcome,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let (attempted, failed) = o.attempted_failed();
    let body: Vec<String> = units
        .iter()
        .map(|&(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.report {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        let mut all_verified = true;
        for name in names {
            let Some(o) = run(name, args.seed, args.seconds, true) else {
                eprintln!("perfbench: unknown workload {name}");
                return ExitCode::from(2);
            };
            print_end_to_end(&o);
            print_determinism(&o);
            print_layer_report(&o);
            all_verified &= o.attempted_failed().1 == 0;
        }
        return if all_verified {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let name = args.workload.as_deref().expect("checked by parse_args");
    let Some(o) = run(name, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "perfbench: unknown workload {name} (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    print_reps(&o);
    print_determinism(&o);
    write_reps(&o, args.trace);
    for r in o.reps() {
        if let Some(f) = &r.failure {
            eprintln!("perfbench: {name}: verification failed: {f}");
        }
    }
    print_end_to_end(&o);
    let line = if args.trace {
        print_layer_report(&o);
        write_spans(&o);
        result_json(&o, &per_layer(&o), &PER_LAYER)
    } else {
        println!("confirm claims on a second seed: --seed {CONFIRM_SEED}");
        result_json(&o, &end_to_end(&o), &END_TO_END)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

//! Station benchmark: the typed document station end to end and layer
//! by layer, on two workloads.
//!
//! ```text
//! stationbench --workload author|study --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload checks its outputs before it reports a number; a
//! failed check exits non-zero without a result. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from a separate traced pass,
//! plus the layer ladders) with `--trace 1`. `README.md` beside this
//! crate says why each workload exists and what each metric should
//! move.

mod broadcast;
mod docs;
mod instructor;
mod procfs;
mod registry;
mod spans;
mod stats;
mod study;

use spans::Spans;
use stats::{fast_time, median, Latency};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One instructor session per round: `author`'s whole workload, and the
/// phase the other workloads run for their storage metrics. Fixed work,
/// not a time window, so every run catches the same checkpoints.
const SESSION: instructor::Config = instructor::Config {
    lectures: 100,
    checkpoint_every: 20,
    setups: 10,
};

/// The course pre-broadcast both workloads run once per round for
/// `broadcast_s`: a semester's material to a station population.
const BROADCAST: broadcast::Config = broadcast::Config {
    stations: 10_240,
    objects: 192,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Author,
    Study,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Author => "author",
            Workload::Study => "study",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")?.as_str() {
        "author" => Workload::Author,
        "study" => Workload::Study,
        w => return Err(format!("unknown workload {w}")),
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric: value and unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("checkpoint_ms", "ms"),
    ("recovery_s", "s"),
    ("write_amp", "B/B"),
    ("space_amp", "B/B"),
    ("broadcast_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 66] = [
    ("read_tail_us", "us"),
    ("read_tail_pct", "%"),
    ("write_tail_us", "us"),
    ("write_tail_pct", "%"),
    ("core.read.busy_us", "us"),
    ("core.write.busy_us", "us"),
    ("shard.self_us", "us/op"),
    ("shard.ladder_ratio", "x"),
    ("shard.router.scatter_checks", "count"),
    ("shard.router.unique_probe_skips", "count"),
    ("shard.bloom_skip_ratio", "ratio"),
    ("shard.router.routed_selects", "count"),
    ("shard.router.scatter_batched", "count"),
    ("shard.routed_ratio", "ratio"),
    ("shard.router.retries", "count"),
    ("shard.router.single_shard_commits", "count"),
    ("shard.router.cross_shard_commits", "count"),
    ("relstore.lock.waits", "count"),
    ("relstore.lock.wait_us", "us"),
    ("relstore.lock.wait_die_aborts", "count"),
    ("relstore.txn.commits", "count"),
    ("relstore.txn.aborts", "count"),
    ("relstore.txn.retries", "count"),
    ("relstore.txn.commit_us.p50", "us"),
    ("relstore.txn.commit_us.p99", "us"),
    ("relstore.select.rows_examined", "count"),
    ("relstore.rows_examined_per_returned", "ratio"),
    ("wal.self_us", "us/op"),
    ("wal.ladder_ratio", "x"),
    ("wal.fsyncs", "count"),
    ("wal.flushes", "count"),
    ("wal.commits_per_fsync", "ratio"),
    ("wal.flush.bytes", "B"),
    ("wal.checkpoint.bytes", "B"),
    ("wal.checkpoints", "count"),
    ("wal.segments_live", "count"),
    ("wal.bytes_reclaimed", "B"),
    ("wal.recover.analysis_us", "us"),
    ("wal.recover.redo_us", "us"),
    ("wal.recover.undo_us", "us"),
    ("wal.recover.records_scanned", "count"),
    ("logstore.self_us", "us/op"),
    ("logstore.appended_bytes", "B"),
    ("logstore.disk_bytes", "B"),
    ("logstore.dead_bytes", "B"),
    ("logstore.dead_ratio", "ratio"),
    ("logstore.merges", "count"),
    ("logstore.bytes_reclaimed", "B"),
    ("blobstore.get.busy_us", "us"),
    ("blobstore.dedup_hits", "count"),
    ("blobstore.sharing_ratio", "ratio"),
    ("library.search.busy_us", "us"),
    ("library.search.results", "count"),
    ("library.checkout.busy_us", "us"),
    ("netsim.send.msgs", "count"),
    ("netsim.deliver.msgs", "count"),
    ("netsim.deliver.bytes", "B"),
    ("netsim.timer.scheduled", "count"),
    ("netsim.events_per_s", "1/s"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.ctx_switches_voluntary", "count"),
    ("proc.ctx_switches_involuntary", "count"),
    ("proc.disk_write_bytes", "B"),
    ("obs.trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// One pass over a workload.
struct Pass {
    e2e: Metrics,
    layers: BTreeMap<String, f64>,
    /// (phase, spans, wall s, threads)
    spans: Vec<(&'static str, Spans, f64, usize)>,
    attempted: u64,
    /// `ops_per_s`, the headline metric the tracing overhead compares.
    headline: f64,
}

fn session_e2e(e2e: &mut Metrics, s: &instructor::Session) {
    e2e.insert("checkpoint_ms", (fast_time(&s.checkpoint_ms), "ms"));
    e2e.insert("recovery_s", (s.recovery_s, "s"));
    e2e.insert("write_amp", (s.write_amp.get(), "B/B"));
    e2e.insert("space_amp", (s.space_amp.get(), "B/B"));
}

fn db_e2e(e2e: &mut Metrics, ops_per_s: f64, r: Latency, w: Latency) {
    println!(
        "# samples: {} reads (tail p{}), {} writes (tail p{})",
        r.n, r.tail_pct, w.n, w.tail_pct
    );
    e2e.insert("ops_per_s", (ops_per_s, "1/s"));
    e2e.insert("read_p50_us", (r.p50_us, "us"));
    e2e.insert("read_tail_us", (r.tail_us, "us"));
    e2e.insert("read_tail_pct", (r.tail_pct, "%"));
    e2e.insert("write_p50_us", (w.p50_us, "us"));
    e2e.insert("write_tail_us", (w.tail_us, "us"));
    e2e.insert("write_tail_pct", (w.tail_pct, "%"));
}

/// Rounds a run is cut into. Each round runs one instructor session, one
/// pre-broadcast and, on `study`, one slice of the students, so every
/// timing is the fast quartile over parts spread across the run
/// (`stats::fast_time`) and a stall of the shared host moves the parts
/// it covers, not the result. `author`, whose fsync-bound figures move
/// with the shared disk, runs more sessions.
fn rounds(w: Workload) -> u32 {
    match w {
        Workload::Author => 14,
        Workload::Study => 8,
    }
}

/// The students' catalog and clients.
const STUDENTS: study::Config = study::Config {
    families: 2048,
    clients: 2,
    setups: 5,
    ladder_ops: 15_000,
};

/// Run every phase of `args.workload` once.
fn pass(args: &Args, work: &Path, traced: bool) -> Result<Pass, String> {
    let run_start = Instant::now();
    let sp = Spans::new(traced, run_start);
    let seed = args.seed;
    let rounds = rounds(args.workload);
    let slice = Duration::from_secs(args.seconds) / rounds;
    let mut students = match args.workload {
        Workload::Study => Some(study::Students::new(seed, STUDENTS, sp.fork())?),
        Workload::Author => None,
    };
    let mut sessions = instructor::Sessions::new(work, seed, SESSION, sp.fork());
    let mut bcast: Option<broadcast::Phase> = None;
    // Peak resident set of each round, MB.
    let mut peaks = Vec::new();
    for round in 0..rounds {
        procfs::reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
        if let Some(st) = &mut students {
            st.run_slice(slice)?;
        }
        let b = broadcast::run(seed, BROADCAST, u64::from(round), sp.fork())?;
        match &mut bcast {
            Some(all) => all.merge(b),
            None => bcast = Some(b),
        }
        sessions.run_one()?;
        peaks.push(procfs::Proc::now().peak_rss_kib as f64 / 1024.0);
    }
    let s = sessions.finish()?;
    let b = bcast.expect("at least one round");
    let st = students.map(study::Students::finish).transpose()?;

    let mut e2e = Metrics::new();
    let mut layers = BTreeMap::new();
    let mut spans = Vec::new();
    let mut attempted =
        s.verbs + s.checkpoint_ms.len() as u64 + (b.broadcast_s.len() * BROADCAST.objects) as u64;
    session_e2e(&mut e2e, &s);
    e2e.insert("broadcast_s", (fast_time(&b.broadcast_s), "s"));
    let db_spans = match st {
        Some(st) => {
            e2e.insert("setup_s", (fast_time(&st.setup_s), "s"));
            db_e2e(&mut e2e, st.ops_per_s, st.read, st.write);
            attempted += st.ops;
            // The instructor's relstore counters would blur the students'.
            layers.extend(
                s.layers
                    .into_iter()
                    .filter(|(k, _)| !k.starts_with("relstore.")),
            );
            layers.extend(st.layers);
            spans.push(("study", st.spans, st.elapsed_s, STUDENTS.clients));
            "study"
        }
        None => {
            e2e.insert("setup_s", (fast_time(&s.setup_s), "s"));
            db_e2e(&mut e2e, s.ops_per_s, s.read, s.write);
            layers.extend(s.layers);
            "instructor"
        }
    };
    println!(
        "# simulated completion {} us, per kind {:?}",
        b.report.completion.as_micros(),
        b.report.per_kind
    );
    let headline = e2e["ops_per_s"].0;
    layers.extend(b.layers);
    spans.push(("instructor", s.spans, s.elapsed_s, 1));
    spans.push(("prebroadcast", b.spans, b.broadcast_s.iter().sum(), 1));
    e2e.insert("peak_rss_mb", (median(&peaks), "MB"));

    let busy = |phase: &str, layer: &str| {
        spans
            .iter()
            .find(|(p, ..)| *p == phase)
            .map_or(0.0, |(_, s, ..)| s.busy_us(layer))
    };
    layers.insert("core.read.busy_us".into(), busy(db_spans, "core.read"));
    layers.insert(
        "core.write.busy_us".into(),
        busy(db_spans, "core.write") + busy(db_spans, "core.resource"),
    );
    layers.insert("blobstore.get.busy_us".into(), busy("study", "blobstore"));
    layers.insert(
        "library.search.busy_us".into(),
        busy("study", "library.search"),
    );
    layers.insert(
        "library.checkout.busy_us".into(),
        busy("study", "library.checkout"),
    );
    Ok(Pass {
        e2e,
        layers,
        spans,
        attempted,
        headline,
    })
}

/// Print the per-layer table of each phase and write its spans out.
fn report_spans(p: &Pass, out: &Path, workload: &str) -> Result<(), String> {
    for (phase, spans, wall_s, threads) in &p.spans {
        let thread_ns = wall_s * 1e9 * *threads as f64;
        println!("# spans {phase}: layer count busy_ms self_ms share_of_run");
        for row in spans.layer_table() {
            println!(
                "#   {:<18} {:>9} {:>11.3} {:>11.3} {:>8.4}",
                row.layer,
                row.count,
                row.busy_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.self_ns as f64 / thread_ns
            );
        }
        let path = out.join(format!("spans-{workload}-{phase}.tsv"));
        spans
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// The result line. Only a run whose checks all passed prints one, so
/// `correct` is true and `failed` 0.
fn json(attempted: u64, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, v, unit) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

fn run(args: &Args, out: &Path, work: &Path) -> Result<String, String> {
    if !args.trace {
        let p = pass(args, &work.join("plain"), false)?;
        let metrics: Vec<_> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, p.e2e[name].0, unit))
            .collect();
        for (name, v, unit) in &metrics {
            println!("# {name} = {v} {unit}");
        }
        return json(p.attempted, &metrics);
    }
    let before = procfs::Proc::now();
    let plain = pass(args, &work.join("plain"), false)?;
    let proc = procfs::Proc::now().since(&before);
    let traced = pass(args, &work.join("traced"), true)?;
    report_spans(&traced, out, args.workload.name())?;
    // Positive: tracing lowered the throughput.
    let overhead = (plain.headline / traced.headline - 1.0) * 100.0;
    let mut layers = traced.layers;
    // The tails are per-layer metrics: a tail is a few samples, too few
    // to hold a bound between runs on a shared host. They come from the
    // untraced pass.
    for tail in [
        "read_tail_us",
        "read_tail_pct",
        "write_tail_us",
        "write_tail_pct",
    ] {
        layers.insert(tail.into(), plain.e2e[tail].0);
    }
    for (k, v) in [
        ("proc.cpu_user_s", proc.user_s),
        ("proc.cpu_sys_s", proc.sys_s),
        ("proc.ctx_switches_voluntary", proc.vol_cs as f64),
        ("proc.ctx_switches_involuntary", proc.invol_cs as f64),
        ("proc.disk_write_bytes", proc.write_bytes as f64),
        ("obs.trace_overhead_pct", overhead),
        ("error_rate", 0.0),
    ] {
        layers.insert(k.into(), v);
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    json(plain.attempted, &metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stationbench: {e}\nusage: stationbench --workload author|study --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = root.join("out");
    let work: PathBuf = out.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    println!(
        "# stationbench workload={} seed={} seconds={} trace={} cores={} git_rev={} profile={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        git_rev(root.parent().unwrap_or(root)),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("stationbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &out, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stationbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, in the same order, and nothing else is.
    #[test]
    fn metrics_match_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared: Vec<(&str, &str)> = text
            .lines()
            .filter(|l| l.contains("\"better\""))
            .map(|l| {
                let field = |key: &str| {
                    let rest = &l[l.find(key).expect(key) + key.len()..];
                    rest.split('"').nth(1).expect("a quoted value")
                };
                (field("\"name\":"), field("\"unit\":"))
            })
            .collect();
        let printed: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        assert_eq!(declared, printed);
    }
}

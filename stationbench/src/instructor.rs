//! The instructor session: one closed-loop client authoring lectures on
//! a durable, unsharded station (`WebDocDb::open_durable_logged`: a
//! segmented WAL with group commit and fsync, and a blob log).
//!
//! Each lecture is one script, its implementation with HTML and program
//! files, and media attached with `attach_implementation_resource`.
//! About one lecture in four also gets a test record, one in seven is
//! cascade-deleted a few lectures later, each lecture updates the
//! completion of one earlier script, and an administrator checkpoint
//! runs every K lectures. The session ends by dropping the station,
//! reopening it from disk with no final checkpoint, and reading every
//! live lecture back from the reopened station.
//!
//! The verb tape is a pure function of the seed, so the same tape is
//! replayed on an in-memory station: that replay is the correctness
//! oracle (the recovered dump must equal it, row ids included) and the
//! lower rung of the durable-vs-memory layer ladder.

use crate::docs::{self, mix};
use crate::registry::value;
use crate::spans::Spans;
use crate::stats::{fast_rate, fast_time, latency, Latency, Ratio};
use blobstore::{BlobId, MediaKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wdoc_core::ids::{ScriptName, StartUrl};
use wdoc_core::WebDocDb;
use wdoc_workload::media::{payload, sample_size};

/// Media sizes are the kinds' typical sizes divided by this, so a run
/// stores megabytes, not gigabytes, with the same size ratios.
const MEDIA_SCALE: u64 = 64;
/// Bytes of each lecture's applet.
const PROGRAM_BYTES: u64 = 4096;
/// Completion updates per lecture, each on a random earlier script.
const COMPLETIONS: usize = 1;

/// Size of one instructor session.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Lectures authored.
    pub lectures: usize,
    /// An administrator checkpoint runs after every this many lectures.
    pub checkpoint_every: usize,
    /// Fresh stations opened to time set-up; the last one is used.
    pub setups: usize,
}

#[derive(Debug, Clone, Copy)]
struct Media {
    kind: MediaKind,
    seed: u64,
    size: u64,
}

impl Media {
    fn bytes(&self) -> bytes::Bytes {
        payload(self.seed, self.size)
    }
}

#[derive(Debug, Default)]
struct Lecture {
    pages: usize,
    program: bool,
    test: bool,
    media: Vec<Media>,
    removed: bool,
}

#[derive(Debug, Clone, Copy)]
enum Verb {
    AddScript(usize),
    AddImplementation(usize),
    Attach(usize, usize),
    AddTestRecord(usize),
    Complete(usize, i64),
    Remove(usize),
    Checkpoint,
}

/// The generated verb tape of one session.
struct Tape {
    seed: u64,
    lectures: Vec<Lecture>,
    verbs: Vec<Verb>,
}

fn name(i: usize) -> String {
    format!("lecture-{i:05}")
}

fn url(i: usize) -> String {
    format!("http://station/{}/start.html", name(i))
}

impl Tape {
    fn generate(seed: u64, cfg: Config) -> Tape {
        let mut rng = StdRng::seed_from_u64(mix(&[seed, 0xA0]));
        // Page and applet counts cycle and removals are every seventh
        // lecture, so the store's row bytes, which set checkpoint and
        // recovery cost, do not vary from seed to seed.
        let mut lectures: Vec<Lecture> = (0..cfg.lectures)
            .map(|i| Lecture {
                pages: 1 + i % 3,
                program: i % 3 == 0,
                test: rng.gen_range(0..4) == 0,
                media: Vec::with_capacity(3),
                removed: i % 7 == 3,
            })
            .collect();
        let attaches: Vec<usize> = (0..cfg.lectures).map(|_| rng.gen_range(1..=3)).collect();
        let mut deck = docs::courseware_deck(&mut rng, attaches.iter().sum()).into_iter();
        let mut verbs = Vec::new();
        let mut completable: Vec<usize> = Vec::new();
        let mut removals: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut shared: Vec<Media> = Vec::new();
        for i in 0..cfg.lectures {
            verbs.push(Verb::AddScript(i));
            verbs.push(Verb::AddImplementation(i));
            for a in 0..attaches[i] {
                let kind = deck.next().expect("one card per attachment");
                // One attachment in five reuses earlier media (a course
                // logo, a shared clip), which the blob store
                // deduplicates; an implementation holds a blob once.
                let reuse = if !shared.is_empty() && rng.gen_range(0..5) == 0 {
                    Some(shared[rng.gen_range(0..shared.len())])
                        .filter(|m| lectures[i].media.iter().all(|h| h.seed != m.seed))
                } else {
                    None
                };
                let m = reuse.unwrap_or_else(|| {
                    let m = Media {
                        kind,
                        seed: mix(&[seed, i as u64, a as u64, 0xB1]),
                        size: sample_size(&mut rng, kind, MEDIA_SCALE),
                    };
                    shared.push(m);
                    m
                });
                lectures[i].media.push(m);
                verbs.push(Verb::Attach(i, lectures[i].media.len() - 1));
            }
            if lectures[i].test {
                verbs.push(Verb::AddTestRecord(i));
            }
            if !completable.is_empty() {
                for _ in 0..COMPLETIONS {
                    let j = completable[rng.gen_range(0..completable.len())];
                    verbs.push(Verb::Complete(j, rng.gen_range(0..=100)));
                }
            }
            if lectures[i].removed {
                removals
                    .entry(i + rng.gen_range(1..=8))
                    .or_default()
                    .push(i);
            } else {
                completable.push(i);
            }
            for j in removals.remove(&i).unwrap_or_default() {
                verbs.push(Verb::Remove(j));
            }
            if (i + 1) % cfg.checkpoint_every == 0 {
                verbs.push(Verb::Checkpoint);
            }
        }
        for j in removals.into_values().flatten() {
            verbs.push(Verb::Remove(j));
        }
        Tape {
            seed,
            lectures,
            verbs,
        }
    }

    fn page(&self, i: usize, j: usize) -> bytes::Bytes {
        payload(
            mix(&[self.seed, i as u64, j as u64, 0xC2]),
            1024 + mix(&[self.seed, i as u64, j as u64]) % 2048,
        )
    }

    fn program(&self, i: usize) -> bytes::Bytes {
        payload(mix(&[self.seed, i as u64, 0xD3]), PROGRAM_BYTES)
    }

    /// Page and applet bytes of a lecture's implementation.
    fn file_bytes(&self, i: usize) -> u64 {
        let lec = &self.lectures[i];
        let pages: u64 = (0..lec.pages).map(|j| self.page(i, j).len() as u64).sum();
        pages + if lec.program { PROGRAM_BYTES } else { 0 }
    }

    /// Apply one verb; returns its class.
    fn apply(&self, db: &WebDocDb, verb: Verb, sp: &mut Spans, op: u64) -> Result<Class, String> {
        let fail = |what: &str, e: wdoc_core::CoreError| format!("{what}: {e}");
        match verb {
            Verb::AddScript(i) => {
                let s = docs::script(
                    &name(i),
                    i,
                    vec!["lecture".into(), format!("week{}", i % 13)],
                );
                sp.span("core.write", "add_script", op, |_| db.add_script(&s))
                    .map_err(|e| fail("add_script", e))?;
            }
            Verb::AddImplementation(i) => {
                let (u, lec) = (url(i), &self.lectures[i]);
                let html: Vec<_> = (0..lec.pages)
                    .map(|j| docs::html_file(&u, format!("page{j}.html"), self.page(i, j)))
                    .collect();
                let programs: Vec<_> = lec
                    .program
                    .then(|| docs::program_file(&u, self.program(i)))
                    .into_iter()
                    .collect();
                let imp = docs::implementation(&u, &name(i), i);
                sp.span("core.write", "add_implementation", op, |_| {
                    db.add_implementation(&imp, &html, &programs)
                })
                .map_err(|e| fail("add_implementation", e))?;
            }
            Verb::Attach(i, a) => {
                let m = self.lectures[i].media[a];
                let u = StartUrl::new(url(i));
                let meta = sp
                    .span(
                        "core.resource",
                        "attach_implementation_resource",
                        op,
                        |_| db.attach_implementation_resource(&u, m.kind, m.bytes()),
                    )
                    .map_err(|e| fail("attach_implementation_resource", e))?;
                if meta.size != m.size {
                    return Err(format!(
                        "attach stored {} bytes, sent {}",
                        meta.size, m.size
                    ));
                }
                return Ok(Class::Resource);
            }
            Verb::AddTestRecord(i) => {
                let tr = docs::test_record(&format!("tr-{}", name(i)), &name(i), &url(i), i);
                sp.span("core.write", "add_test_record", op, |_| {
                    db.add_test_record(&tr)
                })
                .map_err(|e| fail("add_test_record", e))?;
            }
            Verb::Complete(j, pct) => {
                let n = ScriptName::new(name(j));
                sp.span("core.write", "update_script", op, |_| {
                    db.update_script(&n, |s| s.percent_complete = pct)
                })
                .map_err(|e| fail("update_script", e))?;
            }
            Verb::Remove(j) => {
                let n = ScriptName::new(name(j));
                sp.span("core.write", "remove_script", op, |_| db.remove_script(&n))
                    .map_err(|e| fail("remove_script", e))?;
            }
            Verb::Checkpoint => {
                sp.span("core.admin", "checkpoint", op, |_| db.checkpoint())
                    .map_err(|e| fail("checkpoint", e))?;
                return Ok(Class::Checkpoint);
            }
        }
        Ok(Class::Write)
    }

    /// Read lecture `i` back with six read verbs, checked against what
    /// was authored; returns the rows they got.
    fn read_back(&self, db: &WebDocDb, i: usize, sp: &mut Spans, op: u64) -> Result<u64, String> {
        let (n, u, lec) = (
            ScriptName::new(name(i)),
            StartUrl::new(url(i)),
            &self.lectures[i],
        );
        let err = |what: &str, e: wdoc_core::CoreError| format!("{what}({}): {e}", name(i));
        let script = sp
            .span("core.read", "script", op, |_| db.script(&n))
            .map_err(|e| err("script", e))?;
        let imps = sp
            .span("core.read", "implementations_of", op, |_| {
                db.implementations_of(&n)
            })
            .map_err(|e| err("implementations_of", e))?;
        let html = sp
            .span("core.read", "html_files", op, |_| db.html_files(&u))
            .map_err(|e| err("html_files", e))?;
        let programs = sp
            .span("core.read", "program_files", op, |_| db.program_files(&u))
            .map_err(|e| err("program_files", e))?;
        let res = sp
            .span("core.read", "implementation_resources", op, |_| {
                db.implementation_resources(&u)
            })
            .map_err(|e| err("implementation_resources", e))?;
        let tests = sp
            .span("core.read", "test_records_of", op, |_| {
                db.test_records_of(&n)
            })
            .map_err(|e| err("test_records_of", e))?;
        let ok = script.name == n
            && imps.len() == 1
            && html.len() == lec.pages
            && html
                .iter()
                .enumerate()
                .all(|(j, h)| h.content == self.page(i, j))
            && programs.len() == usize::from(lec.program)
            && res.len() == lec.media.len()
            && tests.len() == usize::from(lec.test);
        if !ok {
            return Err(format!("read-back of {} returned other content", name(i)));
        }
        Ok((1 + imps.len() + html.len() + programs.len() + res.len() + tests.len()) as u64)
    }
}

/// Latency class of a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Write,
    Resource,
    Checkpoint,
}

/// Per-class summed time of a tape run, for the layer ladder.
#[derive(Debug, Default, Clone, Copy)]
struct ClassTime {
    write_ns: u64,
    writes: u64,
    resource_ns: u64,
    resources: u64,
    total_ns: u64,
}

impl ClassTime {
    /// Write verbs per second of the time summed so far.
    fn rate(&self) -> f64 {
        (self.writes + self.resources) as f64 / (self.total_ns as f64 / 1e9)
    }

    fn add(&mut self, class: Class, ns: u64) {
        self.total_ns += ns;
        match class {
            Class::Write => {
                self.write_ns += ns;
                self.writes += 1;
            }
            Class::Resource => {
                self.resource_ns += ns;
                self.resources += 1;
            }
            Class::Checkpoint => {}
        }
    }
}

/// What one session measured.
pub struct Session {
    /// Set-up times (open a fresh station, create its database), s.
    pub setup_s: Vec<f64>,
    /// Latency of reading a lecture back from the reopened station: the
    /// fast quartile over sessions of each session's p50, the tail
    /// pooled.
    pub read: Latency,
    /// Write-verb latency (resource attachment included), likewise.
    pub write: Latency,
    /// Checkpoint durations, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Write verbs completed, checkpoints excluded.
    pub verbs: u64,
    /// Wall time of the whole tape, checkpoints included, s.
    pub elapsed_s: f64,
    /// Write verbs per second of each checkpoint-to-checkpoint interval,
    /// its checkpoint included in its time: the fast quartile over the
    /// intervals of every session.
    pub ops_per_s: f64,
    /// Time to reopen a station from disk, fast quartile over sessions,
    /// s.
    pub recovery_s: f64,
    /// Bytes written to storage over user payload bytes.
    pub write_amp: Ratio,
    /// On-disk bytes at the end over live user payload bytes.
    pub space_amp: Ratio,
    /// Spans of the tape run.
    pub spans: Spans,
    /// Per-layer metrics of the last session.
    pub layers: BTreeMap<String, f64>,
}

fn open(dir: &Path, metrics: &obs::Registry) -> Result<WebDocDb, String> {
    let opts = wal::WalOptions {
        group_commit: true,
        sync_data: true,
        metrics: metrics.clone(),
        ..wal::WalOptions::default()
    };
    WebDocDb::open_durable_logged(dir, opts, logstore::LogConfig::default())
        .map(|(db, _)| db)
        .map_err(|e| format!("open durable station at {}: {e}", dir.display()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Instructor sessions, each on its own station under `work` (which the
/// caller removes) with its own tape; run one at a time so a run can
/// spread them over its length, then pooled.
pub struct Sessions {
    work: PathBuf,
    seed: u64,
    cfg: Config,
    parts: Vec<Part>,
    sp: Spans,
}

impl Sessions {
    /// No sessions yet.
    #[must_use]
    pub fn new(work: &Path, seed: u64, cfg: Config, sp: Spans) -> Self {
        Sessions {
            work: work.to_path_buf(),
            seed,
            cfg,
            parts: Vec::new(),
            sp,
        }
    }

    /// Run the next session.
    ///
    /// # Errors
    /// On any failed verb or failed correctness gate.
    pub fn run_one(&mut self) -> Result<(), String> {
        let r = self.parts.len();
        let dir = self.work.join(format!("session-{r}"));
        let part = session(&dir, mix(&[self.seed, r as u64]), self.cfg, &mut self.sp)?;
        self.parts.push(part);
        Ok(())
    }

    /// Pool what the sessions measured.
    ///
    /// # Errors
    /// When the pooled latencies support no tail percentile.
    ///
    /// # Panics
    /// When no session ran.
    pub fn finish(self) -> Result<Session, String> {
        let parts = &self.parts;
        let cat = |f: &dyn Fn(&Part) -> &Vec<f64>| -> Vec<f64> {
            parts.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let sum = |f: &dyn Fn(&Part) -> u64| -> f64 { parts.iter().map(|p| f(p) as f64).sum() };
        let last = parts.last().expect("at least one session");
        let each = |f: &dyn Fn(&Part) -> String| parts.iter().map(f).collect::<Vec<_>>().join(" ");
        println!(
            "# instructor sessions, verbs/s: {}",
            each(&|p| format!("{:.0}", p.rate))
        );
        println!(
            "# instructor sessions, checkpoint ms: {}",
            each(&|p| format!("{:.1}", p.checkpoint_ms.iter().sum::<f64>()))
        );
        Ok(Session {
            setup_s: cat(&|p| &p.setup_s),
            read: latency(
                parts.iter().map(|p| p.read_ns.clone()).collect(),
                "instructor read-backs after reopen",
            )?,
            write: latency(
                parts.iter().map(|p| p.write_ns.clone()).collect(),
                "instructor writes",
            )?,
            checkpoint_ms: cat(&|p| &p.checkpoint_ms),
            verbs: sum(&|p| p.verbs) as u64,
            elapsed_s: parts.iter().map(|p| p.elapsed_s).sum(),
            ops_per_s: fast_rate(&cat(&|p| &p.interval_rates)),
            recovery_s: fast_time(&parts.iter().map(|p| p.reopen_s).collect::<Vec<_>>()),
            write_amp: Ratio {
                value: sum(&|p| p.written),
                base: sum(&|p| p.user_bytes),
            },
            space_amp: Ratio {
                value: sum(&|p| p.disk),
                base: sum(&|p| p.live_bytes),
            },
            layers: last.layers.clone(),
            spans: self.sp,
        })
    }
}

/// What one session measured.
struct Part {
    setup_s: Vec<f64>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    checkpoint_ms: Vec<f64>,
    verbs: u64,
    elapsed_s: f64,
    rate: f64,
    interval_rates: Vec<f64>,
    reopen_s: f64,
    written: u64,
    user_bytes: u64,
    disk: u64,
    live_bytes: u64,
    layers: BTreeMap<String, f64>,
}

/// One instructor session on a fresh station under `work`.
fn session(work: &Path, seed: u64, cfg: Config, sp: &mut Spans) -> Result<Part, String> {
    let tape = Tape::generate(seed, cfg);
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut station = None;
    for r in 0..cfg.setups.max(1) {
        let dir = work.join(format!("station-{r}"));
        let metrics = obs::Registry::new();
        let t = Instant::now();
        let db = open(&dir, &metrics)?;
        db.create_database(&docs::database())
            .map_err(|e| format!("create_database: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, _, old_dir)) = station.replace((db, metrics, dir)) {
            drop::<WebDocDb>(old);
            std::fs::remove_dir_all(&old_dir).map_err(|e| format!("remove set-up: {e}"))?;
        }
    }
    let (db, metrics, dir) = station.expect("at least one set-up");

    let (mut write_ns, mut checkpoint_ms) = (Vec::new(), Vec::new());
    // Verbs per second of each checkpoint-to-checkpoint interval, its
    // checkpoint included.
    let (mut interval_rates, mut interval) = (Vec::new(), ClassTime::default());
    let mut durable = ClassTime::default();
    let io0 = crate::procfs::Proc::now();
    let started = Instant::now();
    for (op, &v) in tape.verbs.iter().enumerate() {
        let t = Instant::now();
        let class = tape.apply(&db, v, sp, op as u64)?;
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        durable.add(class, ns);
        interval.add(class, ns);
        match class {
            Class::Write | Class::Resource => write_ns.push(ns),
            Class::Checkpoint => {
                checkpoint_ms.push(ns as f64 / 1e6);
                interval_rates.push(interval.rate());
                interval = ClassTime::default();
            }
        }
    }
    let verbs = write_ns.len() as u64;
    let elapsed_s = started.elapsed().as_secs_f64();
    let written = crate::procfs::Proc::now().since(&io0).write_bytes;

    let user_bytes: u64 = tape
        .verbs
        .iter()
        .map(|v| match *v {
            Verb::AddImplementation(i) => tape.file_bytes(i),
            Verb::Attach(i, a) => tape.lectures[i].media[a].size,
            _ => 0,
        })
        .sum();
    let live_bytes: u64 = (0..tape.lectures.len())
        .filter(|&i| !tape.lectures[i].removed)
        .map(|i| tape.file_bytes(i) + tape.lectures[i].media.iter().map(|m| m.size).sum::<u64>())
        .sum();
    let disk = dir_bytes(&dir);

    let mut layers = BTreeMap::new();
    collect_session_layers(&db, &metrics, &mut layers);
    let attached: Vec<(BlobId, Media)> = tape
        .lectures
        .iter()
        .filter(|l| !l.removed)
        .flat_map(|l| l.media.iter().map(|m| (BlobId::of(&m.bytes()), *m)))
        .collect();
    drop(db);

    let rec = obs::Registry::new();
    let t = Instant::now();
    let reopened = open(&dir, &rec)?;
    let reopen_s = t.elapsed().as_secs_f64();
    for name in [
        "wal.recover.analysis_us",
        "wal.recover.redo_us",
        "wal.recover.undo_us",
        "wal.recover.records_scanned",
    ] {
        layers.insert(name.into(), value(&rec, name));
    }

    // Gate, and the session's read latency: every live lecture reads
    // back from the reopened station as it was authored.
    let (mut read_ns, mut returned) = (Vec::new(), 0);
    for i in (0..tape.lectures.len()).filter(|&i| !tape.lectures[i].removed) {
        let op = (tape.verbs.len() + i) as u64;
        let t = Instant::now();
        returned += sp.span("bench", "read_back", op, |sp| {
            tape.read_back(&reopened, i, sp, op)
        })?;
        read_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    // Selects are the read-through's: the session's own are the
    // write verbs' lookups.
    layers.insert(
        "relstore.select.rows_examined".into(),
        value(
            reopened.relational().metrics(),
            "relstore.select.rows_examined",
        ),
    );
    crate::registry::rows_per_returned(&mut layers, returned);

    // Oracle: the same tape on an in-memory station, timed as the
    // lower rung of the durable-vs-memory ladder.
    let memory_db = WebDocDb::new();
    memory_db
        .create_database(&docs::database())
        .map_err(|e| format!("memory create_database: {e}"))?;
    let mut quiet = Spans::new(false, Instant::now());
    let mut memory = ClassTime::default();
    for (op, &v) in tape.verbs.iter().enumerate() {
        if matches!(v, Verb::Checkpoint) {
            continue;
        }
        let t = Instant::now();
        let class = tape.apply(&memory_db, v, &mut quiet, op as u64)?;
        memory.add(
            class,
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
    let (got, want) = (
        docs::station_dump(&reopened)?,
        docs::station_dump(&memory_db)?,
    );
    if got != want {
        return Err(format!(
            "recovered station differs from the in-memory replay ({} vs {} dump bytes)",
            got.len(),
            want.len()
        ));
    }
    for (id, m) in &attached {
        if reopened.blobs().get(*id).as_deref() != Some(&m.bytes()[..]) {
            return Err(format!(
                "blob {id} of an acknowledged attachment lost on reopen"
            ));
        }
    }
    drop(reopened);

    let per = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    layers.insert(
        "wal.self_us".into(),
        per(durable.write_ns, durable.writes) - per(memory.write_ns, memory.writes),
    );
    layers.insert(
        "logstore.self_us".into(),
        per(durable.resource_ns, durable.resources) - per(memory.resource_ns, memory.resources),
    );
    let ladder = Ratio {
        value: durable.total_ns as f64 / 1e9,
        base: memory.total_ns as f64 / 1e9,
    };
    layers.insert("wal.ladder_ratio".into(), ladder.get());
    if sp.is_on() {
        println!("# ladder author: durable/in-memory tape time {ladder} s");
    }

    Ok(Part {
        setup_s,
        read_ns,
        write_ns,
        checkpoint_ms,
        verbs,
        elapsed_s,
        rate: verbs as f64 / elapsed_s,
        interval_rates,
        reopen_s,
        written,
        user_bytes,
        disk,
        live_bytes,
        layers,
    })
}

/// WAL, blob-log and blob-store metrics of the kept station.
fn collect_session_layers(db: &WebDocDb, metrics: &obs::Registry, out: &mut BTreeMap<String, f64>) {
    let delta = |name: &str| value(metrics, name);
    let fsyncs = delta("wal.fsyncs");
    for name in [
        "wal.fsyncs",
        "wal.flushes",
        "wal.flush.bytes",
        "wal.checkpoint.bytes",
        "wal.checkpoints",
        "wal.bytes_reclaimed",
    ] {
        out.insert(name.into(), delta(name));
    }
    out.insert(
        "wal.commits_per_fsync".into(),
        Ratio {
            value: delta("wal.commits"),
            base: fsyncs,
        }
        .get(),
    );
    out.insert(
        "wal.segments_live".into(),
        value(metrics, "wal.segments_live"),
    );
    if let Some(s) = db.blobs().log_stats() {
        out.insert("logstore.appended_bytes".into(), s.appended_bytes as f64);
        out.insert("logstore.disk_bytes".into(), s.disk_bytes as f64);
        out.insert("logstore.dead_bytes".into(), s.dead_bytes as f64);
        out.insert(
            "logstore.dead_ratio".into(),
            Ratio {
                value: s.dead_bytes as f64,
                base: s.disk_bytes as f64,
            }
            .get(),
        );
        out.insert("logstore.merges".into(), s.merges as f64);
        out.insert("logstore.bytes_reclaimed".into(), s.reclaimed_bytes as f64);
    }
    let b = db.blobs().stats();
    out.insert("blobstore.dedup_hits".into(), b.dedup_hits as f64);
    out.insert("blobstore.sharing_ratio".into(), b.sharing_ratio());
    crate::registry::relstore_layers(&[db.relational().metrics()], out);
}

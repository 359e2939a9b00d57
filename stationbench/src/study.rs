//! The student session: two closed-loop clients on an in-memory
//! 4-shard station (the `ShardedBackend` that `open_sharded_with`
//! builds).
//!
//! Set-up loads a catalog of script families — a script, its
//! implementation with four HTML pages and one media object — into the
//! station and publishes each to the virtual library. Clients then draw
//! families Zipf(s = 0.8): most operations are lecture reads (`script`,
//! `implementations_of`, `html_files`, `implementation_resources`,
//! `BlobStore::get`), the rest library keyword searches, check-outs,
//! and about 10% concurrent writes (completion updates, test records
//! with fresh names). Every read is checked against the seeded content.

use crate::docs::{self, mix};
use crate::registry::{relstore_layers, rows_per_returned, value};
use crate::spans::Spans;
use crate::stats::{fast_rate, latency, Latency, Ratio};
use blobstore::MediaKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{EngineKind, Snapshot, TableSchema};
use shard::ShardedBackend;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wdoc_core::ids::{CourseId, ScriptName, StartUrl, TestRecordName, UserId};
use wdoc_core::{DocBackend, DocTxn, WebDocDb};
use wdoc_library::{Catalog, CatalogEntry, CheckoutLedger};
use wdoc_workload::media::{payload, sample_size};
use wdoc_workload::Zipf;

/// Zipf exponent of family and keyword popularity.
const ZIPF_S: f64 = 0.8;
/// HTML pages per implementation.
const PAGES: usize = 4;
/// Distinct topic keywords; family `f` carries `topic(f % TOPICS)`.
const TOPICS: usize = 64;
/// Shards of the study station.
const SHARDS: u32 = 4;
/// Media sizes are typical sizes divided by this.
const MEDIA_SCALE: u64 = 256;

/// Size of one student session.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Script families in the catalog.
    pub families: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Fresh stations loaded to time set-up; the last one is used.
    pub setups: usize,
    /// Operations per client on each rung of the shard ladder.
    pub ladder_ops: usize,
}

/// The seeded catalog content.
struct Content {
    seed: u64,
    families: usize,
    offset: usize,
}

fn name(f: usize) -> String {
    format!("family-{f:05}")
}

fn url(f: usize) -> String {
    format!("http://station/{}/start.html", name(f))
}

fn topic(k: usize) -> String {
    format!("topic{k:02}")
}

// Page sizes, media kinds and media sizes follow a family's popularity
// rank, not the seed: the seed changes which families are hot and what
// bytes they hold, but not how much the hot families hold, so a seed
// whose hottest family happens to be a large video does not move every
// read figure of the run.
impl Content {
    fn page(&self, f: usize, j: usize) -> bytes::Bytes {
        let rank = self.rank(f) as u64;
        payload(
            mix(&[self.seed, f as u64, j as u64, 0x51]),
            512 + mix(&[rank, j as u64]) % 1536,
        )
    }

    fn media(&self, f: usize) -> (MediaKind, bytes::Bytes) {
        let rank = self.rank(f);
        let kind = MediaKind::ALL[rank % MediaKind::ALL.len()];
        let mut rng = StdRng::seed_from_u64(mix(&[rank as u64, 0x52]));
        let size = sample_size(&mut rng, kind, MEDIA_SCALE);
        (kind, payload(mix(&[self.seed, f as u64, 0x53]), size))
    }

    fn entry(&self, f: usize) -> CatalogEntry {
        CatalogEntry {
            course: CourseId::new(format!("cs{:02}", f % 40)),
            title: format!("Lecture {f}"),
            instructor: UserId::new(format!("prof{}", f % 17)),
            keywords: vec![topic(f % TOPICS), format!("week{}", f % 13)],
            script: ScriptName::new(name(f)),
            pages: (0..PAGES).map(|j| format!("page{j}.html")).collect(),
        }
    }

    /// Families carrying topic `k`.
    fn topic_size(&self, k: usize) -> usize {
        (self.families + TOPICS - 1 - k) / TOPICS
    }

    /// Catalog rank `r` (0 = most popular) to family, rotated by seed.
    fn family(&self, rank: usize) -> usize {
        (rank + self.offset) % self.families
    }

    /// Family `f`'s catalog rank.
    fn rank(&self, f: usize) -> usize {
        (f + self.families - self.offset) % self.families
    }

    /// Load the catalog into `db` and a library catalog.
    fn load(&self, db: &WebDocDb) -> Result<Catalog, String> {
        db.create_database(&docs::database())
            .map_err(|e| format!("create_database: {e}"))?;
        let mut catalog = Catalog::new();
        for f in 0..self.families {
            let entry = self.entry(f);
            db.add_script(&docs::script(&name(f), f, entry.keywords.clone()))
                .map_err(|e| format!("seed add_script: {e}"))?;
            let u = url(f);
            let html: Vec<_> = (0..PAGES)
                .map(|j| docs::html_file(&u, format!("page{j}.html"), self.page(f, j)))
                .collect();
            db.add_implementation(&docs::implementation(&u, &name(f), f), &html, &[])
                .map_err(|e| format!("seed add_implementation: {e}"))?;
            let (kind, data) = self.media(f);
            db.attach_implementation_resource(&StartUrl::new(u), kind, data)
                .map_err(|e| format!("seed attach: {e}"))?;
            catalog.publish(entry);
        }
        Ok(catalog)
    }
}

/// The in-memory sharded backend, shared so the benchmark can read
/// each shard engine's registry after the station took ownership.
struct Shared(Arc<ShardedBackend>);

impl DocBackend for Shared {
    fn engine_kind(&self) -> EngineKind {
        self.0.engine_kind()
    }
    fn shards(&self) -> usize {
        self.0.shards()
    }
    fn create_table(&self, schema: TableSchema) -> relstore::Result<()> {
        self.0.create_table(schema)
    }
    fn with_txn_dyn(
        &self,
        f: &mut dyn FnMut(&dyn DocTxn) -> relstore::Result<()>,
    ) -> relstore::Result<()> {
        self.0.with_txn_dyn(f)
    }
    fn snapshot(&self) -> relstore::Result<Snapshot> {
        self.0.snapshot()
    }
    fn heap_bytes(&self, table: &str) -> relstore::Result<usize> {
        self.0.heap_bytes(table)
    }
}

/// A loaded station with what the benchmark keeps a hold on.
struct Station {
    db: WebDocDb,
    catalog: Catalog,
    router: Option<(Arc<ShardedBackend>, obs::Registry)>,
}

fn sharded(content: &Content) -> Result<Station, String> {
    let metrics = obs::Registry::new();
    let backend = Arc::new(ShardedBackend::new(
        EngineKind::TwoPl,
        SHARDS,
        metrics.clone(),
    ));
    let db = WebDocDb::on_backend(Box::new(Shared(Arc::clone(&backend))), true)
        .map_err(|e| format!("open sharded station: {e}"))?;
    let catalog = content.load(&db)?;
    Ok(Station {
        db,
        catalog,
        router: Some((backend, metrics)),
    })
}

fn unsharded(content: &Content) -> Result<Station, String> {
    let db = WebDocDb::new();
    let catalog = content.load(&db)?;
    Ok(Station {
        db,
        catalog,
        router: None,
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lecture(usize),
    Search(usize),
    Checkout(usize, usize, usize),
    Complete(usize, i64),
    Test(usize),
}

/// One client's operation stream within one slice.
struct Client {
    slice: usize,
    id: usize,
    rng: StdRng,
    fresh: usize,
}

impl Client {
    fn new(seed: u64, slice: usize, id: usize) -> Client {
        Client {
            slice,
            id,
            rng: StdRng::seed_from_u64(mix(&[seed, slice as u64, id as u64, 0x5C])),
            fresh: 0,
        }
    }

    fn next(&mut self, fam: &Zipf, topics: &Zipf) -> Op {
        let coin = self.rng.gen_range(0..100);
        let f = fam.sample(&mut self.rng);
        match coin {
            0..=59 => Op::Lecture(f),
            60..=74 => Op::Search(topics.sample(&mut self.rng)),
            75..=89 => Op::Checkout(f, self.rng.gen_range(0..50), self.rng.gen_range(0..PAGES)),
            90..=94 => Op::Complete(f, self.rng.gen_range(0..=100)),
            _ => Op::Test(f),
        }
    }
}

/// What one client measured; latencies in ns.
#[derive(Default)]
struct Tally {
    reads: Vec<u64>,
    writes: Vec<u64>,
    tests: Vec<String>,
    returned: u64,
    search_results: u64,
}

struct Ctx<'a> {
    content: &'a Content,
    station: &'a Station,
    ledger: &'a Mutex<CheckoutLedger>,
}

impl Ctx<'_> {
    /// Execute one operation, checking what reads return.
    fn exec(
        &self,
        c: &mut Client,
        op: Op,
        n: u64,
        sp: &mut Spans,
        t: &mut Tally,
    ) -> Result<(), String> {
        let db = &self.station.db;
        let started = Instant::now();
        let write = match op {
            Op::Lecture(rank) => {
                let f = self.content.family(rank);
                sp.span("bench", "lecture_read", n, |sp| {
                    self.lecture(db, f, n, sp, t)
                })?;
                false
            }
            Op::Search(k) => {
                let q = topic(k);
                let hits = sp.span("library.search", "search_keywords", n, |_| {
                    self.station.catalog.search_keywords(&q).len()
                });
                if hits != self.content.topic_size(k) {
                    return Err(format!(
                        "search {q}: {hits} hits, want {}",
                        self.content.topic_size(k)
                    ));
                }
                t.search_results += hits as u64;
                false
            }
            Op::Checkout(rank, student, page) => {
                let (s, p) = (
                    UserId::new(format!("student-{}-{student}", c.id)),
                    format!("page{page}.html"),
                );
                let script = ScriptName::new(name(self.content.family(rank)));
                sp.span("library.checkout", "check_out", n, |_| {
                    let mut ledger = self
                        .ledger
                        .lock()
                        .expect("no client panics holding the ledger");
                    // A page already held is returned instead.
                    if !ledger.check_out(&s, &script, &p, n) {
                        ledger.check_in(&s, &script, &p, n);
                    }
                });
                false
            }
            Op::Complete(rank, pct) => {
                let s = ScriptName::new(name(self.content.family(rank)));
                sp.span("core.write", "update_script", n, |_| {
                    db.update_script(&s, |x| x.percent_complete = pct)
                })
                .map_err(|e| format!("update_script: {e}"))?;
                true
            }
            Op::Test(rank) => {
                let f = self.content.family(rank);
                let tr = format!("t-{}-{}-{}", c.slice, c.id, c.fresh);
                c.fresh += 1;
                let rec = docs::test_record(&tr, &name(f), &url(f), f);
                sp.span("core.write", "add_test_record", n, |_| {
                    db.add_test_record(&rec)
                })
                .map_err(|e| format!("add_test_record: {e}"))?;
                t.tests.push(tr);
                true
            }
        };
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if write {
            t.writes.push(ns);
        } else {
            t.reads.push(ns);
        }
        Ok(())
    }

    fn lecture(
        &self,
        db: &WebDocDb,
        f: usize,
        n: u64,
        sp: &mut Spans,
        t: &mut Tally,
    ) -> Result<(), String> {
        let (s, u) = (ScriptName::new(name(f)), StartUrl::new(url(f)));
        let e = |what: &str, err: wdoc_core::CoreError| format!("{what}({}): {err}", name(f));
        let script = sp
            .span("core.read", "script", n, |_| db.script(&s))
            .map_err(|err| e("script", err))?;
        let imps = sp
            .span("core.read", "implementations_of", n, |_| {
                db.implementations_of(&s)
            })
            .map_err(|err| e("implementations_of", err))?;
        let html = sp
            .span("core.read", "html_files", n, |_| db.html_files(&u))
            .map_err(|err| e("html_files", err))?;
        let res = sp
            .span("core.read", "implementation_resources", n, |_| {
                db.implementation_resources(&u)
            })
            .map_err(|err| e("implementation_resources", err))?;
        t.returned += (1 + imps.len() + html.len() + res.len()) as u64;
        let blob = match res.first() {
            Some(m) => sp.span("blobstore", "get", n, |_| db.blobs().get(m.id)),
            None => None,
        };
        let (_, want_media) = self.content.media(f);
        let ok = script.description == format!("script {}", name(f))
            && imps.len() == 1
            && html.len() == PAGES
            && html
                .iter()
                .enumerate()
                .all(|(j, h)| h.content == self.content.page(f, j))
            && res.len() == 1
            && blob.as_deref() == Some(&want_media[..]);
        if !ok {
            return Err(format!(
                "lecture read of {} returned other content",
                name(f)
            ));
        }
        Ok(())
    }
}

/// Throughput and latencies (ns) of one slice of the students' time.
struct Slice {
    ops_per_s: f64,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// What the students measured.
pub struct Session {
    /// Set-up times (open the station, load the catalog), s.
    pub setup_s: Vec<f64>,
    /// Operations completed per second, fast quartile over slices.
    pub ops_per_s: f64,
    /// Reads (lecture reads, searches, check-outs): the fast quartile
    /// over slices of each slice's p50, the tail pooled.
    pub read: Latency,
    /// Completion updates and test records, likewise.
    pub write: Latency,
    /// Operations completed.
    pub ops: u64,
    /// Time the clients ran, s.
    pub elapsed_s: f64,
    /// Spans of the slices.
    pub spans: Spans,
    /// Per-layer metrics this session owns.
    pub layers: BTreeMap<String, f64>,
}

/// Run `cfg.clients` closed loops on `ctx`, each until the window
/// closes or for a number of operations.
fn drive(
    ctx: &Ctx<'_>,
    seed: u64,
    slice: usize,
    cfg: Config,
    bound: Bound,
    sp: &Spans,
) -> Result<(Vec<Tally>, Spans, f64), String> {
    let fam = Zipf::new(ctx.content.families, ZIPF_S);
    let topics = Zipf::new(TOPICS, ZIPF_S);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<Result<(Tally, Spans), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|id| {
                let (fam, topics, stop) = (&fam, &topics, &stop);
                let mut spans = sp.fork();
                s.spawn(move || {
                    let mut c = Client::new(seed, slice, id);
                    let mut t = Tally::default();
                    let mut n = 0u64;
                    loop {
                        match bound {
                            Bound::Ops(k) if n as usize >= k => break,
                            Bound::Window(_) if stop.load(Ordering::Relaxed) => break,
                            _ => {}
                        }
                        let op = c.next(fam, topics);
                        let id_op = (slice as u64) << 48 | (id as u64) << 40 | n;
                        if let Err(e) = ctx.exec(&mut c, op, id_op, &mut spans, &mut t) {
                            stop.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                        n += 1;
                    }
                    Ok((t, spans))
                })
            })
            .collect();
        if let Bound::Window(w) = bound {
            while started.elapsed() < w && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut tallies = Vec::new();
    let mut all = sp.fork();
    for r in results {
        let (t, spans) = r?;
        tallies.push(t);
        all.absorb(spans);
    }
    Ok((tallies, all, elapsed))
}

#[derive(Debug, Clone, Copy)]
enum Bound {
    Window(Duration),
    Ops(usize),
}

/// The students on their loaded station; they run in slices so a run
/// can spread them over its length.
pub struct Students {
    seed: u64,
    cfg: Config,
    content: Content,
    station: Station,
    ledger: Mutex<CheckoutLedger>,
    setup_s: Vec<f64>,
    tallies: Vec<Tally>,
    slices: Vec<Slice>,
    elapsed_s: f64,
    spans: Spans,
}

impl Students {
    /// Load the catalog `cfg.setups` times on fresh stations, keeping
    /// the last.
    ///
    /// # Errors
    /// When loading fails.
    pub fn new(seed: u64, cfg: Config, spans: Spans) -> Result<Self, String> {
        let content = Content {
            seed,
            families: cfg.families,
            offset: (mix(&[seed, 0x5D]) % cfg.families as u64) as usize,
        };
        let mut setup_s = Vec::new();
        let mut station = None;
        for _ in 0..cfg.setups.max(1) {
            drop(station.take());
            let t = Instant::now();
            station = Some(sharded(&content)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        println!("# student set-ups, s: {setup_s:.3?}");
        Ok(Students {
            seed,
            cfg,
            content,
            station: station.expect("at least one set-up"),
            ledger: Mutex::new(CheckoutLedger::new()),
            setup_s,
            tallies: Vec::new(),
            slices: Vec::new(),
            elapsed_s: 0.0,
            spans,
        })
    }

    /// Run the clients for one slice of `window`.
    ///
    /// # Errors
    /// On any failed operation.
    pub fn run_slice(&mut self, window: Duration) -> Result<(), String> {
        let k = self.slices.len();
        let ctx = Ctx {
            content: &self.content,
            station: &self.station,
            ledger: &self.ledger,
        };
        let (tallies, spans, elapsed) = drive(
            &ctx,
            self.seed,
            k,
            self.cfg,
            Bound::Window(window),
            &self.spans,
        )?;
        let reads: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.reads.iter().copied())
            .collect();
        let writes: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.writes.iter().copied())
            .collect();
        self.slices.push(Slice {
            ops_per_s: (reads.len() + writes.len()) as f64 / elapsed,
            reads,
            writes,
        });
        self.spans.absorb(spans);
        self.tallies.extend(tallies);
        self.elapsed_s += elapsed;
        Ok(())
    }

    /// Check the station and collect the per-layer metrics.
    ///
    /// # Errors
    /// On a failed correctness gate.
    pub fn finish(self) -> Result<Session, String> {
        // Gate: the seeded rows are all there, plus exactly the
        // committed test records, each readable by name.
        let (cfg, tallies) = (self.cfg, &self.tallies);
        let db = &self.station.db;
        let tests: Vec<&String> = tallies.iter().flat_map(|t| &t.tests).collect();
        for (table, want) in [
            (wdoc_core::tables::Script::TABLE, cfg.families),
            (wdoc_core::tables::Implementation::TABLE, cfg.families),
            (wdoc_core::tables::HtmlFile::TABLE, cfg.families * PAGES),
            (wdoc_core::tables::TestRecord::TABLE, tests.len()),
        ] {
            let got = docs::row_count(db, table)?;
            if got != want {
                return Err(format!("{table}: {got} rows after the run, want {want}"));
            }
        }
        for tr in &tests {
            db.test_record(&TestRecordName::new(tr.as_str()))
                .map_err(|e| format!("committed test record {tr} unreadable: {e}"))?;
        }

        let mut layers = BTreeMap::new();
        if let Some((backend, metrics)) = &self.station.router {
            shard_layers(backend, metrics, &mut layers);
        }
        rows_per_returned(&mut layers, tallies.iter().map(|t| t.returned).sum());
        layers.insert(
            "library.search.results".into(),
            tallies.iter().map(|t| t.search_results).sum::<u64>() as f64,
        );
        let ops = tallies
            .iter()
            .map(|t| t.reads.len() + t.writes.len())
            .sum::<usize>() as u64;
        drop(self.station);
        if self.spans.is_on() {
            ladder(&self.content, self.seed, cfg, &mut layers)?;
        }
        Ok(Session {
            setup_s: self.setup_s,
            ops_per_s: fast_rate(&self.slices.iter().map(|s| s.ops_per_s).collect::<Vec<_>>()),
            read: latency(
                self.slices.iter().map(|s| s.reads.clone()).collect(),
                "student reads",
            )?,
            write: latency(
                self.slices.iter().map(|s| s.writes.clone()).collect(),
                "student writes",
            )?,
            ops,
            elapsed_s: self.elapsed_s,
            spans: self.spans,
            layers,
        })
    }
}

/// The shard rung of the layer ladder: the same generated tape on the
/// 4-shard station and on an unsharded one.
fn ladder(
    content: &Content,
    seed: u64,
    cfg: Config,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let time = |station: Station| -> Result<f64, String> {
        let ledger = Mutex::new(CheckoutLedger::new());
        let ctx = Ctx {
            content,
            station: &station,
            ledger: &ledger,
        };
        let quiet = Spans::new(false, Instant::now());
        Ok(drive(&ctx, seed, 0, cfg, Bound::Ops(cfg.ladder_ops), &quiet)?.2)
    };
    let four = time(sharded(content)?)?;
    let one = time(unsharded(content)?)?;
    let ops = (cfg.ladder_ops * cfg.clients) as f64;
    out.insert("shard.self_us".into(), (four - one) / ops * 1e6);
    let ratio = Ratio {
        value: four,
        base: one,
    };
    out.insert("shard.ladder_ratio".into(), ratio.get());
    println!("# ladder study: {SHARDS}-shard/unsharded tape time {ratio} s over {ops} ops");
    Ok(())
}

fn shard_layers(
    backend: &ShardedBackend,
    metrics: &obs::Registry,
    out: &mut BTreeMap<String, f64>,
) {
    let c = |name: &str| value(metrics, name);
    for name in [
        "shard.router.scatter_checks",
        "shard.router.unique_probe_skips",
        "shard.router.routed_selects",
        "shard.router.scatter_batched",
        "shard.router.retries",
        "shard.router.single_shard_commits",
        "shard.router.cross_shard_commits",
    ] {
        out.insert(name.into(), c(name));
    }
    let skips = c("shard.router.unique_probe_skips");
    out.insert(
        "shard.bloom_skip_ratio".into(),
        Ratio {
            value: skips,
            base: skips + c("shard.router.scatter_checks"),
        }
        .get(),
    );
    out.insert(
        "shard.routed_ratio".into(),
        Ratio {
            value: c("shard.router.routed_selects"),
            base: c("shard.router.scatter_batched"),
        }
        .get(),
    );
    let router = backend.router();
    let regs: Vec<&obs::Registry> = (0..router.shards())
        .map(|s| router.engine(s).metrics())
        .collect();
    relstore_layers(&regs, out);
}

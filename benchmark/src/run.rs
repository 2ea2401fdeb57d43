//! One workload in this process: set-up, warm-up, the measured window,
//! the checks after it, and the result line.

use std::collections::HashSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maybms_server::{Server, ServerConfig};
use maybms_sql::{GroupCommitConfig, QueryResult, Session};
use maybms_storage::{FaultVfs, Vfs};

use crate::client::{run_pass, Client, Pass, Span, Tracer, Until};
use crate::data::{build_image, Image, INSERT_KEY_BASE};
use crate::layers;
use crate::report::{
    cpus, git_rev, json_str, mean, median, num, out_dir, peak_rss_mb, percentile, sort, Metrics,
    END_TO_END, PER_LAYER,
};
use crate::workload::{build_pools, Kind, Pools, Script, Spec};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Further recoveries of the last image, so `recovery_s` is a median of
/// `SETUP_REPS + EXTRA_RECOVERIES` samples.
const EXTRA_RECOVERIES: usize = 2;
/// Statements each client sends before anything is timed.
const WARMUP_STATEMENTS: usize = 32;
/// Acked commits of the crash check after a write workload.
const CRASH_COMMITS: usize = 200;
/// The measured window is cut into this many slices of equal length; a
/// timing metric is the mean of its `BEST_SLICES` best slice values.
/// Other tenants of the host only ever add time, in bursts of seconds
/// (see README, "Steadiness"), so the best slices measure the system and
/// the rest measure the neighbours.
const SLICES: usize = 8;
const BEST_SLICES: usize = 3;
/// A slice with fewer samples of a class than this is not used.
const MIN_SLICE_SAMPLES: usize = 5;

/// With the default zero window two closed-loop writers race the writer
/// thread's dequeue, and a run flips between batching and alternating for
/// minutes at a time (README, "Known hazards"); E12 holds the door too.
const GROUP_WINDOW: Duration = Duration::from_micros(500);

pub const FLUSH_POLICY: &str = "WAL fsync on every commit batch, group_window 500 us, max_batch 64";

fn server_config() -> ServerConfig {
    ServerConfig {
        group: GroupCommitConfig {
            group_window: GROUP_WINDOW,
            ..GroupCommitConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A served image with warmed-up clients.
pub struct Live {
    pub spec: &'static Spec,
    pub image: Image,
    pub server: Server,
    pub clients: Vec<Client>,
    pub setup_s: f64,
    pub recoveries_s: Vec<f64>,
    dir: PathBuf,
}

fn connect(
    spec: &'static Spec,
    server: &Server,
    seed: u64,
    pools: &Arc<Pools>,
    kv0: i64,
) -> Vec<Client> {
    (0..spec.clients)
        .map(|c| {
            let script = Script::new(spec, c, seed, Arc::clone(pools), kv0);
            Client::new(server.addr(), spec.conns, script).expect("connect")
        })
        .collect()
}

/// Builds the image, recovers it (`recoveries` times; the last one is
/// kept), serves it and warms the clients up. The oracle's answers are
/// computed on the first call only and are not part of `setup_s`: they
/// are the harness's work, not the system's.
fn setup(
    spec: &'static Spec,
    seed: u64,
    dir: &Path,
    recoveries: usize,
    pools: &mut Option<Arc<Pools>>,
) -> Live {
    let t = Instant::now();
    let image = build_image(spec.image, seed, dir);
    let build_s = t.elapsed().as_secs_f64();

    let mut recoveries_s = Vec::with_capacity(recoveries);
    let mut session = None;
    for _ in 0..recoveries {
        drop(session.take());
        let t = Instant::now();
        session = Some(Session::open(&image.path).expect("recover image"));
        recoveries_s.push(t.elapsed().as_secs_f64());
    }
    let session = session.expect("at least one recovery");

    let pools = pools
        .get_or_insert_with(|| Arc::new(build_pools(spec, &image, seed, &mut session.read_view())))
        .clone();

    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::serve_with(session, listener, server_config()).expect("serve");
    let kv0 = image.kv.first().copied().unwrap_or(0);
    let mut clients = connect(spec, &server, seed, &pools, kv0);
    let warm = run_pass(spec, &mut clients, Until::Count(WARMUP_STATEMENTS));
    let serve_s = t.elapsed().as_secs_f64();
    let failed: u64 = warm.iter().map(|p| p.failed).sum();
    assert!(failed == 0, "{failed} warm-up statement(s) failed");

    let setup_s = build_s + recoveries_s[0] + serve_s;
    Live {
        spec,
        image,
        server,
        clients,
        setup_s,
        recoveries_s,
        dir: dir.to_path_buf(),
    }
}

impl Live {
    /// Stops the server and hands back its session; the image stays.
    fn stop(self) -> (Session, Image, PathBuf) {
        drop(self.clients);
        let session = self.server.shutdown().expect("shutdown");
        (session, self.image, self.dir)
    }
}

/// Sorted latencies of the samples `keep` selects, over all clients.
pub fn latencies(passes: &[Pass], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    let mut us: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| keep(s.tpl))
        .map(|s| s.us)
        .collect();
    sort(&mut us);
    us
}

/// Mean of the `BEST_SLICES` lowest (or highest) of the slice values.
fn best_slices(mut values: Vec<f64>, lowest: bool) -> f64 {
    sort(&mut values);
    if !lowest {
        values.reverse();
    }
    values.truncate(BEST_SLICES);
    mean(&values)
}

/// The timing metrics of one measured window.
pub struct WindowStats {
    pub throughput_ops_s: f64,
    /// Per class present (read, write): best-slice p50 and p95.
    pub classes: Vec<(Kind, f64, f64)>,
}

impl WindowStats {
    /// `p50_us` / `p95_us`: the mean over the classes present, so that on
    /// `mixed_rw` neither side vanishes into the other's sample count.
    pub fn p50(&self) -> f64 {
        mean(&self.classes.iter().map(|c| c.1).collect::<Vec<_>>())
    }

    pub fn p95(&self) -> f64 {
        mean(&self.classes.iter().map(|c| c.2).collect::<Vec<_>>())
    }

    pub fn class(&self, kind: Kind) -> (f64, f64) {
        self.classes
            .iter()
            .find(|c| c.0 == kind)
            .map_or((0.0, 0.0), |c| (c.1, c.2))
    }
}

/// Cuts `[start, start + window_s]` into slices and takes each timing
/// metric from its best slices. A reply that lands after the deadline
/// counts in the last slice.
pub fn window_stats(spec: &Spec, passes: &[Pass], start: Instant, window_s: f64) -> WindowStats {
    let slice_of = |at: Instant| {
        let i = (at.duration_since(start).as_secs_f64() / window_s * SLICES as f64) as usize;
        i.min(SLICES - 1)
    };
    // a slice's rate: replies after its first, over the time they took
    // (a count over the slice's nominal length would move in steps)
    let mut replies: Vec<Vec<Instant>> = vec![Vec::new(); SLICES];
    for s in passes.iter().flat_map(|p| &p.samples) {
        replies[slice_of(s.at)].push(s.at);
    }
    let mut per_second: Vec<f64> = replies
        .iter()
        .filter(|at| at.len() >= MIN_SLICE_SAMPLES)
        .map(|at| {
            let first = at.iter().min().expect("slice has replies");
            let last = at.iter().max().expect("slice has replies");
            (at.len() - 1) as f64 / last.duration_since(*first).as_secs_f64()
        })
        .collect();

    if per_second.is_empty() {
        // too short a window to slice
        let replies: usize = passes.iter().map(|p| p.samples.len()).sum();
        per_second.push(replies as f64 / window_s);
    }

    let mut classes = Vec::new();
    for kind in [Kind::Read, Kind::Write] {
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for s in passes.iter().flat_map(|p| &p.samples) {
            if spec.templates[s.tpl].kind == kind {
                slices[slice_of(s.at)].push(s.us);
            }
        }
        slices.retain(|s| s.len() >= MIN_SLICE_SAMPLES);
        if slices.len() < BEST_SLICES {
            // too short a window to slice: one slice holds everything
            slices = vec![latencies(passes, |t| spec.templates[t].kind == kind)];
        }
        if slices[0].is_empty() {
            continue;
        }
        for s in &mut slices {
            sort(s);
        }
        let stat = |p: f64| best_slices(slices.iter().map(|s| percentile(s, p)).collect(), true);
        classes.push((kind, stat(50.0), stat(95.0)));
    }
    WindowStats {
        throughput_ops_s: best_slices(per_second, false),
        classes,
    }
}

/// Counts of one run: statements sent and statements that went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, passes: &[Pass]) {
        self.attempted += passes.iter().map(|p| p.attempted).sum::<u64>();
        self.failed += passes.iter().map(|p| p.failed).sum::<u64>();
    }
}

/// Prints the latency table of a pass: per class and per template.
fn print_latencies(spec: &Spec, passes: &[Pass], stats: &WindowStats) {
    for (kind, p50, p95) in &stats.classes {
        let class = if *kind == Kind::Read { "read" } else { "write" };
        let n = latencies(passes, |t| spec.templates[t].kind == *kind).len();
        println!("  {class}_p50_us {p50:.1}  {class}_p95_us {p95:.1}  ({n} samples)");
    }
    println!("  whole window, per template:");
    for (i, tpl) in spec.templates.iter().enumerate() {
        let us = latencies(passes, |t| t == i);
        println!(
            "    {:<18} p50 {:>10.1} us  n={}",
            tpl.name,
            percentile(&us, 50.0),
            us.len()
        );
    }
}

/// After a write workload: the database is reopened and must hold every
/// key whose insert was acknowledged. Returns how many are missing.
fn lost_writes(path: &Path, acked: &[i64]) -> u64 {
    let mut s = Session::open(path).expect("reopen after the workload");
    let present = inserted_keys(&mut s);
    acked.iter().filter(|k| !present.contains(k)).count() as u64
}

fn inserted_keys(s: &mut Session) -> HashSet<i64> {
    let sql = format!("SELECT CERTAIN k FROM kv WHERE k >= {INSERT_KEY_BASE}");
    match s.execute(&sql).expect("read back inserted keys") {
        QueryResult::Table(t) => t.rows().iter().filter_map(|r| r[0].as_i64()).collect(),
        other => panic!("key read-back is not tabular: {other:?}"),
    }
}

/// The durability check proper: acked commits from two clients on a
/// server whose disk drops everything not fsynced when it "loses power".
/// Untimed.
fn crash_check(seed: u64) -> Tally {
    const DB: &str = "crash.maybms";
    let spec = crate::workload::find("commit_2w").expect("commit_2w exists");
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut session = Session::open_with_vfs(DB, Arc::clone(&arc)).expect("open on FaultVfs");
    session
        .execute("CREATE TABLE kv (k INT, v INT)")
        .expect("create kv");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::serve_with(session, listener, server_config()).expect("serve");
    let mut clients = connect(spec, &server, seed, &Arc::new(Vec::new()), 0);
    let passes = run_pass(
        spec,
        &mut clients,
        Until::Count(CRASH_COMMITS / spec.clients),
    );
    let acked: Vec<i64> = clients
        .iter()
        .flat_map(|c| c.script.acked_keys.clone())
        .collect();
    drop(clients);
    drop(server.shutdown().expect("shutdown"));
    vfs.crash();
    let mut reopened = Session::open_with_vfs(DB, arc).expect("reopen after crash");
    let present = inserted_keys(&mut reopened);
    let mut tally = Tally::default();
    tally.add(&passes);
    tally.failed += acked.iter().filter(|k| !present.contains(k)).count() as u64;
    tally
}

/// Stops `live`; for a write workload also checks that no acked write
/// was lost, on the real disk and across a simulated power loss.
fn finish(live: Live, seed: u64, extra_acked: &[i64], tally: &mut Tally) {
    let spec = live.spec;
    let mut acked: Vec<i64> = live
        .clients
        .iter()
        .flat_map(|c| c.script.acked_keys.clone())
        .collect();
    acked.extend_from_slice(extra_acked);
    let (session, image, dir) = live.stop();
    drop(session);
    if spec.templates.iter().any(|t| t.kind == Kind::Write) {
        let lost = lost_writes(&image.path, &acked);
        let crash = crash_check(seed);
        println!(
            "  durability: {} acked inserts reread after reopen, {lost} lost; crash check {} commits, {} failed",
            acked.len(),
            crash.attempted,
            crash.failed
        );
        tally.attempted += crash.attempted;
        tally.failed += lost + crash.failed;
    }
    let _ = std::fs::remove_dir_all(dir);
}

fn scratch_dir(spec: &Spec) -> PathBuf {
    out_dir().join(format!("db-{}-{}", spec.name, std::process::id()))
}

/// The header every JSON record carries.
fn record_head(spec: &Spec, seed: u64, seconds: f64) -> String {
    format!(
        "\"workload\": {}, \"seed\": {seed}, \"clients\": {}, \"connections\": {}, \"cpus\": {}, \
         \"git_rev\": {}, \"measured_s\": {}, \"loop\": \"closed\", \"flush_policy\": {}",
        json_str(spec.name),
        spec.clients,
        spec.clients * spec.conns,
        cpus(),
        json_str(&git_rev()),
        num(seconds),
        json_str(FLUSH_POLICY)
    )
}

fn write_out(name: &str, body: &str) {
    std::fs::create_dir_all(out_dir()).expect("create out directory");
    std::fs::write(out_dir().join(name), body).expect("write record");
}

fn result_line(tally: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

fn print_head(spec: &Spec, what: &str, seed: u64) {
    println!(
        "{}: {what}, {} client thread(s) x {} connection(s), closed loop, seed {seed}, {} cpus, {FLUSH_POLICY}",
        spec.name,
        spec.clients,
        spec.conns,
        cpus()
    );
}

/// `--trace 0`: the end-to-end metrics. Returns whether all was correct.
pub fn end_to_end(spec: &'static Spec, seed: u64, seconds: f64) -> bool {
    let dir = scratch_dir(spec);
    let mut pools = None;
    let mut setups = Vec::new();
    let mut recoveries = Vec::new();
    let mut live: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            drop(prev.stop());
        }
        let opens = if rep + 1 == SETUP_REPS {
            1 + EXTRA_RECOVERIES
        } else {
            1
        };
        let l = setup(spec, seed, &dir, opens, &mut pools);
        setups.push(l.setup_s);
        recoveries.extend_from_slice(&l.recoveries_s);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");

    let start = Instant::now();
    let passes = run_pass(
        spec,
        &mut live.clients,
        Until::Time(start + Duration::from_secs_f64(seconds)),
    );
    let rss = peak_rss_mb();
    let stats = window_stats(spec, &passes, start, seconds);

    let mut tally = Tally::default();
    tally.add(&passes);
    let mut m = Metrics::default();
    m.set("setup_s", median(setups));
    m.set("throughput_ops_s", stats.throughput_ops_s);
    m.set("p50_us", stats.p50());
    m.set("p95_us", stats.p95());
    m.set("recovery_s", median(recoveries));
    m.set(
        "disk_bytes_per_user_byte",
        live.image.disk_bytes as f64 / live.image.user_bytes as f64,
    );
    m.set("peak_rss_mb", rss);

    print_head(spec, &format!("{seconds} s measured"), seed);
    m.print(END_TO_END);
    print_latencies(spec, &passes, &stats);
    finish(live, seed, &[], &mut tally);
    println!(
        "  failed_share {} ({} failed of {} attempted)",
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
        tally.failed,
        tally.attempted
    );

    let metrics = m.to_json(END_TO_END);
    let (read, write) = (stats.class(Kind::Read), stats.class(Kind::Write));
    write_out(
        &format!("{}.e2e.json", spec.name),
        &format!(
            "{{{}, \"attempted\": {}, \"failed\": {}, \"read_p50_us\": {}, \"read_p95_us\": {}, \
             \"write_p50_us\": {}, \"write_p95_us\": {}, \"metrics\": {metrics}}}\n",
            record_head(spec, seed, seconds),
            tally.attempted,
            tally.failed,
            num(read.0),
            num(read.1),
            num(write.0),
            num(write.1)
        ),
    );
    println!("{}", result_line(&tally, &metrics));
    tally.failed == 0
}

/// `--trace 1`: an untraced half, a traced half, then the layers timed
/// from outside on the same image and statements.
pub fn per_layer(spec: &'static Spec, seed: u64, seconds: f64) -> bool {
    let dir = scratch_dir(spec);
    let mut live = setup(spec, seed, &dir, 1, &mut None);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let half = seconds / 2.0;

    let before = layers::counters();
    let start = Instant::now();
    let plain = run_pass(
        spec,
        &mut live.clients,
        Until::Time(start + Duration::from_secs_f64(half)),
    );
    tally.add(&plain);
    let plain_stats = window_stats(spec, &plain, start, half);

    let epoch = Instant::now();
    for (i, c) in live.clients.iter_mut().enumerate() {
        c.tracer = Some(Tracer::new(epoch, 1 + i as u32 * 100_000_000));
    }
    let traced = run_pass(
        spec,
        &mut live.clients,
        Until::Time(epoch + Duration::from_secs_f64(half)),
    );
    tally.add(&traced);
    let traced_stats = window_stats(spec, &traced, epoch, half);
    let after = layers::counters();
    let mut spans: Vec<Span> = Vec::new();
    for c in live.clients.iter_mut() {
        spans.append(&mut c.tracer.take().expect("tracer installed above").spans);
    }

    // the harness's own view of the two halves
    m.set(
        "trace.overhead_share",
        (traced_stats.p50() - plain_stats.p50()) / plain_stats.p50(),
    );
    let all = latencies(&plain, |_| true);
    m.set("client.samples", all.len() as f64);
    m.set("client.p99_us", percentile(&all, 99.0));
    m.set("client.max_us", all.last().copied().unwrap_or(0.0));
    let (read, write) = (
        plain_stats.class(Kind::Read),
        plain_stats.class(Kind::Write),
    );
    m.set("client.read_p50_us", read.0);
    m.set("client.read_p95_us", read.1);
    m.set("client.write_p50_us", write.0);
    m.set("client.write_p95_us", write.1);
    let mut bytes: Vec<f64> = plain.iter().flat_map(|p| p.reply_bytes.clone()).collect();
    sort(&mut bytes);
    m.set("server.reply_bytes_p50", percentile(&bytes, 50.0));

    print_head(
        spec,
        &format!("per-layer pass, {half} s untraced + {half} s traced"),
        seed,
    );
    layers::counter_metrics(&before, &after, &plain, &traced, spec, &mut m);
    layers::image_metrics(&live, seed, &mut m);
    let mut tracer = Tracer::new(epoch, 1 + 900_000_000);
    let extra_acked = layers::statement_metrics(&mut live, &plain, &mut tracer, &mut m, &mut tally);
    spans.append(&mut tracer.spans);
    m.print(PER_LAYER);
    finish(live, seed, &extra_acked, &mut tally);

    let head = record_head(spec, seed, seconds);
    let mut trace = format!("{{{head}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        trace.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"stmt\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}\n",
            s.id, s.parent, s.stmt, s.name, s.start_ns, s.end_ns
        ));
    }
    trace.push_str("]}\n");
    write_out(&format!("{}.trace.json", spec.name), &trace);

    let metrics = m.to_json(PER_LAYER);
    write_out(
        &format!("{}.layers.json", spec.name),
        &format!(
            "{{{head}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}\n",
            tally.attempted, tally.failed
        ),
    );
    println!("{}", result_line(&tally, &metrics));
    tally.failed == 0
}

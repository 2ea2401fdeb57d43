//! The two fixed database images, generated from `--seed`.
//!
//! *Big*: `census` (4 000 noisy rows, ~2 000 components), `census1` (its
//! first world, all certain), `states` (51 rows), `kv` (1 000 rows);
//! checkpointed, then 2 000 auto-commits left in the WAL.
//! *Small*: only `obs(oid, k, v)`, 2 000 rows whose `k` and `v` are each a
//! weighted two-alternative or-set (4 000 components); 1 800 rows
//! checkpointed, 200 left in the WAL.
//!
//! Sizes are constants: a metric is comparable across commits only while
//! the image it was measured on stays the same.

use std::path::{Path, PathBuf};
use std::time::Instant;

use maybms_census::{generate, inject, load_into_session, NoiseSpec};
use maybms_relational::{pretty, ColumnType, Relation, Schema, Tuple, Value};
use maybms_sql::Session;
use maybms_storage::{delta_path_for, wal_path_for};
use maybms_worldset::OrSetRelation;

pub const CENSUS_ROWS: usize = 4000;
pub const STATES: i64 = 51;
pub const KV_BASE_ROWS: i64 = 1000;
/// Auto-commits left in the big image's WAL after its checkpoint.
pub const TAIL_COMMITS: usize = 2000;
/// Every this-many-th tail commit is an `UPDATE` of a base key; the rest
/// insert the next fresh key.
pub const TAIL_UPDATE_EVERY: usize = 50;
pub const OBS_ROWS: i64 = 2000;
pub const OBS_TAIL_ROWS: i64 = 200;
pub const K_DOMAIN: u64 = 200;
pub const V_DOMAIN: u64 = 10;
/// Keys the write workloads insert start here, clear of the image's.
pub const INSERT_KEY_BASE: i64 = 1_000_000;
/// The server caps rendered tables at this many rows (`conn.rs`).
pub const RENDER_ROW_LIMIT: usize = 1000;

/// splitmix64: the harness's only randomness, so a seed fixes the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImageKind {
    Big,
    Small,
}

/// Seconds each step of building an image took.
#[derive(Clone, Copy, Default)]
pub struct BuildTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub checkpoint_s: f64,
    pub tail_s: f64,
}

/// A database image on disk plus the harness's own model of its content.
pub struct Image {
    pub kind: ImageKind,
    pub path: PathBuf,
    pub times: BuildTimes,
    /// Snapshot file bytes right after the checkpoint.
    pub checkpoint_bytes: u64,
    /// Snapshot + overlay + WAL bytes of the finished image.
    pub disk_bytes: u64,
    /// `Relation::size_bytes` of the same data as one certain world.
    pub user_bytes: u64,
    /// Big image: `kv[k]` is the value of key `k` once the tail is applied.
    pub kv: Vec<i64>,
    /// Big image: the noisy census, kept for the `to_wsd` reference timing.
    pub census: Option<OrSetRelation>,
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Builds the image of `kind` at `dir/image.maybms` and closes it.
pub fn build_image(kind: ImageKind, seed: u64, dir: &Path) -> Image {
    std::fs::create_dir_all(dir).expect("create image directory");
    let path = dir.join("image.maybms");
    for p in [path.clone(), wal_path_for(&path), delta_path_for(&path)] {
        let _ = std::fs::remove_file(p);
    }
    let mut image = match kind {
        ImageKind::Big => build_big(seed, &path),
        ImageKind::Small => build_small(seed, &path),
    };
    image.disk_bytes =
        file_len(&path) + file_len(&wal_path_for(&path)) + file_len(&delta_path_for(&path));
    image
}

fn build_big(seed: u64, path: &Path) -> Image {
    let mut rng = Rng::new(seed ^ 0x6B76);
    let mut times = BuildTimes::default();

    let t = Instant::now();
    let base = generate(CENSUS_ROWS, seed);
    let spec = NoiseSpec {
        rate: 0.01,
        max_width: 4,
        weighted: true,
        seed: seed ^ 0xC0FFEE,
    };
    let noisy = inject(&base, spec).expect("inject noise");
    let first_world = noisy.first_world();
    times.generate_s = secs(t);

    let t = Instant::now();
    let mut s = Session::open(path).expect("open image");
    load_into_session(&mut s, &OrSetRelation::from_relation(&first_world), 1000)
        .expect("load census1");
    exec(&mut s, "ALTER TABLE census RENAME TO census1");
    load_into_session(&mut s, &noisy, 1000).expect("load census");
    exec(&mut s, "CREATE TABLE states (fip INT, sname TEXT)");
    let rows: Vec<String> = (0..STATES)
        .map(|i| format!("({i}, '{}')", state_name(i)))
        .collect();
    exec(
        &mut s,
        &format!("INSERT INTO states VALUES {}", rows.join(", ")),
    );
    exec(&mut s, "CREATE TABLE kv (k INT, v INT)");
    let mut kv: Vec<i64> = (0..KV_BASE_ROWS).map(|_| rng.below(100) as i64).collect();
    let rows: Vec<String> = kv
        .iter()
        .enumerate()
        .map(|(k, v)| format!("({k}, {v})"))
        .collect();
    exec(
        &mut s,
        &format!("INSERT INTO kv VALUES {}", rows.join(", ")),
    );
    times.load_s = secs(t);

    let t = Instant::now();
    exec(&mut s, "CHECKPOINT");
    times.checkpoint_s = secs(t);
    let checkpoint_bytes = file_len(path);

    let t = Instant::now();
    for i in 0..TAIL_COMMITS {
        let v = rng.below(100) as i64;
        if i % TAIL_UPDATE_EVERY == TAIL_UPDATE_EVERY - 1 {
            let k = rng.below(KV_BASE_ROWS as u64) as usize;
            exec(&mut s, &format!("UPDATE kv SET v = {v} WHERE k = {k}"));
            kv[k] = v;
        } else {
            exec(
                &mut s,
                &format!("INSERT INTO kv VALUES ({}, {v})", kv.len()),
            );
            kv.push(v);
        }
    }
    times.tail_s = secs(t);
    drop(s);

    let kv_rel = relation(
        &[("k", ColumnType::Int), ("v", ColumnType::Int)],
        kv.iter()
            .enumerate()
            .map(|(k, v)| vec![Value::Int(k as i64), Value::Int(*v)])
            .collect(),
    );
    let states_rel = relation(
        &[("fip", ColumnType::Int), ("sname", ColumnType::Str)],
        (0..STATES)
            .map(|i| vec![Value::Int(i), Value::str(state_name(i))])
            .collect(),
    );
    let user_bytes = 2 * first_world.size_bytes() + kv_rel.size_bytes() + states_rel.size_bytes();
    Image {
        kind: ImageKind::Big,
        path: path.to_path_buf(),
        times,
        checkpoint_bytes,
        disk_bytes: 0,
        user_bytes: user_bytes as u64,
        kv,
        census: Some(noisy),
    }
}

fn build_small(seed: u64, path: &Path) -> Image {
    let mut rng = Rng::new(seed ^ 0x0B5);
    let mut times = BuildTimes::default();

    // one row: its first-world values and its INSERT tuple literal
    let t = Instant::now();
    let mut first_world = Vec::with_capacity(OBS_ROWS as usize);
    let mut literals = Vec::with_capacity(OBS_ROWS as usize);
    for oid in 0..OBS_ROWS {
        let (k, k_lit) = two_way_orset(&mut rng, K_DOMAIN);
        let (v, v_lit) = two_way_orset(&mut rng, V_DOMAIN);
        first_world.push(vec![Value::Int(oid), Value::Int(k), Value::Int(v)]);
        literals.push(format!("({oid}, {k_lit}, {v_lit})"));
    }
    times.generate_s = secs(t);

    let t = Instant::now();
    let mut s = Session::open(path).expect("open image");
    exec(&mut s, "CREATE TABLE obs (oid INT, k INT, v INT)");
    let (bulk, tail) = literals.split_at((OBS_ROWS - OBS_TAIL_ROWS) as usize);
    for chunk in bulk.chunks(100) {
        exec(
            &mut s,
            &format!("INSERT INTO obs VALUES {}", chunk.join(", ")),
        );
    }
    times.load_s = secs(t);

    let t = Instant::now();
    exec(&mut s, "CHECKPOINT");
    times.checkpoint_s = secs(t);
    let checkpoint_bytes = file_len(path);

    let t = Instant::now();
    for row in tail {
        exec(&mut s, &format!("INSERT INTO obs VALUES {row}"));
    }
    times.tail_s = secs(t);
    drop(s);

    let cols = [
        ("oid", ColumnType::Int),
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
    ];
    Image {
        kind: ImageKind::Small,
        path: path.to_path_buf(),
        times,
        checkpoint_bytes,
        disk_bytes: 0,
        user_bytes: relation(&cols, first_world).size_bytes() as u64,
        kv: Vec::new(),
        census: None,
    }
}

/// A weighted or-set of two distinct values of `0..domain`: the first
/// alternative and the `{a: p, b: 1-p}` literal.
fn two_way_orset(rng: &mut Rng, domain: u64) -> (i64, String) {
    let a = rng.below(domain);
    let b = (a + 1 + rng.below(domain - 1)) % domain;
    let p = 10 + rng.below(81);
    (
        a as i64,
        format!("{{{a}: 0.{p:02}, {b}: 0.{:02}}}", 100 - p),
    )
}

pub fn state_name(fip: i64) -> String {
    format!("state{fip:02}")
}

fn exec(s: &mut Session, sql: &str) {
    if let Err(e) = s.execute(sql) {
        panic!(
            "image statement failed: {e}\n  {}",
            &sql[..sql.len().min(200)]
        );
    }
}

pub fn relation(cols: &[(&str, ColumnType)], rows: Vec<Vec<Value>>) -> Relation {
    let schema = Schema::new(cols.to_vec());
    Relation::from_rows_unchecked(schema, rows.into_iter().map(Tuple::new).collect())
}

/// The reply text the server sends for a table with these rows.
pub fn render_table(cols: &[(&str, ColumnType)], rows: Vec<Vec<Value>>) -> String {
    pretty::render(&relation(cols, rows), RENDER_ROW_LIMIT)
}

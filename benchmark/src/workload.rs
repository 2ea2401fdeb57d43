//! The six workloads: what each client sends and what it must get back.

use std::sync::Arc;

use maybms_relational::{pretty, ColumnType, Value};
use maybms_sql::{QueryResult, Session};

use crate::data::{
    render_table, state_name, Image, ImageKind, Rng, INSERT_KEY_BASE, KV_BASE_ROWS, K_DOMAIN,
    RENDER_ROW_LIMIT, STATES, V_DOMAIN,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Read,
    Write,
}

/// One statement shape of a workload; latencies and layer times are kept
/// per template.
pub struct Template {
    pub name: &'static str,
    pub kind: Kind,
}

const fn read(name: &'static str) -> Template {
    Template {
        name,
        kind: Kind::Read,
    }
}

const fn write(name: &'static str) -> Template {
    Template {
        name,
        kind: Kind::Write,
    }
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub image: ImageKind,
    /// Closed-loop client threads (at most the machine's two cores).
    pub clients: usize,
    /// Connections each client holds; it uses one at a time.
    pub conns: usize,
    pub templates: &'static [Template],
    /// The templates of one round, in sending order. Shares are uneven
    /// where two templates of a class cost differently, so that the
    /// class's median falls inside one template's cluster and not in the
    /// gap between two.
    pub round: &'static [usize],
}

const CENSUS_TEMPLATES: &[Template] = &[
    read("q1_select"),
    read("q2_project"),
    read("q3_join"),
    read("q4_union"),
    read("q5_except"),
    read("possible_prob"),
    read("expected_sum"),
];

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "point_read",
        why: "one-row reads on a big database: fixed per-statement cost (frame, parse, snapshot, plan, copies) is all there is",
        image: ImageKind::Big,
        clients: 1,
        conns: 1,
        templates: &[read("states_point"), read("kv_point")],
        round: &[0, 1, 1],
    },
    Spec {
        name: "census_queries",
        why: "the E3 suite plus confidence on the noisy census: core::exec operators over open cells do most of the work",
        image: ImageKind::Big,
        clients: 1,
        conns: 1,
        templates: CENSUS_TEMPLATES,
        round: &[0, 1, 2, 3, 4, 5, 6],
    },
    Spec {
        name: "one_world_queries",
        why: "the same statements on the census's first world: bypass for open-cell work, denominator of one_world_ratio",
        image: ImageKind::Big,
        clients: 1,
        conns: 1,
        templates: CENSUS_TEMPLATES,
        round: &[0, 1, 2, 3, 4, 5, 6],
    },
    Spec {
        name: "confidence",
        why: "many uncertain rows project onto few correlated answers on a small database: core::prob has its largest share",
        image: ImageKind::Small,
        clients: 1,
        conns: 1,
        templates: &[
            read("possible_v_prob"),
            read("possible_k_prob"),
            read("expected_count"),
            read("prob_conjunction"),
        ],
        round: &[0, 1, 2, 3, 1],
    },
    Spec {
        name: "commit_2w",
        why: "two clients auto-commit disjoint inserts: group commit, wire encoding, WAL append and fsync; executor idle",
        image: ImageKind::Big,
        clients: 2,
        conns: 1,
        templates: &[write("insert")],
        round: &[0],
    },
    Spec {
        name: "mixed_rw",
        why: "a write on one connection, then a read of it on another: each write republishes a snapshot, each read installs one",
        image: ImageKind::Big,
        clients: 1,
        conns: 2,
        templates: &[write("insert"), write("update"), read("acked_point")],
        round: &[0, 2, 0, 2, 1, 2],
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub const INSERT_ACK: &str = "inserted 1 tuple(s) into kv";
pub const UPDATE_ACK: &str = "updated 1 tuple(s) in kv (1 in every world, 0 conditionally)";

/// The value the write workloads store under an inserted key.
fn inserted_value(key: i64) -> i64 {
    key % 97
}

/// One statement to send, with the only reply that counts as correct.
pub struct Stmt {
    pub tpl: usize,
    /// Which of the client's connections carries it.
    pub conn: usize,
    pub sql: String,
    pub expect: Arc<str>,
}

/// Statements with a fixed answer on the image, per template.
pub type Pools = Vec<Vec<(String, Arc<str>)>>;

/// The fixed read statements of `spec`, answered once by `oracle` — an
/// embedded session over the same generated image — or, for `kv` and
/// `states` point reads, by the harness's own model of those tables.
pub fn build_pools(spec: &Spec, image: &Image, seed: u64, oracle: &mut Session) -> Pools {
    let mut rng = Rng::new(seed ^ 0x9001);
    let ask = |oracle: &mut Session, sql: String| -> (String, Arc<str>) {
        let text = match oracle.execute(&sql) {
            Ok(QueryResult::Table(t)) => pretty::render(&t, RENDER_ROW_LIMIT),
            Ok(other) => panic!("oracle: {sql} is not tabular: {other:?}"),
            Err(e) => panic!("oracle: {sql} failed: {e}"),
        };
        (sql, text.into())
    };
    match spec.name {
        "point_read" => vec![
            (0..STATES)
                .map(|fip| {
                    let text = render_table(
                        &[("sname", ColumnType::Str)],
                        vec![vec![Value::str(state_name(fip))]],
                    );
                    (
                        format!("SELECT CERTAIN sname FROM states WHERE fip = {fip}"),
                        text.into(),
                    )
                })
                .collect(),
            (0..image.kv.len())
                .map(|k| kv_read(k as i64, image.kv[k]))
                .collect(),
        ],
        "census_queries" | "one_world_queries" => {
            let t = if spec.name == "census_queries" {
                "census"
            } else {
                "census1"
            };
            [
                format!("SELECT POSSIBLE * FROM {t} WHERE age = 30"),
                format!("SELECT POSSIBLE sex, educ, incwage FROM {t} WHERE age >= 65"),
                format!(
                    "SELECT POSSIBLE statefip, age, incwage, sname FROM {t}, states \
                     WHERE age = 40 AND statefip = fip"
                ),
                format!(
                    "SELECT POSSIBLE * FROM {t} WHERE age < 5 UNION SELECT * FROM {t} WHERE age > 85"
                ),
                format!(
                    "SELECT POSSIBLE * FROM {t} WHERE age = 20 \
                     EXCEPT SELECT * FROM {t} WHERE age = 20 AND sex = 1"
                ),
                format!("SELECT POSSIBLE sex, marst, PROB() FROM {t} WHERE age = 30"),
                format!("SELECT EXPECTED SUM(incwage) FROM {t} WHERE age >= 65"),
            ]
            .into_iter()
            .map(|sql| vec![ask(oracle, sql)])
            .collect()
        }
        "confidence" => {
            let conjunctions: Vec<String> = (0..16)
                .map(|_| {
                    let (k, v) = (rng.below(K_DOMAIN), rng.below(V_DOMAIN));
                    format!("SELECT PROB() FROM obs WHERE k = {k} AND v = {v}")
                })
                .collect();
            vec![
                vec!["SELECT POSSIBLE v, PROB() FROM obs".to_string()],
                (0..V_DOMAIN)
                    .map(|v| format!("SELECT POSSIBLE k, PROB() FROM obs WHERE v = {v}"))
                    .collect(),
                // cut-offs around half the domain: one template, one cost
                (0..10)
                    .map(|i| format!("SELECT EXPECTED COUNT() FROM obs WHERE k < {}", 90 + i * 2))
                    .collect(),
                conjunctions,
            ]
            .into_iter()
            .map(|pool| pool.into_iter().map(|sql| ask(oracle, sql)).collect())
            .collect()
        }
        _ => Vec::new(),
    }
}

fn kv_read(k: i64, v: i64) -> (String, Arc<str>) {
    let text = render_table(&[("v", ColumnType::Int)], vec![vec![Value::Int(v)]]);
    (
        format!("SELECT CERTAIN v FROM kv WHERE k = {k}"),
        text.into(),
    )
}

/// What one client sends next.
pub struct Script {
    spec: &'static Spec,
    client: usize,
    rng: Rng,
    /// Statements generated so far.
    n: u64,
    pools: Arc<Pools>,
    /// `mixed_rw`: the key and value of the newest acknowledged write —
    /// what the next read, on the other connection, must see.
    newest: (i64, i64),
    /// Keys this client inserted and got an ack for.
    pub acked_keys: Vec<i64>,
}

impl Script {
    /// `kv0` is the image's value of `kv` key 0, which `mixed_rw` reads
    /// until its first write is acknowledged.
    pub fn new(
        spec: &'static Spec,
        client: usize,
        seed: u64,
        pools: Arc<Pools>,
        kv0: i64,
    ) -> Script {
        let rng = Rng::new(seed ^ (0xC11E + client as u64));
        Script {
            spec,
            client,
            rng,
            n: 0,
            pools,
            newest: (0, kv0),
            acked_keys: Vec::new(),
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let n = self.n;
        self.n += 1;
        let tpl = self.spec.round[(n % self.spec.round.len() as u64) as usize];
        match (self.spec.name, tpl) {
            ("commit_2w", _) => insert(INSERT_KEY_BASE + (n * 2 + self.client as u64) as i64, 0),
            // write on connection 0, then read what it wrote on connection 1
            ("mixed_rw", 0) => insert(INSERT_KEY_BASE + n as i64, 0),
            ("mixed_rw", 1) => {
                let k = self.rng.below(KV_BASE_ROWS as u64);
                let v = self.rng.below(100);
                Stmt {
                    tpl,
                    conn: 0,
                    sql: format!("UPDATE kv SET v = {v} WHERE k = {k}"),
                    expect: UPDATE_ACK.into(),
                }
            }
            ("mixed_rw", _) => {
                let (sql, expect) = kv_read(self.newest.0, self.newest.1);
                Stmt {
                    tpl,
                    conn: 1,
                    sql,
                    expect,
                }
            }
            _ => {
                let pool = &self.pools[tpl];
                let (sql, expect) = &pool[self.rng.below(pool.len() as u64) as usize];
                Stmt {
                    tpl,
                    conn: 0,
                    sql: sql.clone(),
                    expect: Arc::clone(expect),
                }
            }
        }
    }

    /// Records that the server acknowledged the write `stmt`.
    pub fn acked(&mut self, stmt: &Stmt) {
        if let Some(key) = number_after(&stmt.sql, "INSERT INTO kv VALUES (") {
            self.acked_keys.push(key);
            self.newest = (key, inserted_value(key));
        } else if let (Some(v), Some(k)) = (
            number_after(&stmt.sql, "SET v = "),
            number_after(&stmt.sql, "WHERE k = "),
        ) {
            self.newest = (k, v);
        }
    }
}

fn insert(key: i64, conn: usize) -> Stmt {
    Stmt {
        tpl: 0,
        conn,
        sql: format!("INSERT INTO kv VALUES ({key}, {})", inserted_value(key)),
        expect: INSERT_ACK.into(),
    }
}

/// The integer that follows `marker` in `sql`.
fn number_after(sql: &str, marker: &str) -> Option<i64> {
    let rest = &sql[sql.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

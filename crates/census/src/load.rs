//! Loading census data into the different representations.

use maybms_core::wsd::Wsd;
use maybms_relational::{Relation, Result, Value};
use maybms_sql::ast::{InsertValue, Statement};
use maybms_sql::{Session, SessionResult};
use maybms_worldset::{OrSetCell, OrSetRelation};

use crate::constraints::CENSUS_REL;
use crate::schema::census_schema;

/// Builds the WSD of an or-set census relation: each uncertain field
/// becomes its own single-field component (the maximal decomposition),
/// normalized as an SQL `INSERT` of the same rows leaves it.
pub fn to_wsd(os: &OrSetRelation) -> Result<Wsd> {
    let mut wsd = Wsd::new();
    wsd.add_relation(CENSUS_REL, census_schema())?;
    for row in os.rows() {
        wsd.push_orset(CENSUS_REL, row.to_vec())?;
    }
    maybms_core::normalize::normalize(&mut wsd);
    Ok(wsd)
}

/// Loads a certain relation as a (trivial, one-world) WSD — the baseline
/// "single world" database of E3.
pub fn certain_to_wsd(r: &Relation) -> Result<Wsd> {
    let mut wsd = Wsd::new();
    wsd.add_relation(CENSUS_REL, census_schema())?;
    for t in r.iter() {
        wsd.push_certain(CENSUS_REL, t.values().to_vec())?;
    }
    Ok(wsd)
}

/// End-to-end convenience: generate, add noise, decompose.
pub fn noisy_census_wsd(n: usize, spec: crate::noise::NoiseSpec, seed: u64) -> Result<Wsd> {
    let base = crate::generate::generate(n, seed);
    let os = crate::noise::inject(&base, spec)?;
    to_wsd(&os)
}

/// One INSERT statement for an or-set census row — no SQL text involved.
pub fn row_statement(row: &[OrSetCell]) -> Statement {
    let vals: Vec<InsertValue> = row
        .iter()
        .map(|cell| match cell.certain_value() {
            Some(v) => InsertValue::Certain(v.clone()),
            None => InsertValue::Weighted(cell.alternatives().to_vec()),
        })
        .collect();
    Statement::Insert { table: CENSUS_REL.into(), rows: vec![vals] }
}

/// The SQL bulk loader: creates the census table in `session` and loads
/// `os` with **prepared statements + one transaction per `batch` rows**.
///
/// Certain rows (the vast majority of the workload) go through a single
/// prepared `INSERT … VALUES (?, …, ?)` — parsed once, bound per row;
/// rows with or-set cells are constructed as statements directly (their
/// alternative lists vary in width, which `?` scalars cannot express).
/// Each batch commits as one WAL group, so a durable session pays one
/// fsync per batch instead of one per row — this replaced the old
/// re-parse-per-row autocommit loop (the before/after is recorded in
/// `BENCH_e7.json` under `census_load/…`).
pub fn load_into_session(
    session: &mut Session,
    os: &OrSetRelation,
    batch: usize,
) -> SessionResult<()> {
    let columns = census_schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    session.run(&Statement::CreateTable { name: CENSUS_REL.into(), columns })?;
    let placeholders = vec!["?"; census_schema().len()].join(", ");
    let prepared =
        session.prepare(&format!("INSERT INTO {CENSUS_REL} VALUES ({placeholders})"))?;
    let mut params: Vec<Value> = Vec::with_capacity(census_schema().len());
    for chunk in os.rows().chunks(batch.max(1)) {
        let mut txn = session.transaction()?;
        for row in chunk {
            if row.iter().all(OrSetCell::is_certain) {
                params.clear();
                params.extend(row.iter().map(|c| c.certain_value().expect("certain").clone()));
                txn.execute_prepared(&prepared, &params)?;
            } else {
                txn.run(&row_statement(row))?;
            }
        }
        txn.commit()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::noise::{inject, NoiseSpec};

    #[test]
    fn wsd_components_match_uncertain_fields() {
        let base = generate(100, 1);
        let os = inject(&base, NoiseSpec { rate: 0.02, ..Default::default() }).unwrap();
        let wsd = to_wsd(&os).unwrap();
        wsd.validate().unwrap();
        assert_eq!(wsd.num_components(), os.uncertain_fields());
        // world counts agree
        assert!((wsd.world_count().log2() - os.world_count_log2()).abs() < 1e-6);
    }

    #[test]
    fn small_noisy_wsd_enumerates_to_orset_expansion() {
        let base = generate(4, 9);
        let os = inject(&base, NoiseSpec { rate: 0.02, max_width: 2, ..Default::default() })
            .unwrap();
        let wsd = to_wsd(&os).unwrap();
        let lhs = wsd.to_worldset(1 << 16).unwrap();
        let rhs =
            maybms_worldset::enumerate::expand(&os, CENSUS_REL, Default::default()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn sql_loader_matches_direct_decomposition() {
        let base = generate(60, 3);
        let os = inject(&base, NoiseSpec { rate: 0.05, ..Default::default() }).unwrap();
        // the prepared + transactional loader must produce the same
        // decomposition (byte-identical under the codec) as push_orset
        let direct = to_wsd(&os).unwrap();
        let mut session = Session::new();
        load_into_session(&mut session, &os, 16).unwrap();
        assert!(!session.in_transaction(), "loader leaves no transaction open");
        assert_eq!(
            maybms_core::codec::encode_wsd(&direct),
            maybms_core::codec::encode_wsd(session.wsd()),
        );
    }

    #[test]
    fn sql_loader_batches_commits_on_durable_sessions() {
        let base = generate(30, 4);
        let os = inject(&base, NoiseSpec { rate: 0.05, ..Default::default() }).unwrap();
        let path = std::env::temp_dir().join(format!(
            "maybms-census-load-{}.maybms",
            std::process::id()
        ));
        let wal = maybms_storage::wal_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        let mut session = Session::open(&path).unwrap();
        load_into_session(&mut session, &os, 10).unwrap();
        // 1 fsync for CREATE TABLE + one per 10-row batch — not one per row
        assert_eq!(session.wal_sync_count(), Some(1 + 30u64.div_ceil(10)));
        drop(session);
        let recovered = Session::open(&path).unwrap();
        assert_eq!(
            maybms_core::codec::encode_wsd(&to_wsd(&os).unwrap()),
            maybms_core::codec::encode_wsd(recovered.wsd()),
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn certain_wsd_has_one_world() {
        let base = generate(20, 2);
        let wsd = certain_to_wsd(&base).unwrap();
        assert_eq!(wsd.world_count().to_u64(), Some(1));
        assert_eq!(wsd.num_components(), 0);
    }
}

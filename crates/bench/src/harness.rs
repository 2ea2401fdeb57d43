//! Experiment runners E1–E4 (see DESIGN.md §3 for the index).

use std::time::{Duration, Instant};

use maybms_census::{
    census_schema, certain_to_wsd, cleaning_constraints, generate, inject, to_wsd, NoiseSpec,
    CENSUS_REL,
};
use maybms_core::chase::clean;
use maybms_core::exec::{eval, WorkerPool};
use maybms_core::prob;
use maybms_core::wsd::Wsd;
use maybms_relational::{Relation, Result};
use maybms_worldset::eval::eval_in_world;
use maybms_worldset::World;

use crate::queries::{query_suite, states_relation, STATES_REL};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

// ---------------------------------------------------------------------
// E1: storage overhead
// ---------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct E1Row {
    pub rate: f64,
    pub uncertain_fields: usize,
    /// log10 of the represented world count.
    pub worlds_log10: f64,
    /// Human summary of the world count (exact for small, ~10^k for huge).
    pub worlds: String,
    pub original_bytes: usize,
    pub wsd_bytes: usize,
    /// (wsd − original) / original, in percent.
    pub overhead_pct: f64,
    pub build_time: Duration,
}

/// E1: storage of the decomposition vs the original relation across noise
/// rates. Paper headline: >2^624449 worlds stored "with a space overhead of
/// only 2% over the original relation".
pub fn e1_storage(n: usize, rates: &[f64], max_width: usize, seed: u64) -> Result<Vec<E1Row>> {
    let base = generate(n, seed);
    let original_bytes = base.size_bytes();
    let mut out = Vec::with_capacity(rates.len());
    for &rate in rates {
        let spec = NoiseSpec { rate, max_width, weighted: false, seed: seed ^ 0xA5A5 };
        let os = inject(&base, spec)?;
        let (wsd, build_time) = timed(|| to_wsd(&os));
        let wsd = wsd?;
        let count = wsd.world_count();
        // the templates store the certain data; components the alternatives
        let wsd_bytes = wsd.size_bytes();
        out.push(E1Row {
            rate,
            uncertain_fields: os.uncertain_fields(),
            worlds_log10: count.log10(),
            worlds: count.to_string(),
            original_bytes,
            wsd_bytes,
            overhead_pct: 100.0 * (wsd_bytes as f64 - original_bytes as f64)
                / original_bytes as f64,
            build_time,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E2: data cleaning
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct E2Row {
    pub rate: f64,
    pub uncertain_fields: usize,
    pub worlds_before_log10: f64,
    pub worlds_after_log10: f64,
    pub deleted_row_groups: usize,
    pub removed_probability: f64,
    pub chase_time: Duration,
}

/// E2: chase-based cleaning with the census constraints across noise rates.
pub fn e2_cleaning(n: usize, rates: &[f64], seed: u64) -> Result<Vec<E2Row>> {
    let base = generate(n, seed);
    let constraints = cleaning_constraints();
    let mut out = Vec::with_capacity(rates.len());
    for &rate in rates {
        let spec = NoiseSpec { rate, max_width: 4, weighted: false, seed: seed ^ 0x5A5A };
        let os = inject(&base, spec)?;
        let mut wsd = to_wsd(&os)?;
        let before = wsd.world_count().log10();
        let (report, chase_time) = timed(|| clean(&mut wsd, &constraints));
        let report = report?;
        out.push(E2Row {
            rate,
            uncertain_fields: os.uncertain_fields(),
            worlds_before_log10: before,
            worlds_after_log10: wsd.world_count().log10(),
            deleted_row_groups: report.deleted_rows,
            removed_probability: report.removed_probability,
            chase_time,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E3: query evaluation vs conventional single-world processing
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct E3Row {
    pub query: &'static str,
    pub description: &'static str,
    pub single_world: Duration,
    pub wsd: Duration,
    /// wsd / single_world.
    pub ratio: f64,
    pub result_tuples: usize,
}

/// The prepared E3 inputs: a noisy decomposition and the corresponding
/// single world (conventional baseline), both with the states lookup table.
pub struct E3Setup {
    pub wsd: Wsd,
    pub single_world: World,
}

/// Builds the E3 inputs once (expensive) so benches can reuse them.
pub fn e3_setup(n: usize, rate: f64, seed: u64) -> Result<E3Setup> {
    let base = generate(n, seed);
    let spec = NoiseSpec { rate, max_width: 4, weighted: false, seed: seed ^ 0x1111 };
    let os = inject(&base, spec)?;
    let mut wsd = to_wsd(&os)?;
    add_states(&mut wsd)?;
    let mut single_world = World::single(CENSUS_REL, os.first_world());
    single_world.put(STATES_REL, states_relation());
    Ok(E3Setup { wsd, single_world })
}

fn add_states(wsd: &mut Wsd) -> Result<()> {
    let states = states_relation();
    wsd.add_relation(STATES_REL, states.schema().clone())?;
    for t in states.iter() {
        wsd.push_certain(STATES_REL, t.values().to_vec())?;
    }
    Ok(())
}

/// E3: run the query suite both ways. Paper headline: "processing time on
/// large world-sets is very close to that on a single world".
pub fn e3_queries(setup: &E3Setup) -> Result<Vec<E3Row>> {
    let mut out = Vec::new();
    for q in query_suite() {
        let (conventional, t_single) = timed(|| eval_in_world(&q.query, &setup.single_world));
        let conventional: Relation = conventional?;
        let (on_wsd, t_wsd) = timed(|| eval(&q.query, &setup.wsd));
        let on_wsd = on_wsd?;
        out.push(E3Row {
            query: q.name,
            description: q.description,
            single_world: t_single,
            wsd: t_wsd,
            ratio: t_wsd.as_secs_f64() / t_single.as_secs_f64().max(1e-9),
            result_tuples: on_wsd
                .relation("result")
                .map(|r| r.tuples.len())
                .unwrap_or(conventional.len()),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E4: confidence computation (prob())
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct E4Row {
    pub label: String,
    pub answers: usize,
    pub exact: bool,
    pub time: Duration,
}

/// E4: `prob()` queries. Confidence over independent components is fast;
/// forced correlation (merged components) degrades gracefully into the
/// Monte-Carlo estimator.
pub fn e4_probability(n: usize, rates: &[f64], seed: u64) -> Result<Vec<E4Row>> {
    use maybms_core::algebra::Query;
    use maybms_relational::Expr;
    let base = generate(n, seed);
    let mut out = Vec::new();
    for &rate in rates {
        let spec = NoiseSpec { rate, max_width: 3, weighted: true, seed: seed ^ 0x77 };
        let os = inject(&base, spec)?;
        let wsd = to_wsd(&os)?;
        let q = Query::table(CENSUS_REL)
            .select(Expr::col("age").eq(Expr::lit(30i64)))
            .project(["sex", "marst"]);
        let answer = eval(&q, &wsd)?;
        let (conf, time) = timed(|| prob::tuple_confidence_opts_in(
            &answer,
            "result",
            prob::ProbOptions::default(),
            WorkerPool::sequential(),
        ));
        let conf = conf?;
        out.push(E4Row {
            label: format!("rate {:.3}% independent", rate * 100.0),
            answers: conf.len(),
            exact: conf.iter().all(|c| c.exact),
            time,
        });
    }
    // forced-correlation variant: merge a slice of components
    let spec = NoiseSpec { rate: 0.01, max_width: 3, weighted: true, seed: seed ^ 0x99 };
    let os = inject(&base, spec)?;
    let mut wsd = to_wsd(&os)?;
    // Merge components until the joint size approaches 2^17 rows — enough
    // correlation to force the estimator without materializing a monster.
    let live = wsd.live_components();
    let mut chosen: Vec<usize> = Vec::new();
    let mut joint: u64 = 1;
    for &c in &live {
        let rows = wsd.component(c).expect("live").num_rows() as u64;
        if joint.saturating_mul(rows) > (1 << 17) {
            break;
        }
        joint *= rows;
        chosen.push(c);
    }
    let k = chosen.len();
    if k >= 2 {
        wsd.merge_components(&chosen)?;
    }
    let (conf, time) = timed(|| prob::tuple_confidence_opts_in(
        &wsd,
        CENSUS_REL,
        prob::ProbOptions { exact_cap: 1 << 16, ..Default::default() },
        WorkerPool::sequential(),
    ));
    let conf = conf?;
    out.push(E4Row {
        label: format!("forced correlation ({k} components merged)"),
        answers: conf.len(),
        exact: conf.iter().all(|c| c.exact),
        time,
    });
    Ok(out)
}

// ---------------------------------------------------------------------
// E5: the paper's worked example (kept here so benches can track it)
// ---------------------------------------------------------------------

/// Runs the §2 pipeline end to end and returns P(ultrasound); must be 0.4.
pub fn e5_demo() -> Result<f64> {
    use maybms_core::algebra::Query;
    use maybms_relational::Expr;
    let wsd = maybms_core::examples::medical_wsd();
    let q = Query::table("R")
        .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
        .project(["test"]);
    let ans = eval(&q, &wsd)?;
    let conf = ans.tuple_confidence("result")?;
    Ok(conf.first().map(|(_, p)| *p).unwrap_or(0.0))
}

/// A tiny sanity helper used by binaries: the schema of the census table.
pub fn census_arity() -> usize {
    census_schema().len()
}

/// Baseline single-world load used by E3-style comparisons elsewhere.
pub fn baseline_wsd(n: usize, seed: u64) -> Result<Wsd> {
    certain_to_wsd(&generate(n, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_overhead_small_and_monotone() {
        let rows = e1_storage(300, &[0.001, 0.01, 0.05], 4, 7).unwrap();
        assert_eq!(rows.len(), 3);
        // worlds grow with rate, overhead grows with rate
        assert!(rows[0].worlds_log10 <= rows[1].worlds_log10);
        assert!(rows[1].worlds_log10 <= rows[2].worlds_log10);
        assert!(rows[0].overhead_pct <= rows[2].overhead_pct + 1e-9);
        // the paper's regime (~0.1% noise) has tiny overhead; at 1% it is
        // still a few percent
        assert!(rows[1].overhead_pct < 25.0, "overhead {}", rows[1].overhead_pct);
        // huge world counts from little noise
        assert!(rows[2].worlds_log10 > 10.0);
    }

    #[test]
    fn e2_cleaning_runs_and_reports() {
        let rows = e2_cleaning(200, &[0.01], 11).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.worlds_after_log10 <= r.worlds_before_log10 + 1e-9);
        assert!(r.removed_probability >= 0.0 && r.removed_probability < 1.0);
    }

    #[test]
    fn e3_all_queries_run() {
        let setup = e3_setup(150, 0.01, 3).unwrap();
        let rows = e3_queries(&setup).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.ratio.is_finite());
        }
    }

    #[test]
    fn e4_probability_runs() {
        let rows = e4_probability(120, &[0.005, 0.02], 5).unwrap();
        assert_eq!(rows.len(), 3);
        // the independent cases are exact
        assert!(rows[0].exact);
        assert!(rows[1].exact);
    }

    #[test]
    fn e5_is_exactly_the_papers_number() {
        assert!((e5_demo().unwrap() - 0.4).abs() < 1e-12);
    }
}

//! The census scenario (paper §1): generate a census-like table, replace
//! randomly picked values with or-sets, decompose, report the storage
//! overhead, then clean the world-set by enforcing real-life integrity
//! constraints.
//!
//! Run with: `cargo run --release --example census_cleaning [rows]`

use maybms_census::{cleaning_constraints, generate, inject, to_wsd, NoiseSpec, CENSUS_REL};
use maybms_core::chase::clean;
use maybms_core::exec::eval;
use maybms_relational::Expr;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    // 1. Generate and add noise.
    let base = generate(n, 42);
    let spec = NoiseSpec { rate: 0.005, max_width: 4, weighted: false, seed: 7 };
    let os = inject(&base, spec).expect("noise");
    println!(
        "census: {n} records × 50 columns; {} fields replaced by or-sets",
        os.uncertain_fields()
    );

    // 2. Decompose.
    let mut wsd = to_wsd(&os).expect("decompose");
    let count = wsd.world_count();
    let orig = base.size_bytes();
    let dec = wsd.size_bytes();
    println!(
        "world-set: {} worlds (≈10^{:.0}); representation {} vs original {} ({:+.2}% overhead)",
        count,
        count.log10(),
        dec,
        orig,
        100.0 * (dec as f64 - orig as f64) / orig as f64
    );

    // 3. Clean: age<15 ⇒ single, age<14 ⇒ unemployed & no wage, and the
    //    (serial, pernum) key.
    let report = clean(&mut wsd, &cleaning_constraints()).expect("chase");
    println!(
        "cleaning: {} violating row group(s) removed across {} checks; \
         P(inconsistent world) = {:.4}; world count now ≈10^{:.0}",
        report.deleted_rows,
        report.checks,
        report.removed_probability,
        wsd.world_count().log10()
    );

    // 4. Ask a probabilistic question of the cleaned data.
    let q = maybms_core::algebra::Query::table(CENSUS_REL)
        .select(Expr::col("age").lt(Expr::lit(15i64)))
        .project(["marst"]);
    let answer = eval(&q, &wsd).expect("query");
    let conf = answer.tuple_confidence("result").expect("confidence");
    println!("\nmarital status of persons younger than 15 (after cleaning):");
    for (t, p) in conf {
        println!("  marst = {}  with probability {p:.4}", t[0]);
    }
    println!("(cleaning makes 'single' the only possible status, as enforced)");
}

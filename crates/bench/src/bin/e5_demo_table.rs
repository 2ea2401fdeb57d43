//! E5: the paper's §2 worked example, end to end.
//!
//! `select Test from R where Diagnosis='pregnancy'` on the medical WSD must
//! produce the two-world answer {(ultrasound)}, {} with P(ultrasound)=0.4,
//! and the hypothyroidism+obesity record must carry probability 0.42.

use maybms_core::examples::medical_wsd;
use maybms_sql::session::medical_session;

fn main() {
    let wsd = medical_wsd();
    println!("medical WSD: {} components, {} worlds", wsd.num_components(), wsd.world_count());
    let ws = wsd.to_worldset(100).expect("tiny world-set");
    for (i, (w, p)) in ws.worlds().iter().enumerate() {
        let r = w.get("R").expect("relation R");
        println!("world {i} (p = {p:.2}):");
        print!("{}", maybms_relational::pretty::render(r, 10));
    }

    let mut session = medical_session();
    for sql in [
        "SELECT test FROM R WHERE diagnosis = 'pregnancy'",
        "SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'",
        "SELECT POSSIBLE diagnosis, symptom FROM R",
        "SELECT CERTAIN diagnosis FROM R",
    ] {
        println!("\nmaybms> {sql}");
        println!("{}", session.execute(sql).expect("demo query").render(20).trim_end());
    }

    let p = maybms_bench::e5_demo().expect("e5");
    println!("\nP(ultrasound recommended for pregnancy) = {p} (paper: 0.4)");
    assert!((p - 0.4).abs() < 1e-12);
}

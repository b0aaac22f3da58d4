//! The interner's growth contract: names are interned where text enters
//! (the catalog, the parser and binder, the names the provenance rewrite
//! and decorrelation generate), and the generated names are numbered per
//! query, so preparing a fixed set of statements a second time interns no
//! new name, and executing a prepared statement interns none at all.
//!
//! The statements are those of the benchmark's `tpch_fig6` workload (the
//! seven TPC-H sublink templates it runs, as SQL under `Strategy::Auto`, on
//! the test-size database) and the synthetic q1–q3 plans under
//! `Strategy::Gen`.
//!
//! The interner is process-wide, so the binary holds a single `#[test]`:
//! no other test interns while a count runs.

use perm::core::Strategy;
use perm::{Database, Name, Session, SessionConfig};
use perm_synthetic::{build_database, build_query, random_range, QueryKind};
use perm_tpch::{generate, sublink_queries, TpchScale};

/// The TPC-H templates `tpch_fig6` runs.
const TPCH_FIG6: [u32; 7] = [4, 11, 15, 16, 17, 18, 22];

fn session(db: &Database, strategy: Strategy) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            strategy,
            ..SessionConfig::default()
        },
    )
}

/// Prepares every statement in a fresh session (no plan cache) and, when
/// `execute`, runs it, requiring that the execution interns nothing.
fn round(tpch: &Database, synth: &Database, execute: bool) {
    for template in sublink_queries() {
        if !TPCH_FIG6.contains(&template.id) {
            continue;
        }
        let sql = template.instantiate(42);
        let session = session(tpch, Strategy::Auto);
        let prepared = session
            .prepare_provenance(&sql)
            .unwrap_or_else(|e| panic!("Q{} prepares: {e}", template.id));
        if execute {
            let before = Name::interned();
            session
                .execute(&prepared, &[])
                .unwrap_or_else(|e| panic!("Q{} executes: {e}", template.id));
            assert_eq!(
                Name::interned(),
                before,
                "executing Q{} interned a name",
                template.id
            );
        }
    }
    let params = random_range(200, 100, 42);
    for kind in [
        QueryKind::Q1EqualityAny,
        QueryKind::Q2InequalityAll,
        QueryKind::Q3CorrelatedExists,
    ] {
        let plan = build_query(synth, params, kind);
        let session = session(synth, Strategy::Gen);
        let prepared = session
            .prepare_provenance_plan(&plan)
            .unwrap_or_else(|e| panic!("{kind:?} prepares: {e}"));
        if execute {
            let before = Name::interned();
            session
                .execute(&prepared, &[])
                .unwrap_or_else(|e| panic!("{kind:?} executes: {e}"));
            assert_eq!(
                Name::interned(),
                before,
                "executing {kind:?} interned a name"
            );
        }
    }
}

#[test]
fn preparing_the_benchmark_statements_again_interns_no_name() {
    let tpch = generate(TpchScale::new(0.0001), 42);
    let synth = build_database(200, 100, 42);
    let databases = Name::interned();
    round(&tpch, &synth, false);
    let first = Name::interned();
    assert!(first > databases, "the first round interns generated names");
    round(&tpch, &synth, true);
    assert_eq!(
        Name::interned(),
        first,
        "the second round interned {} new names",
        Name::interned() - first
    );
}

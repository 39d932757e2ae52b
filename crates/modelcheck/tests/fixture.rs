//! Pins the checker's verdicts: `modelcheck::report()` — exactly what
//! `tensortool modelcheck` prints — must match the committed fixture
//! `tests/fixtures/modelcheck.txt` byte for byte: every scenario's state,
//! transition and interleaving counts, every verdict, and every mutation's
//! counterexample length and detail. A refactor of the serving protocol
//! that changes any of them changes what the checker proves.
//!
//! On a mismatch the rendered report is written to
//! `CARGO_TARGET_TMPDIR/modelcheck.actual.txt` so it can be diffed against
//! the fixture.

const FIXTURE: &str = include_str!("fixtures/modelcheck.txt");

#[test]
fn report_matches_the_committed_fixture() {
    let actual = modelcheck::report().unwrap_or_else(|report| report);
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("modelcheck.actual.txt");
        std::fs::write(&path, &actual).expect("write the rendered report");
        let line = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, f)| a != f)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "model-check report differs from the fixture at line {} (rendered report: {})",
            line + 1,
            path.display()
        );
    }
}

//! Sharded-vs-deterministic equivalence across the full default matrix.
//!
//! Every protocol family, every workload/assignment shape: driven through
//! the work-stealing pool on a site-at-a-time schedule, each scenario must
//! produce the *identical* final answers and the *identical* metered
//! words/messages as the deterministic runner, matching the golden
//! fixture (`golden_matrix_costs.txt`) bit-for-bit. The base rows run
//! twice: multiplexed (workers = 2, k ∈ {3, 5, 8}, so site-runs really
//! migrate between workers) and one worker per site (workers = k, the
//! one-thread-per-site configuration). This is the acceptance gate the
//! `Backend` trait was built for: an execution engine drops in behind
//! `Tracker` and is held to the same transcript.
//!
//! The suite also runs all 77 rows — hostile and pressure rows included —
//! through the `Wired` protocol adapter, which round-trips every up and
//! every routed down through the `dtrack-wire` frame codec: encode →
//! frame → decode is an exact inverse, so serialization must not perturb
//! a single metered word.

use dtrack_testkit::{
    apply_matrix_filter, assert_matches_golden, assert_outcomes_match, default_matrix, golden,
    run_scenario_on_backend, run_scenario_reference, run_scenario_wired, BackendKind, Scenario,
    BASE_MATRIX_LEN,
};

const GOLDEN: &str = include_str!("golden_matrix_costs.txt");

/// The frozen base rows (after `DTRACK_MATRIX_FILTER`); the hostile
/// extension rows run their parallel equivalence in `fault_axes.rs`.
fn base_rows() -> Vec<Scenario> {
    let scenarios = default_matrix();
    assert_eq!(scenarios.len(), BASE_MATRIX_LEN + 21 + 6);
    let scenarios = apply_matrix_filter(scenarios[..BASE_MATRIX_LEN].to_vec());
    assert!(!scenarios.is_empty(), "matrix filter matched nothing");
    scenarios
}

/// Run `scenarios` on the backend `backend_for` picks per scenario and
/// hold each to the deterministic reference and the golden fixture.
fn assert_base_rows_match(label: &str, backend_for: impl Fn(&Scenario) -> BackendKind) {
    let golden = golden::meter_costs(GOLDEN);
    for scenario in &base_rows() {
        let name = scenario.to_string();
        let backend = backend_for(scenario);
        let outcome = run_scenario_on_backend(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        // On mismatch these print a per-kind cost delta table and replay
        // the scenario traced, quoting the first diverging hop window.
        assert_outcomes_match(scenario, "", backend, &outcome, &reference);
        let &(golden_words, golden_messages) = golden
            .get(&name)
            .unwrap_or_else(|| panic!("[{name}] missing from golden fixture"));
        assert_matches_golden(
            scenario,
            "",
            label,
            (outcome.report.words, outcome.report.messages),
            &outcome.report.by_kind,
            (golden_words, golden_messages),
        );
    }
}

#[test]
fn sharded_matches_deterministic_on_full_default_matrix() {
    // Two workers for k ∈ {3, 5, 8}: every scenario multiplexes more
    // sites than workers, so the suite exercises real site-run handoff.
    assert_base_rows_match("sharded", |_| BackendKind::Sharded { workers: Some(2) });
}

#[test]
fn thread_per_site_matches_deterministic_on_base_matrix() {
    // One worker per site: no site-run ever waits for a worker, so site
    // interleaving is left to the OS scheduler.
    assert_base_rows_match("sharded(k)", |s| BackendKind::Sharded {
        workers: Some(s.k as usize),
    });
}

#[test]
fn wired_matches_golden_on_full_matrix() {
    let golden = golden::meter_costs(GOLDEN);
    let scenarios = default_matrix();
    assert_eq!(scenarios.len(), BASE_MATRIX_LEN + 27);
    let scenarios = apply_matrix_filter(scenarios);
    assert!(!scenarios.is_empty(), "matrix filter matched nothing");
    for scenario in &scenarios {
        let name = scenario.to_string();
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let wired = run_scenario_wired(scenario).unwrap_or_else(|f| panic!("{f}"));
        assert_outcomes_match(
            scenario,
            "wired",
            BackendKind::Deterministic,
            &wired,
            &reference,
        );
        let &(golden_words, golden_messages) = golden
            .get(&name)
            .unwrap_or_else(|| panic!("[{name}] missing from golden fixture"));
        assert_matches_golden(
            scenario,
            "wired",
            "wired",
            (wired.report.words, wired.report.messages),
            &wired.report.by_kind,
            (golden_words, golden_messages),
        );
    }
}

#[test]
fn worker_count_does_not_change_the_transcript() {
    // The same scenario across pool sizes (including workers > k and the
    // machine default) must give one transcript — worker count is an
    // execution detail, not a protocol parameter.
    // Selected by stable identity (an hh-exact straggler row), not by
    // position, so appending matrix rows can never silently repoint it.
    let scenarios = default_matrix();
    let scenario = scenarios
        .iter()
        .find(|s| {
            s.assignment == dtrack_testkit::matrix::STRAGGLER
                && s.protocol == dtrack_testkit::ProtocolSpec::HhExact
        })
        .expect("hh-exact straggler row");
    let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
    for workers in [Some(1), Some(3), Some(16), None] {
        let backend = BackendKind::Sharded { workers };
        let outcome = run_scenario_on_backend(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
        assert_outcomes_match(
            scenario,
            &format!("workers={workers:?}"),
            backend,
            &outcome,
            &reference,
        );
    }
}

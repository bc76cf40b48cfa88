//! Parser for the golden communication-cost fixture
//! (`tests/golden_matrix_costs.txt`) — one place, so every suite that
//! locks against the fixture (`golden_costs.rs`,
//! `sharded_equivalence.rs`, `fault_axes.rs`) reads the same format and
//! a format change is absorbed here instead of in every copy.
//!
//! Each line is `SCENARIO check WORDS MESSAGES meter WORDS MESSAGES`:
//! the costs of the scenario in differential (`check`) mode and in
//! meter-only mode, as written by `--example golden_dump`.

use std::collections::BTreeMap;

/// One parsed fixture line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenLine {
    /// Replayable scenario name (`Scenario`'s `Display`).
    pub scenario: String,
    /// Metered words in differential (check) mode.
    pub check_words: u64,
    /// Metered messages in differential (check) mode.
    pub check_messages: u64,
    /// Metered words in meter-only mode.
    pub meter_words: u64,
    /// Metered messages in meter-only mode.
    pub meter_messages: u64,
}

/// Parse the whole fixture, panicking (with the offending line) on any
/// format drift — a malformed fixture must fail the suite loudly.
pub fn parse(fixture: &str) -> Vec<GoldenLine> {
    fixture
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let parts: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(parts.len(), 7, "malformed golden line: {l}");
            assert_eq!(parts[1], "check", "malformed golden line: {l}");
            assert_eq!(parts[4], "meter", "malformed golden line: {l}");
            GoldenLine {
                scenario: parts[0].to_owned(),
                check_words: parts[2].parse().unwrap(),
                check_messages: parts[3].parse().unwrap(),
                meter_words: parts[5].parse().unwrap(),
                meter_messages: parts[6].parse().unwrap(),
            }
        })
        .collect()
}

/// scenario name → (meter-mode words, meter-mode messages): the map the
/// equivalence suites compare parallel backends against.
pub fn meter_costs(fixture: &str) -> BTreeMap<String, (u64, u64)> {
    parse(fixture)
        .into_iter()
        .map(|l| (l.scenario, (l.meter_words, l.meter_messages)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lines_and_builds_the_meter_map() {
        let fixture = "a/b/k3 check 10 5 meter 20 7\n\nc/d/k5 check 1 1 meter 2 2\n";
        let lines = parse(fixture);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].scenario, "a/b/k3");
        assert_eq!(lines[0].check_words, 10);
        assert_eq!(lines[0].meter_messages, 7);
        let map = meter_costs(fixture);
        assert_eq!(map["a/b/k3"], (20, 7));
        assert_eq!(map["c/d/k5"], (2, 2));
    }

    #[test]
    #[should_panic(expected = "malformed golden line")]
    fn rejects_format_drift() {
        parse("a/b check 1 2 3 4\n");
    }
}

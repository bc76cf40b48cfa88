//! The wait-for graph over the channel registry (rule D3's liveness
//! half).
//!
//! Model: graph nodes are the *roles* named in `[[channel]]` entries
//! (`feeder`, `site`, `coordinator`, …). A **bounded** channel's send
//! can block until the receiver drains, so it contributes a blocking
//! edge `from → to` for every sender role: "`from` may wait for `to` to
//! make progress". An **unbounded** channel's send never blocks, so it
//! contributes a non-blocking edge — recorded so cycles can be talked
//! about, but unable to wedge anyone by itself.
//!
//! The deadlock-freedom argument in DESIGN.md ("The parallel runtime →
//! Backpressure and deadlock freedom") is exactly the shape this module
//! checks mechanically:
//!
//! 1. **The bounded subgraph must be acyclic.** A cycle of blocking
//!    edges is a potential deadlock: every role in it can be waiting for
//!    the next with no external way to drain anyone.
//! 2. **Every load-bearing unbounded edge must be flagged
//!    `breaks_cycle`.** An unbounded edge `from → to` is load-bearing
//!    when a *bounded-only* path leads back `to → … → from`: were this
//!    edge bounded too, that cycle would be all-blocking — this edge's
//!    unboundedness is exactly what breaks it. Flagging is a *written
//!    claim* ("unbounded precisely so this cycle cannot block", plus the
//!    memory-bound argument); a load-bearing edge without the flag is an
//!    undocumented liveness argument and fails the lint. Cycles made
//!    entirely of unbounded edges need no flag — no send in them can
//!    block in the first place.
//! 3. **A `breaks_cycle` flag on an edge that is not load-bearing is
//!    stale** and fails the lint, the same way an unused allow-list
//!    entry does.
//!
//! Receive-side blocking (a `recv` waiting for a sender) is deliberately
//! out of the model: every receiver in the runtimes either holds no
//! resources while waiting (the coordinator loop) or waits with a
//! deadline (`settle_deadline`), and rule D4 separately forbids waiting
//! while holding a lock.

use crate::config::Channel;
use crate::config::Rule;
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// One directed edge, expanded from a `[[channel]]` entry.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    bounded: bool,
}

/// Check the registry's wait-for graph; findings land in `out`.
pub fn check(channels: &[Channel], out: &mut Vec<Violation>) {
    let mut edges = Vec::new();
    for c in channels {
        for f in &c.from {
            edges.push(Edge {
                from: f.clone(),
                to: c.to.clone(),
                bounded: c.construct == "bounded",
            });
        }
    }

    // 1. Bounded subgraph acyclicity.
    let bounded: Vec<&Edge> = edges.iter().filter(|e| e.bounded).collect();
    if let Some(cycle) = find_cycle(&bounded) {
        out.push(Violation {
            rule: Rule::D3,
            path: "lint.toml".into(),
            line: 0,
            item: "<registry>".into(),
            message: format!(
                "bounded wait-for edges form a cycle ({}) — every send in it can block on the \
                 next hop; one edge must become the registered unbounded inbox",
                cycle.join(" -> ")
            ),
        });
    }

    // Bounded-only reachability: unbounded edge e is load-bearing iff a
    // path of *blocking* edges leads back e.to -> e.from (so the cycle
    // through e would be all-blocking were e bounded too).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges.iter().filter(|e| e.bounded) {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    // Path of length >= 1 (src == dst needs an actual bounded cycle, so
    // start from src's successors, not src itself).
    let reaches = |src: &str, dst: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<&str> = adj
            .get(src)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(n) = stack.pop() {
            if n == dst {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };

    // Checks 2 & 3 are per *entry*, not per expanded edge: the flag is a
    // claim about the channel, which is load-bearing if any of its
    // sender roles sits on an otherwise-bounded cycle.
    for c in channels {
        if c.construct == "bounded" {
            continue; // bounded-only cycles are handled above.
        }
        let load_bearing = c.from.iter().any(|f| reaches(&c.to, f));
        if load_bearing && !c.breaks_cycle {
            out.push(Violation {
                rule: Rule::D3,
                path: "lint.toml".into(),
                line: 0,
                item: c.name.clone(),
                message: format!(
                    "unbounded channel `{}` ({} -> {}) closes an otherwise-bounded wait-for \
                     cycle but is not flagged breaks_cycle — the liveness argument must be \
                     written down",
                    c.name,
                    c.from.join(","),
                    c.to
                ),
            });
        }
        if !load_bearing && c.breaks_cycle {
            out.push(Violation {
                rule: Rule::D3,
                path: "lint.toml".into(),
                line: 0,
                item: c.name.clone(),
                message: format!(
                    "channel `{}` ({} -> {}) is flagged breaks_cycle but no bounded wait-for \
                     path returns {} -> any sender — stale flag; remove it or fix the \
                     registry's endpoints",
                    c.name,
                    c.from.join(","),
                    c.to,
                    c.to
                ),
            });
        }
    }
}

/// DFS cycle detection; returns the node names of one cycle if any.
fn find_cycle(edges: &[&Edge]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e.to.as_str());
        nodes.insert(e.from.as_str());
        nodes.insert(e.to.as_str());
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = nodes.iter().map(|n| (*n, Mark::White)).collect();
    fn dfs<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        path: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(n, Mark::Grey);
        path.push(n);
        for next in adj.get(n).into_iter().flatten() {
            match marks.get(next).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    let start = path.iter().position(|p| p == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        path[start..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                Mark::White => {
                    if let Some(c) = dfs(next, adj, marks, path) {
                        return Some(c);
                    }
                }
                Mark::Black => {}
            }
        }
        path.pop();
        marks.insert(n, Mark::Black);
        None
    }
    for n in nodes.clone() {
        if marks[n] == Mark::White {
            let mut path = Vec::new();
            if let Some(c) = dfs(n, &adj, &mut marks, &mut path) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(name: &str, from: &[&str], to: &str, construct: &str, breaks: bool) -> Channel {
        Channel {
            path: "crates/sim/src/x.rs".into(),
            fns: vec!["spawn".into()],
            construct: construct.into(),
            name: name.into(),
            from: from.iter().map(|s| s.to_string()).collect(),
            to: to.into(),
            breaks_cycle: breaks,
            reason: "test".into(),
        }
    }

    #[test]
    fn healthy_registry_is_clean() {
        // feeder -> site (bounded), coordinator -> site (bounded),
        // site -> coordinator (unbounded, breaks the cycle).
        let channels = vec![
            chan(
                "site-queue",
                &["feeder", "coordinator"],
                "site",
                "bounded",
                false,
            ),
            chan("coord-inbox", &["site"], "coordinator", "unbounded", true),
        ];
        let mut out = Vec::new();
        check(&channels, &mut out);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn bounded_cycle_is_flagged() {
        let channels = vec![
            chan("a", &["site"], "coordinator", "bounded", false),
            chan("b", &["coordinator"], "site", "bounded", false),
        ];
        let mut out = Vec::new();
        check(&channels, &mut out);
        assert!(out.iter().any(|v| v.message.contains("form a cycle")));
    }

    #[test]
    fn unflagged_unbounded_edge_on_cycle() {
        let channels = vec![
            chan("a", &["site"], "coordinator", "unbounded", false),
            chan("b", &["coordinator"], "site", "bounded", false),
        ];
        let mut out = Vec::new();
        check(&channels, &mut out);
        assert!(out
            .iter()
            .any(|v| v.message.contains("not flagged breaks_cycle")));
    }

    #[test]
    fn stale_breaks_cycle_flag() {
        let channels = vec![chan("reply", &["site"], "feeder", "unbounded", true)];
        let mut out = Vec::new();
        check(&channels, &mut out);
        assert!(out.iter().any(|v| v.message.contains("stale flag")));
    }
}

//! Answer checks against `dtrack_core::oracle::ExactOracle`.
//!
//! Every answer is checked, outside the timed region. A verdict depends
//! only on the answer and on the stream prefix it was given at, so
//! verdicts are memoised by (stream, items fed, query, answer): a set that
//! replays a stream and gets the same answers reuses them.

use std::collections::HashMap;

use dtrack_core::ExactOracle;
use dtrack_sim::{Answer, Query};

/// The outcome of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The answer passed the paper's ε check.
    pub ok: bool,
    /// Worst error in units of εn; ≤ 1 means the guarantee held.
    pub err: f64,
}

/// Verdicts shared by every set of a run.
#[derive(Debug, Default)]
pub struct Memo {
    verdicts: HashMap<String, Verdict>,
    /// Descriptions of the first few failed checks.
    pub failures: Vec<String>,
}

/// The exact state of one set's stream prefix.
#[derive(Debug, Default)]
pub struct Checker {
    /// Which stream of the run is being fed (part of the memo key).
    stream: usize,
    oracle: ExactOracle,
}

impl Checker {
    pub fn new(stream: usize) -> Self {
        Checker {
            stream,
            oracle: ExactOracle::new(),
        }
    }

    /// Record the next items of the stream.
    pub fn advance(&mut self, items: impl IntoIterator<Item = u64>) {
        for x in items {
            self.oracle.observe(x);
        }
    }

    /// Check `answer` to `query` against the prefix fed so far. `phi` is
    /// the quantile a `TrackedQuantile` query follows.
    pub fn check(
        &self,
        memo: &mut Memo,
        query: Query,
        answer: &Answer,
        epsilon: f64,
        tracked_phi: f64,
    ) -> Verdict {
        let key = format!("{}|{}|{query}|{answer}", self.stream, self.oracle.total());
        if let Some(v) = memo.verdicts.get(&key) {
            return *v;
        }
        let verdict = self.verdict(query, answer, epsilon, tracked_phi);
        if !verdict.ok && memo.failures.len() < 8 {
            memo.failures.push(format!(
                "n={}: {query} answered {answer} (error {:.3} εn)",
                self.oracle.total(),
                verdict.err
            ));
        }
        memo.verdicts.insert(key, verdict);
        verdict
    }

    fn verdict(&self, query: Query, answer: &Answer, epsilon: f64, tracked_phi: f64) -> Verdict {
        let fail = Verdict {
            ok: false,
            err: f64::INFINITY,
        };
        let n = self.oracle.total() as f64;
        let eps_n = epsilon * n;
        match query {
            Query::HeavyHitters { phi } => {
                let Some(items) = answer.as_items() else {
                    return fail;
                };
                let ok = self
                    .oracle
                    .check_heavy_hitters(items, phi, epsilon)
                    .is_none();
                // A reported item must have frequency at least (φ−ε)n and
                // an unreported one below φn; the error is how far into
                // the ε-wide band each lies, so it passes 1 exactly when
                // the item leaves the band on the wrong side.
                let mut err: f64 = 0.0;
                for &x in items {
                    let m = self.oracle.frequency(x) as f64;
                    err = err.max((phi * n - m) / eps_n);
                }
                for x in self.oracle.heavy_hitters(phi - epsilon) {
                    if !items.contains(&x) {
                        let m = self.oracle.frequency(x) as f64;
                        err = err.max((m - (phi - epsilon) * n) / eps_n);
                    }
                }
                Verdict { ok, err }
            }
            Query::TrackedQuantile | Query::Quantile { .. } => {
                let phi = match query {
                    Query::Quantile { phi } => phi,
                    _ => tracked_phi,
                };
                match answer.as_quantile() {
                    Some(Some(q)) => Verdict {
                        ok: self.oracle.quantile_ok(q, phi, epsilon),
                        err: self.oracle.quantile_rank_error(q, phi) as f64 / eps_n,
                    },
                    _ => fail,
                }
            }
            _ => fail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_hitter_error_is_measured_in_the_band() {
        let mut c = Checker::new(0);
        // 100 items: 7 × 30, 8 × 15, the rest distinct.
        c.advance(std::iter::repeat_n(7, 30));
        c.advance(std::iter::repeat_n(8, 15));
        c.advance(100..155);
        let mut memo = Memo::default();
        let q = Query::HeavyHitters { phi: 0.2 };
        let exact = Answer::HeavyHitters {
            phi: 0.2,
            items: vec![7],
        };
        // Item 8 (15%) sits halfway into the [0.1, 0.2) band.
        let v = c.check(&mut memo, q, &exact, 0.1, 0.5);
        assert!(v.ok);
        assert!((v.err - 0.5).abs() < 1e-9);
        let missing = Answer::HeavyHitters {
            phi: 0.2,
            items: vec![],
        };
        let v = c.check(&mut memo, q, &missing, 0.1, 0.5);
        assert!(!v.ok && v.err > 1.0);
        assert_eq!(memo.failures.len(), 1);
    }

    #[test]
    fn quantile_error_is_rank_distance_over_eps_n() {
        let mut c = Checker::new(0);
        c.advance(0..100);
        let mut memo = Memo::default();
        let q = Query::Quantile { phi: 0.5 };
        let near = Answer::QuantileAt {
            phi: 0.5,
            value: Some(53),
        };
        let v = c.check(&mut memo, q, &near, 0.1, 0.5);
        assert!(v.ok);
        assert!((v.err - 0.3).abs() < 1e-9);
        let far = Answer::QuantileAt {
            phi: 0.5,
            value: Some(80),
        };
        assert!(!c.check(&mut memo, q, &far, 0.1, 0.5).ok);
    }
}

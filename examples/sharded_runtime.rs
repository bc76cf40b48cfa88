//! The same protocol state machines on real OS threads: the sites on a
//! work-stealing worker pool (one worker per core by default), the
//! coordinator on a thread of its own, bounded per-site queues in between
//! — behind the exact same `Tracker` facade as the deterministic runtime.
//! The only difference from `quickstart` is the `.backend(...)` line;
//! `workers: Some(k)` would give each of the k sites a thread of its own.
//!
//! ```text
//! cargo run --release --example sharded_runtime
//! ```

use dtrack::prelude::*;
use dtrack::workload::{Generator, Zipf};

fn main() {
    let k = 4u32;
    let epsilon = 0.05;
    let config = HhConfig::new(k, epsilon).expect("valid parameters");
    let mut tracker = Tracker::builder()
        .backend(BackendKind::Sharded { workers: None })
        .protocol(HhExactProtocol::new(config))
        .build()
        .expect("spawn the pool");

    let mut gen = Zipf::new(1 << 16, 1.3, 21);
    let n = 200_000u64;
    for i in 0..n {
        tracker
            .feed(SiteId((i % k as u64) as u32), gen.next_item())
            .expect("feed");
        if i % 50_000 == 49_999 {
            // query() settles the cluster first, so the answer reflects a
            // quiescent snapshot — no manual synchronization needed.
            let hh = tracker
                .query(Query::HeavyHitters { phi: 0.1 })
                .expect("query");
            let words = tracker.cost().total_words();
            println!("after {:>7} items: {hh} ({words} words so far)", i + 1);
        }
    }

    let m = tracker
        .query(Query::Count)
        .expect("query")
        .as_count()
        .expect("count answer");
    let meter = tracker.finish().expect("clean shutdown");
    println!(
        "\nfinal: C.m = {} (true {}), {} messages / {} words",
        m,
        n,
        meter.total_messages(),
        meter.total_words()
    );
    assert!(m <= n, "tracked count must underestimate");
}
